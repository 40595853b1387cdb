"""Gluing exponents, the exact chart identity, and the Hurwitz count."""
import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st

from seljac import model
from seljac.arith import prime_power
from seljac.lattice import genus_formula, validate_pair
from seljac.model import (
    chart_identity_check,
    delta_chart_order,
    gluing_exponents,
    hurwitz_genus,
)
from seljac.poly import Poly, reversed_poly

VALID_PAIRS = [
    (n, q)
    for n in range(3, 13)
    for q in range(2, 65)
    if prime_power(q) is not None and math.gcd(n, q) == 1
]


def test_gluing_fixtures():
    assert gluing_exponents(validate_pair(3, 4)) == (2, 3)
    assert gluing_exponents(validate_pair(3, 2)) == (1, 1)
    assert gluing_exponents(validate_pair(4, 9)) == (3, 7)


@given(st.sampled_from(VALID_PAIRS))
def test_gluing_bezout(pair):
    n, q = pair
    a, b = gluing_exponents(validate_pair(n, q))
    assert b * n - a * q == 1
    assert 1 <= b < q
    assert a >= 1


def test_reversed_poly_degree_drop():
    # reversal keeps degree n exactly when f(0) != 0
    f = Poly([0, -1, 0, 1])
    assert reversed_poly(f, 3) == Poly([1, 0, -1])
    assert reversed_poly(Poly([2, -1, 0, 1]), 3).degree == 3


@pytest.mark.parametrize(
    "coeffs,q",
    [
        ([-1, -1, 0, 1], 2),
        ([-1, -1, 0, 1], 4),
        ([1, 1, 0, 0, 1], 3),
        ([1, 1, 0, 0, 1], 9),
        ([0, -1, 0, 1], 4),          # f(0) = 0 is fine
        ([-1, -1, 0, 2], 5),         # non-monic is fine
        ([Fraction(1, 2), 0, 0, 1], 2),
    ],
)
def test_chart_identity(coeffs, q):
    f = Poly(coeffs)
    assert chart_identity_check(f, validate_pair(f.degree, q)) is True


@given(st.sampled_from([(n, q) for n, q in VALID_PAIRS if q <= 16 and n <= 7]))
def test_chart_identity_generic(pair):
    n, q = pair
    f = Poly([1] * n + [1])  # 1 + x + ... + x^(n-1) + x^n
    assert chart_identity_check(f, validate_pair(n, q)) is True


@given(st.sampled_from(VALID_PAIRS))
def test_delta_chart_order_is_q(pair):
    n, q = pair
    assert delta_chart_order(validate_pair(n, q)) == q


def test_hurwitz_fixtures():
    assert hurwitz_genus(validate_pair(3, 4)) == 3
    assert hurwitz_genus(validate_pair(3, 2)) == 1
    assert hurwitz_genus(validate_pair(5, 7)) == 12


@given(st.sampled_from(VALID_PAIRS))
def test_hurwitz_matches_lattice_count(pair):
    pair = validate_pair(*pair)
    assert hurwitz_genus(pair) == genus_formula(pair)


def test_hurwitz_validates():
    # the pair is checked once, where it is built
    with pytest.raises(ValueError):
        hurwitz_genus(validate_pair(4, 2))


@pytest.mark.parametrize("coeffs,n", [([1, 1, 0, 1], 4), ([1, 1, 0, 0, 1], 3), ([1, 1], 3)])
def test_chart_identity_rejects_a_degree_other_than_n(coeffs, n):
    f = Poly(coeffs)
    with pytest.raises(ValueError, match=rf"^f has degree {f.degree}, not the pair's n = {n}$"):
        chart_identity_check(f, validate_pair(n, 5))


# ---- what the chart identity catches ----


def test_chart_identity_catches_wrong_gluing(monkeypatch):
    # b -> b + q keeps b*n = 1 mod q but makes b*n - a*q = 1 + n*q
    real = model.gluing_exponents
    monkeypatch.setattr(
        model, "gluing_exponents", lambda pair: (real(pair)[0], real(pair)[1] + pair.q)
    )
    assert chart_identity_check(Poly([-1, -1, 0, 1]), validate_pair(3, 4)) is False


def test_chart_identity_catches_unreversed_coefficients(monkeypatch):
    f = Poly([2, -1, 0, 1])  # not palindromic, so frev != f
    assert reversed_poly(f, 3) != f
    monkeypatch.setattr(model, "reversed_poly", lambda g, n: g)
    assert chart_identity_check(f, validate_pair(3, 4)) is False


COEFF = st.fractions(min_value=-50, max_value=50, max_denominator=50)


def _random_f(n, data):
    constant = data.draw(st.just(Fraction(0)) | COEFF)  # f(0) = 0: frev loses degree
    middle = data.draw(st.lists(COEFF, min_size=n - 1, max_size=n - 1))
    lead = data.draw(COEFF.filter(bool))
    return Poly([constant, *middle, lead])


@given(st.sampled_from([(n, q) for n, q in VALID_PAIRS if n <= 8]), st.data())
def test_chart_identity_holds_on_random_rational_f(pair, data):
    n, q = pair
    assert chart_identity_check(_random_f(n, data), validate_pair(n, q)) is True


# ---- the Fraction oracle ----


def fraction_chart_identity(f: Poly, pair) -> bool:
    """`chart_identity_check` on `Fraction` coefficients, as it was first
    written, with the gluing exponents and the reversal read from `model`
    at each call."""
    n, q = pair.n, pair.q
    a, b = model.gluing_exponents(pair)

    def side(lead, terms):
        out = {lead: Fraction(1)}
        for c, key in terms:
            out[key] = out.get(key, 0) - c
        return {key: c for key, c in out.items() if c}

    cleared_f = ((c, (b * (n - k), q * (n - k))) for k, c in enumerate(f.coeffs))
    lhs = side((b * n - a * q, 0), cleared_f)
    frev = model.reversed_poly(f, n)
    rhs = side((1, 0), ((c, (b * k, q * k)) for k, c in enumerate(frev.coeffs)))
    return lhs == rhs


# A wrong reversal for every f: x^n f(1/x) halved (its content denominator
# changes), shifted up one degree, or with 1 added; and one for every f
# that is not a palindrome, f itself.
WRONG_REVERSALS = {
    "halved": lambda g, n: reversed_poly(g, n) * Fraction(1, 2),
    "shifted": lambda g, n: reversed_poly(g, n + 1),
    "plus one": lambda g, n: reversed_poly(g, n) + 1,
    "unreversed": lambda g, n: g,
}

# Gluing exponents off by q in b or by one in a: b*n - a*q is no longer 1.
WRONG_GLUINGS = {
    "b + q": lambda a, b, q: (a, b + q),
    "a + 1": lambda a, b, q: (a + 1, b),
    "a - 1": lambda a, b, q: (a - 1, b),
}

MODEL_PAIRS = [(n, q) for n, q in VALID_PAIRS if n <= 8]


@given(st.sampled_from(MODEL_PAIRS), st.data())
def test_integer_identity_matches_the_fraction_oracle(pair, data):
    n, q = pair
    f, pair = _random_f(n, data), validate_pair(n, q)
    assert chart_identity_check(f, pair) is fraction_chart_identity(f, pair) is True


@given(st.sampled_from(MODEL_PAIRS), st.sampled_from(sorted(WRONG_REVERSALS)), st.data())
def test_both_checks_refuse_a_wrong_reversal(pair, name, data):
    n, q = pair
    f, pair = _random_f(n, data), validate_pair(n, q)
    if name == "unreversed":
        assume(reversed_poly(f, n) != f)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model, "reversed_poly", WRONG_REVERSALS[name])
        assert chart_identity_check(f, pair) is fraction_chart_identity(f, pair) is False


@given(st.sampled_from(MODEL_PAIRS), st.sampled_from(sorted(WRONG_GLUINGS)), st.data())
def test_both_checks_refuse_wrong_gluing_exponents(pair, name, data):
    n, q = pair
    f, pair = _random_f(n, data), validate_pair(n, q)
    a, b = gluing_exponents(pair)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model, "gluing_exponents", lambda _: WRONG_GLUINGS[name](a, b, q))
        assert chart_identity_check(f, pair) is fraction_chart_identity(f, pair) is False
