"""Gluing exponents, the exact chart identity, and the Hurwitz count."""
import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from seljac import model
from seljac.arith import prime_power
from seljac.lattice import genus_formula
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
    assert gluing_exponents(3, 4) == (2, 3)
    assert gluing_exponents(3, 2) == (1, 1)
    assert gluing_exponents(4, 9) == (3, 7)


@given(st.sampled_from(VALID_PAIRS))
def test_gluing_bezout(pair):
    n, q = pair
    a, b = gluing_exponents(n, q)
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
    assert chart_identity_check(Poly(coeffs), q) is True


@given(st.sampled_from([(n, q) for n, q in VALID_PAIRS if q <= 16 and n <= 7]))
def test_chart_identity_generic(pair):
    n, q = pair
    f = Poly([1] * n + [1])  # 1 + x + ... + x^(n-1) + x^n
    assert chart_identity_check(f, q) is True


@given(st.sampled_from(VALID_PAIRS))
def test_delta_chart_order_is_q(pair):
    n, q = pair
    assert delta_chart_order(n, q) == q


def test_hurwitz_fixtures():
    assert hurwitz_genus(3, 4) == 3
    assert hurwitz_genus(3, 2) == 1
    assert hurwitz_genus(5, 7) == 12


@given(st.sampled_from(VALID_PAIRS))
def test_hurwitz_matches_lattice_count(pair):
    n, q = pair
    assert hurwitz_genus(n, q) == genus_formula(n, q)


def test_hurwitz_validates():
    with pytest.raises(ValueError):
        hurwitz_genus(4, 2)


# ---- what the chart identity catches ----


def test_chart_identity_catches_wrong_gluing(monkeypatch):
    # b -> b + q keeps b*n = 1 mod q but makes b*n - a*q = 1 + n*q
    real = model.gluing_exponents
    monkeypatch.setattr(
        model, "gluing_exponents", lambda n, q: (real(n, q)[0], real(n, q)[1] + q)
    )
    assert chart_identity_check(Poly([-1, -1, 0, 1]), 4) is False


def test_chart_identity_catches_unreversed_coefficients(monkeypatch):
    f = Poly([2, -1, 0, 1])  # not palindromic, so frev != f
    assert reversed_poly(f, 3) != f
    monkeypatch.setattr(model, "reversed_poly", lambda g, n: g)
    assert chart_identity_check(f, 4) is False


COEFF = st.fractions(min_value=-50, max_value=50, max_denominator=50)


@given(st.sampled_from([(n, q) for n, q in VALID_PAIRS if n <= 8]), st.data())
def test_chart_identity_holds_on_random_rational_f(pair, data):
    n, q = pair
    constant = data.draw(st.just(Fraction(0)) | COEFF)  # f(0) = 0: frev loses degree
    middle = data.draw(st.lists(COEFF, min_size=n - 1, max_size=n - 1))
    lead = data.draw(COEFF.filter(bool))
    assert chart_identity_check(Poly([constant, *middle, lead]), q) is True
