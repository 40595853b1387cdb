"""Short Weierstrass reduction and the j-invariant."""
import random
from fractions import Fraction

import poly_oracle as oracle
import pytest
import sympy
from hypothesis import given, strategies as st

from seljac.elliptic import depress_cubic, is_isotrivial, j_invariant, verify_prescribed_j_family
from seljac.poly import Poly
from seljac.ratfunc import RatFunc

small_fraction = st.fractions(min_value=-9, max_value=9, max_denominator=6)


def test_depress_absorbs_leading_coefficient():
    w = depress_cubic([-2, -2, 0, 2])
    assert w.a4 == RatFunc(-1)
    assert w.a6 == RatFunc(-1)
    assert w.absorbed_lc == RatFunc(2)


def test_depress_kills_quadratic_term():
    w = depress_cubic([-1, 2, 3, 1])
    assert w.a4 == RatFunc(-1)
    assert w.a6 == RatFunc(-1)


@given(small_fraction, small_fraction, small_fraction)
def test_depress_shift_invariance(a4, a6, s):
    # substituting x -> x + s changes neither a4 nor a6
    f = Poly([a6, a4, 0, 1])
    if not 4 * a4**3 + 27 * a6**2:
        return
    g = Poly(oracle.compose(f.coeffs, (s, Fraction(1))))
    w0 = depress_cubic(f)
    w1 = depress_cubic(g)
    assert (w0.a4, w0.a6) == (w1.a4, w1.a6)


def test_depress_rejects():
    with pytest.raises(ValueError):
        depress_cubic([1, 2, 3])
    with pytest.raises(ValueError):
        depress_cubic([1, 2, 3, 4, 5])
    with pytest.raises(ValueError):
        depress_cubic([1, 1, 1, 0])
    # y^2 = x^3 and y^2 = (x - 1)^2 (x + 2) are singular
    with pytest.raises(ValueError):
        depress_cubic([0, 0, 0, 1])
    with pytest.raises(ValueError):
        depress_cubic([2, -3, 0, 1])


def test_j_fixtures():
    assert j_invariant(depress_cubic([-1, -1, 0, 1])) == RatFunc(Fraction(-6912, 23))
    assert j_invariant(depress_cubic([0, -1, 0, 1])) == RatFunc(1728)
    assert j_invariant(depress_cubic([1, 0, 0, 1])) == RatFunc(0)


def test_j_family_fixture():
    t = Poly([0, 1])
    w = depress_cubic([t, -1, 0, 1])
    j = j_invariant(w)
    assert j == RatFunc(Poly([-6912]), Poly([-4, 0, 27]))
    assert j.to_text("t") == "-6912/(27*t^2 - 4)"
    assert not is_isotrivial(j)


@given(small_fraction, small_fraction, st.fractions(min_value=-4, max_value=4, max_denominator=3))
def test_j_is_twist_invariant(a4, a6, u):
    # scaling (a4, a6) -> (u^4 a4, u^6 a6) is a change of variables on the
    # curve and must preserve j
    if u == 0 or not 4 * a4**3 + 27 * a6**2:
        return
    w0 = depress_cubic([a6, a4, 0, 1])
    w1 = depress_cubic([u**6 * a6, u**4 * a4, 0, 1])
    assert j_invariant(w0) == j_invariant(w1)


def test_quadratic_twist_same_j():
    # y^2 = 2 x^3 - 2 x - 2 vs y^2 = x^3 - x - 1
    assert j_invariant(depress_cubic([-2, -2, 0, 2])) == j_invariant(
        depress_cubic([-1, -1, 0, 1])
    )


def test_prescribed_j_family():
    assert verify_prescribed_j_family() is True
    assert verify_prescribed_j_family(pole_shift=1000) is False


def test_prescribed_j_specialization():
    # same construction evaluated at the rational point a = 2000
    a = Fraction(2000)
    c = 27 * a / (4 * (a - 1728))
    w = depress_cubic([-c, -c, 0, 1])
    assert j_invariant(w) == RatFunc(a)


def test_is_isotrivial_coercions():
    assert is_isotrivial(Fraction(3, 2))
    assert is_isotrivial(7)
    assert is_isotrivial(Poly([5]))
    assert not is_isotrivial(Poly([0, 1]))
    assert not is_isotrivial(RatFunc(Poly([1]), Poly([1, 0, 1])))
    with pytest.raises(TypeError):
        is_isotrivial("t")
    with pytest.raises(TypeError):
        depress_cubic([RatFunc(1), 0, 0, 1])


# sympy's field Q(t): each result of its arithmetic is a reduced fraction,
# cancelled by sympy's own polynomial gcd
QT, T = sympy.field("t", sympy.QQ)


def _oracle(c):
    """An int, `Fraction` or `Poly` in t as an element of sympy's Q(t)."""
    cs = c.coeffs if isinstance(c, Poly) else (Fraction(c),)
    return sum((sympy.QQ(v.numerator, v.denominator) * T**k for k, v in enumerate(cs)), QT(0))


def _monic_pair(r) -> tuple[list, list]:
    """sympy's numerator and denominator, both divided by the denominator's
    leading coefficient, as `Fraction`s lowest degree first."""
    lc = Fraction(int(r.denom.LC.numerator), int(r.denom.LC.denominator))
    return tuple(
        [Fraction(int(v.numerator), int(v.denominator)) / lc for v in reversed(f.to_dense())]
        for f in (r.numer, r.denom)
    )


def _pair(r: RatFunc) -> tuple[list, list]:
    return list(r.num.coeffs), list(r.den.coeffs)


def _random_cubics(rng: random.Random):
    """c0..c3 over Q and over Q(t): monic or not, t in any coefficient (the
    leading one too), rational coefficients; then c3 (x - r)^2 (x - s),
    which is singular."""

    def coeff(with_t: bool) -> Poly:
        def q():
            return Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3)))

        return Poly([q() for _ in range(rng.randint(2, 3) if with_t else 1)])

    for k in range(120):
        over_q = k % 4 == 0
        cs = [coeff(not over_q and rng.random() < 0.5) for _ in range(4)]
        if k % 3 == 0:
            cs[3] = Poly.one()
        if over_q:
            # over Q, as a Poly in x or as a list of rationals
            cs = [c.coeff(0) for c in cs]
            yield Poly(cs) if k % 8 and cs[3] else cs
        else:
            yield cs
    for _ in range(30):
        c3, r, s = (coeff(rng.random() < 0.5) for _ in range(3))
        yield [c3 * -(r * r * s), c3 * (r * r + 2 * r * s), c3 * -(2 * r + s), c3]


def test_short_form_and_j_match_sympy_textbook_formulas():
    # the textbook route in sympy's Q(t): divide by c3 and shift x by
    # -c2/(3 c3), so that a4 = C - B^2/3 and a6 = 2 B^3/27 - B C/3 + D with
    # B, C, D = c2, c1, c0 over c3; j = 6912 a4^3/(4 a4^3 + 27 a6^2)
    kinds = ("over Q", "monic", "rational", "singular", *(f"t in c{k}" for k in range(4)))
    seen = dict.fromkeys(kinds, 0)
    for cubic in _random_cubics(random.Random(27)):
        cs = list(cubic.coeffs) if isinstance(cubic, Poly) else cubic
        e0, e1, e2, e3 = (_oracle(c) for c in cs)
        if not e3:
            with pytest.raises(ValueError, match="not a cubic"):
                depress_cubic(cubic)
            continue
        b, c, d = e2 / e3, e1 / e3, e0 / e3
        a4 = c - b**2 / 3
        a6 = b**3 * 2 / 27 - b * c / 3 + d
        disc = a4**3 * 4 + a6**2 * 27
        if not disc:
            seen["singular"] += 1
            with pytest.raises(ValueError, match=r"^singular cubic: 4 a4\^3 \+ 27 a6\^2 = 0$"):
                depress_cubic(cubic)
            continue
        w = depress_cubic(cubic)
        want_j, got_j = a4**3 * 6912 / disc, j_invariant(w)
        assert _pair(w.a4) == _monic_pair(a4)
        assert _pair(w.a6) == _monic_pair(a6)
        assert _pair(w.absorbed_lc) == _monic_pair(e3)
        assert _pair(got_j) == _monic_pair(want_j)
        assert is_isotrivial(got_j) == (
            want_j.numer.degree() <= 0 and want_j.denom.degree() == 0
        )
        in_t = [e.numer.degree() > 0 for e in (e0, e1, e2, e3)]
        for k in range(4):
            seen[f"t in c{k}"] += in_t[k]
        seen["over Q"] += not any(in_t)
        seen["monic"] += e3 == 1
        seen["rational"] += any(
            v.denominator != 1 for c in cs for v in (c.coeffs if isinstance(c, Poly) else (c,))
        )
    assert min(seen.values()) >= 10, seen
