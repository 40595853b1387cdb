"""Short Weierstrass form and j-invariants for cubic curves y^2 = cubic,
with coefficients in Q or Q(t).

The j-invariant is normalized so that y^2 = x^3 + a4 x + a6 has
j = 6912 a4^3 / (4 a4^3 + 27 a6^2); a family over Q(t) is isotrivial
exactly when its j-invariant is constant. Everything is computed in Q[t]
from two integral invariants of the cubic, and each rational function is
reduced once, by the `RatFunc` constructor.
"""
from __future__ import annotations

from typing import NamedTuple, Sequence

from .poly import Poly, _promote
from .ratfunc import RatFunc


class WeierstrassShort(NamedTuple):
    """y^2 = x^3 + a4 x + a6, with absorbed_lc recording the leading
    coefficient divided out of the original equation (a quadratic twist;
    the j-invariant does not see it)."""

    a4: RatFunc
    a6: RatFunc
    absorbed_lc: RatFunc


def depress_cubic(coeffs: Poly | Sequence) -> WeierstrassShort:
    """Bring y^2 = c3 x^3 + c2 x^2 + c1 x + c0 to short form.

    A `Poly` is the cubic in x over Q; a sequence gives c0..c3 as ints,
    `Fraction`s or `Poly`s in t. Dividing by c3 (recorded as absorbed_lc)
    and shifting x by -c2/(3 c3) gives a4 = A/(3 c3^2) and
    a6 = B/(27 c3^3) with the polynomials A = 3 c1 c3 - c2^2 and
    B = 2 c2^3 - 9 c1 c2 c3 + 27 c0 c3^2, and 4 a4^3 + 27 a6^2 =
    (4 A^3 + B^2)/(27 c3^6). Raises on degenerate (c3 = 0) or singular
    cubics."""
    cs = list(coeffs.coeffs) if isinstance(coeffs, Poly) else list(coeffs)
    if len(cs) != 4:
        raise ValueError("need exactly the four cubic coefficients c0..c3")
    c0, c1, c2, c3 = cs = [_promote(c) for c in cs]
    if any(c is NotImplemented for c in cs):
        raise TypeError("cubic coefficients must be Poly, int or Fraction")
    if not c3:
        raise ValueError("leading coefficient is zero; not a cubic")
    big_a = c1 * c3 * 3 - c2 * c2
    big_b = c2 * (c2 * c2 * 2 - c1 * c3 * 9) + c0 * c3 * c3 * 27
    if not big_a**3 * 4 + big_b * big_b:
        raise ValueError("singular cubic: 4 a4^3 + 27 a6^2 = 0")
    c3_sq = c3 * c3
    return WeierstrassShort(
        RatFunc(big_a, c3_sq * 3), RatFunc(big_b, c3_sq * c3 * 27), RatFunc(c3)
    )


def j_invariant(w: WeierstrassShort) -> RatFunc:
    """j = 6912 a4^3 / (4 a4^3 + 27 a6^2): with a4 = n4/d4 and
    a6 = n6/d6, the one reduction of 6912 n4^3 d6^2 over
    4 n4^3 d6^2 + 27 n6^2 d4^3."""
    n4, d4, n6, d6 = w.a4.num, w.a4.den, w.a6.num, w.a6.den
    top = n4**3 * d6 * d6
    return RatFunc(top * 6912, top * 4 + n6 * n6 * d4**3 * 27)


def is_isotrivial(j) -> bool:
    """A family is isotrivial exactly when its j-invariant is constant."""
    return (j if isinstance(j, RatFunc) else RatFunc(j)).is_constant


def verify_prescribed_j_family(pole_shift: int = 1728) -> bool:
    """Symbolic check that the one-parameter family y^2 = x^3 - c x - c
    with c = 27 a / (4 (a - pole_shift)) has j-invariant exactly a.

    True for the calibrated pole_shift 1728 (any other value breaks the
    cancellation, which makes this an honest self-test of the j
    normalization). The parameter a is the variable of Q[a]: multiplying
    the cubic by 4 (a - pole_shift) clears the denominator of c, a
    quadratic twist that leaves j unchanged."""
    minus_27a = Poly([0, -27])
    w = depress_cubic([minus_27a, minus_27a, 0, Poly([-4 * pole_shift, 4])])
    return j_invariant(w) == Poly.x()
