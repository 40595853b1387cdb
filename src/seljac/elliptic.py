"""Short Weierstrass form and j-invariants for cubic curves y^2 = cubic,
with coefficients in Q or Q(t).

The j-invariant is normalized so that y^2 = x^3 + a4 x + a6 has
j = 6912 a4^3 / (4 a4^3 + 27 a6^2); a family over Q(t) is isotrivial
exactly when its j-invariant is constant.
"""
from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Sequence

from .poly import Poly
from .ratfunc import RatFunc


def _as_ratfunc(v) -> RatFunc:
    return v if isinstance(v, RatFunc) else RatFunc(v)


class WeierstrassShort(NamedTuple):
    """y^2 = x^3 + a4 x + a6, with absorbed_lc recording the leading
    coefficient divided out of the original equation (a quadratic twist;
    the j-invariant does not see it)."""

    a4: RatFunc
    a6: RatFunc
    absorbed_lc: RatFunc

    def discriminant_quantity(self) -> RatFunc:
        """4 a4^3 + 27 a6^2 (vanishes exactly for singular cubics)."""
        return self.a4**3 * 4 + self.a6**2 * 27


def depress_cubic(coeffs: Poly | Sequence) -> WeierstrassShort:
    """Bring y^2 = c3 x^3 + c2 x^2 + c1 x + c0 to short form.

    The equation is divided by c3 (recorded as absorbed_lc) and x is
    shifted by -c2/(3 c3): with B, C, D the monicized coefficients,
    a4 = C - B^2/3 and a6 = 2 B^3/27 - B C/3 + D. Coefficients may sit
    in Q or Q(t). Raises on degenerate (c3 = 0) or singular cubics."""
    cs = list(coeffs.coeffs) if isinstance(coeffs, Poly) else list(coeffs)
    if len(cs) != 4:
        raise ValueError("need exactly the four cubic coefficients c0..c3")
    c0, c1, c2, c3 = (_as_ratfunc(c) for c in cs)
    if not c3:
        raise ValueError("leading coefficient is zero; not a cubic")
    big_b = c2 / c3
    big_c = c1 / c3
    big_d = c0 / c3
    a4 = big_c - big_b * big_b / 3
    a6 = big_b**3 * Fraction(2, 27) - big_b * big_c / 3 + big_d
    w = WeierstrassShort(a4, a6, c3)
    if not w.discriminant_quantity():
        raise ValueError("singular cubic: 4 a4^3 + 27 a6^2 = 0")
    return w


def j_invariant(w: WeierstrassShort) -> RatFunc:
    """j = 6912 a4^3 / (4 a4^3 + 27 a6^2), reduced."""
    return w.a4**3 * 6912 / w.discriminant_quantity()


def is_isotrivial(j) -> bool:
    """A family is isotrivial exactly when its j-invariant is constant."""
    return _as_ratfunc(j).is_constant


def verify_prescribed_j_family(pole_shift: int = 1728) -> bool:
    """Symbolic check that the one-parameter family y^2 = x^3 - c x - c
    with c = 27 a / (4 (a - pole_shift)) has j-invariant exactly a.

    True for the calibrated pole_shift 1728 (any other value breaks the
    cancellation, which makes this an honest self-test of the j
    normalization). The parameter a is modeled as the variable of Q(a)."""
    a = RatFunc.var()
    c = a * 27 / ((a - pole_shift) * 4)
    w = depress_cubic([-c, -c, RatFunc.zero(), RatFunc.one()])
    return j_invariant(w) == a
