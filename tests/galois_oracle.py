"""Galois-group oracles for the test suite.

`oracle_label` is backed by sympy: its galois_group uses its own
machinery, so agreement with the resolvent-based classifier in
seljac.galois is a real cross-check. `fraction_quartic_label` is the
slow path that seljac.galois replaced, kept to compare against it label
by label: the same resolvent criterion in Fraction arithmetic on the
monic f / lc(f) shifted to x^4 + p x^2 + q x + r, taking rational square
roots where seljac.galois works on an integer quartic with scaled roots.
"""
import math
from fractions import Fraction

import poly_oracle
import sympy
from sympy.abc import x
from sympy.polys.numberfields.galoisgroups import galois_group

from seljac.arith import fraction_is_square
from seljac.galois import GaloisLabel, rational_roots
from seljac.poly import Poly, discriminant


def _to_expr(coeffs):
    return sum(sympy.Rational(c.numerator, c.denominator) * x**k for k, c in enumerate(coeffs))


def oracle_label(coeffs) -> str:
    """Label of the Galois group of an irreducible cubic or quartic,
    coeffs lowest-first."""
    coeffs = [Fraction(c) for c in coeffs]
    degree = len(coeffs) - 1
    group, _ = galois_group(sympy.Poly(_to_expr(coeffs), x), x)
    order = group.order()
    if degree == 3:
        return {6: "S3", 3: "C3"}[order]
    if degree == 4:
        if order in (24, 12, 8):
            return {24: "S4", 12: "A4", 8: "D4"}[order]
        assert order == 4
        return "C4" if group.is_cyclic else "V4"
    raise ValueError(f"oracle handles degree 3 or 4, got {degree}")


def oracle_is_irreducible(coeffs) -> bool:
    coeffs = [Fraction(c) for c in coeffs]
    poly = sympy.Poly(_to_expr(coeffs), x, domain="QQ")
    _, factors = poly.factor_list()
    return len(factors) == 1 and factors[0][1] == 1


# ---- the Fraction resolvent route ----


def fraction_sqrt(x: Fraction) -> Fraction:
    """Exact square root of a rational square."""
    if not fraction_is_square(x):
        raise ValueError(f"{x} is not a rational square")
    return Fraction(math.isqrt(x.numerator), math.isqrt(x.denominator))


def depress_quartic(w: Poly) -> tuple[Fraction, Fraction, Fraction]:
    """(p, q, r) of the monic quartic w shifted to x^4 + p x^2 + q x + r
    by x -> x - w_3 / 4."""
    r, q, p, zero, one = poly_oracle.compose(w.coeffs, (-w.coeff(3) / 4, Fraction(1)))
    assert (zero, one) == (0, 1)
    return p, q, r


def resolvent(p: Fraction, q: Fraction, r: Fraction) -> Poly:
    """z^3 - p z^2 - 4 r z + (4 p r - q^2) for x^4 + p x^2 + q x + r."""
    return Poly([4 * p * r - q * q, -4 * r, -p, Fraction(1)])


def rational_quadratic_split(p, q, r, resolvent_roots) -> bool:
    """Does x^4 + p x^2 + q x + r split into two monic quadratics over Q?

    Any such split (x^2+ax+b)(x^2-ax+d) makes theta = b + d a rational
    resolvent root with a^2 = theta - p, so it suffices to test the
    rational resolvent roots."""
    for theta in resolvent_roots:
        u = theta - p
        if u == 0:
            if q == 0 and fraction_is_square(p * p - 4 * r):
                return True
            continue
        if not fraction_is_square(u):
            continue
        a = fraction_sqrt(u)
        b = (theta - q / a) / 2
        d = (theta + q / a) / 2
        if b * d == r:
            return True
    return False


def square_in_disc_field(u: Fraction, disc: Fraction) -> bool:
    """Is u a square in Q(sqrt(disc)), disc not a square in Q? Zero counts."""
    return u == 0 or fraction_is_square(u) or fraction_is_square(u * disc)


def fraction_quartic_label(f: Poly) -> GaloisLabel:
    """The label of a squarefree quartic by the Fraction resolvent route."""
    w = f.monic()
    if rational_roots(w):
        return GaloisLabel.REDUCIBLE
    p, q, r = depress_quartic(w)
    cubic = resolvent(p, q, r)
    rr = rational_roots(cubic)
    if rational_quadratic_split(p, q, r, rr):
        return GaloisLabel.REDUCIBLE
    disc = discriminant(cubic)
    assert disc == discriminant(w)
    if not rr:
        return GaloisLabel.A4 if fraction_is_square(disc) else GaloisLabel.S4
    if len(rr) == 3:
        return GaloisLabel.V4
    assert len(rr) == 1
    theta = rr[0]
    if square_in_disc_field(theta * theta - 4 * r, disc) and square_in_disc_field(theta - p, disc):
        return GaloisLabel.C4
    return GaloisLabel.D4
