"""Two-chart model bookkeeping for y^q = f(x): gluing exponents, the exact
chart-identity verification, the chart automorphism order, and the
Hurwitz-formula genus.

With b*n - a*q = 1 the substitution x = 1/(s^b t^q), y = 1/(s^a t^n)
clears to the exact bivariate Laurent identity

    s^(b*n) * t^(n*q) * (y^q - f(x)) = s - frev(s^b t^q),

where frev(x) = x^n f(1/x) reverses the coefficients. Every term on
either side is one monomial, so each side is kept as a dict
{(exp_s, exp_t): coeff}: the left side is s^(b*n - a*q) minus
c_k s^(b(n-k)) t^(q(n-k)) for each coefficient c_k of f, the right side
is s minus frev_k s^(b*k) t^(q*k) for each coefficient of frev. The two
dicts agree exactly when b*n - a*q = 1 (otherwise the lone t-free power
of s differs) and frev_k = c_(n-k) for every k (otherwise some monomial
carries a different coefficient), so the check catches wrong gluing
exponents and a wrong reversal.
"""
from __future__ import annotations

import math
from fractions import Fraction

from .lattice import validate_pair
from .poly import Poly, reversed_poly


def gluing_exponents(n: int, q: int) -> tuple[int, int]:
    """Smallest positive (a, b) with b*n - a*q = 1."""
    validate_pair(n, q)
    b = pow(n, -1, q)  # least positive inverse of n mod q
    a = (b * n - 1) // q  # >= 1 since b >= 1 and n >= 3
    return a, b


def _side(lead: tuple[int, int], terms) -> dict[tuple[int, int], Fraction]:
    """The monomial s^lead[0] t^lead[1] minus each c * s^e t^g in terms
    (given as (c, (e, g))), with zero coefficients dropped."""
    out = {lead: Fraction(1)}
    for c, key in terms:
        out[key] = out.get(key, 0) - c
    return {key: c for key, c in out.items() if c}


def chart_identity_check(f: Poly, q: int) -> bool:
    """Build s^(b n) t^(n q) (y^q - f(x)) and s - frev(s^b t^q) from their
    exponents independently and compare exactly."""
    n = f.degree
    a, b = gluing_exponents(n, q)
    cleared_f = ((c, (b * (n - k), q * (n - k))) for k, c in enumerate(f.coeffs))
    lhs = _side((b * n - a * q, 0), cleared_f)
    frev_w = ((c, (b * k, q * k)) for k, c in enumerate(reversed_poly(f, n).coeffs))
    rhs = _side((1, 0), frev_w)
    return lhs == rhs


def delta_chart_order(n: int, q: int) -> int:
    """Order of the chart automorphism (s, t) -> (s, zeta^-b t): q divided
    by gcd(b, q), which b*n - a*q = 1 forces to be q itself."""
    _, b = gluing_exponents(n, q)
    return q // math.gcd(b % q, q)


def hurwitz_genus(n: int, q: int) -> int:
    """Genus from 2g - 2 = -2q + (n+1)(q-1): q sheets over the line, with
    n+1 branch points of full ramification index q."""
    validate_pair(n, q)
    two_g_minus_2 = -2 * q + (n + 1) * (q - 1)
    if two_g_minus_2 % 2 != 0:
        raise AssertionError("Hurwitz count must be even")
    return (two_g_minus_2 + 2) // 2
