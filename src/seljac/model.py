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

The coefficients are scaled integers. A `Poly` is its content n/d, in
lowest terms, times a primitive integer vector, and each side is kept
times the d of its own polynomial (f on the left, frev on the right): an
integer dict in which the lone power of s carries d. No term from f or
frev is t-free except at s^0, so two equal integer dicts hold the same d
at s^1 t^0, and dividing it out gives equal sides. Conversely, d is the
least common denominator of the polynomial's coefficients, and the lone
power of s adds the integer 1 to at most one of them, which keeps that
denominator, so equal sides have equal d and equal integer dicts.
"""
from __future__ import annotations

import math

from .lattice import Pair
from .poly import Poly, reversed_poly


def gluing_exponents(pair: Pair) -> tuple[int, int]:
    """Smallest positive (a, b) with b*n - a*q = 1."""
    b = pow(pair.n, -1, pair.q)  # least positive inverse of n mod q
    a = (b * pair.n - 1) // pair.q  # >= 1 since b >= 1 and n >= 3
    return a, b


def _side(lead: tuple[int, int], f: Poly, keys) -> dict[tuple[int, int], int]:
    """f's content denominator d times the monomial s^lead[0] t^lead[1]
    minus each coefficient of f times s^e t^g, for the keys (e, g) given in
    degree order; zero coefficients dropped."""
    n, d = f._n, f._d
    out = {lead: d}
    for v, key in zip(f.ints, keys):
        out[key] = out.get(key, 0) - n * v
    return {key: c for key, c in out.items() if c}


def chart_identity_check(f: Poly, pair: Pair) -> bool:
    """Build s^(b n) t^(n q) (y^q - f(x)) and s - frev(s^b t^q) from their
    exponents independently and compare exactly; f must have degree n."""
    n, q = pair.n, pair.q
    if f.degree != n:
        raise ValueError(f"f has degree {f.degree}, not the pair's n = {n}")
    a, b = gluing_exponents(pair)
    frev = reversed_poly(f, n)
    lhs = _side((b * n - a * q, 0), f, ((b * (n - k), q * (n - k)) for k in range(n + 1)))
    rhs = _side((1, 0), frev, ((b * k, q * k) for k in range(n + 1)))
    return lhs == rhs


def delta_chart_order(pair: Pair) -> int:
    """Order of the chart automorphism (s, t) -> (s, zeta^-b t): q divided
    by gcd(b, q), which b*n - a*q = 1 forces to be q itself."""
    _, b = gluing_exponents(pair)
    return pair.q // math.gcd(b % pair.q, pair.q)


def hurwitz_genus(pair: Pair) -> int:
    """Genus from 2g - 2 = -2q + (n+1)(q-1): q sheets over the line, with
    n+1 branch points of full ramification index q."""
    two_g_minus_2 = -2 * pair.q + (pair.n + 1) * (pair.q - 1)
    if two_g_minus_2 % 2 != 0:
        raise AssertionError("Hurwitz count must be even")
    return (two_g_minus_2 + 2) // 2
