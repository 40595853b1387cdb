"""Two-chart model bookkeeping for y^q = f(x): gluing exponents, the exact
chart-identity verification, the chart automorphism order, and the
Hurwitz-formula genus.

With b*n - a*q = 1 the substitution x = 1/(s^b t^q), y = 1/(s^a t^n)
clears to the exact bivariate Laurent identity

    s^(b*n) * t^(n*q) * (y^q - f(x)) = s - frev(s^b t^q),

where frev(x) = x^n f(1/x) reverses the coefficients. The identity is an
algebraic consequence of b*n - a*q = 1, so the check here expands both
sides independently and compares term by term.
"""
from __future__ import annotations

import math
from fractions import Fraction

from .lattice import validate_pair
from .poly import Poly, reversed_poly


class BivariateLaurent:
    """Laurent polynomials in (s, t) over Q: {(exp_s, exp_t): coeff},
    zero coefficients never stored."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[tuple[int, int], Fraction] | None = None):
        clean: dict[tuple[int, int], Fraction] = {}
        for key, c in (terms or {}).items():
            c = Fraction(c)
            if c:
                clean[key] = c
        self.terms = clean

    @classmethod
    def monomial(cls, c, exp_s: int, exp_t: int) -> BivariateLaurent:
        return cls({(exp_s, exp_t): Fraction(c)})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BivariateLaurent):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other) -> BivariateLaurent:
        other = _promote(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, Fraction(0)) + c
        return BivariateLaurent(out)

    __radd__ = __add__

    def __neg__(self) -> BivariateLaurent:
        return BivariateLaurent({k: -c for k, c in self.terms.items()})

    def __sub__(self, other) -> BivariateLaurent:
        other = _promote(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> BivariateLaurent:
        other = _promote(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> BivariateLaurent:
        other = _promote(other)
        if other is NotImplemented:
            return NotImplemented
        out: dict[tuple[int, int], Fraction] = {}
        for (s1, t1), c1 in self.terms.items():
            for (s2, t2), c2 in other.terms.items():
                key = (s1 + s2, t1 + t2)
                out[key] = out.get(key, Fraction(0)) + c1 * c2
        return BivariateLaurent(out)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> BivariateLaurent:
        if e < 0:
            raise ValueError("use explicit negative-exponent monomials instead")
        result = BivariateLaurent({(0, 0): Fraction(1)})
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __repr__(self) -> str:
        if not self.terms:
            return "BivariateLaurent(0)"
        body = " + ".join(
            f"{c}*s^{es}*t^{et}" for (es, et), c in sorted(self.terms.items())
        )
        return f"BivariateLaurent({body})"


def _promote(v):
    if isinstance(v, BivariateLaurent):
        return v
    if isinstance(v, (int, Fraction)):
        return BivariateLaurent({(0, 0): Fraction(v)})
    return NotImplemented


def gluing_exponents(n: int, q: int) -> tuple[int, int]:
    """Smallest positive (a, b) with b*n - a*q = 1."""
    validate_pair(n, q)
    b = pow(n, -1, q)  # least positive inverse of n mod q
    a = (b * n - 1) // q  # >= 1 since b >= 1 and n >= 3
    return a, b


def chart_identity_check(f: Poly, q: int) -> bool:
    """Expand s^(b n) t^(n q) (y^q - f(x)) and s - frev(s^b t^q)
    independently and compare exactly."""
    n = f.degree
    a, b = gluing_exponents(n, q)
    x = BivariateLaurent.monomial(1, -b, -q)
    y = BivariateLaurent.monomial(1, -a, -n)
    clear = BivariateLaurent.monomial(1, b * n, n * q)
    lhs = clear * (y**q - f.evaluate(x))
    w = BivariateLaurent.monomial(1, b, q)
    rhs = BivariateLaurent.monomial(1, 1, 0) - reversed_poly(f, n).evaluate(w)
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
