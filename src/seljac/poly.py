"""Dense univariate polynomials over Q with exact arithmetic.

Coefficients are `fractions.Fraction`, stored lowest degree first with
trailing zeros stripped, so equal polynomials are structurally equal.
The zero polynomial is the empty coefficient tuple and has degree -1.

>>> f = Poly([-1, -1, 0, 1])     # x^3 - x - 1
>>> f.to_text()
'x^3 - x - 1'
>>> divmod(f, Poly([-2, 1]))     # divide by x - 2
(Poly('x^2 + 2*x + 3'), Poly('5'))
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

from .arith import is_prime, prime_power


def _as_coeff(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"not a rational coefficient: {c!r}")


class Poly:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [_as_coeff(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs: tuple[Fraction, ...] = tuple(cs)

    # ---- constructors ----

    @classmethod
    def zero(cls) -> Poly:
        return cls(())

    @classmethod
    def one(cls) -> Poly:
        return cls((1,))

    @classmethod
    def const(cls, c) -> Poly:
        return cls((c,))

    @classmethod
    def x(cls) -> Poly:
        return cls((0, 1))

    @classmethod
    def monomial(cls, c, k: int) -> Poly:
        if k < 0:
            raise ValueError("negative exponent")
        return cls((0,) * k + (c,))

    # ---- structure ----

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def lc(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, k: int) -> Fraction:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(("Poly", self.coeffs))

    def __repr__(self) -> str:
        return f"Poly({self.to_text()!r})"

    # ---- ring operations ----

    def __add__(self, other) -> Poly:
        other = _promote(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] += c
        return Poly(out)

    __radd__ = __add__

    def __neg__(self) -> Poly:
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other) -> Poly:
        other = _promote(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> Poly:
        other = _promote(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> Poly:
        if isinstance(other, (int, Fraction)):
            c = _as_coeff(other)
            if not c:
                return Poly()
            return Poly(tuple(c * a for a in self.coeffs))
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly()
        # iterate the sparser operand outside; keeps cyclotomic products cheap
        if sum(1 for c in a if c) > sum(1 for c in b if c):
            a, b = b, a
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, c in enumerate(a):
            if not c:
                continue
            for j, d in enumerate(b):
                if d:
                    out[i + j] += c * d
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> Poly:
        if e < 0:
            raise ValueError("negative power of a polynomial")
        result = Poly.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __divmod__(self, other) -> tuple[Poly, Poly]:
        other = _promote(other)
        if other is NotImplemented:
            return NotImplemented
        if not other:
            raise ZeroDivisionError("division by zero polynomial")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return Poly(), self
        quot = [Fraction(0)] * (dq + 1)
        dcoeffs = other.coeffs
        inv_lc = 1 / dcoeffs[-1]
        for k in range(dq, -1, -1):
            c = rem[k + len(dcoeffs) - 1] * inv_lc
            if c:
                quot[k] = c
                for j, d in enumerate(dcoeffs):
                    rem[k + j] -= c * d
        return Poly(quot), Poly(rem)

    def __floordiv__(self, other) -> Poly:
        return divmod(self, other)[0]

    def __mod__(self, other) -> Poly:
        return divmod(self, other)[1]

    def __truediv__(self, other) -> Poly:
        if isinstance(other, (int, Fraction)):
            c = _as_coeff(other)
            if not c:
                raise ZeroDivisionError("division by zero")
            return self * (1 / c)
        return NotImplemented

    # ---- calculus and evaluation ----

    def derivative(self) -> Poly:
        return Poly(tuple(k * c for k, c in enumerate(self.coeffs) if k))

    def evaluate(self, x):
        """Horner evaluation; x may be a Fraction or any ring element
        supporting + and * with Fractions."""
        result = None
        for c in reversed(self.coeffs):
            result = c if result is None else result * x + c
        if result is None:
            return Fraction(0) if isinstance(x, (int, Fraction)) else 0 * x
        return result

    def compose(self, inner: Poly) -> Poly:
        result = Poly()
        for c in reversed(self.coeffs):
            result = result * inner + Poly.const(c)
        return result

    def shift(self, c) -> Poly:
        """self(x + c)."""
        return self.compose(Poly([c, 1]))

    def monic(self) -> Poly:
        if not self:
            raise ValueError("zero polynomial cannot be made monic")
        return self * (1 / self.lc)

    def integer_scaled(self) -> list[int]:
        """Coefficients of lambda*self for the least lambda > 0 making all
        coefficients integers with overall gcd 1."""
        if not self:
            return []
        lam = math.lcm(*(c.denominator for c in self.coeffs))
        ints = [int(c * lam) for c in self.coeffs]
        g = math.gcd(*ints)
        return [v // g for v in ints]

    # ---- text ----

    def to_text(self, var: str = "x") -> str:
        if not self.coeffs:
            return "0"
        parts: list[str] = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if not c:
                continue
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                xs = var if k == 1 else f"{var}^{k}"
                body = xs if mag == 1 else f"{mag}*{xs}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f" + {body}" if c > 0 else f" - {body}")
        return "".join(parts)


def _promote(v):
    if isinstance(v, Poly):
        return v
    if isinstance(v, (int, Fraction)):
        return Poly.const(v)
    return NotImplemented


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd over Q (gcd with the zero polynomial is the other one, monic)."""
    while b:
        a, b = b, a % b
    if not a:
        return Poly()
    return a.monic()


def resultant(f: Poly, g: Poly) -> Fraction:
    """Res(f, g) over Q, by the Euclidean recursion."""
    if not f or not g:
        return Fraction(0)
    df, dg = f.degree, g.degree
    if df == 0 and dg == 0:
        return Fraction(1)
    if dg == 0:
        return g.lc**df
    if df == 0:
        return f.lc**dg
    if df < dg:
        sign = -1 if (df * dg) % 2 else 1
        return sign * resultant(g, f)
    r = f % g
    if not r:
        return Fraction(0)
    sign = -1 if (df * dg) % 2 else 1
    return sign * g.lc ** (df - r.degree) * resultant(g, r)


def discriminant(f: Poly) -> Fraction:
    """disc(f) = (-1)^(d(d-1)/2) Res(f, f') / lc(f) for deg f = d >= 2."""
    d = f.degree
    if d < 2:
        raise ValueError("discriminant needs degree >= 2")
    sign = -1 if (d * (d - 1) // 2) % 2 else 1
    return sign * resultant(f, f.derivative()) / f.lc


def squarefree_decomposition(f: Poly) -> list[tuple[Poly, int]]:
    """Yun's algorithm over Q.

    Returns monic pairwise-coprime squarefree (g_i, m_i) with
    f = lc(f) * prod g_i**m_i; a nonzero constant yields [].
    """
    if not f:
        raise ValueError("zero polynomial has no squarefree decomposition")
    if f.degree == 0:
        return []
    w = f.monic()
    dw = w.derivative()
    a0 = poly_gcd(w, dw)
    b = w // a0
    c = dw // a0
    d = c - b.derivative()
    out: list[tuple[Poly, int]] = []
    i = 1
    while b.degree > 0:
        a = poly_gcd(b, d)
        if a.degree > 0:
            out.append((a, i))
        b = b // a
        c = d // a
        d = c - b.derivative()
        i += 1
    return out


def cyclotomic_poly(p: int, i: int) -> Poly:
    """The p**i-th cyclotomic polynomial for prime p:
    sum of t^(j*p^(i-1)) for j = 0..p-1."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if i < 1:
        raise ValueError("exponent must be >= 1")
    step = p ** (i - 1)
    coeffs = [Fraction(0)] * ((p - 1) * step + 1)
    for j in range(p):
        coeffs[j * step] = Fraction(1)
    return Poly(coeffs)


def geometric_poly(q: int) -> Poly:
    """1 + t + ... + t^(q-1) for a prime power q."""
    if prime_power(q) is None:
        raise ValueError(f"{q} is not a prime power >= 2")
    return Poly((1,) * q)


def reversed_poly(f: Poly, n: int) -> Poly:
    """x^n * f(1/x) for n >= deg f: coefficient of degree k moves to n - k."""
    if n < f.degree:
        raise ValueError("reversal exponent below the degree")
    out = [Fraction(0)] * (n + 1)
    for k, c in enumerate(f.coeffs):
        out[n - k] = c
    return Poly(out)


def reflection_identity_check(q: int) -> bool:
    """Exact check of t^q * C(1/t) - C(t) == t^q - 1 for the q-th
    cyclotomic polynomial C, q a prime power."""
    pr = prime_power(q)
    if pr is None:
        raise ValueError(f"{q} is not a prime power >= 2")
    p, r = pr
    c = cyclotomic_poly(p, r)
    lhs = reversed_poly(c, q) - c
    rhs = Poly.monomial(1, q) - Poly.one()
    return lhs == rhs


def lagrange_interpolate(points: Sequence[tuple[Fraction, Fraction]]) -> Poly:
    """Unique polynomial of degree < len(points) through the given points
    (nodes must be distinct)."""
    nodes = [x for x, _ in points]
    if len(set(nodes)) != len(nodes):
        raise ValueError("interpolation nodes must be distinct")
    result = Poly()
    for i, (xi, yi) in enumerate(points):
        if not yi:
            continue
        term = Poly.const(yi)
        for j, (xj, _) in enumerate(points):
            if j == i:
                continue
            term = term * Poly([-xj, 1]) / (xi - xj)
        result = result + term
    return result
