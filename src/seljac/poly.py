"""Dense univariate polynomials over Q with exact arithmetic.

A polynomial is a primitive integer coefficient vector `ints` (lowest
degree first, trailing zeros stripped, gcd 1, positive leading
coefficient) times one nonzero rational `content`; the zero polynomial is
`()` with content 0. The form is unique, so equal polynomials are
structurally equal, and the ring operations run on Python ints; only the
contents are `Fraction`s. `coeffs` gives the rational coefficients as
`Fraction`s, built on each access.

>>> f = Poly([-1, -1, 0, 1])     # x^3 - x - 1
>>> f.to_text()
'x^3 - x - 1'
>>> divmod(f, Poly([-2, 1]))     # divide by x - 2
(Poly('x^2 + 2*x + 3'), Poly('5'))
>>> Poly([Fraction(-1, 2), 0, Fraction(3, 4)]).ints
(-2, 0, 3)
"""
from __future__ import annotations

import math
from fractions import Fraction
from operator import add, sub
from typing import Iterable, Sequence

from .arith import is_prime, prime_power

_ONE = Fraction(1)


def _rational(c):
    if not isinstance(c, (int, Fraction)):
        raise TypeError(f"not a rational coefficient: {c!r}")
    return c


def _primitive(vec: list[int]) -> tuple[tuple[int, ...], int]:
    """(vec / g, g) with trailing zeros stripped, where g = +-gcd(vec) makes
    the leading coefficient positive; ((), 0) for the zero vector."""
    while vec and not vec[-1]:
        vec.pop()
    if not vec:
        return (), 0
    g = math.gcd(*vec)
    if vec[-1] < 0:
        g = -g
    if g != 1:
        vec = [v // g for v in vec]
    return tuple(vec), g


def _scaled(vec: list[int], scale: Fraction) -> Poly:
    """The polynomial scale * vec, for any integer vector."""
    ints, g = _primitive(vec)
    return Poly._make(ints, scale * g)


def _homogeneous(ints: Sequence[int], a: int, b: int) -> int:
    """sum ints[k] * a^k * b^(d-k) for d = len(ints) - 1: the value at a/b
    times b^d, by Horner's rule on integers."""
    acc = 0
    bk = 1
    for v in reversed(ints):
        acc = acc * a + v * bk
        bk *= b
    return acc


class Poly:
    __slots__ = ("ints", "content")

    def __init__(self, coeffs: Iterable = ()):
        cs = [_rational(c) for c in coeffs]
        lam = math.lcm(*(c.denominator for c in cs))
        ints, g = _primitive([c.numerator * (lam // c.denominator) for c in cs])
        self.ints: tuple[int, ...] = ints
        self.content: Fraction = Fraction(g, lam)

    @classmethod
    def _make(cls, ints: tuple[int, ...], content: Fraction) -> Poly:
        """A Poly from a vector already in normal form (primitive, positive
        leading coefficient, no trailing zeros; () with content 0)."""
        f = object.__new__(cls)
        f.ints = ints
        f.content = content
        return f

    # ---- constructors ----

    @classmethod
    def zero(cls) -> Poly:
        return cls(())

    @classmethod
    def one(cls) -> Poly:
        return cls((1,))

    @classmethod
    def const(cls, c) -> Poly:
        if not _rational(c):
            return cls()
        return cls._make((1,), Fraction(c))

    @classmethod
    def x(cls) -> Poly:
        return cls((0, 1))

    # ---- structure ----

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The rational coefficients, lowest degree first."""
        c = self.content
        return tuple(c * v for v in self.ints)

    @property
    def degree(self) -> int:
        return len(self.ints) - 1

    @property
    def lc(self) -> Fraction:
        if not self.ints:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.content * self.ints[-1]

    def coeff(self, k: int) -> Fraction:
        if 0 <= k < len(self.ints):
            return self.content * self.ints[k]
        return Fraction(0)

    def __bool__(self) -> bool:
        return bool(self.ints)

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.ints == other.ints and self.content == other.content
        if isinstance(other, (int, Fraction)):
            return self.ints == (1,) and self.content == other if other else not self.ints
        return NotImplemented

    def __hash__(self):
        return hash(("Poly", self.ints, self.content))

    def __repr__(self) -> str:
        return f"Poly({self.to_text()!r})"

    # ---- ring operations ----

    def __add__(self, other) -> Poly:
        other = _promote(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.ints:
            return self
        if not self.ints:
            return other
        ca, cb = self.content, other.content
        # ca*a + cb*b = (g/m) * (ka*a + kb*b) with g, m, ka, kb integers
        g = math.gcd(ca.numerator, cb.numerator)
        m = math.lcm(ca.denominator, cb.denominator)
        ka = ca.numerator // g * (m // ca.denominator)
        kb = cb.numerator // g * (m // cb.denominator)
        a, b = self.ints, other.ints
        if len(a) < len(b):
            a, b, ka, kb = b, a, kb, ka
        out = [ka * v for v in a]
        for k, v in enumerate(b):
            out[k] += kb * v
        return _scaled(out, Fraction(g, m))

    def __neg__(self) -> Poly:
        return Poly._make(self.ints, -self.content)

    def __sub__(self, other) -> Poly:
        other = _promote(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> Poly:
        if isinstance(other, (int, Fraction)):
            if not other or not self.ints:
                return Poly()
            return Poly._make(self.ints, self.content * other)
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.ints, other.ints
        if not a or not b:
            return Poly()
        # Sparse outer loop, dense inner row: put outside the operand that
        # makes (nonzeros outside) * (length inside) smaller, which keeps
        # the cyclotomic products cheap.
        if (len(a) - a.count(0)) * len(b) > (len(b) - b.count(0)) * len(a):
            a, b = b, a
        n = len(b)
        out = [0] * (len(a) + n - 1)
        for i, c in enumerate(a):
            if c:
                out[i : i + n] = map(add, out[i : i + n], b if c == 1 else map(c.__mul__, b))
        # Gauss's lemma: a product of primitive vectors with positive leading
        # coefficients is one too, so no gcd is needed.
        return Poly._make(tuple(out), self.content * other.content)

    __rmul__ = __mul__  # kept: perfbench/spans.py wraps it by name

    def __pow__(self, e: int) -> Poly:
        if e < 0:
            raise ValueError("negative power of a polynomial")
        result = Poly.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def __divmod__(self, other) -> tuple[Poly, Poly]:
        other = _promote(other)
        if other is NotImplemented:
            return NotImplemented
        if not other:
            raise ZeroDivisionError("division by zero polynomial")
        b = other.ints
        n = len(b)
        dq = len(self.ints) - n
        if dq < 0:
            return Poly(), self
        # Pseudo-division on the integer vectors: scale * a = quot * b + rem,
        # where rem and quot are multiplied by lc(b)/gcd only when a leading
        # term is not divisible by lc(b).
        lb = b[-1]
        rem = list(self.ints)
        quot = [0] * (dq + 1)
        scale = 1
        for k in range(dq, -1, -1):
            r = rem[k + n - 1]
            if not r:
                continue
            g = math.gcd(r, lb)
            m = lb // g
            if m != 1:
                rem = [m * v for v in rem]
                quot = [m * v for v in quot]
                scale *= m
            c = r // g
            quot[k] = c
            rem[k : k + n] = map(sub, rem[k : k + n], map(c.__mul__, b))
        ca = self.content
        return _scaled(quot, ca / (other.content * scale)), _scaled(rem, ca / scale)

    def __floordiv__(self, other) -> Poly:
        return divmod(self, other)[0]

    def __mod__(self, other) -> Poly:
        return divmod(self, other)[1]

    def __truediv__(self, other) -> Poly:
        if isinstance(other, (int, Fraction)):
            if not other:
                raise ZeroDivisionError("division by zero")
            return Poly._make(self.ints, self.content / other)
        return NotImplemented

    # ---- calculus and composition ----

    def derivative(self) -> Poly:
        return _scaled([k * v for k, v in enumerate(self.ints) if k], self.content)

    def compose(self, inner: Poly) -> Poly:
        result = Poly()
        for v in reversed(self.ints):
            result = result * inner + v
        return result * self.content

    def shift(self, c) -> Poly:
        """self(x + c)."""
        return self.compose(Poly([c, 1]))

    def monic(self) -> Poly:
        if not self:
            raise ValueError("zero polynomial cannot be made monic")
        return Poly._make(self.ints, Fraction(1, self.ints[-1]))

    # ---- text ----

    def to_text(self, var: str = "x") -> str:
        if not self.ints:
            return "0"
        parts: list[str] = []
        for k in range(self.degree, -1, -1):
            if not self.ints[k]:
                continue
            c = self.content * self.ints[k]
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
    ints = [0] * ((p - 1) * step + 1)
    ints[::step] = [1] * p
    return Poly._make(tuple(ints), _ONE)


def geometric_poly(q: int) -> Poly:
    """1 + t + ... + t^(q-1) for a prime power q."""
    if prime_power(q) is None:
        raise ValueError(f"{q} is not a prime power >= 2")
    return Poly._make((1,) * q, _ONE)


def reversed_poly(f: Poly, n: int) -> Poly:
    """x^n * f(1/x) for n >= deg f: coefficient of degree k moves to n - k."""
    if n < f.degree:
        raise ValueError("reversal exponent below the degree")
    return _scaled([0] * (n - f.degree) + list(reversed(f.ints)), f.content)


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
