"""Dense univariate polynomials over Q with exact arithmetic.

A polynomial is a primitive integer coefficient vector `ints` (lowest
degree first, trailing zeros stripped, gcd 1, positive leading
coefficient) times one nonzero rational content, kept as a reduced
integer pair: numerator `_n` and denominator `_d > 0` with
gcd(_n, _d) = 1. The zero polynomial is `()` with the pair (0, 1). The
form is unique, so equal polynomials are structurally equal, and the ring
operations run on Python ints alone: a product multiplies the contents by
two cross-gcds, and every other operation ends in at most one gcd of the
new pair. `content`, `lc`, `coeff` and `coeffs` are read-only accessors
that build `Fraction`s on each access. A nonzero constant's vector is
`(1,)`, so a product with one, or with an int or `Fraction`, only
multiplies the contents and shares the other vector. `cyclotomic_poly`
builds its sparse vector by tuple repetition.

Division and the gcd share one integer pseudo-division loop: `divmod`
scales its quotient and remainder by one integer pair at the end, and
`poly_gcd` runs a primitive pseudo-remainder sequence on the vectors.
`lagrange_interpolate` uses Newton's divided differences over one integer
denominator per level and one Horner pass on integers. `to_text` refuses
a coefficient of more than `DIGITS_MAX` digits, Python's default
int-to-str limit, with its own message.

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

# The most decimal digits a printed integer may have: Python's default
# int-to-str limit, past which `str` itself would refuse it.
DIGITS_MAX = 4300
_TEXT_CEILING = 10**DIGITS_MAX


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


def _scaled(vec: list[int], n: int, d: int) -> Poly:
    """The polynomial (n/d) * vec, for any integer vector, any integer n
    and d > 0."""
    ints, g = _primitive(vec)
    n *= g
    h = math.gcd(n, d)
    return Poly._make(ints, n // h, d // h)


def _pseudo_divmod(a: Sequence[int], b: Sequence[int]) -> tuple[list[int], list[int], int]:
    """(quot, rem, scale) with scale * a = quot * b + rem over the integers
    and len(rem) = len(b) - 1, for integer vectors with len(a) >= len(b)
    and b[-1] > 0. quot, rem and scale are multiplied by lc(b)/gcd only
    when a leading term is not divisible by lc(b), so scale > 0."""
    n = len(b)
    dq = len(a) - n
    lb = b[-1]
    rem = list(a)
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
    del rem[n - 1 :]
    return quot, rem, scale


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
    __slots__ = ("ints", "_n", "_d")

    def __init__(self, coeffs: Iterable = ()):
        cs = [_rational(c) for c in coeffs]
        lam = math.lcm(*(c.denominator for c in cs))
        # A prime power p^e exactly dividing lam exactly divides some
        # denominator, whose entry c * lam is then prime to p: gcd(g, lam) = 1.
        ints, g = _primitive([c.numerator * (lam // c.denominator) for c in cs])
        self.ints: tuple[int, ...] = ints
        self._n: int = g
        self._d: int = lam

    @classmethod
    def _make(cls, ints: tuple[int, ...], n: int, d: int) -> Poly:
        """A Poly from a vector already in normal form (primitive, positive
        leading coefficient, no trailing zeros) and its content n/d in
        lowest terms with d > 0; the zero polynomial is ((), 0, 1)."""
        f = object.__new__(cls)
        f.ints = ints
        f._n = n
        f._d = d
        return f

    # ---- constructors ----

    @classmethod
    def zero(cls) -> Poly:
        return cls._make((), 0, 1)

    @classmethod
    def one(cls) -> Poly:
        return cls._make((1,), 1, 1)

    @classmethod
    def const(cls, c) -> Poly:
        if not _rational(c):
            return cls()
        return cls._make((1,), c.numerator, c.denominator)

    @classmethod
    def x(cls) -> Poly:
        return cls((0, 1))

    # ---- structure ----

    @property
    def content(self) -> Fraction:
        """The rational factor in front of the primitive vector `ints`."""
        return Fraction(self._n, self._d)

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
        return Fraction(self._n * self.ints[-1], self._d)

    def coeff(self, k: int) -> Fraction:
        if 0 <= k < len(self.ints):
            return Fraction(self._n * self.ints[k], self._d)
        return Fraction(0)

    def __bool__(self) -> bool:
        return bool(self.ints)

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.ints == other.ints and self._n == other._n and self._d == other._d
        if isinstance(other, (int, Fraction)):
            if not other:
                return not self.ints
            return self.ints == (1,) and (self._n, self._d) == (other.numerator, other.denominator)
        return NotImplemented

    def __hash__(self):
        return hash(("Poly", self.ints, self._n, self._d))

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
        na, da, nb, db = self._n, self._d, other._n, other._d
        # na/da*a + nb/db*b = (g/m) * (ka*a + kb*b) with g, m, ka, kb integers
        g = math.gcd(na, nb)
        m = math.lcm(da, db)
        ka = na // g * (m // da)
        kb = nb // g * (m // db)
        a, b = self.ints, other.ints
        if len(a) < len(b):
            a, b, ka, kb = b, a, kb, ka
        out = [ka * v for v in a]
        for k, v in enumerate(b):
            out[k] += kb * v
        return _scaled(out, g, m)

    def __neg__(self) -> Poly:
        return Poly._make(self.ints, -self._n, self._d)

    def __sub__(self, other) -> Poly:
        other = _promote(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> Poly:
        other = _promote(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.ints, other.ints
        if not a or not b:
            return Poly()
        # Both pairs are in lowest terms, so cancelling across them leaves
        # the product in lowest terms.
        na, da, nb, db = self._n, self._d, other._n, other._d
        g1 = math.gcd(na, db)
        g2 = math.gcd(nb, da)
        n = (na // g1) * (nb // g2)
        d = (da // g2) * (db // g1)
        if len(a) == 1 or len(b) == 1:  # a nonzero constant, whose vector is (1,)
            return Poly._make(a if len(b) == 1 else b, n, d)
        # Sparse outer loop, dense inner row: put outside the operand that
        # makes (nonzeros outside) * (length inside) smaller, which keeps
        # the cyclotomic products cheap.
        if (len(a) - a.count(0)) * len(b) > (len(b) - b.count(0)) * len(a):
            a, b = b, a
        m = len(b)
        out = [0] * (len(a) + m - 1)
        for i, c in enumerate(a):
            if c:
                out[i : i + m] = map(add, out[i : i + m], b if c == 1 else map(c.__mul__, b))
        # Gauss's lemma: a product of primitive vectors with positive leading
        # coefficients is one too, so no gcd is needed.
        return Poly._make(tuple(out), n, d)

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
        if len(self.ints) < len(other.ints):
            return Poly(), self
        quot, rem, scale = _pseudo_divmod(self.ints, other.ints)
        na, da, nb, db = self._n, self._d, other._n, other._d
        # quotient content (na/da) / ((nb/db) * scale), its sign moved up
        qn, qd = na * db, da * nb * scale
        if qd < 0:
            qn, qd = -qn, -qd
        return _scaled(quot, qn, qd), _scaled(rem, na, da * scale)

    def __floordiv__(self, other) -> Poly:
        return divmod(self, other)[0]

    def __mod__(self, other) -> Poly:
        return divmod(self, other)[1]

    def __truediv__(self, other) -> Poly:
        if isinstance(other, (int, Fraction)):
            if not other:
                raise ZeroDivisionError("division by zero")
            return self._times(other.denominator, other.numerator)
        return NotImplemented

    def _times(self, n: int, d: int) -> Poly:
        """self * (n/d) for integers n and d != 0, in either sign."""
        if not n or not self.ints:
            return Poly.zero()
        if d < 0:
            n, d = -n, -d
        n *= self._n
        d *= self._d
        g = math.gcd(n, d)
        return Poly._make(self.ints, n // g, d // g)

    # ---- calculus ----

    def derivative(self) -> Poly:
        return _scaled([k * v for k, v in enumerate(self.ints) if k], self._n, self._d)

    def monic(self) -> Poly:
        if not self:
            raise ValueError("zero polynomial cannot be made monic")
        return Poly._make(self.ints, 1, self.ints[-1])

    # ---- text ----

    def to_text(self, var: str = "x") -> str:
        if not self.ints:
            return "0"
        n, d = self._n, self._d
        parts: list[str] = []
        for k in range(self.degree, -1, -1):
            v = self.ints[k]
            if not v:
                continue
            a = n * v
            g = math.gcd(a, d)
            mag, b = abs(a) // g, d // g
            if mag >= _TEXT_CEILING or b >= _TEXT_CEILING:
                raise ValueError(f"cannot print a coefficient of more than {DIGITS_MAX} digits")
            c = str(mag) if b == 1 else f"{mag}/{b}"
            if k == 0:
                body = c
            else:
                xs = var if k == 1 else f"{var}^{k}"
                body = xs if c == "1" else f"{c}*{xs}"
            if not parts:
                parts.append(body if a > 0 else f"-{body}")
            else:
                parts.append(f" + {body}" if a > 0 else f" - {body}")
        return "".join(parts)


def _promote(v):
    if isinstance(v, Poly):
        return v
    if isinstance(v, (int, Fraction)):
        return Poly.const(v)
    return NotImplemented


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd over Q (gcd with the zero polynomial is the other one, monic).

    A primitive pseudo-remainder sequence on the integer vectors: each
    remainder is divided by the gcd of its entries, so the entries stay
    small, and a nonzero constant remainder ends it with gcd 1. The monic
    result's content is 1 over its leading entry."""
    u, v = a.ints, b.ints
    if len(u) < len(v):
        u, v = v, u
    while len(v) > 1:
        u, v = v, _primitive(_pseudo_divmod(u, v)[1])[0]
    if v:
        return Poly.one()
    if not u:
        return Poly()
    return Poly._make(u, 1, u[-1])


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
    return Poly._make(((1,) + (0,) * (step - 1)) * (p - 1) + (1,), 1, 1)


def geometric_poly(q: int) -> Poly:
    """1 + t + ... + t^(q-1) for a prime power q."""
    if prime_power(q) is None:
        raise ValueError(f"{q} is not a prime power >= 2")
    return Poly._make((1,) * q, 1, 1)


def reversed_poly(f: Poly, n: int) -> Poly:
    """x^n * f(1/x) for n >= deg f: coefficient of degree k moves to n - k."""
    if n < f.degree:
        raise ValueError("reversal exponent below the degree")
    return _scaled([0] * (n - f.degree) + list(reversed(f.ints)), f._n, f._d)


def lagrange_interpolate(points: Sequence[tuple[Fraction, Fraction]]) -> Poly:
    """Unique polynomial of degree < len(points) through the given points
    (nodes must be distinct; ints or Fractions).

    Newton's form on integers: with the nodes scaled to integers u_i = X x_i
    and the values to integers by their common denominators X and Y, the
    divided differences of level j are kept over one denominator, the
    previous one times the lcm of the level's node gaps, so each step is an
    exact integer product. One Horner pass of n products with X x - u_i
    over the last level's denominator gives p(x) = P(X x) / Y, and one
    `_scaled` normalizes it."""
    nodes = [x for x, _ in points]
    if len(set(nodes)) != len(nodes):
        raise ValueError("interpolation nodes must be distinct")
    if not points:
        return Poly()
    xs = math.lcm(*(x.denominator for x in nodes))
    ys = math.lcm(*(y.denominator for _, y in points))
    u = [x.numerator * (xs // x.denominator) for x in nodes]
    c = [y.numerator * (ys // y.denominator) for _, y in points]
    dens = [1]
    for j in range(1, len(c)):
        gaps = [a - b for a, b in zip(u[j:], u)]
        m = math.lcm(*gaps)
        c[j:] = [(a - b) * (m // gap) for a, b, gap in zip(c[j:], c[j - 1 :], gaps)]
        dens.append(dens[-1] * m)
    den = dens[-1]
    acc = [c[-1]]
    for ui, ci, di in zip(reversed(u[:-1]), reversed(c[:-1]), reversed(dens[:-1])):
        acc = (
            [ci * (den // di) - ui * acc[0]]
            + [xs * a - ui * b for a, b in zip(acc, acc[1:])]
            + [xs * acc[-1]]
        )
    return _scaled(acc, 1, den * ys)
