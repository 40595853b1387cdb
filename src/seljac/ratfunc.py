"""Rational functions in one variable over Q, kept in lowest terms.

The denominator is normalized monic and coprime to the numerator, so
equality is structural. Text output clears denominators to integers
(e.g. -6912/(27*t^2 - 4)) while the internal form stays monic: the ratio
of the two `Poly` contents, each a reduced integer pair, is reduced with
one gcd, and its numerator and denominator become the integer contents of
the printed numerator and denominator. Making the denominator monic, and
inverting, rescale the pairs by the leading coefficient's integers, so no
field operation builds a `Fraction`.

The public constructor normalizes with one gcd. The field operations
keep their operands' lowest terms and cancel across them instead
(Henrici; Knuth, TAOCP vol. 2, 4.5.1): a sum takes g = gcd(d1, d2) and
reduces the new numerator only by its gcd with g, which is nothing when
g = 1; a product cancels gcd(n1, d2) and gcd(n2, d1); powers, negation
and scalar factors build their result with no gcd at all.
"""
from __future__ import annotations

import math
from fractions import Fraction

from .poly import Poly, _promote, poly_gcd

_ONE = Poly.one()


class RatFunc:
    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        pn = _promote(num)
        pd = _promote(den)
        if pn is NotImplemented or pd is NotImplemented:
            raise TypeError("numerator/denominator must be Poly, int or Fraction")
        if not pd:
            raise ZeroDivisionError("zero denominator")
        if not pn:
            pn, pd = Poly.zero(), Poly.one()
        else:
            g = poly_gcd(pn, pd)
            if g.degree > 0:
                pn, pd = pn // g, pd // g
            pn, pd = _over_lc(pn, pd)
        self.num: Poly = pn
        self.den: Poly = pd

    @classmethod
    def _make(cls, num: Poly, den: Poly) -> RatFunc:
        """A RatFunc from num/den already in lowest terms with den monic
        (the zero function as 0/1)."""
        r = object.__new__(cls)
        r.num = num
        r.den = den
        return r

    @classmethod
    def var(cls) -> RatFunc:
        return cls(Poly.x())

    @classmethod
    def zero(cls) -> RatFunc:
        return cls(0)

    @classmethod
    def one(cls) -> RatFunc:
        return cls(1)

    # ---- structure ----

    def __bool__(self) -> bool:
        return bool(self.num)

    @property
    def is_constant(self) -> bool:
        return self.den.degree == 0 and self.num.degree <= 0

    def __eq__(self, other) -> bool:
        other = _to_ratfunc(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash(("RatFunc", self.num, self.den))

    def __repr__(self) -> str:
        return f"RatFunc({self.to_text()!r})"

    # ---- field operations ----

    def __add__(self, other) -> RatFunc:
        other = _to_ratfunc(other)
        if other is None:
            return NotImplemented
        n1, d1, n2, d2 = self.num, self.den, other.num, other.den
        # With g = gcd(d1, d2), a factor the new numerator shares with the
        # denominator divides g, so the sum is reduced by its gcd with g
        # alone, and is in lowest terms when g = 1. A zero sum has d1 = d2
        # = g and comes out as 0/1 on either branch.
        g = poly_gcd(d1, d2)
        if not g.degree:
            return RatFunc._make(n1 * d2 + n2 * d1, d1 * d2)
        e1 = d1 // g
        num = n1 * (d2 // g) + n2 * e1
        h = poly_gcd(num, g)
        if h.degree:
            num, d2 = num // h, d2 // h
        return RatFunc._make(num, e1 * d2)

    def __neg__(self) -> RatFunc:
        return RatFunc._make(-self.num, self.den)

    def __sub__(self, other) -> RatFunc:
        other = _to_ratfunc(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> RatFunc:
        if isinstance(other, (int, Fraction)):
            return RatFunc._make(self.num * other, self.den if other else _ONE)
        other = _to_ratfunc(other)
        if other is None:
            return NotImplemented
        # A zero factor 0/1 has gcd(0, d) = d, which cancels the other
        # denominator whole, so a zero product comes out as 0/1 too.
        n1, d1, n2, d2 = self.num, self.den, other.num, other.den
        g1 = poly_gcd(n1, d2)
        if g1.degree:
            n1, d2 = n1 // g1, d2 // g1
        g2 = poly_gcd(n2, d1)
        if g2.degree:
            n2, d1 = n2 // g2, d1 // g2
        return RatFunc._make(n1 * n2, d1 * d2)

    def __truediv__(self, other) -> RatFunc:
        if isinstance(other, (int, Fraction)):
            if not other:
                raise ZeroDivisionError("division by zero rational function")
            return RatFunc._make(self.num / other, self.den)
        other = _to_ratfunc(other)
        if other is None:
            return NotImplemented
        return self * other._inverse()

    def _inverse(self) -> RatFunc:
        if not self:
            raise ZeroDivisionError("division by zero rational function")
        return RatFunc._make(*_over_lc(self.den, self.num))

    def __pow__(self, e: int) -> RatFunc:
        if e < 0:
            if not self:
                raise ZeroDivisionError("negative power of zero")
            return self._inverse() ** (-e)
        return RatFunc._make(self.num**e, self.den**e)

    # ---- text ----

    def to_text(self, var: str = "t") -> str:
        num, den = self.num, self.den
        # num/den = (a/b) * N/D for the primitive vectors N, D with positive
        # leading coefficients and a/b the ratio of the contents in lowest
        # terms, b > 0: (a*N)/(b*D) is the integer form with joint gcd 1 and
        # a positive leading denominator.
        a, b = num._n * den._d, num._d * den._n
        if b < 0:
            a, b = -a, -b
        g = math.gcd(a, b)
        n, d = Poly._make(num.ints, a // g, 1), Poly._make(den.ints, b // g, 1)
        if d == 1:
            return n.to_text(var)
        ns = n.to_text(var)
        if _needs_parens(n):
            ns = f"({ns})"
        ds = d.to_text(var)
        if _needs_parens(d):
            ds = f"({ds})"
        return f"{ns}/{ds}"


def _over_lc(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    """num and den divided by the leading coefficient of den != 0, which
    is den's content pair times its leading entry."""
    return num._times(den._d, den._n * den.ints[-1]), den.monic()


def _needs_parens(p: Poly) -> bool:
    terms = len(p.ints) - p.ints.count(0)
    return terms > 1 or (p.degree >= 1 and abs(p._n * p.ints[-1]) != p._d)


def _to_ratfunc(v) -> RatFunc | None:
    if isinstance(v, RatFunc):
        return v
    if isinstance(v, (Poly, int, Fraction)):
        return RatFunc._make(_promote(v), _ONE)
    return None

