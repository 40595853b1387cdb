"""Rational functions in one variable over Q, kept in lowest terms.

The denominator is normalized monic and coprime to the numerator, so
equality is structural. Text output clears denominators to integers
(e.g. -6912/(27*t^2 - 4)) while the internal form stays monic.
"""
from __future__ import annotations

from fractions import Fraction

from .poly import Poly, _promote, poly_gcd


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
            lc = pd.lc
            if lc != 1:
                inv = 1 / lc
                pn, pd = pn * inv, pd * inv
        self.num: Poly = pn
        self.den: Poly = pd

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
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    def __neg__(self) -> RatFunc:
        return RatFunc(-self.num, self.den)

    def __sub__(self, other) -> RatFunc:
        other = _to_ratfunc(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> RatFunc:
        other = _to_ratfunc(other)
        if other is None:
            return NotImplemented
        return RatFunc(self.num * other.num, self.den * other.den)

    def __truediv__(self, other) -> RatFunc:
        other = _to_ratfunc(other)
        if other is None:
            return NotImplemented
        if not other:
            raise ZeroDivisionError("division by zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __pow__(self, e: int) -> RatFunc:
        if e < 0:
            if not self:
                raise ZeroDivisionError("negative power of zero")
            return RatFunc(self.den, self.num) ** (-e)
        return RatFunc(self.num**e, self.den**e)

    # ---- text ----

    def to_text(self, var: str = "t") -> str:
        num, den = self.num, self.den
        # num/den = (cn/cd) * N/D for primitive N, D with positive leading
        # coefficients; with cn/cd = a/b in lowest terms, (a*N)/(b*D) is the
        # integer form with joint gcd 1 and a positive leading denominator.
        ratio = num.content / den.content
        lam = ratio.denominator / den.content
        n, d = num * lam, den * lam
        if d == 1:
            return n.to_text(var)
        ns = n.to_text(var)
        if _needs_parens(n):
            ns = f"({ns})"
        ds = d.to_text(var)
        if _needs_parens(d):
            ds = f"({ds})"
        return f"{ns}/{ds}"


def _needs_parens(p: Poly) -> bool:
    terms = len(p.ints) - p.ints.count(0)
    return terms > 1 or (p.degree >= 1 and abs(p.lc) != 1)


def _to_ratfunc(v) -> RatFunc | None:
    if isinstance(v, RatFunc):
        return v
    if isinstance(v, (Poly, int, Fraction)):
        return RatFunc(v)
    return None
