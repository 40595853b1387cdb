"""Rational functions in one variable over Q, kept in lowest terms.

The denominator is normalized monic and coprime to the numerator, so
equality is structural. Text output clears denominators to integers
(e.g. -6912/(27*t^2 - 4)) while the internal form stays monic: the ratio
of the two `Poly` contents, each a reduced integer pair, is reduced with
one gcd, and its numerator and denominator become the integer contents of
the printed numerator and denominator. Making the denominator monic
rescales the pairs by its leading coefficient's integers, so the
constructor builds no `Fraction`.

There is no field arithmetic: a caller computes its numerator and
denominator in Q[t] and reduces them once, through the constructor.
"""
from __future__ import annotations

import math
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
            # divide both by lc(pd), which is pd's content pair times its
            # leading entry
            pn, pd = pn._times(pd._d, pd._n * pd.ints[-1]), pd.monic()
        self.num: Poly = pn
        self.den: Poly = pd

    # ---- structure ----

    @property
    def is_constant(self) -> bool:
        return self.den.degree == 0 and self.num.degree <= 0

    def __eq__(self, other) -> bool:
        if isinstance(other, RatFunc):
            return self.num == other.num and self.den == other.den
        if isinstance(other, (Poly, int, Fraction)):
            return not self.den.degree and self.num == other  # den is monic
        return NotImplemented

    def __hash__(self):
        return hash(("RatFunc", self.num, self.den))

    def __repr__(self) -> str:
        return f"RatFunc({self.to_text()!r})"

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


def _needs_parens(p: Poly) -> bool:
    terms = len(p.ints) - p.ints.count(0)
    return terms > 1 or (p.degree >= 1 and abs(p._n * p.ints[-1]) != p._d)
