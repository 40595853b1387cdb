"""Text grammar for polynomial input.

A polynomial is a signed sum of terms `c`, `c*x^k`, `x^k`, `x`, where a
coefficient is an integer, a fraction `a/b`, or the parameter symbol `t`.
Input mentioning `t` parses to x-coefficients that are polynomials in t;
pure rational input parses to a Poly over Q.

>>> parse_q_poly("x^3 - x - 1").to_text()
'x^3 - x - 1'
>>> [c.to_text("t") for c in parse_x_poly("x^3 - x - t")]
['-t', '-1', '0', '1']
"""
from __future__ import annotations

from fractions import Fraction

from .poly import Poly

_T_POLY = Poly.x()  # the parameter t as a polynomial in t

# The largest x-exponent accepted. A parsed polynomial is a dense list, so
# x^k costs k + 1 entries; larger exponents are rejected before any is built.
MAX_EXPONENT = 1000


def _tokenize(text: str) -> list:
    out: list = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "+-*/^":
            out.append(ch)
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            out.append(int(text[i:j]))
            i = j
        elif ch in ("x", "t"):
            out.append(ch)
            i += 1
        else:
            raise ValueError(f"unexpected character {ch!r} in polynomial")
    return out


class _Reader:
    def __init__(self, tokens: list):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        if tok is None:
            raise ValueError("unexpected end of polynomial")
        self.pos += 1
        return tok

    def done(self) -> bool:
        return self.pos >= len(self.tokens)


def _read_exponent(r: _Reader) -> int:
    if r.peek() == "^":
        r.take()
        k = r.take()
        if not isinstance(k, int):
            raise ValueError("exponent must be a nonnegative integer")
        if k > MAX_EXPONENT:
            raise ValueError(f"exponent must be at most {MAX_EXPONENT}, got {k}")
        return k
    return 1


def _read_term(r: _Reader) -> tuple[int, Poly]:
    """One term; returns (x-exponent, coefficient as a polynomial in t)."""
    tok = r.take()
    if tok == "x":
        return _read_exponent(r), Poly.one()
    if tok == "t":
        coeff = _T_POLY
    elif isinstance(tok, int):
        c = Fraction(tok)
        if r.peek() == "/":
            r.take()
            denom = r.take()
            if not isinstance(denom, int) or denom == 0:
                raise ValueError("fraction denominator must be a nonzero integer")
            c = Fraction(tok, denom)
        coeff = Poly.const(c)
    else:
        raise ValueError(f"expected a term, found {tok!r}")
    if r.peek() == "*":
        r.take()
        if r.take() != "x":
            raise ValueError("expected x after '*'")
        return _read_exponent(r), coeff
    return 0, coeff


def parse_x_poly(text: str) -> list[Poly]:
    """Parse to a list of x-coefficients (index = x-degree), each a Poly in t.

    The zero polynomial parses to []."""
    r = _Reader(_tokenize(text))
    if r.done():
        raise ValueError("empty polynomial")
    terms: dict[int, Poly] = {}
    first = True
    while not r.done():
        sign = 1
        tok = r.peek()
        if tok == "+" or tok == "-":
            r.take()
            sign = -1 if tok == "-" else 1
        elif not first:
            raise ValueError("expected '+' or '-' between terms")
        exp, coeff = _read_term(r)
        if sign < 0:
            coeff = -coeff
        terms[exp] = terms.get(exp, Poly.zero()) + coeff
        first = False
    if not terms:
        raise ValueError("empty polynomial")
    top = max(terms)
    out = [terms.get(k, Poly.zero()) for k in range(top + 1)]
    while out and not out[-1]:
        out.pop()
    return out


def parse_q_poly(text: str) -> Poly:
    """Parse a polynomial over Q; the symbol t is rejected."""
    coeffs = parse_x_poly(text)
    flat = []
    for c in coeffs:
        if c.degree > 0:
            raise ValueError("parameter t not allowed here")
        flat.append(c.coeff(0))
    return Poly(flat)


def t_linear_base(coeffs: list[Poly]) -> Poly | None:
    """If the parsed polynomial is exactly g(x) - t with g over Q, return g;
    otherwise None."""
    if not coeffs:
        return None
    g = []
    for k, c in enumerate(coeffs):
        if k == 0:
            if c.coeff(1) != -1 or c.degree > 1:
                return None
            g.append(c.coeff(0))
        else:
            if c.degree > 0:
                return None
            g.append(c.coeff(0))
    return Poly(g)
