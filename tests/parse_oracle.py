"""Reference reader for `--poly` text, for the tests.

This is the hand-written tokenizer and recursive-descent reader that
`seljac.parse.parse_x_poly` used before it read each term with one regular
expression. It accepts and rejects the same strings and returns the same
pair (f0, f1) of f0(x) + t*f1(x); only the error messages for malformed
input differ.
"""
from __future__ import annotations

from fractions import Fraction

from seljac.parse import MAX_EXPONENT
from seljac.poly import Poly


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


def _read_term(r: _Reader) -> tuple[int, int, Fraction]:
    """One term; returns (x-exponent, t-exponent 0 or 1, coefficient)."""
    tok = r.take()
    if tok == "x":
        return _read_exponent(r), 0, Fraction(1)
    if tok == "t":
        t_exp, c = 1, Fraction(1)
    elif isinstance(tok, int):
        t_exp, c = 0, Fraction(tok)
        if r.peek() == "/":
            r.take()
            denom = r.take()
            if not isinstance(denom, int) or denom == 0:
                raise ValueError("fraction denominator must be a nonzero integer")
            c = Fraction(tok, denom)
    else:
        raise ValueError(f"expected a term, found {tok!r}")
    if r.peek() == "*":
        r.take()
        if r.take() != "x":
            raise ValueError("expected x after '*'")
        return _read_exponent(r), t_exp, c
    return 0, t_exp, c


def parse_x_poly(text: str) -> tuple[Poly, Poly]:
    """Parse f0(x) + t*f1(x) to the pair (f0, f1) of polynomials over Q."""
    r = _Reader(_tokenize(text))
    if r.done():
        raise ValueError("empty polynomial")
    parts: tuple[dict, dict] = ({}, {})  # x-exponent -> coefficient, per t-exponent
    first = True
    while not r.done():
        sign = 1
        tok = r.peek()
        if tok == "+" or tok == "-":
            r.take()
            sign = -1 if tok == "-" else 1
        elif not first:
            raise ValueError("expected '+' or '-' between terms")
        exp, t_exp, c = _read_term(r)
        part = parts[t_exp]
        part[exp] = part.get(exp, 0) + sign * c
        first = False
    f0, f1 = (Poly([part.get(k, 0) for k in range(max(part, default=-1) + 1)]) for part in parts)
    return f0, f1
