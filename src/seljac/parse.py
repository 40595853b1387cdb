"""Text grammar for polynomial input.

A polynomial is a signed sum of terms `c`, `c*x^k`, `x^k`, `x`, `t` and
`t*x^k`, where a coefficient c is an integer or a fraction `a/b`. The
parameter t enters only linearly, so every input is f0(x) + t*f1(x) with
f0 and f1 over Q, and parses to the pair (f0, f1); pure rational input is
the one with f1 = 0.

`parse_x_poly` reads the text one term at a time with one compiled pattern,
`_TERM`, matched where the previous term ended. A term is its sign (needed
on every term but the first), then `t` or a coefficient optionally followed
by `*x^k`, or `x^k`; `^k` may be left out for k = 1. Whitespace (anything
`str.isspace` accepts) may stand between any two tokens, and the digits are
those `str.isdecimal` accepts. Exponents above `MAX_EXPONENT` and numerals
of more than `DIGITS_MAX` digits are rejected. An integer coefficient stays
an `int` and only `a/b` builds a `Fraction`; `Poly` brings both to the same
normal form.

>>> parse_q_poly("x^3 - x - 1").to_text()
'x^3 - x - 1'
>>> [f.to_text() for f in parse_x_poly("x^3 - x - t")]
['x^3 - x', '-1']
"""
from __future__ import annotations

import re
from fractions import Fraction

# DIGITS_MAX, the most digits a numeral may have, is Python's default
# int-from-str limit, past which `int` itself would refuse it; `Poly.to_text`
# prints no more, and `cli` bounds q = p**r by the same constant.
from .poly import DIGITS_MAX, Poly

# The largest x-exponent accepted. A parsed polynomial is a dense list, so
# x^k costs k + 1 entries; larger exponents are rejected before any is built.
MAX_EXPONENT = 1000


# Each run of whitespace is matched by one `\s*` only: two unbounded `\s*`
# side by side would try every split of a long run of spaces, in time
# quadratic in its length.
_TERM = re.compile(
    r"\s*(?:(?P<sign>[+-])\s*)?"
    r"(?:(?P<coeff>t|(?P<num>\d+)(?:\s*/\s*(?P<den>\d+))?)"
    r"(?P<times_x>\s*\*\s*x(?:\s*\^\s*(?P<k>\d+))?)?"
    r"|x(?:\s*\^\s*(?P<x_k>\d+))?)\s*"
)


def parse_x_poly(text: str) -> tuple[Poly, Poly]:
    """Parse f0(x) + t*f1(x) to the pair (f0, f1) of polynomials over Q."""
    if not text.strip():
        raise ValueError("empty polynomial")
    parts: tuple[dict, dict] = ({}, {})  # x-exponent -> coefficient, per t-exponent
    pos = 0
    while pos < len(text):
        m = _TERM.match(text, pos)
        if m is None or (pos and not m["sign"]):
            raise ValueError(f"cannot read a term at {text[pos:].lstrip()[:20]!r}")
        if any(len(v) > DIGITS_MAX for v in m.group("num", "den", "k", "x_k") if v):
            raise ValueError(f"a numeral has more than {DIGITS_MAX} digits")
        den = int(m["den"] or 1)
        if not den:
            raise ValueError("fraction denominator must be a nonzero integer")
        k = int(m["k"] or m["x_k"] or 1) if m["times_x"] or not m["coeff"] else 0
        if k > MAX_EXPONENT:
            raise ValueError(f"exponent must be at most {MAX_EXPONENT}, got {k}")
        c = int(m["num"] or 1) if den == 1 else Fraction(int(m["num"]), den)
        part = parts[m["coeff"] == "t"]
        part[k] = part.get(k, 0) + (-c if m["sign"] == "-" else c)
        pos = m.end()
    f0, f1 = (Poly([part.get(k, 0) for k in range(max(part, default=-1) + 1)]) for part in parts)
    return f0, f1


def parse_q_poly(text: str) -> Poly:
    """Parse a polynomial over Q; the symbol t is rejected."""
    f0, f1 = parse_x_poly(text)
    if f1:
        raise ValueError("parameter t not allowed here")
    return f0


def t_linear_base(f0: Poly, f1: Poly) -> Poly | None:
    """If f0(x) + t*f1(x) is exactly g(x) - t, return g = f0; otherwise None."""
    return f0 if f1 == -1 else None
