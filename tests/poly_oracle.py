"""Reference polynomial arithmetic on tuples of `Fraction`s, for the tests.

This is the coefficient-by-coefficient arithmetic `seljac.poly.Poly` used
before it stored a primitive integer vector plus one rational content. A
polynomial here is a tuple of Fractions, lowest degree first, with
trailing zeros stripped; the zero polynomial is `()`.
"""
from __future__ import annotations

import math
from fractions import Fraction


def normalize(coeffs) -> tuple[Fraction, ...]:
    cs = [Fraction(c) for c in coeffs]
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def add(a, b) -> tuple[Fraction, ...]:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for k, c in enumerate(b):
        out[k] += c
    return normalize(out)


def neg(a) -> tuple[Fraction, ...]:
    return tuple(-c for c in a)


def mul(a, b) -> tuple[Fraction, ...]:
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        for j, d in enumerate(b):
            out[i + j] += c * d
    return normalize(out)


def divmod_(a, b) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    if not b:
        raise ZeroDivisionError("division by zero polynomial")
    rem = list(a)
    dq = len(rem) - len(b)
    if dq < 0:
        return (), tuple(a)
    quot = [Fraction(0)] * (dq + 1)
    inv_lc = 1 / b[-1]
    for k in range(dq, -1, -1):
        c = rem[k + len(b) - 1] * inv_lc
        quot[k] = c
        for j, d in enumerate(b):
            rem[k + j] -= c * d
    return normalize(quot), normalize(rem)


def evaluate(a, x) -> Fraction:
    result = Fraction(0)
    for c in reversed(a):
        result = result * x + c
    return result


def integer_scaled(a) -> list[int]:
    if not a:
        return []
    lam = math.lcm(*(c.denominator for c in a))
    ints = [int(c * lam) for c in a]
    g = math.gcd(*ints)
    return [v // g for v in ints]


def to_text(a, var: str = "x") -> str:
    if not a:
        return "0"
    parts: list[str] = []
    for k in range(len(a) - 1, -1, -1):
        c = a[k]
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
