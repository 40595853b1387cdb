"""Reference polynomial arithmetic on tuples of `Fraction`s, for the tests.

This is the coefficient-by-coefficient arithmetic `seljac.poly.Poly` used
before it stored a primitive integer vector plus one rational content,
with the slow paths `seljac.poly` has since replaced: the Euclidean gcd
over Q, Yun's squarefree decomposition built on it, interpolation in
Lagrange's form, and the cyclotomic vector filled in by slice assignment.
A polynomial here is a tuple of Fractions, lowest degree first, with
trailing zeros stripped; the zero polynomial is `()`.

`ratfunc_to_text` is the text of a `seljac.ratfunc.RatFunc` as it was
computed while the content of a `Poly` was a `Fraction`: the integer form
of num/den found by `Fraction` arithmetic on the contents.
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


def derivative(a) -> tuple[Fraction, ...]:
    return normalize(k * c for k, c in enumerate(a) if k)


def monic(a) -> tuple[Fraction, ...]:
    return tuple(c / a[-1] for c in a)


def gcd(a, b) -> tuple[Fraction, ...]:
    """Monic gcd by Euclid's algorithm on the rational coefficients."""
    while b:
        a, b = b, divmod_(a, b)[1]
    return monic(a) if a else ()


def squarefree(a) -> list[tuple[tuple[Fraction, ...], int]]:
    """Yun's algorithm with `gcd`: monic squarefree pairwise-coprime
    (g_i, m_i) with a = lc(a) * prod g_i**m_i; [] for a nonzero constant."""
    if len(a) < 2:
        return []
    w = monic(a)
    a0 = gcd(w, derivative(w))
    b = divmod_(w, a0)[0]
    c = divmod_(derivative(w), a0)[0]
    d = add(c, neg(derivative(b)))
    out = []
    i = 1
    while len(b) > 1:
        g = gcd(b, d)
        if len(g) > 1:
            out.append((g, i))
        b = divmod_(b, g)[0]
        c = divmod_(d, g)[0]
        d = add(c, neg(derivative(b)))
        i += 1
    return out


def lagrange(points) -> tuple[Fraction, ...]:
    """The polynomial through the points, summed in Lagrange's form:
    y_i * prod_(j != i) (x - x_j) / (x_i - x_j)."""
    result = ()
    for i, (xi, yi) in enumerate(points):
        term = normalize([yi])
        for j, (xj, _) in enumerate(points):
            if j != i:
                term = tuple(c / (xi - xj) for c in mul(term, (-Fraction(xj), Fraction(1))))
        result = add(result, term)
    return result


def cyclotomic_ints(p: int, i: int) -> tuple[int, ...]:
    """The integer vector of the p**i-th cyclotomic polynomial: a list of
    zeros with every p**(i-1)-th entry set to 1 by one slice assignment."""
    step = p ** (i - 1)
    ints = [0] * ((p - 1) * step + 1)
    ints[::step] = [1] * p
    return tuple(ints)


def compose(a, inner) -> tuple[Fraction, ...]:
    """a(inner(x)) by Horner's rule."""
    result = ()
    for c in reversed(a):
        result = add(mul(result, inner), normalize([c]))
    return result


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


def _needs_parens(a) -> bool:
    return sum(1 for c in a if c) > 1 or (len(a) > 1 and abs(a[-1]) != 1)


def ratfunc_to_text(num, den, var: str = "t") -> str:
    """The text of num/den for `Poly`s num and den != 0, read through
    their `content` and `coeffs` accessors: num/den = (cn/cd) * N/D for
    the primitive vectors N, D, and with cn/cd = a/b in lowest terms,
    (a*N)/(b*D) is the integer form that is printed."""
    ratio = num.content / den.content
    lam = ratio.denominator / den.content
    n = tuple(c * lam for c in num.coeffs)
    d = tuple(c * lam for c in den.coeffs)
    if d == (1,):
        return to_text(n, var)
    ns, ds = to_text(n, var), to_text(d, var)
    if _needs_parens(n):
        ns = f"({ns})"
    if _needs_parens(d):
        ds = f"({ds})"
    return f"{ns}/{ds}"
