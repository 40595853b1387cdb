"""Small exact integer helpers shared across the package."""
from __future__ import annotations

import math
from fractions import Fraction


def is_prime(m: int) -> bool:
    return prime_power(m) == (m, 1)


def least_prime_factor(m: int) -> int:
    """The least prime dividing m >= 2, by trial division: 2, then odd d
    while d*d <= m; m itself when none divides it."""
    if m % 2 == 0:
        return 2
    d = 3
    while d * d <= m:
        if m % d == 0:
            return d
        d += 2
    return m


def prime_power(q: int) -> tuple[int, int] | None:
    """Decompose q as p**r with p prime, r >= 1; None if q is not of that form."""
    if q < 2:
        return None
    p = least_prime_factor(q)
    if p == q:
        return q, 1
    r = 0
    while q % p == 0:
        q //= p
        r += 1
    if q != 1:
        return None
    return p, r


def euler_phi_prime_power(p: int, r: int) -> int:
    """phi(p**r) = p**r - p**(r-1)."""
    return p**r - p ** (r - 1)


def primitive_count(lo: int, hi: int, p: int) -> int:
    """Number of i in [lo, hi) with p not dividing i."""
    if hi <= lo:
        return 0
    return (hi - lo) - ((hi - 1) // p - (lo - 1) // p)


def prime_powers_upto(limit: int) -> list[tuple[int, int, int]]:
    """All (q, p, r) with q = p**r <= limit, sorted by q."""
    if limit < 2:
        return []
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for m in range(2, math.isqrt(limit) + 1):
        if sieve[m]:
            step = len(range(m * m, limit + 1, m))
            sieve[m * m :: m] = bytes(step)
    out = []
    for p in range(2, limit + 1):
        if not sieve[p]:
            continue
        q, r = p, 1
        while q <= limit:
            out.append((q, p, r))
            q *= p
            r += 1
    out.sort()
    return out


def is_perfect_square(m: int) -> bool:
    if m < 0:
        return False
    s = math.isqrt(m)
    return s * s == m


def fraction_is_square(x: Fraction | int) -> bool:
    """Is x a square in Q? Zero counts as a square."""
    x = Fraction(x)
    if x < 0:
        return False
    return is_perfect_square(x.numerator) and is_perfect_square(x.denominator)


def fraction_sqrt(x: Fraction | int) -> Fraction:
    """Exact square root of a rational square (raises if x is not one)."""
    x = Fraction(x)
    if not fraction_is_square(x):
        raise ValueError(f"{x} is not a rational square")
    return Fraction(math.isqrt(x.numerator), math.isqrt(x.denominator))
