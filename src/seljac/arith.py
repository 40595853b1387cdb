"""Small exact integer helpers shared across the package: the prime-power
test, in time polynomial in log q, and the sieve of prime powers."""
from __future__ import annotations

import math
from fractions import Fraction
from itertools import compress


# The primes below 100 and their product: one gcd with it finds every
# prime factor of q below 100.
_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79,
    83, 89, 97,
)
_SMALL_PRODUCT = math.prod(_SMALL_PRIMES)

# A number below 100**2 with no prime factor below 100 is prime.
_SMALL_PRIME_LIMIT = 100**2

# (bound, bases): Miller-Rabin to the bases in the first row whose bound
# exceeds m is a proof that m is prime. Each bound is the least strong
# pseudoprime to that row's bases (OEIS A014233: Jaeschke 1993, Jiang and
# Deng 2014, Sorenson and Webster 2015), so it is composite and needs the
# next row.
_MILLER_RABIN = (
    (2047, (2,)),
    (1373653, (2, 3)),
    (25326001, (2, 3, 5)),
    (3215031751, (2, 3, 5, 7)),
    (2152302898747, (2, 3, 5, 7, 11)),
    (3474749660383, (2, 3, 5, 7, 11, 13)),
    (341550071728321, (2, 3, 5, 7, 11, 13, 17)),
    (3825123056546413051, (2, 3, 5, 7, 11, 13, 17, 19, 23)),
    (318665857834031151167461, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)),
    (3317044064679887385961981, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)),
)
CERTIFIED_BELOW = _MILLER_RABIN[-1][0]

_LN2 = math.log(2)


def is_prime(m: int) -> bool:
    return prime_power(m) == (m, 1)


def prime_power(q: int) -> tuple[int, int] | None:
    """Decompose q as p**r with p prime, r >= 1; None if q is not of that form.

    One gcd with the product of the primes below 100 finds any small prime
    factor; it must be the only one, and divides out r times. Otherwise
    p > 100, so r is a product of primes l with 100**l <= q, and exact l-th
    roots take them out one at a time; the base left is prime when
    Miller-Rabin to its bases in `_MILLER_RABIN` passes. That is
    O(log q) roots and modular powers, against sqrt(q) trial divisions.
    Raises ValueError for a base of `CERTIFIED_BELOW` or more that base 2
    does not show composite, since no base set here proves it prime."""
    if q < 2:
        return None
    g = math.gcd(q, _SMALL_PRODUCT)
    if g == 1:
        return (q, 1) if q < _SMALL_PRIME_LIMIT else _large_prime_power(q)
    if g not in _SMALL_PRIMES:  # two or more small primes divide q
        return None
    r = 0
    while q % g == 0:
        q //= g
        r += 1
    return (g, r) if q == 1 else None


def _large_prime_power(m: int) -> tuple[int, int] | None:
    """`prime_power` of an m >= 100**2 with no prime factor below 100."""
    r = 1
    l, floor = 2, 100**2
    while floor <= m:  # p > 100, so p**l = m needs 100**l < m
        # every prime l passes; a composite l passes only past 100**2, and
        # its root is then exact but not needed
        if l in _SMALL_PRIMES or math.gcd(l, _SMALL_PRODUCT) == 1:
            root = _root(m, l)
            while root**l == m:
                m, r = root, r * l
                root = _root(m, l)
        l, floor = l + 1, floor * 100
    if m < _SMALL_PRIME_LIMIT:
        return m, r
    for bound, bases in _MILLER_RABIN:
        if m < bound:
            return (m, r) if _strong_probable_prime(m, bases) else None
    # No base set proves m prime, so one base only tells composites apart:
    # at 4300 digits each base is a modular power of seconds.
    if not _strong_probable_prime(m, (2,)):
        return None
    raise ValueError(
        f"cannot prove {m} prime: the primality test is certain only below {CERTIFIED_BELOW}"
    )


def _root(m: int, l: int) -> int:
    """floor(m ** (1/l)) for m >= 1 and l >= 2."""
    if l == 2:
        return math.isqrt(m)
    # A float estimate of the root's top 53 bits, times 2**e. Any x > 0
    # takes one Newton step to at least the root, by the AM-GM inequality,
    # and Newton's steps then descend to it.
    log_root = math.log(m) / l
    e = max(0, int(log_root / _LN2) - 52)
    x = (round(math.exp(log_root - e * _LN2)) + 1) << e
    x = ((l - 1) * x + m // x ** (l - 1)) // l
    while True:
        y = ((l - 1) * x + m // x ** (l - 1)) // l
        if y >= x:
            return x
        x = y


def _strong_probable_prime(m: int, bases: tuple[int, ...]) -> bool:
    """Miller-Rabin: is the odd m > max(bases) a strong probable prime to
    each base?"""
    d = m - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in bases:
        x = pow(a, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def euler_phi_prime_power(p: int, r: int) -> int:
    """phi(p**r) = p**r - p**(r-1)."""
    return p**r - p ** (r - 1)


def primitive_count(lo: int, hi: int, p: int) -> int:
    """Number of i in [lo, hi) with p not dividing i."""
    if hi <= lo:
        return 0
    return (hi - lo) - ((hi - 1) // p - (lo - 1) // p)


def prime_powers_upto(limit: int) -> list[tuple[int, int, int]]:
    """All (q, p, r) with q = p**r <= limit, sorted by q. The sieve holds
    r at each q and 0 elsewhere: each prime m <= sqrt(limit) strikes out
    its multiples, then sets m^2, m^3, ... to 2, 3, ..., and the larger
    primes keep their 1. It is read in q order, p = q or the exact r-th root."""
    if limit < 2:
        return []
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for m in range(2, math.isqrt(limit) + 1):
        if sieve[m] == 1:
            sieve[m * m :: m] = bytes(len(range(m * m, limit + 1, m)))
            q, r = m * m, 2
            while q <= limit:
                sieve[q] = r
                q, r = q * m, r + 1
    return [(q, q, 1) if (r := sieve[q]) == 1 else (q, _root(q, r), r)
            for q in compress(range(limit + 1), sieve)]


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
