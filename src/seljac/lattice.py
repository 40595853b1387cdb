"""Interior lattice points of the (n, q) Newton triangle and the induced
eigenvalue bookkeeping on a superelliptic curve's holomorphic differentials.

For y^q = f(x), deg f = n, gcd(n, q) = 1, q a prime power, the forms
x^(j-1) dx / y^(q-i) indexed by interior lattice points (j, i) of the
triangle q*j + n*i < n*q (j, i >= 1) are a basis of the holomorphic
differentials, so the genus is the interior point count (n-1)(q-1)/2.
The functions here, in `model` and in `decompose` take (n, q) as a `Pair`,
checked once and never again: `prime_pair(n, p, r)` checks n and
coprimality for a p the caller has proved prime, `validate_pair(n, q)`
factors q once and then does the same, and `coprime_pairs` yields the
pairs of a sweep from its sieve of prime powers.

A point is the plain tuple (j, i); column j holds i = 1..q*(n - j)//n, so
the points are held as n and q and made only when iterated. The order-q
automorphism multiplies y by a primitive root of unity; the form indexed
by (j, i) picks up exponent i, and the eigenvalue with exponent -i has
multiplicity floor(n*i/q), the number of points in row q - i. It is
constant on runs: floor(n*i/q) = k exactly for ceil(k*q/n) <= i <
ceil((k+1)*q/n). So a spectrum is held as n, q and p, and one count
serves the points and the spectrum: a floor sum in O(log q) steps, with
nothing of size q or n built.
"""
from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Mapping, ValuesView
from itertools import repeat
from operator import floordiv
from typing import NamedTuple

from .arith import prime_power, prime_powers_upto


class Pair(NamedTuple):
    """n >= 3 and q = p**r, p prime, gcd(n, q) = 1, as `prime_pair` checks."""

    n: int
    q: int
    p: int
    r: int


def prime_pair(n: int, p: int, r: int) -> Pair:
    """Check that n >= 3, then that gcd(n, q) = 1 for q = p**r, where the
    caller has proved p prime; return the pair."""
    if n < 3:
        raise ValueError(f"degree n must be >= 3, got {n}")
    q = p**r
    g = math.gcd(n, q)
    if g != 1:
        raise ValueError(f"n and q must be coprime, got gcd({n}, {q}) = {g}")
    return Pair(n, q, p, r)


def validate_pair(n: int, q: int) -> Pair:
    """Check that q is a prime power, factoring it once, then hand its p and
    r to `prime_pair`."""
    pr = prime_power(q)
    if pr is None:
        raise ValueError(f"q must be a prime power >= 2, got {q}")
    return prime_pair(n, *pr)


def coprime_pairs(ns: Iterable[int], q_max: int) -> Iterator[Pair]:
    """The pair (n, q) for each n in ns (in the given order, read lazily)
    and each prime power q = p**r <= q_max with p not dividing n, q
    ascending. Each n is checked to be >= 3 once, before its pairs; the
    sieve gives p and r, so no q is factored."""
    pps = prime_powers_upto(q_max)
    for n in ns:
        if n < 3:
            raise ValueError(f"degree n must be >= 3, got {n}")
        for q, p, r in pps:
            if n % p != 0:
                yield Pair(n, q, p, r)


def _multiplicities_over(n: int, q: int, exponents: range) -> Iterator[int]:
    """floor(n*i/q) for each i in exponents, a range within 1..q-1, by a
    C loop."""
    start, stop, step = exponents.start, exponents.stop, exponents.step
    return map(floordiv, range(n * start, n * stop, n * step), repeat(q))


def _floor_sum(count: int, m: int, a: int, b: int = 0) -> int:
    """The sum of floor((a*i + b)/m) over i = 0..count-1, for m >= 1 and
    a, b >= 0, in O(log m) steps. The parts a//m and b//m of each term sum
    in closed form; what is left counts the lattice points under a line of
    slope a/m < 1, which is the same sum with the axes swapped: count and m
    trade places with the height of the line and a, as in Euclid."""
    total = 0
    while True:
        if a >= m:
            total += count * (count - 1) // 2 * (a // m)
            a %= m
        if b >= m:
            total += count * (b // m)
            b %= m
        top = a * count + b
        if top < m:
            return total
        count, b = divmod(top, m)
        m, a = a, m


def _count_below(n: int, q: int) -> int:
    """The interior point count, which is the sum of floor(n*i/q) over
    i = 1..q-1 (the term at i = 0 is 0), as a floor sum in O(log q)
    steps."""
    return _floor_sum(q, q, n)


class _InteriorPoints:
    """The interior points (j, i) of the (n, q) triangle in lexicographic
    order, as a view: it holds n and q only, counts the points in
    O(log q) steps (`_count_below`), and makes them one at a time as it is
    iterated."""

    __slots__ = ("_n", "_q")

    def __init__(self, n: int, q: int):
        self._n, self._q = n, q

    def __len__(self) -> int:
        return self.total()

    def total(self) -> int:
        """The point count, which `len` cannot give past sys.maxsize."""
        return _count_below(self._n, self._q)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        # column j holds the points i = 1..q*(n - j)//n, since
        # q*j + n*i < n*q <=> i < q*(n - j)/n and n does not divide q*(n - j)
        n, q = self._n, self._q
        heights = map(floordiv, range(q * (n - 1), 0, -q), repeat(n))
        for j, height in enumerate(heights, 1):
            yield from zip(repeat(j), range(1, height + 1))


def interior_points(pair: Pair) -> _InteriorPoints:
    """All interior points (j, i), j >= 1, i >= 1, q*j + n*i < n*q, ordered
    lexicographically, as a view that stores none of them."""
    return _InteriorPoints(pair.n, pair.q)


def genus_lattice(pair: Pair) -> int:
    """Genus as the interior lattice point count, which may exceed
    sys.maxsize."""
    return interior_points(pair).total()


def genus_formula(pair: Pair) -> int:
    """(n-1)(q-1)/2."""
    return (pair.n - 1) * (pair.q - 1) // 2


class _Multiplicities(Mapping):
    """The read-only map i -> floor(n*i/q) over i = 1..q-1, computed on
    lookup: it holds n and q only, so its length is O(1) and it compares
    equal to the dict it stands for."""

    __slots__ = ("_n", "_q")

    def __init__(self, n: int, q: int):
        self._n, self._q = n, q

    def __getitem__(self, i: int) -> int:
        if isinstance(i, int) and 0 < i < self._q:
            return self._n * i // self._q
        raise KeyError(i)

    def __len__(self) -> int:
        return self._q - 1

    def __iter__(self) -> Iterator[int]:
        return iter(range(1, self._q))

    def values(self) -> ValuesView[int]:
        return _MultiplicityValues(self)


class _MultiplicityValues(ValuesView):
    """floor(n*i/q) for i = 1..q-1 in order, made by a C loop rather than
    one lookup each."""

    def __iter__(self) -> Iterator[int]:
        n, q = self._mapping._n, self._mapping._q
        return _multiplicities_over(n, q, range(1, q))


class EigenSpectrum(NamedTuple):
    """The multiplicities floor(n*i/q) of the exponents i = 1..q-1, as
    runs of equal value; q = p**r.

    `total()` sums them, and `primitive_total()` takes off the entries at
    multiples of p, which sum the same way; each sum is one floor sum of
    O(log q) steps (`_count_below`). `multiplicities` reads the same
    numbers per exponent, in ascending order of i, from a view that stores
    nothing of size q.
    """

    n: int
    q: int
    p: int

    @property
    def multiplicities(self) -> Mapping[int, int]:
        return _Multiplicities(self.n, self.q)

    def total(self) -> int:
        """The sum of the multiplicities, which is the interior point
        count: see `_count_below`."""
        return _count_below(self.n, self.q)

    def primitive_total(self) -> int:
        """The total over exponents i prime to p: the total minus the
        entries at i = p*k, k = 1..q/p - 1. Since floor(n*p*k/q) =
        floor(n*k/(q/p)), those sum to the total of the pair (n, q/p)."""
        return self.total() - _count_below(self.n, self.q // self.p)


def full_spectrum(pair: Pair) -> EigenSpectrum:
    return EigenSpectrum(pair.n, pair.q, pair.p)
