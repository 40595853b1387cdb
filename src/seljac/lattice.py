"""Interior lattice points of the (n, q) Newton triangle and the induced
eigenvalue bookkeeping on a superelliptic curve's holomorphic differentials.

For y^q = f(x), deg f = n, gcd(n, q) = 1, q a prime power, the forms
x^(j-1) dx / y^(q-i) indexed by interior lattice points (j, i) of the
triangle q*j + n*i < n*q (j, i >= 1) are a basis of the holomorphic
differentials, so the genus is the interior point count (n-1)(q-1)/2.
A point is the plain tuple (j, i). Column j holds the points i = 1, ...,
q*(n - j)//n, so the points are held as n and q alone: their count is a
C-loop sum of the n - 1 column heights, and they are made one at a time
only when iterated. The order-q automorphism multiplies y
by a primitive root of unity; the form indexed by (j, i) picks up
exponent i, and the eigenvalue with exponent -i appears with
multiplicity floor(n*i/q).

That multiplicity is constant on runs: floor(n*i/q) = k exactly for
ceil(k*q/n) <= i < ceil((k+1)*q/n). So a spectrum is held as n, q and p
alone; its total is a C-loop sum of at most min(n, q - 1) terms, and
nothing of size q is built.
"""
from __future__ import annotations

import math
from collections.abc import Iterator, Mapping, ValuesView
from itertools import repeat
from operator import floordiv
from typing import NamedTuple

from .arith import prime_power


def validate_pair(n: int, q: int) -> tuple[int, int]:
    """Check n >= 3, q = p**r, gcd(n, q) = 1; return (p, r)."""
    if n < 3:
        raise ValueError(f"degree n must be >= 3, got {n}")
    pr = prime_power(q)
    if pr is None:
        raise ValueError(f"q must be a prime power >= 2, got {q}")
    g = math.gcd(n, q)
    if g != 1:
        raise ValueError(f"n and q must be coprime, got gcd({n}, {q}) = {g}")
    return pr


class _InteriorPoints:
    """The interior points (j, i) of the (n, q) triangle in lexicographic
    order, as a view: it holds n and q only, and makes the points one at a
    time as it is iterated."""

    __slots__ = ("_n", "_q")

    def __init__(self, n: int, q: int):
        self._n, self._q = n, q

    def _heights(self) -> Iterator[int]:
        """q*(n - j)//n for j = 1..n-1, by a C loop: column j holds the
        points i = 1..q*(n - j)//n, since q*j + n*i < n*q <=> i < q*(n - j)/n
        and n does not divide q*(n - j)."""
        n, q = self._n, self._q
        return map(floordiv, range(q * (n - 1), 0, -q), repeat(n))

    def __len__(self) -> int:
        return sum(self._heights())

    def __iter__(self) -> Iterator[tuple[int, int]]:
        for j, height in enumerate(self._heights(), 1):
            yield from zip(repeat(j), range(1, height + 1))


def interior_points(n: int, q: int) -> _InteriorPoints:
    """All interior points (j, i), j >= 1, i >= 1, q*j + n*i < n*q, ordered
    lexicographically, as a view that stores none of them."""
    validate_pair(n, q)
    return _InteriorPoints(n, q)


def genus_lattice(n: int, q: int) -> int:
    """Genus as the interior lattice point count."""
    return len(interior_points(n, q))


def genus_formula(n: int, q: int) -> int:
    """(n-1)(q-1)/2."""
    validate_pair(n, q)
    return (n - 1) * (q - 1) // 2


def _multiplicities_every(n: int, q: int, step: int) -> Iterator[int]:
    """floor(n*i/q) for i = step, 2*step, ... below q, by a C loop."""
    return map(floordiv, range(n * step, n * q, n * step), repeat(q))


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
        return _multiplicities_every(self._mapping._n, self._mapping._q, 1)


class EigenSpectrum(NamedTuple):
    """The multiplicities floor(n*i/q) of the exponents i = 1..q-1, as
    runs of equal value; q = p**r.

    `total()` sums over the runs, and `primitive_total()` takes off the
    entries at multiples of p; every sum is a C loop. `multiplicities`
    reads the same numbers per exponent, in ascending order of i (the
    order `spectrum` prints them in), from a view that stores nothing of
    size q.
    """

    n: int
    q: int
    p: int

    @property
    def multiplicities(self) -> Mapping[int, int]:
        return _Multiplicities(self.n, self.q)

    def _run_bounds(self) -> Iterator[int]:
        """ceil(k*q/n) = (k*q + n - 1)//n for k = 1..n-1, by a C loop. With
        1 before them and q after, they bound the runs: floor(n*i/q) == k
        exactly from bound k up to, not including, bound k + 1."""
        n, q = self.n, self.q
        return map(floordiv, range(q + n - 1, (n - 1) * q + n, q), repeat(n))

    def total(self) -> int:
        """The sum over the runs of k times the run's length. For n < q it
        telescopes to (n-1)*q minus the n - 1 inner bounds; for n > q most
        runs are empty and the others hold one exponent each, so it sums
        the q - 1 multiplicities instead, the shorter loop."""
        if self.n > self.q:
            return sum(_multiplicities_every(self.n, self.q, 1))
        return (self.n - 1) * self.q - sum(self._run_bounds())

    def primitive_total(self) -> int:
        """The total over exponents i prime to p: the total minus the
        q/p - 1 entries at i = p, 2p, ..."""
        return self.total() - sum(_multiplicities_every(self.n, self.q, self.p))


def full_spectrum(n: int, q: int) -> EigenSpectrum:
    p, _ = validate_pair(n, q)
    return EigenSpectrum(n, q, p)
