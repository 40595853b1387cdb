"""Interior lattice points of the (n, q) Newton triangle and the induced
eigenvalue bookkeeping on a superelliptic curve's holomorphic differentials.

For y^q = f(x), deg f = n, gcd(n, q) = 1, q a prime power, the forms
x^(j-1) dx / y^(q-i) indexed by interior lattice points (j, i) of the
triangle q*j + n*i < n*q (j, i >= 1) are a basis of the holomorphic
differentials, so the genus is the interior point count (n-1)(q-1)/2.
A point is the plain tuple (j, i). The order-q automorphism multiplies y
by a primitive root of unity; the form indexed by (j, i) picks up
exponent i, and the eigenvalue with exponent -i appears with
multiplicity floor(n*i/q).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

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


def interior_points(n: int, q: int) -> list[tuple[int, int]]:
    """All interior points (j, i), j >= 1, i >= 1, q*j + n*i < n*q, ordered
    lexicographically."""
    validate_pair(n, q)
    out = []
    for j in range(1, n):
        # q*j + n*i < n*q  <=>  i < q*(n - j)/n, and n does not divide
        # q*(n - j), so the largest such i is q*(n - j)//n
        out.extend(zip(repeat(j), range(1, q * (n - j) // n + 1)))
    return out


def genus_lattice(n: int, q: int) -> int:
    """Genus as the interior lattice point count."""
    return len(interior_points(n, q))


def genus_formula(n: int, q: int) -> int:
    """(n-1)(q-1)/2."""
    validate_pair(n, q)
    return (n - 1) * (q - 1) // 2


@dataclass
class EigenSpectrum:
    """Multiplicity of each nontrivial eigenvalue exponent i = 1..q-1, in
    ascending order of i (the order `spectrum` prints them in); q = p**r."""

    n: int
    q: int
    p: int
    multiplicities: dict[int, int]

    def total(self) -> int:
        return sum(self.multiplicities.values())

    def primitive_total(self) -> int:
        """The total over exponents i prime to p: the total minus the
        q/p - 1 entries at i = p, 2p, ..."""
        mult = self.multiplicities
        return self.total() - sum(mult[i] for i in range(self.p, self.q, self.p))


def full_spectrum(n: int, q: int) -> EigenSpectrum:
    p, _ = validate_pair(n, q)
    mult = {i: (n * i) // q for i in range(1, q)}
    return EigenSpectrum(n, q, p, mult)
