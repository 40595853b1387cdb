"""Permutation groups acting on the mod-p sum-zero module of a root set.

For a degree-n permutation group and a prime p not dividing n, the
sum-zero subspace of the F_p permutation module has dimension n - 1 and
is an honest direct summand; its endomorphism commutant detects double
transitivity (commutant dimension 1).

A permutation is the tuple of its images of 0..n-1, and its action on
the sum-zero module is a tuple of integer rows; the commutant equations
are reduced mod p once, when `rank_fp` takes their rank. `decompose` reads
its hypothesis, double transitivity, from the label groups in `GROUPS` alone.
"""
from __future__ import annotations

from typing import NamedTuple

from .arith import is_prime
from .fpmatrix import rank_fp


class _PermGroupFields(NamedTuple):
    """The fields of `PermGroup`, which checks them on construction."""

    degree: int
    generators: tuple[tuple[int, ...], ...]


class PermGroup(_PermGroupFields):
    """A permutation group given by generators on {0..degree-1}."""

    __slots__ = ()

    def __new__(cls, degree: int, generators: tuple[tuple[int, ...], ...]) -> PermGroup:
        if degree < 1:
            raise ValueError("degree must be >= 1")
        for g in generators:
            if sorted(g) != list(range(degree)):
                raise ValueError(f"not a permutation of 0..{degree - 1}: {g}")
        return super().__new__(cls, degree, generators)

    @classmethod
    def _make(cls, iterable) -> PermGroup:
        # through the checks above, for _replace as well
        return cls(*iterable)

    @classmethod
    def symmetric(cls, n: int) -> PermGroup:
        if n == 1:
            return cls(1, ())
        swap = tuple([1, 0] + list(range(2, n)))
        cycle = tuple(list(range(1, n)) + [0])
        return cls(n, (swap, cycle))

    @classmethod
    def alternating(cls, n: int) -> PermGroup:
        if n < 3:
            return cls(n, ())
        gens = []
        for k in range(2, n):
            img = list(range(n))
            img[0], img[1], img[k] = 1, k, 0
            gens.append(tuple(img))
        return cls(n, tuple(gens))

    @classmethod
    def cyclic(cls, n: int) -> PermGroup:
        return cls(n, (tuple(list(range(1, n)) + [0]),))

    @classmethod
    def trivial(cls, n: int) -> PermGroup:
        return cls(n, ())


GROUPS = {
    "S3": PermGroup.symmetric(3),
    "C3": PermGroup.cyclic(3),
    "S4": PermGroup.symmetric(4),
    "A4": PermGroup.alternating(4),
    "C4": PermGroup.cyclic(4),
    "V4": PermGroup(4, ((1, 0, 3, 2), (2, 3, 0, 1))),
    "D4": PermGroup(4, ((1, 2, 3, 0), (2, 1, 0, 3))),
}


def is_doubly_transitive(group: PermGroup) -> bool:
    """Orbit of the ordered pair (0, 1) under the generators covers all
    n(n-1) ordered pairs."""
    n = group.degree
    if n < 2:
        raise ValueError("double transitivity needs degree >= 2")
    start = (0, 1)
    seen = {start}
    frontier = [start]
    target = n * (n - 1)
    while frontier:
        nxt = []
        for a, b in frontier:
            for g in group.generators:
                pair = (g[a], g[b])
                if pair not in seen:
                    seen.add(pair)
                    nxt.append(pair)
        frontier = nxt
    return len(seen) == target


def permutation_heart_matrix(perm: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Action of one permutation on the sum-zero module, as integer rows in
    the basis u_k = e_k - e_{n-1} for k = 0..n-2 (so u_{n-1} reads as 0)."""
    n = len(perm)
    d = n - 1
    cols = []
    for k in range(d):
        vec = [0] * d
        a = perm[k]
        b = perm[n - 1]
        if a < d:
            vec[a] += 1
        if b < d:
            vec[b] -= 1
        cols.append(vec)
    return tuple(tuple(cols[c][r] for c in range(d)) for r in range(d))


def heart_centralizer_dim(group: PermGroup, p: int) -> int:
    """Dimension over F_p of the algebra of matrices commuting with the
    group's action on the sum-zero module.

    Requires p prime and p not dividing the degree (otherwise the sum-zero
    module is not a direct summand and the question changes meaning).
    """
    if not is_prime(p):
        raise ValueError(f"modulus {p} is not prime")
    n = group.degree
    if n < 2:
        raise ValueError("degree must be >= 2")
    if n % p == 0:
        raise ValueError(f"prime {p} divides the degree {n}; module is not a summand")
    d = n - 1
    mats = [permutation_heart_matrix(g) for g in group.generators]
    rows: list[list[int]] = []
    for a in mats:
        # (A M - M A)[i][j] = 0: unknowns M[k][l] flattened as k*d + l
        for i in range(d):
            for j in range(d):
                row = [0] * (d * d)
                for k in range(d):
                    row[k * d + j] += a[i][k]
                    row[i * d + k] -= a[k][j]
                rows.append(row)
    return d * d - rank_fp(rows, p)
