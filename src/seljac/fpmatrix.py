"""Computation over a prime field F_p: the rank of an integer matrix mod p,
the one piece of linear algebra the commutants need, and the values of an
integer polynomial at every residue mod p, which `galois.rational_roots`
reads as a certificate that a monic integer polynomial has no integer
root."""
from __future__ import annotations


def rank_fp(rows: list[list[int]], p: int) -> int:
    """Rank of an integer matrix reduced mod p, by Gaussian elimination."""
    work = [[v % p for v in row] for row in rows]
    if not work:
        return 0
    ncols = len(work[0])
    rank = 0
    col = 0
    nrows = len(work)
    while rank < nrows and col < ncols:
        pivot = None
        for i in range(rank, nrows):
            if work[i][col]:
                pivot = i
                break
        if pivot is None:
            col += 1
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        inv = pow(work[rank][col], p - 2, p)
        work[rank] = [(v * inv) % p for v in work[rank]]
        for i in range(nrows):
            if i != rank and work[i][col]:
                f = work[i][col]
                work[i] = [(a - f * b) % p for a, b in zip(work[i], work[rank])]
        rank += 1
        col += 1
    return rank


def values_fp(ints: list[int], p: int) -> list[int]:
    """[f(x) mod p for x in 0, ..., p - 1] for the integer polynomial f with
    coefficient vector ints (lowest degree first), by Horner's rule over
    the whole residue list at once. Each coefficient is reduced mod p
    before it enters, so the work does not grow with its size."""
    xs = range(p)
    acc = [0] * p
    for c in reversed(ints):
        c %= p
        acc = [(a * x + c) % p for a, x in zip(acc, xs)]
    return acc
