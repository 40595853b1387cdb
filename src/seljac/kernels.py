"""Kernels for the obstruction scans over q = p**r with gcd(n, q) = 1.

Both work over primitive residues (those not divisible by p). There is one
implementation, in pure Python; `BACKEND` names it for benchmark reports.
"""
from __future__ import annotations

BACKEND = "pure-python"


def multiplier_scan(n: int, q: int, p: int) -> tuple[list[int], list[int]]:
    """Multipliers m (1 < m < q, p does not divide m) preserving multiplicity data.

    Returns (function_ms, zero_set_ms):
    function_ms  -- m with floor(n*i/q) == floor(n*((i*m) % q)/q) for every
                    primitive i in 1..q-1 (invariance of the multiplicity
                    function itself);
    zero_set_ms  -- m mapping the primitive zero set {i : n*i < q} into
                    itself (the weaker, zero-set-level invariance).
    """
    function_ms: list[int] = []
    zero_set_ms: list[int] = []
    for m in range(2, q):
        if m % p == 0:
            continue
        ok_fun = True
        ok_zero = True
        for i in range(1, q):
            if i % p == 0:
                continue
            lhs = (n * i) // q
            rhs = (n * ((i * m) % q)) // q
            if ok_fun and lhs != rhs:
                ok_fun = False
            if ok_zero and lhs == 0 and rhs != 0:
                ok_zero = False
            if not ok_fun and not ok_zero:
                break
        if ok_fun:
            function_ms.append(m)
        if ok_zero:
            zero_set_ms.append(m)
    return function_ms, zero_set_ms


def _primitive_count(lo: int, hi: int, p: int) -> int:
    """Number of i in [lo, hi) with p not dividing i."""
    if hi <= lo:
        return 0
    return (hi - lo) - ((hi - 1) // p - (lo - 1) // p)


def feasibility_counts(n: int, q: int, p: int) -> tuple[int, bool]:
    """Over B = {i : q/n < i < q, p does not divide i}: the cardinality of
    B and whether n-1 divides floor(n*i/q) for every i in B.

    B is the primitive part of [lo, q) with lo = ceil(q/n), the first i with
    floor(n*i/q) > 0. On B, floor(n*i/q) lies in 1..n-1, and for n >= 3 the
    only value there that n-1 divides is n-1 itself, reached exactly from
    top = ceil(q(n-1)/n) on. So the divisibility holds iff no primitive i
    lies in [lo, top), and both answers are interval counts.
    """
    lo = -(-q // n)
    top = -(-q * (n - 1) // n)
    return _primitive_count(lo, q, p), _primitive_count(lo, top, p) == 0
