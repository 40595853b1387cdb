"""Kernels for the obstruction scans over q = p**r with gcd(n, q) = 1.

Both work over primitive residues (those not divisible by p), and both
are closed forms. The multiplier scan's two stabilizers follow from
whether q < n alone; `multiplier_scan` carries the proof. The feasibility
counts are interval counts. There is one implementation, in pure Python;
`BACKEND` names it for benchmark reports.
"""
from __future__ import annotations

from .arith import primitive_count

BACKEND = "pure-python"


def multiplier_scan(n: int, q: int, p: int) -> tuple[list[int], list[int]]:
    """Multipliers m (1 < m < q, p does not divide m) preserving multiplicity data.

    Returns (function_ms, zero_set_ms), both ascending:
    function_ms  -- m with f(i) == f(i*m % q) for every primitive i in
                    1..q-1, where f(i) = floor(n*i/q) (invariance of the
                    multiplicity function itself);
    zero_set_ms  -- m mapping the primitive zero set Z = {i : n*i < q}
                    into itself (the weaker, zero-set-level invariance).

    The first is always empty, and the second holds every such m when
    q < n and none when q > n (q != n, as gcd(n, q) = 1 and n >= 3):

    * Function, q < n: f(i+1) >= f(i) + floor(n/q) > f(i), so f is strictly
      increasing on 1..q-1, and f(m) = f(1) forces m = 1.
    * Function, q > n: an m fixing f fixes its zero set, so this set lies
      in the zero-set one, which is empty (next case).
    * Zero set, q < n: Z is empty, so every m fixes it.
    * Zero set, q > n: 1 is in Z, so m is, and 2 <= m < q/n. Any primitive
      i in [q/(n*m), q/max(n, m)) is in Z with i*m < q, so its image
      i*m % q = i*m has n*i*m >= q and leaves Z. A half-open interval
      longer than 2 holds two consecutive integers, one of them primitive,
      and this one is longer than 2 when m > n (its length is at least
      (2/3)(q/m), and q/m > n >= 3) or when q > 4n (at least q/(2n)).
      What is left is n < q < 4n (q = 4n would put n | q), so m < 4:
      m = 2 (p odd) sends 2 to 4, and m = 3 (p != 3) sends 2 to 6 for
      odd p and 3 to 9 for p = 2. Each start is in Z and each image is
      below q, as q > m*n >= 3m, and each image times n is at least q,
      as q < 4n. So no m fixes Z.
    """
    return [], [m for m in range(2, q) if m % p] if q < n else []


def feasibility_counts(n: int, q: int, p: int) -> tuple[int, bool]:
    """Over B = {i : q/n < i < q, p does not divide i}: the cardinality of
    B and whether n-1 divides floor(n*i/q) for every i in B.

    B is the primitive part of [lo, q) with lo = ceil(q/n), the first i with
    floor(n*i/q) > 0. On B, floor(n*i/q) lies in 1..n-1, and for n >= 3 the
    only value there that n-1 divides is n-1 itself, reached exactly from
    top = ceil(q(n-1)/n) on. So the divisibility holds iff no primitive i
    lies in [lo, top), and both answers are interval counts.

    The divisibility holds only at (n, q) = (3, 4). Of two consecutive
    integers one is primitive, so [lo, top) may hold at most one integer.
    If q < n, then lo = 1 is primitive and top >= 2, as q(n-1) > n. If
    q > n, then top - lo > q(n-1)/n - (q/n + 1) = q(n-2)/n - 1, so
    q < 2n/(n-2): that leaves n = 3 and q in {4, 5}. [2, 4) fails at q = 5,
    and [2, 3) = {2} passes at q = 4 = 2^2. There #B = 1 = phi(4)/2, so
    (3, 4) is feasible, and it is the one pair whose top level gets the
    constant matrix factor in `decompose.predict_end_algebra`.
    """
    lo = -(-q // n)
    top = -(-q * (n - 1) // n)
    return primitive_count(lo, q, p), primitive_count(lo, top, p) == 0
