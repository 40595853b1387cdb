"""Kernels for the obstruction scans over q = p**r with gcd(n, q) = 1.

Both work over primitive residues (those not divisible by p). The
multiplier scan finds a stabilizer subgroup of (Z/q)^* from its Sylow
parts with O(log q) exact membership tests, instead of testing every
residue. It finds the zero-set stabilizer H0 first, and the function
stabilizer H_f only when H0 is nontrivial: H_f lies in H0, and H0 is
trivial at nearly every pair, so most pairs take one search, not two. The
feasibility counts are closed-form interval counts. There is one
implementation, in pure Python; `BACKEND` names it for benchmark reports.

The unit-group data of an odd prime p (its least primitive root and the
primes dividing p - 1) depends on p alone, so `_unit_group` computes it
once per prime and process, however many degrees n a scan visits at the
same q. A CLI scan reaches only the primes up to its --q-max, so the memo
holds at most pi(cli.SCAN_Q_MAX) = 664,579 entries, one small tuple each.
"""
from __future__ import annotations

import functools
from typing import Callable, Sequence

from .arith import least_prime_factor, primitive_count

BACKEND = "pure-python"


def multiplier_scan(n: int, q: int, p: int) -> tuple[list[int], list[int]]:
    """Multipliers m (1 < m < q, p does not divide m) preserving multiplicity data.

    Returns (function_ms, zero_set_ms), both ascending:
    function_ms  -- m with floor(n*i/q) == floor(n*((i*m) % q)/q) for every
                    primitive i in 1..q-1 (invariance of the multiplicity
                    function itself);
    zero_set_ms  -- m mapping the primitive zero set {i : n*i < q} into
                    itself (the weaker, zero-set-level invariance).

    Each set plus 1 is a subgroup of (Z/q)^*: the first is the stabilizer of
    the function under i -> i*m, the second the setwise stabilizer of the
    finite zero set (m permutes the primitive residues, so "into" is
    "onto"). `_stabilizer` pins a subgroup down from O(log q) membership
    tests; every test is the full check over all primitive i, so each
    candidate m is still decided exactly. An m fixing the function fixes
    its zero set, so the first subgroup lies in the second: the zero-set
    one is found first, and when it is trivial so is the function one,
    with no test of its own. When q < n the zero set is empty and its
    stabilizer is the whole group, so the function one is searched too.
    """

    def fixes_function(m: int) -> bool:
        for i in range(1, q):
            if i % p and (n * i) // q != (n * (i * m % q)) // q:
                return False
        return True

    zero_end = (q - 1) // n + 1  # the zero set is the primitive part of [1, zero_end)

    def fixes_zero_set(m: int) -> bool:
        for i in range(1, zero_end):
            if i % p and n * (i * m % q) >= q:
                return False
        return True

    zero_ms = _stabilizer(q, p, fixes_zero_set)
    return (_stabilizer(q, p, fixes_function) if zero_ms else []), zero_ms


def _stabilizer(q: int, p: int, member: Callable[[int], bool]) -> list[int]:
    """sorted(H - {1}) for the subgroup H of (Z/q)^*, q = p**r, whose
    elements other than 1 are the m with member(m).

    H is the product of its Sylow parts. For odd p, (Z/q)^* is cyclic and
    each part is the intersection of H with a cyclic l-group. For p = 2 and q >= 4,
    (Z/q)^* = <-1> x <5>: H meets <5> in <5^(2^a)>, and H leaves <5> iff it
    holds -1 or, when a >= 1, -5^(2^(a-1)), because the square of any
    -5^j in H lies in <5^(2^a)> (at most one of the two can hold).
    """
    if q == 2:
        return []
    if p == 2:
        order = q // 4  # order of 5, which is 1 mod 4
        h, size = _cyclic_part(5, order, (2,), q, member)
        elems = _powers(h, q)
        candidates = [q - 1]
        if size < order:
            candidates.append(q - pow(5, order // size // 2, q))
        coset = next((c for c in candidates if member(c)), None)
        if coset is not None:
            elems += [coset * x % q for x in elems]
    else:
        phi = q - q // p
        g, primes = _unit_group(p)
        if q > p:
            if pow(g, p - 1, p * p) == 1:
                g += p  # g + p generates (Z/p^r)^* for every r
            primes += (p,)  # p exceeds every prime dividing p - 1
        elems = _powers(_cyclic_part(g, phi, primes, q, member)[0], q)
    return sorted(elems)[1:]


def _cyclic_part(
    g: int, order: int, primes: Sequence[int], q: int, member: Callable[[int], bool]
) -> tuple[int, int]:
    """(generator, size) of the intersection of H with <g>, where g has the
    given order mod q and primes are the primes dividing it.

    Its l-part is <g^(order/l^k)> for the largest k with
    g^(order/l^k) in H, and membership at k implies it at every smaller k,
    so the scan up k stops at the first failure.
    """
    size = 1
    for l in primes:
        d = l
        while order % d == 0 and member(pow(g, order // d, q)):
            d *= l
        size *= d // l
    return pow(g, order // size, q), size


def _powers(h: int, q: int) -> list[int]:
    """1, h, h^2, ... mod q up to the order of h, for 0 < h < q."""
    out = [1]
    x = h
    while x != 1:
        out.append(x)
        x = x * h % q
    return out


def _prime_factors(m: int) -> list[int]:
    """Distinct primes dividing m >= 1, ascending, by trial division."""
    out = []
    while m > 1:
        d = least_prime_factor(m)
        out.append(d)
        while m % d == 0:
            m //= d
    return out


@functools.cache
def _unit_group(p: int) -> tuple[int, tuple[int, ...]]:
    """(g, primes) for the odd prime p: the least primitive root g mod p and
    the primes dividing p - 1, ascending. Memoized per p; a tuple, so no
    caller can change a cached value."""
    primes = tuple(_prime_factors(p - 1))
    return _primitive_root(p, primes), primes


def _primitive_root(p: int, primes: Sequence[int]) -> int:
    """Least primitive root mod the odd prime p; primes are those dividing p-1."""
    g = 2
    while any(pow(g, (p - 1) // l, p) == 1 for l in primes):
        g += 1
    return g


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
    return primitive_count(lo, q, p), primitive_count(lo, top, p) == 0
