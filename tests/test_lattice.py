"""Interior point bookkeeping on the (n, q) triangle."""
import math
import sys
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from seljac import lattice
from seljac.lattice import (
    Pair,
    coprime_pairs,
    full_spectrum,
    genus_formula,
    genus_lattice,
    interior_points,
    prime_pair,
    validate_pair,
)
from seljac.arith import euler_phi_prime_power, prime_power


VALID_PAIRS = [
    (n, q)
    for n in range(3, 14)
    for q in range(2, 50)
    if prime_power(q) is not None and math.gcd(n, q) == 1
]

pair_st = st.sampled_from(VALID_PAIRS)


def test_interior_points_3_4():
    assert list(interior_points(validate_pair(3, 4))) == [(1, 1), (1, 2), (2, 1)]


def test_interior_points_are_interior():
    for j, i in interior_points(validate_pair(5, 8)):
        assert j >= 1 and i >= 1
        assert 8 * j + 5 * i < 40


@pytest.mark.parametrize(
    "n,q,g",
    [(3, 2, 1), (3, 4, 3), (4, 3, 3), (5, 2, 2), (4, 9, 12), (3, 8, 7), (7, 5, 12)],
)
def test_genus_fixtures(n, q, g):
    assert genus_formula(validate_pair(n, q)) == g
    assert genus_lattice(validate_pair(n, q)) == g


@given(pair_st)
def test_genus_lattice_matches_formula(pair):
    pair = validate_pair(*pair)
    assert genus_lattice(pair) == genus_formula(pair)


@pytest.mark.parametrize("n,q", [(3, 2**64), (4, 3**41)])
def test_genus_lattice_past_maxsize(n, q):
    # the count exceeds sys.maxsize, which len() cannot return
    pair = validate_pair(n, q)
    assert genus_formula(pair) > sys.maxsize
    assert genus_lattice(pair) == genus_formula(pair)


def test_spectrum_3_4():
    spec = full_spectrum(validate_pair(3, 4))
    assert spec.multiplicities == {1: 0, 2: 1, 3: 2}
    assert spec.total() == 3
    assert spec.primitive_total() == 2


@given(pair_st)
def test_multiplicity_counts_row(pair):
    # mult of exponent i equals the number of interior points at height q - i
    n, q = pair
    pts = set(interior_points(validate_pair(n, q)))
    mult = full_spectrum(validate_pair(n, q)).multiplicities
    for i in range(1, q):
        row = sum(1 for (j, h) in pts if h == q - i)
        assert mult[i] == row


@given(pair_st)
def test_multiplicity_reflection(pair):
    n, q = pair
    mult = full_spectrum(validate_pair(n, q)).multiplicities
    for i in range(1, q):
        assert mult[i] + mult[q - i] == n - 1


@given(pair_st)
def test_complement_involution(pair):
    # (j, i) <-> (n - j, q - i) swaps interior and non-interior points of
    # the open box; nothing lands on the diagonal because gcd(n, q) = 1
    n, q = pair
    pts = set(interior_points(validate_pair(n, q)))
    for j in range(1, n):
        for i in range(1, q):
            assert q * j + n * i != n * q
            assert ((j, i) in pts) != ((n - j, q - i) in pts)
    assert 2 * len(pts) == (n - 1) * (q - 1)


@given(pair_st)
def test_spectrum_totals(pair):
    n, q, p, r = pair = validate_pair(*pair)
    spec = full_spectrum(pair)
    assert spec.total() == genus_formula(pair)
    assert spec.primitive_total() == (n - 1) * euler_phi_prime_power(p, r) // 2


def _interior_points_oracle(n, q):
    # the per-point scan that interior_points replaced
    out = []
    for j in range(1, n):
        for i in range(1, q):
            if q * j + n * i < n * q:
                out.append((j, i))
            else:
                break
    return out


def _primitive_total_oracle(spec):
    # the per-entry filter that primitive_total replaced
    p, _ = prime_power(spec.q)
    return sum(m for i, m in zip(spec.multiplicities, spec.multiplicities.values()) if i % p)


ORACLE_PAIRS = [
    (n, q)
    for n in range(3, 13)
    for q in range(2, 513)
    if prime_power(q) is not None and math.gcd(n, q) == 1
]


@given(st.sampled_from(ORACLE_PAIRS))
def test_interior_points_match_oracle(pair):
    # the view's length sums the column heights, some 0 when n > q, and its
    # iteration makes the points; both must agree with the per-point scan,
    # on every pass
    points = interior_points(validate_pair(*pair))
    expected = _interior_points_oracle(*pair)
    assert len(points) == len(expected)
    assert list(points) == expected
    assert list(points) == expected


@pytest.mark.parametrize("n,q", [(3, 2**22), (8388609, 2)])
def test_genus_lattice_builds_nothing_of_size_q_or_n(n, q):
    # both lattices hold 2^22 points or one fewer, and the floor sum counts
    # them in O(log q) steps without making one
    pair = validate_pair(n, q)
    tracemalloc.start()
    try:
        genus = genus_lattice(pair)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert genus == genus_formula(pair)
    assert peak < 64 * 1024


@given(st.sampled_from(ORACLE_PAIRS))
def test_primitive_total_matches_oracle(pair):
    spec = full_spectrum(validate_pair(*pair))
    assert spec.primitive_total() == _primitive_total_oracle(spec)


def test_primitive_total_matches_oracle_exhaustively():
    # every pair with n in 3..20 and q <= 2048, so n > q and r >= 2 both occur
    pairs = list(coprime_pairs(range(3, 21), 2048))
    assert any(n > q for n, q, _, _ in pairs) and any(r >= 2 for *_, r in pairs)
    for pair in pairs:
        spec = full_spectrum(pair)
        assert spec.primitive_total() == _primitive_total_oracle(spec), pair


def test_primitive_mass_fixtures():
    assert full_spectrum(validate_pair(4, 9)).primitive_total() == 9
    assert full_spectrum(validate_pair(3, 5)).primitive_total() == 4
    assert full_spectrum(validate_pair(3, 2)).primitive_total() == 1


# n up to 60 against q down to 2, so many pairs have n > q and empty runs.
RUN_PAIRS = [
    (n, q)
    for n in range(3, 61)
    for q in range(2, 4097)
    if prime_power(q) is not None and math.gcd(n, q) == 1
]


@given(st.integers(1, 3000), st.integers(1, 20000))
def test_count_below_matches_direct_sum(q, n):
    # the per-term sum that the floor sum stands for
    assert lattice._count_below(n, q) == sum(n * i // q for i in range(1, q))


@given(st.integers(2, 3000).flatmap(lambda q: st.tuples(st.just(q), st.integers(1, q - 1))))
def test_count_below_matches_telescoped_runs(qn):
    # for n < q the sum telescopes over the runs to (n-1)*q minus the
    # n - 1 inner run bounds: a second count, independent of Euclid's
    q, n = qn
    telescoped = (n - 1) * q - sum(lattice._run_bounds(n, q, range(1, n)))
    assert lattice._count_below(n, q) == telescoped


@given(st.integers(0, 300), st.integers(1, 300), st.integers(0, 10**6), st.integers(0, 10**6))
def test_floor_sum_matches_direct_sum(count, m, a, b):
    assert lattice._floor_sum(count, m, a, b) == sum((a * i + b) // m for i in range(count))


def test_count_below_at_the_spectrum_ceiling():
    # n on both sides of q = 2^20 in O(log q) steps, as spectrum's total()
    # and primitive_total() take it, and a pair with n < q past it, as
    # genus takes it: (n-1)(q-1)/2 for coprime n and q
    pairs = [(n, 2**20) for n in (3, 2**20 - 1, 2**20 + 1, 3 * 2**20 + 1, 2**40 + 1)]
    for n, q in [*pairs, (10**12 + 1, 2**41)]:
        assert lattice._count_below(n, q) == (n - 1) * (q - 1) // 2


@given(st.sampled_from(RUN_PAIRS))
def test_run_bounds_split_the_exponents(pair):
    # 1, the n - 1 inner bounds and q split 1..q-1 into the n runs, where
    # floor(n*i/q) is k on run k; for n > q some runs are empty
    n, q = pair
    spec = full_spectrum(validate_pair(n, q))
    bounds = [1, *lattice._run_bounds(n, q, range(1, n)), q]
    assert len(bounds) == n + 1 and bounds == sorted(bounds)
    for k in range(n):
        assert all(n * i // q == k for i in range(bounds[k], bounds[k + 1]))
    assert spec.total() == sum(k * (bounds[k + 1] - bounds[k]) for k in range(n))


@given(st.sampled_from(RUN_PAIRS))
def test_spectrum_matches_per_entry_oracle(pair):
    # the per-entry dict that the runs replaced
    n, q = pair
    spec = full_spectrum(validate_pair(n, q))
    mult = {i: n * i // q for i in range(1, q)}
    assert spec.multiplicities == mult
    assert dict(spec.multiplicities) == mult and list(spec.multiplicities) == list(mult)
    assert list(spec.multiplicities.values()) == list(mult.values())
    assert len(spec.multiplicities) == q - 1
    assert spec.total() == sum(mult.values())
    assert spec.primitive_total() == sum(m for i, m in mult.items() if i % spec.p)


@given(st.sampled_from(RUN_PAIRS), st.data())
def test_runs_over_spell_out_each_multiplicity(pair, data):
    # each k repeated over its run's length, run after run, is the
    # per-entry multiplicity list of any subrange of 1..q-1
    n, q = pair
    start = data.draw(st.integers(1, q - 1))
    stop = data.draw(st.integers(start + 1, q))
    ks, lengths = full_spectrum(validate_pair(n, q)).runs_over(range(start, stop))
    lengths = list(lengths)
    assert len(lengths) == len(ks) and min(lengths) >= 0
    assert [k for k, length in zip(ks, lengths) for _ in range(length)] == [
        n * i // q for i in range(start, stop)
    ]


def test_multiplicities_view_rejects_other_keys():
    mult = full_spectrum(validate_pair(3, 8)).multiplicities
    for key in (0, 8, -1, "1"):
        assert key not in mult
        with pytest.raises(KeyError):
            mult[key]


def test_spectrum_builds_nothing_of_size_q():
    tracemalloc.start()
    try:
        spec = full_spectrum(validate_pair(7, 2**20))
        totals = spec.total(), spec.primitive_total(), len(spec.multiplicities)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert totals == (6 * (2**20 - 1) // 2, 6 * 2**19 // 2, 2**20 - 1)
    assert peak < 64 * 1024


# every invalid pair and its message; the last two have two faults each,
# since the prime power is checked first, then n, then the gcd
_REJECTED = {
    (3, 6): "q must be a prime power >= 2, got 6",
    (2, 5): "degree n must be >= 3, got 2",
    (4, 2): "n and q must be coprime, got gcd(4, 2) = 2",
    (3, 1): "q must be a prime power >= 2, got 1",
    (-1, 2): "degree n must be >= 3, got -1",
    (3, 12): "q must be a prime power >= 2, got 12",
    (2, 6): "q must be a prime power >= 2, got 6",
    (2, 4): "degree n must be >= 3, got 2",
}


@pytest.mark.parametrize("n,q", list(_REJECTED))
def test_validate_pair_rejects(n, q):
    with pytest.raises(ValueError) as info:
        validate_pair(n, q)
    assert str(info.value) == _REJECTED[n, q]
    # given p and r of a prime power q, prime_pair says the same
    if prime_power(q) is not None:
        with pytest.raises(ValueError) as info:
            prime_pair(n, *prime_power(q))
        assert str(info.value) == _REJECTED[n, q]


def test_validate_pair_returns_factorization():
    assert validate_pair(3, 8) == Pair(3, 8, 2, 3)
    assert validate_pair(4, 9) == Pair(4, 9, 3, 2)
    assert validate_pair(4, 9)._asdict() == {"n": 4, "q": 9, "p": 3, "r": 2}
    for n, q in VALID_PAIRS:
        assert prime_pair(n, *prime_power(q)) == validate_pair(n, q)
    assert prime_pair(3, 1000000007, 2) == Pair(3, 1000000007**2, 1000000007, 2)


def test_coprime_pairs_match_validate_pair():
    # the sieve's pairs against factoring each q again
    pairs = list(coprime_pairs(range(3, 31), 512))
    assert all(type(pair) is Pair for pair in pairs)
    assert pairs == [
        validate_pair(n, q)
        for n in range(3, 31)
        for q in range(2, 513)
        if prime_power(q) is not None and math.gcd(n, q) == 1
    ]


def test_coprime_pairs_reject_small_n():
    pairs = coprime_pairs([2, 3], 9)
    with pytest.raises(ValueError, match=r"^degree n must be >= 3, got 2$"):
        next(pairs)
