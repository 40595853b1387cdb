"""Multiplier and feasibility scans, plus the closed-form multiplier scan
and feasibility counts against the loops they replace."""
import itertools
import json
import math

import pytest
from fractions import Fraction
from hypothesis import given, strategies as st

from seljac import cli, kernels
from seljac.arith import prime_power
from seljac.decompose import predict_end_algebra
from seljac.lattice import coprime_pairs
from seljac.obstruction import (
    FeasibilityReport,
    InvariantMultiplierReport,
    feasibility_sweep,
    invariant_automorphisms,
    multiplier_sweep,
    square_case_feasible,
)

VALID_PAIRS = [
    (n, q)
    for n in range(3, 13)
    for q in range(2, 65)
    if prime_power(q) is not None and math.gcd(n, q) == 1
]


def test_no_function_level_multipliers_in_small_range():
    for n, q in VALID_PAIRS:
        assert invariant_automorphisms(n, q).invariant_ms == ()


def test_zero_set_only_multipliers_fixture():
    # n = 4, q = 3: the zero set {i >= 1 : 3 > 4 i} is empty, so every
    # candidate preserves it vacuously, while the full multiplicity
    # function rules all of them out
    rep = invariant_automorphisms(4, 3)
    assert rep.invariant_ms == ()
    assert rep.zero_set_ms == (2,)
    assert rep.divergence == (2,)
    rep = invariant_automorphisms(8, 7)
    assert rep.zero_set_ms == (2, 3, 4, 5, 6)


def test_no_divergence_when_zero_set_nonempty():
    rep = invariant_automorphisms(3, 7)
    assert rep.zero_set_ms == ()
    rep = invariant_automorphisms(3, 4)
    assert rep.zero_set_ms == ()


@given(st.sampled_from(VALID_PAIRS))
def test_divergence_happens_exactly_for_empty_zero_set(pair):
    # the zero set {i >= 1 : n*i < q} is empty iff q < n (q = 2 has no
    # candidate multipliers at all); divergent multipliers appear exactly
    # then, and are then all primitive residues 1 < m < q
    n, q = pair
    rep = invariant_automorphisms(n, q)
    assert rep.invariant_ms == ()
    expected = tuple(m for m in range(2, q) if m % rep.p != 0) if q < n else ()
    assert rep.zero_set_ms == expected
    assert rep.divergence == rep.zero_set_ms


def test_multiplier_sweep_order_and_json():
    reps = list(multiplier_sweep([3, 4], 5))
    keys = [(r.n, r.q) for r in reps]
    assert keys == [(3, 2), (3, 4), (3, 5), (4, 3), (4, 5)]
    assert reps[1]._asdict() == {
        "n": 3,
        "q": 4,
        "p": 2,
        "r": 2,
        "invariant_ms": (),
        "zero_set_ms": (),
    }


def test_multiplier_sweep_reads_degrees_lazily():
    # a range of 10^10 degrees must not be materialized before the first report
    reps = list(itertools.islice(multiplier_sweep(range(3, 10**10 + 1), 8), 3))
    assert [(r.n, r.q) for r in reps] == [(3, 2), (3, 4), (3, 5)]


def test_report_validation():
    with pytest.raises(AssertionError):
        InvariantMultiplierReport(3, 4, 2, 2, invariant_ms=(3,), zero_set_ms=())
    # 2*2 = 4 != 1 mod 5, so {2} alone is not power-closed
    with pytest.raises(AssertionError):
        InvariantMultiplierReport(3, 5, 5, 1, invariant_ms=(2,), zero_set_ms=(2,))


def test_divergence_drops_function_level_multipliers():
    # {4} is power-closed mod 5 (4*4 = 1), so this report is consistent
    rep = InvariantMultiplierReport(3, 5, 5, 1, invariant_ms=(4,), zero_set_ms=(2, 3, 4))
    assert rep.divergence == (2, 3)


@pytest.mark.parametrize("n, q", [(3, 2**16), (4, 3**10), (5, 2**20), (3, 1048573)])
def test_large_prime_powers_have_no_multipliers(n, q):
    # far beyond what a scan over every residue can reach in a test
    rep = invariant_automorphisms(n, q)
    assert (rep.invariant_ms, rep.zero_set_ms) == ((), ())


def test_feasibility_fixtures():
    rep = square_case_feasible(3, 4)
    assert (rep.b_count, rep.dim_w, rep.divisibility_ok, rep.feasible) == (
        1,
        Fraction(1),
        True,
        True,
    )
    assert square_case_feasible(3, 8).b_count == 3
    assert square_case_feasible(5, 4).b_count == 2
    assert square_case_feasible(3, 2).dim_w == Fraction(1, 2)
    assert not square_case_feasible(3, 2).feasible


def test_feasibility_json():
    # a report prints through the CLI's encoder as its _asdict() fields, the
    # Fraction as text
    js = json.loads(cli._dump(square_case_feasible(3, 4)._asdict()))
    assert js == {
        "n": 3,
        "q": 4,
        "p": 2,
        "r": 2,
        "b_count": 1,
        "dim_w": "1",
        "divisibility_ok": True,
        "feasible": True,
    }
    assert json.loads(cli._dump(square_case_feasible(3, 2)._asdict()))["dim_w"] == "1/2"


def test_feasibility_sweep_singles_out_3_4():
    feasible = [(r.n, r.q) for r in feasibility_sweep(12, 128) if r.feasible]
    assert feasible == [(3, 4)]


def test_feasible_pairs_are_the_constant_matrix_top_levels():
    # over criterion 4's grid, the square-case screen and the algebra table
    # single out the same pair: the n = 3 pairs whose top level, of
    # modulus q, is the matrix factor Mat_2(Q(zeta_4))
    feasible = {(r.n, r.q) for r in feasibility_sweep(50, 1024) if r.feasible}
    matrix_top = set()
    for pair in coprime_pairs([3], 1024):
        desc = predict_end_algebra(pair, "S3")
        top = dict(zip((lv.modulus for lv in desc.levels), desc.factors))[pair.q]
        if top.kind == "matrix":
            matrix_top.add((pair.n, pair.q))
    assert feasible == matrix_top == {(3, 4)}


def test_sweep_skips_shared_prime():
    assert all(q % 2 == 1 for _, q in ((r.n, r.q) for r in multiplier_sweep([4], 20)))


def _feasibility_counts_loop(n, q, p):
    """Oracle: scan every primitive i in 1..q-1 directly."""
    b_count = 0
    divisible = True
    for i in range(1, q):
        if i % p == 0:
            continue
        mult = (n * i) // q
        if mult > 0:
            b_count += 1
            if mult % (n - 1) != 0:
                divisible = False
    return b_count, divisible


def test_feasibility_counts_match_loop():
    # n <= 30 and q <= 512 contains every pair in VALID_PAIRS
    for n, q, p, _ in coprime_pairs(range(3, 31), 512):
        assert kernels.feasibility_counts(n, q, p) == _feasibility_counts_loop(n, q, p), (n, q)


def _multiplier_scan_loop(n, q, p):
    """Oracle: test every candidate m against every primitive i."""
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


def test_multiplier_scan_matches_loop():
    # n <= 40 and q <= 512 contains every pair in VALID_PAIRS
    for n, q, p, _ in coprime_pairs(range(3, 41), 512):
        assert kernels.multiplier_scan(n, q, p) == _multiplier_scan_loop(n, q, p), (n, q)


def test_multiplier_scan_matches_loop_where_its_proof_turns():
    # n < q < 4n is the last case of the zero-set proof, where m is 2 or 3
    # and the witness is fixed by hand; the q < n branch is also checked at
    # a degree far beyond the range above
    for n in range(3, 101):
        for _, q, p, _ in coprime_pairs((n,), 4 * n):
            if q > n:
                assert kernels.multiplier_scan(n, q, p) == _multiplier_scan_loop(n, q, p), (n, q)
    n = 10**9 + 1
    for _, q, p, _ in coprime_pairs((n,), 64):
        assert kernels.multiplier_scan(n, q, p) == _multiplier_scan_loop(n, q, p), (n, q)
