"""End-to-end exercises of the seljac command line."""
import argparse
import contextlib
import importlib
import io
import itertools
import json
import math
import os
import pkgutil
import re
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import seljac
from seljac import arith, cli, decompose, lattice, model
from seljac.acceptance import CriterionResult
from seljac.obstruction import feasibility_sweep, multiplier_sweep, square_case_feasible
from seljac.parse import MAX_EXPONENT
from seljac.poly import Poly


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_genus_text(capsys):
    code, out, _ = run(capsys, "genus", "--n", "3", "--q", "2")
    assert code == 0
    assert out == "1\n"


def test_genus_json(capsys):
    payload = run_json(capsys, "genus", "--n", "4", "--q", "9", "--format", "json")
    assert payload == {"n": 4, "q": 9, "p": 3, "r": 2, "genus": 12}


def test_genus_p_r_equivalent_to_q(capsys):
    a = run(capsys, "genus", "--n", "3", "--q", "8", "--format", "json")
    b = run(capsys, "genus", "--n", "3", "--p", "2", "--r", "3", "--format", "json")
    assert a == b


def test_output_is_deterministic(capsys):
    a = run(capsys, "spectrum", "--n", "5", "--q", "8", "--format", "json")
    b = run(capsys, "spectrum", "--n", "5", "--q", "8", "--format", "json")
    assert a == b


def test_spectrum_json(capsys):
    payload = run_json(capsys, "spectrum", "--n", "3", "--q", "4", "--format", "json")
    assert payload["multiplicities"] == {"1": 0, "2": 1, "3": 2}
    assert payload["total"] == 3
    assert payload["primitive_total"] == 2


def test_decompose_json(capsys):
    payload = run_json(capsys, "decompose", "--n", "3", "--q", "8", "--format", "json")
    assert payload["genus"] == 7
    assert payload["levels"] == [
        {"level": 1, "modulus": 2, "new_dim": 1},
        {"level": 2, "modulus": 4, "new_dim": 2},
        {"level": 3, "modulus": 8, "new_dim": 4},
    ]


def test_endo_json(capsys):
    payload = run_json(
        capsys, "endo", "--n", "3", "--q", "4", "--galois", "S3", "--format", "json"
    )
    assert payload["factors"] == [
        {"kind": "Q"},
        {"kind": "matrix", "size": 2, "modulus": 4},
    ]
    assert payload["p"] == 2 and payload["r"] == 2
    assert payload["asserted"] is True


def test_endo_text(capsys):
    code, out, _ = run(capsys, "endo", "--n", "3", "--q", "8", "--galois", "S3")
    assert code == 0
    assert "reduced_dim = 13" in out
    assert "Q x Mat_2(Q(zeta_4)) x Q(zeta_8)" in out


def test_nonisotrivial_json(capsys):
    payload = run_json(
        capsys,
        "nonisotrivial",
        "--n", "3", "--q", "8", "--galois", "S3", "--format", "json",
    )
    assert payload["fully_nonisotrivial"] is False
    assert payload["levels"]["2"] == "constant_cm"
    assert payload["levels"]["3"] == "completely_nonisotrivial"


def test_cm_scan_ndjson(capsys):
    code, out, _ = run(capsys, "cm-scan", "--n", "3", "--q-max", "16")
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert [rec["q"] for rec in records] == [2, 4, 5, 7, 8, 11, 13, 16]
    assert all(rec["n"] == 3 and rec["invariant_ms"] == [] for rec in records)
    assert records[1]["p"] == 2 and records[1]["r"] == 2


def test_cm_scan_needs_some_n(capsys):
    code, _, err = run(capsys, "cm-scan", "--q-max", "16")
    assert code == 2
    assert "error:" in err


def test_cm_scan_rejects_n_with_n_max(capsys):
    code, out, err = run(capsys, "cm-scan", "--n", "3", "--n-max", "5", "--q-max", "8")
    assert code == 2
    assert out == ""
    assert err == "error: give --n or --n-max, not both\n"


@pytest.mark.parametrize(
    "argv,message",
    [
        (("cm-scan", "--n-max", "2", "--q-max", "8"), "degree n must be >= 3, got 2"),
        (("cm-scan", "--n", "2", "--q-max", "2"), "degree n must be >= 3, got 2"),
        (("cm-scan", "--n", "3", "--q-max", "1"), "--q-max must be >= 2, got 1"),
        (("cm-scan", "--n-max", "4", "--q-max", "-5"), "--q-max must be >= 2, got -5"),
        (("feasible-scan", "--n-max", "2", "--q-max", "8"), "degree n must be >= 3, got 2"),
        (("feasible-scan", "--n-max", "4", "--q-max", "1"), "--q-max must be >= 2, got 1"),
    ],
)
def test_scan_without_any_pair_exits_2(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("scan", [("cm-scan", "--n", "3"), ("feasible-scan", "--n-max", "3")])
def test_scan_q_max_cap(capsys, monkeypatch, scan):
    sieved = []
    monkeypatch.setattr("seljac.lattice.prime_powers_upto", lambda limit: sieved.append(limit) or [])
    for q_max in (cli.SCAN_Q_MAX + 1, 10**10):
        code, out, err = run(capsys, *scan, "--q-max", str(q_max))
        assert (code, out) == (2, "")
        assert err == f"error: --q-max must be at most {cli.SCAN_Q_MAX}, got {q_max}\n"
    assert sieved == []
    assert run(capsys, *scan, "--q-max", str(cli.SCAN_Q_MAX)) == (0, "", "")
    assert sieved == [cli.SCAN_Q_MAX]


def test_spectrum_q_ceiling(capsys, monkeypatch):
    # a q above the ceiling is rejected before the spectrum is built
    built = []
    monkeypatch.setattr(cli, "full_spectrum", lambda pair: built.append(pair))
    for argv in (("--q", str(2 * cli.SPECTRUM_Q_MAX)), ("--q", str(3**13)),
                 ("--p", "2", "--r", str(MAX_EXPONENT))):
        code, out, err = run(capsys, "spectrum", "--n", "3", *argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: spectrum needs q at most {cli.SPECTRUM_Q_MAX}, got ")
    assert built == []


def test_spectrum_q_ceiling_is_inclusive(capsys, monkeypatch):
    monkeypatch.setattr(cli, "SPECTRUM_Q_MAX", 8)
    code, out, _ = run(capsys, "spectrum", "--n", "3", "--q", "8")
    assert code == 0 and out.splitlines()[-1] == "total = 7  primitive = 4"
    assert run(capsys, "spectrum", "--n", "3", "--q", "9") == (
        2, "", "error: spectrum needs q at most 8, got 9\n"
    )


def _spectrum_oracle(n, q, fmt):
    # the per-entry output that spectrum wrote before it wrote from the
    # runs: a str-keyed dict through the shared encoder, or one f-string
    # per exponent
    p, r = arith.prime_power(q)
    mult = {i: n * i // q for i in range(1, q)}
    total = sum(mult.values())
    primitive = sum(m for i, m in mult.items() if i % p)
    if fmt == "json":
        payload = {"n": n, "q": q, "p": p, "r": r, "total": total,
                   "primitive_total": primitive,
                   "multiplicities": {str(i): m for i, m in mult.items()}}
        return cli._dump(payload) + "\n"
    return "\n".join([
        cli._header({"n": n, "q": q, "p": p, "r": r}),
        *(f"i={i}  mult={m}" for i, m in mult.items()),
        f"total = {total}  primitive = {primitive}",
    ]) + "\n"


def _spectrum_out(n, q, fmt):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["spectrum", "--n", str(n), "--q", str(q), "--format", fmt]) == 0
    return out.getvalue()


# n up to max(40, 3q), so that both q > 2n (runs of two or more exponents)
# and q < 2n (runs of mostly one) are drawn at every q.
_SPECTRUM_PAIRS = st.sampled_from([q for q in range(2, 4097) if arith.prime_power(q)]).flatmap(
    lambda q: st.tuples(st.integers(3, max(40, 3 * q)), st.just(q))
).filter(lambda nq: math.gcd(*nq) == 1)


# q >= 10n, where every run holds ten exponents or more: most decades of
# keys lie inside one run and go out a stretch at a time, and the rest
# have their ten multiplicities filled into one fixed template.
_DECADE_PAIRS = st.sampled_from(
    [q for q in range(30, 2**17 + 1) if arith.prime_power(q)]
).flatmap(lambda q: st.tuples(st.integers(3, q // 10), st.just(q))).filter(
    lambda nq: math.gcd(*nq) == 1
)


def _assert_same_text(out, expected):
    # the length and the first differing offset first: on a mismatch they
    # report at once, where pytest's diff of two long strings takes minutes
    assert (len(out), _common_prefix(out, expected)) == (len(expected), len(expected))
    assert out == expected


def _common_prefix(a, b):
    """The length of the longest common prefix of a and b, by bisection
    over prefix comparisons."""
    lo, hi = 0, min(len(a), len(b))
    while lo < hi:
        mid = (lo + hi + 1) // 2
        lo, hi = (mid, hi) if a[:mid] == b[:mid] else (lo, mid - 1)
    return lo


# Pinned: q = 2, keys that cross digit lengths (1009, 1024), n > q (n = 11
# at q = 2, 7, 9, 16 and n = 4, 13 at q = 3, 8, below ten), and n close to
# q (40 at 81, 317, 343). Past q = 10^4 the JSON walks keys of five digits
# (10007, 59049, 65536, 100003) and six (131072, 131071), with n > q at
# 65536, as n = q + 1. Then pairs on both sides of q = 2n: 41 against
# 2*20 and 2*21, 1024 against 2*511 and 2*513, and n = q - 1 at 131072.
# Then n on both sides of q/10 at 1009, 10007 and 131072 (and n = 3 at
# q = 31), where runs reach ten exponents, so that decades of keys start
# to lie inside one run, and of q/100 at the same q, where every run spans
# ten decades or more. At (7, 10007) the runs end mid-decade (at 4288) and
# on a 9 (at 1429); at (3, 100003) and (3, 131071) a run of more than
# 30,000 keys ends mid-decade (before 33335 and 43691), and at 131071
# every run crosses the edges of the writer's chunks. The second walk, of the
# shorter keys, starts mid-decade at (3, 1109), (3, 1117), (3, 10007) and
# (7, 1024): at 111, 112, 1001 and 103.
@pytest.mark.parametrize("n,q", [(3, 2), (11, 2), (3, 1024), (7, 1024), (10, 1009),
                                 (11, 7), (11, 9), (11, 16), (4, 3), (13, 8), (40, 81),
                                 (40, 317), (40, 343),
                                 (10, 10007), (7, 59049), (65537, 65536), (3, 100003),
                                 (7, 131072), (20, 41), (21, 41), (511, 1024), (513, 1024),
                                 (131071, 131072), (3, 1109), (3, 1117), (1000, 10007),
                                 (1001, 10007), (7, 10007), (13107, 131072), (13109, 131072),
                                 (100, 1009), (101, 1009), (3, 31), (3, 131071), (3, 10007),
                                 (11, 1009), (100, 10007), (101, 10007), (1309, 131072),
                                 (1311, 131072)])
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_spectrum_bytes_match_per_entry_output(n, q, fmt):
    _assert_same_text(_spectrum_out(n, q, fmt), _spectrum_oracle(n, q, fmt))


@given(_SPECTRUM_PAIRS, st.sampled_from(["json", "text"]))
def test_spectrum_bytes_match_per_entry_output_sampled(pair, fmt):
    _assert_same_text(_spectrum_out(*pair, fmt), _spectrum_oracle(*pair, fmt))


@settings(max_examples=30, deadline=None)
@given(_DECADE_PAIRS)
def test_spectrum_json_in_ten_entry_lines_matches_per_entry_output(pair):
    _assert_same_text(_spectrum_out(*pair, "json"), _spectrum_oracle(*pair, "json"))


def _decimal_key_order(qs):
    """For each q in qs, the exponents 1..q-1 in the order sort_keys gives
    their keys: one sort of the largest q, filtered for the others."""
    order = sorted(range(1, max(qs)), key='"{}"'.format)
    return {q: [i for i in order if i < q] for q in qs}


def _walk_order(n, q):
    """The keys in the order that the JSON writer walks them. It reads n,
    q and the runs, never p, so q need not be a prime power here."""
    chunks = "".join(cli._spectrum_chunks(lattice.EigenSpectrum(n, q, q), True))
    return list(map(int, re.findall(r'"(\d+)"', chunks)))


@pytest.mark.parametrize("qs", [
    range(2, 3001),
    [q for k in range(1, 7) for q in (10**k - 1, 10**k, 10**k + 1)],
    [2**k for k in range(1, 21)],
])
def test_spectrum_walk_follows_sorted_key_order(qs):
    # at n = 3 the decades of keys lie inside one run from q = 30 and go
    # out a stretch at a time; at n = q + 1 and at n = q // 7 + 1 (runs of
    # about seven exponents) a run ends in every decade; at n = q // 15 + 1
    # a walk mixes stretches with decades where a run ends. Every walk that
    # ends mid-decade ends in keys written one at a time.
    for q, order in _decimal_key_order(qs).items():
        for n in (3, q + 1, q // 7 + 1, q // 15 + 1):
            assert _walk_order(n, q) == order, (n, q)


class _Discard:
    def write(self, text):
        return len(text)

    def flush(self):
        pass


def _spectrum_peak(n, q, fmt) -> int:
    """The most memory that spectrum holds at once beyond what it started
    with, its output discarded as it is written."""
    tracemalloc.reset_peak()
    before, _ = tracemalloc.get_traced_memory()
    with contextlib.redirect_stdout(_Discard()):
        assert cli.main(["spectrum", "--n", str(n), "--q", str(q), "--format", fmt]) == 0
    return tracemalloc.get_traced_memory()[1] - before


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_spectrum_memory_is_flat_in_q(fmt):
    # the output is written a chunk at a time, so 32 times the
    # exponents (2.1 MB of text at 2^17) cost less than 1 MB more
    tracemalloc.start()
    try:
        _spectrum_peak(7, 2**12, fmt)  # the parser is built on the first call
        small = _spectrum_peak(7, 2**12, fmt)
        large = _spectrum_peak(7, 2**17, fmt)
    finally:
        tracemalloc.stop()
    assert large - small < 2**20, (small, large)


@pytest.mark.parametrize("n,q,fmt,ceiling", [
    (7, 2**17, "json", 256 * 1024), (7, 2**20, "json", 256 * 1024), (7, 2**17, "text", 512 * 1024),
])
def test_spectrum_memory_stays_under_its_ceiling(n, q, fmt, ceiling):
    # a chunk of about SPECTRUM_SLICE entries and its pieces at a time:
    # the benchmark's peak RSS, bounded to 2%, moves with this
    tracemalloc.start()
    try:
        _spectrum_peak(7, 2**12, fmt)  # the parser is built on the first call
        peak = _spectrum_peak(n, q, fmt)
    finally:
        tracemalloc.stop()
    assert peak < ceiling, peak


@pytest.mark.parametrize("r", [MAX_EXPONENT + 1, 10**15])
def test_exponent_ceiling_before_power(capsys, r):
    # 3**(10**15) would not fit in memory: the check runs before p**r
    code, out, err = run(capsys, "genus", "--n", "4", "--p", "3", "--r", str(r))
    assert (code, out, err) == (2, "", f"error: --r must be at most {MAX_EXPONENT}, got {r}\n")


def test_p_r_path_does_not_factor_q(capsys, monkeypatch):
    # --p/--r give q = p**r already: a q above the spectrum ceiling is
    # rejected before p is tested or q is factored. A bare --q is factored
    # once, by validate_pair.
    calls = []

    def counting(m, real=arith.prime_power):
        calls.append(m)
        return real(m)

    monkeypatch.setattr(arith, "prime_power", counting)
    monkeypatch.setattr(lattice, "prime_power", counting)
    code, out, err = run(capsys, "spectrum", "--n", "3", "--p", "1000003", "--r", "2")
    assert (code, out) == (2, "")
    assert err == f"error: spectrum needs q at most {cli.SPECTRUM_Q_MAX}, got {1000003**2}\n"
    assert calls == []
    calls.clear()
    assert run_json(capsys, "genus", "--n", "4", "--q", "9", "--format", "json")["p"] == 3
    assert calls == [9]


def _count_prime_power(monkeypatch) -> list[int]:
    """Route every module's binding of arith.prime_power through a counter,
    so calls made through lattice, decompose or poly are seen too."""
    calls, real = [], arith.prime_power

    def counting(m):
        calls.append(m)
        return real(m)

    for info in pkgutil.iter_modules(seljac.__path__):
        module = importlib.import_module(f"seljac.{info.name}")
        if getattr(module, "prime_power", None) is real:
            monkeypatch.setattr(module, "prime_power", counting)
    return calls


@pytest.mark.parametrize(
    "argv,count",
    [
        (("decompose", "--n", "4", "--q", "81"), 1),
        (("endo", "--n", "4", "--q", "81", "--galois", "S4"), 1),
        (("spectrum", "--n", "4", "--q", "81"), 1),
        (("spectrum", "--n", "3", "--q", "1000000000000037"), 0),
        (("spectrum", "--n", "3", "--p", "1000000000000037", "--r", "1"), 0),
        (("model-check", "--poly", "x^3 + x + 1", "--q", "125"), 1),
        (("genus", "--n", "4", "--q", "81"), 1),
        (("nonisotrivial", "--n", "4", "--q", "81", "--galois", "S4"), 1),
        (("decompose", "--n", "4", "--p", "3", "--r", "4"), 1),
        (("endo", "--n", "4", "--p", "3", "--r", "4", "--galois", "S4"), 1),
        (("spectrum", "--n", "4", "--p", "3", "--r", "4"), 1),
        (("model-check", "--poly", "x^3 + x + 1", "--p", "5", "--r", "3"), 1),
        (("genus", "--n", "4", "--p", "3", "--r", "4"), 1),
        (("nonisotrivial", "--n", "4", "--p", "3", "--r", "4", "--galois", "S4"), 1),
        (("decompose", "--n", "3", "--p", "1000000007", "--r", "2"), 1),
    ],
)
def test_prime_power_calls(capsys, monkeypatch, argv, count):
    # an (n, q) subcommand given --q factors it once, in validate_pair;
    # given --p/--r it only tests p, through is_prime, and never factors q;
    # the layers below take the pair without factoring q again
    calls = _count_prime_power(monkeypatch)
    assert cli.main(list(argv)) == (0 if count else 2)
    capsys.readouterr()
    flag = "--q" if "--q" in argv else "--p"
    assert calls == [int(argv[argv.index(flag) + 1])] * count, calls


def test_pair_taking_functions_do_not_factor_q(monkeypatch):
    pairs = [lattice.validate_pair(n, q) for n, q in ((3, 8), (4, 81), (7, 2), (3, 4))]
    calls = _count_prime_power(monkeypatch)
    for pair in pairs:
        spec = lattice.full_spectrum(pair)
        label = {3: "S3", 4: "S4"}.get(pair.n, "C3")
        assert lattice.genus_lattice(pair) == lattice.genus_formula(pair) == spec.total()
        assert len(list(lattice.interior_points(pair))) == model.hurwitz_genus(pair)
        assert spec.primitive_total() <= sum(spec.multiplicities.values())
        assert model.delta_chart_order(pair) == pair.q and model.gluing_exponents(pair)
        assert model.chart_identity_check(Poly([1] * pair.n + [1]), pair)
        assert decompose.decomposition_ledger(pair)
        assert decompose.predict_nonisotrivial(pair, label)
        if pair.n in (3, 4):
            assert decompose.predict_end_algebra(pair, label)
    assert calls == []


@pytest.mark.parametrize(
    "argv",
    [
        ("--n", "3", "--p", "2", "--r", "1000"),
        ("--n", "100000001", "--q", "2"),
        ("--n", "3", "--q", "1000000000000037"),
        ("--n", "3", "--p", "1000000000000037", "--r", "1"),
    ],
)
def test_genus_answers_large_lattices(capsys, monkeypatch, argv):
    # a lattice of far more than 2^22 points, at a large q or a large n, is
    # counted by one floor sum: (n-1)(q-1)/2, with q factored or p tested
    # for primality at most once
    calls = _count_prime_power(monkeypatch)
    code, out, err = run(capsys, "genus", *argv)
    n = int(argv[1])
    q = int(argv[3]) if argv[2] == "--q" else int(argv[3]) ** int(argv[5])
    assert (code, out, err) == (0, f"{(n - 1) * (q - 1) // 2}\n", "")
    assert len(calls) <= 1, calls


@pytest.mark.parametrize(
    "argv",
    [
        ("decompose", "--n", "3"),
        ("model-check", "--poly", "x^3 + x + 1"),
        ("endo", "--n", "3", "--galois", "S3"),
        ("spectrum", "--n", "3"),
    ],
)
def test_q_digits_ceiling(capsys, monkeypatch, argv):
    # a q = p**r too long to print is rejected before any work on it
    calls = _count_prime_power(monkeypatch)
    code, out, err = run(capsys, *argv, "--p", "1000003", "--r", "1000")
    assert (code, out) == (2, "")
    assert err == f"error: q = 1000003^1000 has more than {cli.DIGITS_MAX} digits\n"
    assert calls == []


@pytest.mark.parametrize("q", [None, "8"])
def test_q_digits_ceiling_of_a_long_p(capsys, q):
    # a 4300-digit p to the 1000th power has 4.3 million digits: it is
    # refused, with the same messages in the same order, by its bit length
    # alone, in about the time of the 7-digit p above
    p = "1" * cli.DIGITS_MAX
    flags = ("--p", p, "--r", "1000") + (("--q", q) if q else ())
    started = time.perf_counter()
    code, out, err = run(capsys, "decompose", "--n", "3", *flags)
    assert time.perf_counter() - started < 1.0
    assert (code, out) == (2, "")
    if q:
        assert err == f"error: --q {q} contradicts --p {p} --r 1000\n"
    else:
        assert err == f"error: q = {p}^1000 has more than {cli.DIGITS_MAX} digits\n"


@pytest.mark.parametrize("flags,message", [
    (("--p", "8191", "--r", "3"), "q = 8191^3 has more than 3 digits"),
    (("--p", "-8191", "--r", "2"), "q = -8191^2 has more than 3 digits"),
    # p**r < 0 has no digits to count: p is refused as it was when p**r was built
    (("--p", "-8191", "--r", "3"), "--p must be prime, got -8191"),
    (("--q", "8", "--p", "8191", "--r", "3"), "--q 8 contradicts --p 8191 --r 3"),
    # a --q of more than 4 * DIGITS_MAX bits is compared with p**r itself
    (("--q", str(8191**3), "--p", "8191", "--r", "3"), "q = 8191^3 has more than 3 digits"),
    (("--q", str(8191**3 + 1), "--p", "8191", "--r", "3"),
     f"--q {8191**3 + 1} contradicts --p 8191 --r 3"),
])
def test_q_digits_ceiling_by_bit_length(capsys, monkeypatch, flags, message):
    # at DIGITS_MAX = 3, 8191 (13 bits) cubed is past 2^(4 * 3) by its bit
    # length alone; the messages are those of a p**r built and compared
    monkeypatch.setattr(cli, "DIGITS_MAX", 3)
    assert run(capsys, "genus", "--n", "3", *flags) == (2, "", f"error: {message}\n")


def test_q_digits_ceiling_is_inclusive(capsys, monkeypatch):
    # the largest accepted q still prints
    assert len(str(10**cli.DIGITS_MAX - 1)) == cli.DIGITS_MAX
    monkeypatch.setattr(cli, "DIGITS_MAX", 3)
    assert run(capsys, "genus", "--n", "3", "--p", "31", "--r", "2") == (0, "960\n", "")
    assert run(capsys, "genus", "--n", "3", "--p", "2", "--r", "10") == (
        2, "", "error: q = 2^10 has more than 3 digits\n"
    )


@pytest.mark.parametrize("command", ["genus", "decompose"])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_genus_digits_ceiling(capsys, monkeypatch, command, fmt):
    # a genus (n-1)(q-1)/2 too long to print is refused with seljac's own
    # message before q is factored; the largest printable genus still prints
    monkeypatch.setattr(cli, "DIGITS_MAX", 3)
    calls = _count_prime_power(monkeypatch)
    for argv in (("--n", "3", "--q", "1009"), ("--n", "251", "--p", "3", "--r", "2")):
        assert run(capsys, command, *argv, "--format", fmt) == (
            2, "", "error: the genus (n-1)(q-1)/2 has more than 3 digits\n"
        )
    assert calls == []
    code, out, err = run(capsys, command, "--n", "10", "--q", "223", "--format", fmt)
    assert (code, err) == (0, "")
    genus = json.loads(out)["genus"] if fmt == "json" else out.split()[-1]
    assert str(genus) == "999"


def test_output_digits_ceiling(capsys):
    # a 4300-digit constant is read, but j has a coefficient of about
    # 8600 digits: jinv exits 2 with its own message, in text and JSON,
    # while galois and model-check answer the same input
    poly = "x^3 - x + " + "1" * 4300
    for fmt in ("text", "json"):
        assert run(capsys, "jinv", "--poly", poly, "--format", fmt) == (
            2, "", "error: cannot print a coefficient of more than 4300 digits\n"
        )
    assert run_json(capsys, "galois", "--poly", poly, "--format", "json")["label"] == "S3"
    model = run_json(capsys, "model-check", "--poly", poly, "--q", "5", "--format", "json")
    assert model["identity"] is True


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**200), 2**200) | st.text(),
    lambda inner: st.lists(inner) | st.dictionaries(st.text(), inner),
    max_leaves=30,
)


@given(_JSON_VALUES)
def test_shared_encoder_matches_dumps(value):
    assert cli._dump(value) == json.dumps(value, sort_keys=True)


def test_shared_encoder_after_a_failed_call():
    with pytest.raises(TypeError):
        cli._dump({"value": object()})
    assert cli._dump({"\u00e9": [2**70, None], "a": True}) == (
        '{"a": true, "\\u00e9": [1180591620717411303424, null]}'
    )


def test_shared_encoder_writes_fractions_as_text():
    value = {"a": [Fraction(1, 2), {"b": (Fraction(-3), Fraction(4, 6))}], "c": Fraction(7, 1)}
    assert cli._dump(value) == '{"a": ["1/2", {"b": ["-3", "2/3"]}], "c": "7"}'


def test_shared_encoder_writes_a_report_as_its_fields(capsys):
    # A report is a named tuple, which the encoder alone writes as an array;
    # the scan's JSON line is its _asdict() fields, the Fraction as text.
    report = square_case_feasible(3, 2)
    assert cli._dump(report) == cli._dump(list(report))
    code, out, _ = run(capsys, "feasible-scan", "--n-max", "3", "--q-max", "2")
    assert (code, out) == (0, cli._dump(report._asdict()) + "\n")
    assert json.loads(out) == {**report._asdict(), "dim_w": "1/2"}


def test_cm_json_template_matches_encoder():
    # every record of the cm-scan benchmark, the 26 with zero-set-only
    # multipliers among them, and q < n records with long zero_set_ms
    records = list(multiplier_sweep(range(3, 13), 2048))
    assert sum(1 for rep in records if rep.zero_set_ms) == 26
    long_sets = list(multiplier_sweep([40], 32))
    assert max(len(rep.zero_set_ms) for rep in long_sets) == 29  # q = 31
    for rep in records + long_sets:
        assert cli._cm_json(rep) == cli._dump(rep._asdict()), rep


def test_feasible_json_template_matches_encoder():
    records = list(feasibility_sweep(50, 1024))
    assert {str(rep.dim_w) for rep in records if rep.q == 2} == {"1/2"}
    assert any(rep.feasible for rep in records) and any(rep.divisibility_ok for rep in records)
    for rep in records:
        assert cli._feasible_json(rep) == cli._dump(rep._asdict()), rep


def test_scan_over_pairs_without_coprime_q_is_empty(capsys):
    # n = 4 with q-max 2: a valid range whose only prime power divides n
    assert run(capsys, "cm-scan", "--n", "4", "--q-max", "2") == (0, "", "")
    code, out, _ = run(capsys, "feasible-scan", "--n-max", "3", "--q-max", "2")
    assert code == 0 and json.loads(out)["q"] == 2


def test_feasible_scan(capsys):
    code, out, _ = run(capsys, "feasible-scan", "--n-max", "4", "--q-max", "9")
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    feasible = [(rec["n"], rec["q"]) for rec in records if rec["feasible"]]
    assert feasible == [(3, 4)]
    assert all(set(rec) >= {"b_count", "dim_w", "divisibility_ok"} for rec in records)


def test_feasible_scan_text(capsys):
    code, out, _ = run(
        capsys, "feasible-scan", "--n-max", "3", "--q-max", "4", "--format", "text"
    )
    assert code == 0
    assert "n=3 q=4 feasible=True b_count=1 dim_w=1" in out


def test_galois_rational_text(capsys):
    code, out, _ = run(capsys, "galois", "--poly", "x^3 - x - 1")
    assert code == 0
    assert out == "S3\n"


def test_galois_geometric_json(capsys):
    payload = run_json(
        capsys, "galois", "--poly", "x^3 - x - t", "--format", "json"
    )
    assert payload == {
        "poly": "x^3 - x - t",
        "degree": 3,
        "route": "geometric",
        "label": "S3",
        "disc_t": "-27*t^2 + 4",
    }


def test_galois_quartic_rational(capsys):
    payload = run_json(capsys, "galois", "--poly", "x^4 + 8*x + 12", "--format", "json")
    assert payload["label"] == "A4"
    assert payload["route"] == "rational"


@pytest.mark.parametrize(
    "poly",
    ["x^5 - x - t", "x^2 - 1", "x^4 - t*x", "x^3 + t + 1", "x^4 + x^2 - t"],
)
def test_galois_rejects_shapes(capsys, poly):
    code, _, err = run(capsys, "galois", "--poly", poly)
    assert code == 2
    assert err.startswith("error:")


def test_jinv_text(capsys):
    code, out, _ = run(capsys, "jinv", "--poly", "x^3 - x - 1")
    assert code == 0
    assert out == "-6912/23\n"


def test_jinv_family_json(capsys):
    payload = run_json(capsys, "jinv", "--poly", "x^3 - x + t", "--format", "json")
    assert payload["j"] == "-6912/(27*t^2 - 4)"
    assert payload["isotrivial"] is False
    assert payload["absorbed_lc"] == "1"


def test_jinv_rejects_quartic(capsys):
    code, _, err = run(capsys, "jinv", "--poly", "x^4 - x")
    assert code == 2
    assert "cubic" in err


def test_hp_check(capsys):
    code, out, _ = run(capsys, "hp-check")
    assert code == 0
    assert "holds" in out


def test_hp_check_failure_exit(capsys, monkeypatch):
    monkeypatch.setattr(cli, "verify_prescribed_j_family", lambda: False)
    code, out, _ = run(capsys, "hp-check")
    assert code == 1
    assert "FAILED" in out


def test_model_check_json(capsys):
    payload = run_json(
        capsys, "model-check", "--poly", "x^4 + x + 1", "--q", "3", "--format", "json"
    )
    assert payload["a"] == 1 and payload["b"] == 1
    assert payload["reversed_f"] == "x^4 + x^3 + 1"
    assert payload["identity"] is True
    assert payload["delta_order"] == 3
    assert payload["genus"] == 3


def test_model_check_rejects_multiple_roots(capsys):
    code, _, err = run(capsys, "model-check", "--poly", "x^3 - 3*x + 2", "--q", "2")
    assert code == 2
    assert "multiple roots" in err


@pytest.mark.parametrize(
    "q_args",
    [("--q", "6"), ("--p", "4", "--r", "1"), ("--p", "3"), ("--q", "9", "--p", "2", "--r", "3")],
)
def test_model_check_parses_poly_before_q(capsys, monkeypatch, q_args):
    # n is the degree of --poly, so a bad --poly is reported before a bad
    # --q/--p/--r, and q is not factored
    calls = _count_prime_power(monkeypatch)
    code, out, err = run(capsys, "model-check", "--poly", "x^3 +", *q_args)
    assert (code, out) == (2, "")
    assert err == "error: cannot read a term at '+'\n"
    assert calls == []


def test_model_check_invariant_exit(capsys, monkeypatch):
    monkeypatch.setattr(cli, "chart_identity_check", lambda f, pair: False)
    code, _, err = run(capsys, "model-check", "--poly", "x^3 - x - 1", "--q", "2")
    assert code == 1
    assert err.startswith("invariant failure:")


def test_heart_json(capsys):
    payload = run_json(capsys, "heart", "--galois", "S3", "--p", "2", "--format", "json")
    assert payload == {
        "degree": 3,
        "group": "S3",
        "p": 2,
        "commutant_dim": 1,
        "doubly_transitive": True,
    }


def test_heart_trivial_group(capsys):
    payload = run_json(capsys, "heart", "--n", "3", "--p", "2", "--format", "json")
    assert payload["group"] == "trivial(3)"
    assert payload["commutant_dim"] == 4
    assert payload["doubly_transitive"] is False


@pytest.mark.parametrize(
    "argv",
    [
        ("heart", "--galois", "S3", "--n", "4", "--p", "5"),
        ("heart", "--galois", "G7", "--p", "5"),
        ("heart", "--p", "5"),
        ("heart", "--galois", "S3", "--p", "3"),
        ("heart", "--galois", "S3", "--p", "4"),
    ],
)
def test_heart_rejects(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("n", [-3, 0, 1])
@pytest.mark.parametrize("rest", [("--p", "2"), ("--p", "4"), ("--galois", "S3", "--p", "5")])
def test_heart_refuses_degree_below_two(capsys, n, rest):
    # one message for every n < 2, before the group, the label or p is read
    assert run(capsys, "heart", "--n", str(n), *rest) == (
        2, "", f"error: degree n must be >= 2, got {n}\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ("genus", "--n", "3", "--q", "6"),
        ("genus", "--n", "3"),
        ("genus", "--n", "3", "--p", "2"),
        ("genus", "--n", "3", "--q", "4", "--p", "2", "--r", "3"),
        ("genus", "--n", "3", "--p", "4", "--r", "2"),
        ("genus", "--n", "4", "--q", "2"),
        ("endo", "--n", "5", "--q", "2", "--galois", "S3"),
        ("endo", "--n", "3", "--q", "4", "--galois", "C3"),
    ],
)
def test_usage_errors_exit_2(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error:")


def test_missing_required_argument_is_systemexit(capsys):
    with pytest.raises(SystemExit):
        cli.main(["cm-scan"])
    capsys.readouterr()


# Each subcommand's usage line; COLUMNS=200 keeps it on one line. --help text
# is left out: it differs between Python versions.
_USAGE = {
    "genus": "seljac genus [-h] --n N [--q Q] [--p P] [--r R] [--format {text,json}]",
    "spectrum": "seljac spectrum [-h] --n N [--q Q] [--p P] [--r R] [--format {text,json}]",
    "decompose": "seljac decompose [-h] --n N [--q Q] [--p P] [--r R] [--format {text,json}]",
    "endo": "seljac endo [-h] --n N [--q Q] [--p P] [--r R] --galois GALOIS [--format {text,json}]",
    "nonisotrivial": (
        "seljac nonisotrivial [-h] --n N [--q Q] [--p P] [--r R] --galois GALOIS "
        "[--format {text,json}]"
    ),
    "cm-scan": "seljac cm-scan [-h] [--n N] [--n-max N_MAX] --q-max Q_MAX [--format {text,json}]",
    "feasible-scan": "seljac feasible-scan [-h] --n-max N_MAX --q-max Q_MAX [--format {text,json}]",
    "galois": "seljac galois [-h] --poly POLY [--format {text,json}]",
    "jinv": "seljac jinv [-h] --poly POLY [--format {text,json}]",
    "hp-check": "seljac hp-check [-h] [--format {text,json}]",
    "model-check": "seljac model-check [-h] --poly POLY [--q Q] [--p P] [--r R] [--format {text,json}]",
    "heart": "seljac heart [-h] [--n N] [--galois GALOIS] --p P [--format {text,json}]",
    "verify-all": "seljac verify-all [-h] [--format {text,json}]",
}


def test_subcommand_usage_is_unchanged(monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")
    parser = cli.build_parser()
    subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert {name: sub.format_usage() for name, sub in subs.choices.items()} == {
        name: f"usage: {usage}\n" for name, usage in _USAGE.items()
    }
    assert list(subs.choices) == list(_USAGE)


def test_main_dispatches_through_module_global(capsys, monkeypatch):
    # a tracer rebinds cli._cmd_* and must see every call made by main
    calls = []
    monkeypatch.setattr(cli, "_cmd_genus", lambda args: calls.append(args.n) or 0)
    assert cli.main(["genus", "--n", "3", "--q", "2"]) == 0
    assert calls == [3]
    assert capsys.readouterr().out == ""


def test_main_builds_the_parser_once(capsys):
    cli.build_parser.cache_clear()
    assert run(capsys, "genus", "--n", "3", "--q", "2") == (0, "1\n", "")
    assert run(capsys, "genus", "--n", "4", "--q", "9") == (0, "12\n", "")
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_usage_error_leaves_the_parser_reusable(capsys):
    cli.build_parser.cache_clear()
    with pytest.raises(SystemExit) as fresh:
        cli.main(["genus", "--q", "7"])
    fresh_err = capsys.readouterr().err
    assert run(capsys, "genus", "--n", "3", "--q", "2") == (0, "1\n", "")
    with pytest.raises(SystemExit) as reused:
        cli.main(["genus", "--q", "7"])
    captured = capsys.readouterr()
    assert fresh.value.code == reused.value.code == 2
    assert captured.out == ""
    assert captured.err == fresh_err
    assert "the following arguments are required: --n" in fresh_err
    assert run(capsys, "genus", "--n", "3", "--q", "2") == (0, "1\n", "")
    assert cli.build_parser.cache_info().misses == 1


def _stub_results(flags):
    return [
        CriterionResult(number=i + 1, title=f"t{i + 1}", passed=ok, elapsed=0.0, detail="d")
        for i, ok in enumerate(flags)
    ]


def test_verify_all_pass(capsys, monkeypatch):
    monkeypatch.setattr(cli, "run_all", lambda: _stub_results([True, True]))
    code, out, _ = run(capsys, "verify-all")
    assert code == 0
    assert "2/2 criteria passed" in out
    assert out.count("[PASS]") == 2


def test_verify_all_failure(capsys, monkeypatch):
    monkeypatch.setattr(cli, "run_all", lambda: _stub_results([True, False]))
    code, out, _ = run(capsys, "verify-all")
    assert code == 1
    assert "1/2 criteria passed" in out
    assert "[FAIL]" in out


def test_verify_all_json(capsys, monkeypatch):
    monkeypatch.setattr(cli, "run_all", lambda: _stub_results([True]))
    payload = run_json(capsys, "verify-all", "--format", "json")
    assert payload == [{"number": 1, "title": "t1", "passed": True, "detail": "d"}]


def test_closed_pipe_exits_0(tmp_path):
    # the scan writes about 1 MB, far more than a pipe buffers, so the
    # child is still writing when the reader goes away after one line
    src = str(Path(seljac.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, "-m", "seljac.cli", "feasible-scan", "--n-max", "50", "--q-max", "1024"]
    with open(tmp_path / "err", "w+") as err:
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=env)
        assert proc.stdout.readline().startswith(b"{")
        proc.stdout.close()
        code = proc.wait(timeout=120)
        err.seek(0)
        stderr = err.read()
    assert code == 0, stderr
    assert "Traceback" not in stderr


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_closed_pipe_mid_spectrum_exits_0(fmt):
    # spectrum at its q ceiling writes 15-17 MB in pieces; the reader of
    # `| head -c 100` leaves while the child is still among them
    src = str(Path(seljac.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, "-m", "seljac.cli", "spectrum", "--n", "7",
            "--q", str(cli.SPECTRUM_Q_MAX), "--format", fmt]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    stderr = proc.communicate(timeout=120)[1].decode()
    assert proc.returncode == 0, stderr
    assert "Traceback" not in stderr
