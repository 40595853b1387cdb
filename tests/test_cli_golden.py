"""Byte-for-byte replay of a fixed corpus of `seljac` invocations.

`tests/data/cli_golden.json` holds stdout, stderr and the exit code of each
invocation in `CORPUS`, run through `cli.main` as the console script does.
A change that must keep the command line's output unchanged (a new
representation, a faster algorithm) has to leave every entry identical.
Outputs longer than `_INLINE_LIMIT` bytes are kept as a sha256 digest and a
byte count, so the two large scans do not bloat the file.

To record the corpus again after an intended output change:

    PYTHONPATH=src python tests/test_cli_golden.py
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from seljac import cli

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"
_INLINE_LIMIT = 8192


def _both(*argv: str) -> list[tuple[str, ...]]:
    return [argv, (*argv, "--format", "json")] if "--format" not in argv else [argv]


_README = [
    ("genus", "--n", "3", "--q", "2"),
    ("spectrum", "--n", "3", "--q", "4"),
    ("decompose", "--n", "3", "--q", "8"),
    ("endo", "--n", "3", "--q", "4", "--galois", "S3"),
    ("nonisotrivial", "--n", "3", "--q", "8", "--galois", "S3"),
    ("cm-scan", "--n-max", "12", "--q-max", "2048", "--format", "text"),
    ("cm-scan", "--n-max", "12", "--q-max", "2048", "--format", "json"),
    ("feasible-scan", "--n-max", "50", "--q-max", "1024", "--format", "text"),
    ("feasible-scan", "--n-max", "50", "--q-max", "1024", "--format", "json"),
    ("galois", "--poly", "x^4 + 8*x + 12"),
    ("galois", "--poly", "x^3 - x - t"),
    ("jinv", "--poly", "x^3 - x + t"),
    ("hp-check",),
    ("model-check", "--poly", "x^4 + x + 1", "--q", "3"),
    ("heart", "--galois", "S4", "--p", "3"),
]

# Every label, over Q (monic, non-monic, rational coefficients, the four
# large-resolvent quartics) and for g(x) - t.
_GALOIS = [
    "x^3 - x - 1",
    "2*x^3 - 3*x + 5",
    "1/2*x^3 - 2/3*x + 7/5",
    "x^3 - 3*x + 1",
    "3*x^3 - 9*x + 3",
    "x^3 - 3/4*x - 1/8",
    "x^3 - x",
    "2*x^3 + x^2 - 2*x - 1",
    "x^4 + x + 1",
    "3*x^4 - 7/2*x^3 + 5*x - 11",
    "x^4 + 8*x + 12",
    "x^4 - 2",
    "-5*x^4 + 10",
    "x^4 + 5*x^2 + 5",
    "x^4 - 4*x^2 + 2",
    "x^4 + 1",
    "x^4 - 10*x^2 + 1",
    "x^4 - 1",
    "x^4 + 4",
    "4*x^4 - 1/9",
    "x^4 + 50458*x^2 - 31*x + 63356",
    "x^4 + 50965*x^2 - 11*x + 63434",
    "x^4 + 52346*x^2 - 71*x + 62707",
    "x^4 + 52220*x^2 - 17*x + 62782",
    "x^3 - t",
    "x^3 + x^2 - t",
    "x^3 - 1/3*x - t",
    "x^4 + x - t",
    "x^4 - 3*x^2 + 2*x - t",
    "x^4 + 1/2*x - t",
    "x^4 + 4*x^3 + x - t",
    "x^4 + 2*x^3 - t",
]

_JINV = [
    "x^3 - x - 1",
    "2*x^3 + 3*x^2 - x + 5",
    "x^3 + 1/2*x - 1/3",
    "x^3 + 1",
    "x^3 - x",
    "x^3 + t*x - 1",
    "x^3 + t*x^2 + t",
    "2*x^3 - t*x + 1/2",
    "x^3 - 3*x - t",
]

_PAIRS = [
    ("genus", "--n", "4", "--q", "9"),
    ("genus", "--n", "5", "--p", "2", "--r", "4"),
    ("spectrum", "--n", "5", "--q", "8"),
    ("spectrum", "--n", "4", "--q", "9"),
    ("spectrum", "--n", "3", "--q", "2"),
    ("decompose", "--n", "4", "--q", "27"),
    ("decompose", "--n", "3", "--p", "2", "--r", "4"),
    ("endo", "--n", "3", "--q", "2", "--galois", "S3"),
    ("endo", "--n", "4", "--q", "9", "--galois", "S4"),
    ("endo", "--n", "4", "--q", "5", "--galois", "A4"),
    ("nonisotrivial", "--n", "4", "--q", "27", "--galois", "S4"),
    ("model-check", "--poly", "x^3 - x - 1", "--q", "4"),
    ("model-check", "--poly", "2*x^5 - x + 3", "--q", "7"),
    ("model-check", "--poly", "x^4 - 1/2*x + 3", "--p", "3", "--r", "2"),
    ("heart", "--n", "4", "--p", "3"),
    ("heart", "--galois", "D4", "--p", "5"),
]

# Each exits 2 with an error message on stderr.
_INVALID = [
    ("genus", "--n", "3", "--q", "6"),
    ("genus", "--n", "3", "--q", "3"),
    ("galois", "--poly", "x^5 + 1"),
    ("galois", "--poly", "x^3"),
    ("galois", "--poly", "x^3 + t"),
    ("galois", "--poly", "x^3 + 1/0"),
    ("galois", "--poly", "2*x^3 + x^2 - t"),
    ("galois", "--poly", "x^4 + x^2 - t"),
    ("jinv", "--poly", "x^4 + 1"),
    ("model-check", "--poly", "x^2 + 1", "--q", "3"),
    ("heart", "--galois", "Q8", "--p", "3"),
    ("heart", "--n", "4", "--p", "2"),
    ("genus", "--n", "3", "--p", "2"),
    ("genus", "--n", "3", "--q", "4", "--p", "2", "--r", "3"),
    # two faults: shows which error is reported first
    ("model-check", "--poly", "x^2", "--q", "6"),
    ("cm-scan", "--q-max", "64"),
]

# A default format (no --format) and the unknown-isotriviality branch.
_BRANCHES = [
    ("cm-scan", "--n", "3", "--q-max", "64"),
    ("nonisotrivial", "--n", "3", "--q", "8", "--galois", "C3"),
]

# More cases that exit 2, kept after the groups above so that earlier
# entries keep their place in the recording.
_INVALID_LATER = [
    ("cm-scan", "--n", "3", "--n-max", "5", "--q-max", "8"),
    ("cm-scan", "--n-max", "2", "--q-max", "8"),
    ("cm-scan", "--n", "3", "--q-max", "1"),
    ("cm-scan", "--n-max", "4", "--q-max", "-5"),
    ("feasible-scan", "--n-max", "2", "--q-max", "8"),
    ("feasible-scan", "--n-max", "4", "--q-max", "1"),
    ("cm-scan", "--n", "3", "--q-max", "10000000000"),
    ("feasible-scan", "--n-max", "3", "--q-max", "10000000000"),
    ("galois", "--poly", "x^50000000"),
]

# Quartics whose rational-root tests meet an 18-digit constant term (the
# resolvent cubic of the first) and a 39-digit one (the second itself);
# sympy's galois_group also gives S4 for both.
_GALOIS_LARGE = [
    "731*x^4 + 512*x^3 - 977*x + 863",
    "x^4 + 3*x + 100000000000000000000000000000000000039",
]

# The two-chart identity where frev loses degree (f(0) = 0) and at a large
# q, whose gluing exponents are large; and a single-degree cm-scan.
_MODEL_LATER = [
    ("model-check", "--poly", "x^3 - x", "--q", "4"),
    ("model-check", "--poly", "x^3 - x", "--q", "1000003"),
    ("model-check", "--poly", "3*x^5 - x^4 + 7", "--q", "1000003"),
    ("cm-scan", "--n", "5", "--q-max", "32"),
]

# Spectra with q >= 10, where JSON's sorted keys ("10" before "2") and the
# text's ascending exponents differ; the second is kept as a digest.
_SPECTRUM_LATER = [
    ("spectrum", "--n", "4", "--q", "27"),
    ("spectrum", "--n", "7", "--q", "131072"),
]

# Inputs above the spectrum q ceiling and the --r ceiling, which exit 2
# before anything of size q is built.
_CEILINGS = [
    ("spectrum", "--n", "3", "--q", "4194304"),
    ("spectrum", "--n", "4", "--p", "3", "--r", "13"),
    ("genus", "--n", "3", "--p", "2", "--r", "1001"),
]

# --p/--r with a large prime: q = p**r comes from the flags and is not
# factored again, so both reach the spectrum ceiling and exit 2 at once.
_LARGE_P = [
    ("spectrum", "--n", "3", "--p", "1000003", "--r", "2"),
    ("spectrum", "--n", "3", "--p", "1000000007", "--r", "2"),
]

# Lattices of far more than 2^22 points, at a large q, at a large n and
# at both: one floor sum counts each, and no point is made.
_GENUS_HUGE = [
    ("genus", "--n", "3", "--p", "2", "--r", "1000"),
    ("genus", "--n", "100000001", "--q", "2"),
    ("genus", "--n", "1000000000001", "--q", "2199023255552"),
]

# Ten levels at q = 2^10: the JSON level keys sort as text ("1", "10",
# "2", ...), an order that integer keys would change.
_TEN_LEVELS = [
    ("nonisotrivial", "--n", "3", "--q", "1024", "--galois", "S3"),
    ("endo", "--n", "3", "--q", "1024", "--galois", "S3"),
]

# q = 1000003^1000 has more than poly.DIGITS_MAX digits, too many to
# print: each exits 2 before any work on q.
_Q_DIGITS = [
    ("decompose", "--n", "3", "--p", "1000003", "--r", "1000"),
    ("model-check", "--poly", "x^3 + x + 1", "--p", "1000003", "--r", "1000"),
    ("endo", "--n", "3", "--p", "1000003", "--r", "1000", "--galois", "S3"),
    ("spectrum", "--n", "3", "--p", "1000003", "--r", "1000"),
]

# t written more than once adds up per x-power: -2t is not g(x) - t, and
# t - t is the zero polynomial; both exit 2.
_T_SUMS_INVALID = [
    ("galois", "--poly", "x^3 - t - t"),
    ("galois", "--poly", "t - t"),
]

# t terms that cancel leave g(x) - t or a cubic over Q, and a leading
# coefficient t; then an endo text that sums 150 levels' dimensions at a
# large prime.
_T_SUMS = [
    ("galois", "--poly", "x^3 + t*x - t*x - t"),
    ("jinv", "--poly", "t*x^3 + x - t"),
    ("jinv", "--poly", "x^3 + t - t + x"),
    ("endo", "--n", "4", "--p", "1000003", "--r", "150", "--galois", "S4"),
]

# Spectra at the edges of their runs of equal multiplicity: n > q (some
# k taken by no exponent), a power of two, keys that cross from four to
# five digits, and the q ceiling itself (kept as a digest).
_SPECTRUM_RUNS = [
    ("spectrum", "--n", "11", "--q", "7"),
    ("spectrum", "--n", "3", "--q", "1024"),
    ("spectrum", "--n", "10", "--q", "10007"),
    ("spectrum", "--n", "7", "--q", "1048576"),
]

# A lattice at a large prime q, given as --q and as --p/--r: q is
# factored, or p tested for primality, once.
_GENUS_LARGE_PRIME = [
    ("genus", "--n", "3", "--q", "1000000000000037"),
    ("genus", "--n", "3", "--p", "1000000000000037", "--r", "1"),
]

# The zero polynomial, over Q and as g(x) - t with g = 0: each exits 2.
_ZERO_POLY = [
    ("galois", "--poly", "0"),
    ("galois", "--poly=-t"),
]

# Lattices of 2^22 points or about that, at a large q and at a large n:
# the count is a floor sum in O(log q) steps, and nothing of size q or n
# is built.
_GENUS_LARGE = [
    ("genus", "--n", "5", "--q", "131072"),
    ("genus", "--n", "3", "--q", "4194304"),
    ("genus", "--n", "8388609", "--q", "2"),
]

# Spectra whose JSON key walks are long: the q ceiling at n = q + 1,
# where every multiplicity differs from its neighbour's run, and a prime q
# whose keys run to seven digits, with nearly 900,000 six-digit keys in
# the walk of the shorter keys (both kept as digests).
_SPECTRUM_WALKS = [
    ("spectrum", "--n", "1048577", "--q", "1048576"),
    ("spectrum", "--n", "3", "--q", "1000003"),
]

# --p/--r with a large prime and r = 2: the pair is built from p and r
# once p is proved prime, and q = p^2 is never factored. While q was still
# factored these did not finish, so there is no older recording to match;
# test_large_p_pairs_match_closed_forms checks them against closed forms.
_LARGE_P_PAIRS = [
    ("decompose", "--n", "3", "--p", "1000000007", "--r", "2"),
    ("model-check", "--poly", "x^3 + x + 1", "--p", "1000000007", "--r", "2"),
]

# Cubics in x with t in the leading coefficient, whose j-invariants add
# and divide rational functions with shared denominator factors; and a
# geometric quartic with two-digit coefficients.
_QT_ALGEBRA = [
    ("jinv", "--poly", "x^3 + t*x^3 + t*x^2 - 2*x + t"),
    ("jinv", "--poly", "t*x^3 - t*x + 1"),
    ("galois", "--poly", "x^4 - 41*x^2 + 51*x - 48 - t"),
]

# Accepted but unusual spellings of --poly: a leading sign, whitespace
# between any two tokens (a tab, a no-break space), a fraction times x, a
# zero term, leading zeros, x^0 and a non-ASCII decimal digit.
_POLY_SPELLINGS = [
    ("galois", "--poly", " + x ^ 3 -  x - 1 "),
    ("galois", "--poly", "x^3 - 1 / 2 * x + 0*x^2 + 007"),
    ("galois", "--poly", "x^\u0664\t+\u00a0x - t"),
    ("jinv", "--poly", "t * x ^ 3 - x + 1"),
    ("model-check", "--poly", "x^4 + x^0 + x", "--q", "3"),
]

# Numerals of one digit more than parse.DIGITS_MAX, Python's default
# int-from-str limit, as a coefficient, a denominator and a zero-padded
# exponent: each exits 2 with the parser's own message.
_NUMERAL_DIGITS = [
    ("galois", "--poly", "x^3 + " + "1" * 4301),
    ("galois", "--poly", "x^3 + 1/" + "1" * 4301),
    ("jinv", "--poly", "x^" + "0" * 4300 + "3 - x"),
]

# A cubic with a constant of poly.DIGITS_MAX digits: the input is read,
# but its j-invariant has a coefficient of twice as many digits, too many
# to print, so jinv exits 2 with its own message.
_J_DIGITS = [
    ("jinv", "--poly", "x^3 - x + " + "1" * 4300),
]

# Cubics over Q(t) whose short form needs the leading coefficient and the
# x^2 coefficient together: a singular cubic, j = 1728, a leading
# coefficient 2t summed from two terms, and t in the top two coefficients.
_JINV_T_COEFFS = [
    ("jinv", "--poly", "x^3 + t*x^2"),
    ("jinv", "--poly", "x^3 + t*x"),
    ("jinv", "--poly", "t*x^3 + t*x^3 - x + 1/3"),
    ("jinv", "--poly", "t*x^3 + t*x^2 - x"),
]

# A prime p near 10^18 and q = (10^9 + 7)^2 given as --q: before
# prime_power took O(log q) steps neither finished, so there is no older
# recording to match; test_polylog_factoring_rows_match_closed_forms checks
# them.
_POLYLOG_FACTORING = [
    ("heart", "--galois", "S4", "--p", "1000000000000000003"),
    ("decompose", "--n", "3", "--q", "1000000014000000049"),
]

# A prime above arith.CERTIFIED_BELOW (2^89 - 1), which no Miller-Rabin
# base set here proves prime: it exits 2 with seljac's own message.
_UNCERTIFIED = [
    ("decompose", "--n", "3", "--q", "618970019642690137449562111"),
]

# Spectra on both sides of q = 2n, where runs of equal multiplicity go
# from two or more exponents long (q > 2n) to mostly one (q < 2n).
_SPECTRUM_SWITCH = [
    ("spectrum", "--n", "20", "--q", "41"),
    ("spectrum", "--n", "21", "--q", "41"),
    ("spectrum", "--n", "511", "--q", "1024"),
    ("spectrum", "--n", "513", "--q", "1024"),
]

# heart with a degree below 2: each exits 2 with one message, before the
# group is built or p is tested.
_HEART_DEGREE = [
    ("heart", "--n", "-3", "--p", "2"),
    ("heart", "--n", "0", "--p", "2"),
    ("heart", "--n", "1", "--p", "2"),
]

# JSON spectra whose walk of the shorter keys starts mid-decade (q = 1109
# and 1117, both prime), and at q = 10007 with runs of ten or more
# exponents (n = 7) and with runs shorter than ten (n = 1001).
_SPECTRUM_DECADES = [
    ("spectrum", "--n", "3", "--q", "1109", "--format", "json"),
    ("spectrum", "--n", "3", "--q", "1117", "--format", "json"),
    ("spectrum", "--n", "7", "--q", "10007", "--format", "json"),
    ("spectrum", "--n", "1001", "--q", "10007", "--format", "json"),
]

CORPUS: list[tuple[str, ...]] = [
    *(v for argv in _README for v in _both(*argv)),
    *(v for poly in _GALOIS for v in _both("galois", "--poly", poly)),
    *(v for poly in _JINV for v in _both("jinv", "--poly", poly)),
    *(v for argv in _PAIRS for v in _both(*argv)),
    ("verify-all", "--format", "json"),
    *(v for argv in _INVALID for v in _both(*argv)),
    *(v for argv in _BRANCHES for v in _both(*argv)),
    *(v for argv in _INVALID_LATER for v in _both(*argv)),
    *(v for poly in _GALOIS_LARGE for v in _both("galois", "--poly", poly)),
    *(v for argv in _MODEL_LATER for v in _both(*argv)),
    *(v for argv in _SPECTRUM_LATER for v in _both(*argv)),
    *(v for argv in _CEILINGS for v in _both(*argv)),
    *(v for argv in _LARGE_P for v in _both(*argv)),
    *(v for argv in _GENUS_HUGE for v in _both(*argv)),
    *(v for argv in _TEN_LEVELS for v in _both(*argv)),
    *(v for argv in _Q_DIGITS for v in _both(*argv)),
    *(v for argv in _T_SUMS_INVALID for v in _both(*argv)),
    *(v for argv in _T_SUMS for v in _both(*argv)),
    *(v for argv in _SPECTRUM_RUNS for v in _both(*argv)),
    *(v for argv in _GENUS_LARGE_PRIME for v in _both(*argv)),
    *(v for argv in _ZERO_POLY for v in _both(*argv)),
    *(v for argv in _GENUS_LARGE for v in _both(*argv)),
    *(v for argv in _SPECTRUM_WALKS for v in _both(*argv)),
    *(v for argv in _LARGE_P_PAIRS for v in _both(*argv)),
    *(v for argv in _QT_ALGEBRA for v in _both(*argv)),
    *(v for argv in _POLY_SPELLINGS for v in _both(*argv)),
    *(v for argv in _NUMERAL_DIGITS for v in _both(*argv)),
    *(v for argv in _J_DIGITS for v in _both(*argv)),
    *(v for argv in _JINV_T_COEFFS for v in _both(*argv)),
    *(v for argv in _POLYLOG_FACTORING for v in _both(*argv)),
    *(v for argv in _UNCERTIFIED for v in _both(*argv)),
    *(v for argv in _SPECTRUM_SWITCH for v in _both(*argv)),
    *(v for argv in _HEART_DEGREE for v in _both(*argv)),
    *_SPECTRUM_DECADES,
]


def _stream(name: str, text: str) -> dict:
    data = text.encode()
    if len(data) <= _INLINE_LIMIT:
        return {name: text}
    return {f"{name}_sha256": hashlib.sha256(data).hexdigest(), f"{name}_bytes": len(data)}


def replay(argv) -> dict:
    """stdout, stderr and exit code of `seljac argv`, run in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return {"argv": list(argv), "exit": code, **_stream("stdout", out.getvalue()),
            **_stream("stderr", err.getvalue())}


def _recorded() -> list[dict]:
    # A missing file fails test_corpus_matches_recording, not collection.
    return json.loads(GOLDEN.read_text()) if GOLDEN.exists() else []


def test_corpus_matches_recording():
    assert [rec["argv"] for rec in _recorded()] == [list(argv) for argv in CORPUS]


@pytest.mark.parametrize("rec", _recorded(), ids=lambda rec: " ".join(rec["argv"]))
def test_cli_output_is_unchanged(rec):
    assert replay(rec["argv"]) == rec


def test_corpus_exit_codes():
    invalid = {
        v
        for argv in (
            *_INVALID, *_INVALID_LATER, *_CEILINGS, *_LARGE_P, *_Q_DIGITS,
            *_T_SUMS_INVALID, *_ZERO_POLY, *_NUMERAL_DIGITS, *_J_DIGITS,
            _JINV_T_COEFFS[0], *_UNCERTIFIED, *_HEART_DEGREE,
        )
        for v in _both(*argv)
    }
    for rec in _recorded():
        assert rec["exit"] == (2 if tuple(rec["argv"]) in invalid else 0), rec["argv"]


def test_large_p_pairs_match_closed_forms():
    # new_dim at level i is (n-1)(p^i - p^(i-1))/2, the gluing exponents
    # satisfy b*n - a*q = 1, and the genus is (n-1)(q-1)/2
    recorded = {tuple(rec["argv"]): rec for rec in _recorded()}
    for argv in _LARGE_P_PAIRS:
        out = json.loads(recorded[(*argv, "--format", "json")]["stdout"])
        n, q, p, r = out["n"], out["q"], out["p"], out["r"]
        assert (p, r, q) == (1000000007, 2, 1000000007**2)
        assert out["genus"] == (n - 1) * (q - 1) // 2
        if argv[0] == "decompose":
            assert [level["new_dim"] for level in out["levels"]] == [
                (n - 1) * (p**i - p ** (i - 1)) // 2 for i in range(1, r + 1)
            ]
        else:
            assert out["b"] * n - out["a"] * q == 1 and out["identity"] is True


def test_large_genus_rows_match_closed_form():
    # every large lattice prints (n-1)(q-1)/2, in text and in JSON
    recorded = {tuple(rec["argv"]): rec for rec in _recorded()}
    for argv in (*_GENUS_HUGE, *_GENUS_LARGE_PRIME, *_GENUS_LARGE):
        out = json.loads(recorded[(*argv, "--format", "json")]["stdout"])
        n, q = out["n"], out["q"]
        assert out["genus"] == (n - 1) * (q - 1) // 2, argv
        assert recorded[argv]["stdout"] == f"{out['genus']}\n"


def test_polylog_factoring_rows_match_closed_forms():
    # S4 acts doubly transitively, so its commutant is the scalars; new_dim
    # at level i is (n-1)(p^i - p^(i-1))/2; 2^89 - 1 is refused, not answered
    recorded = {tuple(rec["argv"]): rec for rec in _recorded()}
    heart, decompose = (json.loads(recorded[(*argv, "--format", "json")]["stdout"])
                        for argv in _POLYLOG_FACTORING)
    assert heart == {"commutant_dim": 1, "degree": 4, "doubly_transitive": True,
                     "group": "S4", "p": 10**18 + 3}
    n, p, r = decompose["n"], decompose["p"], decompose["r"]
    assert (n, p, r, decompose["q"]) == (3, 10**9 + 7, 2, (10**9 + 7) ** 2)
    assert [level["new_dim"] for level in decompose["levels"]] == [
        (n - 1) * (p**i - p ** (i - 1)) // 2 for i in range(1, r + 1)
    ]
    for argv in _both(*_UNCERTIFIED[0]):
        assert recorded[argv]["stderr"] == (
            f"error: cannot prove {2**89 - 1} prime: the primality test is certain only "
            "below 3317044064679887385961981\n"
        )


def test_corpus_reaches_every_galois_label():
    labels = {
        json.loads(rec["stdout"])["label"]
        for rec in _recorded()
        if rec["argv"][0] == "galois" and rec["argv"][-1] == "json" and rec["exit"] == 0
    }
    assert labels == {"S3", "C3", "S4", "A4", "D4", "C4", "V4", "Reducible"}


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps([replay(argv) for argv in CORPUS], indent=1) + "\n")
