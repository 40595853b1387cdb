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
    invalid = {v for argv in (*_INVALID, *_INVALID_LATER) for v in _both(*argv)}
    for rec in _recorded():
        assert rec["exit"] == (2 if tuple(rec["argv"]) in invalid else 0), rec["argv"]


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
