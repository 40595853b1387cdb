"""Command-line surface: every library operation behind one subcommand,
with deterministic text or JSON output.

Each handler builds one payload per output record and passes it to `_emit`
with a text renderer: `--format json` prints the payload itself, `--format
text` prints the renderer's reading of it, so both formats come from the
same payload, and one encoder writes each such JSON record, an exact
Fraction as its text. A library result is an immutable named tuple, which
the encoder would write as an array, so a payload holds its fields,
`record._asdict()`, and a text renderer reads the record's attributes.
The two scans write their reports through `_emit_records`, one line each
and all through one `writelines`: a text renderer, or a JSON one that
fills a fixed template with the line the encoder would write for the
report's `_asdict()`, which the tests check record by record.
`spectrum` writes its own way too: its up to 2^20 - 1 multiplicities are
formatted by C loops over ranges of exponents, with no dict between, and
written as they are made, so its memory does not grow with q: the text
`SPECTRUM_SLICE` lines at a time, the JSON one group of keys at a time
(`_key_groups`), each group sorted on its own into the order that the
encoder's sort_keys would give. The tests check the JSON against the
encoder and the text against the per-entry lines, byte for byte. The
subcommands keyed by (n, q) get one `lattice.Pair` from `_head`, which
checks the flags and any ceiling first, then builds the pair from --p/--r
once p is proved prime, or factors --q once; they pass the pair down and
print its `_asdict()` as the payload head.
The parser is built from one table, once per process, on the first `main`
call; each subcommand stores its handler's name, and `main` looks that
name up in the module at dispatch, so a handler rebound on the module (a
tracer wrapping `cli._cmd_*`) sees every call. Library users import from
the submodules (`seljac.poly`, `seljac.galois`, ...); the package root
re-exports nothing.

Exit codes: 0 success, 1 invariant failure (a verification subcommand
found a violated identity), 2 usage or input error. A reader that closes
stdout early (`| head`) ends the run with 0.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from collections.abc import Iterator
from fractions import Fraction
from itertools import chain

from .acceptance import run_all
from .arith import is_prime
from .decompose import (
    decomposition_ledger,
    predict_end_algebra,
    predict_nonisotrivial,
)
from .elliptic import depress_cubic, is_isotrivial, j_invariant, verify_prescribed_j_family
from .galois import (
    classify_cubic_geometric,
    classify_cubic_rational,
    classify_quartic_geometric,
    classify_quartic_rational,
    discriminant_in_t,
    require_squarefree,
)
from .heart import GROUPS, PermGroup, heart_centralizer_dim, is_doubly_transitive
from .lattice import Pair, full_spectrum, genus_formula, genus_lattice, prime_pair, validate_pair
from .model import chart_identity_check, delta_chart_order, gluing_exponents, hurwitz_genus
from .obstruction import feasibility_sweep, multiplier_sweep
from .parse import MAX_EXPONENT, parse_q_poly, parse_x_poly, t_linear_base
from .poly import Poly, reversed_poly
from .ratfunc import RatFunc


def _plain(value):
    """The JSON form of the one non-JSON value a payload may hold: an exact
    Fraction is its text. A record never reaches this hook: the encoder
    writes any tuple as an array, so a payload holds a record's `_asdict()`."""
    if isinstance(value, Fraction):
        return str(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


# One encoder for every record, built once rather than on each call. A
# payload is a tree built afresh per record, so the cycle check is skipped:
# it would cost a scan record more than the default hook itself.
_dump = json.JSONEncoder(sort_keys=True, check_circular=False, default=_plain).encode


def _emit(args, payload, text) -> None:
    """Print one record: the payload as JSON, or text(payload) as text."""
    print(_dump(payload) if args.format == "json" else text(payload))


def _emit_records(args, records, text, json_line) -> None:
    """Write one line per library record: json_line(record) as JSON, or
    text(record) as text."""
    render = json_line if args.format == "json" else text
    sys.stdout.writelines(f"{render(record)}\n" for record in records)


# The most decimal digits q = p**r may have: Python's default int-to-str
# limit, past which q could not be printed.
Q_DIGITS_MAX = 4300


def _head(args, n: int, ceiling=None) -> Pair:
    """The pair of n and q = p**r from --q and/or --p/--r, whose
    consistency is enforced first. A q too long to print, or one that
    ceiling(n, q) rejects by raising, is refused before p or q is
    trial-divided. With --p/--r the pair is `prime_pair` once p is proved
    prime, a test of about sqrt(p) steps, and q is never factored; a bare
    --q is factored once by `validate_pair`, about sqrt(q) steps."""
    q, p, r = args.q, args.p, args.r
    if (p is None) != (r is None):
        raise ValueError("--p and --r must be given together")
    if q is None and p is None:
        raise ValueError("need --q or the pair --p/--r")
    if p is not None:
        if r < 1:
            raise ValueError(f"--r must be >= 1, got {r}")
        if r > MAX_EXPONENT:
            raise ValueError(f"--r must be at most {MAX_EXPONENT}, got {r}")
        if q is not None and q != p**r:
            raise ValueError(f"--q {q} contradicts --p {p} --r {r}")
        q = p**r
        if q >= 10**Q_DIGITS_MAX:
            raise ValueError(f"q = {p}^{r} has more than {Q_DIGITS_MAX} digits")
    if ceiling is not None:
        ceiling(n, q)
    if p is None:
        return validate_pair(n, q)
    if not is_prime(p):
        raise ValueError(f"--p must be prime, got {p}")
    return prime_pair(n, p, r)


def _header(pl) -> str:
    q = f"{pl['q']} = {pl['p']}^{pl['r']}" if pl["r"] > 1 else f"{pl['q']}"
    return f"n = {pl['n']}  q = {q}"


def _word(flag: bool | None) -> str:
    return "unknown" if flag is None else str(flag).lower()


def _cm_text(rep) -> str:
    return (
        f"n={rep.n} q={rep.q} invariant_ms={list(rep.invariant_ms)} "
        f"zero_set_ms={list(rep.zero_set_ms)}"
    )


def _feasible_text(rep) -> str:
    return (
        f"n={rep.n} q={rep.q} feasible={rep.feasible} "
        f"b_count={rep.b_count} dim_w={rep.dim_w}"
    )


# The scans' JSON lines: `_dump(rep._asdict())` filled into a fixed
# template, keys in sort_keys order. A list of ints prints as its JSON
# array, and dim_w is the Fraction's text, as `_plain` writes it.
def _cm_json(rep) -> str:
    return (
        f'{{"invariant_ms": {list(rep.invariant_ms)}, "n": {rep.n}, "p": {rep.p}, '
        f'"q": {rep.q}, "r": {rep.r}, "zero_set_ms": {list(rep.zero_set_ms)}}}'
    )


def _feasible_json(rep) -> str:
    return (
        f'{{"b_count": {rep.b_count}, "dim_w": "{rep.dim_w}", '
        f'"divisibility_ok": {"true" if rep.divisibility_ok else "false"}, '
        f'"feasible": {"true" if rep.feasible else "false"}, '
        f'"n": {rep.n}, "p": {rep.p}, "q": {rep.q}, "r": {rep.r}}}'
    )


# The largest q that spectrum accepts: its output has q - 1 entries, 13-23
# MB at 2**20. Written as it is made, it takes about 0.95 s at n = 7 and
# 1.0-1.4 s when n is near q, on a 2-core VM with Python 3.11, in either
# format; the process peaks at about 16 MB, 1 MB above `genus --n 3 --q 2`.
SPECTRUM_Q_MAX = 2**20

# spectrum writes its text this many lines at a time.
SPECTRUM_SLICE = 2**12

# The most lattice points (n-1)(q-1)/2 that genus counts. The count takes
# min(n, q) - 1 steps and stores no point, so the ceiling bounds the trial
# division of q: at 2**22 it takes about 0.1 s at n = 3 and at
# n = 2**23 + 1, each in about 15 MB.
GENUS_POINTS_MAX = 2**22


def _spectrum_ceiling(n: int, q: int) -> None:
    if q > SPECTRUM_Q_MAX:
        raise ValueError(f"spectrum needs q at most {SPECTRUM_Q_MAX}, got {q}")


def _genus_ceiling(n: int, q: int) -> None:
    if (n - 1) * (q - 1) // 2 > GENUS_POINTS_MAX:
        raise ValueError(f"genus needs (n-1)(q-1)/2 at most {GENUS_POINTS_MAX} lattice points")


# The largest --q-max a scan accepts. Both scans sieve every prime power up
# to --q-max before the first record, in memory that grows with it.
SCAN_Q_MAX = 10**7


def _check_scan_limits(n_top: int, q_max: int) -> None:
    """A scan whose largest n is below 3 or whose q-max is below 2 has no
    pair to visit: an input error, not an empty answer. A q-max above
    SCAN_Q_MAX is rejected before the sieve is allocated."""
    if n_top < 3:
        raise ValueError(f"degree n must be >= 3, got {n_top}")
    if q_max < 2:
        raise ValueError(f"--q-max must be >= 2, got {q_max}")
    if q_max > SCAN_Q_MAX:
        raise ValueError(f"--q-max must be at most {SCAN_Q_MAX}, got {q_max}")


# ---- subcommand handlers ----


def _cmd_genus(args) -> int:
    pair = _head(args, args.n, _genus_ceiling)
    lattice = genus_lattice(pair)
    formula = genus_formula(pair)
    hurwitz = hurwitz_genus(pair)
    if not (lattice == formula == hurwitz):
        raise AssertionError(
            f"genus routes disagree: lattice {lattice}, formula {formula}, Hurwitz {hurwitz}"
        )
    _emit(args, {**pair._asdict(), "genus": formula}, lambda pl: pl["genus"])
    return 0


def _key_groups(q: int) -> Iterator[list[range]]:
    """The exponents 1..q-1 as groups of ranges, in the order that
    sort_keys gives their decimal keys: sorted as text, the keys of a group
    all come before those of the next. With D the digit count of q - 1 and
    d = max(D - 4, 0), a group holds the keys that start with one d-digit
    prefix s (for d = 0, every key), at most 11,111 of them, and the keys
    shorter than d digits that s extends by zeros alone, which sort just
    before s and start no earlier prefix."""
    top = len(str(q - 1))
    d = max(top - 4, 0)
    for s in range(10**d // 10, 10**d):
        shorter = [range(s // 10**k, s // 10**k + 1) for k in range(d - 1, 0, -1)
                   if s % 10**k == 0]
        yield shorter + [
            range(max(s * 10 ** (length - d), 10 ** (length - 1)),
                  min((s + 1) * 10 ** (length - d), q))
            for length in range(max(d, 1), top + 1)
        ]


def _cmd_spectrum(args) -> int:
    pair = _head(args, args.n, _spectrum_ceiling)
    spec = full_spectrum(pair)
    rest = {**pair._asdict(), "total": spec.total(), "primitive_total": spec.primitive_total()}
    write = sys.stdout.write
    if args.format == "json":
        # Sorted as strings, a group's '"i": k' entries fall in the order
        # that sort_keys gives their keys, since '"' sorts below every
        # digit; and "multiplicities" sorts before every other key of the
        # record. Each group is formatted, sorted and written on its own.
        head = '{"multiplicities": {'
        for group in _key_groups(spec.q):
            exponents = chain.from_iterable(group)
            mults = chain.from_iterable(map(spec.multiplicities_over, group))
            write(head)
            write(", ".join(sorted(map('"{}": {}'.format, exponents, mults))))
            head = ", "
        write("}, " + _dump(rest)[1:] + "\n")
    else:
        write(_header(rest) + "\n")
        for start in range(1, spec.q, SPECTRUM_SLICE):
            exponents = range(start, min(start + SPECTRUM_SLICE, spec.q))
            write("\n".join(map("i={}  mult={}".format, exponents,
                                spec.multiplicities_over(exponents))))
            write("\n")
        write(f"total = {rest['total']}  primitive = {rest['primitive_total']}\n")
    return 0


def _cmd_decompose(args) -> int:
    pair = _head(args, args.n)
    levels = decomposition_ledger(pair)
    payload = {
        **pair._asdict(),
        "levels": [lv._asdict() for lv in levels],
        "genus": genus_formula(pair),
    }
    _emit(args, payload, lambda pl: "\n".join([
        _header(pl),
        *(f"level {lv.level}  modulus {lv.modulus}  new_dim {lv.new_dim}" for lv in levels),
        f"genus = {pl['genus']}",
    ]))
    return 0


def _cmd_endo(args) -> int:
    pair = _head(args, args.n)
    desc = predict_end_algebra(pair, args.galois)

    def text(pl) -> str:
        lines = [f"{_header(pl)}  galois = {args.galois}", f"algebra: {desc.label()}"]
        if pl["integral"]:
            pieces = ", ".join(f"{o['ring']} at level {o['modulus']}" for o in pl["integral"])
            lines.append(f"integral: {pieces}")
        lines.append(f"reduced_dim = {desc.total_reduced_dim}")
        return "\n".join(lines)

    _emit(args, {**pair._asdict(), **desc.to_json()}, text)
    return 0


def _cmd_nonisotrivial(args) -> int:
    pair = _head(args, args.n)
    forecast = predict_nonisotrivial(pair, args.galois)
    payload = {
        **pair._asdict(),
        "fully_nonisotrivial": forecast.fully,
        "levels": {str(i): status for i, status in forecast.levels},
    }
    _emit(args, payload, lambda pl: "\n".join([
        f"{_header(pl)}  galois = {args.galois}",
        f"fully_nonisotrivial: {_word(pl['fully_nonisotrivial'])}",
        *(f"level {i} (modulus {pl['p'] ** int(i)}): {status}"
          for i, status in pl["levels"].items()),
    ]))
    return 0


def _cmd_cm_scan(args) -> int:
    if args.n is None and args.n_max is None:
        raise ValueError("need --n or --n-max")
    if args.n is not None and args.n_max is not None:
        raise ValueError("give --n or --n-max, not both")
    ns = range(args.n, args.n + 1) if args.n is not None else range(3, args.n_max + 1)
    _check_scan_limits(ns.stop - 1, args.q_max)
    _emit_records(args, multiplier_sweep(ns, args.q_max), _cm_text, _cm_json)
    return 0


def _cmd_feasible_scan(args) -> int:
    _check_scan_limits(args.n_max, args.q_max)
    _emit_records(
        args, feasibility_sweep(args.n_max, args.q_max), _feasible_text, _feasible_json
    )
    return 0


def _cmd_galois(args) -> int:
    f0, f1 = parse_x_poly(args.poly)
    base = t_linear_base(f0, f1) if f1 else f0
    if base is None:
        raise ValueError("parametric input must have the exact shape g(x) - t with g over Q")
    if not base:
        raise ValueError("classification needs degree 3 or 4, got the zero polynomial")
    if not f1:
        classify = {3: classify_cubic_rational, 4: classify_quartic_rational}.get(f0.degree)
        if classify is None:
            raise ValueError(f"rational classification needs degree 3 or 4, got {f0.degree}")
        payload = {
            "poly": f0.to_text(),
            "degree": f0.degree,
            "route": "rational",
            "label": str(classify(f0)),
        }
    else:
        classify = {3: classify_cubic_geometric, 4: classify_quartic_geometric}.get(base.degree)
        if classify is None:
            raise ValueError(
                f"geometric classification needs degree 3 or 4, got {base.degree}"
            )
        payload = {
            "poly": f"{base.to_text()} - t",
            "degree": base.degree,
            "route": "geometric",
            "label": str(classify(base)),
            "disc_t": discriminant_in_t(base).to_text("t"),
        }
    _emit(args, payload, lambda pl: pl["label"])
    return 0


def _cmd_jinv(args) -> int:
    f0, f1 = parse_x_poly(args.poly)
    if max(f0.degree, f1.degree) != 3:
        raise ValueError("need a cubic in x (the right-hand side of y^2 = cubic)")
    w = depress_cubic([RatFunc(Poly([f0.coeff(k), f1.coeff(k)])) for k in range(4)])
    j = j_invariant(w)
    payload = {
        "j": j.to_text(),
        "isotrivial": is_isotrivial(j),
        "a4": w.a4.to_text(),
        "a6": w.a6.to_text(),
        "absorbed_lc": w.absorbed_lc.to_text(),
    }
    _emit(args, payload, lambda pl: pl["j"])
    return 0


def _cmd_hp_check(args) -> int:
    holds = verify_prescribed_j_family()
    _emit(args, {"holds": holds}, lambda pl: (
        "prescribed-j identity holds: j(x^3 - cx - c) = a for c = 27a/(4(a - 1728))"
        if pl["holds"]
        else "prescribed-j identity FAILED"
    ))
    return 0 if holds else 1


def _cmd_model_check(args) -> int:
    f = parse_q_poly(args.poly)  # n is its degree, so --poly is parsed first
    pair = _head(args, f.degree)
    require_squarefree(f)
    a, b = gluing_exponents(pair)
    payload = {
        **pair._asdict(),
        "a": a,
        "b": b,
        "reversed_f": reversed_poly(f, pair.n).to_text(),
        "identity": chart_identity_check(f, pair),
        "delta_order": delta_chart_order(pair),
        "genus": hurwitz_genus(pair),
    }
    _emit(args, payload, lambda pl: "\n".join([
        _header(pl),
        f"a = {pl['a']}  b = {pl['b']}",
        f"identity: {_word(pl['identity'])}",
        f"delta_order = {pl['delta_order']}",
        f"genus = {pl['genus']}",
    ]))
    if not payload["identity"]:
        raise AssertionError("two-chart identity failed")
    if payload["delta_order"] != pair.q:
        raise AssertionError(f"chart automorphism order {payload['delta_order']} != q")
    return 0


def _cmd_heart(args) -> int:
    if args.galois is not None:
        group = GROUPS.get(args.galois)
        if group is None:
            raise ValueError(
                f"no group attached to label {args.galois!r}; "
                f"choose from {sorted(GROUPS)}"
            )
        name = args.galois
        if args.n is not None and args.n != group.degree:
            raise ValueError(f"label {args.galois} acts on {group.degree} points, not {args.n}")
    elif args.n is not None:
        group = PermGroup.trivial(args.n)
        name = f"trivial({args.n})"
    else:
        raise ValueError("need --galois LABEL or --n for the trivial group")
    payload = {
        "degree": group.degree,
        "group": name,
        "p": args.p,
        "commutant_dim": heart_centralizer_dim(group, args.p),
        "doubly_transitive": is_doubly_transitive(group),
    }
    _emit(args, payload, lambda pl: "\n".join([
        f"group {pl['group']} on {pl['degree']} points, p = {pl['p']}",
        f"commutant_dim = {pl['commutant_dim']}",
        f"doubly_transitive: {_word(pl['doubly_transitive'])}",
    ]))
    return 0


def _cmd_verify_all(args) -> int:
    results = run_all()
    payload = [
        {"number": res.number, "title": res.title, "passed": res.passed, "detail": res.detail}
        for res in results
    ]
    _emit(args, payload, lambda pl: "\n".join([
        *(res.line() for res in results),
        f"{sum(rec['passed'] for rec in pl)}/{len(pl)} criteria passed",
    ]))
    return 0 if all(res.passed for res in results) else 1


# ---- argument plumbing ----


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seljac",
        description="Endomorphism-algebra bookkeeping for superelliptic jacobians y^q = f(x).",
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)
    num = {"type": int}
    need_num = {"type": int, "required": True}
    q_p_r = (("--q", num), ("--p", num), ("--r", num))
    pair = (("--n", need_num), *q_p_r)
    poly = (("--poly", {"required": True}),)
    # (name, help, arguments, default format); subcommand foo-bar is handled
    # by _cmd_foo_bar.
    table = (
        ("genus", "genus of y^q = f(x) for deg f = n", pair, "text"),
        ("spectrum", "eigenvalue multiplicities on differentials", pair, "text"),
        ("decompose", "cyclotomic level ledger of the jacobian", pair, "text"),
        ("endo", "predicted endomorphism algebra",
         (*pair, ("--galois", {"required": True, "help": "Galois label (S3, S4, A4)"})),
         "text"),
        ("nonisotrivial", "per-level isotriviality forecast",
         (*pair, ("--galois", {"required": True})), "text"),
        ("cm-scan", "invariant-multiplier sweep (newline JSON)",
         (("--n", num), ("--n-max", num), ("--q-max", need_num)), "json"),
        ("feasible-scan", "square-case feasibility sweep (newline JSON)",
         (("--n-max", need_num), ("--q-max", need_num)), "json"),
        ("galois", "Galois group of a cubic/quartic (or g(x) - t family)", poly, "text"),
        ("jinv", "j-invariant of y^2 = cubic", poly, "text"),
        ("hp-check", "symbolic prescribed-j family identity", (), "text"),
        ("model-check", "two-chart model identity for y^q = f(x)", (*poly, *q_p_r), "text"),
        ("heart", "commutant dimension on the sum-zero module",
         (("--n", num), ("--galois", {}), ("--p", need_num)), "text"),
        ("verify-all", "run the full acceptance suite", (), "text"),
    )
    for name, help_text, arguments, default in table:
        sub = subs.add_parser(name, help=help_text)
        for flag, kwargs in arguments:
            sub.add_argument(flag, **kwargs)
        sub.add_argument("--format", choices=("text", "json"), default=default)
        sub.set_defaults(handler="_cmd_" + name.replace("-", "_"))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = globals()[args.handler](args)
        sys.stdout.flush()  # a closed pipe must raise here, not at exit
        return code
    except BrokenPipeError:
        # The reader closed the pipe early (e.g. `| head`): not an error.
        # Point stdout at devnull so the flush at interpreter exit stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
