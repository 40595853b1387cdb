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
formatted by one %-template per range of exponents (`_spectrum_lines`),
with no dict between, and written as they are made, so its memory does
not grow with q: the text `SPECTRUM_SLICE` lines at a time, the JSON one
group of keys at a time (`_key_groups`), each group every key up to
q = `SPECTRUM_GROUP` + 1 and past it the keys under one decimal prefix, at
most `SPECTRUM_GROUP` of them, and a few shorter keys, sorted on its own
into the order that the encoder's sort_keys would give. For q > 2n each
run of equal multiplicity holds two or more exponents, so the template
carries each run's multiplicity and the exponents alone fill it;
otherwise it takes (exponent, multiplicity) pairs. For q >= 10n each run
holds ten or more, and the JSON writes each group's deepest keys, which
end it, ten to a line, one slice of a ten-entry template per run, so the
sort sees about a fifth as many lines. The tests check the JSON against
the encoder and the text against the per-entry lines, byte for byte, on
both sides of q = 2n and q = 10n. The subcommands keyed by (n, q) get
one `lattice.Pair` from `_head`, which checks the flags, the digits of q
and of the genus and any ceiling on q first, then builds the pair from
--p/--r once p is proved prime, or factors --q once; they pass the pair
down and print its `_asdict()` as the payload head.
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
from operator import mul

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
    require_squarefree,
)
from .heart import GROUPS, PermGroup, heart_centralizer_dim, is_doubly_transitive
from .lattice import Pair, full_spectrum, genus_formula, genus_lattice, prime_pair, validate_pair
from .model import chart_identity_check, delta_chart_order, gluing_exponents, hurwitz_genus
from .obstruction import feasibility_sweep, multiplier_sweep
from .parse import MAX_EXPONENT, parse_q_poly, parse_x_poly, t_linear_base
from .poly import DIGITS_MAX, Poly, reversed_poly


def _plain(value):
    """The JSON form of the one non-JSON value a payload may hold: an exact
    Fraction is its text. A record never reaches this hook: the encoder
    writes any tuple as an array, so a payload holds a record's `_asdict()`."""
    if isinstance(value, Fraction):
        return str(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


# One encoder for every record, built once rather than on each call. A
# payload is a tree built afresh per record, so it has no cycle to check.
_dump = json.JSONEncoder(sort_keys=True, check_circular=False, default=_plain).encode


def _emit(args, payload, text) -> None:
    """Print one record: the payload as JSON, or text(payload) as text."""
    print(_dump(payload) if args.format == "json" else text(payload))


def _emit_records(args, records, text, json_line) -> None:
    """Write one line per library record: json_line(record) as JSON, or
    text(record) as text."""
    render = json_line if args.format == "json" else text
    sys.stdout.writelines(f"{render(record)}\n" for record in records)


def _head(args, n: int, q_max: int | None = None) -> Pair:
    """The pair of n and q = p**r from --q and/or --p/--r, whose
    consistency is enforced first. A q or a genus (n-1)(q-1)/2 too long to
    print, or a q above q_max, is refused before p or q is tested.
    With --p/--r the pair is `prime_pair` once p is proved prime, and q is
    never factored; a bare --q is factored once by `validate_pair`. Either
    test takes O(log q) integer roots and modular powers (`prime_power`),
    and a p of `arith.CERTIFIED_BELOW` or more that it cannot prove prime
    is refused."""
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
        # 2**(3d) < 10**d, so each power below is built only near the limit
        if q.bit_length() > 3 * DIGITS_MAX and q >= 10**DIGITS_MAX:
            raise ValueError(f"q = {p}^{r} has more than {DIGITS_MAX} digits")
    genus = (n - 1) * (q - 1) // 2
    if genus.bit_length() > 3 * DIGITS_MAX and genus >= 10**DIGITS_MAX:
        raise ValueError(f"the genus (n-1)(q-1)/2 has more than {DIGITS_MAX} digits")
    if q_max is not None and q > q_max:
        raise ValueError(f"{args.subcommand} needs q at most {q_max}, got {q}")
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
# MB at 2**20. Written as it is made, it takes about 0.17 s in text and
# 0.20 s in JSON at n = 7, and 0.36-0.43 s in text and 0.46 s in JSON
# when n is near q, interpreter start included, on a 2-core VM with
# Python 3.11; the process peaks at 15.9-16.3 MB, 1-1.5 MB above
# `genus --n 3 --q 2`.
SPECTRUM_Q_MAX = 2**20

# spectrum writes its text this many lines at a time, and sorts its JSON
# keys in groups of at most this many under one decimal prefix.
SPECTRUM_SLICE = 2**12
SPECTRUM_GROUP = 1111

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
    pair = _head(args, args.n)
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
    """The exponents 1..q-1 as groups of nonempty ranges, in the order that
    sort_keys gives their decimal keys: sorted as text, the keys of a group
    all come before those of the next, and each group ends in its deepest
    range, whose keys all have one digit count. For q <= SPECTRUM_GROUP + 1
    the one group is the keys shorter than q - 1, then the rest. Otherwise
    the decimal prefixes s are walked in text order from 1..9: the keys
    that start with s, the ranges [s*10^k, (s+1)*10^k) below q, are one
    group if there are at most SPECTRUM_GROUP of them; if there are more,
    the key s alone joins the next group made, since it sorts just before
    every other key that starts with s, and the ten prefixes s0..s9 are
    walked in turn. So a group holds at most SPECTRUM_GROUP keys under its
    prefix and one shorter key for each digit count below the prefix's:
    126 groups at q = 2^17 and 945 at 2^20, of at most 1,114 keys."""
    if q <= SPECTRUM_GROUP + 1:
        deepest = 10 ** (len(str(q - 1)) - 1)
        yield [keys for keys in (range(1, deepest), range(deepest, q)) if keys]
        return
    shorter = []
    prefixes = list(range(9, 0, -1))
    while prefixes:
        s = prefixes.pop()
        keys = []
        lo, hi = s, s + 1
        while lo < q:
            keys.append(range(lo, min(hi, q)))
            lo, hi = 10 * lo, 10 * hi
        if sum(map(len, keys)) <= SPECTRUM_GROUP:
            yield shorter + keys
            shorter = []
        else:
            shorter.append(keys[0])
            prefixes += range(10 * s + 9, 10 * s - 1, -1)


def _spectrum_lines(spec, ranges: list[range], key: str, decades: bool = False) -> str:
    """The line key % i, then floor(n*i/q) and "\n", for each exponent i of
    ranges in turn, made by one %-template over them all. For q > 2n every
    run of equal multiplicity holds two or more exponents, so the template
    repeats key with the run's multiplicity written in once per exponent
    and takes the exponents alone; otherwise most runs hold one exponent,
    and the template takes (i, multiplicity) pairs. With decades, for
    q >= 10n, the last range's entries are written ten to a line instead
    (`_decade_pieces`)."""
    if spec.q > 2 * spec.n:
        line = key.replace("%", "%%") + "%d\n"
        pieces = []
        for exponents in ranges[:-1] if decades else ranges:
            ks, lengths = spec.runs_over(exponents)
            pieces += map(mul, map(line.__mod__, ks), lengths)
        if decades:
            pieces += _decade_pieces(spec, ranges[-1], line)
        return "".join(pieces) % tuple(chain.from_iterable(ranges))
    size = sum(map(len, ranges))
    values = [0] * (2 * size)
    values[::2] = chain.from_iterable(ranges)
    values[1::2] = chain.from_iterable(map(spec.multiplicities_over, ranges))
    return (key + "%d\n") * size % tuple(values)


def _decade_pieces(spec, exponents: range, line: str) -> list[str]:
    """The template of line % k, one entry per exponent of exponents with
    k its multiplicity, each entry followed by ", " but for those of an
    exponent ending in 9 and the last exponent, which end a line. For
    q >= 10n a run of equal multiplicity holds ten exponents or more, so
    each run is one slice of its ten-entry unit, taken from the run's
    offset mod 10: with w the width of an entry and its ", ", the unit
    spans 10w - 1 characters, its last entry ending in "\n"."""
    pieces = []
    at = exponents.start % 10
    ks, lengths = spec.runs_over(exponents)
    for k, length in zip(ks, lengths):
        entry = line % k
        width = len(entry) + 1
        unit = (entry[:-1] + ", ") * 9 + entry
        end = at + length
        stop = end // 10 * (10 * width - 1) + end % 10 * width
        pieces.append((unit * (end // 10 + 1))[at * width:stop])
        at = end % 10
    if at:
        pieces[-1] = pieces[-1][:-2] + "\n"
    return pieces


def _cmd_spectrum(args) -> int:
    pair = _head(args, args.n, SPECTRUM_Q_MAX)
    spec = full_spectrum(pair)
    rest = {**pair._asdict(), "total": spec.total(), "primitive_total": spec.primitive_total()}
    write = sys.stdout.write
    if args.format == "json":
        # Sorted as strings, a group's '"i": k' entries fall in the order
        # that sort_keys gives their keys, since '"' sorts below every
        # digit; and "multiplicities" sorts before every other key of the
        # record. Each group is formatted, sorted and written on its own.
        # A line of ten entries sorts as its first: its keys share a
        # decade and a digit count, and no key of the group lies between
        # them or extends them, since they are the group's deepest.
        head = '{"multiplicities": {'
        decades = spec.q >= 10 * spec.n
        for group in _key_groups(spec.q):
            entries = _spectrum_lines(spec, group, '"%d": ', decades).splitlines()
            entries.sort()
            write(head)
            write(", ".join(entries))
            head = ", "
        write("}, " + _dump(rest)[1:] + "\n")
    else:
        write(_header(rest) + "\n")
        for start in range(1, spec.q, SPECTRUM_SLICE):
            exponents = range(start, min(start + SPECTRUM_SLICE, spec.q))
            write(_spectrum_lines(spec, [exponents], "i=%d  mult="))
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
        label, disc_t = classify(base)
        payload = {
            "poly": f"{base.to_text()} - t",
            "degree": base.degree,
            "route": "geometric",
            "label": str(label),
            "disc_t": disc_t.to_text("t"),
        }
    _emit(args, payload, lambda pl: pl["label"])
    return 0


def _cmd_jinv(args) -> int:
    f0, f1 = parse_x_poly(args.poly)
    if max(f0.degree, f1.degree) != 3:
        raise ValueError("need a cubic in x (the right-hand side of y^2 = cubic)")
    w = depress_cubic([Poly([f0.coeff(k), f1.coeff(k)]) for k in range(4)])
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
    if args.n is not None and args.n < 2:  # no sum-zero module to act on
        raise ValueError(f"degree n must be >= 2, got {args.n}")
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
