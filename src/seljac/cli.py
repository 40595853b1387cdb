"""Command-line surface: every library operation behind one subcommand,
with deterministic text or JSON output.

Each handler builds one payload per output record and passes it to `_emit`
with a text renderer: `--format json` prints the payload itself, `--format
text` prints the renderer's reading of it, so both formats come from the
same payload. The subcommands keyed by (n, q) share the payload head
{n, q, p, r} and its text header. The parser is built from one table.
Library users import from the submodules (`seljac.poly`, `seljac.galois`,
...); the package root re-exports nothing.

Exit codes: 0 success, 1 invariant failure (a verification subcommand
found a violated identity), 2 usage or input error. A reader that closes
stdout early (`| head`) ends the run with 0.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from .acceptance import run_all
from .arith import is_prime, prime_power
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
)
from .heart import PermGroup, heart_centralizer_dim, is_doubly_transitive
from .lattice import full_spectrum, genus_formula, genus_lattice, validate_pair
from .model import chart_identity_check, delta_chart_order, gluing_exponents, hurwitz_genus
from .obstruction import feasibility_sweep, multiplier_sweep
from .parse import parse_q_poly, parse_x_poly, t_linear_base
from .poly import Poly, poly_gcd, reversed_poly
from .ratfunc import RatFunc


def _dump(payload) -> str:
    return json.dumps(payload, sort_keys=True)


def _emit(args, payload, text) -> None:
    """Print one record: the payload as JSON, or text(payload) as text."""
    print(_dump(payload) if args.format == "json" else text(payload))


def _head(args) -> dict:
    """The payload head {n, q, p, r}: n from --n (None without one), and
    q = p**r from --q and/or --p/--r, consistency enforced."""
    q, p, r = args.q, args.p, args.r
    if (p is None) != (r is None):
        raise ValueError("--p and --r must be given together")
    if q is None and p is None:
        raise ValueError("need --q or the pair --p/--r")
    if p is not None:
        if not is_prime(p):
            raise ValueError(f"--p must be prime, got {p}")
        if r < 1:
            raise ValueError(f"--r must be >= 1, got {r}")
        if q is not None and q != p**r:
            raise ValueError(f"--q {q} contradicts --p {p} --r {r}")
        q = p**r
    pr = prime_power(q)
    if pr is None:
        raise ValueError(f"q must be a prime power >= 2, got {q}")
    return {"n": getattr(args, "n", None), "q": q, "p": pr[0], "r": pr[1]}


def _header(pl) -> str:
    q = f"{pl['q']} = {pl['p']}^{pl['r']}" if pl["r"] > 1 else f"{pl['q']}"
    return f"n = {pl['n']}  q = {q}"


def _word(flag: bool | None) -> str:
    return "unknown" if flag is None else str(flag).lower()


def _cm_text(pl) -> str:
    return (
        f"n={pl['n']} q={pl['q']} invariant_ms={pl['invariant_ms']} "
        f"zero_set_ms={pl['zero_set_ms']}"
    )


def _feasible_text(pl) -> str:
    return (
        f"n={pl['n']} q={pl['q']} feasible={pl['feasible']} "
        f"b_count={pl['b_count']} dim_w={pl['dim_w']}"
    )


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
    head = _head(args)
    n, q = head["n"], head["q"]
    lattice = genus_lattice(n, q)
    formula = genus_formula(n, q)
    hurwitz = hurwitz_genus(n, q)
    if not (lattice == formula == hurwitz):
        raise AssertionError(
            f"genus routes disagree: lattice {lattice}, formula {formula}, Hurwitz {hurwitz}"
        )
    _emit(args, {**head, "genus": formula}, lambda pl: pl["genus"])
    return 0


def _cmd_spectrum(args) -> int:
    head = _head(args)
    spec = full_spectrum(head["n"], head["q"])
    payload = {
        **head,
        "multiplicities": {str(i): m for i, m in sorted(spec.multiplicities.items())},
        "total": spec.total(),
        "primitive_total": spec.primitive_total(),
    }
    _emit(args, payload, lambda pl: "\n".join([
        _header(pl),
        *(f"i={i}  mult={m}" for i, m in pl["multiplicities"].items()),
        f"total = {pl['total']}  primitive = {pl['primitive_total']}",
    ]))
    return 0


def _cmd_decompose(args) -> int:
    head = _head(args)
    n, q = head["n"], head["q"]
    payload = {
        **head,
        "levels": [lv.to_json() for lv in decomposition_ledger(n, q)],
        "genus": genus_formula(n, q),
    }
    _emit(args, payload, lambda pl: "\n".join([
        _header(pl),
        *(f"level {lv['level']}  modulus {lv['modulus']}  new_dim {lv['new_dim']}"
          for lv in pl["levels"]),
        f"genus = {pl['genus']}",
    ]))
    return 0


def _cmd_endo(args) -> int:
    head = _head(args)
    desc = predict_end_algebra(head["n"], head["q"], args.galois)

    def text(pl) -> str:
        lines = [f"{_header(pl)}  galois = {args.galois}", f"algebra: {desc.label()}"]
        if pl["integral"]:
            pieces = ", ".join(f"{o['ring']} at level {o['modulus']}" for o in pl["integral"])
            lines.append(f"integral: {pieces}")
        lines.append(f"reduced_dim = {desc.total_reduced_dim}")
        return "\n".join(lines)

    _emit(args, {**head, **desc.to_json()}, text)
    return 0


def _cmd_nonisotrivial(args) -> int:
    head = _head(args)
    forecast = predict_nonisotrivial(head["n"], head["q"], args.galois)
    _emit(args, {**head, **forecast.to_json()}, lambda pl: "\n".join([
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
    for report in multiplier_sweep(ns, args.q_max):
        _emit(args, report.to_json(), _cm_text)
    return 0


def _cmd_feasible_scan(args) -> int:
    _check_scan_limits(args.n_max, args.q_max)
    for report in feasibility_sweep(args.n_max, args.q_max):
        _emit(args, report.to_json(), _feasible_text)
    return 0


def _cmd_galois(args) -> int:
    coeffs = parse_x_poly(args.poly)
    if not any(c.degree > 0 for c in coeffs):
        rational = Poly([c.coeff(0) for c in coeffs])
        degree = len(coeffs) - 1
        classify = {3: classify_cubic_rational, 4: classify_quartic_rational}.get(degree)
        if classify is None:
            raise ValueError(f"rational classification needs degree 3 or 4, got {degree}")
        payload = {
            "poly": rational.to_text(),
            "degree": degree,
            "route": "rational",
            "label": str(classify(rational)),
        }
    else:
        base = t_linear_base(coeffs)
        if base is None:
            raise ValueError(
                "parametric input must have the exact shape g(x) - t with g over Q"
            )
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
    coeffs = parse_x_poly(args.poly)
    if len(coeffs) != 4:
        raise ValueError("need a cubic in x (the right-hand side of y^2 = cubic)")
    w = depress_cubic([RatFunc(c) for c in coeffs])
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
    head = _head(args)  # --q/--p/--r are checked before --poly is parsed
    f = parse_q_poly(args.poly)
    n = head["n"] = f.degree
    q = head["q"]
    validate_pair(n, q)
    if poly_gcd(f, f.derivative()).degree != 0:
        raise ValueError("polynomial has multiple roots")
    a, b = gluing_exponents(n, q)
    payload = {
        **head,
        "a": a,
        "b": b,
        "reversed_f": reversed_poly(f, n).to_text(),
        "identity": chart_identity_check(f, q),
        "delta_order": delta_chart_order(n, q),
        "genus": hurwitz_genus(n, q),
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
    if payload["delta_order"] != q:
        raise AssertionError(f"chart automorphism order {payload['delta_order']} != q")
    return 0


_HEART_GROUPS = {
    "S3": lambda: PermGroup.symmetric(3),
    "C3": lambda: PermGroup.cyclic(3),
    "S4": lambda: PermGroup.symmetric(4),
    "A4": lambda: PermGroup.alternating(4),
    "C4": lambda: PermGroup.cyclic(4),
    "V4": lambda: PermGroup(4, ((1, 0, 3, 2), (2, 3, 0, 1))),
    "D4": lambda: PermGroup(4, ((1, 2, 3, 0), (2, 1, 0, 3))),
}


def _cmd_heart(args) -> int:
    if args.galois is not None:
        maker = _HEART_GROUPS.get(args.galois)
        if maker is None:
            raise ValueError(
                f"no group attached to label {args.galois!r}; "
                f"choose from {sorted(_HEART_GROUPS)}"
            )
        group = maker()
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
    # (name, help, arguments, default format, handler). The table is built on
    # each call, so main dispatches to whatever cli._cmd_* is bound to then.
    table = (
        ("genus", "genus of y^q = f(x) for deg f = n", pair, "text", _cmd_genus),
        ("spectrum", "eigenvalue multiplicities on differentials", pair, "text",
         _cmd_spectrum),
        ("decompose", "cyclotomic level ledger of the jacobian", pair, "text", _cmd_decompose),
        ("endo", "predicted endomorphism algebra",
         (*pair, ("--galois", {"required": True, "help": "Galois label (S3, S4, A4)"})),
         "text", _cmd_endo),
        ("nonisotrivial", "per-level isotriviality forecast",
         (*pair, ("--galois", {"required": True})), "text", _cmd_nonisotrivial),
        ("cm-scan", "invariant-multiplier sweep (newline JSON)",
         (("--n", num), ("--n-max", num), ("--q-max", need_num)), "json", _cmd_cm_scan),
        ("feasible-scan", "square-case feasibility sweep (newline JSON)",
         (("--n-max", need_num), ("--q-max", need_num)), "json", _cmd_feasible_scan),
        ("galois", "Galois group of a cubic/quartic (or g(x) - t family)", poly, "text",
         _cmd_galois),
        ("jinv", "j-invariant of y^2 = cubic", poly, "text", _cmd_jinv),
        ("hp-check", "symbolic prescribed-j family identity", (), "text", _cmd_hp_check),
        ("model-check", "two-chart model identity for y^q = f(x)", (*poly, *q_p_r), "text",
         _cmd_model_check),
        ("heart", "commutant dimension on the sum-zero module",
         (("--n", num), ("--galois", {}), ("--p", need_num)), "text", _cmd_heart),
        ("verify-all", "run the full acceptance suite", (), "text", _cmd_verify_all),
    )
    for name, help_text, arguments, default, handler in table:
        sub = subs.add_parser(name, help=help_text)
        for flag, kwargs in arguments:
            sub.add_argument(flag, **kwargs)
        sub.add_argument("--format", choices=("text", "json"), default=default)
        sub.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.handler(args)
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
