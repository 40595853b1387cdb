"""Command-line surface: every library operation behind one subcommand,
with deterministic text or JSON output.

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
from .lattice import NewtonTriangle, full_spectrum, genus_formula, genus_lattice, validate_pair
from .model import chart_identity_check, delta_chart_order, gluing_exponents, hurwitz_genus
from .obstruction import feasibility_sweep, multiplier_sweep
from .parse import parse_q_poly, parse_x_poly, t_linear_base
from .poly import Poly, poly_gcd
from .ratfunc import RatFunc


def _dump(payload) -> str:
    return json.dumps(payload, sort_keys=True)


def _resolve_q(args) -> tuple[int, int, int]:
    """(q, p, r) from --q and/or --p/--r; consistency enforced."""
    q = getattr(args, "q", None)
    p = getattr(args, "p", None)
    r = getattr(args, "r", None)
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
    return q, pr[0], pr[1]


def _q_text(q: int, p: int, r: int) -> str:
    return f"{q} = {p}^{r}" if r > 1 else f"{q}"


# ---- subcommand handlers ----


def _cmd_genus(args) -> int:
    q, p, r = _resolve_q(args)
    n = args.n
    lattice = genus_lattice(NewtonTriangle(n, q))
    formula = genus_formula(n, q)
    hurwitz = hurwitz_genus(n, q)
    if not (lattice == formula == hurwitz):
        raise AssertionError(
            f"genus routes disagree: lattice {lattice}, formula {formula}, Hurwitz {hurwitz}"
        )
    if args.format == "json":
        print(_dump({"n": n, "q": q, "p": p, "r": r, "genus": formula}))
    else:
        print(formula)
    return 0


def _cmd_spectrum(args) -> int:
    q, p, r = _resolve_q(args)
    n = args.n
    spec = full_spectrum(n, q)
    if args.format == "json":
        payload = {
            "n": n,
            "q": q,
            "p": p,
            "r": r,
            "multiplicities": {str(i): m for i, m in sorted(spec.multiplicities.items())},
            "total": spec.total(),
            "primitive_total": spec.primitive_total(),
        }
        print(_dump(payload))
    else:
        print(f"n = {n}  q = {_q_text(q, p, r)}")
        for i in sorted(spec.multiplicities):
            print(f"i={i}  mult={spec.multiplicities[i]}")
        print(f"total = {spec.total()}  primitive = {spec.primitive_total()}")
    return 0


def _cmd_decompose(args) -> int:
    q, p, r = _resolve_q(args)
    n = args.n
    levels = decomposition_ledger(n, q)
    genus = genus_formula(n, q)
    if args.format == "json":
        payload = {
            "n": n,
            "q": q,
            "p": p,
            "r": r,
            "levels": [lv.to_json() for lv in levels],
            "genus": genus,
        }
        print(_dump(payload))
    else:
        print(f"n = {n}  q = {_q_text(q, p, r)}")
        for lv in levels:
            print(f"level {lv.level}  modulus {lv.modulus}  new_dim {lv.new_dim}")
        print(f"genus = {genus}")
    return 0


def _cmd_endo(args) -> int:
    q, p, r = _resolve_q(args)
    desc = predict_end_algebra(args.n, q, args.galois)
    if args.format == "json":
        payload = desc.to_json()
        payload["p"] = p
        payload["r"] = r
        print(_dump(payload))
    else:
        print(f"n = {args.n}  q = {_q_text(q, p, r)}  galois = {args.galois}")
        print(f"algebra: {desc.label()}")
        if desc.integral:
            pieces = ", ".join(f"{ring} at level {m}" for m, ring in desc.integral)
            print(f"integral: {pieces}")
        print(f"reduced_dim = {desc.total_reduced_dim}")
    return 0


def _cmd_nonisotrivial(args) -> int:
    q, p, r = _resolve_q(args)
    forecast = predict_nonisotrivial(args.n, q, args.galois)
    if args.format == "json":
        payload = forecast.to_json()
        payload["p"] = p
        payload["r"] = r
        print(_dump(payload))
    else:
        print(f"n = {args.n}  q = {_q_text(q, p, r)}  galois = {args.galois}")
        fully = forecast.fully
        print(f"fully_nonisotrivial: {'unknown' if fully is None else str(fully).lower()}")
        for i, status in forecast.levels:
            print(f"level {i} (modulus {p**i}): {status}")
    return 0


def _cmd_cm_scan(args) -> int:
    if args.n is None and args.n_max is None:
        raise ValueError("need --n or --n-max")
    ns = [args.n] if args.n is not None else list(range(3, args.n_max + 1))
    for report in multiplier_sweep(ns, args.q_max):
        if args.format == "text":
            print(
                f"n={report.n} q={report.q} invariant_ms={list(report.invariant_ms)} "
                f"zero_set_ms={list(report.zero_set_ms)}"
            )
        else:
            print(_dump(report.to_json()))
    return 0


def _cmd_feasible_scan(args) -> int:
    for report in feasibility_sweep(args.n_max, args.q_max):
        if args.format == "text":
            print(
                f"n={report.n} q={report.q} feasible={report.feasible} "
                f"b_count={report.b_count} dim_w={report.dim_w}"
            )
        else:
            print(_dump(report.to_json()))
    return 0


def _parse_rational_poly(coeffs: list[Poly]) -> Poly | None:
    if any(c.degree > 0 for c in coeffs):
        return None
    return Poly([c.coeff(0) for c in coeffs])


def _cmd_galois(args) -> int:
    coeffs = parse_x_poly(args.poly)
    degree = len(coeffs) - 1
    rational = _parse_rational_poly(coeffs)
    if rational is not None:
        if degree == 3:
            label = classify_cubic_rational(rational)
        elif degree == 4:
            label = classify_quartic_rational(rational)
        else:
            raise ValueError(f"rational classification needs degree 3 or 4, got {degree}")
        payload = {
            "poly": rational.to_text(),
            "degree": degree,
            "route": "rational",
            "label": str(label),
        }
    else:
        base = t_linear_base(coeffs)
        if base is None:
            raise ValueError(
                "parametric input must have the exact shape g(x) - t with g over Q"
            )
        if base.degree == 3:
            label = classify_cubic_geometric(base)
        elif base.degree == 4:
            label = classify_quartic_geometric(base)
        else:
            raise ValueError(
                f"geometric classification needs degree 3 or 4, got {base.degree}"
            )
        payload = {
            "poly": f"{base.to_text()} - t",
            "degree": base.degree,
            "route": "geometric",
            "label": str(label),
            "disc_t": discriminant_in_t(base).to_text("t"),
        }
    if args.format == "json":
        print(_dump(payload))
    else:
        print(payload["label"])
    return 0


def _cmd_jinv(args) -> int:
    coeffs = parse_x_poly(args.poly)
    if len(coeffs) != 4:
        raise ValueError("need a cubic in x (the right-hand side of y^2 = cubic)")
    w = depress_cubic([RatFunc(c) for c in coeffs])
    j = j_invariant(w)
    if args.format == "json":
        payload = {
            "j": j.to_text(),
            "isotrivial": is_isotrivial(j),
            "a4": w.a4.to_text(),
            "a6": w.a6.to_text(),
            "absorbed_lc": w.absorbed_lc.to_text(),
        }
        print(_dump(payload))
    else:
        print(j.to_text())
    return 0


def _cmd_hp_check(args) -> int:
    holds = verify_prescribed_j_family()
    if args.format == "json":
        print(_dump({"holds": holds}))
    else:
        print(
            "prescribed-j identity holds: j(x^3 - cx - c) = a for c = 27a/(4(a - 1728))"
            if holds
            else "prescribed-j identity FAILED"
        )
    return 0 if holds else 1


def _cmd_model_check(args) -> int:
    q, p, r = _resolve_q(args)
    f = parse_q_poly(args.poly)
    n = f.degree
    validate_pair(n, q)
    if poly_gcd(f, f.derivative()).degree != 0:
        raise ValueError("polynomial has multiple roots")
    glue = gluing_exponents(n, q, f)
    identity = chart_identity_check(f, q)
    order = delta_chart_order(n, q)
    genus = hurwitz_genus(n, q)
    if args.format == "json":
        payload = {
            "n": n,
            "q": q,
            "p": p,
            "r": r,
            "a": glue.a,
            "b": glue.b,
            "reversed_f": glue.reversed_f.to_text(),
            "identity": identity,
            "delta_order": order,
            "genus": genus,
        }
        print(_dump(payload))
    else:
        print(f"n = {n}  q = {_q_text(q, p, r)}")
        print(f"a = {glue.a}  b = {glue.b}")
        print(f"identity: {str(identity).lower()}")
        print(f"delta_order = {order}")
        print(f"genus = {genus}")
    if not identity:
        raise AssertionError("two-chart identity failed")
    if order != q:
        raise AssertionError(f"chart automorphism order {order} != q")
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
    dim = heart_centralizer_dim(group, args.p)
    transitive = is_doubly_transitive(group)
    if args.format == "json":
        payload = {
            "degree": group.degree,
            "group": name,
            "p": args.p,
            "commutant_dim": dim,
            "doubly_transitive": transitive,
        }
        print(_dump(payload))
    else:
        print(f"group {name} on {group.degree} points, p = {args.p}")
        print(f"commutant_dim = {dim}")
        print(f"doubly_transitive: {str(transitive).lower()}")
    return 0


def _cmd_verify_all(args) -> int:
    results = run_all()
    if args.format == "json":
        payload = [
            {
                "number": res.number,
                "title": res.title,
                "passed": res.passed,
                "detail": res.detail,
            }
            for res in results
        ]
        print(_dump(payload))
    else:
        for res in results:
            print(res.line())
        passed = sum(1 for res in results if res.passed)
        print(f"{passed}/{len(results)} criteria passed")
    return 0 if all(res.passed for res in results) else 1


# ---- argument plumbing ----


def _add_format(sub, default="text"):
    sub.add_argument("--format", choices=("text", "json"), default=default)


def _add_pair(sub):
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--q", type=int)
    sub.add_argument("--p", type=int)
    sub.add_argument("--r", type=int)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seljac",
        description="Endomorphism-algebra bookkeeping for superelliptic jacobians y^q = f(x).",
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)

    sub = subs.add_parser("genus", help="genus of y^q = f(x) for deg f = n")
    _add_pair(sub)
    _add_format(sub)
    sub.set_defaults(handler=_cmd_genus)

    sub = subs.add_parser("spectrum", help="eigenvalue multiplicities on differentials")
    _add_pair(sub)
    _add_format(sub)
    sub.set_defaults(handler=_cmd_spectrum)

    sub = subs.add_parser("decompose", help="cyclotomic level ledger of the jacobian")
    _add_pair(sub)
    _add_format(sub)
    sub.set_defaults(handler=_cmd_decompose)

    sub = subs.add_parser("endo", help="predicted endomorphism algebra")
    _add_pair(sub)
    sub.add_argument("--galois", required=True, help="Galois label (S3, S4, A4)")
    _add_format(sub)
    sub.set_defaults(handler=_cmd_endo)

    sub = subs.add_parser("nonisotrivial", help="per-level isotriviality forecast")
    _add_pair(sub)
    sub.add_argument("--galois", required=True)
    _add_format(sub)
    sub.set_defaults(handler=_cmd_nonisotrivial)

    sub = subs.add_parser("cm-scan", help="invariant-multiplier sweep (newline JSON)")
    sub.add_argument("--n", type=int)
    sub.add_argument("--n-max", type=int, dest="n_max")
    sub.add_argument("--q-max", type=int, required=True, dest="q_max")
    _add_format(sub, default="json")
    sub.set_defaults(handler=_cmd_cm_scan)

    sub = subs.add_parser("feasible-scan", help="square-case feasibility sweep (newline JSON)")
    sub.add_argument("--n-max", type=int, required=True, dest="n_max")
    sub.add_argument("--q-max", type=int, required=True, dest="q_max")
    _add_format(sub, default="json")
    sub.set_defaults(handler=_cmd_feasible_scan)

    sub = subs.add_parser("galois", help="Galois group of a cubic/quartic (or g(x) - t family)")
    sub.add_argument("--poly", required=True)
    _add_format(sub)
    sub.set_defaults(handler=_cmd_galois)

    sub = subs.add_parser("jinv", help="j-invariant of y^2 = cubic")
    sub.add_argument("--poly", required=True)
    _add_format(sub)
    sub.set_defaults(handler=_cmd_jinv)

    sub = subs.add_parser("hp-check", help="symbolic prescribed-j family identity")
    _add_format(sub)
    sub.set_defaults(handler=_cmd_hp_check)

    sub = subs.add_parser("model-check", help="two-chart model identity for y^q = f(x)")
    sub.add_argument("--poly", required=True)
    sub.add_argument("--q", type=int)
    sub.add_argument("--p", type=int)
    sub.add_argument("--r", type=int)
    _add_format(sub)
    sub.set_defaults(handler=_cmd_model_check)

    sub = subs.add_parser("heart", help="commutant dimension on the sum-zero module")
    sub.add_argument("--n", type=int)
    sub.add_argument("--galois")
    sub.add_argument("--p", type=int, required=True)
    _add_format(sub)
    sub.set_defaults(handler=_cmd_heart)

    sub = subs.add_parser("verify-all", help="run the full acceptance suite")
    _add_format(sub)
    sub.set_defaults(handler=_cmd_verify_all)

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
