"""Per-layer metrics of the traced run, computed from span totals.

Each entry names the spans (or counter) it reads, the workloads on which it
must be nonzero (a traced run fails otherwise), and the end-to-end metric
it should move, on which workload. Every time except the acceptance
criteria is a self time, so the times of one workload add up to no more
than its traced wall time; the criteria are inclusive, as verify-all
reports them. A generator's body runs in the caller's span.
"""
from __future__ import annotations

from typing import NamedTuple

ALL = ("verify", "sweep", "queries")
SCANS = ("verify", "sweep")


class Layer(NamedTuple):
    name: str
    unit: str
    kind: str  # "self", "total", "calls", "counter", "hit_ratio" or "harness"
    keys: tuple[str, ...]
    required: tuple[str, ...]
    moves: str


def _l(name, unit, kind, keys, required, moves):
    if isinstance(keys, str):
        keys = (keys,)
    return Layer(name, unit, kind, tuple(keys), required, moves)


_KERNELS = ("kernels.multiplier_scan", "kernels.feasibility_counts")
_OBSTRUCTION = (
    "obstruction.invariant_automorphisms",
    "obstruction.square_case_feasible",
)
_SCAN_MOVES = (
    "wall_cal_s and ops_per_cal_s on sweep; wall_cal_s on verify by at most its share; "
    "nothing on queries"
)
_POLY_Q_MOVES = "op_p50_cal_ms and ops_per_cal_s on queries; nothing on sweep"
_GALOIS_MOVES = "ops_per_cal_s on queries"
_LATTICE_MOVES = "peak_rss_mb and op_tail_cal_ms on queries; nothing on verify"

LAYERS = (
    _l("kernels.multiplier_scan_s", "s", "self", _KERNELS[0], SCANS, _SCAN_MOVES),
    _l("kernels.feasibility_counts_s", "s", "self", _KERNELS[1], SCANS, _SCAN_MOVES),
    _l("kernels.calls", "count", "calls", _KERNELS, SCANS, _SCAN_MOVES),
    _l("kernels.multipliers_tested", "count", "counter", "kernels.multipliers_tested", SCANS,
       _SCAN_MOVES),
    _l("kernels.multipliers_found", "count", "counter", "kernels.multipliers_found", SCANS,
       "nothing by itself: with multipliers_tested it shows wasted scan work"),
    _l("kernels.hit_ratio", "ratio", "hit_ratio", (), SCANS,
       "nothing by itself: found / tested, the useful share of scan work"),
    _l("obstruction.pairs", "count", "calls", _OBSTRUCTION, SCANS, _SCAN_MOVES),
    _l("obstruction.self_s", "s", "self", _OBSTRUCTION + (
        "obstruction.multiplier_sweep", "obstruction.feasibility_sweep"), SCANS, _SCAN_MOVES),
    _l("arith.prime_power_calls", "count", "calls", "arith.prime_power", ALL,
       "ops_per_cal_s on sweep"),
    _l("arith.prime_power_s", "s", "self", "arith.prime_power", ALL, "ops_per_cal_s on sweep"),
    _l("arith.prime_powers_upto_s", "s", "self", "arith.prime_powers_upto", SCANS,
       "ops_per_cal_s on sweep"),
    _l("poly.mul_calls", "count", "calls", ("poly.Poly.__mul__", "poly.Poly.__rmul__"),
       ("verify",), "wall_cal_s on verify"),
    _l("poly.mul_s", "s", "self", ("poly.Poly.__mul__", "poly.Poly.__rmul__"), ("verify",),
       "wall_cal_s on verify"),
    _l("poly.mul_coeff_products", "count", "counter", "poly.mul_coeff_products", ("verify",),
       "wall_cal_s on verify"),
    _l("decompose.factor_geometric_poly_s", "s", "self", "decompose.factor_geometric_poly",
       ("verify",), "wall_cal_s on verify"),
    _l("poly.divmod_s", "s", "self", "poly.Poly.__divmod__", ("queries",), _POLY_Q_MOVES),
    _l("poly.gcd_s", "s", "self", "poly.poly_gcd", ("queries",), _POLY_Q_MOVES),
    _l("poly.resultant_s", "s", "self", "poly.resultant", ("queries",), _POLY_Q_MOVES),
    _l("poly.discriminant_s", "s", "self", "poly.discriminant", ("queries",), _POLY_Q_MOVES),
    _l("poly.squarefree_s", "s", "self", "poly.squarefree_decomposition", ("queries",),
       _POLY_Q_MOVES),
    _l("poly.interpolate_s", "s", "self", "poly.lagrange_interpolate", ("queries",),
       _POLY_Q_MOVES),
    _l("ratfunc.init_calls", "count", "calls", "ratfunc.RatFunc.__init__", ("queries",),
       _POLY_Q_MOVES),
    _l("ratfunc.init_s", "s", "self", "ratfunc.RatFunc.__init__", ("queries",), _POLY_Q_MOVES),
    _l("galois.classify_s", "s", "self", (
        "galois.classify_cubic_rational",
        "galois.classify_quartic_rational",
        "galois.classify_cubic_geometric",
        "galois.classify_quartic_geometric",
    ), ("queries",), _GALOIS_MOVES),
    _l("galois.rational_roots_s", "s", "self", "galois.rational_roots", ("queries",),
       "ops_per_cal_s and op_tail_cal_ms on queries"),
    _l("galois.discriminant_in_t_s", "s", "self", "galois.discriminant_in_t", ("queries",),
       _GALOIS_MOVES),
    _l("galois.square_test_s", "s", "self", "galois.geometric_square_test", ("queries",),
       _GALOIS_MOVES),
    _l("elliptic.depress_cubic_s", "s", "self", "elliptic.depress_cubic", ("queries",),
       _GALOIS_MOVES),
    _l("elliptic.j_invariant_s", "s", "self", "elliptic.j_invariant", ("queries",),
       _GALOIS_MOVES),
    _l("lattice.interior_points_s", "s", "self", "lattice.interior_points", ("queries",),
       _LATTICE_MOVES),
    _l("lattice.points_enumerated", "count", "counter", "lattice.points_enumerated",
       ("queries",), _LATTICE_MOVES),
    _l("lattice.full_spectrum_s", "s", "self", "lattice.full_spectrum", ("queries",),
       _LATTICE_MOVES),
    _l("lattice.spectrum_entries", "count", "counter", "lattice.spectrum_entries",
       ("queries",), _LATTICE_MOVES),
    _l("model.chart_identity_s", "s", "self", "model.chart_identity_check", ("queries",),
       "ops_per_cal_s on queries"),
    _l("heart.centralizer_s", "s", "self", "heart.heart_centralizer_dim", ("queries",),
       "ops_per_cal_s on queries"),
    _l("fpmatrix.rank_s", "s", "self", "fpmatrix.rank_fp", ("queries",),
       "ops_per_cal_s on queries"),
    _l("parse.s", "s", "self", (
        "parse.parse_x_poly", "parse.parse_q_poly", "parse.t_linear_base"), ("queries",),
       "op_p50_cal_ms on queries"),
    _l("cli.handler_self_s", "s", "self", ("cli._cmd_*",), ALL,
       "ops_per_cal_s on sweep (per-record JSON output)"),
    *(
        _l(f"acceptance.criterion_{k:02d}_s", "s", "total", f"acceptance.criterion_{k}",
           ("verify",), "wall_cal_s on verify")
        for k in range(1, 12)
    ),
    _l("setup.import_seljac_s", "s", "harness", (), ALL, "setup_s on every workload"),
    _l("trace.overhead_s", "s", "harness", (), (),
       "nothing: traced wall time minus untraced wall time"),
)


def _expand(keys: tuple[str, ...], totals: dict) -> list[str]:
    out = []
    for key in keys:
        if key.endswith("*"):
            out.extend(k for k in totals if k.startswith(key[:-1]))
        else:
            out.append(key)
    return out


def layer_values(totals: dict, counters: dict, harness: dict) -> dict[str, float]:
    """{metric name: value} for every layer, from one traced pass."""
    values = {}
    for layer in LAYERS:
        keys = _expand(layer.keys, totals)
        recs = [totals.get(k, {"calls": 0, "self_s": 0.0, "total_s": 0.0}) for k in keys]
        if layer.kind == "self":
            values[layer.name] = sum(r["self_s"] for r in recs)
        elif layer.kind == "total":
            values[layer.name] = sum(r["total_s"] for r in recs)
        elif layer.kind == "calls":
            values[layer.name] = sum(r["calls"] for r in recs)
        elif layer.kind == "counter":
            values[layer.name] = sum(counters.get(k, 0) for k in keys)
        elif layer.kind == "hit_ratio":
            tested = counters.get("kernels.multipliers_tested", 0)
            found = counters.get("kernels.multipliers_found", 0)
            values[layer.name] = found / tested if tested else 0.0
        else:
            values[layer.name] = harness[layer.name]
    return values


# Functions each workload is known to call; a traced run in which one of
# them records no call has lost a wrapper and fails.
KNOWN_USED = {
    "verify": (
        "acceptance.run_all",
        *(f"acceptance.criterion_{k}" for k in range(1, 12)),
        "kernels.multiplier_scan",
        "kernels.feasibility_counts",
        "obstruction.invariant_automorphisms",
        "obstruction.square_case_feasible",
        "arith.prime_powers_upto",
        "arith.prime_power",
        "poly.Poly.__mul__",
        "decompose.factor_geometric_poly",
        "lattice.interior_points",
        "model.chart_identity_check",
        "cli._cmd_verify_all",
    ),
    "sweep": (
        "kernels.multiplier_scan",
        "kernels.feasibility_counts",
        "obstruction.invariant_automorphisms",
        "obstruction.square_case_feasible",
        "obstruction.multiplier_sweep",
        "obstruction.feasibility_sweep",
        "arith.prime_power",
        "arith.prime_powers_upto",
        "lattice.validate_pair",
        "cli._cmd_cm_scan",
        "cli._cmd_feasible_scan",
    ),
    "queries": (
        "poly.Poly.__divmod__",
        "poly.poly_gcd",
        "poly.resultant",
        "poly.discriminant",
        "poly.squarefree_decomposition",
        "poly.lagrange_interpolate",
        "ratfunc.RatFunc.__init__",
        "galois.classify_cubic_rational",
        "galois.classify_quartic_rational",
        "galois.classify_cubic_geometric",
        "galois.classify_quartic_geometric",
        "galois.rational_roots",
        "galois.discriminant_in_t",
        "galois.geometric_square_test",
        "elliptic.depress_cubic",
        "elliptic.j_invariant",
        "lattice.interior_points",
        "lattice.full_spectrum",
        "model.chart_identity_check",
        "heart.heart_centralizer_dim",
        "fpmatrix.rank_fp",
        "parse.parse_x_poly",
        "parse.parse_q_poly",
        "parse.t_linear_base",
        "decompose.decomposition_ledger",
        "decompose.predict_end_algebra",
        "cli._cmd_galois",
        "cli._cmd_jinv",
        "cli._cmd_model_check",
        "cli._cmd_genus",
        "cli._cmd_spectrum",
        "cli._cmd_decompose",
        "cli._cmd_endo",
        "cli._cmd_heart",
    ),
}


def missing_work(workload: str, totals: dict, values: dict) -> list[str]:
    """Functions the workload is known to call that recorded no call, and
    layers it is known to exercise whose metric stayed zero."""
    out = [k for k in KNOWN_USED[workload] if not totals.get(k, {}).get("calls")]
    out += [l.name for l in LAYERS if workload in l.required and not values[l.name]]
    return out
