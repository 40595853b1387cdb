"""Spans around calls into seljac's public functions, recorded from outside
the package.

`install` wraps every public module-level function of every seljac module,
the cli subcommand handlers and the Poly/RatFunc operations the per-layer
metrics name. A function imported elsewhere with `from .x import y` is
patched at every such binding (and inside module-level tuples such as
`acceptance.CRITERIA`), so calls through any name land in the same span.

Spans are kept in flat arrays while the program runs and reduced to
per-function totals when it ends: the self time of a span is its duration
minus the durations of its direct children (one thread, so children never
overlap).
"""
from __future__ import annotations

import functools
import importlib
import time
from array import array
from collections import Counter

SELJAC_MODULES = (
    "arith",
    "poly",
    "ratfunc",
    "parse",
    "fpmatrix",
    "heart",
    "lattice",
    "galois",
    "elliptic",
    "decompose",
    "model",
    "kernels",
    "obstruction",
    "acceptance",
    "cli",
)

# Backend modules whose functions are public only through seljac.kernels.
_KERNEL_BACKENDS = ("seljac._kernels_py", "seljac._speedups")

# (class path, method) pairs traced in addition to module-level functions.
_METHODS = (
    ("poly.Poly", "__mul__"),
    ("poly.Poly", "__rmul__"),
    ("poly.Poly", "__divmod__"),
    ("ratfunc.RatFunc", "__init__"),
)


class Tracer:
    """Records one span per wrapped call: key id, parent span, start, end."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.keys: list[str] = []
        self._key_ids: dict[str, int] = {}
        self.key_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: Counter = Counter()
        self._stack: list[int] = []

    def key_id(self, key: str) -> int:
        kid = self._key_ids.get(key)
        if kid is None:
            kid = self._key_ids[key] = len(self.keys)
            self.keys.append(key)
        return kid

    def wrap(self, key: str, fn, count=None):
        """A callable that runs fn inside a span named key; count, when
        given, is called as count(counters, args, result) after the call."""
        kid = self.key_id(key)
        clock = self.clock
        stack = self._stack
        key_of, parent, start, end = self.key_of, self.parent, self.start, self.end
        counters = self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            key_of.append(kid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if count is not None:
                count(counters, args, result)
            return result

        return traced

    def totals(self) -> dict[str, dict]:
        """Per key: calls, self seconds, and outermost inclusive seconds."""
        return span_totals(self.keys, self.key_of, self.parent, self.start, self.end)


def span_totals(keys, key_of, parent, start, end) -> dict[str, dict]:
    """Reduce spans to {key: {"calls", "self_s", "total_s"}}.

    self_s sums each span's duration minus its direct children's. total_s
    sums durations of spans with no ancestor of the same key, so a
    recursive function's time is not counted once per level.
    """
    n = len(start)
    child = [0.0] * n
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child[p] += end[i] - start[i]
    out = {k: {"calls": 0, "self_s": 0.0, "total_s": 0.0} for k in keys}
    for i in range(n):
        rec = out[keys[key_of[i]]]
        dur = end[i] - start[i]
        rec["calls"] += 1
        rec["self_s"] += dur - child[i]
        kid = key_of[i]
        p = parent[i]
        while p >= 0 and key_of[p] != kid:
            p = parent[p]
        if p < 0:
            rec["total_s"] += dur
    return out


def _count_multiplier_scan(counters, args, result):
    _n, q, p = args[:3]
    counters["kernels.multipliers_tested"] += (q - q // p) - 1
    counters["kernels.multipliers_found"] += len(result[1])


def _nonzeros(v) -> int:
    coeffs = getattr(v, "coeffs", None)
    if coeffs is None:
        return 1
    return sum(1 for c in coeffs if c)


def _count_poly_mul(counters, args, result):
    counters["poly.mul_coeff_products"] += _nonzeros(args[0]) * _nonzeros(args[1])


def _count_interior_points(counters, args, result):
    counters["lattice.points_enumerated"] += len(result)


def _count_full_spectrum(counters, args, result):
    counters["lattice.spectrum_entries"] += len(result.multiplicities)


_COUNTERS = {
    "kernels.multiplier_scan": _count_multiplier_scan,
    "poly.Poly.__mul__": _count_poly_mul,
    "poly.Poly.__rmul__": _count_poly_mul,
    "lattice.interior_points": _count_interior_points,
    "lattice.full_spectrum": _count_full_spectrum,
}


def install(tracer: Tracer) -> None:
    """Wrap seljac's public functions in place, recording into tracer."""
    modules = {name: importlib.import_module(f"seljac.{name}") for name in SELJAC_MODULES}
    package = importlib.import_module("seljac")

    originals: dict[int, tuple[str, object]] = {}
    for short, mod in modules.items():
        for attr, value in vars(mod).items():
            handler = short == "cli" and attr.startswith("_cmd_")
            if attr.startswith("_") and not handler:
                continue
            if not callable(value) or isinstance(value, type):
                continue
            home = getattr(value, "__module__", None)
            if home == mod.__name__ or (short == "kernels" and home in _KERNEL_BACKENDS):
                originals.setdefault(id(value), (f"{short}.{attr}", value))

    wrappers = {
        fid: tracer.wrap(key, fn, _COUNTERS.get(key)) for fid, (key, fn) in originals.items()
    }

    # Rebind every name that holds an original, in every seljac module.
    for mod in (*modules.values(), package):
        for attr, value in list(vars(mod).items()):
            if id(value) in wrappers:
                setattr(mod, attr, wrappers[id(value)])
            elif isinstance(value, tuple) and any(id(v) in wrappers for v in value):
                setattr(mod, attr, tuple(wrappers.get(id(v), v) for v in value))

    for cls_path, method in _METHODS:
        mod_name, cls_name = cls_path.split(".")
        cls = getattr(modules[mod_name], cls_name)
        key = f"{mod_name}.{cls_name}.{method}"
        setattr(cls, method, tracer.wrap(key, vars(cls)[method], _COUNTERS.get(key)))
