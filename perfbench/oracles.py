"""Output checks that do not come from the code under test.

Closed forms, the harness's own prime-power table and sympy stand in for
seljac. They run in the harness process after a pass has been timed, so
neither their time nor sympy's memory reaches the measured children.
Each check says what is wrong; saying nothing means the output is right.
"""
from __future__ import annotations

import itertools
import json
import re
from fractions import Fraction
from functools import lru_cache


def prime_powers(limit: int) -> list[tuple[int, int, int]]:
    """(q, p, r) for every prime power q <= limit, ascending, from a
    smallest-prime-factor table."""
    spf = list(range(limit + 1))
    for d in range(2, int(limit**0.5) + 1):
        if spf[d] == d:
            for m in range(d * d, limit + 1, d):
                if spf[m] == m:
                    spf[m] = d
    out = []
    for q in range(2, limit + 1):
        p, m, r = spf[q], q, 0
        while m % p == 0:
            m //= p
            r += 1
        if m == 1:
            out.append((q, p, r))
    return out


def coprime_pairs(n_lo: int, n_hi: int, q_max: int) -> list[tuple[int, int, int, int]]:
    """(n, q, p, r) in scan order: n ascending, then q ascending, p not dividing n."""
    pps = prime_powers(q_max)
    return [(n, q, p, r) for n in range(n_lo, n_hi + 1) for q, p, r in pps if n % p]


def _primitive_count(lo: int, hi: int, p: int) -> int:
    """Integers in [lo, hi] not divisible by p."""
    if hi < lo:
        return 0
    return (hi - lo + 1) - (hi // p - (lo - 1) // p)


def feasibility_expected(n: int, q: int, p: int, r: int) -> dict:
    """The feasible-scan record of (n, q) in closed form.

    B holds the primitive i with n*i >= q, i.e. i from floor(q/n) + 1 to
    q - 1. Its multiplicities floor(n*i/q) lie in 1..n-1, so n-1 divides
    all of them exactly when none falls below n-1, i.e. when no primitive
    i lies in [floor(q/n) + 1, ceil((n-1)q/n) - 1]."""
    first = q // n + 1
    b_count = _primitive_count(first, q - 1, p)
    divisible = _primitive_count(first, -(-(n - 1) * q // n) - 1, p) == 0
    dim_w = Fraction(q - q // p, 2)
    feasible = dim_w.denominator == 1 and b_count <= dim_w and divisible
    return {
        "n": n,
        "q": q,
        "p": p,
        "r": r,
        "b_count": b_count,
        "dim_w": str(dim_w),
        "divisibility_ok": divisible,
        "feasible": feasible,
    }


# ---- verify ----

CRITERIA = 11
_CRITERION_LINE = re.compile(r"^criterion\s+(\d+) \[(PASS|FAIL)\]", re.M)


def check_verify(code: int, out: str) -> tuple[int, list[str]]:
    """(failed criteria, problems) for one verify-all run: exit code 0 and
    one PASS line for each of the 11 criteria."""
    passed = {int(k) for k, status in _CRITERION_LINE.findall(out) if status == "PASS"}
    problems = [f"criterion {k} did not pass" for k in range(1, CRITERIA + 1) if k not in passed]
    if code != 0:
        problems.append(f"verify-all exited {code}")
    return CRITERIA - len(passed & set(range(1, CRITERIA + 1))), problems


# ---- sweep ----


def _records(out: str) -> list[dict]:
    return [json.loads(line) for line in out.splitlines() if line.strip()]


def check_cm_scan(out: str, n_max: int, q_max: int) -> tuple[int, int, list[str]]:
    """(records, failed records, problems): one record per coprime pair in
    scan order, every function-level multiplier set empty, zero-set
    multipliers primitive residues in 2..q-1."""
    expected = coprime_pairs(3, n_max, q_max)
    return _check_scan(_records(out), expected, _cm_record_problem)


def _cm_record_problem(rec: dict, n: int, q: int, p: int, r: int) -> str | None:
    if (rec.get("p"), rec.get("r")) != (p, r):
        return f"p, r wrong at {(n, q)}"
    if rec.get("invariant_ms") != []:
        return f"invariant multipliers at {(n, q)}"
    if any(not (1 < m < q) or m % p == 0 for m in rec.get("zero_set_ms", [None])):
        return f"zero-set multiplier out of range at {(n, q)}"
    return None


def check_feasible_scan(out: str, n_max: int, q_max: int) -> tuple[int, int, list[str]]:
    """(records, failed records, problems): one record per coprime pair,
    each equal to its closed form, so feasible holds exactly at (3, 4)."""
    expected = coprime_pairs(3, n_max, q_max)
    records, failed, problems = _check_scan(_records(out), expected, _feasible_record_problem)
    feasible = [(rec["n"], rec["q"]) for rec in _records(out) if rec.get("feasible")]
    if feasible != [(3, 4)]:
        problems.append(f"feasible set {feasible[:5]} is not [(3, 4)]")
    return records, failed, problems


def _feasible_record_problem(rec: dict, n: int, q: int, p: int, r: int) -> str | None:
    want = feasibility_expected(n, q, p, r)
    if rec != want:
        return f"record {rec} != {want}"
    return None


def _check_scan(records, expected, record_problem) -> tuple[int, int, list[str]]:
    problems = []
    failed = 0
    got_pairs = [(rec.get("n"), rec.get("q")) for rec in records]
    want_pairs = [(n, q) for n, q, _, _ in expected]
    if got_pairs != want_pairs:
        missing = set(want_pairs) - set(got_pairs)
        extra = set(got_pairs) - set(want_pairs)
        problems.append(
            f"pair set differs: {len(missing)} missing, {len(extra)} unexpected, "
            f"{len(got_pairs)} records for {len(want_pairs)} pairs"
        )
        failed += len(missing) + len(extra)
    by_pair = {(rec.get("n"), rec.get("q")): rec for rec in records}
    for n, q, p, r in expected:
        rec = by_pair.get((n, q))
        if rec is None:
            continue
        problem = record_problem(rec, n, q, p, r)
        if problem:
            failed += 1
            if len(problems) < 5:
                problems.append(problem)
    return max(len(records), len(expected)), failed, problems


# ---- queries ----


@lru_cache(maxsize=None)
def _sympy():
    import sympy
    from sympy.polys.numberfields.galoisgroups import galois_group

    return sympy, galois_group, sympy.Symbol("x"), sympy.Symbol("t")


def _expr(text: str):
    sympy, _, x, t = _sympy()
    return sympy.sympify(text.replace("^", "**"), locals={"x": x, "t": t})


def _qpoly(coeffs, t_coeffs=None):
    sympy, _, x, t = _sympy()
    t_coeffs = t_coeffs or [0] * len(coeffs)
    return sympy.Poly(
        sum((c + v * t) * x**k for k, (c, v) in enumerate(zip(coeffs, t_coeffs))), x
    )


def _is_squarefree(poly) -> bool:
    return poly.gcd(poly.diff()).degree() == 0


def galois_label(coeffs: list[int]) -> str:
    """Galois group over Q of a squarefree cubic or quartic, by sympy."""
    sympy, galois_group, x, _ = _sympy()
    poly = _qpoly(coeffs)
    _, factors = poly.factor_list()
    if len(factors) > 1 or factors[0][1] > 1:
        return "Reducible"
    group, _ = galois_group(poly, x)
    order = group.order()
    if poly.degree() == 3:
        return {6: "S3", 3: "C3"}[order]
    if order == 4:
        return "C4" if group.is_cyclic else "V4"
    return {24: "S4", 12: "A4", 8: "D4"}[order]


def geometric_label(coeffs: list[int]) -> tuple[str, object]:
    """(label, disc_x(g - t)) for g(x) - t over the closure of Q(t): the
    group is the alternating one exactly when the discriminant, a
    polynomial in t, is a square there, i.e. every root has even
    multiplicity and the degree is even."""
    sympy, _, x, t = _sympy()
    g = sum(c * x**k for k, c in enumerate(coeffs))
    disc = sympy.Poly(sympy.discriminant(g - t, x), t)
    _, factors = disc.sqf_list()
    square = disc.degree() % 2 == 0 and all(m % 2 == 0 for _, m in factors)
    degree = len(coeffs) - 1
    return ({3: "C3", 4: "A4"} if square else {3: "S3", 4: "S4"})[degree], disc


def _check_galois(query, code, payload) -> str | None:
    coeffs = query["coeffs"]
    sympy, _, x, t = _sympy()
    if query["route"] == "rational" and not _is_squarefree(_qpoly(coeffs)):
        return None if code == 2 else f"non-squarefree input exited {code}, not 2"
    if code != 0:
        return f"exited {code}"
    if query["route"] == "rational":
        want = galois_label(coeffs)
        if sympy.expand(_expr(payload["poly"]) - _qpoly(coeffs).as_expr()) != 0:
            return f"echoed poly {payload['poly']!r} differs from the input"
    else:
        want, disc = geometric_label(coeffs)
        if sympy.expand(_expr(payload["disc_t"]) - disc.as_expr()) != 0:
            return f"disc_t {payload['disc_t']!r} != {disc.as_expr()}"
    if payload.get("label") != want:
        return f"label {payload.get('label')} != {want}"
    return None


def j_invariant(coeffs, t_coeffs):
    """j of y^2 = a x^3 + b x^2 + c x + d as 256 (b^2 - 3ac)^3 / (a^2 disc),
    or None when the cubic is singular."""
    sympy, _, x, _ = _sympy()
    f = _qpoly(coeffs, t_coeffs)
    d, c, b, a = (f.coeff_monomial(x**k) for k in range(4))
    disc = sympy.discriminant(f.as_expr(), x)
    if sympy.expand(disc) == 0:
        return None
    return sympy.cancel(256 * (b * b - 3 * a * c) ** 3 / (a * a * disc))


def _check_jinv(query, code, payload) -> str | None:
    sympy, _, _, t = _sympy()
    want = j_invariant(query["coeffs"], query["t_coeffs"])
    if want is None:
        return None if code == 2 else f"singular cubic exited {code}, not 2"
    if code != 0:
        return f"exited {code}"
    if sympy.cancel(_expr(payload["j"]) - want) != 0:
        return f"j {payload['j']!r} != {want}"
    if payload["isotrivial"] != (t not in want.free_symbols):
        return f"isotrivial {payload['isotrivial']} is wrong"
    return None


def _pq(q: int) -> tuple[int, int]:
    """(p, r) with q = p^r, by trial division."""
    p = next((d for d in range(2, int(q**0.5) + 1) if q % d == 0), q)
    m, r = q, 0
    while m % p == 0:
        m //= p
        r += 1
    if m != 1:
        raise ValueError(f"{q} is not a prime power")
    return p, r


def _check_model(query, code, payload) -> str | None:
    sympy, _, x, _ = _sympy()
    f = _qpoly(query["coeffs"])
    if not _is_squarefree(f):
        return None if code == 2 else f"non-squarefree input exited {code}, not 2"
    if code != 0:
        return f"exited {code}"
    n, q = f.degree(), query["q"]
    p, r = _pq(q)
    b = pow(n, -1, q)
    want = {
        "n": n,
        "q": q,
        "p": p,
        "r": r,
        "a": (b * n - 1) // q,
        "b": b,
        "identity": True,
        "delta_order": q,
        "genus": (n - 1) * (q - 1) // 2,
    }
    got = {k: payload.get(k) for k in want}
    if got != want:
        return f"{got} != {want}"
    reversed_f = sympy.expand(x**n * f.as_expr().subs(x, 1 / x))
    if sympy.expand(_expr(payload["reversed_f"]) - reversed_f) != 0:
        return f"reversed_f {payload['reversed_f']!r} != {reversed_f}"
    return None


def _check_genus(query, code, payload) -> str | None:
    n, q = query["n"], query["q"]
    p, r = _pq(q)
    want = {"n": n, "q": q, "p": p, "r": r, "genus": (n - 1) * (q - 1) // 2}
    return None if payload == want else f"{payload} != {want}"


def _check_spectrum(query, code, payload) -> str | None:
    n, q = query["n"], query["q"]
    p, r = _pq(q)
    mult = payload.pop("multiplicities", None)
    if mult != {str(i): n * i // q for i in range(1, q)}:
        return "multiplicities differ from floor(n*i/q)"
    want = {
        "n": n,
        "q": q,
        "p": p,
        "r": r,
        "total": (n - 1) * (q - 1) // 2,
        "primitive_total": (n - 1) * (q - q // p) // 2,
    }
    return None if payload == want else f"{payload} != {want}"


def _levels(n: int, p: int, r: int) -> list[dict]:
    return [
        {"level": i, "modulus": p**i, "new_dim": (n - 1) * (p**i - p ** (i - 1)) // 2}
        for i in range(1, r + 1)
    ]


def _check_decompose(query, code, payload) -> str | None:
    n, q = query["n"], query["q"]
    p, r = _pq(q)
    want = {
        "n": n, "q": q, "p": p, "r": r,
        "levels": _levels(n, p, r),
        "genus": (n - 1) * (q - 1) // 2,
    }
    return None if payload == want else f"{payload} != {want}"


def _check_endo(query, code, payload) -> str | None:
    """The paper's table: level p^i contributes Q(zeta_{p^i}) with order
    Z[zeta_{p^i}], except (n, p^i) = (3, 2) gives Q with Z and (3, 4) gives
    Mat_2(Q(zeta_4))."""
    n, q = query["n"], query["q"]
    p, r = _pq(q)
    factors, integral = [], []
    for i in range(1, r + 1):
        m = p**i
        if (n, m) == (3, 2):
            factors.append({"kind": "Q"})
            integral.append({"modulus": 2, "ring": "Z"})
        elif (n, m) == (3, 4):
            factors.append({"kind": "matrix", "size": 2, "modulus": 4})
        else:
            factors.append({"kind": "cyclotomic", "modulus": m})
            integral.append({"modulus": m, "ring": f"Z[zeta_{m}]"})
    want = {
        "n": n, "q": q, "p": p, "r": r,
        "factors": factors,
        "levels": _levels(n, p, r),
        "integral": integral,
        "asserted": True,
    }
    return None if payload == want else f"{payload} != {want}"


def _group(label: str | None, degree: int) -> list[tuple[int, ...]]:
    """All elements of the group's natural action on 0..degree-1."""
    perms = list(itertools.permutations(range(degree)))
    if label is None:
        return [tuple(range(degree))]
    if label in ("S3", "S4"):
        return perms
    if label == "A4":
        return [g for g in perms if _even(g)]
    if label in ("C3", "C4"):
        return [tuple((i + k) % degree for i in range(degree)) for k in range(degree)]
    if label == "V4":
        return [(0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)]
    if label == "D4":
        return [tuple((s * i + k) % 4 for i in range(4)) for k in range(4) for s in (1, -1)]
    raise ValueError(f"no group for {label!r}")


def _even(perm) -> bool:
    inversions = sum(1 for i, j in itertools.combinations(range(len(perm)), 2) if perm[i] > perm[j])
    return inversions % 2 == 0


def _orbitals(group, degree: int) -> int:
    pairs = itertools.product(range(degree), repeat=2)
    return len({frozenset((g[a], g[b]) for g in group) for a, b in pairs})


def _check_heart(query, code, payload) -> str | None:
    """A transitive group of degree n acts on the permutation module with
    commutant dimension equal to its number of orbits on ordered pairs;
    for p not dividing n the module is the trivial one plus the sum-zero
    one, so the sum-zero commutant has one dimension less. The trivial
    group's commutant is the full (n-1)^2 matrix algebra."""
    label, degree = query["label"], query["degree"]
    orbitals = _orbitals(_group(label, degree), degree)
    want = {
        "degree": degree,
        "group": label or f"trivial({degree})",
        "p": query["p"],
        "commutant_dim": (degree - 1) ** 2 if label is None else orbitals - 1,
        "doubly_transitive": orbitals == 2,
    }
    return None if payload == want else f"{payload} != {want}"


_CHECKS = {
    "galois": _check_galois,
    "jinv": _check_jinv,
    "model-check": _check_model,
    "genus": _check_genus,
    "spectrum": _check_spectrum,
    "decompose": _check_decompose,
    "endo": _check_endo,
    "heart": _check_heart,
}
_OWN_EXIT_CODE = {"galois", "jinv", "model-check"}


def check_query(query: dict, code: int, out: str) -> str | None:
    """None when the CLI's exit code and output are right for the query,
    else what is wrong."""
    kind = query["kind"]
    if kind == "invalid":
        if code != 2 or out:
            return f"invalid input exited {code} with output {out[:80]!r}"
        return None
    if code != 0 and kind not in _OWN_EXIT_CODE:
        return f"exited {code}"
    try:
        payload = json.loads(out) if code == 0 else None
    except json.JSONDecodeError:
        return f"output is not one JSON object: {out[:80]!r}"
    return _CHECKS[kind](query, code, payload)
