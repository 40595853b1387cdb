"""Self-contained acceptance checks for the package, each returning a
structured result with its runtime. `run_all` runs them all once: it
drives the `verify-all` CLI subcommand, and the test suite calls it once
and checks each numbered result.

Every check is exact arithmetic; several carry wall-clock budgets that
are part of the contract (exhaustive sweeps must stay desk-scale). Each
check body returns (passed, detail); `_criterion` times it, fails it when
it reaches its budget, and builds the `CriterionResult`.
"""
from __future__ import annotations

import random
import time
from fractions import Fraction
from operator import add
from typing import NamedTuple

from .arith import euler_phi_prime_power, prime_powers_upto
from .decompose import decomposition_ledger, factor_geometric_poly, predict_end_algebra
from .elliptic import depress_cubic, is_isotrivial, j_invariant, verify_prescribed_j_family
from .galois import GaloisLabel, classify_cubic_geometric, classify_cubic_rational
from .heart import PermGroup, heart_centralizer_dim
from .lattice import coprime_pairs, full_spectrum, genus_formula, genus_lattice, validate_pair
from .model import chart_identity_check, delta_chart_order, hurwitz_genus
from .obstruction import feasibility_sweep, multiplier_sweep
from .poly import Poly, geometric_poly, poly_gcd
from .ratfunc import RatFunc


class CriterionResult(NamedTuple):
    number: int
    title: str
    passed: bool
    elapsed: float
    detail: str
    budget: float | None = None

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        timing = f"{self.elapsed:.3f}s"
        if self.budget is not None:
            timing += f" (budget {self.budget:g}s)"
        return f"criterion {self.number:2d} [{status}] {self.title}: {self.detail} [{timing}]"


def _criterion(number: int, title: str, budget: float | None = None):
    """Turn a check body returning (passed, detail) into criterion `number`:
    the result carries the body's runtime and fails when the runtime
    reaches the budget, keeping the body's detail."""

    def decorate(body):
        def run() -> CriterionResult:
            t0 = time.perf_counter()
            passed, detail = body()
            elapsed = time.perf_counter() - t0
            if budget is not None and elapsed >= budget:
                passed = False
            return CriterionResult(number, title, passed, elapsed, detail, budget)

        # No functools.wraps: a `__wrapped__` here would hide whether a
        # tracer has wrapped the criterion.
        run.__name__ = run.__qualname__ = body.__name__
        run.__doc__ = body.__doc__
        return run

    return decorate


@_criterion(1, "genus triple agreement", budget=2.0)
def criterion_1():
    """Genus triple agreement on the coprime sweep 3<=n<=30, q<=64."""
    bad = []
    count = 0
    for pair in coprime_pairs(range(3, 31), 64):
        count += 1
        n, q, _, _ = pair
        expected = (n - 1) * (q - 1) // 2
        values = (genus_lattice(pair), genus_formula(pair), hurwitz_genus(pair))
        if any(v != expected for v in values):
            bad.append((n, q, values))
    if bad:
        return False, f"disagreement at {bad[:3]}"
    return True, f"{count} pairs, lattice = formula = Hurwitz = (n-1)(q-1)/2"


@_criterion(2, "eigenvalue mass identities", budget=2.0)
def criterion_2():
    """Spectrum mass identities and the reflection mult(i) + mult(q-i) = n-1
    on the same sweep."""
    bad = []
    count = 0
    for pair in coprime_pairs(range(3, 31), 64):
        count += 1
        n, q, p, r = pair
        spec = full_spectrum(pair)
        mult = list(spec.multiplicities.values())  # mult(i) at index i - 1
        total_ok = spec.total() == (n - 1) * (q - 1) // 2
        prim_ok = spec.primitive_total() == (n - 1) * euler_phi_prime_power(p, r) // 2
        reflection_ok = set(map(add, mult, reversed(mult))) == {n - 1}
        if not (total_ok and prim_ok and reflection_ok):
            bad.append((n, q))
    if bad:
        return False, f"mass mismatch at {bad[:3]}"
    return True, f"{count} pairs, total mass and primitive mass match the closed forms"


@_criterion(3, "multiplier scan emptiness", budget=30.0)
def criterion_3():
    """Multiplier scan: no invariant multipliers for n in 3..12, q <= 2048."""
    nonempty = []
    zero_set_only = 0
    count = 0
    for report in multiplier_sweep(range(3, 13), 2048):
        count += 1
        if report.invariant_ms:
            nonempty.append((report.n, report.q, report.invariant_ms))
        if report.divergence:
            zero_set_only += 1
    if nonempty:
        return False, f"invariant multipliers found at {nonempty[:3]}"
    return True, (
        f"{count} pairs scanned, all function-level multiplier sets empty; "
        f"{zero_set_only} pairs with zero-set-only multipliers (finding, not failure)"
    )


@_criterion(4, "square-case feasibility pinpoint", budget=10.0)
def criterion_4():
    """Square-case feasibility true exactly at (3, 4) for n<=50, q<=1024."""
    feasible = []
    count = 0
    for report in feasibility_sweep(50, 1024):
        count += 1
        if report.feasible:
            feasible.append((report.n, report.q))
    return feasible == [(3, 4)], f"{count} pairs screened, feasible set = {feasible}"


def _expected_end_algebra_json() -> list[tuple[int, int, str, dict, str]]:
    return [
        (
            3,
            5,
            "S3",
            {
                "factors": [{"kind": "cyclotomic", "modulus": 5}],
                "levels": [{"level": 1, "modulus": 5, "new_dim": 4}],
                "integral": [{"modulus": 5, "ring": "Z[zeta_5]"}],
            },
            "Q(zeta_5)",
        ),
        (
            4,
            9,
            "S4",
            {
                "factors": [
                    {"kind": "cyclotomic", "modulus": 3},
                    {"kind": "cyclotomic", "modulus": 9},
                ],
                "levels": [
                    {"level": 1, "modulus": 3, "new_dim": 3},
                    {"level": 2, "modulus": 9, "new_dim": 9},
                ],
                "integral": [
                    {"modulus": 3, "ring": "Z[zeta_3]"},
                    {"modulus": 9, "ring": "Z[zeta_9]"},
                ],
            },
            "Q(zeta_3) x Q(zeta_9)",
        ),
        (
            3,
            4,
            "S3",
            {
                "factors": [
                    {"kind": "Q"},
                    {"kind": "matrix", "size": 2, "modulus": 4},
                ],
                "levels": [
                    {"level": 1, "modulus": 2, "new_dim": 1},
                    {"level": 2, "modulus": 4, "new_dim": 2},
                ],
                "integral": [{"modulus": 2, "ring": "Z"}],
            },
            "Q x Mat_2(Q(zeta_4))",
        ),
        (
            3,
            8,
            "S3",
            {
                "factors": [
                    {"kind": "Q"},
                    {"kind": "matrix", "size": 2, "modulus": 4},
                    {"kind": "cyclotomic", "modulus": 8},
                ],
                "levels": [
                    {"level": 1, "modulus": 2, "new_dim": 1},
                    {"level": 2, "modulus": 4, "new_dim": 2},
                    {"level": 3, "modulus": 8, "new_dim": 4},
                ],
                "integral": [
                    {"modulus": 2, "ring": "Z"},
                    {"modulus": 8, "ring": "Z[zeta_8]"},
                ],
            },
            "Q x Mat_2(Q(zeta_4)) x Q(zeta_8)",
        ),
    ]


@_criterion(5, "endomorphism algebra fixtures")
def criterion_5():
    """Endomorphism algebra fixtures, compared as serialized structures."""
    bad = []
    for n, q, label, expected, expected_label in _expected_end_algebra_json():
        desc = predict_end_algebra(validate_pair(n, q), label)
        expected = {"n": n, "q": q, "asserted": True, **expected}
        if desc.to_json() != expected or desc.label() != expected_label:
            bad.append((n, q, label, desc.to_json()))
    if bad:
        return False, f"mismatch at {bad[0][:3]}"
    return True, "all four fixture algebras serialize to the expected structures"


@_criterion(6, "j-invariant fixtures")
def criterion_6():
    """j-invariant fixtures over Q and over Q(t), with isotriviality."""
    checks = []

    w1 = depress_cubic(Poly([-1, -1, 0, 1]))
    j1 = j_invariant(w1)
    checks.append(j1 == Fraction(-6912, 23))
    checks.append(j1 == Fraction(1728) * Fraction(-4, 23))
    checks.append(is_isotrivial(j1))

    t = Poly([0, 1])
    w2 = depress_cubic([-t, -1, 0, 1])
    j2 = j_invariant(w2)
    expected2 = RatFunc(Poly.const(-6912), Poly([-4, 0, 27]))
    checks.append(j2 == expected2)
    checks.append(j2.to_text() == "-6912/(27*t^2 - 4)")
    checks.append(not is_isotrivial(j2))

    if not all(checks):
        return False, f"check vector {checks}"
    return True, "j(x^3-x-1) = -6912/23, j(x^3-x-t) = -6912/(27t^2-4), isotriviality flags agree"


@_criterion(7, "prescribed-j family identity", budget=0.1)
def criterion_7():
    """Symbolic identity: the calibrated one-parameter family hits j = a."""
    if not verify_prescribed_j_family():
        return False, "identity failed"
    return True, "x^3 - cx - c with c = 27a/(4(a-1728)) has j exactly a"


@_criterion(8, "Galois classification fixtures")
def criterion_8():
    """Galois fixtures: two rational S3 cubics, a geometric S3, and a C3."""
    checks = [
        classify_cubic_rational(Poly([-1, -1, 0, 1])) is GaloisLabel.S3,
        classify_cubic_rational(Poly([-2, 0, 0, 1])) is GaloisLabel.S3,
        classify_cubic_geometric(Poly([0, -1, 0, 1])) == (GaloisLabel.S3, Poly([4, 0, -27])),
        classify_cubic_rational(Poly([-1, -3, 0, 1])) is GaloisLabel.C3,
    ]
    if not all(checks):
        return False, f"check vector {checks}"
    return True, "x^3-x-1, x^3-2 -> S3; x^3-x -> geometric S3 via 4-27t^2; x^3-3x-1 -> C3"


@_criterion(9, "heart centralizer fixtures")
def criterion_9():
    """Commutant dimensions on the sum-zero module."""
    checks = [
        heart_centralizer_dim(PermGroup.symmetric(3), 2) == 1,
        heart_centralizer_dim(PermGroup.alternating(4), 3) == 1,
        heart_centralizer_dim(PermGroup.symmetric(4), 3) == 1,
    ]
    for n, p in ((3, 2), (4, 3), (5, 2)):
        checks.append(heart_centralizer_dim(PermGroup.trivial(n), p) == (n - 1) ** 2)
    if not all(checks):
        return False, f"check vector {checks}"
    return True, "S3/A4/S4 give commutant 1; trivial group gives the full (n-1)^2"


def _random_squarefree(rng: random.Random, n: int, zero_constant: bool) -> Poly:
    while True:
        coeffs = [rng.randint(-6, 6) for _ in range(n)]
        coeffs.append(rng.choice([-3, -2, -1, 1, 2, 3]))
        if zero_constant:
            coeffs[0] = 0
        f = Poly(coeffs)
        if poly_gcd(f, f.derivative()).degree == 0:
            return f


@_criterion(10, "two-chart model identity")
def criterion_10():
    """Chart identity on randomized inputs; chart automorphism order q."""
    rng = random.Random(61803)
    failures = []
    trials = 0
    zero_constant_done = False
    while trials < 200:
        n = rng.randint(3, 6)
        pair = rng.choice(list(coprime_pairs((n,), 9)))
        f = _random_squarefree(rng, n, zero_constant=not zero_constant_done)
        if f.coeff(0) == 0:
            zero_constant_done = True
        trials += 1
        if not chart_identity_check(f, pair):
            failures.append((f, pair.q))
    order_bad = [
        (pair.n, pair.q)
        for pair in coprime_pairs(range(3, 31), 64)
        if delta_chart_order(pair) != pair.q
    ]
    if failures:
        return False, f"identity failed for {failures[0]}"
    if order_bad:
        return False, f"order != q at {order_bad[:3]}"
    return (
        zero_constant_done,
        "200 randomized curves satisfy the two-chart identity; automorphism order is q",
    )


@_criterion(11, "cyclotomic bookkeeping")
def criterion_11():
    """Cyclotomic factor product and ledger dimension sums."""
    bad_products = []
    for q, p, r in prime_powers_upto(4096):
        prod = Poly.one()
        for factor in factor_geometric_poly(p, r):
            prod = prod * factor
        if prod != geometric_poly(q):
            bad_products.append(q)
    bad_ledgers = []
    for pair in coprime_pairs(range(3, 31), 64):
        total = sum(level.new_dim for level in decomposition_ledger(pair))
        if total != genus_formula(pair):
            bad_ledgers.append((pair.n, pair.q))
    if bad_products:
        return False, f"product mismatch at q={bad_products[:3]}"
    if bad_ledgers:
        return False, f"ledger mismatch at {bad_ledgers[:3]}"
    return True, (
        "cyclotomic factors reassemble 1+t+...+t^(q-1) up to q=4096; ledger sums hit the genus"
    )


CRITERIA = (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
    criterion_11,
)


def run_all() -> list[CriterionResult]:
    return [fn() for fn in CRITERIA]
