"""Obstruction scans on the multiplicity function i -> floor(n*i/q) over
primitive residues mod q = p**r.

Two independent obstructions to extra symmetry of the eigenvalue data:

* multiplier scan: residues m that leave the multiplicity function
  invariant under i -> i*m (none are expected to exist). The invariant m,
  plus 1, form a subgroup of (Z/q)^*, the stabilizer of the function, and
  so do the m preserving its zero set; each subgroup is fixed by its Sylow
  parts from O(log q) membership tests, each an exact check over every
  primitive i, so every candidate m is still decided exactly;
* square-case feasibility: necessary conditions for the centralizer
  square scenario, which single out (n, q) = (3, 4); counted in closed
  form over intervals of residues.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

from .arith import coprime_pairs, euler_phi_prime_power
from .kernels import feasibility_counts, multiplier_scan
from .lattice import validate_pair


@dataclass(frozen=True)
class InvariantMultiplierReport:
    """Multipliers preserving the multiplicity data for one (n, q).

    invariant_ms is the function-level set (floor(n*i/q) preserved at
    every primitive i); zero_set_ms only requires the zero set
    {i : n*i < q} to be preserved. The function-level set is contained
    in the zero-set one; a strict gap is worth reporting, never an error.
    """

    n: int
    q: int
    p: int
    r: int
    invariant_ms: tuple[int, ...]
    zero_set_ms: tuple[int, ...]

    def __post_init__(self):
        if not set(self.invariant_ms) <= set(self.zero_set_ms):
            raise AssertionError("function-level invariance must imply zero-set invariance")
        # invariance under m forces invariance under powers of m
        ms = set(self.invariant_ms)
        for m1 in ms:
            for m2 in ms:
                prod = (m1 * m2) % self.q
                if prod != 1 and prod not in ms:
                    raise AssertionError("invariant multiplier set must be power-closed")

    @property
    def divergence(self) -> tuple[int, ...]:
        invariant = set(self.invariant_ms)
        return tuple(m for m in self.zero_set_ms if m not in invariant)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "q": self.q,
            "p": self.p,
            "r": self.r,
            "invariant_ms": list(self.invariant_ms),
            "zero_set_ms": list(self.zero_set_ms),
        }


@dataclass(frozen=True)
class FeasibilityReport:
    """Necessary-condition screen for the square centralizer case.

    B = {i : q/n < i < q, p does not divide i}; feasible requires
    dim_w = phi(q)/2 integral, #B <= dim_w, and n-1 dividing every
    multiplicity floor(n*i/q) for i in B.
    """

    n: int
    q: int
    p: int
    r: int
    b_count: int
    dim_w: Fraction
    divisibility_ok: bool
    feasible: bool

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "q": self.q,
            "p": self.p,
            "r": self.r,
            "b_count": self.b_count,
            "dim_w": str(self.dim_w),
            "divisibility_ok": self.divisibility_ok,
            "feasible": self.feasible,
        }


def invariant_automorphisms(n: int, q: int) -> InvariantMultiplierReport:
    """Decide every m coprime to q with 1 < m < q exactly, through the
    stabilizer subgroups that `kernels.multiplier_scan` computes."""
    p, r = validate_pair(n, q)
    function_ms, zero_ms = multiplier_scan(n, q, p)
    return InvariantMultiplierReport(
        n, q, p, r, tuple(function_ms), tuple(zero_ms)
    )


def square_case_feasible(n: int, q: int) -> FeasibilityReport:
    p, r = validate_pair(n, q)
    b_count, divisibility_ok = feasibility_counts(n, q, p)
    dim_w = Fraction(euler_phi_prime_power(p, r), 2)
    feasible = (
        dim_w.denominator == 1 and Fraction(b_count) <= dim_w and divisibility_ok
    )
    return FeasibilityReport(n, q, p, r, b_count, dim_w, divisibility_ok, feasible)


def multiplier_sweep(ns: Iterable[int], q_max: int) -> Iterator[InvariantMultiplierReport]:
    """All reports for n in ns (ascending, read lazily, so a range of any
    length costs nothing up front) and coprime prime powers q <= q_max."""
    for n, q, _, _ in coprime_pairs(ns, q_max):
        yield invariant_automorphisms(n, q)


def feasibility_sweep(n_max: int, q_max: int) -> Iterator[FeasibilityReport]:
    """All reports for 3 <= n <= n_max and coprime prime powers q <= q_max."""
    for n, q, _, _ in coprime_pairs(range(3, n_max + 1), q_max):
        yield square_case_feasible(n, q)
