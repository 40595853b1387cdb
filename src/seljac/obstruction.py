"""Obstruction scans on the multiplicity function i -> floor(n*i/q) over
primitive residues mod q = p**r.

Two independent obstructions to extra symmetry of the eigenvalue data:

* multiplier scan: residues m that leave the multiplicity function
  invariant under i -> i*m. None do, and every m preserves its zero set
  when q < n and none does when q > n; `kernels.multiplier_scan` states
  these closed forms with their proof;
* square-case feasibility: necessary conditions for the centralizer
  square scenario, which single out (n, q) = (3, 4); counted in closed
  form over intervals of residues, and decided in integers.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple

from .arith import euler_phi_prime_power
from .kernels import feasibility_counts, multiplier_scan
from .lattice import coprime_pairs, validate_pair


class _InvariantMultiplierFields(NamedTuple):
    """The fields of `InvariantMultiplierReport`, which checks them on
    construction."""

    n: int
    q: int
    p: int
    r: int
    invariant_ms: tuple[int, ...]
    zero_set_ms: tuple[int, ...]


class InvariantMultiplierReport(_InvariantMultiplierFields):
    """Multipliers preserving the multiplicity data for one (n, q).

    invariant_ms is the function-level set (floor(n*i/q) preserved at
    every primitive i); zero_set_ms only requires the zero set
    {i : n*i < q} to be preserved. The function-level set is contained
    in the zero-set one; a strict gap is worth reporting, never an error.
    """

    __slots__ = ()

    def __new__(
        cls, n: int, q: int, p: int, r: int,
        invariant_ms: tuple[int, ...], zero_set_ms: tuple[int, ...],
    ) -> InvariantMultiplierReport:
        if not set(invariant_ms) <= set(zero_set_ms):
            raise AssertionError("function-level invariance must imply zero-set invariance")
        # invariance under m forces invariance under powers of m
        ms = set(invariant_ms)
        for m1 in ms:
            for m2 in ms:
                prod = (m1 * m2) % q
                if prod != 1 and prod not in ms:
                    raise AssertionError("invariant multiplier set must be power-closed")
        return super().__new__(cls, n, q, p, r, invariant_ms, zero_set_ms)

    @classmethod
    def _make(cls, iterable) -> InvariantMultiplierReport:
        # through the checks above, for _replace as well
        return cls(*iterable)

    @property
    def divergence(self) -> tuple[int, ...]:
        invariant = set(self.invariant_ms)
        return tuple(m for m in self.zero_set_ms if m not in invariant)


class FeasibilityReport(NamedTuple):
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


def invariant_automorphisms(n: int, q: int) -> InvariantMultiplierReport:
    """Decide every m coprime to q with 1 < m < q exactly, by the closed
    forms of `kernels.multiplier_scan`."""
    _, _, p, r = validate_pair(n, q)
    function_ms, zero_ms = multiplier_scan(n, q, p)
    return InvariantMultiplierReport(
        n, q, p, r, tuple(function_ms), tuple(zero_ms)
    )


def square_case_feasible(n: int, q: int) -> FeasibilityReport:
    _, _, p, r = validate_pair(n, q)
    b_count, divisibility_ok = feasibility_counts(n, q, p)
    phi = euler_phi_prime_power(p, r)
    # dim_w = phi/2 is integral and at least #B, decided in integers
    feasible = phi % 2 == 0 and 2 * b_count <= phi and divisibility_ok
    return FeasibilityReport(
        n, q, p, r, b_count, Fraction(phi, 2), divisibility_ok, feasible
    )


def multiplier_sweep(ns: Iterable[int], q_max: int) -> Iterator[InvariantMultiplierReport]:
    """All reports for n in ns (ascending, read lazily, so a range of any
    length costs nothing up front) and coprime prime powers q <= q_max."""
    for n, q, _, _ in coprime_pairs(ns, q_max):
        yield invariant_automorphisms(n, q)


def feasibility_sweep(n_max: int, q_max: int) -> Iterator[FeasibilityReport]:
    """All reports for 3 <= n <= n_max and coprime prime powers q <= q_max."""
    for n, q, _, _ in coprime_pairs(range(3, n_max + 1), q_max):
        yield square_case_feasible(n, q)
