"""Cyclotomic decomposition bookkeeping for the jacobian of y^q = f(x) and
the endomorphism-algebra predictions attached to it.

Splitting 1 + t + ... + t^(q-1) into the cyclotomic factors of level
p^i (i = 1..r, q = p^r) decomposes the jacobian up to isogeny into "new"
parts of dimension (n-1)(p^i - p^(i-1))/2. For f of degree 3 or 4 with
full (doubly transitive) Galois group, the endomorphism algebra of each
new part is known exactly; the only non-field factor in the supported
range appears at (n, p^i) = (3, 4), where the level contributes
Q x Mat_2(Q(zeta_4)) in place of two field levels and is the constant CM
square; `_level_rule` is the one place this exception is written. Double
transitivity is read from the label's group in `heart.GROUPS` alone.
"""
from __future__ import annotations

from typing import NamedTuple

from .arith import euler_phi_prime_power
from .galois import GaloisLabel
from .heart import GROUPS, is_doubly_transitive
from .lattice import Pair
from .poly import Poly, cyclotomic_poly


class _AlgebraFactorFields(NamedTuple):
    """The fields of `AlgebraFactor`, which checks them on construction."""

    kind: str  # "Q" | "cyclotomic" | "matrix"
    modulus: int | None = None
    size: int | None = None


class AlgebraFactor(_AlgebraFactorFields):
    """One simple factor: Q, a cyclotomic field, or a matrix algebra over
    a cyclotomic field."""

    __slots__ = ()

    def __new__(
        cls, kind: str, modulus: int | None = None, size: int | None = None
    ) -> AlgebraFactor:
        if kind not in ("Q", "cyclotomic", "matrix"):
            raise ValueError(f"unknown factor kind {kind!r}")
        if kind == "Q" and (modulus is not None or size is not None):
            raise ValueError("Q factor carries no modulus or size")
        if kind == "cyclotomic" and (modulus is None or size is not None):
            raise ValueError("cyclotomic factor needs a modulus only")
        if kind == "matrix" and (modulus is None or size is None):
            raise ValueError("matrix factor needs a modulus and a size")
        return super().__new__(cls, kind, modulus, size)

    @classmethod
    def _make(cls, iterable) -> AlgebraFactor:
        # through the checks above, for _replace as well
        return cls(*iterable)

    def q_dimension(self, p: int) -> int:
        """Dimension over Q of the factor, whose modulus must be a power of
        the prime p."""
        if self.kind == "Q":
            return 1
        m, r = self.modulus, 0
        while p > 1 and m % p == 0:
            m, r = m // p, r + 1
        if m != 1 or r == 0:
            raise ValueError(f"modulus {self.modulus} is not a power of {p}")
        phi = euler_phi_prime_power(p, r)
        if self.kind == "cyclotomic":
            return phi
        return self.size * self.size * phi

    def label(self) -> str:
        if self.kind == "Q":
            return "Q"
        if self.kind == "cyclotomic":
            return f"Q(zeta_{self.modulus})"
        return f"Mat_{self.size}(Q(zeta_{self.modulus}))"


class DecompositionLevel(NamedTuple):
    """Level i of q = p^r: the part new at p^i, of dimension
    (n-1)(p^i - p^(i-1))/2."""

    level: int
    modulus: int
    new_dim: int


class EndAlgebraDescription(NamedTuple):
    """Predicted endomorphism algebra as an ordered product of simple
    factors, with the level ledger and integral refinements (orders) for
    the field levels. Every description is asserted by the supported
    theorems, which the JSON form records as "asserted": true."""

    n: int
    q: int
    factors: tuple[AlgebraFactor, ...]
    levels: tuple[DecompositionLevel, ...]
    integral: tuple[tuple[int, str], ...] = ()

    @property
    def total_reduced_dim(self) -> int:
        p = self.levels[0].modulus  # level 1's modulus is the prime p
        return sum(f.q_dimension(p) for f in self.factors)

    def label(self) -> str:
        return " x ".join(f.label() for f in self.factors)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "q": self.q,
            # a factor is its fields that are set; __new__ fixes which
            "factors": [
                {k: v for k, v in f._asdict().items() if v is not None} for f in self.factors
            ],
            "levels": [lv._asdict() for lv in self.levels],
            "integral": [{"modulus": m, "ring": ring} for m, ring in self.integral],
            "asserted": True,
        }


def factor_geometric_poly(p: int, r: int) -> list[Poly]:
    """The cyclotomic factors of 1 + t + ... + t^(q-1), q = p**r, p prime,
    one per level p^i, i = 1..r; their product reassembles the whole."""
    return [cyclotomic_poly(p, i) for i in range(1, r + 1)]


def decomposition_ledger(pair: Pair) -> list[DecompositionLevel]:
    """All levels i = 1..r, each with its new dimension
    (n-1)(p^i - p^(i-1))/2; they sum to the genus (n-1)(q-1)/2."""
    n, _, p, r = pair
    return [
        DecompositionLevel(i, p**i, (n - 1) * (p**i - p ** (i - 1)) // 2)
        for i in range(1, r + 1)
    ]


def _doubly_transitive(n: int, label) -> bool:
    """The theorems' hypothesis: n is 3 or 4 and the group that
    `heart.GROUPS` gives `label` (a GaloisLabel or its name) acts doubly
    transitively on n points."""
    if not isinstance(label, (GaloisLabel, str)):
        raise TypeError(f"not a Galois label: {label!r}")
    try:
        group = GROUPS[GaloisLabel(label).value]
    except ValueError:
        raise ValueError(f"unknown Galois label {label!r}") from None
    except KeyError:  # Reducible: no transitive group
        return False
    return n in (3, 4) and group.degree == n and is_doubly_transitive(group)


def _level_rule(n: int, m: int) -> tuple[AlgebraFactor, str | None, str]:
    """The factor, maximal order (None for the matrix level) and
    isotriviality status of the level of modulus m, for doubly transitive
    f of degree n: Q(zeta_m), Z[zeta_m] and moving with f, except that
    (3, 2) gives Q and Z, and (3, 4) the constant CM square Mat_2(Q(zeta_4))."""
    if n == 3 and m == 2:
        return AlgebraFactor("Q"), "Z", "completely_nonisotrivial"
    if n == 3 and m == 4:
        return AlgebraFactor("matrix", modulus=4, size=2), None, "constant_cm"
    return AlgebraFactor("cyclotomic", modulus=m), f"Z[zeta_{m}]", "completely_nonisotrivial"


def predict_end_algebra(pair: Pair, label) -> EndAlgebraDescription:
    """Endomorphism algebra of the jacobian of y^q = f(x) for deg f = n
    in {3, 4} with doubly transitive Galois group (S3, S4 or A4): the
    levels' factors, with the field levels' maximal orders as integral
    refinement. Raises outside the supported (n, label) pairs."""
    levels = decomposition_ledger(pair)
    if not _doubly_transitive(pair.n, label):
        raise ValueError(
            f"outside theorem hypotheses: no asserted prediction for n={pair.n}, "
            f"Galois group {label}"
        )
    rules = {lv.modulus: _level_rule(pair.n, lv.modulus) for lv in levels}
    return EndAlgebraDescription(
        n=pair.n,
        q=pair.q,
        factors=tuple(factor for factor, _, _ in rules.values()),
        levels=tuple(levels),
        integral=tuple((m, order) for m, (_, order, _) in rules.items() if order is not None),
    )


class IsotrivialityForecast(NamedTuple):
    """Per-level isotriviality of the decomposition as f varies with full
    Galois group; fully=None means the supported results say nothing."""

    n: int
    q: int
    fully: bool | None
    levels: tuple[tuple[int, str], ...]


def predict_nonisotrivial(pair: Pair, label) -> IsotrivialityForecast:
    """Which levels of the decomposition move with f.

    For doubly transitive Galois group only the (3, 4) level, reached when
    (n, p) = (3, 2) and r >= 2, is a constant CM square; every other level
    is completely non-isotrivial."""
    n, q, _, _ = pair
    levels = decomposition_ledger(pair)
    if not _doubly_transitive(n, label):
        return IsotrivialityForecast(n, q, None, tuple((lv.level, "unknown") for lv in levels))
    statuses = tuple((lv.level, _level_rule(n, lv.modulus)[2]) for lv in levels)
    return IsotrivialityForecast(
        n, q, all(status != "constant_cm" for _, status in statuses), statuses
    )
