"""Cyclotomic decomposition bookkeeping for the jacobian of y^q = f(x) and
the endomorphism-algebra predictions attached to it.

Splitting 1 + t + ... + t^(q-1) into the cyclotomic factors of level
p^i (i = 1..r, q = p^r) decomposes the jacobian up to isogeny into "new"
parts of dimension (n-1)(p^i - p^(i-1))/2. For f of degree 3 or 4 with
full (doubly transitive) Galois group, the endomorphism algebra of each
new part is known exactly; the only non-field factor in the supported
range appears at (n, p^i) = (3, 4), where the level contributes
Q x Mat_2(Q(zeta_4)) in place of two field levels. Double transitivity is
read from the label's group in `heart.GROUPS` alone.
"""
from __future__ import annotations

from dataclasses import dataclass

from .arith import euler_phi_prime_power, prime_power
from .galois import GaloisLabel
from .heart import GROUPS, is_doubly_transitive
from .lattice import validate_pair
from .poly import Poly, cyclotomic_poly, geometric_poly


@dataclass(frozen=True)
class AlgebraFactor:
    """One simple factor: Q, a cyclotomic field, or a matrix algebra over
    a cyclotomic field."""

    kind: str  # "Q" | "cyclotomic" | "matrix"
    modulus: int | None = None
    size: int | None = None

    def __post_init__(self):
        if self.kind not in ("Q", "cyclotomic", "matrix"):
            raise ValueError(f"unknown factor kind {self.kind!r}")
        if self.kind == "Q" and (self.modulus is not None or self.size is not None):
            raise ValueError("Q factor carries no modulus or size")
        if self.kind == "cyclotomic" and (self.modulus is None or self.size is not None):
            raise ValueError("cyclotomic factor needs a modulus only")
        if self.kind == "matrix" and (self.modulus is None or self.size is None):
            raise ValueError("matrix factor needs a modulus and a size")

    @property
    def q_dimension(self) -> int:
        """Dimension over Q of the factor."""
        if self.kind == "Q":
            return 1
        phi = _phi(self.modulus)
        if self.kind == "cyclotomic":
            return phi
        return self.size * self.size * phi

    def to_json(self) -> dict:
        if self.kind == "Q":
            return {"kind": "Q"}
        if self.kind == "cyclotomic":
            return {"kind": "cyclotomic", "modulus": self.modulus}
        return {"kind": "matrix", "size": self.size, "modulus": self.modulus}

    def label(self) -> str:
        if self.kind == "Q":
            return "Q"
        if self.kind == "cyclotomic":
            return f"Q(zeta_{self.modulus})"
        return f"Mat_{self.size}(Q(zeta_{self.modulus}))"


def _phi(m: int) -> int:
    pr = prime_power(m)
    if pr is None:
        raise ValueError(f"modulus {m} is not a prime power")
    return euler_phi_prime_power(*pr)


@dataclass(frozen=True)
class DecompositionLevel:
    """Level i of q = p^r: the part new at p^i, of dimension
    (n-1)(p^i - p^(i-1))/2."""

    level: int
    modulus: int
    new_dim: int


@dataclass(frozen=True)
class EndAlgebraDescription:
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
        return sum(f.q_dimension for f in self.factors)

    def label(self) -> str:
        return " x ".join(f.label() for f in self.factors)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "q": self.q,
            "factors": [f.to_json() for f in self.factors],
            "levels": [vars(lv) for lv in self.levels],
            "integral": [{"modulus": m, "ring": ring} for m, ring in self.integral],
            "asserted": True,
        }


def factor_geometric_poly(q: int) -> list[Poly]:
    """The cyclotomic factors of 1 + t + ... + t^(q-1), one per level
    p^i, i = 1..r; their product reassembles the whole."""
    pr = prime_power(q)
    if pr is None:
        raise ValueError(f"{q} is not a prime power >= 2")
    p, r = pr
    return [cyclotomic_poly(p, i) for i in range(1, r + 1)]


def decomposition_ledger(n: int, q: int) -> list[DecompositionLevel]:
    """All levels i = 1..r, each with its new dimension
    (n-1)(p^i - p^(i-1))/2; they sum to the genus (n-1)(q-1)/2."""
    p, r = validate_pair(n, q)
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


def predict_end_algebra(n: int, q: int, label) -> EndAlgebraDescription:
    """Endomorphism algebra of the jacobian of y^q = f(x) for deg f = n
    in {3, 4} with doubly transitive Galois group (S3, S4 or A4).

    Per level p^i the new part contributes Q(zeta_{p^i}), except that
    (n, p^i) = (3, 2) contributes Q and (n, p^i) = (3, 4) contributes
    Q x Mat_2(Q(zeta_4)) replacing the two 2-power field levels. Field
    levels carry the maximal order Z[zeta_{p^i}] as integral refinement.
    Raises outside the supported (n, label) pairs."""
    p, r = validate_pair(n, q)
    if not _doubly_transitive(n, label):
        raise ValueError(
            f"outside theorem hypotheses: no asserted prediction for n={n}, "
            f"Galois group {label}"
        )
    factors: list[AlgebraFactor] = []
    integral: list[tuple[int, str]] = []
    for i in range(1, r + 1):
        m = p**i
        if n == 3 and m == 2:
            factors.append(AlgebraFactor("Q"))
            integral.append((2, "Z"))
        elif n == 3 and m == 4:
            factors.append(AlgebraFactor("matrix", modulus=4, size=2))
        else:
            factors.append(AlgebraFactor("cyclotomic", modulus=m))
            integral.append((m, f"Z[zeta_{m}]"))
    return EndAlgebraDescription(
        n=n,
        q=q,
        factors=tuple(factors),
        levels=tuple(decomposition_ledger(n, q)),
        integral=tuple(integral),
    )


@dataclass(frozen=True)
class IsotrivialityForecast:
    """Per-level isotriviality of the decomposition as f varies with full
    Galois group; fully=None means the supported results say nothing."""

    n: int
    q: int
    fully: bool | None
    levels: tuple[tuple[int, str], ...]

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "q": self.q,
            "fully_nonisotrivial": self.fully,
            "levels": {str(i): s for i, s in self.levels},
        }


def predict_nonisotrivial(n: int, q: int, label) -> IsotrivialityForecast:
    """Which levels of the decomposition move with f.

    For doubly transitive Galois group: every level is completely
    non-isotrivial unless (n, p) = (3, 2) with r >= 2, where level 2 is a
    constant CM square (the (3, 4) part) while level 1 and levels >= 3
    still move; (3, 2) itself is fully non-isotrivial."""
    p, r = validate_pair(n, q)
    if not _doubly_transitive(n, label):
        levels = tuple((i, "unknown") for i in range(1, r + 1))
        return IsotrivialityForecast(n, q, None, levels)
    constant = 2 if n == 3 and p == 2 and r >= 2 else None
    levels = tuple(
        (i, "constant_cm" if i == constant else "completely_nonisotrivial")
        for i in range(1, r + 1)
    )
    return IsotrivialityForecast(n, q, constant is None, levels)
