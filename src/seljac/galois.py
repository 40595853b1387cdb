"""Galois group classification for cubics and quartics over Q, and for the
one-parameter families g(x) - t over the algebraic closure of Q(t).

Rational route: rational-root + discriminant-square tests for cubics; for
quartics the resolvent cubic z^3 - p z^2 - 4 r z + (4 p r - q^2) of the
depressed form x^4 + p x^2 + q x + r, with the standard resolvent-root
squareness criterion (Kappe-Warren) separating C4 from D4; the quartic's
discriminant is read off that cubic, whose discriminant is the same. The
rational roots are those of a monic integer form of the polynomial. A
prime p in 2, ..., 13 at which that form has no zero mod p proves there
are none (the simplest case of Dedekind's reduction mod p; Cohen, A
Course in Computational Algebraic Number Theory, 6.3). Otherwise they
come from exact integer bisection: the real roots are bracketed between
those of the derivatives, in time polynomial in the bit size of the
coefficients.

Geometric route: for f = g(x) - t the extension is automatically
irreducible over the closure of Q(t), and everything is decided by
whether disc_x(f), a polynomial in t, is a square in that field:
`geometric_square_test` answers True exactly when the t-degree is even
and every squarefree factor has even multiplicity. disc_x(f) is, up to a
constant, the characteristic polynomial of multiplication by g on
Q[x]/(g'): one remainder pass builds that integer matrix, and its
determinants at deg(g) + 1 integer values of t, by fraction-free
elimination, are interpolated.
"""
from __future__ import annotations

import enum
import math
from fractions import Fraction

from .arith import fraction_is_square, fraction_sqrt
from .fpmatrix import values_fp
from .poly import (
    Poly,
    _homogeneous,
    _primitive,
    _pseudo_divmod,
    discriminant,
    lagrange_interpolate,
    poly_gcd,
    squarefree_decomposition,
)


class GaloisLabel(enum.Enum):
    S3 = "S3"
    C3 = "C3"
    S4 = "S4"
    A4 = "A4"
    D4 = "D4"
    C4 = "C4"
    V4 = "V4"
    REDUCIBLE = "Reducible"

    def __str__(self) -> str:
        return self.value


def _root_cuts(g: list[int], bound: int) -> list[int]:
    """Sorted integers in [-bound, bound] that bracket the real roots of
    the integer polynomial g (lowest degree first) in that interval: each
    such root is one of them or lies strictly between two of them that
    differ by 1.

    Between the cuts of g' the polynomial g is strictly monotone, so one
    integer bisection per sign change brackets its only root there (a
    root hit exactly stays an end of the bracket). A unit gap may hold
    critical points and with them two roots of g and no sign change, so
    both its ends are kept."""
    if len(g) < 2:
        return []
    ends = sorted({-bound, bound, *_root_cuts([k * v for k, v in enumerate(g)][1:], bound)})
    vals = [_homogeneous(g, e, 1) for e in ends]
    cuts = {e for e, ge in zip(ends, vals) if ge == 0}
    for lo, hi, glo, ghi in zip(ends, ends[1:], vals, vals[1:]):
        if hi - lo == 1:
            cuts.update((lo, hi))
        elif glo * ghi < 0:
            while hi - lo > 1:
                mid = (lo + hi) // 2
                if (_homogeneous(g, mid, 1) < 0) == (glo < 0):
                    lo = mid
                else:
                    hi = mid
            cuts.update((lo, hi))
    return sorted(cuts)


# The primes at which `rational_roots` looks for a certificate of no root.
_CERTIFY_PRIMES = (2, 3, 5, 7, 11, 13)


def rational_roots(f: Poly) -> list[Fraction]:
    """All rational roots of a nonzero polynomial, ascending.

    With f a rational multiple of sum c_k x^k over Z of degree d, c_d > 0,
    the rational roots of f are a / c_d for the integer roots a of the
    monic g(y) = c_d^(d-1) sum c_k (y / c_d)^k.

    An integer root a of g would give g(a) = 0, so g(a mod p) = 0 mod p
    for every prime p. If, for one p in `_CERTIFY_PRIMES`, g has no zero
    among the residues mod p, f has no rational root and the answer is []
    without the bisection. No such certificate exists for f with a
    rational root, nor for one with a root mod every prime but none over
    Q, such as (x^2 - 2)(x^2 - 3)(x^2 - 6); both reach the bisection, the
    only root finder.

    Every complex root of g has modulus at most Fujiwara's bound
    2 max_k |g_k|^(1/(d-k)), which is below
    B = 2^(1 + max_k ceil(bitlen(g_k) / (d-k))); by Gauss-Lucas the
    roots of each derivative of g lie in the same disc. `_root_cuts`
    brackets the roots in (-B, B) by exact integer bisection on the
    monotone pieces between the brackets of the critical points:
    O(d^2 log B + d^3) evaluations of g and its derivatives at integers,
    polynomial in the bit size of f."""
    if not f:
        raise ValueError("zero polynomial")
    c = f.ints
    d, lc = len(c) - 1, c[-1]
    g = [v * lc ** (d - 1 - k) for k, v in enumerate(c[:-1])] + [1]
    if any(0 not in values_fp(g, p) for p in _CERTIFY_PRIMES):
        return []
    bound = 2 << max(
        ((abs(v).bit_length() + d - k - 1) // (d - k) for k, v in enumerate(g[:-1])), default=0
    )
    return [Fraction(a, lc) for a in _root_cuts(g, bound) if _homogeneous(g, a, 1) == 0]


def require_squarefree(f: Poly) -> None:
    if poly_gcd(f, f.derivative()).degree != 0:
        raise ValueError("polynomial has multiple roots")


def classify_cubic_rational(f: Poly) -> GaloisLabel:
    """S3 / C3 / Reducible for a squarefree cubic over Q."""
    if f.degree != 3:
        raise ValueError(f"expected degree 3, got {f.degree}")
    require_squarefree(f)
    w = f.monic()
    if rational_roots(w):
        return GaloisLabel.REDUCIBLE
    return GaloisLabel.C3 if fraction_is_square(discriminant(w)) else GaloisLabel.S3


def _depress_quartic(w: Poly) -> tuple[Fraction, Fraction, Fraction]:
    """Shift a monic quartic to x^4 + p x^2 + q x + r; returns (p, q, r).

    With w = G / G_4 for the integer vector G and e = 4 G_4, the shift is
    x -> x - G_3 / e, and e^4 G(x - G_3 / e) = H(e x) for the integer
    Taylor shift H(z) = sum G_k e^(4-k) (z - G_3)^k, one synthetic
    division pass. So the coefficient of x^k in w(x - G_3 / e) is
    H_k / (e^(4-k) G_4)."""
    g = w.ints
    e = 4 * g[4]
    h = [v * e ** (4 - k) for k, v in enumerate(g)]
    for i in range(4):
        for k in range(3, i - 1, -1):
            h[k] -= g[3] * h[k + 1]
    return Fraction(h[2], e * e * g[4]), Fraction(h[1], e**3 * g[4]), Fraction(h[0], e**4 * g[4])


def _resolvent(pc: Fraction, qc: Fraction, rc: Fraction) -> Poly:
    """z^3 - pc z^2 - 4 rc z + (4 pc rc - qc^2) for x^4 + pc x^2 + qc x + rc."""
    return Poly([4 * pc * rc - qc * qc, -4 * rc, -pc, Fraction(1)])


def _rational_quadratic_split(
    pc: Fraction, qc: Fraction, rc: Fraction, resolvent_roots: list[Fraction]
) -> bool:
    """Does x^4 + pc x^2 + qc x + rc split into two monic quadratics over Q?

    Any such split (x^2+ax+b)(x^2-ax+d) makes theta = b + d a rational
    resolvent root with a^2 = theta - pc, so it suffices to test the
    rational resolvent roots, passed in as resolvent_roots."""
    for theta in resolvent_roots:
        u = theta - pc
        if u == 0:
            if qc == 0 and fraction_is_square(pc * pc - 4 * rc):
                return True
            continue
        if not fraction_is_square(u):
            continue
        a = fraction_sqrt(u)
        b = (theta - qc / a) / 2
        d = (theta + qc / a) / 2
        if b * d == rc:
            return True
    return False


def _square_in_disc_field(u: Fraction, disc: Fraction) -> bool:
    """Is u a square in Q(sqrt(disc))? (disc not a square in Q here.)
    u = (s + t*sqrt(disc))^2 forces s*t = 0, so u is a square iff u or
    u*disc is a rational square; zero counts."""
    if u == 0:
        return True
    return fraction_is_square(u) or fraction_is_square(u * disc)


def classify_quartic_rational(f: Poly) -> GaloisLabel:
    """S4 / A4 / D4 / C4 / V4 / Reducible for a squarefree quartic over Q."""
    if f.degree != 4:
        raise ValueError(f"expected degree 4, got {f.degree}")
    require_squarefree(f)
    w = f.monic()
    if rational_roots(w):
        return GaloisLabel.REDUCIBLE
    pc, qc, rc = _depress_quartic(w)
    resolvent = _resolvent(pc, qc, rc)
    rr = rational_roots(resolvent)
    if _rational_quadratic_split(pc, qc, rc, rr):
        return GaloisLabel.REDUCIBLE
    # disc(w) = disc(resolvent): a shift leaves the discriminant alone, and
    # the resolvent roots a1 a2 + a3 a4, ... of the depressed quartic's
    # roots a_i differ by (a1 - a4)(a2 - a3) and its two conjugates, whose
    # squares multiply to prod (a_i - a_j)^2 over i < j.
    disc = discriminant(resolvent)
    if not rr:
        return GaloisLabel.A4 if fraction_is_square(disc) else GaloisLabel.S4
    if len(rr) == 3:
        return GaloisLabel.V4
    if len(rr) != 1:
        raise AssertionError("squarefree resolvent cubic cannot have two rational roots")
    theta = rr[0]
    u1 = theta * theta - 4 * rc
    u2 = theta - pc
    if _square_in_disc_field(u1, disc) and _square_in_disc_field(u2, disc):
        return GaloisLabel.C4
    return GaloisLabel.D4


# ---- geometric (function field) route ----


def geometric_square_test(u: Poly) -> bool:
    """Is the nonzero polynomial u in t a square in kbar(t), for kbar
    algebraically closed of characteristic 0?

    Constants are squares in a closed field, so u is a square exactly when
    every squarefree factor has even multiplicity: then every finite place
    has even valuation, and so has infinity, since deg u is even. An odd
    degree is an odd valuation at infinity, so it answers False before
    the decomposition. Zero raises ValueError."""
    if u and u.degree % 2:
        return False
    return not any(m % 2 for _, m in squarefree_decomposition(u))


def _det(m: list[list[int]]) -> int:
    """Determinant of a square integer matrix by Bareiss's fraction-free
    elimination: each division is exact, and every entry stays a minor of
    the row-permuted input. m is consumed."""
    sign, prev = 1, 1
    while len(m) > 1:
        k = next((i for i, row in enumerate(m) if row[0]), None)
        if k is None:
            return 0
        if k:
            m[0], m[k] = m[k], m[0]
            sign = -sign
        pivot, *top = m[0]
        m = [[(pivot * v - row[0] * u) // prev for v, u in zip(row[1:], top)] for row in m[1:]]
        prev = pivot
    return sign * m[0][0]


def discriminant_in_t(g: Poly) -> Poly:
    """disc_x(g(x) - t) as an exact polynomial in t.

    For g of degree n with leading coefficient a, the discriminant is
    (-1)^(n(n-1)/2) n^n a^(n-1) prod (g(theta) - t) over the n - 1 roots
    theta of g', with multiplicity, since Res(g', g - t) runs over them.
    That product is (-1)^(n-1) det(t I - M), with M the matrix of
    multiplication by g on Q[x]/(g') in the basis 1, x, ..., x^(n-2):
    its column k is x^k g mod g', one integer pseudo-remainder each, and
    M = A / D for one integer matrix A. The integers det(tau D I - A) at
    the n + 1 nodes tau = 0, ..., n, one more than the degree n - 1
    needs, are interpolated, so the degree assertion doubles as a
    consistency check."""
    n = g.degree
    if n < 2:
        raise ValueError("need degree >= 2")
    vec = g.ints
    dg = _primitive([k * v for k, v in enumerate(vec)][1:])[0]
    cols = [_pseudo_divmod((0,) * k + vec, dg)[1:] for k in range(n - 1)]
    scale = math.lcm(*(s for _, s in cols))
    cols = [[g._n * (scale // s) * v for v in rem] for rem, s in cols]
    d = g._d * scale
    neg_a = [[-v for v in row] for row in zip(*cols)]
    pts = []
    for tau in range(n + 1):
        m = [row[:] for row in neg_a]
        for i, row in enumerate(m):
            row[i] += tau * d
        pts.append((tau, _det(m)))
    sign = -1 if (n * (n - 1) // 2 + n - 1) % 2 else 1
    out = lagrange_interpolate(pts)._times(
        sign * n**n * (g._n * vec[-1]) ** (n - 1), (g._d * d) ** (n - 1)
    )
    if out.degree != n - 1:
        raise AssertionError("disc_x(g - t) must have t-degree deg(g) - 1")
    return out


def classify_cubic_geometric(g: Poly) -> tuple[GaloisLabel, Poly]:
    """Galois group of g(x) - t over the closure of Q(t), g a monic cubic,
    and the discriminant disc_x(g(x) - t) in t that decides it.

    g(x) - t is always irreducible there (linear and primitive in t), and
    always separable over Q(t), so non-squarefree g such as x^3 is fine;
    the group is C3 when disc_x is a square and S3 otherwise."""
    if g.degree != 3:
        raise ValueError(f"expected degree 3, got {g.degree}")
    if g.lc != 1:
        raise ValueError("g must be monic")
    disc = discriminant_in_t(g)
    return (GaloisLabel.C3 if geometric_square_test(disc) else GaloisLabel.S3), disc


def classify_quartic_geometric(g: Poly) -> tuple[GaloisLabel, Poly]:
    """Galois group of g(x) - t over the closure of Q(t), g a monic quartic
    whose depressed form has a nonzero linear coefficient, and the
    discriminant disc_x(g(x) - t) in t that decides it.

    That coefficient certifies the resolvent cubic of the family stays
    irreducible (its two t-coefficients A(z) = 4(z - P) and
    B(z) = z^3 - P z^2 - 4 R z + 4 P R - Q^2 share a root only when
    B(P) = -Q^2 vanishes), which pins the group to S4 or A4; the
    discriminant square test separates the two."""
    if g.degree != 4:
        raise ValueError(f"expected degree 4, got {g.degree}")
    if g.lc != 1:
        raise ValueError("g must be monic")
    _, qc, _ = _depress_quartic(g)
    if qc == 0:
        raise ValueError(
            "outside supported family: depressed quartic needs a nonzero linear term"
        )
    disc = discriminant_in_t(g)
    return (GaloisLabel.A4 if geometric_square_test(disc) else GaloisLabel.S4), disc
