"""Cubic/quartic Galois classification, rational and geometric routes.

The rational route is cross-checked against sympy's galois_group on both
hand-picked and randomly drawn polynomials.
"""
import math
import random
from fractions import Fraction

import poly_oracle as oracle
import pytest
import sympy
from hypothesis import given, strategies as st

from seljac import galois
from seljac.fpmatrix import values_fp
from seljac.galois import (
    GaloisLabel,
    classify_cubic_geometric,
    classify_cubic_rational,
    classify_quartic_geometric,
    classify_quartic_rational,
    discriminant_in_t,
    geometric_square_test,
    rational_roots,
)
from seljac.poly import Poly, _homogeneous, discriminant, lagrange_interpolate, poly_gcd

from galois_oracle import fraction_quartic_label, oracle_is_irreducible, oracle_label


def _squarefree(f: Poly) -> bool:
    return poly_gcd(f, f.derivative()).degree == 0


def _divisors(m: int) -> list[int]:
    m = abs(m)
    if m == 0:
        return []
    out = []
    d = 1
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            if d != m // d:
                out.append(m // d)
        d += 1
    return sorted(out)


def _rational_roots_by_divisors(f: Poly) -> list[Fraction]:
    """Reference for rational_roots: try every +-num/den with num dividing
    the constant term and den the leading coefficient, O(sqrt) divisors."""
    if not f:
        raise ValueError("zero polynomial")
    if f.degree == 0:
        return []
    roots: set[Fraction] = set()
    coeffs = list(f.ints)
    k = 0
    while coeffs[k] == 0:
        k += 1
    if k > 0:
        roots.add(Fraction(0))
        coeffs = coeffs[k:]
    if len(coeffs) > 1:
        for num in _divisors(coeffs[0]):
            for den in _divisors(coeffs[-1]):
                if math.gcd(num, den) > 1:
                    continue  # the same candidate as num/g over den/g
                for a in (num, -num):
                    if _homogeneous(coeffs, a, den) == 0:
                        roots.add(Fraction(a, den))
    return sorted(roots)


def test_rational_roots():
    assert rational_roots(Poly([0, -1, 0, 1])) == [-1, 0, 1]
    assert rational_roots(Poly([-1, -1, 2])) == [Fraction(-1, 2), 1]
    assert rational_roots(Poly([1, 0, 1])) == []
    assert rational_roots(Poly([0, 0, 1])) == [0]
    assert rational_roots(Poly([5])) == []
    with pytest.raises(ValueError):
        rational_roots(Poly.zero())


@pytest.mark.parametrize(
    "coeffs,roots",
    [
        ([0, 0, -3, 1], [0, 3]),            # x^2 (x - 3): a double root at a critical point
        ([0, -1, 1], [0, 1]),               # x (x - 1): roots at both ends of the bracket of 1/2
        ([0, -1, 4, -4, 1], [0, 1]),        # x (x - 1)(x^2 - 3x + 1): two critical points in (0, 1)
        ([-7, 1], [7]),                     # a root inside the bound 2^(1 + bitlen 7) = 16
        ([7, 1], [-7]),
        ([-6, 11, -6, 1], [1, 2, 3]),       # brackets of 2 -+ 1/sqrt(3) end at the roots
        ([9, -6, 1], [3]),                  # (x - 3)^2: no sign change anywhere
        ([-9, 6, -1], [3]),                 # negative leading coefficient
        ([0, 0, 2, -3, 1], [0, 1, 2]),      # x^2 (x - 1)(x - 2): a double root at 0
        ([-3, 10, -3], [Fraction(1, 3), 3]),
        ([Fraction(1, 2), Fraction(-3, 4)], [Fraction(2, 3)]),
        ([10**40 + 1, 0, 1], []),
        ([-(10**40), 0, 1], [-(10**20), 10**20]),
        ([-(10**45), 3 * 10**30, -3 * 10**15, 1], [10**15]),  # (x - 10^15)^3
        ([-(2**90), 0, 0, 1], [2**30]),     # bound 2^(1 + ceil(91/3)) = 2^32
    ],
)
def test_rational_roots_cases(coeffs, roots):
    f = Poly(coeffs)
    assert rational_roots(f) == roots
    if max(abs(c) for c in coeffs) < 10**6:
        assert _rational_roots_by_divisors(f) == roots


_small_root = st.fractions(min_value=-12, max_value=12, max_denominator=6)


@given(
    st.lists(_small_root, max_size=5),
    st.lists(st.integers(-9, 9), max_size=4),
    st.fractions(min_value=-9, max_value=9, max_denominator=9).filter(bool),
)
def test_rational_roots_match_divisor_search(roots, cofactor, scale):
    # a product of chosen linear factors (repeats allowed, 0 allowed), a
    # random cofactor (often with no rational root, sometimes zero) and a
    # rational scale: non-monic, negative leading coefficients, Fractions
    f = Poly.const(scale)
    for r in roots:
        f = f * Poly([-r.numerator, r.denominator])
    if any(cofactor):
        f = f * Poly(cofactor)
    got = rational_roots(f)
    assert got == _rational_roots_by_divisors(f)
    assert set(roots) <= set(got)


def test_values_fp_matches_horner_at_every_residue():
    rng = random.Random(50)
    vectors = [[0], [7], [-3, 1], [0, 0, 0, 1], [10**4300 + 1, -(10**60), 3, -1, 1]]
    vectors += [[rng.randint(-10**30, 10**30) for _ in range(rng.randint(1, 9))] for _ in range(20)]
    for p in (q for q in range(2, 50) if all(q % d for d in range(2, q))):
        for ints in vectors:
            assert values_fp(ints, p) == [_homogeneous(ints, x, 1) % p for x in range(p)]


def _bisections(monkeypatch) -> list:
    calls = []
    root_cuts = galois._root_cuts
    monkeypatch.setattr(galois, "_root_cuts", lambda g, bound: calls.append(g) or root_cuts(g, bound))
    return calls


@pytest.mark.parametrize(
    "factors",
    [
        [[3, 0, 1], [-2, 0, 0, 1]],                 # (x^2 + 3)(x^3 - 2)
        [[-2, 0, 1], [-3, 0, 1], [-6, 0, 1]],       # (x^2 - 2)(x^2 - 3)(x^2 - 6)
    ],
)
def test_rootless_with_a_root_mod_every_prime_falls_back_to_bisection(monkeypatch, factors):
    # a zero in every residue field, so no certificate: the bisection answers
    f = math.prod((Poly(c) for c in factors), start=Poly.one())
    assert all(0 in values_fp(list(f.ints), p) for p in galois._CERTIFY_PRIMES)
    calls = _bisections(monkeypatch)
    assert rational_roots(f) == [] == _rational_roots_by_divisors(f)
    assert calls


def test_rootless_cubics_and_quartics_match_divisor_search(monkeypatch):
    # seeded products of irreducible factors, scaled by a rational: an
    # irreducible cubic, an irreducible quartic or two irreducible
    # quadratics; most are certified rootless mod a small prime, the rest
    # reach the bisection, and both give the divisor search's answer
    rng = random.Random(35)
    calls = _bisections(monkeypatch)

    def irreducible(degree):
        while True:
            cs = [Fraction(rng.randint(-30, 30), rng.randint(1, 6)) for _ in range(degree)]
            f = Poly(cs + [Fraction(rng.choice((-1, 1)) * rng.randint(1, 6), rng.randint(1, 6))])
            if f.degree == degree and not _rational_roots_by_divisors(f):
                if degree < 4 or oracle_is_irreducible(list(f.ints)):
                    return f

    certified = fallback = 0
    for k in range(150):
        f = irreducible(2) * irreducible(2) if k % 3 == 2 else irreducible(3 + k % 3)
        f = f * Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 9))
        before = len(calls)
        assert rational_roots(f) == [] == _rational_roots_by_divisors(f), f
        certified += len(calls) == before
        fallback += len(calls) > before
    assert certified > 100 and fallback > 20


@pytest.mark.parametrize(
    "coeffs,label",
    [
        ([-1, -1, 0, 1], GaloisLabel.S3),
        ([-2, 0, 0, 1], GaloisLabel.S3),
        ([-1, -3, 0, 1], GaloisLabel.C3),
        ([-1, 0, 0, 1], GaloisLabel.REDUCIBLE),
        ([0, -1, 0, 1], GaloisLabel.REDUCIBLE),
        ([2, -6, 0, 2], GaloisLabel.C3),
    ],
)
def test_cubic_rational_fixtures(coeffs, label):
    assert classify_cubic_rational(Poly(coeffs)) is label
    if label is not GaloisLabel.REDUCIBLE:
        assert oracle_label(coeffs) == label.value


def test_cubic_rational_rejects():
    with pytest.raises(ValueError):
        classify_cubic_rational(Poly([1, 0, 1]))
    # (x - 1)^2 (x + 2) has a multiple root
    with pytest.raises(ValueError):
        classify_cubic_rational(Poly([2, -3, 0, 1]))


# Depressed quartics x^4 + p x^2 + q x + r whose resolvent constant
# 4 p r - q^2 is a prime near 1.3e10.
BIG_QUARTICS = ((50458, -31, 63356), (50965, -11, 63434), (52346, -71, 62707), (52220, -17, 62782))


def resolvent_cubic(f: Poly) -> Poly:
    """The resolvent cubic of a quartic, built as classify_quartic_rational builds it."""
    P, Q, R = galois._depress_quartic(f)
    return Poly([4 * P * R - Q * Q, -4 * R, -P, 1])


def _root_scale(f: Poly) -> int:
    """lambda = 4 g_4^2 for g = f.ints: the depressed integer quartic's
    roots are lambda times those of the depressed f / lc(f)."""
    return 4 * f.ints[4] ** 2


def test_resolvent_cubic_fixtures():
    # a monic f with no cubic term has roots y = 4 x, so each resolvent
    # root is 16 times that of z^3 - 4 z and of z^3 - 4 z - 1; 2 x^4 + 1
    # has y = 16 x, so 256 times that of z^3 - 2 z for x^4 + 1/2
    assert resolvent_cubic(Poly([1, 0, 0, 0, 1])) == Poly([0, -1024, 0, 1])
    assert resolvent_cubic(Poly([1, 1, 0, 0, 1])) == Poly([-4096, -1024, 0, 1])
    assert resolvent_cubic(Poly([1, 0, 0, 0, 2])) == Poly([0, -2 * 256**2, 0, 1])


def test_depress_quartic_matches_shift():
    # the integer Taylor pass against the affine map x -> (y / g_4 - g_3) / (4 g_4),
    # which lambda^4 times the monic f / lc(f) turns into y^4 + P y^2 + Q y + R,
    # on quartics with rational, zero, negative leading and large coefficients
    rng = random.Random(11)
    quartics = [Poly([0, 0, 0, 0, 1]), Poly([1, 2, 3, 4, 1]), Poly([1, 2, 3, 4, -7])]
    quartics.append(Poly([10**30, -(10**20), 7, -(10**15), 1]))
    quartics.append(Poly([10**30, -(10**20), 7, -(10**15), Fraction(-3, 10**12)]))
    for _ in range(60):
        cs = [Fraction(rng.randint(-40, 40), rng.randint(1, 12)) for _ in range(5)]
        if cs[4]:
            quartics.append(Poly(cs))
    for f in quartics:
        g, lam = f.ints, _root_scale(f)
        shifted = oracle.compose(f.monic().coeffs, (Fraction(-g[3], 4 * g[4]), Fraction(1, lam)))
        P, Q, R = galois._depress_quartic(f)
        assert [c * lam**4 for c in shifted] == [R, Q, P, 0, 1]


def test_quartic_discriminant_is_the_resolvent_discriminant():
    # disc(resolvent) = lambda^12 disc(f / lc(f)), a nonzero rational square
    # times disc(f): seeded rational non-monic quartics, biquadratics,
    # x^4 + c and depressed quartics x^4 + p x^2 + q x + r whose resolvent
    # constant 4 p r - q^2 is a prime near 1.3e10, shifted
    rng = random.Random(36)
    quartics = [Poly([Fraction(rng.randint(-50, 50), rng.randint(1, 9)) for _ in range(4)]
                     + [Fraction(rng.randint(1, 9), rng.randint(1, 9)) * rng.choice((-1, 1))])
                for _ in range(60)]
    quartics += [Poly([rng.randint(-99, 99), 0, rng.randint(-99, 99), 0, rng.randint(1, 9)])
                 for _ in range(20)]
    quartics += [Poly([c, 0, 0, 0, 1]) for c in (-4, -1, 1, 2, 4, Fraction(-7, 3), 10**40 + 1)]
    for p, q, r in BIG_QUARTICS:
        for k in (-9, 1, 5):
            quartics.append(Poly(oracle.compose([r, q, p, 0, 1], (Fraction(k), Fraction(1)))))
    for f in quartics:
        square = (_root_scale(f) ** 6 / f.lc**3) ** 2
        assert discriminant(resolvent_cubic(f)) == square * discriminant(f), f


def test_resolvent_shift_invariant():
    # an integer shift of a monic f moves y = 4 x + g_3 not at all; any
    # other shift, or a non-monic f, scales the depressed roots by s, so
    # the resolvent roots by s^2
    rng = random.Random(4)
    for k in range(50):
        lc = 1 if k % 2 else rng.choice((-3, 2, 5))
        f = Poly([rng.randint(-5, 5) for _ in range(4)] + [lc])
        c = Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3)))
        shifted = Poly(oracle.compose(f.coeffs, (c, Fraction(1))))
        s2 = Fraction(_root_scale(shifted), _root_scale(f)) ** 2
        scaled = oracle.compose(resolvent_cubic(f).coeffs, (Fraction(0), 1 / s2))
        assert resolvent_cubic(shifted) == Poly(scaled) * s2**3
        if lc == 1 and c.denominator == 1:
            assert resolvent_cubic(shifted) == resolvent_cubic(f)


QUARTIC_FIXTURES = [
    ([1, 1, 0, 0, 1], GaloisLabel.S4),
    ([12, 8, 0, 0, 1], GaloisLabel.A4),
    ([-2, 0, 0, 0, 1], GaloisLabel.D4),
    ([2, 0, 4, 0, 1], GaloisLabel.C4),
    ([1, 1, 1, 1, 1], GaloisLabel.C4),
    ([1, 0, 0, 0, 1], GaloisLabel.V4),
    ([1, 0, -10, 0, 1], GaloisLabel.V4),
    ([-1, -1, 0, 0, 1], GaloisLabel.S4),
]


@pytest.mark.parametrize("coeffs,label", QUARTIC_FIXTURES)
def test_quartic_rational_fixtures(coeffs, label):
    assert classify_quartic_rational(Poly(coeffs)) is label
    assert oracle_label(coeffs) == label.value


@pytest.mark.parametrize(
    "coeffs",
    [
        [2, 0, 3, 0, 1],       # (x^2 + 1)(x^2 + 2)
        [2, 2, 3, 1, 1],       # (x^2 + x + 1)(x^2 + 2)
        [-1, 0, 0, 0, 1],      # rational roots +-1
        [4, 0, 4, 0, 1],       # (x^2 + 2)^2 is caught as non-squarefree below
    ],
)
def test_quartic_reducible(coeffs):
    f = Poly(coeffs)
    if not _squarefree(f):
        with pytest.raises(ValueError):
            classify_quartic_rational(f)
        return
    assert classify_quartic_rational(f) is GaloisLabel.REDUCIBLE
    assert not oracle_is_irreducible(coeffs)


def test_quadratic_split_gives_rational_resolvent_root():
    # a quartic that splits into two monic rational quadratics always hands
    # its resolvent cubic a rational root
    rng = random.Random(11)
    for _ in range(100):
        q1 = Poly([rng.randint(-6, 6), rng.randint(-6, 6), 1])
        q2 = Poly([rng.randint(-6, 6), rng.randint(-6, 6), 1])
        f = q1 * q2
        if not _squarefree(f):
            continue
        assert rational_roots(resolvent_cubic(f))
        assert classify_quartic_rational(f) is GaloisLabel.REDUCIBLE


def test_rootless_resolvent_does_not_mean_irreducible():
    # x(x^3 - x - 1): reducible, yet the resolvent z^3 + 16 z^2 - 4096, the
    # cubic z^3 + z^2 - 1 with roots scaled by 16, has no rational root, so
    # reducibility needs its own checks
    f = Poly([0, -1, -1, 0, 1])
    assert resolvent_cubic(f) == Poly([-4096, 0, 16, 1])
    assert rational_roots(resolvent_cubic(f)) == []
    assert classify_quartic_rational(f) is GaloisLabel.REDUCIBLE


def test_random_cubics_match_oracle():
    rng = random.Random(61)
    for _ in range(40):
        coeffs = [rng.randint(-8, 8) for _ in range(3)] + [rng.choice([1, 2, 3])]
        f = Poly(coeffs)
        if not _squarefree(f):
            continue
        got = classify_cubic_rational(f)
        if got is GaloisLabel.REDUCIBLE:
            assert not oracle_is_irreducible(coeffs)
        else:
            assert oracle_is_irreducible(coeffs)
            assert got.value == oracle_label(coeffs)


def test_random_quartics_match_oracle():
    rng = random.Random(62)
    for _ in range(40):
        coeffs = [rng.randint(-6, 6) for _ in range(4)] + [rng.choice([1, 2])]
        f = Poly(coeffs)
        if not _squarefree(f):
            continue
        got = classify_quartic_rational(f)
        if got is GaloisLabel.REDUCIBLE:
            assert not oracle_is_irreducible(coeffs)
        else:
            assert oracle_is_irreducible(coeffs)
            assert got.value == oracle_label(coeffs)


def test_biased_quartic_families_match_oracle():
    # biquadratics and trinomials hit the C4/V4/D4 branches far more often
    # than uniform sampling does
    rng = random.Random(63)
    for _ in range(30):
        shape = rng.randrange(3)
        if shape == 0:
            coeffs = [rng.randint(-9, 9), 0, rng.randint(-9, 9), 0, 1]
        elif shape == 1:
            coeffs = [rng.randint(-9, 9), rng.randint(-3, 3), 0, 0, 1]
        else:
            coeffs = [rng.randint(1, 9), 0, 0, rng.randint(-3, 3), 1]
        f = Poly(coeffs)
        if not _squarefree(f):
            continue
        got = classify_quartic_rational(f)
        if got is GaloisLabel.REDUCIBLE:
            assert not oracle_is_irreducible(coeffs)
        else:
            assert got.value == oracle_label(coeffs)


def _seeded_quartics(rng, count):
    """count squarefree quartics, a sixth of each kind: small integer,
    rational non-monic, biquadratic, a product of two quadratics, one of
    the A4 / C4 / V4 / D4 families under a random x -> (a x + b) / c, and
    12-digit coefficients; then the four BIG_QUARTICS shifted."""
    def small():
        return [rng.randint(-9, 9) for _ in range(4)] + [rng.choice((1, 2, 3))]

    def rational():
        lc = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
        return [Fraction(rng.randint(-30, 30), rng.randint(1, 9)) for _ in range(4)] + [lc]

    def biquadratic():
        return [rng.randint(-40, 40), 0, rng.randint(-40, 40), 0, rng.randint(1, 4)]

    def quadratic_product():
        return (Poly([rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(1, 3)])
                * Poly([rng.randint(-9, 9), rng.randint(-9, 9), 1])).coeffs

    def family():
        m, (a, b) = rng.randint(1, 4), rng.sample((2, 3, 5, 6, 7, 10, 11, 13), 2)
        base = rng.choice((
            [12 * m**4, 8 * m**3, 0, 0, 1],          # A4
            [5 * m**4, 0, 5 * m**2, 0, 1],           # C4
            [(a - b) ** 2, 0, -2 * (a + b), 0, 1],   # V4: sqrt(a) + sqrt(b)
            [-a * m, 0, 0, 0, 1],                    # D4 unless a m is a square
        ))
        a, b, c = rng.randint(1, 9), rng.randint(-9, 9), rng.randint(1, 9)
        return oracle.compose(base, (Fraction(b, c), Fraction(a, c)))

    def twelve_digits():
        return [rng.choice((-1, 1)) * rng.randint(10**11, 10**12 - 1) for _ in range(5)]

    kinds = (small, rational, biquadratic, quadratic_product, family, twelve_digits)
    out = []
    while len(out) < count:
        f = Poly(kinds[len(out) % len(kinds)]())
        if _squarefree(f):
            out.append(f)
    for p, q, r in BIG_QUARTICS:
        shift = (Fraction(rng.randint(-9, 9)), Fraction(1))
        out.append(Poly(oracle.compose([r, rng.choice((-1, 1)) * q, p, 0, 1], shift)))
    return out


def test_integer_quartic_route_matches_the_fraction_route():
    # the integer route against the Fraction resolvent route label by label
    seen = set()
    for f in _seeded_quartics(random.Random(37), 2400):
        got = classify_quartic_rational(f)
        assert got is fraction_quartic_label(f), f
        seen.add(got)
    assert seen == set(GaloisLabel) - {GaloisLabel.S3, GaloisLabel.C3}, seen


def _classify(f: Poly) -> GaloisLabel:
    return (classify_cubic_rational if f.degree == 3 else classify_quartic_rational)(f)


def _big(rng) -> int:
    digits = rng.randint(3, 6)
    return rng.choice((-1, 1)) * rng.randint(10 ** (digits - 1), 10**digits - 1)


def test_large_nonmonic_polynomials_match_oracle():
    # 3- to 6-digit coefficients, beyond any divisor search: uniform draws
    # (S3/S4 almost surely), fixtures of every label moved by a random
    # x -> (a x + b) / c, and products of two factors
    rng = random.Random(64)
    cases = []
    for degree in (3, 4):
        for _ in range(8):
            cases.append(([_big(rng) for _ in range(degree + 1)], None))
    for coeffs, label in QUARTIC_FIXTURES + [([-1, -3, 0, 1], GaloisLabel.C3)]:
        a, b, c = (abs(_big(rng)) for _ in range(3))
        g = Poly(oracle.compose(coeffs, (Fraction(b, c), Fraction(a, c))))
        cases.append((list(g.ints), label))
    for split in (1, 2):
        f = Poly([_big(rng) for _ in range(split + 1)]) * Poly([_big(rng) for _ in range(4 - split)])
        cases.append((list(f.ints), GaloisLabel.REDUCIBLE))
    for coeffs, label in cases:
        f = Poly(coeffs)
        assert _squarefree(f)
        got = _classify(f)
        if label is not None:
            assert got is label, coeffs
        if got is GaloisLabel.REDUCIBLE:
            assert not oracle_is_irreducible(coeffs)
        else:
            assert oracle_is_irreducible(coeffs)
            assert got.value == oracle_label(coeffs), coeffs


# ---- geometric route ----


def test_discriminant_in_t_fixture():
    d = discriminant_in_t(Poly([0, -1, 0, 1]))
    assert d == Poly([4, 0, -27])
    assert d.to_text("t") == "-27*t^2 + 4"


def test_discriminant_in_t_closed_form():
    # depressed cubic x^3 + p x + q0: disc of the t-family is
    # -4 p^3 - 27 (q0 - t)^2
    rng = random.Random(7)
    for _ in range(25):
        p = Fraction(rng.randint(-6, 6))
        q0 = Fraction(rng.randint(-6, 6))
        got = discriminant_in_t(Poly([q0, p, 0, 1]))
        want = Poly([-4 * p**3 - 27 * q0 * q0, 54 * q0, -27])
        assert got == want


def test_discriminant_in_t_matches_sympy():
    xs, ts = sympy.symbols("x t")
    rng = random.Random(8)
    for deg in (3, 4, 5, 6, 7, 8):
        for _ in range(6):
            g = Poly([rng.randint(-5, 5) for _ in range(deg)] + [1])
            expr = sum(int(g.coeff(k)) * xs**k for k in range(deg + 1)) - ts
            want = sympy.Poly(sympy.discriminant(expr, xs), ts).all_coeffs()[::-1]
            got = discriminant_in_t(g)
            assert [got.coeff(k) for k in range(got.degree + 1)] == want


def _discriminant_in_t_by_nodes(g: Poly) -> Poly:
    """The slow path: disc_x(g - tau) by resultants at tau = 0..deg g,
    interpolated."""
    return lagrange_interpolate(
        [(Fraction(k), discriminant(g - Poly.const(Fraction(k)))) for k in range(g.degree + 1)]
    )


def _chebyshev(n: int) -> Poly:
    a, b = Poly.one(), Poly.x()
    for _ in range(n - 1):
        a, b = b, Poly([0, 2]) * b - a
    return b


def _node_oracle_inputs():
    x = Poly.x()
    yield (x - 1) ** 3 * (x + 2)  # a triple critical point at 1
    yield (x - 1) ** 2 * (x + 2) ** 2 * Fraction(-3, 5)  # repeated critical values
    for n in range(2, 9):
        yield x**n
        yield x**n + Fraction(-7, 3)
        yield _chebyshev(n)
    rng = random.Random(10)
    for n in range(2, 9):
        for _ in range(8):
            cs = [Fraction(rng.randint(-30, 30), rng.randint(1, 9)) for _ in range(n)]
            lc = Fraction(rng.choice((-1, 1)) * rng.randint(1, 12), rng.randint(1, 5))
            yield Poly(cs + [lc])


def test_discriminant_in_t_matches_node_oracle():
    for g in _node_oracle_inputs():
        got = discriminant_in_t(g)
        assert got == _discriminant_in_t_by_nodes(g), g


def test_discriminant_in_t_rejects_low_degree():
    with pytest.raises(ValueError):
        discriminant_in_t(Poly([1, 1]))


def test_geometric_square_test():
    t = Poly([0, 1])
    assert geometric_square_test(t) is False
    assert geometric_square_test(t * t) is True
    assert geometric_square_test(Poly([4])) is True
    assert geometric_square_test(Poly([-4])) is True  # -1 is a square in kbar
    assert geometric_square_test(t**3 * Poly([-1, 1]) ** 2) is False
    # odd finite places with an even valuation at infinity
    assert geometric_square_test(t * Poly([-1, 1])) is False
    assert geometric_square_test(t**2 * Poly([-1, 1]) ** 4) is True
    with pytest.raises(ValueError):
        geometric_square_test(Poly.zero())


def test_geometric_square_test_odd_degree_skips_the_decomposition(monkeypatch):
    def refuse(u):
        raise AssertionError("odd degree needs no squarefree decomposition")

    monkeypatch.setattr(galois, "squarefree_decomposition", refuse)
    t = Poly([0, 1])
    assert geometric_square_test(t**3) is False
    assert geometric_square_test(discriminant_in_t(Poly([1, 2, 1, 0, 1]))) is False


@pytest.mark.parametrize(
    "coeffs,label",
    [
        ([0, -1, 0, 1], GaloisLabel.S3),
        ([0, 0, 0, 1], GaloisLabel.C3),
        ([1, 0, 0, 1], GaloisLabel.C3),
        ([0, -3, 0, 1], GaloisLabel.S3),
        ([0, 1, 0, 0, 1], GaloisLabel.S4),
        ([1, 2, 1, 0, 1], GaloisLabel.S4),
    ],
)
def test_geometric_fixtures(coeffs, label):
    f = Poly(coeffs)
    got, disc = (
        classify_cubic_geometric(f) if f.degree == 3 else classify_quartic_geometric(f)
    )
    assert got is label
    assert disc == discriminant_in_t(f)


def test_geometric_rejects():
    with pytest.raises(ValueError):
        classify_cubic_geometric(Poly([0, -1, 0, 2]))  # non-monic
    with pytest.raises(ValueError):
        classify_cubic_geometric(Poly([1, 0, 1]))
    with pytest.raises(ValueError):
        classify_quartic_geometric(Poly([0, 0, 0, 0, 1]))  # depressed linear term 0
    with pytest.raises(ValueError):
        classify_quartic_geometric(Poly([0, 0, 1, 0, 1]))
    with pytest.raises(ValueError):
        classify_quartic_geometric(Poly([0, 1, 0, 1]))


def test_geometric_quartics_are_symmetric():
    # t-degree of the family discriminant is 3, which is odd, so the square
    # test can never pass for a quartic family
    rng = random.Random(9)
    seen = 0
    while seen < 30:
        g = Poly([rng.randint(-7, 7) for _ in range(4)] + [1])
        if galois._depress_quartic(g)[1] == 0:
            continue
        seen += 1
        assert classify_quartic_geometric(g)[0] is GaloisLabel.S4


def test_geometric_specializes_consistently():
    # the family x^3 - x - t at t = 1 keeps the full symmetric group
    assert classify_cubic_geometric(Poly([0, -1, 0, 1]))[0] is GaloisLabel.S3
    assert classify_cubic_rational(Poly([-1, -1, 0, 1])) is GaloisLabel.S3


@pytest.mark.parametrize("poly", ["x^3 - x - t", "x^4 - 41*x^2 + 51*x - 48 - t"])
def test_geometric_query_interpolates_once(capsys, monkeypatch, poly):
    # the classifier hands back the discriminant it decided with, and the
    # galois handler prints that one instead of computing it again
    from seljac import cli

    calls = []

    def counting(g):
        calls.append(g)
        return discriminant_in_t(g)

    monkeypatch.setattr(galois, "discriminant_in_t", counting)
    monkeypatch.setattr(cli, "discriminant_in_t", counting, raising=False)
    assert cli.main(["galois", "--poly", poly, "--format", "json"]) == 0
    assert len(calls) == 1
    assert '"disc_t": "' in capsys.readouterr().out
