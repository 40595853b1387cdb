import math
import random
from fractions import Fraction

import poly_oracle as oracle
import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from seljac.arith import prime_power, prime_powers_upto
from seljac.poly import (
    DIGITS_MAX,
    Poly,
    _homogeneous,
    cyclotomic_poly,
    discriminant,
    geometric_poly,
    lagrange_interpolate,
    poly_gcd,
    resultant,
    reversed_poly,
    squarefree_decomposition,
)
from seljac.ratfunc import RatFunc

X = sympy.symbols("x")

coeff_st = st.fractions(min_value=-20, max_value=20, max_denominator=20)
poly_st = st.lists(coeff_st, min_size=0, max_size=7).map(Poly)

# Raw coefficient lists for the oracle comparisons: ints and Fractions, zero
# and negative leading terms, denominators up to 10^12, degree up to 12.
wide_coeff_st = st.one_of(
    st.integers(-50, 50),
    st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**12),
)
wide_list_st = st.lists(wide_coeff_st, max_size=13)
# Nonzero constants: negative, fractional, and numerators and denominators
# up to 10^12.
constant_st = st.one_of(
    st.integers(-(10**12), 10**12),
    st.fractions(min_value=-(10**12), max_value=10**12, max_denominator=10**12),
).filter(bool)


def to_sympy(f: Poly):
    return sum(
        (sympy.Rational(c.numerator, c.denominator) * X**k for k, c in enumerate(f.coeffs)),
        sympy.Integer(0),
    )


def test_construction_strips_trailing_zeros():
    assert Poly([1, 2, 0, 0]).coeffs == (1, 2)
    assert Poly([]).degree == -1
    assert not Poly([0, 0])
    assert Poly([0, 0]) == Poly.zero()
    for bad in (0.5, None, "1"):
        with pytest.raises(TypeError):
            Poly([bad])
        with pytest.raises(TypeError):
            Poly.const(bad)


def test_equality_and_hash():
    assert Poly([5]) == 5 == Poly.const(Fraction(5))
    assert Poly([5]) != 6 and Poly([Fraction(1, 2)]) != 1 and Poly([-1]) != 1
    assert Poly.zero() == 0 and Poly([1]) != 0 and Poly([0, 1]) != 1
    assert Poly([1, 1]) != Poly([1, 1, 1])
    assert hash(Poly([1, 2])) == hash(Poly((Fraction(1), Fraction(2))))


def test_divmod_fixture():
    f = Poly([-1, -1, 0, 1])  # x^3 - x - 1
    div = Poly([-2, 1])  # x - 2
    quo, rem = divmod(f, div)
    assert quo == Poly([3, 2, 1])
    assert rem == Poly([5])
    assert quo * div + rem == f
    with pytest.raises(ZeroDivisionError):
        divmod(f, Poly.zero())


@given(poly_st, poly_st)
def test_divmod_property(f, g):
    if not g:
        return
    quo, rem = divmod(f, g)
    assert quo * g + rem == f
    assert rem.degree < g.degree


@given(poly_st, poly_st, poly_st)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + Poly.zero() == a
    assert a * Poly.one() == a


def test_discriminant_fixtures():
    assert discriminant(Poly([-1, -1, 0, 1])) == -23
    assert discriminant(Poly([-1, -3, 0, 1])) == 81
    assert discriminant(Poly([-1, 0, 1])) == 4  # x^2 - 1
    assert discriminant(Poly([-2, 0, 0, 1])) == -108
    with pytest.raises(ValueError):
        discriminant(Poly([1, 1]))


def test_resultant_fixtures():
    f = Poly([-1, 0, 1])
    g = Poly([0, 1])
    # res(x^2 - 1, x) = product of f over roots of g, normalized: f(0) = -1
    assert resultant(f, g) == -1
    assert resultant(g, f) == -1
    assert resultant(Poly([2]), Poly([0, 0, 1])) == 4


def _sylvester_det(f: Poly, g: Poly):
    """Resultant straight from the definition, as a sympy determinant."""
    fc = [sympy.Rational(c.numerator, c.denominator) for c in reversed(f.coeffs)]
    gc = [sympy.Rational(c.numerator, c.denominator) for c in reversed(g.coeffs)]
    m, n = f.degree, g.degree
    rows = [[0] * i + fc + [0] * (n - 1 - i) for i in range(n)]
    rows += [[0] * i + gc + [0] * (m - 1 - i) for i in range(m)]
    return sympy.Matrix(rows).det()


def test_resultant_discriminant_match_sympy():
    rng = random.Random(99)
    for _ in range(60):
        f = Poly([Fraction(rng.randint(-9, 9)) for _ in range(rng.randint(2, 6))])
        g = Poly([Fraction(rng.randint(-9, 9)) for _ in range(rng.randint(2, 6))])
        if f.degree >= 1 and g.degree >= 1:
            expected = sympy.Rational(_sylvester_det(f, g))
            assert resultant(f, g) == Fraction(expected.p, expected.q)
        if f.degree >= 2:
            expected = sympy.discriminant(to_sympy(f), X)
            assert discriminant(f) == Fraction(expected.p, expected.q)


@given(poly_st, poly_st)
def test_gcd_divides_both(f, g):
    d = poly_gcd(f, g)
    if not d:
        assert not f and not g
        return
    assert d.lc == 1
    assert f % d == Poly.zero()
    assert g % d == Poly.zero()


def test_gcd_matches_sympy():
    rng = random.Random(7)
    for _ in range(40):
        base = Poly([Fraction(rng.randint(-4, 4)) for _ in range(3)] + [Fraction(1)])
        f = base * Poly([rng.randint(-3, 3), 1])
        g = base * Poly([rng.randint(-3, 3), rng.randint(1, 2)])
        ours = poly_gcd(f, g)
        theirs = sympy.gcd(to_sympy(f), to_sympy(g), X)
        lead = sympy.LC(theirs, X)
        theirs_monic = sympy.Poly(sympy.expand(theirs / lead), X).all_coeffs()[::-1]
        assert list(ours.coeffs) == [Fraction(c.p, c.q) for c in theirs_monic]


def test_squarefree_decomposition():
    f = Poly([0, 1]) ** 3 * Poly([1, 1]) ** 2 * Poly([-2, 1])
    parts = squarefree_decomposition(f)
    assembled = Poly.const(f.lc)
    for base, mult in parts:
        assert base.lc == 1
        assert poly_gcd(base, base.derivative()).degree == 0
        assembled = assembled * base**mult
    assert assembled == f
    mults = sorted(m for _, m in parts)
    assert mults == [1, 2, 3]


@given(poly_st)
def test_squarefree_reassembly(f):
    if f.degree < 1:
        return
    assembled = Poly.const(f.lc)
    for base, mult in squarefree_decomposition(f):
        assembled = assembled * base**mult
    assert assembled == f


def test_cyclotomic_fixtures():
    assert cyclotomic_poly(2, 1) == Poly([1, 1])
    assert cyclotomic_poly(2, 2) == Poly([1, 0, 1])
    assert cyclotomic_poly(2, 3) == Poly([1, 0, 0, 0, 1])
    assert cyclotomic_poly(3, 1) == Poly([1, 1, 1])
    assert cyclotomic_poly(3, 2) == Poly([1, 0, 0, 1, 0, 0, 1])


@pytest.mark.parametrize("p,i", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (7, 2)])
def test_cyclotomic_matches_sympy(p, i):
    ours = cyclotomic_poly(p, i)
    theirs = sympy.Poly(sympy.cyclotomic_poly(p**i, X), X).all_coeffs()[::-1]
    assert list(ours.coeffs) == theirs


def test_cyclotomic_matches_slice_oracle():
    for _, p, i in prime_powers_upto(4096):
        f = cyclotomic_poly(p, i)
        assert (f.ints, f.content) == (oracle.cyclotomic_ints(p, i), 1), (p, i)


def test_geometric_poly():
    assert geometric_poly(4) == Poly([1, 1, 1, 1])
    assert geometric_poly(2) == Poly([1, 1])
    with pytest.raises(ValueError):
        geometric_poly(6)
    with pytest.raises(ValueError):
        geometric_poly(1)


def test_reversed_poly():
    f = Poly([-1, -1, 0, 1])
    assert reversed_poly(f, 3) == Poly([1, 0, -1, -1])
    assert reversed_poly(Poly([0, -1, 0, 1]), 3) == Poly([1, 0, -1])
    assert reversed_poly(Poly([2, 1]), 3) == Poly([0, 0, 1, 2])


def _reflection_identity_holds(q: int) -> bool:
    """t^q * C(1/t) - C(t) == t^q - 1 for the q-th cyclotomic polynomial C."""
    c = cyclotomic_poly(*prime_power(q))
    return reversed_poly(c, q) - c == Poly.x() ** q - 1


@pytest.mark.parametrize("q", [2, 3, 4, 8, 9])
def test_reflection_identity_table(q):
    assert _reflection_identity_holds(q)


def test_reflection_identity_sweep():
    for q, _, _ in prime_powers_upto(512):
        assert _reflection_identity_holds(q)


def test_lagrange_fixture():
    pts = [(Fraction(0), Fraction(1)), (Fraction(1), Fraction(2)), (Fraction(2), Fraction(5))]
    f = lagrange_interpolate(pts)
    assert f == Poly([1, 0, 1])
    # rational, unevenly spaced nodes of either sign through 3x^3/4 - x/5 + 2/7
    g = Poly([Fraction(2, 7), Fraction(-1, 5), 0, Fraction(3, 4)])
    nodes = [Fraction(-5, 2), Fraction(1, 3), Fraction(3, 8), Fraction(11, 2), Fraction(-2, 9)]
    pts = [(x, oracle.evaluate(g.coeffs, x)) for x in nodes]
    assert lagrange_interpolate(pts) == g
    assert lagrange_interpolate(pts[:2]) == Poly(oracle.lagrange(pts[:2]))
    assert lagrange_interpolate([]) == Poly()
    with pytest.raises(ValueError):
        lagrange_interpolate([(Fraction(0), Fraction(1)), (Fraction(0), Fraction(2))])


@settings(max_examples=30)
@given(st.lists(coeff_st, min_size=1, max_size=5))
def test_lagrange_roundtrip(coeffs):
    f = Poly(coeffs)
    pts = [(Fraction(k), oracle.evaluate(f.coeffs, Fraction(k))) for k in range(6)]
    assert lagrange_interpolate(pts) == f


def _random_fraction(rng, top=9) -> Fraction:
    return Fraction(rng.randint(-top, top), rng.randint(1, 6))


def _scaled_product(rng, factors) -> tuple[Fraction, ...]:
    """A random nonzero scale (fractional, of either sign) times the
    product of the given oracle polynomials."""
    out = (Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9)),)
    for f in factors:
        out = oracle.mul(out, f)
    return out


def _shared_factor_pairs(seed: int, count: int = 60):
    """(a, b) as oracle polynomials: zero, constants, and random
    polynomials (possibly zero) times a common product of up to three
    linear factors, under fractional contents of either sign."""
    yield from [
        ((), ()),
        ((), (Fraction(-3, 7),)),
        ((Fraction(5),), (Fraction(1, 2), Fraction(-1))),
        ((), (Fraction(2), Fraction(-4, 3), Fraction(-6))),
        ((Fraction(1), Fraction(2), Fraction(1)), (Fraction(-3), Fraction(-3))),
    ]
    rng = random.Random(seed)
    for _ in range(count):
        shared = [(_random_fraction(rng, 4), Fraction(1)) for _ in range(rng.randint(0, 3))]
        a = [oracle.normalize(_random_fraction(rng) for _ in range(rng.randint(1, 4)))]
        b = [oracle.normalize(_random_fraction(rng) for _ in range(rng.randint(1, 4)))]
        yield _scaled_product(rng, shared + a), _scaled_product(rng, shared + b)


@pytest.mark.parametrize("seed", range(4))
def test_gcd_matches_euclid_oracle(seed):
    for a, b in _shared_factor_pairs(seed):
        want = oracle.gcd(a, b)
        assert poly_gcd(Poly(a), Poly(b)).coeffs == want
        assert poly_gcd(Poly(b), Poly(a)).coeffs == want
        _assert_normal_form(poly_gcd(Poly(a), Poly(b)))


@pytest.mark.parametrize("seed", range(4))
def test_squarefree_matches_yun_oracle(seed):
    rng = random.Random(seed)
    roots = [_random_fraction(rng, 3) for _ in range(4)]
    for a, b in _shared_factor_pairs(seed):
        # repeated linear factors over a few roots, so multiplicities merge
        powers = [(-rng.choice(roots), Fraction(1)) for _ in range(rng.randint(0, 5))]
        for f in (a, oracle.mul(a, b), _scaled_product(rng, powers + [b])):
            if not f:
                continue
            got = [(g.coeffs, m) for g, m in squarefree_decomposition(Poly(f))]
            assert got == oracle.squarefree(f)


@pytest.mark.parametrize("seed", range(4))
def test_lagrange_matches_lagrange_form_oracle(seed):
    rng = random.Random(seed)
    for n in range(8):
        for _ in range(6):
            nodes = {_random_fraction(rng, 20) for _ in range(n)}
            # values with zeros among them, on nodes of either sign
            pts = [(x, rng.choice((Fraction(0), _random_fraction(rng, 50)))) for x in nodes]
            got = lagrange_interpolate(pts)
            _assert_normal_form(got)
            assert got.coeffs == oracle.lagrange(pts)


def test_derivative_product_rule():
    rng = random.Random(3)
    for _ in range(25):
        f = Poly([Fraction(rng.randint(-5, 5)) for _ in range(4)])
        g = Poly([Fraction(rng.randint(-5, 5)) for _ in range(4)])
        assert (f * g).derivative() == f.derivative() * g + f * g.derivative()


def test_to_text():
    assert Poly([-1, -1, 0, 1]).to_text() == "x^3 - x - 1"
    assert Poly([Fraction(1, 2), 0, -3]).to_text() == "-3*x^2 + 1/2"
    assert Poly.zero().to_text() == "0"
    assert Poly([4, 0, -27]).to_text("t") == "-27*t^2 + 4"


def _assert_normal_form(f: Poly):
    # the content is the pair _n/_d in lowest terms with _d > 0, zero is
    # ((), 0, 1), and the accessors build Fractions from the pair
    assert isinstance(f._n, int) and isinstance(f._d, int)
    assert f._d > 0 and math.gcd(f._n, f._d) == 1
    assert type(f.content) is Fraction and f.content == Fraction(f._n, f._d)
    assert type(f.coeff(0)) is Fraction and type(f.coeff(len(f.ints))) is Fraction
    assert all(type(c) is Fraction for c in f.coeffs)
    if not f:
        assert (f.ints, f._n, f._d) == ((), 0, 1)
        return
    assert type(f.lc) is Fraction
    assert all(isinstance(v, int) for v in f.ints)
    assert math.gcd(*f.ints) == 1
    assert f.ints[-1] > 0
    assert f._n != 0


@given(wide_list_st, wide_list_st)
def test_ring_operations_match_fraction_oracle(a, b):
    f, g = Poly(a), Poly(b)
    fa, ga = oracle.normalize(a), oracle.normalize(b)
    assert f.coeffs == fa
    results = {
        "add": (f + g, oracle.add(fa, ga)),
        "sub": (f - g, oracle.add(fa, oracle.neg(ga))),
        "neg": (-f, oracle.neg(fa)),
        "mul": (f * g, oracle.mul(fa, ga)),
    }
    if g:
        quo, rem = divmod(f, g)
        oq, orem = oracle.divmod_(fa, ga)
        results["quo"] = (quo, oq)
        results["rem"] = (rem, orem)
    for name, (ours, theirs) in results.items():
        _assert_normal_form(ours)
        assert ours.coeffs == theirs, name


@given(wide_list_st, wide_coeff_st)
def test_scalar_operations_match_fraction_oracle(a, c):
    f, fa = Poly(a), oracle.normalize(a)
    scaled = f * c
    _assert_normal_form(scaled)
    assert scaled.coeffs == oracle.mul(fa, oracle.normalize([c]))
    if c:
        quotient = f / c
        _assert_normal_form(quotient)
        assert quotient.coeffs == oracle.mul(fa, (1 / Fraction(c),))
    if f:
        assert f.monic().coeffs == oracle.mul(fa, (1 / fa[-1],))


@given(wide_list_st, wide_list_st, wide_coeff_st)
def test_every_operation_keeps_the_normal_form(a, b, c):
    f, g = Poly(a), Poly(b)
    results = [
        f, Poly.const(c), f + g, f - g, -f, f * g, f * c, c * f, f + c, f - c,
        f.derivative(), f**2, poly_gcd(f, g), reversed_poly(f, max(f.degree, 0) + 2),
    ]
    if c:
        results.append(f / c)
    if f:
        results.append(f.monic())
    if g:
        results.extend(divmod(f, g))
        r = RatFunc(f, g)
        results.extend((r.num, r.den))
    for h in results:
        _assert_normal_form(h)


@given(wide_list_st, constant_st)
def test_constant_products_match_fraction_oracle(a, c):
    # a degree-0 operand, on either side, scales the content and shares
    # the other operand's vector
    f, const = Poly(a), Poly([c])
    want = oracle.mul(oracle.normalize(a), (Fraction(c),))
    for product in (const * f, f * const):
        _assert_normal_form(product)
        assert product.coeffs == want
        if f.degree > 0:
            assert product.ints is f.ints


def test_constant_product_shares_a_large_vector():
    f = cyclotomic_poly(4093, 1)
    for c in (Poly.one(), Poly([Fraction(-7, 10**12)]), Poly([10**12])):
        for product in (c * f, f * c):
            assert product.ints is f.ints
            assert product.content == c.content


def test_one_and_zero_match_the_normalizer():
    pairs = [
        (Poly.one(), Poly([1])),
        (Poly.zero(), Poly([])),
        (Poly.x(), Poly([0, 1])),
        (Poly.const(Fraction(-6, 4)), Poly([Fraction(-3, 2)])),
        (Poly.const(0), Poly([0])),
    ]
    for fast, slow in pairs:
        key = (fast.ints, fast._n, fast._d, hash(fast))
        assert key == (slow.ints, slow._n, slow._d, hash(slow))
        _assert_normal_form(fast)


@given(
    st.lists(st.integers(-(10**6), 10**6), min_size=1, max_size=13),
    st.integers(-(10**6), 10**6),
    st.integers(-(10**6), 10**6).filter(bool),
)
def test_homogeneous_matches_fraction_oracle(ints, a, b):
    # _homogeneous(ints, a, b) = b^d * (value at a/b), d = len(ints) - 1
    value = _homogeneous(ints, a, b)
    assert value == b ** (len(ints) - 1) * oracle.evaluate(ints, Fraction(a, b))


@given(wide_list_st)
def test_text_and_scaling_match_fraction_oracle(a):
    f, fa = Poly(a), oracle.normalize(a)
    assert f.to_text() == oracle.to_text(fa)
    assert f.to_text("t") == oracle.to_text(fa, "t")
    sign = -1 if fa and fa[-1] < 0 else 1
    assert list(f.ints) == [sign * v for v in oracle.integer_scaled(fa)]
    assert [f.coeff(k) for k in range(-1, len(fa) + 2)] == [0, *fa, 0, 0]


@given(wide_list_st, wide_list_st, wide_coeff_st)
def test_equality_is_coefficientwise_and_hash_agrees(a, b, c):
    f, g = Poly(a), Poly(b)
    assert (f == g) == (f.coeffs == g.coeffs)
    # the same polynomial reached along different routes
    same = [
        Poly([*a, 0, 0]), Poly(oracle.normalize(a)), f + Poly.zero(), -(-f), f * Poly.one(),
        Poly.one() * f, f + f - f, RatFunc(f).num,
    ]
    if c:
        same.extend((f * c / c, f / c * c, (f - c) + c))
    if g:
        same.append(f * g // g)
    if f:
        same.append(f.monic() * f.lc)
    for h in same:
        assert h == f
        assert (h.ints, h._n, h._d) == (f.ints, f._n, f._d)
        assert hash(h) == hash(f)


def _unnormalized(num: Poly, den: Poly) -> RatFunc:
    """num/den as given, past the constructor's gcd and monic denominator."""
    r = object.__new__(RatFunc)
    r.num, r.den = num, den
    return r


@given(wide_list_st, wide_list_st)
@example([Fraction(-3, 4), 0, 2], [1])
@example([-1, 2], [Fraction(-2, 3)])
@example([], [5])
def test_ratfunc_text_matches_fraction_oracle(a, b):
    # the text of num/den from the integer pairs, against the Fraction
    # formula: in lowest terms with a monic denominator, and for any pair
    # with negative contents and a denominator that clears to 1
    num, den = Poly(a), Poly(b)
    assume(den)
    for r in (RatFunc(num, den), _unnormalized(num, den)):
        assert r.to_text() == oracle.ratfunc_to_text(r.num, r.den)
        assert r.to_text("x") == oracle.ratfunc_to_text(r.num, r.den, "x")


def test_to_text_digits_ceiling():
    # the largest printable integer has DIGITS_MAX digits, Python's own limit
    big = 10**DIGITS_MAX
    assert Poly([big - 1]).to_text() == "9" * DIGITS_MAX
    assert Poly([Fraction(-1, big - 1), 0, 1]).to_text() == f"x^2 - 1/{'9' * DIGITS_MAX}"
    message = f"^cannot print a coefficient of more than {DIGITS_MAX} digits$"
    for f in (Poly([big]), Poly([Fraction(1, big)]), Poly([1, -big]), RatFunc(1, Poly([big, 1]))):
        with pytest.raises(ValueError, match=message):
            f.to_text()


@pytest.mark.parametrize("e", range(10))
def test_pow_matches_repeated_multiplication(e):
    f = Poly([Fraction(-1, 2), 3, 0, 2])
    expected = Poly.one()
    for _ in range(e):
        expected = expected * f
    assert f**e == expected


def test_pow_squares_only_while_bits_remain(monkeypatch):
    degrees = []
    mul = Poly.__mul__

    def counting(self, other):
        degrees.append(other.degree)
        return mul(self, other)

    monkeypatch.setattr(Poly, "__mul__", counting)
    assert Poly([1, 1]) ** 3 == Poly([1, 3, 3, 1])
    # result * f, f * f, result * f^2; no unused f^2 * f^2
    assert len(degrees) == 3
    assert max(degrees) == 2
