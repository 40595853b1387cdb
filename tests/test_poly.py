import math
import random
from fractions import Fraction

import poly_oracle as oracle
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from seljac.arith import prime_power, prime_powers_upto
from seljac.poly import (
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
    with pytest.raises(ValueError):
        lagrange_interpolate([(Fraction(0), Fraction(1)), (Fraction(0), Fraction(2))])


@settings(max_examples=30)
@given(st.lists(coeff_st, min_size=1, max_size=5))
def test_lagrange_roundtrip(coeffs):
    f = Poly(coeffs)
    pts = [(Fraction(k), oracle.evaluate(f.coeffs, Fraction(k))) for k in range(6)]
    assert lagrange_interpolate(pts) == f


@given(poly_st, coeff_st)
def test_shift_is_composition(f, c):
    assert f.shift(c) == f.compose(Poly([c, 1]))


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
    assert isinstance(f.content, Fraction)
    if not f:
        assert f.ints == () and f.content == 0
        return
    assert all(isinstance(v, int) for v in f.ints)
    assert math.gcd(*f.ints) == 1
    assert f.ints[-1] > 0
    assert f.content != 0


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
    same = [Poly([*a, 0, 0]), Poly(oracle.normalize(a)), f + Poly.zero(), -(-f)]
    if c:
        same.append(f * c / c)
    if g:
        same.append(f * g // g)
    for h in same:
        assert h == f
        assert (h.ints, h.content) == (f.ints, f.content)
        assert hash(h) == hash(f)


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
