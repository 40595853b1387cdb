from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from seljac.parse import MAX_EXPONENT, parse_q_poly, parse_x_poly, t_linear_base
from seljac.poly import Poly
from seljac.ratfunc import RatFunc

coeff_st = st.fractions(min_value=-9, max_value=9, max_denominator=9)
poly_st = st.lists(coeff_st, min_size=0, max_size=4).map(Poly)
ratfunc_st = st.tuples(poly_st, poly_st.filter(bool)).map(lambda p: RatFunc(p[0], p[1]))


def test_reduction_and_normalization():
    assert RatFunc(Poly([-1, 0, 1]), Poly([-1, 1])) == RatFunc(Poly([1, 1]))
    r = RatFunc(1, Poly([-2, 2]))  # 1/(2x - 2)
    assert r.den == Poly([-1, 1])
    assert r.num == Poly.const(Fraction(1, 2))
    assert RatFunc(Poly.zero(), Poly([5])) == RatFunc.zero()
    with pytest.raises(ZeroDivisionError):
        RatFunc(1, 0)
    with pytest.raises(TypeError):
        RatFunc("x")


def test_constant_detection():
    assert RatFunc(7, 2).is_constant
    assert RatFunc(7, 2) == Fraction(7, 2)
    assert RatFunc.zero().is_constant
    assert not RatFunc(Poly.x()).is_constant
    assert not RatFunc(1, Poly.x()).is_constant


@given(ratfunc_st, ratfunc_st)
def test_field_add_sub(a, b):
    assert a + b - b == a
    assert a - a == RatFunc.zero()


@given(ratfunc_st, ratfunc_st)
def test_field_mul_div(a, b):
    if not b:
        with pytest.raises(ZeroDivisionError):
            a / b
        return
    assert a * b / b == a


@given(ratfunc_st)
def test_pow_consistency(a):
    assert a**0 == RatFunc.one()
    assert a**3 == a * a * a
    if a:
        assert a**-2 == RatFunc.one() / (a * a)


def test_to_text_fixtures():
    assert RatFunc(-6912, 23).to_text() == "-6912/23"
    assert RatFunc(Poly.const(-6912), Poly([-4, 0, 27])).to_text() == "-6912/(27*t^2 - 4)"
    assert RatFunc(Poly([-4, 0, 27]), 3).to_text() == "(27*t^2 - 4)/3"
    assert RatFunc(Poly([0, 1])).to_text() == "t"
    assert RatFunc(Poly([0, 1]), Poly([1, 0, 1])).to_text() == "t/(t^2 + 1)"
    assert RatFunc.zero().to_text() == "0"


def test_parse_rational_poly():
    assert parse_q_poly("x^3 - x - 1") == Poly([-1, -1, 0, 1])
    assert parse_q_poly("2*x^2 + 1/2") == Poly([Fraction(1, 2), 0, 2])
    assert parse_q_poly("-x + 4") == Poly([4, -1])
    assert parse_q_poly("x") == Poly.x()
    assert parse_q_poly("x^2 + x + x") == Poly([0, 2, 1])


def test_parse_x_poly_with_parameter():
    assert parse_x_poly("x^3 - x - t") == (Poly([0, -1, 0, 1]), Poly([-1]))
    assert parse_x_poly("t*x^2 + 2") == (Poly([2]), Poly([0, 0, 1]))
    assert parse_x_poly("x^3 - t - t") == (Poly([0, 0, 0, 1]), Poly([-2]))
    assert parse_x_poly("x^3 + t*x - t*x - t") == (Poly([0, 0, 0, 1]), Poly([-1]))
    assert parse_x_poly("t - t") == (Poly.zero(), Poly.zero())


@given(
    st.lists(coeff_st, max_size=5).map(Poly),
    st.lists(st.integers(min_value=-3, max_value=3), max_size=5),
)
def test_parse_x_poly_roundtrip(f0, f1_ints):
    # v*t*x^k is written as |v| copies of t*x^k, the only way the grammar has
    terms = [f0.to_text()] if f0 else []
    for k, v in enumerate(f1_ints):
        terms += [("- " if v < 0 else "+ ") + ("t" if k == 0 else f"t*x^{k}")] * abs(v)
    assert parse_x_poly(" ".join(terms) or "0") == (f0, Poly(f1_ints))


@pytest.mark.parametrize(
    "bad",
    # the parameter t is only admitted linearly: as a bare coefficient or t*x^k
    ["", "x +", "3/0", "x^", "x^t", "y + 1", "x x", "* x", "2 ** x", "x^-1", "t^2", "2*t"],
)
def test_parse_errors(bad):
    with pytest.raises(ValueError):
        parse_x_poly(bad)


def test_parse_exponent_ceiling():
    assert parse_x_poly(f"x^{MAX_EXPONENT} + 1")[0].degree == MAX_EXPONENT
    assert parse_x_poly(f"x + t*x^{MAX_EXPONENT}")[1].degree == MAX_EXPONENT
    for text in (f"x^{MAX_EXPONENT + 1}", f"2*x^3 + t*x^{MAX_EXPONENT + 1}"):
        with pytest.raises(ValueError, match=f"exponent must be at most {MAX_EXPONENT}"):
            parse_x_poly(text)


def test_parse_q_poly_rejects_t():
    with pytest.raises(ValueError, match="parameter t"):
        parse_q_poly("x^3 - t")


def test_t_linear_base():
    assert t_linear_base(*parse_x_poly("x^3 - x - t")) == Poly([0, -1, 0, 1])
    assert t_linear_base(*parse_x_poly("x^4 - t")) == Poly([0, 0, 0, 0, 1])
    assert t_linear_base(*parse_x_poly("x^3 + t*x - t*x - t")) == Poly([0, 0, 0, 1])
    assert t_linear_base(*parse_x_poly("-t")) == Poly.zero()
    assert t_linear_base(*parse_x_poly("x^3 + t")) is None
    assert t_linear_base(*parse_x_poly("x^3 - t*x")) is None
    assert t_linear_base(*parse_x_poly("x^3 - t - t")) is None
    assert t_linear_base(*parse_x_poly("x^3 - 1")) is None
    assert t_linear_base(*parse_x_poly("t - t")) is None


@given(st.lists(coeff_st, min_size=1, max_size=6))
def test_to_text_parse_roundtrip(coeffs):
    f = Poly(coeffs)
    if not f:
        return
    assert parse_q_poly(f.to_text()) == f
