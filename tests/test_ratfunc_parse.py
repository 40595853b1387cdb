import random
import re
import time
from fractions import Fraction

import parse_oracle
import pytest
from hypothesis import given
from hypothesis import strategies as st

from seljac.parse import DIGITS_MAX, MAX_EXPONENT, parse_q_poly, parse_x_poly, t_linear_base
from seljac.poly import Poly, poly_gcd
from seljac.ratfunc import RatFunc

coeff_st = st.fractions(min_value=-9, max_value=9, max_denominator=9)
poly_st = st.lists(coeff_st, min_size=0, max_size=4).map(Poly)


def test_reduction_and_normalization():
    assert RatFunc(Poly([-1, 0, 1]), Poly([-1, 1])) == RatFunc(Poly([1, 1]))
    r = RatFunc(1, Poly([-2, 2]))  # 1/(2x - 2)
    assert r.den == Poly([-1, 1])
    assert r.num == Poly.const(Fraction(1, 2))
    assert RatFunc(Poly.zero(), Poly([5])) == RatFunc(0, 1)
    with pytest.raises(ZeroDivisionError):
        RatFunc(1, 0)
    with pytest.raises(TypeError):
        RatFunc("x")


def test_constant_detection():
    assert RatFunc(7, 2).is_constant
    assert RatFunc(7, 2) == Fraction(7, 2)
    assert RatFunc(0).is_constant
    assert not RatFunc(Poly.x()).is_constant
    assert not RatFunc(1, Poly.x()).is_constant


# Numerators and denominators built from a few shared linear factors, so
# that the constructor often has a common factor to cancel.
_FACTORS = (Poly([0, 1]), Poly([1, 1]), Poly([-2, 1]), Poly([Fraction(1, 2), 3]))
_exps_st = st.lists(st.integers(0, 2), min_size=len(_FACTORS), max_size=len(_FACTORS))


def _factored(args) -> tuple[Poly, Poly]:
    num, num_exps, scale, den_exps = args
    den = Poly.const(scale)
    for f, e, k in zip(_FACTORS, den_exps, num_exps):
        num, den = num * f**k, den * f**e
    return num, den


factored_st = st.tuples(poly_st, _exps_st, coeff_st.filter(bool), _exps_st).map(_factored)


@given(factored_st)
def test_constructor_gives_lowest_terms(pair):
    # the same function, with a monic denominator coprime to the numerator
    num, den = pair
    r = RatFunc(num, den)
    assert r.num * den == r.den * num
    assert r.den.lc == 1
    if not r.num:
        assert r.den == Poly.one()
    assert r.num.degree <= 0 or poly_gcd(r.num, r.den) == Poly.one()


def test_to_text_fixtures():
    assert RatFunc(-6912, 23).to_text() == "-6912/23"
    assert RatFunc(Poly.const(-6912), Poly([-4, 0, 27])).to_text() == "-6912/(27*t^2 - 4)"
    assert RatFunc(Poly([-4, 0, 27]), 3).to_text() == "(27*t^2 - 4)/3"
    assert RatFunc(Poly([0, 1])).to_text() == "t"
    assert RatFunc(Poly([0, 1]), Poly([1, 0, 1])).to_text() == "t/(t^2 + 1)"
    assert RatFunc(0).to_text() == "0"


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
    ["", "x +", "3/0", "x^", "x^t", "y + 1", "x x", "* x", "2 ** x", "x^-1", "t^2", "2*t",
     "2x", "x*2", "x 2", "1/x", "+", "- -x", "1/2/3", "t*t", "   ", "x^ "],
)
def test_parse_errors(bad):
    with pytest.raises(ValueError):
        parse_x_poly(bad)


def test_parse_error_on_long_whitespace_is_fast():
    # a pattern with two unbounded whitespace runs side by side backtracks
    # quadratically here; 20,000 spaces already took seconds that way
    start = time.perf_counter()
    with pytest.raises(ValueError):
        parse_x_poly(" " * 100_000 + "y")
    assert time.perf_counter() - start < 1.0


_TOKENS = ("+", "-", "*", "/", "^", "x", "t", "y", "0", "007", "1001",
           " ", "   ", "\t", "\xa0", "\x1c", "\u0663", "\u00b2")
_SPACES = ("", "", " ", "  ", "\t", "\xa0", "\x1c")
_SHAPES = ("x", "x^{k}", "t", "t*x^{k}", "{a}", "{a}*x^{k}", "{a}/{b}", "{a}/{b}*x^{k}")


def _well_formed_sum(rng: random.Random) -> str:
    """A signed sum of terms, with random whitespace between any tokens."""
    terms = []
    for _ in range(rng.randint(1, 5)):
        shape = rng.choice(_SHAPES).format(
            a=rng.choice(("0", "1", "12", "007", "\u0663")), b=rng.choice(("1", "3", "10")),
            k=rng.choice(("0", "1", "4", "1000", "1001")),
        )
        terms.append(rng.choice("+-") + shape if terms or rng.random() < 0.3 else shape)
    tokens = re.findall(r"\d+|.", "".join(terms))
    return rng.choice(_SPACES) + "".join(tok + rng.choice(_SPACES) for tok in tokens)


def _outcome(parse, text: str):
    try:
        return parse(text)
    except ValueError:
        return None


def test_parse_matches_token_reader_oracle():
    # the same accept/reject decision and the same (f0, f1) as the
    # tokenizer and recursive-descent reader in tests/parse_oracle.py
    rng = random.Random(24)
    texts = ["".join(rng.choices(_TOKENS, k=rng.randint(0, 10))) for _ in range(20_000)]
    texts += [_well_formed_sum(rng) for _ in range(10_000)]
    accepted = 0
    for text in texts:
        want = _outcome(parse_oracle.parse_x_poly, text)
        assert _outcome(parse_x_poly, text) == want, repr(text)
        accepted += want is not None
    assert accepted > 8_000


@pytest.mark.parametrize(
    "text",
    # integer coefficients stay ints and a/b builds a Fraction: sums that
    # mix them, cancel to an integer or to zero, and large numerals
    ["1/2*x + 1/2*x", "1/3 + 2/3 - t", "3 - 3", "t - t", "x - x + t", "2/2*x^2 - x^2",
     "1/2*x^2 + 3*x^2 - 7/2*x^2 + 1", "6/4*x - 1/2*x", "4/2 + t*x - t*x", "0/5*x + 0",
     f"{'9' * DIGITS_MAX}*x^3 - {'9' * DIGITS_MAX}*x^3 + 1", f"{'8' * DIGITS_MAX} + 1/2*x",
     f"{'7' * 40}/{'7' * 40}*x - t", f"1/{'3' * 40} + {'3' * 60}*x"],
)
def test_parse_mixed_coefficients_match_oracle(text):
    got = parse_x_poly(text)
    want = parse_oracle.parse_x_poly(text)
    assert got == want
    assert [hash(f) for f in got] == [hash(f) for f in want]


def test_parse_exponent_ceiling():
    assert parse_x_poly(f"x^{MAX_EXPONENT} + 1")[0].degree == MAX_EXPONENT
    assert parse_x_poly(f"x + t*x^{MAX_EXPONENT}")[1].degree == MAX_EXPONENT
    for text in (f"x^{MAX_EXPONENT + 1}", f"2*x^3 + t*x^{MAX_EXPONENT + 1}"):
        with pytest.raises(ValueError, match=f"exponent must be at most {MAX_EXPONENT}"):
            parse_x_poly(text)


def test_parse_numeral_digit_ceiling():
    # int() refuses a decimal string longer than Python's default limit of
    # 4300 digits; the parser refuses it first, with its own message
    big = "9" * DIGITS_MAX
    assert parse_q_poly(f"x^3 + {big}") == Poly([int(big), 0, 0, 1])
    assert parse_q_poly(f"1/{big}*x^{'0' * (DIGITS_MAX - 1)}3").coeffs[3] == Fraction(1, int(big))
    long = "1" * (DIGITS_MAX + 1)
    padded = "0" * DIGITS_MAX + "3"
    for text in (f"x^3 + {long}", f"x^3 + 1/{long}", f"{long}*x^3 - x", f"x^{padded} - x",
                 f"2*x^{padded}", f"x + t*x^{padded}", f"x^3 + {long}/2 - t"):
        with pytest.raises(ValueError, match=f"^a numeral has more than {DIGITS_MAX} digits$"):
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
