"""Cyclotomic ledger, endomorphism algebra table, and isotriviality forecasts."""
import json
import math

import pytest
from hypothesis import given, strategies as st

from seljac import cli
from seljac.arith import prime_power
from seljac.decompose import (
    AlgebraFactor,
    EndAlgebraDescription,
    decomposition_ledger,
    factor_geometric_poly,
    predict_end_algebra,
    predict_nonisotrivial,
)
from seljac.galois import GaloisLabel
from seljac.lattice import coprime_pairs, genus_formula, validate_pair
from seljac.poly import geometric_poly

VALID_PAIRS = [
    (n, q)
    for n in range(3, 12)
    for q in range(2, 65)
    if prime_power(q) is not None and math.gcd(n, q) == 1
]


def test_algebra_factor_dimensions():
    assert AlgebraFactor("Q").q_dimension(2) == 1
    assert AlgebraFactor("cyclotomic", modulus=4).q_dimension(2) == 2
    assert AlgebraFactor("cyclotomic", modulus=8).q_dimension(2) == 4
    assert AlgebraFactor("cyclotomic", modulus=27).q_dimension(3) == 18
    assert AlgebraFactor("matrix", modulus=4, size=2).q_dimension(2) == 8


def test_algebra_factor_labels():
    assert AlgebraFactor("Q").label() == "Q"
    assert AlgebraFactor("cyclotomic", modulus=8).label() == "Q(zeta_8)"
    assert AlgebraFactor("matrix", modulus=4, size=2).label() == "Mat_2(Q(zeta_4))"


def _factors_json(*factors):
    return EndAlgebraDescription(0, 0, factors, ()).to_json()["factors"]


def test_algebra_factor_json():
    # a factor's JSON is the fields it sets
    assert _factors_json(AlgebraFactor("Q")) == [{"kind": "Q"}]
    assert _factors_json(AlgebraFactor("cyclotomic", modulus=9)) == [{
        "kind": "cyclotomic",
        "modulus": 9,
    }]
    assert _factors_json(AlgebraFactor("matrix", modulus=4, size=2)) == [{
        "kind": "matrix",
        "size": 2,
        "modulus": 4,
    }]


@pytest.mark.parametrize(
    "kwargs",
    [
        {"kind": "field"},
        {"kind": "Q", "modulus": 2},
        {"kind": "cyclotomic"},
        {"kind": "cyclotomic", "modulus": 4, "size": 2},
        {"kind": "matrix", "modulus": 4},
        {"kind": "matrix", "size": 2},
    ],
)
def test_algebra_factor_rejects(kwargs):
    with pytest.raises(ValueError):
        AlgebraFactor(**kwargs)


def test_algebra_factor_modulus_must_be_prime_power():
    for modulus, p in ((6, 2), (6, 3), (9, 2), (8, 1), (8, 0)):
        with pytest.raises(ValueError, match=f"modulus {modulus} is not a power of {p}"):
            AlgebraFactor("cyclotomic", modulus=modulus).q_dimension(p)


def test_factor_geometric_poly():
    from seljac.poly import Poly

    assert factor_geometric_poly(2, 3) == [
        Poly([1, 1]),
        Poly([1, 0, 1]),
        Poly([1, 0, 0, 0, 1]),
    ]
    assert factor_geometric_poly(2, 1) == [Poly([1, 1])]
    # p must be prime: 6 and 1 are not
    with pytest.raises(ValueError):
        factor_geometric_poly(6, 1)
    with pytest.raises(ValueError):
        factor_geometric_poly(1, 1)


@pytest.mark.parametrize("q", [q for q in range(2, 200) if prime_power(q)])
def test_factor_geometric_poly_reassembles(q):
    prod = None
    for f in factor_geometric_poly(*prime_power(q)):
        prod = f if prod is None else prod * f
    assert prod == geometric_poly(q)


def test_new_part_dim_fixtures():
    # the dimension new at the top level q = p^r: (n-1)(q - q/p)/2
    for n, q, dim in [(3, 2, 1), (3, 4, 2), (3, 8, 4), (4, 3, 3), (4, 9, 9), (5, 7, 12)]:
        assert decomposition_ledger(validate_pair(n, q))[-1].new_dim == dim


def test_ledger_fixtures():
    lv = decomposition_ledger(validate_pair(3, 8))
    assert [(x.level, x.modulus, x.new_dim) for x in lv] == [
        (1, 2, 1),
        (2, 4, 2),
        (3, 8, 4),
    ]
    lv = decomposition_ledger(validate_pair(4, 9))
    assert [(x.level, x.modulus, x.new_dim) for x in lv] == [(1, 3, 3), (2, 9, 9)]
    assert lv[0]._asdict() == {"level": 1, "modulus": 3, "new_dim": 3}


@given(st.sampled_from(VALID_PAIRS))
def test_ledger_sums_to_genus(pair):
    pair = validate_pair(*pair)
    assert sum(x.new_dim for x in decomposition_ledger(pair)) == genus_formula(pair)


def test_predict_cubic_field_level():
    d = predict_end_algebra(validate_pair(3, 5), GaloisLabel.S3)
    assert d.to_json()["factors"] == [{"kind": "cyclotomic", "modulus": 5}]
    assert d.integral == ((5, "Z[zeta_5]"),)
    assert d.label() == "Q(zeta_5)"
    assert d.total_reduced_dim == 4
    assert d.to_json()["asserted"] is True


def test_predict_cubic_q2():
    d = predict_end_algebra(validate_pair(3, 2), "S3")
    assert [f.label() for f in d.factors] == ["Q"]
    assert d.integral == ((2, "Z"),)
    assert d.total_reduced_dim == 1


def test_predict_cubic_q4_matrix_level():
    d = predict_end_algebra(validate_pair(3, 4), "S3")
    assert d.to_json()["factors"] == [
        {"kind": "Q"},
        {"kind": "matrix", "size": 2, "modulus": 4},
    ]
    assert d.label() == "Q x Mat_2(Q(zeta_4))"
    assert d.total_reduced_dim == 9
    assert d.integral == ((2, "Z"),)


def test_predict_cubic_q8():
    d = predict_end_algebra(validate_pair(3, 8), GaloisLabel.S3)
    assert d.label() == "Q x Mat_2(Q(zeta_4)) x Q(zeta_8)"
    assert d.total_reduced_dim == 13
    assert d.integral == ((2, "Z"), (8, "Z[zeta_8]"))


def test_predict_quartic():
    for label in (GaloisLabel.S4, GaloisLabel.A4):
        d = predict_end_algebra(validate_pair(4, 9), label)
        assert d.label() == "Q(zeta_3) x Q(zeta_9)"
        assert d.total_reduced_dim == 8
        assert d.integral == ((3, "Z[zeta_3]"), (9, "Z[zeta_9]"))
        assert [x.new_dim for x in d.levels] == [3, 9]


def test_predict_json_shape():
    js = predict_end_algebra(validate_pair(3, 4), "S3").to_json()
    assert js == {
        "n": 3,
        "q": 4,
        "factors": [{"kind": "Q"}, {"kind": "matrix", "size": 2, "modulus": 4}],
        "levels": [
            {"level": 1, "modulus": 2, "new_dim": 1},
            {"level": 2, "modulus": 4, "new_dim": 2},
        ],
        "integral": [{"modulus": 2, "ring": "Z"}],
        "asserted": True,
    }


@pytest.mark.parametrize(
    "n,q,label,exc",
    [
        (5, 2, "S3", ValueError),
        (3, 4, "C3", ValueError),
        (3, 5, "A4", ValueError),  # doubly transitive, but on 4 points
        (4, 3, "D4", ValueError),
        (3, 4, "G7", ValueError),
        (3, 4, 42, TypeError),
        (4, 2, "S4", ValueError),  # gcd(4, 2) > 1
    ],
)
def test_predict_rejects(n, q, label, exc):
    with pytest.raises(exc):
        predict_end_algebra(validate_pair(n, q), label)


# The hand-written table the hypothesis was once read from; heart.GROUPS
# and is_doubly_transitive must give the same answer on every label.
_DOUBLY_TRANSITIVE_LABELS = {GaloisLabel.S3: 3, GaloisLabel.S4: 4, GaloisLabel.A4: 4}


@pytest.mark.parametrize("label", list(GaloisLabel))
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_hypothesis_comes_from_the_group_table(n, label):
    asserted = _DOUBLY_TRANSITIVE_LABELS.get(label) == n
    for q in (7, 121):  # coprime to every n here
        for given_label in (label, label.value):
            if asserted:
                assert predict_end_algebra(validate_pair(n, q), given_label).levels
            else:
                with pytest.raises(ValueError, match="outside theorem hypotheses"):
                    predict_end_algebra(validate_pair(n, q), given_label)
            assert (predict_nonisotrivial(validate_pair(n, q), given_label).fully is None) == (not asserted)


@pytest.mark.parametrize("predict", [predict_end_algebra, predict_nonisotrivial])
def test_label_errors_are_unchanged(predict):
    with pytest.raises(ValueError, match=r"^unknown Galois label 'G7'$"):
        predict(validate_pair(3, 4), "G7")
    with pytest.raises(TypeError, match=r"^not a Galois label: 42$"):
        predict(validate_pair(3, 4), 42)


def test_nonisotrivial_constant_level(capsys):
    fc = predict_nonisotrivial(validate_pair(3, 8), "S3")
    assert fc.fully is False
    assert fc.levels == (
        (1, "completely_nonisotrivial"),
        (2, "constant_cm"),
        (3, "completely_nonisotrivial"),
    )
    assert cli.main(["nonisotrivial", "--n", "3", "--q", "8", "--galois", "S3",
                     "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["levels"] == {
        "1": "completely_nonisotrivial",
        "2": "constant_cm",
        "3": "completely_nonisotrivial",
    }


def test_nonisotrivial_fixtures():
    assert predict_nonisotrivial(validate_pair(3, 4), "S3").fully is False
    assert predict_nonisotrivial(validate_pair(3, 2), "S3").fully is True
    assert predict_nonisotrivial(validate_pair(3, 5), "S3").fully is True
    assert predict_nonisotrivial(validate_pair(4, 9), "S4").fully is True
    assert predict_nonisotrivial(validate_pair(4, 9), "A4").fully is True


def test_nonisotrivial_says_nothing_otherwise():
    fc = predict_nonisotrivial(validate_pair(3, 4), "C3")
    assert fc.fully is None
    assert fc.levels == ((1, "unknown"), (2, "unknown"))
    # label of the wrong degree is also outside the supported statements
    assert predict_nonisotrivial(validate_pair(4, 3), "S3").fully is None
    assert predict_nonisotrivial(validate_pair(3, 4), "S4").fully is None


@pytest.mark.parametrize("label", list(GaloisLabel))
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_algebra_and_forecast_read_one_level_rule(n, label):
    # over every coprime prime power q <= 2^12: a level's factor is a
    # matrix algebra exactly when the forecast holds it constant, the
    # integral refinements are exactly the other levels, and the jacobian
    # is not fully non-isotrivial exactly when some level is constant
    for _, q, _, _ in coprime_pairs([n], 2**12):
        fc = predict_nonisotrivial(validate_pair(n, q), label)
        constant = [i for i, status in fc.levels if status == "constant_cm"]
        assert (fc.fully is False) == bool(constant)
        if fc.fully is None:
            assert {status for _, status in fc.levels} == {"unknown"}
            continue
        d = predict_end_algebra(validate_pair(n, q), label)
        pairs = list(zip(d.levels, d.factors))
        assert [lv.level for lv, f in pairs if f.kind == "matrix"] == constant
        assert [m for m, _ in d.integral] == [lv.modulus for lv, f in pairs if f.kind != "matrix"]
