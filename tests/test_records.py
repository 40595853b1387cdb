"""Library results are immutable named tuples, and importing the command
line loads none of the machinery that dataclasses would."""
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import seljac
from seljac.acceptance import CriterionResult
from seljac.decompose import (
    AlgebraFactor,
    DecompositionLevel,
    predict_end_algebra,
    predict_nonisotrivial,
)
from seljac.elliptic import depress_cubic
from seljac.heart import PermGroup
from seljac.lattice import full_spectrum, validate_pair
from seljac.obstruction import (
    InvariantMultiplierReport,
    invariant_automorphisms,
    square_case_feasible,
)

_RECORDS = [
    CriterionResult(1, "t", True, 0.0, "d"),
    AlgebraFactor("matrix", modulus=4, size=2),
    DecompositionLevel(1, 3, 3),
    predict_end_algebra(validate_pair(3, 4), "S3"),
    predict_nonisotrivial(validate_pair(3, 8), "S3"),
    depress_cubic([Fraction(-1), Fraction(-1), 0, 1]),
    PermGroup.symmetric(3),
    full_spectrum(validate_pair(3, 4)),
    validate_pair(3, 4),
    invariant_automorphisms(3, 4),
    square_case_feasible(3, 4),
]

# (constructor, arguments, exception, message) for the three records that
# check their fields on construction
_REFUSED = [
    (PermGroup, (0, ()), ValueError, "degree must be >= 1"),
    (PermGroup, (3, ((0, 0, 1),)), ValueError, "not a permutation of 0..2: (0, 0, 1)"),
    (AlgebraFactor, ("field",), ValueError, "unknown factor kind 'field'"),
    (AlgebraFactor, ("Q", 2), ValueError, "Q factor carries no modulus or size"),
    (AlgebraFactor, ("cyclotomic",), ValueError, "cyclotomic factor needs a modulus only"),
    (AlgebraFactor, ("matrix", 4), ValueError, "matrix factor needs a modulus and a size"),
    (InvariantMultiplierReport, (3, 4, 2, 2, (3,), ()), AssertionError,
     "function-level invariance must imply zero-set invariance"),
    (InvariantMultiplierReport, (3, 5, 5, 1, (2,), (2,)), AssertionError,
     "invariant multiplier set must be power-closed"),
]


def test_records_are_immutable_and_check_their_fields():
    assert len({type(rec) for rec in _RECORDS}) == 11
    for rec in _RECORDS:
        field = rec._fields[0]
        with pytest.raises(AttributeError):
            setattr(rec, field, getattr(rec, field))
        with pytest.raises(AttributeError):
            rec.extra = 1
        # a checked record rebuilt from its own fields passes its checks
        assert type(rec)(**rec._asdict()) == rec
    for make, args, exc, message in _REFUSED:
        with pytest.raises(exc) as info:
            make(*args)
        assert str(info.value) == message


# (record, fields to replace, exception, message): each would break a check
# of its constructor, which _make and _replace run too
_REPLACED = [
    (PermGroup.symmetric(3), {"degree": 0}, ValueError, "degree must be >= 1"),
    (AlgebraFactor("Q"), {"modulus": 4}, ValueError, "Q factor carries no modulus or size"),
    (InvariantMultiplierReport(3, 5, 5, 1, (), ()), {"invariant_ms": (2,)}, AssertionError,
     "function-level invariance must imply zero-set invariance"),
]


def test_make_and_replace_run_the_constructor_checks():
    for rec, fields, exc, message in _REPLACED:
        with pytest.raises(exc) as info:
            rec._replace(**fields)
        assert str(info.value) == message
        with pytest.raises(exc) as info:
            type(rec)._make({**rec._asdict(), **fields}.values())
        assert str(info.value) == message
        # a valid record rebuilt through them is equal and of its own type
        for copy in (rec._replace(), type(rec)._make(rec)):
            assert copy == rec and type(copy) is type(rec)
    for make, args, exc, message in _REFUSED:
        with pytest.raises(exc) as info:
            make._make(args)
        assert str(info.value) == message


def test_cli_import_loads_no_dataclasses_machinery():
    src = str(Path(seljac.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import seljac.cli, sys; "
        "print(*sorted({'dataclasses', 'inspect', 'ast', 'dis'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out == "\n"
