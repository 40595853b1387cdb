"""Acceptance gate: every numbered criterion runs and reports one line.

Run with `pytest -v` (the -rA default in pyproject surfaces the printed
pass/fail lines in the summary). The criteria run once per module; each
numbered test checks its own result.
"""
import pytest

from seljac import acceptance


@pytest.fixture(scope="module")
def results():
    return acceptance.run_all()


def _check(results, number):
    res = results[number - 1]
    print(res.line())
    assert res.number == number, res.line()
    assert res.passed, res.line()
    if res.budget is not None:
        assert res.elapsed <= res.budget, res.line()


def test_criterion_01_genus_routes_agree(results):
    _check(results, 1)


def test_criterion_02_multiplicity_identities(results):
    _check(results, 2)


def test_criterion_03_multiplier_scan(results):
    _check(results, 3)


def test_criterion_04_feasibility_screen(results):
    _check(results, 4)


def test_criterion_05_endomorphism_table(results):
    _check(results, 5)


def test_criterion_06_j_invariants(results):
    _check(results, 6)


def test_criterion_07_prescribed_j_family(results):
    _check(results, 7)


def test_criterion_08_galois_classification(results):
    _check(results, 8)


def test_criterion_09_heart_commutants(results):
    _check(results, 9)


def test_criterion_10_chart_identity_trials(results):
    _check(results, 10)


def test_criterion_11_cyclotomic_ledger(results):
    _check(results, 11)


def test_run_all_covers_every_criterion(results):
    assert [res.number for res in results] == list(range(1, 12))


def test_check_over_budget_fails_and_keeps_its_detail():
    @acceptance._criterion(98, "slow check", budget=0.0)
    def slow():
        """A check that passes but cannot beat a zero budget."""
        return True, "all fine"

    res = slow()
    assert (res.number, res.title, res.passed, res.detail, res.budget) == (
        98, "slow check", False, "all fine", 0.0,
    )
    assert res.elapsed >= 0.0
    assert slow.__name__ == "slow"
    assert slow.__doc__ == "A check that passes but cannot beat a zero budget."


def test_failing_check_within_budget_reports_its_detail():
    @acceptance._criterion(99, "broken check", budget=60.0)
    def broken():
        return False, "mismatch at (3, 4)"

    res = broken()
    assert (res.passed, res.detail, res.budget) == (False, "mismatch at (3, 4)", 60.0)
    assert res.elapsed < 60.0
    assert acceptance._criterion(99, "no budget")(lambda: (True, "ok"))().passed is True


def test_criteria_is_the_flat_tuple_of_module_attributes():
    expected = tuple(getattr(acceptance, f"criterion_{k}") for k in range(1, 12))
    assert type(acceptance.CRITERIA) is tuple
    assert acceptance.CRITERIA == expected


def test_criteria_carry_no_wrapped_attribute():
    # A traced run marks its wrappers with __wrapped__, so an untraced
    # criterion must not have one of its own.
    for fn in acceptance.CRITERIA:
        assert not hasattr(fn, "__wrapped__"), fn.__name__
        assert fn.__doc__, fn.__name__
