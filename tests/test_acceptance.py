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
