"""The invariant catalogue under pytest, one test per entry.

``pytest -s tests/test_invariants.py`` prints the line ``fermiosc selftest``
prints for each entry: PASS or FAIL, the name, the worst defect and the
tolerance.
"""

import math

import pytest

from fermiosc import path_integral
from fermiosc.path_integral import SliceScheme
from fermiosc.selftest import INVARIANTS, Invariant, run_selftest


@pytest.mark.parametrize("invariant", INVARIANTS, ids=[inv.name for inv in INVARIANTS])
def test_invariant(invariant):
    result = invariant.check()
    print(result.verdict())
    assert result.passed, result.detail


def test_nan_defect_fails_the_entry():
    result = Invariant("nan", "defect", (0, 1), 1.0, lambda p: (0.0, math.nan)[p]).check()
    assert not result.passed and math.isnan(result.defect)


def test_route_accuracy_sees_a_skewed_step_log(monkeypatch):
    # a fault in the step log the chain and the determinant share moves both
    # routes alike, so only a reference of its own can see it
    log_step = path_integral._log_step

    def skewed(chain):
        sign, log_abs = log_step(chain)
        if chain.scheme is SliceScheme.EXACT:
            log_abs *= 1.0 + 2.0**-44
        return sign, log_abs

    monkeypatch.setattr(path_integral, "_log_step", skewed)
    results = {result.name: result for result in run_selftest()}
    assert not results["route-relative-accuracy"].passed
