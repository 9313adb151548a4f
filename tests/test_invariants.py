"""The invariant catalogue under pytest, one test per entry.

``pytest -s tests/test_invariants.py`` prints the line ``fermiosc selftest``
prints for each entry: PASS or FAIL, the name, the worst defect and the
tolerance.
"""

import math

import pytest

from fermiosc.selftest import INVARIANTS, Invariant


@pytest.mark.parametrize("invariant", INVARIANTS, ids=[inv.name for inv in INVARIANTS])
def test_invariant(invariant):
    result = invariant.check()
    print(result.verdict())
    assert result.passed, result.detail


def test_nan_defect_fails_the_entry():
    result = Invariant("nan", "defect", (0, 1), 1.0, lambda p: (0.0, math.nan)[p]).check()
    assert not result.passed and math.isnan(result.defect)
