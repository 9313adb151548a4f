"""Acceptance gate: release criteria 5 and 6, one pass/fail line each.

Criteria 1-4 and 7-10 are entries of the invariant catalogue
(``fermiosc.selftest.INVARIANTS``, run by ``tests/test_invariants.py``).
Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; each line names the criterion, the worst observed defect, and the
tolerance it is held to.
"""

from fermiosc.grassmann import (
    add,
    coefficient,
    integrate_pair,
    monomial,
    mul,
    one,
)
from fermiosc.path_integral import (
    BoundaryCondition,
    DiscretizedChain,
    SliceScheme,
    closed_form_partition,
    partition_via_determinant,
    step_kernel,
)

AP = BoundaryCondition.ANTIPERIODIC
P = BoundaryCondition.PERIODIC


def _verdict(num, label, defect, tolerance):
    ok = defect <= tolerance
    print(
        "%s  criterion %2d  %-38s defect %.3e  tol %.0e"
        % ("PASS" if ok else "FAIL", num, label, defect, tolerance)
    )
    assert ok, "criterion %d (%s): defect %.3e exceeds %.0e" % (
        num,
        label,
        defect,
        tolerance,
    )


def test_criterion_05_three_slice_contraction_form():
    chain = DiscretizedChain(3, 3.0, 1.0)
    element = one(chain.registry)
    for k in (1, 2, 3):
        element = mul(element, step_kernel(chain, k))
    for k in (1, 2):
        weight = add(
            one(chain.registry),
            monomial(chain.registry, [chain.cstar_index(k), chain.c_index(k)], -1.0),
        )
        element = integrate_pair(
            mul(element, weight), chain.cstar_index(k), chain.c_index(k)
        )
    prop_mask = (1 << chain.cstar_index(3)) | (1 << chain.c_index(0))
    stray = max(
        (abs(c) for m, c in element.terms.items() if m not in (0, prop_mask)),
        default=0.0,
    )
    survivor = coefficient(element, [chain.cstar_index(3), chain.c_index(0)])
    assert element.scalar_part() == 1.0
    assert abs(survivor - chain.step_coefficient**3) <= 1e-15
    _verdict(5, "three-slice kernel has two monomials", stray, 1e-15)


def test_criterion_06_step_count_convergence():
    closed = {bc: closed_form_partition(1.0, 1.0, bc) for bc in (AP, P)}
    worst_ratio_defect = 0.0
    for bc in (AP, P):
        errors = {}
        for n in (32, 64, 128):
            chain = DiscretizedChain(n, 1.0, 1.0, SliceScheme.FIRST_ORDER)
            errors[n] = abs(partition_via_determinant(chain, bc) - closed[bc])
        for a, b in ((32, 64), (64, 128)):
            ratio = errors[a] / errors[b]
            worst_ratio_defect = max(worst_ratio_defect, abs(ratio - 2.0))
    exact_defect = max(
        abs(partition_via_determinant(DiscretizedChain(n, 1.0, 1.0), bc) - closed[bc])
        for n in range(1, 65)
        for bc in (AP, P)
    )
    assert exact_defect <= 1e-12, "exact-scheme determinant drifted: %g" % exact_defect
    _verdict(6, "first-order error halves per doubling", worst_ratio_defect, 0.2)
