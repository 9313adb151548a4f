"""Tests of the benchmark's reference, row checks, request streams and tracer.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import math
import sys
from pathlib import Path

import pytest

from check import (KNOWN_DEFECTS, RowError, discrete_partition, expected_row, judge, parse_rows,
                   parse_selftest)
from workloads import DECKS, DEFECT_PROBES, GAUSS_STEPS, X_MAX, X_MIN, Stream, request_kinds

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize(
    "beta, n_steps, anti, peri",
    [
        (1.5, 3, 1.125, 0.875),  # lambda = 0.5
        (4.5, 3, 0.875, 1.125),  # lambda = -0.5, odd N
        (3.0, 2, 1.25, 0.75),  # lambda = -0.5, even N
        (2.0, 2, 1.0, 1.0),  # lambda = 0
    ],
)
def test_first_order_hand_values(beta, n_steps, anti, peri):
    assert discrete_partition("first-order", n_steps, beta, 1.0, "antiperiodic")[0] == anti
    assert discrete_partition("first-order", n_steps, beta, 1.0, "periodic")[0] == peri


def test_exact_scheme_keeps_digits_at_small_beta_omega():
    for n_steps in (1, 8, 512):
        peri, power = discrete_partition("exact", n_steps, 1e-12, 1.0, "periodic")
        assert math.isclose(peri, 1e-12 - 0.5e-24, rel_tol=1e-15)
        assert discrete_partition("exact", n_steps, 1e-12, 1.0, "antiperiodic")[0] == 2.0 - 1e-12
    assert discrete_partition("exact", 4, 700.0, 1.0, "periodic")[0] == 1.0


def _json_row(z, bc="antiperiodic"):
    return ('{"route": "chain", "beta": 1.5, "omega": 1.0, "n_steps": 3, "bc": "%s", '
            '"z_value": %s, "reference_z": 1.0, "abs_error": 0.0}' % (bc, z))


def test_strict_json_rejects_non_finite_constants():
    assert parse_rows(_json_row("1.125") + "\n", "json") == [
        ("chain", 1.5, 1.0, 3, "antiperiodic", 1.125)
    ]
    for bad in ("NaN", "Infinity", "-Infinity"):
        with pytest.raises(RowError):
            parse_rows(_json_row(bad), "json")


def test_csv_checks_header_columns_and_numbers():
    header = "route,beta,omega,n_steps,bc,z_value,reference_z,abs_error\n"
    assert parse_rows(header + "chain,1,2,8,periodic,0.5,0.5,0\n", "csv") == [
        ("chain", 1.0, 2.0, 8, "periodic", 0.5)
    ]
    for bad in ("chain,1,2,8,periodic,nan,0.5,0\n", "chain,1,2,8,periodic,0.5,0.5\n",
                "chain,1,2,x,periodic,0.5,0.5,0\n", "chain,1,2,,periodic,0.5,0.5,0\n"):
        with pytest.raises(RowError):
            parse_rows(header + bad, "csv")
    with pytest.raises(RowError):
        parse_rows("chain,1,2,8,periodic,0.5,0.5,0\n", "csv")


def _chain_rows():
    return tuple(expected_row("chain", "first-order", 3, 1.5, 1.0, bc)
                 for bc in ("antiperiodic", "periodic"))


def test_judge_classifies_failures():
    rows = _chain_rows()
    good = _json_row("1.125") + "\n" + _json_row("0.875", "periodic") + "\n"
    assert judge(rows, "json", 0, good, "", None).cause is None
    assert judge(rows, "json", None, "", "", RuntimeError()).cause == "exception"
    assert judge(rows, "json", 2, "", "usage", None)[:2] == ("exit_code", None)
    assert judge(rows, "json", 0, _json_row("1.125"), "", None).cause == "row_count"
    assert judge(rows, "json", 0, good.replace("1.125", "NaN"), "", None).cause == "row_format"
    wrong = _json_row("1.125") + "\n" + _json_row("0.9", "periodic")
    assert judge(rows, "json", 0, wrong, "", None)[:2] == ("tolerance", None)


def test_known_defects_need_their_signature():
    peri = expected_row("chain", "exact", 1, 1e-12, 1.0, "periodic")
    lossy = '{"route": "chain", "beta": 1e-12, "omega": 1.0, "n_steps": 1, "bc": "periodic", ' \
            '"z_value": %r, "reference_z": 0.0, "abs_error": 0.0}' % (1.0 - math.exp(-1e-12))
    assert judge((peri,), "json", 0, lossy, "", None)[:2] == (
        "tolerance", "periodic_cancellation")
    rows = _chain_rows()
    agree = "cross-check failure: Gaussian expansion 1.125 disagrees with determinant 1.125\n"
    assert judge(rows, "json", 1, "", agree, None).known == "gauss_abs_tolerance"
    differ = "cross-check failure: Gaussian expansion 1.0 disagrees with determinant 1.125\n"
    assert judge(rows, "json", 1, "", differ, None).known is None


def test_selftest_report():
    assert parse_selftest("PASS a: x\nPASS b: y\nselftest: 2 passed, 0 failed\n") == 2
    for bad in ("PASS a: x\nselftest: 2 passed, 0 failed\n", "FAIL a: x\nselftest: 1 passed, 0 failed\n", ""):
        with pytest.raises(RowError):
            parse_selftest(bad)


@pytest.mark.parametrize("workload", sorted(DECKS))
def test_streams_are_seeded(workload):
    first = [r.argv for d in range(3) for r in Stream(workload, 5).deck(d)]
    assert first == [r.argv for d in range(3) for r in Stream(workload, 5).deck(d)]
    assert first != [r.argv for d in range(3) for r in Stream(workload, 6).deck(d)]
    mixes = {tuple(sorted(request_kinds(Stream(workload, s).deck(d)).items()))
             for s in (1, 2) for d in range(4)}
    assert len(mixes) == 1


@pytest.mark.parametrize("workload", sorted(DECKS))
def test_streams_stay_inside_the_domain_and_probes_outside(workload):
    def x(req):
        argv = req.argv
        return float(argv[argv.index("--beta") + 1]) * float(argv[argv.index("--omega") + 1])

    routes = [r for d in range(20) for r in Stream(workload, 3).deck(d) if r.kind != "selftest"]
    assert all(X_MIN <= x(r) <= X_MAX * (1 + 1e-12) for r in routes)
    assert all(not X_MIN <= x(r) <= X_MAX for _, r in DEFECT_PROBES)
    assert {defect for defect, _ in DEFECT_PROBES} == set(KNOWN_DEFECTS)


def test_gauss_steps_stay_under_the_cross_check_cap():
    for text in GAUSS_STEPS:
        steps = [int(n) for n in text.split()]
        assert steps == sorted(set(steps)) and 1 <= steps[0] and steps[-1] <= 8


def test_tracer_restores_bindings_and_nests_spans():
    sys.path.insert(0, str(SRC))
    import fermiosc.cli as cli
    import fermiosc.path_integral as pi
    from tracing import Tracer

    def bindings():
        return (cli.main, pi.mul, pi.contract_chain, cli.contract_chain, cli._RUNNERS["chain"])

    originals = bindings()
    tracer = Tracer()
    with tracer:
        assert cli.contract_chain is pi.contract_chain is not originals[2]
        assert cli._RUNNERS["chain"] is not cli.run_chain.__wrapped__ is originals[4]
        assert cli.main(["chain", "--beta", "1", "--omega", "1", "--steps", "8"]) == 0
    assert bindings() == originals
    totals = tracer.totals()
    assert totals["cli.run_chain"]["calls"] == 1
    m = tracer.metrics(1)
    assert 0 < m["cli.run.self_ms"] and 0 < m["cli.main.self_ms"]
    assert m["path_integral.steps"] == 8 and m["path_integral.contract_chain.calls"] == 1
    assert m["grassmann.mul.calls"] > 0 and m["grassmann.determinant.ms"] == 0
    assert 0 < m["path_integral.contract_chain.self_ms"] < m["path_integral.contract_chain.ms"]
    assert 0 < m["grassmann.mul.pair_yield"] <= 1
