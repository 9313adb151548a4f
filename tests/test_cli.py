import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fermiosc
from fermiosc.cli import ResultRow, emit, main
from fermiosc.oscillator import BoundaryCondition, closed_form_partition
from fermiosc.selftest import Invariant


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def json_rows(text):
    return [json.loads(line) for line in text.splitlines()]


def test_exact_emits_both_boundary_rows(capsys):
    code, out = run_cli(capsys, "exact", "--beta", "1", "--omega", "1")
    rows = json_rows(out)
    assert code == 0
    assert [r["bc"] for r in rows] == ["antiperiodic", "periodic"]
    assert rows[0]["z_value"] == pytest.approx(1.3678794, abs=5e-8)
    assert rows[1]["z_value"] == pytest.approx(0.6321206, abs=5e-8)
    assert all(r["route"] == "exact" for r in rows)
    assert all("n_steps" not in r for r in rows)


def test_json_field_names_and_order(capsys):
    _, out = run_cli(capsys, "chain", "--beta", "1", "--omega", "1", "--bc", "periodic")
    (row,) = json_rows(out)
    assert list(row) == [
        "route",
        "beta",
        "omega",
        "n_steps",
        "bc",
        "z_value",
        "reference_z",
        "abs_error",
    ]
    assert row["n_steps"] == 16
    assert row["abs_error"] == abs(row["z_value"] - row["reference_z"])


def test_determinant_first_order_example(capsys):
    code, out = run_cli(
        capsys,
        "determinant",
        "--beta", "1",
        "--omega", "1",
        "--steps", "4",
        "--scheme", "first-order",
        "--bc", "antiperiodic",
    )
    (row,) = json_rows(out)
    assert code == 0
    assert row["z_value"] == 1.31640625
    assert row["abs_error"] == pytest.approx(
        1.0 + math.exp(-1.0) - 1.31640625, rel=1e-12
    )


def test_csv_shape(capsys):
    _, out = run_cli(
        capsys, "exact", "--beta", "2", "--omega", "0.5", "--format", "csv"
    )
    lines = out.splitlines()
    assert lines[0] == "route,beta,omega,n_steps,bc,z_value,reference_z,abs_error"
    assert len(lines) == 3
    # n_steps column stays empty for the oracle route
    assert lines[1].split(",")[3] == ""


def test_csv_roundtrips_doubles(capsys):
    _, out = run_cli(
        capsys, "chain", "--beta", "1", "--omega", "1", "--format", "csv",
        "--bc", "antiperiodic",
    )
    value = float(out.splitlines()[1].split(",")[5])
    assert value == 1.0 + math.exp(-1.0)


def test_sweep_row_cardinality(capsys):
    _, out = run_cli(
        capsys,
        "sweep",
        "--beta", "1",
        "--omega", "1",
        "--steps", "2", "4", "8",
        "--scheme", "first-order",
    )
    rows = json_rows(out)
    assert len(rows) == 6
    assert [r["bc"] for r in rows] == ["antiperiodic"] * 3 + ["periodic"] * 3
    assert [r["n_steps"] for r in rows] == [2, 4, 8, 2, 4, 8]


def test_sweep_errors_shrink_monotonically(capsys):
    _, out = run_cli(
        capsys,
        "sweep",
        "--beta", "1",
        "--omega", "1",
        "--steps", "4", "8", "16", "32",
        "--scheme", "first-order",
        "--bc", "antiperiodic",
    )
    errors = [r["abs_error"] for r in json_rows(out)]
    assert all(b < a for a, b in zip(errors, errors[1:]))


def test_exact_scheme_rows_hit_reference(capsys):
    # at beta*omega = 35.5 the chain's coefficient e^-35.5 must not be dropped
    for point in ("--beta 0.7 --omega 1.3 --steps 9", "--beta 35.5 --omega 1 --steps 8"):
        z_values = []
        for command in ("chain", "determinant"):
            rows = json_rows(run_cli(capsys, command, *point.split())[1])
            assert all(r["abs_error"] <= 1e-12 for r in rows)
            z_values.append([r["z_value"] for r in rows])
        assert z_values[0] == z_values[1]


def test_output_is_deterministic(capsys):
    args = ("sweep", "--beta", "0.5", "2", "--omega", "1", "--steps", "2", "4")
    _, first = run_cli(capsys, *args)
    _, second = run_cli(capsys, *args)
    assert first == second
    assert len(json_rows(first)) == 8


def test_beta_zero_partition_values(capsys):
    code, out = run_cli(
        capsys, "exact", "--beta", "0", "--omega", "1", "--allow-beta-zero"
    )
    rows = json_rows(out)
    assert code == 0
    assert [r["z_value"] for r in rows] == [2.0, 0.0]


@pytest.mark.parametrize("beta", ["0", "-0.0"])
@pytest.mark.parametrize("command", ["exact", "chain", "determinant", "sweep"])
def test_beta_zero_prints_rows_on_every_route(capsys, command, beta):
    # validate_point is the one domain rule, and it accepts beta = 0
    code, out = run_cli(capsys, command, "--beta", beta, "--omega", "1")
    rows = json_rows(out)
    assert code == 0
    assert [r["z_value"] for r in rows] == [r["reference_z"] for r in rows]
    assert [repr(r["z_value"]) for r in rows] == ["2.0", "0.0"]  # never -0.0


def test_allow_beta_zero_is_an_ignored_flag(capsys):
    argv = ["exact", "--beta", "0", "--omega", "1"]
    assert run_cli(capsys, *argv, "--allow-beta-zero") == run_cli(capsys, *argv)


@pytest.mark.parametrize(
    "argv",
    [
        "exact --beta nan --omega 1",
        "chain --beta 1 --omega nan",
        "determinant --beta inf --omega 1",
        "sweep --beta 1 -1 --omega 1",
        "chain --beta 1 --omega 0",
        "chain --beta 1 --omega 1 --steps 0",
        "sweep --beta 1 --omega 1 --steps 4 2",
        "sweep --beta 1 --omega 1 --steps 2 2",
    ],
)
def test_invalid_point_exits_2_with_empty_stdout(capsys, argv):
    with pytest.raises(SystemExit) as err:
        main(argv.split())
    assert err.value.code == 2
    assert capsys.readouterr().out == ""


def test_cross_check_is_relative_at_large_magnitude(capsys):
    code, out = run_cli(
        capsys, "determinant", "--beta", "700", "--omega", "1", "--steps", "8",
        "--scheme", "first-order",
    )
    assert code == 0
    lam8 = (1.0 - 700.0 / 8) ** 8
    for row, want in zip(json_rows(out), (1.0 + lam8, 1.0 - lam8)):
        assert abs(row["z_value"] - want) <= 1e-12 * abs(want)


def test_overflowing_determinant_exits_1_without_rows(capsys):
    code = main("determinant --beta 1e6 --omega 1 --steps 200 --scheme first-order".split())
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and "not finite" in err
    assert "cross-check" not in err


def test_cross_check_failure_names_both_values(capsys, monkeypatch):
    monkeypatch.setattr("fermiosc.path_integral.gaussian_integral_expand", lambda m: 1.0)
    argv = "determinant --beta 1 --omega 1 --steps 4 --scheme first-order --bc antiperiodic"
    code = main(argv.split())
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err == (
        "cross-check failure: Gaussian expansion 1.0 disagrees with determinant 1.31640625\n"
    )


def test_determinant_keeps_digits_at_tiny_beta(capsys):
    code, out = run_cli(capsys, "determinant", "--beta", "1e-12", "--omega", "1", "--steps", "8")
    want = -math.expm1(-1e-12)
    assert code == 0
    assert abs(json_rows(out)[1]["z_value"] - want) <= 1e-15 * want


def test_emit_refuses_non_finite_values():
    row = ResultRow("exact", 1.0, 1.0, None, "periodic", math.nan, 1.0, math.nan)
    for fmt in ("json", "csv"):
        with pytest.raises(ValueError):
            emit([row], fmt)


def test_unknown_scheme_exits_with_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["chain", "--beta", "1", "--omega", "1", "--scheme", "cubic"])
    assert err.value.code == 2


def test_overflowing_chain_exits_1_without_rows(capsys):
    code = main("chain --beta 1e300 --omega 1 --steps 8 --scheme first-order".split())
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and "non-finite" in err
    assert "cross-check" not in err


def test_chain_past_64_steps_prints_rows(capsys):
    code, out = run_cli(capsys, "chain", "--beta", "1", "--omega", "1", "--steps", "65")
    lam65 = math.exp(-1.0 / 65) ** 65
    assert code == 0
    assert [r["z_value"] for r in json_rows(out)] == pytest.approx(
        [1.0 + lam65, 1.0 - lam65], rel=1e-13
    )


# stdout byte for byte: a change of convention or of the row pipeline must
# not move it; only a correctness fix named in CHANGES.md may
GOLDEN = {
    "chain --beta 1e-4 --omega 0.5 --steps 1 --scheme exact":
        '{"route": "chain", "beta": 0.0001, "omega": 0.5, "n_steps": 1, "bc": "antiperiodic", '
        '"z_value": 1.9999500012499791, "reference_z": 1.9999500012499791, "abs_error": 0.0}\n'
        '{"route": "chain", "beta": 0.0001, "omega": 0.5, "n_steps": 1, "bc": "periodic", '
        '"z_value": 4.999875002087428e-05, "reference_z": 4.9998750020833077e-05, '
        '"abs_error": 4.12064588180272e-17}\n',
    "chain --beta 1e-4 --omega 2 --steps 64 --scheme first-order":
        '{"route": "chain", "beta": 0.0001, "omega": 2.0, "n_steps": 64, "bc": "antiperiodic", '
        '"z_value": 1.9998000196862291, "reference_z": 1.9998000199986667, '
        '"abs_error": 3.12437631322382e-10}\n'
        '{"route": "chain", "beta": 0.0001, "omega": 2.0, "n_steps": 64, "bc": "periodic", '
        '"z_value": 0.00019998031377077563, "reference_z": 0.0001999800013332667, '
        '"abs_error": 3.124375089430618e-10}\n',
    "chain --beta 30 --omega 2 --steps 7 --scheme first-order --format csv":
        "route,beta,omega,n_steps,bc,z_value,reference_z,abs_error\n"
        "chain,30,2,7,antiperiodic,-1426410.4197279315,1,1426411.4197279315\n"
        "chain,30,2,7,periodic,1426412.4197279315,1,1426411.4197279315\n",
    "chain --beta 30 --omega 1 --steps 64 --scheme exact --format csv":
        "route,beta,omega,n_steps,bc,z_value,reference_z,abs_error\n"
        "chain,30,1,64,antiperiodic,1.0000000000000935,1.0000000000000935,0\n"
        "chain,30,1,64,periodic,0.99999999999990641,0.99999999999990641,0\n",
    "exact --beta 2 --omega 0.5":
        '{"route": "exact", "beta": 2.0, "omega": 0.5, "bc": "antiperiodic", '
        '"z_value": 1.3678794411714423, "reference_z": 1.3678794411714423, "abs_error": 0.0}\n'
        '{"route": "exact", "beta": 2.0, "omega": 0.5, "bc": "periodic", '
        '"z_value": 0.6321205588285577, "reference_z": 0.6321205588285577, "abs_error": 0.0}\n',
    "exact --beta 1e-6 --omega 2 --bc periodic --format csv":
        "route,beta,omega,n_steps,bc,z_value,reference_z,abs_error\n"
        "exact,9.9999999999999995e-07,2,,periodic,"
        "1.9999980000013331e-06,1.9999980000013331e-06,0\n",
    "determinant --beta 1 --omega 1 --steps 8 --scheme first-order":
        '{"route": "determinant", "beta": 1.0, "omega": 1.0, "n_steps": 8, "bc": "antiperiodic", '
        '"z_value": 1.3436089158058167, "reference_z": 1.3678794411714423, '
        '"abs_error": 0.024270525365625684}\n'
        '{"route": "determinant", "beta": 1.0, "omega": 1.0, "n_steps": 8, "bc": "periodic", '
        '"z_value": 0.6563910841941833, "reference_z": 0.6321205588285577, '
        '"abs_error": 0.024270525365625684}\n',
    "determinant --beta 5 --omega 0.5 --steps 20 --format csv":
        "route,beta,omega,n_steps,bc,z_value,reference_z,abs_error\n"
        "determinant,5,0.5,20,antiperiodic,1.0820849986238987,1.0820849986238987,0\n"
        "determinant,5,0.5,20,periodic,"
        "0.91791500137610127,0.91791500137610127,0\n",
    # the periodic reference keeps its digits at beta*omega = 1e-12
    "determinant --beta 1e-12 --omega 1 --steps 9 --bc periodic":
        '{"route": "determinant", "beta": 1e-12, "omega": 1.0, "n_steps": 9, "bc": "periodic", '
        '"z_value": 9.999999999995e-13, "reference_z": 9.999999999995e-13, "abs_error": 0.0}\n',
    "sweep --beta 1 --omega 1 --steps 8 9 20 --bc periodic":
        '{"route": "sweep", "beta": 1.0, "omega": 1.0, "n_steps": 8, "bc": "periodic", '
        '"z_value": 0.6321205588285577, "reference_z": 0.6321205588285577, "abs_error": 0.0}\n'
        '{"route": "sweep", "beta": 1.0, "omega": 1.0, "n_steps": 9, "bc": "periodic", '
        '"z_value": 0.6321205588285577, "reference_z": 0.6321205588285577, "abs_error": 0.0}\n'
        '{"route": "sweep", "beta": 1.0, "omega": 1.0, "n_steps": 20, "bc": "periodic", '
        '"z_value": 0.6321205588285577, "reference_z": 0.6321205588285577, "abs_error": 0.0}\n',
    "sweep --beta 0.3 5 --omega 2 --steps 1 3 9 --scheme first-order --bc antiperiodic "
    "--format csv":
        "route,beta,omega,n_steps,bc,z_value,reference_z,abs_error\n"
        "sweep,0.29999999999999999,2,1,antiperiodic,"
        "1.3999999999999999,1.5488116360940265,0.14881163609402659\n"
        "sweep,0.29999999999999999,2,3,antiperiodic,"
        "1.512,1.5488116360940265,0.03681163609402649\n"
        "sweep,0.29999999999999999,2,9,antiperiodic,"
        "1.5374412413457299,1.5488116360940265,0.011370394748296597\n"
        "sweep,5,2,1,antiperiodic,-8,1.0000453999297625,9.0000453999297623\n"
        "sweep,5,2,3,antiperiodic,-11.703703703703706,1.0000453999297625,12.703749103633468\n"
        "sweep,5,2,9,antiperiodic,"
        "0.99999999741882517,1.0000453999297625,4.5402510937320173e-05\n",
}


@pytest.mark.parametrize("argv", list(GOLDEN))
def test_chain_stdout_matches_golden(capsys, argv):
    assert run_cli(capsys, *argv.split()) == (0, GOLDEN[argv])


@pytest.mark.parametrize("beta_omega", [1e-12, 1e-6, 1.0, 30.0])
@pytest.mark.parametrize("bc", [bc.value for bc in BoundaryCondition])
@pytest.mark.parametrize(
    "command", ["chain --steps 8", "determinant --steps 8", "sweep --steps 1 9", "exact"]
)
def test_reference_is_the_closed_form(capsys, command, bc, beta_omega):
    beta, omega = beta_omega / 2, 2.0  # beta * omega == beta_omega exactly
    argv = command.split() + ["--beta", repr(beta), "--omega", repr(omega), "--bc", bc]
    code, out = run_cli(capsys, *argv)
    want = closed_form_partition(beta, omega, BoundaryCondition(bc))
    assert code == 0
    for row in json_rows(out):
        assert row["reference_z"] == want
        if row["route"] == "exact":
            assert row["z_value"] == want


_SRC = str(Path(fermiosc.__file__).resolve().parents[1])
_NUMPY_PROBE = """
import sys
from fermiosc.cli import main
assert "numpy" not in sys.modules, "import fermiosc.cli loaded numpy"
for argv in sys.argv[1:]:
    assert main(argv.split()) == 0, argv
print("numpy" in sys.modules)
"""


@pytest.mark.parametrize(
    "commands, loads_numpy",
    [
        # routes that build no array: the chain, and the determinant and sweep on
        # both sides of GAUSSIAN_CAP, whose cross-check takes the action matrix as rows
        (["chain --beta 1 --omega 1 --steps 32", "determinant --beta 1 --omega 1 --steps 8",
          "determinant --beta 1 --omega 1 --steps 9", "sweep --beta 1 --omega 1 --steps 1 8",
          "sweep --beta 1 --omega 1 --steps 9 20"], False),
        # the 2x2 oracle and the catalogue
        (["exact --beta 1 --omega 1", "selftest"], True),
    ],
)
def test_numpy_is_imported_only_where_arrays_are_built(commands, loads_numpy):
    # a fresh interpreter, since pytest and the test modules have loaded numpy here
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [_SRC, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", _NUMPY_PROBE, *commands], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == str(loads_numpy)


def test_selftest_passes_and_reports_counts(capsys):
    code, out = run_cli(capsys, "selftest")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1].startswith("selftest: ")
    assert ", 0 failed" in lines[-1]
    assert all(line.startswith("PASS") for line in lines[:-1])


def test_selftest_reports_a_raising_entry(capsys, monkeypatch):
    def broken(_):
        raise ArithmeticError("boom")

    entry = Invariant("broken", "defect", (0,), 0.0, broken)
    monkeypatch.setattr("fermiosc.selftest.INVARIANTS", (entry,))
    code, out = run_cli(capsys, "selftest")
    assert code == 1
    assert out.splitlines() == [
        "FAIL broken: raised ArithmeticError: boom",
        "selftest: 0 passed, 1 failed",
    ]


def test_emit_rejects_empty_and_unknown():
    row = ResultRow("exact", 1.0, 1.0, None, "periodic", 1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        emit([], "json")
    with pytest.raises(ValueError):
        emit([row], "yaml")
