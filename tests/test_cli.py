import argparse
import ast
import inspect
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fermiosc
import fermiosc.cli as cli
from fermiosc.cli import ResultRow, emit, main
from fermiosc.oscillator import BoundaryCondition, closed_form_partition
from fermiosc.path_integral import (DiscretizedChain, SliceScheme, close_boundary,
                                    contract_chain, partition_via_determinant)
from fermiosc.selftest import Invariant

AP, P = BoundaryCondition.ANTIPERIODIC, BoundaryCondition.PERIODIC


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
    assert [r["z_value"] for r in rows] == [closed_form_partition(1.0, 1.0, bc) for bc in (AP, P)]
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
    chain = DiscretizedChain(4, 1.0, 1.0, SliceScheme.FIRST_ORDER)
    assert row["z_value"] == partition_via_determinant(chain, AP) == 1.31640625
    assert row["abs_error"] == abs(1.31640625 - closed_form_partition(1.0, 1.0, AP))


def test_csv_shape(capsys):
    _, out = run_cli(
        capsys, "exact", "--beta", "2", "--omega", "0.5", "--format", "csv"
    )
    lines = out.splitlines()
    assert lines[0] == "route,beta,omega,n_steps,bc,z_value,reference_z,abs_error"
    assert len(lines) == 3
    # n_steps column stays empty for the exact route
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
    for n_steps, beta, omega in ((9, 0.7, 1.3), (8, 35.5, 1.0)):
        argv = ["--beta", repr(beta), "--omega", repr(omega), "--steps", str(n_steps)]
        z_values = [[r["z_value"] for r in json_rows(run_cli(capsys, command, *argv)[1])]
                    for command in ("chain", "determinant")]
        chain = DiscretizedChain(n_steps, beta, omega)
        kernel = contract_chain(chain)
        assert z_values == [[close_boundary(kernel, bc) for bc in (AP, P)],
                            [partition_via_determinant(chain, bc) for bc in (AP, P)]]
        assert z_values[0] == z_values[1]


def test_output_is_deterministic(capsys):
    args = ("sweep", "--beta", "0.5", "2", "--omega", "1", "--steps", "2", "4")
    _, first = run_cli(capsys, *args)
    _, second = run_cli(capsys, *args)
    assert first == second
    assert len(json_rows(first)) == 8


@pytest.mark.parametrize("beta", ["0", "-0.0"])
@pytest.mark.parametrize("command", ["exact", "chain", "determinant", "sweep"])
def test_beta_zero_prints_rows_on_every_route(capsys, command, beta):
    # validate_point is the one domain rule, and it accepts beta = 0
    code, out = run_cli(capsys, command, "--beta", beta, "--omega", "1")
    rows = json_rows(out)
    assert code == 0
    assert [r["z_value"] for r in rows] == [r["reference_z"] for r in rows]
    assert [repr(r["z_value"]) for r in rows] == ["2.0", "0.0"]  # never -0.0


@pytest.mark.parametrize(
    "argv",
    [
        "exact --beta nan --omega 1",
        "exact --beta -1 --omega 1",
        "exact --beta 1 --omega 0",
        "exact --beta 1 --omega inf",
        "chain --beta 1 --omega nan",
        "determinant --beta inf --omega 1",
        "sweep --beta 1 -1 --omega 1",
        "chain --beta 1 --omega 0",
        "chain --beta 1 --omega 1 --steps 0",
        "chain --beta 1 --omega 1 --steps 1" + "0" * 400,
        "sweep --beta 1 --omega 1 --steps 4 2",
        "sweep --beta 1 --omega 1 --steps 2 2",
        "chain --beta 1 --omega 1 --scheme cubic",
    ],
)
def test_invalid_point_exits_2_with_empty_stdout(capsys, argv):
    with pytest.raises(SystemExit) as err:
        main(argv.split())
    assert err.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("steps", ["4 2", "2 2"])
def test_sweep_refuses_unordered_steps_by_the_flag_name(capsys, steps):
    with pytest.raises(SystemExit) as err:
        main(("sweep --beta 1 --omega 1 --steps " + steps).split())
    out, stderr = capsys.readouterr()
    assert (err.value.code, out) == (2, "")
    assert stderr.splitlines()[-1] == "fermiosc: error: --steps must be strictly ascending"


def test_an_unknown_scheme_is_refused_by_its_choices(capsys):
    with pytest.raises(SystemExit) as err:
        main("chain --beta 1 --omega 1 --scheme cubic".split())
    out, stderr = capsys.readouterr()
    assert (err.value.code, out) == (2, "")
    assert stderr.splitlines()[-1].startswith(
        "fermiosc chain: error: argument --scheme: invalid choice: 'cubic'")


def test_cross_check_is_relative_at_large_magnitude(capsys):
    code, out = run_cli(
        capsys, "determinant", "--beta", "700", "--omega", "1", "--steps", "8",
        "--scheme", "first-order",
    )
    assert code == 0
    chain = DiscretizedChain(8, 700.0, 1.0, SliceScheme.FIRST_ORDER)
    assert [r["z_value"] for r in json_rows(out)] == [
        partition_via_determinant(chain, bc) for bc in (AP, P)]


def test_overflowing_determinant_exits_1_without_rows(capsys):
    code = main("determinant --beta 1e6 --omega 1 --steps 200 --scheme first-order".split())
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and "not finite" in err
    assert "cross-check" not in err


def test_cross_check_failure_names_both_values(capsys, monkeypatch):
    monkeypatch.setattr("fermiosc.path_integral._ActionGaussian.__call__", lambda self, bc: 1.0)
    argv = "determinant --beta 1 --omega 1 --steps 4 --scheme first-order --bc antiperiodic"
    code = main(argv.split())
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err == (
        "cross-check failure: Gaussian expansion 1.0 disagrees with determinant 1.31640625\n"
    )
    # a determinant off by twice the expansion's rounding 4 (N + 1) ulp (1 + |lambda^N|),
    # which is 72 ulp at N = 8 and lambda^N ~ 1: an absolute 1e-10 would pass it
    monkeypatch.undo()
    one_plus = fermiosc.path_integral._one_plus
    monkeypatch.setattr("fermiosc.path_integral._one_plus",
                        lambda chain, sign: one_plus(chain, sign) + 2 * 72 * 2.0**-52)
    code = main("determinant --beta 1e-12 --omega 1 --steps 8 --bc periodic".split())
    out, err = capsys.readouterr()
    assert (code, out) == (1, "") and err.startswith("cross-check failure: ")


def test_first_failing_row_in_output_order_is_reported(capsys, monkeypatch):
    # rows run bc-major: (antiperiodic, 2), (antiperiodic, 3), (periodic, 2), ...; a
    # chain-major order would reach the periodic N = 2 fault first
    faults = {(3, AP): 1.0, (2, P): 2.0}
    kernel = fermiosc.path_integral._ActionGaussian.__call__
    monkeypatch.setattr("fermiosc.path_integral._ActionGaussian.__call__",
                        lambda self, bc: faults.get((self.n, bc)) or kernel(self, bc))
    code = main("sweep --beta 1 --omega 1 --steps 2 3".split())
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err == (
        "cross-check failure: Gaussian expansion 1.0 disagrees with determinant "
        "1.3678794411714423\n"
    )


def test_determinant_keeps_digits_at_tiny_beta(capsys):
    code, out = run_cli(capsys, "determinant", "--beta", "1e-12", "--omega", "1", "--steps", "8")
    assert code == 0
    chain = DiscretizedChain(8, 1e-12, 1.0)
    assert json_rows(out)[1]["z_value"] == partition_via_determinant(chain, P)


def test_emit_refuses_non_finite_values():
    row = ResultRow("exact", 1.0, 1.0, None, "periodic", math.nan, 1.0, math.nan)
    for fmt in ("json", "csv"):
        with pytest.raises(ValueError):
            emit([row], fmt)


def test_overflowing_chain_exits_1_without_rows(capsys):
    code = main("chain --beta 1e300 --omega 1 --steps 8 --scheme first-order".split())
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and "non-finite" in err
    assert "cross-check" not in err


def test_chain_past_64_steps_prints_rows(capsys):
    code, out = run_cli(capsys, "chain", "--beta", "1", "--omega", "1", "--steps", "65")
    assert code == 0
    kernel = contract_chain(DiscretizedChain(65, 1.0, 1.0))
    assert [r["z_value"] for r in json_rows(out)] == [close_boundary(kernel, bc) for bc in (AP, P)]


# stdout byte for byte, which test_reused_parser_keeps_golden_stdout checks
# twice per entry: a change of convention or of the row pipeline must not
# move it; only a correctness fix named in CHANGES.md may
GOLDEN = {
    "chain --beta 1e-4 --omega 0.5 --steps 1 --scheme exact":
        '{"route": "chain", "beta": 0.0001, "omega": 0.5, "n_steps": 1, "bc": "antiperiodic", '
        '"z_value": 1.9999500012499791, "reference_z": 1.9999500012499791, "abs_error": 0.0}\n'
        '{"route": "chain", "beta": 0.0001, "omega": 0.5, "n_steps": 1, "bc": "periodic", '
        '"z_value": 4.9998750020833077e-05, "reference_z": 4.9998750020833077e-05, '
        '"abs_error": 0.0}\n',
    "chain --beta 1e-4 --omega 2 --steps 64 --scheme first-order":
        '{"route": "chain", "beta": 0.0001, "omega": 2.0, "n_steps": 64, "bc": "antiperiodic", '
        '"z_value": 1.9998000196862287, "reference_z": 1.9998000199986667, '
        '"abs_error": 3.1243807541159185e-10}\n'
        '{"route": "chain", "beta": 0.0001, "omega": 2.0, "n_steps": 64, "bc": "periodic", '
        '"z_value": 0.0001999803137714238, "reference_z": 0.0001999800013332667, '
        '"abs_error": 3.1243815710622555e-10}\n',
    "chain --beta 30 --omega 2 --steps 7 --scheme first-order --format csv":
        "route,beta,omega,n_steps,bc,z_value,reference_z,abs_error\n"
        "chain,30,2,7,antiperiodic,-1426410.4197279308,1,1426411.4197279308\n"
        "chain,30,2,7,periodic,1426412.4197279308,1,1426411.4197279308\n",
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


# inputs that leave main() through parser.error (exit 2) or an overflow (exit 1)
FAULTS = {
    "chain --beta -1 --omega 1": 2,
    "sweep --beta 1 --omega 1 --steps 8 4": 2,
    "determinant --beta 1e6 --omega 1 --steps 200 --scheme first-order": 1,
}


def exit_code(argv):
    try:
        return main(argv.split())
    except SystemExit as exc:
        return exc.code


def test_reused_parser_keeps_golden_stdout(capsys):
    entries = list(GOLDEN)
    faults = list(FAULTS.items())
    for i, argv in enumerate(entries + entries[::-1]):
        assert run_cli(capsys, *argv.split()) == (0, GOLDEN[argv]), argv
        fault, code = faults[i % len(faults)]
        assert exit_code(fault) == code, fault
        assert capsys.readouterr().out == ""


def test_main_builds_the_parser_once(monkeypatch):
    build = cli.build_parser
    assert inspect.isfunction(build) and build() is not build()
    calls = []

    def counting_build():
        calls.append(None)
        return build()

    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", counting_build)
    for argv in ("exact --beta 1 --omega 1", "chain --beta 1 --omega 1 --steps 8",
                 "determinant --beta 1 --omega 1 --steps 4", *FAULTS,
                 "sweep --beta 1 --omega 1 --steps 2 4", "exact --beta 2 --omega 1"):
        exit_code(argv)
    assert len(calls) == 1


@pytest.mark.parametrize("argv", [
    "exact --beta 1 --omega 1", "chain --beta 1 --omega 1 --steps 8",
    "determinant --beta 1 --omega 1 --steps 4", "sweep --beta 1 --omega 1 --steps 2 4", "selftest",
])
def test_one_argparse_pass_per_request(capsys, monkeypatch, argv):
    parse = argparse.ArgumentParser.parse_known_args
    progs = []

    def counting_parse(self, *args, **kwargs):
        progs.append(self.prog)
        return parse(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counting_parse)
    monkeypatch.setattr(cli, "run_selftest", tuple)  # the catalogue itself is not under test
    assert run_cli(capsys, *argv.split())[0] == 0
    assert progs == ["fermiosc " + argv.split()[0]]


# argv that help, usage and error messages answer, or that argparse reads in a
# way of its own: abbreviations, `=`, `--`, repeats, negative values, extras
EDGE_ARGV = [
    "", "-h", "--help", "-h chain", "chain -h", "sweep --help", "selftest -h", "--version",
    "-x chain", "cha --beta 1 --omega 1", "Chain --beta 1 --omega 1",
    "chain --beta 1 --omega 1 extra", "chain --beta 1 --omega 1 --steps 4 5",
    "selftest extra", "selftest --x", "exact --beta 1 --omega 1 --steps 4",
    "exact --beta 1 --omega 1 -x", "chain --bet 1 --omeg 1", "chain --beta 1 --omega 1 --he",
    "chain --beta=1 --omega=1", "-- chain --beta 1 --omega 1", "chain -- --beta 1 --omega 1",
    "chain --beta 1 --omega 1 --", "chain --beta 1 --omega 1 --scheme bogus",
    "chain --format xml --beta 1 --omega 1", "chain --beta x --omega 1",
    "chain --beta nan --omega 1", "exact --beta 1 --omega nan", "chain --omega 1",
    "chain --beta 1 --beta 2 --omega 1", "determinant --beta -1 --omega 1",
    "chain --beta -1e-3 --omega 1", "chain --beta 1 --omega 1 --steps 0",
    "sweep --beta 1 --omega 1 --steps", "sweep --beta 1 2 --omega 1 --steps 2 4 --format csv",
    "chain --beta 1 --omega 1 --steps 3 --bc periodic --format csv", "selftest",
]


class _Parsed(Exception):
    """Carries the namespace main() parsed out of main() before any route runs."""


@pytest.mark.parametrize("columns", ["80", "43"])
def test_main_parses_as_the_full_parser(capsys, monkeypatch, columns):
    def stop(args):
        raise _Parsed(args)

    def through_main(argv):
        try:
            main(argv)
        except _Parsed as parsed:
            return parsed.args[0]
        raise AssertionError("main ran past the parse")

    def outcome(parse, argv):
        try:  # repr, since a NaN value is not equal to itself
            return {name: repr(value) for name, value in vars(parse(argv)).items()}
        except SystemExit as exc:  # help, usage and error text wrap at COLUMNS
            return (exc.code, *capsys.readouterr())

    monkeypatch.setenv("COLUMNS", columns)
    monkeypatch.setattr(cli, "_RUNNERS", dict.fromkeys(cli._RUNNERS, stop))
    monkeypatch.setattr(cli, "run_selftest_command", stop)
    for argv in (*EDGE_ARGV, *GOLDEN, *FAULTS):
        direct = outcome(through_main, argv.split())
        assert direct == outcome(cli._parser.parse_args, argv.split()), argv


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
from fermiosc import cli
from fermiosc.cli import main
assert "numpy" not in sys.modules, "import fermiosc.cli loaded numpy"
assert "decimal" not in sys.modules, "import fermiosc.cli loaded decimal"
assert "logging" not in sys.modules, "import fermiosc.cli loaded logging"
assert cli._parser is None, "import fermiosc.cli built the parser"
assert cli._commands is None, "import fermiosc.cli built the command map"
# the records are named tuples; dataclasses would bring inspect, ast, dis and tokenize
for name in ("dataclasses", "inspect"):
    assert name not in sys.modules, "import fermiosc.cli loaded " + name
for argv in sys.argv[1:]:
    assert main(argv.split()) == 0, argv
    assert "logging" not in sys.modules, argv + " loaded logging"
    if argv != "selftest":  # the catalogue's 50-digit reference is the one decimal user,
        # and numpy, which only the catalogue loads, imports inspect
        for name in ("decimal", "dataclasses", "inspect"):
            assert name not in sys.modules, argv + " loaded " + name
print("numpy" in sys.modules)
"""


@pytest.mark.parametrize(
    "commands, loads_numpy",
    [
        # routes that build no array: the closed form, the chain at any N, and the
        # determinant and sweep on both sides of GAUSSIAN_CAP, whose cross-check takes
        # the action's sparse columns
        (["exact --beta 1 --omega 1",
          "chain --beta 1 --omega 1 --steps 32", "chain --beta 1e-12 --omega 1 --steps 1000000",
          "determinant --beta 1 --omega 1 --steps 8", "determinant --beta 1 --omega 1 --steps 9",
          "sweep --beta 1 --omega 1 --steps 1 8", "sweep --beta 1 --omega 1 --steps 9 20"], False),
        # the catalogue, whose operator entries build the 2x2 matrices
        (["selftest"], True),
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


def test_package_names_are_unique_and_resolve():
    # __init__ joins four star imports, so a clash or a stale name would shadow silently
    names = fermiosc.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(fermiosc, name)] == []


def test_no_test_name_is_defined_twice_in_one_scope():
    # Python keeps only the last of two definitions, so a shadowed test never runs
    root = Path(__file__).resolve().parents[1]
    for path in [*root.glob("tests/*.py"), *root.glob("perfbench/test_*.py")]:
        for scope in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(scope, (ast.Module, ast.ClassDef, ast.FunctionDef)):
                names = [node.name for node in scope.body if isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
                assert len(names) == len(set(names)), (path.name, getattr(scope, "name", ""))


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
