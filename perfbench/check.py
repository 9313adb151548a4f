"""Independent reference values, strict row parsing and failure classification.

Nothing here imports fermiosc.  The reference is the closed form of the
discrete single-mode partition function, Z = 1 + lambda^N (antiperiodic) or
Z = 1 - lambda^N (periodic), with lambda = exp(-eps*omega) (exact scheme) or
1 - eps*omega (first-order scheme) and eps = beta / N.
"""

from __future__ import annotations

import csv
import json
import math
import re
from typing import NamedTuple, Optional, Sequence, Tuple

# Every z_value must match the reference to this relative tolerance.
REL_TOL = 1e-9

EPS = 2.0 ** -52

# Row fields in output order.
FIELDS = ["route", "beta", "omega", "n_steps", "bc", "z_value", "reference_z", "abs_error"]

# Failure causes, in the order a request is checked.
CAUSES = ("exception", "exit_code", "row_format", "row_count", "tolerance")

# Defects of the program that the seed is known to have, as ``judge`` names
# them.  A failure that matches one of them is still a failure.
KNOWN_DEFECTS = (
    # 1 - lambda^N is formed by subtraction, so it loses digits when
    # lambda^N is close to 1: the miss is within the rounding of lambda^N.
    "periodic_cancellation",
    # The N <= 8 Gaussian cross-check compares with an absolute 1e-10 and
    # exits 1 although both of its values match the reference.
    "gauss_abs_tolerance",
)


class ExpectedRow(NamedTuple):
    route: str
    beta: float
    omega: float
    n_steps: int
    bc: str
    z: float
    # Largest miss explained by forming 1 +- lambda^N in floating point.
    rounding: float


def discrete_partition(
    scheme: str, n_steps: int, beta: float, omega: float, bc: str
) -> Tuple[float, float]:
    """(Z, |lambda|^N) of the N-slice discrete action, accurate to a few ulps."""
    x = (beta / n_steps) * omega
    if scheme == "exact":
        log_abs, negative = -x, False
    elif scheme == "first-order":
        if x == 1.0:
            return 1.0, 0.0
        negative = x > 1.0
        log_abs = math.log(x - 1.0) if negative else math.log1p(-x)
    else:
        raise ValueError("unknown scheme %r" % scheme)
    log_power = n_steps * log_abs
    power_negative = negative and n_steps % 2 == 1
    # Z = 1 + s |lambda|^N with s = +1 or -1
    plus = (bc == "antiperiodic") != power_negative
    magnitude = math.exp(log_power) if log_power < 709.0 else math.inf
    if plus:
        return 1.0 + magnitude, magnitude
    return -math.expm1(log_power), magnitude


def expected_row(
    route: str, scheme: str, n_steps: int, beta: float, omega: float, bc: str
) -> ExpectedRow:
    z, power = discrete_partition(scheme, n_steps, beta, omega, bc)
    rounding = 4.0 * (n_steps + 1) * EPS * max(1.0, power)
    return ExpectedRow(route, beta, omega, n_steps, bc, z, rounding)


class RowError(ValueError):
    """Output that is not strict JSON or valid CSV of the documented shape."""


def _reject_constant(name: str) -> float:
    raise RowError("non-finite JSON constant %s" % name)


def _finite(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise RowError("not a number: %r" % text) from None
    if not math.isfinite(value):
        raise RowError("non-finite CSV value %r" % text)
    return value


def parse_rows(stdout: str, fmt: str) -> list:
    """Rows as (route, beta, omega, n_steps, bc, z_value) tuples, strictly parsed."""
    lines = stdout.splitlines()
    rows = []
    if fmt == "json":
        for line in lines:
            try:
                obj = json.loads(line, parse_constant=_reject_constant)
            except json.JSONDecodeError as exc:
                raise RowError(str(exc)) from None
            if not isinstance(obj, dict) or list(obj) != FIELDS:
                raise RowError("unexpected JSON fields: %r" % line)
            for key in ("beta", "omega", "z_value", "reference_z", "abs_error"):
                if isinstance(obj[key], bool) or not isinstance(obj[key], (int, float)):
                    raise RowError("%s is not a number" % key)
            steps = obj["n_steps"]
            if isinstance(steps, bool) or not isinstance(steps, int):
                raise RowError("n_steps is not an integer")
            rows.append((obj["route"], obj["beta"], obj["omega"], steps, obj["bc"], obj["z_value"]))
        return rows
    records = list(csv.reader(lines, strict=True))
    if not records or records[0] != FIELDS:
        raise RowError("missing or wrong CSV header")
    for record in records[1:]:
        if len(record) != len(FIELDS):
            raise RowError("CSV row has %d columns" % len(record))
        route, beta, omega, steps, bc, z, ref, err = record
        if not re.fullmatch(r"[0-9]+", steps):
            raise RowError("n_steps is not an integer: %r" % steps)
        _finite(ref), _finite(err)
        rows.append((route, _finite(beta), _finite(omega), int(steps), bc, _finite(z)))
    return rows


_SELFTEST_SUMMARY = re.compile(r"selftest: ([0-9]+) passed, 0 failed")


def parse_selftest(stdout: str) -> int:
    """Number of passed checks in a clean selftest report."""
    *lines, summary = stdout.splitlines() or [""]
    found = _SELFTEST_SUMMARY.fullmatch(summary)
    if not found or not lines or int(found.group(1)) != len(lines):
        raise RowError("malformed selftest summary %r" % summary)
    if not all(line.startswith("PASS ") for line in lines):
        raise RowError("selftest line that is not a PASS")
    return len(lines)


_CROSS_CHECK = re.compile(
    r"cross-check failure: Gaussian expansion (\S+) disagrees with determinant (\S+)"
)


def _matches(value: float, expected: Sequence[ExpectedRow]) -> bool:
    return any(abs(value - row.z) <= REL_TOL * abs(row.z) for row in expected)


def _cross_check_values_right(stderr: str, expected: Sequence[ExpectedRow]) -> bool:
    found = _CROSS_CHECK.search(stderr)
    if not found:
        return False
    try:
        values = [float(v) for v in found.groups()]
    except ValueError:
        return False
    return all(_matches(v, expected) for v in values)


class Verdict(NamedTuple):
    cause: Optional[str]  # None when the request passed
    known: Optional[str]  # the known defect that explains the failure, if any
    detail: str


PASS = Verdict(None, None, "")


def judge(
    expected: Sequence[ExpectedRow],
    fmt: str,
    exit_code: Optional[int],
    stdout: str,
    stderr: str,
    exception: Optional[BaseException],
) -> Verdict:
    """Check one valid request's outcome: exit 0 and rows that match the reference."""
    if exception is not None:
        return Verdict("exception", None, repr(exception))
    if exit_code != 0:
        known = None
        if exit_code == 1 and _cross_check_values_right(stderr, expected):
            known = "gauss_abs_tolerance"
        return Verdict("exit_code", known, "exit %r, expected 0" % (exit_code,))
    try:
        if fmt == "selftest":
            parse_selftest(stdout)
            return PASS
        rows = parse_rows(stdout, fmt)
    except RowError as exc:
        return Verdict("row_format", None, str(exc))
    if len(rows) != len(expected):
        return Verdict("row_count", None, "%d rows, expected %d" % (len(rows), len(expected)))
    for got, want in zip(rows, expected):
        if got[:5] != tuple(want[:5]):
            return Verdict("row_format", None, "row %r, expected %r" % (got[:5], tuple(want[:5])))
    misses = [(got[5], want) for got, want in zip(rows, expected)
              if abs(got[5] - want.z) > REL_TOL * abs(want.z)]
    if not misses:
        return PASS
    unexplained = [(z, want) for z, want in misses if abs(z - want.z) > want.rounding]
    z, want = (unexplained or misses)[0]
    known = None if unexplained else "periodic_cancellation"
    return Verdict("tolerance", known, "z %r, reference %r" % (z, want.z))
