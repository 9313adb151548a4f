"""Seeded request streams for the two benchmark workloads.

A stream is a sequence of decks.  Each deck holds a fixed mix of requests
(the same kinds, boundary choices, formats and schemes every time).  The
chain deck draws its step counts stratified over their range, with the
position inside each stratum moving by the golden ratio from deck to deck;
the Gaussian deck runs a fixed table of step lists.  Whole decks therefore
carry the same work up to a small, shrinking error, so a run's throughput
does not depend on which seed drew it.  beta*omega is drawn log-uniformly
over [X_MIN, X_MAX] for every request.  The same (workload, seed) always
gives the same requests.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Dict, List, NamedTuple, Sequence, Tuple

from check import ExpectedRow, expected_row

# The seed program fails two of its known defects outside this range of
# beta*omega (``check.KNOWN_DEFECTS``): below a few times 1e-6 the periodic value
# misses the relative tolerance, and above about 35 the first-order N <= 8
# cross-check exits 1.  Timed requests stay inside it, with a margin, so
# that no timed request fails; DEFECT_PROBES keeps both defects in view.
X_MIN, X_MAX = 1e-4, 30.0
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
BOTH = ("antiperiodic", "periodic")
SCHEMES = ("exact", "first-order")


class Request(NamedTuple):
    kind: str
    argv: Tuple[str, ...]
    fmt: str  # "json", "csv" or "selftest"
    expected: Tuple[ExpectedRow, ...]


def _x(rng: random.Random) -> float:
    """beta*omega, log-uniform over [X_MIN, X_MAX]."""
    return 10.0 ** rng.uniform(math.log10(X_MIN), math.log10(X_MAX))


def _omega(rng: random.Random) -> float:
    return 2.0 ** rng.uniform(-2.0, 2.0)


def _strata(count: int, shift: float) -> List[float]:
    """One point in each of ``count`` equal strata of [0, 1)."""
    return [(i + shift) / count for i in range(count)]


def _balanced(rng: random.Random, values: Sequence[str], count: int) -> List[str]:
    out = [values[i % len(values)] for i in range(count)]
    rng.shuffle(out)
    return out


def _route(kind: str, rng: random.Random, steps: Sequence[int], scheme: str,
           fmt: str = "json") -> Request:
    omega = _omega(rng)
    return request(kind, _x(rng) / omega, omega, steps, scheme, fmt)


def request(kind: str, beta: float, omega: float, steps: Sequence[int], scheme: str,
            fmt: str = "json") -> Request:
    """One route request for both boundary conditions, with its expected rows."""
    argv = [kind, "--beta", repr(beta), "--omega", repr(omega), "--steps"]
    argv += [str(n) for n in steps]
    argv += ["--scheme", scheme, "--bc", "both", "--format", fmt]
    expected = tuple(
        expected_row(kind, scheme, n, beta, omega, bc) for bc in BOTH for n in steps
    )
    return Request(kind, tuple(argv), fmt, expected)


def chain_deck(rng: random.Random, shift: float, index: int) -> List[Request]:
    schemes = _balanced(rng, SCHEMES, 8)
    fmts = _balanced(rng, ("json", "csv"), 8)
    return [
        _route("chain", rng, [8 + min(56, int(u * 57))], scheme, fmt)
        for u, scheme, fmt in zip(_strata(8, shift), schemes, fmts)
    ]


# Step lists of the gauss_crosscheck deck, one request each: a single N is a
# `determinant` request, a longer list a `sweep`.  Every N is at most 8, so
# every determinant runs the Gaussian cross-check.  The lists were chosen so
# that request times spread about evenly in log time from 2.4 ms to 69 ms
# (2-vCPU Xeon, Python 3.11): a quantile of the run's latencies then moves
# smoothly when part of the run is slowed, instead of jumping from one
# group of equal requests to the next.
GAUSS_STEPS = (
    "1", "2", "3", "1 2", "1 3", "2 3", "1 4", "2 4", "2 3 4", "1 3 4",
    "5", "2 5", "1 3 5", "2 4 5", "3 4 5", "1 3 4 5", "1 2 3 4 5", "1 2 3 4 5",
    "2 6", "4 6", "3 4 6", "5 6", "1 4 5 6", "2 3 5 6", "1 3 4 5 6", "1 3 4 5 6",
    "1 4 7", "1 4 7", "7", "1 3 7", "2 3 4 7", "1 2 5 7", "2 6 7", "3 6 7",
    "3 4 5 6 7", "2 3 4 5 6 7", "1 2 3 4 5 6 7", "1 2 3 4 5 6 7", "1 2 3 4 5 6 7",
    "1 2 8", "1 2 8", "3 8", "1 3 4 8", "3 4 5 6 8", "1 2 4 5 6 8", "2 3 4 5 6 8",
    "1 2 7 8", "2 3 4 5 7 8", "1 2 3 4 5 6 7 8",
)

SELFTEST = Request("selftest", ("selftest",), "selftest", ())


def gauss_deck(rng: random.Random, shift: float, index: int) -> List[Request]:
    # each list takes the other scheme in the next deck
    out = []
    for k, text in enumerate(GAUSS_STEPS):
        steps = [int(n) for n in text.split()]
        kind = "determinant" if len(steps) == 1 else "sweep"
        out.append(_route(kind, rng, steps, SCHEMES[(k + index) % 2]))
    return out + [SELFTEST]


# One request per known seed defect, at inputs outside [X_MIN, X_MAX] where
# the seed is known to fail.  They run once per run, untimed and apart from
# the counted requests, and the report says whether each defect still shows.
DEFECT_PROBES = (
    ("periodic_cancellation", request("chain", 1e-12, 1.0, [8], "exact")),
    ("periodic_cancellation", request("determinant", 1e-12, 1.0, [8], "exact")),
    ("gauss_abs_tolerance", request("determinant", 700.0, 1.0, [8], "first-order")),
)

DeckMaker = Callable[[random.Random, float, int], List[Request]]

DECKS: Dict[str, DeckMaker] = {
    "chain_contract": chain_deck,
    "gauss_crosscheck": gauss_deck,
}


class Stream:
    """The deterministic deck sequence of one (workload, seed)."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self._make = DECKS[workload]
        self._offset = random.Random("%s:%d" % (workload, seed)).random()

    def deck(self, index: int) -> List[Request]:
        rng = random.Random("%s:%d:%d" % (self.workload, self.seed, index))
        requests = self._make(rng, (self._offset + index * GOLDEN) % 1.0, index)
        rng.shuffle(requests)
        return requests


def request_kinds(requests: Sequence[Request]) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for req in requests:
        counts[req.kind] = counts.get(req.kind, 0) + 1
    return counts
