"""Spans around every call into the public functions of fermiosc's modules.

The tracer is installed only for the traced run: it rebinds each layer's
public functions, in every ``fermiosc.*`` namespace that binds them and in
the module-level dicts that hold them (such as the CLI's dispatch table),
to a wrapper that records a span (name, start, end, parent span, request
id), and rebinds the originals when it is removed.  Spans stay in memory
until the run ends.  A span's self time is its duration minus the
durations of its child spans and minus the tracer's own bookkeeping for
those children, which each wrapper measures.
"""

from __future__ import annotations

import gzip
import inspect
import sys
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

LAYERS = ("cli", "oscillator", "path_integral", "grassmann", "selftest")


def _count_mul(tracer: "Tracer", args: tuple, result) -> None:
    a, b = args[0].terms, args[1].terms
    tracer.counts["mul.pairs"] += len(a) * len(b)
    tracer.counts["mul.disjoint"] += sum(1 for ma in a for mb in b if not ma & mb)
    tracer.peak_terms = max(tracer.peak_terms, len(a), len(b), len(result.terms))


def _count_determinant(tracer: "Tracer", args: tuple, result) -> None:
    n = len(args[0])
    tracer.counts["determinant.flops"] += 2.0 * n ** 3 / 3.0


def _count_chain(tracer: "Tracer", args: tuple, result) -> None:
    tracer.counts["chain.steps"] += args[0].n_steps


def _count_emit(tracer: "Tracer", args: tuple, result) -> None:
    tracer.counts["emit.rows"] += len(args[0])


def _count_selftest(tracer: "Tracer", args: tuple, result) -> None:
    tracer.counts["selftest.checks"] += len(result)
    tracer.counts["selftest.failed"] += sum(1 for r in result if not r.passed)


COUNTERS: Dict[str, Callable] = {
    "grassmann.mul": _count_mul,
    "grassmann.determinant": _count_determinant,
    "path_integral.contract_chain": _count_chain,
    "cli.emit": _count_emit,
    "selftest.run_selftest": _count_selftest,
}


def _public_functions(module) -> List[str]:
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    return [
        n for n in names
        if inspect.isfunction(getattr(module, n, None))
        and getattr(module, n).__module__ == module.__name__
    ]


class Tracer:
    def __init__(self) -> None:
        self.names: List[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.request_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.tax = array("q")
        self.request = -1
        self.counts: Dict[str, float] = {
            "mul.pairs": 0, "mul.disjoint": 0, "determinant.flops": 0.0,
            "chain.steps": 0, "emit.rows": 0, "selftest.checks": 0, "selftest.failed": 0,
        }
        self.peak_terms = 0
        self._stack = [-1]
        self._bound: List[Tuple[dict, str, Callable]] = []

    def _wrap(self, name: str, fn: Callable, count: Optional[Callable]) -> Callable:
        nid = len(self.names)
        self.names.append(name)
        name_id, parent_of, request_id = self.name_id, self.parent, self.request_id
        starts, ends, tax, stack = self.start, self.end, self.tax, self._stack
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            entered = clock()
            idx = len(name_id)
            parent = stack[-1]
            if parent < 0:  # a root span starts the next request
                tracer.request += 1
            name_id.append(nid)
            parent_of.append(parent)
            request_id.append(tracer.request)
            starts.append(0)
            ends.append(0)
            tax.append(0)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                starts[idx] = start
                ends[idx] = end
            if count is not None:
                count(tracer, args, result)
            if parent >= 0:
                tax[parent] += start - entered + clock() - end
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if (n == "fermiosc" or n.startswith("fermiosc.")) and m is not None]
        for layer in LAYERS:
            module = sys.modules["fermiosc." + layer]
            for attr in _public_functions(module):
                fn = getattr(module, attr)
                name = "%s.%s" % (layer, attr)
                wrapper = self._wrap(name, fn, COUNTERS.get(name))
                for target in modules:
                    namespace = vars(target)
                    tables = [v for k, v in namespace.items()
                              if type(v) is dict and not k.startswith("__")]
                    for table in [namespace] + tables:
                        for key, value in list(table.items()):
                            if value is fn:
                                self._bound.append((table, key, fn))
                                table[key] = wrapper

    def remove(self) -> None:
        for table, key, fn in reversed(self._bound):
            table[key] = fn
        self._bound.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    def totals(self) -> Dict[str, Dict[str, int]]:
        """Per span name: calls, inclusive ns, self ns, and ns of outermost spans of its layer."""
        n = len(self.name_id)
        duration = array("q", (self.end[i] - self.start[i] for i in range(n)))
        children = array("q", bytes(8 * n))
        for i in range(n):
            if self.parent[i] >= 0:
                children[self.parent[i]] += duration[i]
        layer_of = [name.split(".")[0] for name in self.names]
        out = {name: {"calls": 0, "ns": 0, "self_ns": 0, "layer_ns": 0} for name in self.names}
        for i in range(n):
            nid = self.name_id[i]
            entry = out[self.names[nid]]
            entry["calls"] += 1
            entry["ns"] += duration[i]
            entry["self_ns"] += duration[i] - children[i] - self.tax[i]
            p = self.parent[i]
            if p < 0 or layer_of[self.name_id[p]] != layer_of[nid]:
                entry["layer_ns"] += duration[i]
        return out

    def metrics(self, requests: int) -> Dict[str, float]:
        """Per-layer metrics; times and counts are per request."""
        t = self.totals()

        def get(name: str, key: str) -> float:
            return t.get(name, {}).get(key, 0)

        def ms(name: str, key: str = "ns") -> float:
            return get(name, key) / 1e6 / requests

        def layer(prefix: str, key: str) -> float:
            return sum(v[key] for k, v in t.items() if k.startswith(prefix + "."))

        c = self.counts
        det_s = get("grassmann.determinant", "ns") / 1e9
        return {
            "cli.main.self_ms": ms("cli.main", "self_ns"),
            "cli.run.self_ms": sum(v["self_ns"] for k, v in t.items()
                                   if k.startswith("cli.run_")) / 1e6 / requests,
            "cli.build_parser.ms": ms("cli.build_parser"),
            "cli.emit.ms": ms("cli.emit"),
            "cli.emit.rows": c["emit.rows"] / requests,
            "oscillator.ms": layer("oscillator", "layer_ns") / 1e6 / requests,
            "oscillator.calls": layer("oscillator", "calls") / requests,
            "path_integral.contract_chain.ms": ms("path_integral.contract_chain"),
            "path_integral.contract_chain.self_ms": ms("path_integral.contract_chain", "self_ns"),
            "path_integral.contract_chain.calls": get("path_integral.contract_chain", "calls") / requests,
            "path_integral.steps": c["chain.steps"] / requests,
            "grassmann.integrate_pair.ms": ms("grassmann.integrate_pair"),
            "grassmann.integrate_pair.calls": get("grassmann.integrate_pair", "calls") / requests,
            "grassmann.mul.ms": ms("grassmann.mul"),
            "grassmann.mul.calls": get("grassmann.mul", "calls") / requests,
            "grassmann.mul.pairs": c["mul.pairs"] / requests,
            "grassmann.mul.pair_yield": c["mul.disjoint"] / c["mul.pairs"] if c["mul.pairs"] else 0.0,
            "grassmann.mul.peak_terms": self.peak_terms,
            "grassmann.determinant.ms": ms("grassmann.determinant"),
            "grassmann.determinant.flops": c["determinant.flops"] / requests,
            "grassmann.determinant.mflops": c["determinant.flops"] / det_s / 1e6 if det_s else 0.0,
            "path_integral.action_matrix.ms": ms("path_integral.action_matrix"),
            "path_integral.partition_via_determinant.self_ms":
                ms("path_integral.partition_via_determinant", "self_ns"),
            "path_integral.convergence_sweep.ms": ms("path_integral.convergence_sweep"),
            "grassmann.gaussian_integral_expand.ms": ms("grassmann.gaussian_integral_expand"),
            "grassmann.gaussian_integral_expand.calls":
                get("grassmann.gaussian_integral_expand", "calls") / requests,
            "grassmann.exp_nilpotent.ms": ms("grassmann.exp_nilpotent"),
            "grassmann.substitute.ms": ms("grassmann.substitute"),
            "path_integral.close_boundary.ms": ms("path_integral.close_boundary"),
            "selftest.run_selftest.ms": ms("selftest.run_selftest"),
            "selftest.checks": c["selftest.checks"] / requests,
            "selftest.failed": c["selftest.failed"] / requests,
        }

    def write(self, path) -> None:
        """Every span as CSV, times in ns from the first span's start."""
        n = len(self.name_id)
        origin = min(self.start) if n else 0
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span,request,parent,name,start_ns,end_ns\n")
            out.writelines(
                "%d,%d,%d,%s,%d,%d\n" % (
                    i, self.request_id[i], self.parent[i], self.names[self.name_id[i]],
                    self.start[i] - origin, self.end[i] - origin,
                )
                for i in range(n)
            )
