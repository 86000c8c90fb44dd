"""Spans around the public functions of each ptbath layer, recorded from
outside the package, and the per-layer metrics computed from them.

A span is ``[name, start, end, parent, op, n, error]``: the layer-qualified
function name, ``time.perf_counter`` start and end (CLOCK_MONOTONIC, so
comparable across processes), the index of the enclosing span in the same
process (-1 for none), the operation id (one CLI invocation), a work count
for the call and the name of the exception it raised, if any.  Spans stay
in memory and each process writes its own file when it ends.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

ENV_DIR = "PTBENCH_TRACE_DIR"

# The layer boundaries.  Per-element helpers (coth, big_omega, xi_*) are
# left out on purpose: they run once per mode and time step, about a
# million times per discrete-bath command, and wrapping them would measure
# the wrapper.
TRACED = {
    "cli": ("main", "build_parser", "run_figure", "run_sweep", "optimize", "crossover",
            "golden_section_min"),
    "continuum": ("gamma_continuum_nh", "gamma_hermitian", "integrate_adaptive",
                  "gamma_integrand_nh", "gamma_integrand_hermitian"),
    "core": ("gamma_discrete", "gamma_discrete_amplitude", "load_bath_csv"),
    "oracle": ("certify", "exact_dephasing", "exact_dephasing_converged"),
    "entanglement": ("concurrence", "dephased_bell", "eof_from_concurrence"),
}


def _size(x) -> int:
    return int(getattr(x, "size", 1))


# Work done by one call, from its arguments and result.
WORK = {
    "continuum.gamma_integrand_nh": lambda a, kw, r: _size(a[0] if a else kw["omega"]),
    "continuum.gamma_integrand_hermitian": lambda a, kw, r: _size(a[0] if a else kw["omega"]),
    "core.gamma_discrete": lambda a, kw, r: len((a[0] if a else kw["bath"]).modes)
    * _size(a[1] if len(a) > 1 else kw["t"]),
    "oracle.certify": lambda a, kw, r: int(r.fock_dim_used),
}


class Recorder:
    """Span buffer of one process."""

    def __init__(self, out_dir: Path):
        self.out_dir = Path(out_dir)
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.main = True
        self.needs_finalizer = False

    def wrap(self, name, fn, work=None, on_result=None):
        rec = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, rec.stack[-1] if rec.stack else -1, rec.op, 0, None]
            rec.stack.append(len(rec.spans))
            rec.spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[6] = type(exc).__name__
                raise
            finally:
                span[2] = clock()
                rec.stack.pop()
                if rec.needs_finalizer:
                    rec._register_finalizer()
            if work is not None:
                span[5] = work(args, kwargs, result)
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped_by_ptbench__ = True
        return traced

    def _forked(self):
        # a pool worker starts with a copy of the parent's buffer
        self.spans, self.stack, self.main = [], [], False
        self.needs_finalizer = True

    def _register_finalizer(self):
        # multiprocessing clears its finalizer registry when a worker starts,
        # so the hook is registered on the worker's first span, not at fork
        import multiprocessing.util

        self.needs_finalizer = False
        multiprocessing.util.Finalize(None, self.flush, exitpriority=10)

    def flush(self) -> None:
        path = self.out_dir / f"spans-{os.getpid()}.json"
        with open(path, "w") as fh:
            json.dump({"main": self.main, "spans": self.spans}, fh)


def install(out_dir: Path) -> Recorder:
    """Wrap every traced function at every ptbath module attribute bound to
    it (``gamma_continuum_nh`` is also ``ptbath.cli.gamma_continuum_nh``)."""
    import ptbath.cli  # noqa: F401  (imports every layer)

    rec = Recorder(out_dir)
    modules = [m for n, m in sorted(sys.modules.items())
               if m is not None and (n == "ptbath" or n.startswith("ptbath."))]

    def parser_hook(parser):
        parser.parse_args = rec.wrap("cli.parse_args", parser.parse_args)

    for layer, names in TRACED.items():
        home = sys.modules[f"ptbath.{layer}"]
        for fname in names:
            fn = getattr(home, fname, None)
            if fn is None or getattr(fn, "__wrapped_by_ptbench__", False):
                continue
            key = f"{layer}.{fname}"
            traced = rec.wrap(key, fn, WORK.get(key),
                              parser_hook if key == "cli.build_parser" else None)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, traced)
    os.register_at_fork(after_in_child=rec._forked)
    return rec


# ---------------------------------------------------------------------------
# analysis

SEARCHES = ("cli.optimize", "cli.crossover")
DRIVERS = ("cli.run_figure", "cli.run_sweep", "cli.optimize", "cli.crossover",
           "cli.golden_section_min")
INTEGRANDS = ("continuum.gamma_integrand_nh", "continuum.gamma_integrand_hermitian")
# every continuum failure passes through exactly one public entry point
ENTRIES = ("continuum.gamma_continuum_nh", "continuum.gamma_hermitian")

# name -> unit; the order is the order of the report
LAYER_METRICS = {
    "cli.import_s": "s",
    "cli.parse_s": "s",
    "cli.serialize_s": "s",
    "cli.driver_self_s": "s",
    "cli.pool_busy_ratio": "ratio",
    "cli.search_evals": "count",
    "continuum.integrals": "count",
    "continuum.values_per_integral": "ratio",
    "continuum.points_per_integral": "count",
    "continuum.rounds_per_integral": "count",
    "continuum.integrand_s": "s",
    "continuum.integrand_ns_per_point": "ns",
    "continuum.quad_self_s": "s",
    "continuum.max_points_per_call": "count",
    "continuum.failures": "count",
    "core.mode_evals": "count",
    "core.gamma_discrete_s": "s",
    "core.ns_per_mode_eval": "ns",
    "core.load_bath_s": "s",
    "oracle.certify_s": "s",
    "oracle.exact_dephasing_s": "s",
    "oracle.exact_dephasing_calls": "count",
    "oracle.fock_dim_used": "count",
    "entanglement.concurrence_calls": "count",
    "entanglement.concurrence_s": "s",
    "trace.overhead": "ratio",
}

# counts that must repeat exactly between two traced runs of one seed
EXACT_COUNTS = (
    "continuum.integrals",
    "continuum.points_per_integral",
    "continuum.rounds_per_integral",
    "continuum.max_points_per_call",
    "cli.search_evals",
    "oracle.fock_dim_used",
    "core.mode_evals",
)


def load_spans(trace_dir: Path) -> list[dict]:
    out = []
    for path in sorted(Path(trace_dir).glob("spans-*.json")):
        with open(path) as fh:
            out.append(json.load(fh))
    return out


def layer_metrics(processes: list[dict], passes: int, jobs: int,
                  verified_values: float) -> dict[str, float]:
    """Per-layer metrics of ``passes`` identical traced passes, per pass.

    ``verified_values`` is the number of Gamma values per pass that the
    output checks accepted.
    """
    count = defaultdict(int)
    total = defaultdict(float)
    self_time = defaultdict(float)
    work = defaultdict(int)
    max_work = defaultdict(int)
    worker_gamma_s = 0.0
    integrand_calls_in_quad = 0
    search_evals = 0
    failures = 0
    for proc in processes:
        spans = proc["spans"]
        covered = [0.0] * len(spans)
        for name, start, end, parent, _op, n, err in spans:
            if parent >= 0:
                covered[parent] += end - start
        for i, (name, start, end, parent, _op, n, err) in enumerate(spans):
            dur = end - start
            count[name] += 1
            total[name] += dur
            self_time[name] += dur - covered[i]
            work[name] += n
            max_work[name] = max(max_work[name], n)
            parent_name = spans[parent][0] if parent >= 0 else None
            if name in INTEGRANDS and parent_name == "continuum.integrate_adaptive":
                integrand_calls_in_quad += 1
            if err == "QuadratureError" and name in ENTRIES:
                failures += 1
            if name == "continuum.gamma_continuum_nh":
                if not proc["main"]:
                    worker_gamma_s += dur
                j = parent
                while j >= 0 and spans[j][0] not in SEARCHES:
                    j = spans[j][3]
                if j >= 0:
                    search_evals += 1

    def ratio(a, b):
        return a / b if b else 0.0

    per = 1.0 / max(passes, 1)
    integrals = count["continuum.integrate_adaptive"]
    points = sum(work[n] for n in INTEGRANDS)
    integrand_s = sum(total[n] for n in INTEGRANDS)
    searches = sum(count[n] for n in SEARCHES)
    return {
        "cli.parse_s": (total["cli.build_parser"] + total["cli.parse_args"]) * per,
        "cli.serialize_s": self_time["cli.main"] * per,
        "cli.driver_self_s": sum(self_time[n] for n in DRIVERS) * per,
        "cli.pool_busy_ratio": ratio(worker_gamma_s, jobs * total["cli.run_sweep"]),
        "cli.search_evals": ratio(search_evals, searches),
        "continuum.integrals": integrals * per,
        "continuum.values_per_integral": ratio(verified_values, integrals * per),
        "continuum.points_per_integral": ratio(points, integrals),
        # the 7- and 15-point rules each evaluate the integrand once a round
        "continuum.rounds_per_integral": ratio(integrand_calls_in_quad / 2, integrals),
        "continuum.integrand_s": integrand_s * per,
        "continuum.integrand_ns_per_point": ratio(integrand_s * 1e9, points),
        "continuum.quad_self_s": self_time["continuum.integrate_adaptive"] * per,
        "continuum.max_points_per_call": max(max_work[n] for n in INTEGRANDS),
        "continuum.failures": failures * per,
        "core.mode_evals": work["core.gamma_discrete"] * per,
        "core.gamma_discrete_s": total["core.gamma_discrete"] * per,
        "core.ns_per_mode_eval": ratio(total["core.gamma_discrete"] * 1e9,
                                       work["core.gamma_discrete"]),
        "core.load_bath_s": total["core.load_bath_csv"] * per,
        "oracle.certify_s": total["oracle.certify"] * per,
        "oracle.exact_dephasing_s": total["oracle.exact_dephasing"] * per,
        "oracle.exact_dephasing_calls": count["oracle.exact_dephasing"] * per,
        "oracle.fock_dim_used": ratio(work["oracle.certify"], count["oracle.certify"]),
        "entanglement.concurrence_calls": count["entanglement.concurrence"] * per,
        "entanglement.concurrence_s": total["entanglement.concurrence"] * per,
    }
