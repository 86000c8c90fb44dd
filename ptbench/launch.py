"""Runs ptbath CLI invocations inside one interpreter, optionally traced.

    launch.py batch --workload W --seconds S --workdir D
        Runs passes of a batch workload through ``ptbath.cli.main`` until
        the next pass would end after S seconds (at least one pass), and
        writes the timings and peak memory to D/launch.json.
    launch.py cmd --op K -- ARGS...
        Runs one ``ptbath`` command with ARGS and exits with its code; the
        traced stand-in for ``python -m ptbath.cli ARGS``.

Tracing is on when the environment names a trace directory (see
``spans.ENV_DIR``); every traced process writes its spans there.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import spans
from workloads import FIGURE_IDS, SWEEP_JOBS, figure_argv, sweep_argv


def _recorder():
    trace_dir = os.environ.get(spans.ENV_DIR)
    return spans.install(Path(trace_dir)) if trace_dir else None


def _call_main(cli, argv) -> int:
    try:
        return int(cli.main(argv) or 0)
    except SystemExit as exc:  # argparse errors
        return exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a traceback counts as a failed operation, not a crash
        traceback.print_exc()
        return 1


def _vm_hwm_kb() -> int:
    """Peak resident memory of this process since it started."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def _plan(workload: str, pass_dir: Path, jobs: int):
    if workload == "figures":
        return [(fig, figure_argv(fig, str(pass_dir / f"{fig}.csv"))) for fig in FIGURE_IDS]
    if workload == "sweep-jobs2":
        return [("sweep", sweep_argv(str(pass_dir / "sweep.csv"), jobs))]
    raise ValueError(f"not a batch workload: {workload}")


def batch(args) -> int:
    rec = _recorder()
    import ptbath.cli as cli

    jobs = min(SWEEP_JOBS, len(os.sched_getaffinity(0)))
    workdir = Path(args.workdir)
    passes = []
    start = time.perf_counter()
    while True:
        pass_dir = workdir / f"pass{len(passes)}"
        pass_dir.mkdir(parents=True)
        plan = _plan(args.workload, pass_dir, jobs)
        ops = []
        t_pass = time.perf_counter()
        for name, argv in plan:
            if rec is not None:
                rec.op = len(passes) * len(plan) + len(ops)
            t0 = time.perf_counter()
            rc = _call_main(cli, argv)
            ops.append({"name": name, "rc": rc, "seconds": time.perf_counter() - t0,
                        "out": argv[argv.index("--out") + 1]})
        passes.append({"wall": time.perf_counter() - t_pass, "ops": ops})
        mean_pass = statistics.fmean(p["wall"] for p in passes)
        if time.perf_counter() - start + mean_pass > args.seconds:
            break
    if rec is not None:
        rec.flush()
    result = {
        "jobs": jobs,
        "passes": passes,
        # VmHWM, not RUSAGE_SELF: ru_maxrss starts at the parent's peak
        "maxrss_kb": max(_vm_hwm_kb(),
                         resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss),
    }
    (workdir / "launch.json").write_text(json.dumps(result))
    return 0


def cmd(args) -> int:
    rec = _recorder()
    import ptbath.cli as cli

    if rec is not None:
        rec.op = args.op
    try:
        return _call_main(cli, args.argv)
    finally:
        if rec is not None:
            rec.flush()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("batch")
    p.add_argument("--workload", required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--workdir", required=True)
    p.set_defaults(func=batch)
    p = sub.add_parser("cmd")
    p.add_argument("--op", type=int, required=True)
    p.add_argument("argv", nargs=argparse.REMAINDER)
    p.set_defaults(func=cmd)
    args = parser.parse_args()
    if getattr(args, "argv", None) and args.argv[0] == "--":
        args.argv = args.argv[1:]
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
elif __name__ == "__mp_main__" and os.environ.get(spans.ENV_DIR):
    # a pool worker started with spawn or forkserver re-imports this file
    # instead of inheriting the wrapped functions
    _recorder()._forked()
