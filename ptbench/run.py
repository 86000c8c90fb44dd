"""The ptbath benchmark.

    python3 ptbench/run.py --workload {figures,sweep-jobs2,commands} \\
        --seed N --seconds S --trace {0,1}

Run from the repository root; the package is imported from ``src/``.
Workloads are described in ``workloads.py`` and ``README.md``.  With
``--trace 0`` the run measures the end-to-end metrics with nothing
wrapped; with ``--trace 1`` it runs the same passes once untraced and once
traced and reports the per-layer metrics.  Human-readable lines come
first; the last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".ptbench_work"
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
from checks import CommandChecker, check_table, load_reference  # noqa: E402
from workloads import SWEEP_JOBS, make_session  # noqa: E402

WORKLOADS = ("figures", "sweep-jobs2", "commands")
END_TO_END = {"gamma_per_s": "1/s", "cmd_p50_ms": "ms", "cmd_p90_ms": "ms",
              "setup_s": "s", "peak_rss_mb": "MB"}
# setup is probed before and after the workload, to sample the machine at
# two moments of the run
SETUP_PROBES = 5
LAUNCH_TIMEOUT_S = 170
COMMAND_TIMEOUT_S = 60


def quantile(values, q: float) -> float:
    """Linear interpolation between closest ranks."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def child_env(blas_threads: int, trace_dir: Path | None = None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["OPENBLAS_NUM_THREADS"] = str(blas_threads)
    env.pop(spans.ENV_DIR, None)
    if trace_dir is not None:
        env[spans.ENV_DIR] = str(trace_dir)
    return env


class Probes:
    """Set-up time and ptbath import time from fresh interpreters
    (``probe.py``), taken before and after the workload."""

    def __init__(self, env: dict):
        self.env = env
        self.setup: list[float] = []
        self.imports: list[float] = []
        self.environment: dict = {}

    def run(self) -> None:
        for _ in range(SETUP_PROBES):
            t0 = time.monotonic()
            out = subprocess.run(
                [sys.executable, str(HERE / "probe.py")],
                env=self.env, cwd=WORK, capture_output=True, text=True,
                timeout=COMMAND_TIMEOUT_S, check=True).stdout
            probe = json.loads(out)
            self.setup.append(probe["t3"] - t0)
            self.imports.append(probe["t2"] - probe["t1"])
            self.environment = probe["env"]


# ---------------------------------------------------------------------------
# batch workloads: one launcher process runs the passes in-process


def run_batch(workload: str, seconds: float, workdir: Path, env: dict) -> dict:
    workdir.mkdir(parents=True)
    # its own process group, so that a timeout also ends the pool workers
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "launch.py"), "batch", "--workload", workload,
         "--seconds", str(seconds), "--workdir", str(workdir)],
        env=env, cwd=ROOT, stdout=subprocess.DEVNULL, start_new_session=True)
    try:
        rc = proc.wait(timeout=LAUNCH_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if rc != 0:
        raise RuntimeError(f"launcher exited with code {rc}")
    result = json.loads((workdir / "launch.json").read_text())
    ref = load_reference(HERE / "reference" /
                         ("figures.csv.gz" if workload == "figures" else "sweep.csv.gz"))
    for p in result["passes"]:
        for op in p["ops"]:
            op["verdict"] = check_table(op["rc"], Path(op["out"]), ref[op["name"]])
    result["maxrss_mb"] = result["maxrss_kb"] / 1024.0
    return result


# ---------------------------------------------------------------------------
# commands workload: a closed loop, one fresh interpreter per command


def _spawn(argv: list[str], out_path: Path, cwd: Path, env: dict) -> tuple[int, float, float]:
    """Run to exit; returns (exit code, seconds from spawn to exit, peak RSS MB)."""
    with open(out_path, "wb") as out, open(out_path.with_suffix(".err"), "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=cwd, env=env)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, seconds, usage.ru_maxrss / 1024.0


def run_commands(session, seconds: float, cwd: Path, out_dir: Path, env: dict,
                 traced: bool) -> dict:
    out_dir.mkdir(parents=True)
    passes, maxrss = [], 0.0
    start = time.perf_counter()
    while True:
        ops = []
        t_pass = time.perf_counter()
        for i, cmd in enumerate(session):
            if traced:
                argv = [sys.executable, str(HERE / "launch.py"), "cmd", "--op", str(i), "--",
                        *cmd.argv]
            else:
                argv = [sys.executable, "-m", "ptbath.cli", *cmd.argv]
            out = out_dir / f"p{len(passes)}-{i:03d}.out"
            rc, secs, rss = _spawn(argv, out, cwd, env)
            maxrss = max(maxrss, rss)
            ops.append({"name": cmd.kind, "rc": rc, "seconds": secs, "out": str(out)})
        passes.append({"wall": time.perf_counter() - t_pass, "ops": ops})
        mean_pass = statistics.fmean(p["wall"] for p in passes)
        if time.perf_counter() - start + mean_pass > seconds:
            break
    # checked after the last command: the discrete-bath check imports numpy
    # here, and this process's memory would count in every later child's peak
    checker = CommandChecker(cwd)
    for p in passes:
        for op, cmd in zip(p["ops"], session):
            op["verdict"] = checker.check(cmd, op["rc"], Path(op["out"]))
    return {"passes": passes, "maxrss_mb": maxrss, "jobs": 1}


# ---------------------------------------------------------------------------


def run_workload(args, workdir: Path, tag: str, env: dict, seconds: float, session) -> dict:
    if args.workload == "commands":
        return run_commands(session, seconds, workdir, workdir / tag, env, spans.ENV_DIR in env)
    return run_batch(args.workload, seconds, workdir / tag, env)


def summarize(result: dict) -> dict:
    ops = [op for p in result["passes"] for op in p["ops"]]
    ok_ops = [op for op in ops if op["verdict"].ok]
    return {
        "attempted": len(ops),
        "failed": len(ops) - len(ok_ops),
        "wrong": sum(op["verdict"].wrong for op in ops),
        "latencies": [op["seconds"] for op in ok_ops],
        "rates": [sum(op["verdict"].values for op in p["ops"]) / p["wall"]
                  for p in result["passes"]],
        "values_per_pass": statistics.fmean(
            sum(op["verdict"].values for op in p["ops"]) for p in result["passes"]),
        "walls": [p["wall"] for p in result["passes"]],
        "failures": sorted({f"{op['name']}: {op['verdict'].note}" for op in ops
                            if not op["verdict"].ok}),
        "by_name": {name: [op["seconds"] for op in ops if op["name"] == name]
                    for name in dict.fromkeys(op["name"] for op in ops)},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="ptbath benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "ptbath" / "cli.py").is_file():
        print(f"error: no ptbath package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    shutil.rmtree(WORK / args.workload, ignore_errors=True)
    workdir = WORK / args.workload
    workdir.mkdir(parents=True)

    nproc = len(os.sched_getaffinity(0))
    blas_threads = min(int(os.environ.get("OPENBLAS_NUM_THREADS") or nproc), nproc)
    os.environ["OPENBLAS_NUM_THREADS"] = str(blas_threads)
    env = child_env(blas_threads)
    probes = Probes(env)
    probes.run()
    print("environment: " + json.dumps({**probes.environment, "jobs": min(SWEEP_JOBS, nproc)}))
    session = make_session(args.seed, workdir) if args.workload == "commands" else None
    if not args.trace:
        result = run_workload(args, workdir, "run", env, args.seconds, session)
        probes.run()
        s = summarize(result)
        lat_ms = [x * 1e3 for x in s["latencies"]] or [math.nan]
        metrics = {
            "gamma_per_s": (statistics.median(s["rates"]), f"median of {len(s['rates'])} passes"),
            "cmd_p50_ms": (statistics.median(lat_ms), f"median of {len(s['latencies'])} "
                           "verified invocations"),
            "cmd_p90_ms": (quantile(lat_ms, 0.9), f"90th percentile of {len(s['latencies'])} "
                           "verified invocations"),
            "setup_s": (statistics.median(probes.setup),
                        f"median of {len(probes.setup)} fresh interpreters"),
            "peak_rss_mb": (result["maxrss_mb"], "peak over the workload's processes"),
        }
        runs = [s]
    else:
        half = args.seconds / 2.0
        plain = run_workload(args, workdir, "plain", env, half, session)
        trace_dir = workdir / "trace"
        trace_dir.mkdir()
        traced = run_workload(args, workdir, "traced", child_env(blas_threads, trace_dir),
                              half, session)
        probes.run()
        sp, st = summarize(plain), summarize(traced)
        layer = spans.layer_metrics(spans.load_spans(trace_dir), len(traced["passes"]),
                                    traced["jobs"], st["values_per_pass"])
        layer["cli.import_s"] = statistics.median(probes.imports)
        layer["trace.overhead"] = statistics.median(st["walls"]) / statistics.median(sp["walls"])
        metrics = {name: (layer[name], f"per pass, {len(traced['passes'])} traced passes")
                   for name in spans.LAYER_METRICS}
        runs = [sp, st]

    attempted = sum(s["attempted"] for s in runs)
    failed = sum(s["failed"] for s in runs)
    wrong = sum(s["wrong"] for s in runs)
    units = END_TO_END if not args.trace else spans.LAYER_METRICS
    print(f"workload {args.workload}, seed {args.seed}, "
          f"{'traced' if args.trace else 'untraced'}")
    for name, (value, how) in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]} ({how})")
    print(f"  error_rate = {failed / attempted:.4g} ratio ({failed} failed of {attempted} "
          f"operations)")
    print("  median ms by operation: " + ", ".join(
        f"{name} {statistics.median(secs) * 1e3:.0f} (n={len(secs)})"
        for name, secs in runs[-1]["by_name"].items()))
    for note in sorted({n for s in runs for n in s["failures"]}):
        print(f"  failed: {note}")
    print(json.dumps({
        "correct": wrong == 0 and all(math.isfinite(v) for v, _ in metrics.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, (value, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
