"""Alternating parent/change pairs of the ptbath benchmark.

    python3 tools/bench_pairs.py --parent COMMIT --label NAME [--claim WORKLOAD] [--note TEXT]

Run from anywhere inside the repository.  Both sides run from archives
unpacked into a temporary directory that is removed at the end: the parent
side from `git archive` of COMMIT, the change side from a tar of this
working tree's files (tracked and untracked, less what .gitignore
excludes), so that neither side runs among the other files of a checkout.
The workloads and the run length are those of BENCHMARK.json.  Each pair runs
`ptbench/run.py` once per side with the same workload and seed, and the
side that runs first alternates from pair to pair: 10 pairs of the workload
where a gain is claimed (--claim, figures by default) and 5 of every other
workload.  The n-th workload of BENCHMARK.json takes seeds 100 n + 1,
100 n + 2, ... (figures 101, ...); a traced run per side of figures takes
the next seed.
Each side also runs one figures pass in one process: the six presets as
`ptbench/workloads.py` runs them, through a wrapper of every integrand that
`continuum.integrate_adaptive` is given.  It counts, per preset, the nodes
handed to the integrand and the values it returns (nodes x rows), which do
not depend on the hardware and repeat run to run: equal nodes show that
both sides evaluated the same panels, whatever rows each integrand gives
per node.  It also keeps, per preset, the smallest node handed to the
integrand divided by the cutoff of its integrals (`min_node_over_cutoff`):
how far from w = 0, where the kernel's w^2 would underflow, the quadrature
gets.  It keeps each preset's CSV, to compare the printed rows of the
sides, and reads the process's minor page faults (getrusage ru_minflt)
around each preset: a working set that outgrows the heap top the allocator
keeps shows there as thousands of faults.  After the presets it reads the
process's peak RSS (getrusage ru_maxrss, in MB), before the sweep and the
process pool can raise it.  Then the same process runs the README sweep as
`sweep-jobs2` does (`sweep_argv(out, 2)` of `ptbench/workloads.py`) and
keeps its CSV, and then `figure fig4 --jobs 2`, whose start panels start
the process pool, and compares its CSV with the serial fig4 CSV.  The
wrapper also counts the engine passes (`integrate_adaptive` calls) of each
preset and of the sweep, which repeat run to run like the nodes.
Each side also runs `python -m ptbath.cli oracle --temp 10` three times, each
in a fresh interpreter, the sides alternating: the command that sets the
peak RSS of the commands workload (its Fock dimension reaches 464; at the
default theta = pi/2 the oracle decomposes a real matrix).  Beside each of
those runs, `oracle --temp 10 --theta 1` runs too, so that the oracle's
complex route stays measured, and `oracle` with no flags, 10 of the 100
commands runs.  Each run's peak RSS (the child's ru_maxrss, from wait4),
wall time and stdout are kept.

Writes BENCH_<label>.json at the repository root: every run's result line
(the last line of `ptbench/run.py`'s output), the traced runs, both sides'
integrand nodes and values per figures pass and per preset, the smallest
node over the cutoff per preset (`min_node_over_cutoff`), SHA-256 of
each preset CSV and of the sweep CSV, minor page faults per preset, the peak
RSS after the presets (`figures_peak_rss_mb`), the oracle runs
(`oracle_t10`, `oracle_t10_theta1` and `oracle_default`: exit code, peak
RSS in MB, wall seconds and SHA-256 of stdout per run and side) and per
oracle command whether every run of both sides printed the same bytes
(`oracle_stdout_matches`),
each side's engine passes per preset and for the sweep
(`engine_passes_per_figures_pass`) and whether its fig4 at --jobs 2 matched
its serial fig4 (`fig4_jobs2_matches_serial`),
each side's line count of each src/ptbath/*.py and their total (`src_lines`),
the number of CSV rows per preset and of the sweep that differ between the
sides (a row only one side has counts too), and per workload and end-to-end metric of BENCHMARK.json the number
of pairs, the pairs the change wins (ties count for neither side), each
side's median and quartiles (linear interpolation between closest ranks)
and a verdict against the metric's bound: worse, unresolved, better or
unchanged (see `verdict`).
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CLAIM_PAIRS, OTHER_PAIRS = 10, 5
TRACED = "figures"
ORACLE_RUNS = 3
ORACLE_ARGV = {"oracle_t10": ["-m", "ptbath.cli", "oracle", "--temp", "10"],
               "oracle_t10_theta1": ["-m", "ptbath.cli", "oracle", "--temp", "10", "--theta", "1"],
               "oracle_default": ["-m", "ptbath.cli", "oracle"]}

# argv[1] is the checkout; prints the integrand nodes and values of each
# preset of one figures pass, its smallest node over the cutoff, its CSV and
# its minor page faults, the peak RSS after the presets, the README sweep's
# CSV, the engine passes of each preset and of the sweep, and whether fig4 at
# --jobs 2 printed the serial CSV, as one JSON line
FIGURES_PASS = '''
import json, math, resource, sys, tempfile
from pathlib import Path
import numpy as np
from ptbath import cli, continuum
sys.path.insert(0, str(Path(sys.argv[1]) / "ptbench"))
from workloads import FIGURE_IDS, figure_argv, sweep_argv

real = continuum.integrate_adaptive
count = {"nodes": 0, "values": 0, "passes": 0, "low": math.inf}

def tally(x, out, cutoff):
    count["nodes"] += np.size(x)
    count["values"] += np.size(out)
    count["low"] = min(count["low"], float(np.min(x)) / cutoff)
    return out

def counting(f, lo, hi, quad, panel_width, params, *args, **kwargs):
    count["passes"] += 1
    cutoff = params[0]["cutoff"]  # one spectrum per engine pass
    return real(lambda x, *a: tally(x, f(x, *a), cutoff), lo, hi, quad, panel_width, params,
                *args, **kwargs)

continuum.integrate_adaptive = counting
csv, faults, nodes, values, passes, low = {}, {}, {}, {}, {}, {}
with tempfile.TemporaryDirectory() as tmp:
    for fig in FIGURE_IDS:
        out = Path(tmp) / (fig + ".csv")
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        count.update(nodes=0, values=0, passes=0, low=math.inf)
        if cli.main(figure_argv(fig, str(out))) != 0:
            sys.exit(f"figure {fig} failed")
        faults[fig] = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        nodes[fig], values[fig], passes[fig] = count["nodes"], count["values"], count["passes"]
        low[fig] = count["low"]
        csv[fig] = out.read_bytes().decode()  # as written: no newline translation
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out = Path(tmp) / "sweep.csv"
    count.update(passes=0)
    if cli.main(sweep_argv(str(out), 2)) != 0:
        sys.exit("sweep failed")
    passes["sweep"] = count["passes"]
    sweep_csv = out.read_bytes().decode()
    # the one preset whose start panels start the process pool at --jobs 2
    out = Path(tmp) / "fig4-jobs2.csv"
    if cli.main(figure_argv("fig4", str(out)) + ["--jobs", "2"]) != 0:
        sys.exit("figure fig4 --jobs 2 failed")
    fig4_jobs2 = out.read_bytes().decode() == csv["fig4"]
print(json.dumps({"nodes": nodes, "values": values, "min_node_over_cutoff": low,
                  "csv": csv, "minor_faults": faults,
                  "peak_rss_mb": peak_rss_mb, "sweep_csv": sweep_csv, "passes": passes,
                  "fig4_jobs2_matches_serial": fig4_jobs2}))
'''


def quantile(values, q: float) -> float:
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def run_side(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The JSON result line of one ptbench run in `checkout`."""
    cmd = [sys.executable, "ptbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True,
                         timeout=seconds * 4 + 600).stdout
    return json.loads(out.strip().splitlines()[-1])


def src_lines(checkout: Path) -> dict:
    """Lines of each of the library's modules, src/ptbath/*.py, in
    `checkout`, by file name in sorted order, and their `total`."""
    lines = {path.name: len(path.read_bytes().splitlines())
             for path in sorted((checkout / "src" / "ptbath").glob("*.py"))}
    return {**lines, "total": sum(lines.values())}


def figures_pass(checkout: Path) -> dict:
    """Integrand nodes and values of each preset of one figures pass of the
    ptbath in `checkout`, its smallest node over the cutoff
    (`min_node_over_cutoff`), each preset's CSV text and minor page faults, the
    process's peak RSS in MB after the presets, the CSV text of the README
    sweep run after them in the same process, the engine passes
    (`integrate_adaptive` calls) of each preset and of the sweep, and
    whether `figure fig4 --jobs 2`, run last, printed the serial fig4 CSV."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    out = subprocess.run([sys.executable, "-c", FIGURES_PASS, str(checkout)], cwd=checkout,
                         env=env, capture_output=True, text=True, check=True, timeout=600).stdout
    return json.loads(out.strip().splitlines()[-1])


def oracle_run(checkout: Path, argv: list[str]) -> dict:
    """Exit code, peak RSS (MB), wall seconds and SHA-256 of the stdout of
    `python *argv` (an oracle command) run in a fresh interpreter on the
    ptbath in `checkout`."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *argv], cwd=checkout, env=env,
                            stdout=subprocess.PIPE)
    with proc.stdout:  # read to the end before wait4: a full pipe would block the child
        digest = hashlib.sha256(proc.stdout.read()).hexdigest()
    _, status, usage = os.wait4(proc.pid, 0)  # the rusage of this child alone
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"exit": proc.returncode, "maxrss_mb": usage.ru_maxrss / 1024, "wall_s": wall,
            "stdout_sha256": digest}


def oracle_stdout_matches(oracle: dict) -> dict:
    """Per oracle command (oracle: its runs by side, as main keeps them),
    whether every run of both sides printed the same bytes."""
    return {name: len({run["stdout_sha256"] for runs in sides.values() for run in runs}) == 1
            for name, sides in oracle.items()}


def working_tree_tar(out: Path) -> None:
    """A tar of the working tree's files: tracked and untracked, less what
    .gitignore excludes, as they are on disk."""
    listed = subprocess.run(["git", "ls-files", "-z", "--cached", "--others",
                             "--exclude-standard"], cwd=ROOT, capture_output=True,
                            check=True).stdout.decode()
    with tarfile.open(out, "w") as tar:
        for name in sorted(set(filter(None, listed.split("\0")))):
            if (ROOT / name).is_file():  # a tracked file deleted from the tree is left out
                tar.add(ROOT / name, arcname=name, recursive=False)


def unpack(archive: Path, root: Path) -> Path:
    root.mkdir()
    with tarfile.open(archive) as tar:
        tar.extractall(root, filter="data")
    return root


def rows_changed(parent: str, change: str) -> int:
    """CSV rows that differ between two texts, a row only one has included."""
    return sum(p != c for p, c in itertools.zip_longest(parent.splitlines(),
                                                         change.splitlines()))


def csv_digest(passes: dict) -> dict:
    """SHA-256 of each side's preset CSVs and README sweep CSV, and the rows
    that differ between the sides' CSVs, from both sides' figures passes."""
    def sha256(text: str) -> str:
        return hashlib.sha256(text.encode()).hexdigest()

    parent, change = passes["parent"], passes["change"]
    return {
        "figure_csv_sha256": {side: {fig: sha256(text) for fig, text in p["csv"].items()}
                              for side, p in passes.items()},
        "figure_rows_changed": {fig: rows_changed(text, change["csv"][fig])
                                for fig, text in parent["csv"].items()},
        "sweep_csv_sha256": {side: sha256(p["sweep_csv"]) for side, p in passes.items()},
        "sweep_rows_changed": rows_changed(parent["sweep_csv"], change["sweep_csv"]),
    }


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """One metric's verdict over paired runs, `better` being "higher" or
    "lower".  worse: the change's median trails the parent's by more than
    bound x |parent median|.  unresolved: the parent's q3 - q1 exceeds that
    amount, unless every change run beats every parent run.  better: the
    change wins nine tenths of the pairs and its median leads by more than
    the parent's q3 - q1.  unchanged: every other case."""
    sign = 1.0 if better == "higher" else -1.0
    parent, change = [sign * v for v in parent], [sign * v for v in change]  # higher is better
    allowed = bound * abs(quantile(parent, 0.5))
    lead = quantile(change, 0.5) - quantile(parent, 0.5)
    spread = quantile(parent, 0.75) - quantile(parent, 0.25)
    if lead < -allowed:
        return "worse"
    if spread > allowed and not min(change) > max(parent):
        return "unresolved"
    if sum(c > p for p, c in zip(parent, change)) >= 0.9 * len(parent) and lead > spread:
        return "better"
    return "unchanged"


def summarize(runs: list[dict], metrics: dict[str, dict]) -> dict:
    """Per workload and end-to-end metric (metrics: BENCHMARK.json's entries
    by name, with their `better` and `bound`), the pairs, the change's wins,
    each side's median and quartiles and the verdict."""
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        sides = {side: {r["seed"]: r["result"] for r in runs
                        if r["workload"] == workload and r["side"] == side}
                 for side in ("parent", "change")}
        seeds = sorted(set(sides["parent"]) & set(sides["change"]))
        entry = {}
        for name, metric in metrics.items():
            parent = [sides["parent"][s]["metrics"][name]["value"] for s in seeds]
            change = [sides["change"][s]["metrics"][name]["value"] for s in seeds]
            sign = 1.0 if metric["better"] == "higher" else -1.0
            entry[name] = {
                "pairs": len(seeds),
                "change_wins": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
                **{f"{side}_{stat}": quantile(values, q)
                   for side, values in (("parent", parent), ("change", change))
                   for stat, q in (("median", 0.5), ("q1", 0.25), ("q3", 0.75))},
                "verdict": verdict(parent, change, metric["better"], metric["bound"]),
            }
        entry["all_correct"] = all(res["correct"] for side in sides.values()
                                   for res in side.values())
        entry["failed_operations"] = {side: sum(res["failed"] for res in sides[side].values())
                                      for side in sides}
        summary[workload] = entry
    return summary


def main() -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="commit of the parent side")
    parser.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    parser.add_argument("--claim", default="figures",
                        choices=[w["name"] for w in benchmark["workloads"]],
                        help="the workload of the claimed gain, which runs 10 pairs")
    parser.add_argument("--note", default="", help="a description of the host")
    args = parser.parse_args()
    commit = subprocess.run(["git", "rev-parse", "--verify", args.parent + "^{commit}"],
                            cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()
    metrics = {m["name"]: m for m in benchmark["end_to_end"]}
    seconds = benchmark["run_seconds"]
    seed_base = {w["name"]: 100 * n + 1 for n, w in enumerate(benchmark["workloads"], 1)}
    pairs = {w: CLAIM_PAIRS if w == args.claim else OTHER_PAIRS for w in seed_base}
    command = "python3 ptbench/run.py --workload W --seed N --seconds {:g} --trace 0"

    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        subprocess.run(["git", "archive", "--format=tar", "-o", str(Path(tmp) / "parent.tar"),
                        commit], cwd=ROOT, check=True)
        working_tree_tar(Path(tmp) / "change.tar")
        roots = {side: unpack(Path(tmp) / f"{side}.tar", Path(tmp) / side)
                 for side in ("parent", "change")}
        passes = {side: figures_pass(root) for side, root in roots.items()}
        nodes = {side: {"total": sum(p["nodes"].values()), **p["nodes"]}
                 for side, p in passes.items()}
        values = {side: {"total": sum(p["values"].values()), **p["values"]}
                  for side, p in passes.items()}
        low = {side: p["min_node_over_cutoff"] for side, p in passes.items()}
        digest = csv_digest(passes)
        faults = {side: p["minor_faults"] for side, p in passes.items()}
        peak_rss = {side: p["peak_rss_mb"] for side, p in passes.items()}
        engine_passes = {side: p["passes"] for side, p in passes.items()}
        fig4_jobs2 = {side: p["fig4_jobs2_matches_serial"] for side, p in passes.items()}
        lines = {side: src_lines(root) for side, root in roots.items()}
        oracle = {name: {"parent": [], "change": []} for name in ORACLE_ARGV}
        for i in range(ORACLE_RUNS):
            for name, argv in ORACLE_ARGV.items():
                for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
                    oracle[name][side].append(oracle_run(roots[side], argv))
        print(json.dumps({"integrand_nodes_per_figures_pass": nodes,
                          "integrand_values_per_figures_pass": values,
                          "min_node_over_cutoff": low,
                          "figure_rows_changed": digest["figure_rows_changed"],
                          "sweep_rows_changed": digest["sweep_rows_changed"],
                          "figure_minor_faults": faults,
                          "figures_peak_rss_mb": peak_rss,
                          "engine_passes_per_figures_pass": engine_passes,
                          "fig4_jobs2_matches_serial": fig4_jobs2,
                          "src_lines": lines, **oracle,
                          "oracle_stdout_matches": oracle_stdout_matches(oracle)}),
              flush=True)

        runs, order = [], 0
        for workload, n in pairs.items():
            for i in range(n):
                seed = seed_base[workload] + i
                sides = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in sides:
                    result = run_side(roots[side], workload, seed, seconds, 0)
                    runs.append({"order": order, "side": side, "workload": workload,
                                 "seed": seed, "result": result})
                    print(json.dumps(runs[-1]), flush=True)
                    order += 1
        traced, seed = [], seed_base[TRACED] + pairs[TRACED]
        for side in ("parent", "change"):
            traced.append({
                "side": side, "workload": TRACED, "seed": seed,
                "command": f"python3 ptbench/run.py --workload {TRACED} --seed {seed} "
                           f"--seconds {seconds:g} --trace 1",
                "result": run_side(roots[side], TRACED, seed, seconds, 1)})
            print(json.dumps(traced[-1]), flush=True)

    report = {
        "label": args.label,
        "what": "ptbench/run.py result lines (the last line of its output) of every run made "
                "by tools/bench_pairs.py: alternating parent/change pairs, the side that runs "
                "first alternating per pair, each side from its own unpacked archive; then the "
                "traced runs, one per side",
        "parent_commit": commit,
        "claim": args.claim,
        "command": command.format(seconds),
        "host": {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
                 "numpy": subprocess.run([sys.executable, "-c",
                                          "import numpy; print(numpy.__version__)"],
                                         capture_output=True, text=True).stdout.strip(),
                 # when set, every fresh interpreter of `commands` compiles src/ again
                 "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
                 "note": args.note},
        "runs": runs,
        "traced": traced,
        "integrand_nodes_per_figures_pass": nodes,
        "integrand_values_per_figures_pass": values,
        "min_node_over_cutoff": low,
        **digest,
        "figure_minor_faults": faults,
        "figures_peak_rss_mb": peak_rss,
        "engine_passes_per_figures_pass": engine_passes,
        "fig4_jobs2_matches_serial": fig4_jobs2,
        "src_lines": lines,
        **{name: {"command": "python " + " ".join(argv), **oracle[name]}
           for name, argv in ORACLE_ARGV.items()},
        "oracle_stdout_matches": oracle_stdout_matches(oracle),
        "summary": summarize(runs, metrics),
    }
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
