import hashlib
import importlib.util
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
METRICS = {"gamma_per_s": {"better": "higher", "bound": 0.25},
           "cmd_p50_ms": {"better": "lower", "bound": 0.25}}


def load_bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def runs(parent: dict, change: dict) -> list[dict]:
    """Synthetic paired runs of one workload: each side's values per metric,
    one per seed."""
    out = []
    for side, values in (("parent", parent), ("change", change)):
        for seed in range(len(next(iter(values.values())))):
            out.append({"side": side, "workload": "w", "seed": seed, "result": {
                "correct": True, "failed": 0,
                "metrics": {name: {"value": v[seed]} for name, v in values.items()}}})
    return out


STEADY = [100.0, 101.0, 99.0, 100.0, 100.0]
WIDE = [50.0, 100.0, 150.0, 100.0, 200.0]  # q3 - q1 = 50, above 0.25 x 100


@pytest.mark.parametrize("parent, change, better, expected", [
    (STEADY, [70.0, 71.0, 69.0, 70.0, 70.0], "higher", "worse"),
    (STEADY, [100.5, 100.0, 99.5, 101.0, 99.0], "higher", "unchanged"),
    (STEADY, [110.0, 111.0, 109.0, 110.0, 110.0], "higher", "better"),
    (WIDE, [100.0] * 5, "higher", "unresolved"),
    # every change run beats every parent run: the spread does not matter
    (WIDE, [300.0] * 5, "higher", "better"),
    # a wide spread does not hide a median past the bound
    (WIDE, [60.0] * 5, "higher", "worse"),
    (STEADY, [130.0] * 5, "lower", "worse"),
    (STEADY, [90.0, 91.0, 89.0, 90.0, 90.0], "lower", "better"),
    (WIDE, [100.0] * 5, "lower", "unresolved"),
    (WIDE, [40.0] * 5, "lower", "better"),
    # wins in fewer than nine tenths of the pairs are not a gain
    (STEADY, [110.0, 110.0, 110.0, 110.0, 90.0], "higher", "unchanged"),
])
def test_verdict_of_each_metric(parent, change, better, expected):
    bench_pairs = load_bench_pairs()
    name = "gamma_per_s" if better == "higher" else "cmd_p50_ms"
    other = "cmd_p50_ms" if better == "higher" else "gamma_per_s"
    summary = bench_pairs.summarize(runs({name: parent, other: STEADY},
                                         {name: change, other: STEADY}), METRICS)
    entry = summary["w"]
    assert entry[name]["verdict"] == expected
    assert entry[other]["verdict"] == "unchanged"
    assert entry[name]["pairs"] == 5
    assert entry[name]["parent_median"] == sorted(parent)[2]
    assert entry["all_correct"] is True
    assert entry["failed_operations"] == {"parent": 0, "change": 0}


def test_verdict_scales_the_bound_by_the_parent_median():
    # the bound is a share of the parent's median: 20 % worse passes 0.25, not 0.1
    bench_pairs = load_bench_pairs()
    assert bench_pairs.verdict(STEADY, [80.0] * 5, "higher", 0.25) == "unchanged"
    assert bench_pairs.verdict(STEADY, [80.0] * 5, "higher", 0.1) == "worse"
    assert bench_pairs.verdict(STEADY, [80.0] * 5, "lower", 0.1) == "better"


def test_src_lines_counts_the_library_modules(tmp_path):
    # the modules directly under src/ptbath, not other files or packages
    bench_pairs = load_bench_pairs()
    package = tmp_path / "src" / "ptbath"
    (package / "sub").mkdir(parents=True)
    (package / "__init__.py").write_text("a = 1\n\nb = 2\n")
    (package / "core.py").write_text('"""doc\n\nstring"""\nx = 1\n')
    (package / "notes.txt").write_text("not code\n")
    (package / "sub" / "deep.py").write_text("c = 3\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_x.py").write_text("d = 4\n")
    assert bench_pairs.src_lines(tmp_path) == {"__init__.py": 3, "core.py": 4, "total": 7}
    counts = {path.name: path.read_text().count("\n")
              for path in (ROOT / "src" / "ptbath").glob("*.py")}
    assert bench_pairs.src_lines(ROOT) == {**counts, "total": sum(counts.values())}


def test_csv_digest_covers_the_presets_and_the_sweep():
    bench_pairs = load_bench_pairs()
    header = "tau,theta,gamma,coherence\n"
    sweep = header + "0.0,0.0,0.0,1.0\n1.0,0.0,0.5,0.6\n"
    passes = {
        "parent": {"csv": {"fig1a": "a\n1\n", "fig2": "b\n2\n"}, "sweep_csv": sweep},
        "change": {"csv": {"fig1a": "a\n1\n", "fig2": "b\n3\n4\n"},
                   "sweep_csv": sweep.replace("0.5,0.6", "0.5,0.7")},
    }
    digest = bench_pairs.csv_digest(passes)
    assert digest["figure_rows_changed"] == {"fig1a": 0, "fig2": 2}
    assert digest["sweep_rows_changed"] == 1
    sha = digest["figure_csv_sha256"]
    assert sha["parent"]["fig1a"] == sha["change"]["fig1a"] != sha["change"]["fig2"]
    assert digest["sweep_csv_sha256"]["parent"] == hashlib.sha256(sweep.encode()).hexdigest()
    assert digest["sweep_csv_sha256"]["parent"] != digest["sweep_csv_sha256"]["change"]


@pytest.fixture(scope="module")
def figures_pass():
    # one pass over this checkout (about two seconds): the six presets, the
    # sweep of the sweep-jobs2 workload and fig4 at --jobs 2 in one process
    return load_bench_pairs().figures_pass(ROOT)


def test_figures_pass_keeps_the_readme_sweep_csv(figures_pass):
    assert set(figures_pass["csv"]) == {"fig1a", "fig1b", "fig2", "fig3a", "fig3b", "fig4"}
    lines = figures_pass["sweep_csv"].splitlines()
    assert lines[0] == "tau,theta,gamma,coherence" and len(lines) == 1 + 41 * 25


def test_figures_pass_reads_the_peak_rss_of_the_presets(figures_pass):
    # ru_maxrss after the six presets, before the sweep and the pool run
    assert 10.0 < figures_pass["peak_rss_mb"] < 1000.0


def test_figures_pass_reads_the_smallest_node_of_each_preset(figures_pass):
    # the smallest node over the cutoff: inside the first panel, far above
    # the w^2 underflow; one value per preset
    low = figures_pass["min_node_over_cutoff"]
    assert set(low) == set(figures_pass["csv"])
    assert all(1e-6 < value < 1.0 for value in low.values())


def test_figures_pass_counts_engine_passes_and_checks_the_pool(figures_pass):
    # one integrate_adaptive call per engine batch of a run's grid
    assert figures_pass["passes"] == {"fig1a": 12, "fig1b": 1, "fig2": 26, "fig3a": 25,
                                      "fig3b": 3, "fig4": 138, "sweep": 1}
    assert figures_pass["fig4_jobs2_matches_serial"] is True


def test_oracle_run_reads_the_child_alone(capfd):
    # a fresh interpreter on this checkout: its exit code, ru_maxrss, wall and stdout
    argv = ["-m", "ptbath.cli", "oracle", "--num-times", "3"]
    run = load_bench_pairs().oracle_run(ROOT, argv)
    assert run["exit"] == 0
    assert run["maxrss_mb"] > 0.0 and run["wall_s"] > 0.0
    assert capfd.readouterr().out == ""  # the report went to the digest, not through
    printed = subprocess.run([sys.executable, *argv], cwd=ROOT, capture_output=True, check=True,
                             env=dict(os.environ, PYTHONPATH=str(ROOT / "src"))).stdout
    assert run["stdout_sha256"] == hashlib.sha256(printed).hexdigest()


def test_oracle_argv_holds_every_oracle_of_the_commands_workload(monkeypatch):
    # `oracle` (10 of the 100 commands) and `oracle --temp 10` (3, the peak RSS)
    # get their bytes and peak RSS compared, beside the complex route at theta 1
    spec = importlib.util.spec_from_file_location("ptbench_workloads",
                                                  ROOT / "ptbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # dataclasses looks it up
    spec.loader.exec_module(workloads)
    argvs = [argv[2:] for argv in load_bench_pairs().ORACLE_ARGV.values()]
    oracles = [workloads._command(kind, random.Random(0)).argv
               for kind, _ in workloads.SESSION_MIX if kind.startswith("oracle")]
    assert oracles == [["oracle"], ["oracle", "--temp", "10"]]
    assert all(argv in argvs for argv in oracles)
    assert ["oracle", "--temp", "10", "--theta", "1"] in argvs


def test_oracle_stdout_matches_needs_every_run_of_both_sides():
    bench_pairs = load_bench_pairs()
    a, b = {"stdout_sha256": "a"}, {"stdout_sha256": "b"}
    oracle = {"same": {"parent": [a, a], "change": [a, a]},
              "change_differs": {"parent": [a, a], "change": [a, b]},
              "parent_differs": {"parent": [b, a], "change": [a, a]}}
    assert bench_pairs.oracle_stdout_matches(oracle) == {
        "same": True, "change_differs": False, "parent_differs": False}
