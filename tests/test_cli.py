import concurrent.futures
import importlib
import importlib.util
import json
import math
import os
import shlex
import subprocess
import sys
import time
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import ptbath
from ptbath import cli, continuum, drivers, oracle
from ptbath.cli import (
    FIGURE_PRESETS,
    crossover,
    golden_section_min,
    main,
    optimize,
    run_figure,
    run_sweep,
)
from ptbath.continuum import (OhmicSpectrum, QuadratureSpec, gamma_continuum_batch,
                              gamma_continuum_nh, spectral_density)
from ptbath.continuum import integrate_adaptive
from ptbath.core import dephasing_kernel, load_bath_csv

FIG1B = dict(amplitude=0.1, cutoff=0.1, temp=300.0, t=20.0)


def run_cli(tmp_path, *argv):
    out = tmp_path / "out.txt"
    code = main([*argv, "--out", str(out)])
    return code, out.read_text() if out.exists() else ""


def test_cli_reexports_the_drivers():
    # callers and tracers that look the drivers up in ptbath.cli must find
    # the very objects ptbath.drivers defines
    for name in ("FIGURE_PRESETS", "run_figure", "run_sweep", "optimize", "crossover",
                 "golden_section_min"):
        assert getattr(cli, name) is getattr(drivers, name)


def test_every_traced_name_resolves():
    # the benchmark's tracer skips a name it cannot find without a word, so a
    # deleted or renamed function would drop its spans silently
    path = Path(__file__).resolve().parents[1] / "ptbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("ptbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for layer, names in spans.TRACED.items():
        module = importlib.import_module(f"ptbath.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"ptbath.{layer}.{name}"


def in_fresh_interpreter(statement, expression):
    """The JSON value of `expression` after `statement` in a fresh
    interpreter that finds this checkout's ptbath first."""
    src = str(Path(ptbath.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = f"import json, sys\n{statement}\nprint(json.dumps({expression}))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    return json.loads(out)


LOADED = "sorted(m for m in sys.modules if m.startswith('ptbath'))"


def test_cli_import_loads_every_layer_and_no_process_pool():
    # the tracer looks every layer up in sys.modules after `import ptbath.cli`;
    # the process pool is imported only by a run that starts one
    modules, pool = in_fresh_interpreter(
        "import ptbath.cli", f"[{LOADED}, 'concurrent.futures' in sys.modules]")
    layers = ["cli", "continuum", "core", "drivers", "entanglement", "oracle"]
    assert modules == ["ptbath"] + [f"ptbath.{layer}" for layer in layers]
    assert pool is False


def test_core_import_loads_core_alone():
    # the package imports none of its modules, so one layer loads no other
    assert in_fresh_interpreter("import ptbath.core", LOADED) == ["ptbath", "ptbath.core"]


def test_the_package_exports_only_its_version():
    # every name is imported from its module: `from ptbath.core import gamma_discrete`
    public = "sorted(n for n in vars(ptbath) if not n.startswith('_'))"
    assert in_fresh_interpreter("import ptbath", f"[{public}, ptbath.__version__]") == [
        [], ptbath.__version__]
    assert not hasattr(ptbath, "gamma_discrete")


def count_integrals(monkeypatch):
    """Count the integrals of every continuum.integrate_adaptive call, one
    per panel width of a batch; returns a one-item list."""
    calls = [0]

    def counting(f, lo, hi, quad, panel_width, *args, **kwargs):
        calls[0] += np.size(panel_width)
        return integrate_adaptive(f, lo, hi, quad, panel_width, *args, **kwargs)

    monkeypatch.setattr(continuum, "integrate_adaptive", counting)
    return calls


def count_pools(monkeypatch):
    """Route concurrent.futures.ProcessPoolExecutor, which gamma_continuum_batch
    imports where it starts a pool, through a subclass that records the
    workers of every pool built; returns the list."""
    workers = []

    class Recording(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers=None, *args, **kwargs):
            workers.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
    return workers


def force_pools(monkeypatch):
    """Make every run with jobs > 1 start the process pool, however small;
    returns the workers of every pool built, as count_pools does."""
    monkeypatch.setattr(continuum, "_POOL_PANELS", 0)
    return count_pools(monkeypatch)


def exit_code(*argv):
    """main's return code, or the code of the SystemExit argparse raises."""
    try:
        return main(list(argv))
    except SystemExit as exc:
        return exc.code


class TestGammaCommand:
    def test_scalar_continuum(self, tmp_path):
        code, text = run_cli(tmp_path, "gamma", "--tau", "2", "--theta", "1.5707963",
                             "--A", "1", "--cutoff", "0.1", "--temp", "300", "--t", "2")
        assert code == 0
        lines = text.strip().split("\n")
        assert lines[0] == "t,gamma,coherence"
        t, g, c = (float(v) for v in lines[1].split(","))
        ref = gamma_continuum_nh(OhmicSpectrum(1.0, 0.1, 1.5707963, 300.0, 2.0), 2.0)
        assert g == pytest.approx(ref, rel=1e-10)
        assert c == pytest.approx(math.exp(-g), rel=1e-11)

    def test_time_range_and_coherence_column(self, tmp_path):
        code, text = run_cli(tmp_path, "gamma", "--tau", "1", "--theta", "0.5",
                             "--t", "0:4:5")
        assert code == 0
        rows = [line.split(",") for line in text.strip().split("\n")[1:]]
        assert len(rows) == 5
        assert float(rows[0][1]) == 0.0 and float(rows[0][2]) == 1.0
        for _, g, c in rows:
            assert float(c) == pytest.approx(math.exp(-float(g)), abs=1e-15)

    def test_discrete_modes_file(self, tmp_path):
        modes = tmp_path / "modes.csv"
        modes.write_text("omega,g_abs,theta\n1.0,1.0,1.5707963267948966\n")
        code, text = run_cli(tmp_path, "gamma", "--modes-file", str(modes),
                             "--tau", "0.5", "--temp", "0",
                             "--t", str(math.pi / math.sqrt(2)))
        assert code == 0
        g = float(text.strip().split("\n")[1].split(",")[1])
        assert g == pytest.approx(2.0, rel=1e-10)
        code, text = run_cli(tmp_path, "gamma", "--modes-file", str(modes), "--tau", "0.5",
                             "--temp", "0", "--t", "0:1:3")
        assert code == 0 and len(text.splitlines()) == 4

    @pytest.mark.parametrize("column", ["omega", "g_abs", "theta"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_modes_file_is_a_usage_error(self, tmp_path, capsys, column, value):
        row = {"omega": "1.0", "g_abs": "1.0", "theta": "0.5", column: value}
        modes = tmp_path / "modes.csv"
        modes.write_text("omega,g_abs,theta\n" + ",".join(row.values()) + "\n")
        code, text = run_cli(tmp_path, "gamma", "--modes-file", str(modes))
        assert code == 2 and text == ""
        assert f"must be finite, got {value}" in capsys.readouterr().err
        with pytest.raises(ValueError, match="must be finite"):
            load_bath_csv(modes)

    @pytest.mark.parametrize("row, got", [
        ("1,0.1", "'1', '0.1', None"),  # csv.DictReader fills a missing field with None
        ("abc,0.1,0", "'abc', '0.1', '0'"),
    ])
    def test_modes_file_row_without_three_numbers_is_a_usage_error(self, tmp_path, capsys,
                                                                  row, got):
        # the missing field was a TypeError traceback with exit 1, and the
        # non-number named neither the file nor the line
        modes = tmp_path / "modes.csv"
        modes.write_text("omega,g_abs,theta\n1,0.1,0\n" + row + "\n")
        code, text = run_cli(tmp_path, "gamma", "--modes-file", str(modes))
        assert code == 2 and text == ""
        assert capsys.readouterr().err == (f"error: modes file {modes} line 3: omega, g_abs "
                                           f"and theta must be numbers, got {got}\n")

    @pytest.mark.parametrize("row, message", [
        ("1.0,-0.1,0.5", "coupling magnitude must be >= 0, got -0.1"),
        ("-1.0,0.1,0.5", "mode frequency must be > 0, got -1.0"),
        ("1e-300,0.1,0.5", "mode frequency omega must be >= 1.49e-154"),
        ("0.5,1e200,0.5", "coupling g_abs 1e+200 at omega 0.5 makes |g|^2/omega^2 overflow"),
    ])
    def test_modes_file_row_a_mode_rejects_names_the_line(self, tmp_path, capsys, row,
                                                          message):
        # the mode's own message named neither the file nor the line
        modes = tmp_path / "modes.csv"
        modes.write_text("omega,g_abs,theta\n1,0.1,0\n" + row + "\n")
        code, text = run_cli(tmp_path, "gamma", "--modes-file", str(modes))
        assert code == 2 and text == ""
        assert capsys.readouterr().err.startswith(f"error: modes file {modes} line 3: {message}")

    @pytest.mark.parametrize("row, message", [
        ("1e-170,1.0,0.5", "omega must be >= 1.49e-154"),
        ("1e-160,0.0,0.5", "omega must be >= 1.49e-154"),
        ("0.5,1e200,0.5", "g_abs 1e+200"),
        ("1e-150,1e10,0.5", "g_abs 1e+10"),
        ("1.5e-154,1.0,0.5", "omega 1.5e-154 at --temp 300"),
        ("1.0,4.5e152,0.5", "make Gamma(1) overflow a float"),
    ])
    def test_modes_file_beyond_the_float_range_is_a_usage_error(self, tmp_path, capsys,
                                                                row, message):
        # unchecked, each prints nan or raises an OverflowError
        modes = tmp_path / "modes.csv"
        modes.write_text("omega,g_abs,theta\n" + row + "\n")
        code, text = run_cli(tmp_path, "gamma", "--modes-file", str(modes))
        assert code == 2 and text == ""
        assert message in capsys.readouterr().err

    def test_uncoupled_mode_whose_omega_over_t_underflows_fails_without_a_warning(
            self, tmp_path, capsys):
        # the range check computed 0 x inf there, and numpy's RuntimeWarning was
        # printed before the error
        modes = tmp_path / "modes.csv"
        modes.write_text("omega,g_abs,theta\n1e-150,0,0.5\n")
        for argv in (["gamma", "--modes-file", str(modes), "--temp", "1e200"],
                     ["oracle", "--g-abs", "0", "--omega", "1e-150", "--temp", "1e200"]):
            assert main(argv) == 2
            assert capsys.readouterr().err == ("error: mode omega 1e-150 at --temp 1e+200 "
                                               "makes |g|^2 coth(omega/2T)/omega^2 overflow\n")

    @pytest.mark.parametrize("tau", ["4.5e76", "6e76", "1e160"])
    def test_modes_file_tau_past_the_kernel_constants_is_a_usage_error(self, tmp_path,
                                                                      capsys, tau):
        # 6e76 and above printed nan with exit 0; 4.5e76 blamed --modes-file
        modes = tmp_path / "modes.csv"
        modes.write_text("omega,g_abs,theta\n0.5,0.1,0.3\n")
        code, text = run_cli(tmp_path, "gamma", "--modes-file", str(modes), "--t", "1",
                             "--tau", tau)
        assert code == 2 and text == ""
        err = capsys.readouterr().err
        assert "(--tau)" in err and "--modes-file" not in err
        code, text = run_cli(tmp_path, "gamma", "--modes-file", str(modes), "--t", "1",
                             "--tau", "1e50")
        assert code == 0 and text.splitlines()[1] == (
            "1.00000000000e+00,1.32565979127e+00,2.65627642458e-01")

    @pytest.mark.parametrize("argv, row", [
        (("--cutoff", "1e-150"), "1.00000000000e+00,1.20000000000e-147,1.00000000000e+00"),
        (("--temp", "1e300"), "1.00000000000e+00,3.99335985803e+299,0.00000000000e+00"),
        (("--temp", "1e-320"), "1.00000000000e+00,1.99006617063e-02,9.80296049407e-01"),
    ])
    def test_extreme_spectra_inside_the_range_still_compute(self, tmp_path, argv, row):
        code, text = run_cli(tmp_path, "gamma", "--t", "1", *argv)
        assert code == 0 and text.splitlines()[1] == row

    def test_wide_first_panel_keeps_a_huge_temperature_in_range(self, tmp_path):
        # at --t 100 the first node sits at w = 1.34e-4, where J(w) coth(w/2T)/w^2
        # is finite at --temp 1e300; Gamma is linear in T there
        rows = {}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for temp in ("1e200", "1e300"):
                code, text = run_cli(tmp_path, "gamma", "--t", "100", "--temp", temp)
                assert code == 0
                rows[temp] = text.splitlines()[1]
        assert rows["1e200"] == "1.00000000000e+02,9.92297318769e+202,0.00000000000e+00"
        assert rows["1e300"] == "1.00000000000e+02,9.92297318769e+302,0.00000000000e+00"

    def test_thermal_overflow_depends_on_the_temperature(self, tmp_path, capsys):
        # coth(omega/2T) ~ 4e156 overflows |g|^2 coth/omega^2 at --temp 300
        # only; at --temp 0 the mode gives 2 |g t|^2
        modes = tmp_path / "modes.csv"
        modes.write_text("omega,g_abs,theta\n1.5e-154,1.0,0.5\n")
        code, text = run_cli(tmp_path, "gamma", "--modes-file", str(modes), "--temp", "0")
        assert code == 0
        assert text.splitlines()[1] == "1.00000000000e+00,2.00000000000e+00,1.35335283237e-01"
        assert exit_code("gamma", "--modes-file", str(modes), "--temp", "300") == 2
        assert "omega 1.5e-154 at --temp 300" in capsys.readouterr().err

    def test_determinism_byte_identical(self, tmp_path):
        args = ("gamma", "--tau", "1.5", "--theta", "0.8", "--t", "0:10:11")
        _, a = run_cli(tmp_path, *args)
        _, b = run_cli(tmp_path, *args)
        assert a == b

    def test_json_format(self, tmp_path):
        code, text = run_cli(tmp_path, "gamma", "--t", "1", "--format", "json")
        assert code == 0
        payload = json.loads(text)
        assert payload["columns"] == ["t", "gamma", "coherence"]
        assert len(payload["rows"]) == 1

    def test_low_frequency_nodes_use_the_kernel(self, tmp_path, monkeypatch):
        # one node taking the leading-order w -> 0 limit (with a switch at
        # 1e-6 * cutoff) puts this value 3.1e-6 off
        argv = ["--A", "1", "--cutoff", "0.7", "--temp", "0.05", "--theta", "4.9",
                "--tau", "-19.3", "--t", "300"]
        code, text = run_cli(tmp_path, "gamma", *argv)
        assert code == 0
        g = float(text.strip().split("\n")[1].split(",")[1])

        def kernel_everywhere(w, spec, t, tau=None):
            # the engine's call: the kernel's three terms at every node
            j = spectral_density(w, spec.amplitude, spec.cutoff)
            return dephasing_kernel(w, j, spec.tau if tau is None else tau, t, spec.temperature)

        monkeypatch.setattr(continuum, "gamma_integrand_nh", kernel_everywhere)
        ref = gamma_continuum_nh(OhmicSpectrum(1.0, 0.7, 4.9, 0.05, -19.3), 300.0)
        assert g == pytest.approx(ref, rel=1e-9)


    @pytest.mark.skipif(not Path("/proc/self/status").exists(),
                        reason="peak memory is read from /proc/self/status")
    def test_large_t_peak_memory_is_bounded(self):
        # 3.9e4 start panels (4.9e5 nodes evaluated): in blocks, the run stays
        # far below the 380 MB that one integrand call over every panel needed
        code = (
            "from ptbath.cli import main\n"
            "main(['gamma', '--A', '1', '--cutoff', '0.7', '--temp', '0.05', '--theta', '4.9',"
            " '--tau', '-19.3', '--t', '300'])\n"
            "with open('/proc/self/status') as fh:\n"
            "    print(next(line.split()[1] for line in fh if line.startswith('VmHWM:')))\n"
        )
        src = str(Path(ptbath.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=60).stdout.split()
        assert out[-2] == "3.00000000000e+02,1.13793417600e+02,3.80317806370e-50"
        assert int(out[-1]) <= 150 * 1024  # VmHWM in kB


class TestSweep:
    def test_singleton_matches_direct_call(self, tmp_path):
        code, text = run_cli(tmp_path, "sweep", "--sweep", "tau=2:2:1",
                             "--theta", "0.7", "--t", "3")
        assert code == 0
        lines = text.strip().split("\n")
        assert lines[0] == "tau,gamma,coherence"
        g = float(lines[1].split(",")[1])
        ref = gamma_continuum_nh(OhmicSpectrum(1.0, 0.1, 0.7, 300.0, 2.0), 3.0)
        assert g == pytest.approx(ref, rel=1e-12)

    def test_grid_matches_independent_calls(self):
        quad = QuadratureSpec()
        fixed = dict(amplitude=0.1, cutoff=0.1, theta=0.0, temp=300.0, tau=0.0, t=20.0)
        grids = [("tau", np.array([0.5, 1.0, 2.0])),
                 ("theta", np.array([0.3, 1.0, 2.0]))]
        columns, rows = run_sweep(fixed, grids, quad)
        assert columns == ["tau", "theta", "gamma", "coherence"]
        assert len(rows) == 9
        for tau, theta, g, _ in rows:
            direct = gamma_continuum_nh(OhmicSpectrum(0.1, 0.1, theta, 300.0, tau), 20.0, quad)
            assert g == direct  # bit-for-bit

    def test_one_integral_per_tau_and_time(self, monkeypatch):
        calls = count_integrals(monkeypatch)
        fixed = dict(amplitude=0.1, cutoff=0.1, theta=0.0, temp=300.0, tau=0.0, t=20.0)
        grids = [("theta", np.array([0.3, 1.0, 2.0, 2.5])), ("tau", np.array([0.5, 1.0, 2.0]))]
        _, rows = run_sweep(fixed, grids, QuadratureSpec())
        assert calls[0] == 3
        assert [(th, tau) for th, tau, _, _ in rows] == [
            (th, tau) for th in (0.3, 1.0, 2.0, 2.5) for tau in (0.5, 1.0, 2.0)]

    def test_declaration_order_permutes_rows_not_values(self):
        quad = QuadratureSpec()
        fixed = dict(amplitude=0.1, cutoff=0.1, theta=0.0, temp=300.0, tau=0.0, t=5.0)
        g1 = [("tau", np.array([0.5, 1.0])), ("theta", np.array([0.3, 1.0]))]
        g2 = [("theta", np.array([0.3, 1.0])), ("tau", np.array([0.5, 1.0]))]
        _, rows1 = run_sweep(fixed, g1, quad)
        _, rows2 = run_sweep(fixed, g2, quad)
        m1 = {(tau, th): g for tau, th, g, _ in rows1}
        m2 = {(tau, th): g for th, tau, g, _ in rows2}
        assert m1 == m2

    def test_worker_pool_preserves_bytes(self, tmp_path, monkeypatch):
        pools = force_pools(monkeypatch)
        args = ("sweep", "--sweep", "tau=0:2:3", "--theta", "1.0", "--t", "5")
        _, serial = run_cli(tmp_path, *args, "--jobs", "1")
        assert pools == []
        _, parallel = run_cli(tmp_path, *args, "--jobs", "2")
        assert serial == parallel and len(pools) == 1

    def test_readme_sweep_runs_in_one_process(self, tmp_path, monkeypatch):
        # 1.8k start panels: less than a pool of two workers pays for
        pools = count_pools(monkeypatch)
        args = ("sweep", "--sweep", "tau=0:4:41", "--sweep", "theta=0:3.1416:25", "--t", "20")
        _, serial = run_cli(tmp_path, *args, "--jobs", "1")
        _, parallel = run_cli(tmp_path, *args, "--jobs", "2")
        assert serial == parallel and len(serial.splitlines()) == 1 + 41 * 25
        assert pools == []

    def test_rejects_unknown_parameter(self, tmp_path):
        code, _ = run_cli(tmp_path, "sweep", "--sweep", "cutoff=0.1:0.2:2")
        assert code == 2


class TestFigure:
    def test_presets_embed_caption_parameters(self):
        p = FIGURE_PRESETS["fig1a"]
        assert p.fixed == {"amplitude": 1.0, "cutoff": 0.1, "temp": 300.0}
        assert {c.get("tau") for c in p.curves} == {2.0, 0.0}
        assert FIGURE_PRESETS["fig1b"].fixed["amplitude"] == 0.1
        assert FIGURE_PRESETS["fig1b"].fixed["t"] == 20.0
        assert FIGURE_PRESETS["fig2"].fixed["theta"] == math.pi / 2
        assert FIGURE_PRESETS["fig3a"].fixed["t"] == 120.0
        assert FIGURE_PRESETS["fig3b"].fixed["t"] == 2.0
        assert {c["t"] for c in FIGURE_PRESETS["fig4"].curves} == {2.0, 120.0}

    def test_batched_pool_preserves_bytes(self, tmp_path, monkeypatch):
        # with --jobs 2 the pool maps the engine's batches of (tau, t)
        pools = force_pools(monkeypatch)
        _, serial = run_cli(tmp_path, "figure", "fig3b", "--jobs", "1")
        _, parallel = run_cli(tmp_path, "figure", "fig3b", "--jobs", "2")
        assert serial == parallel and len(serial.splitlines()) == 1 + 5 * 201
        assert pools == [2]

    def test_curves_start_fully_coherent(self):
        quad = QuadratureSpec()
        columns, rows = run_figure(FIGURE_PRESETS["fig1a"], quad,
                                   axis_values=np.array([0.0, 1.0]))
        assert columns == ["tau", "theta", "t", "gamma", "coherence"]
        for tau, theta, t, g, c in rows:
            if t == 0.0:
                assert g == 0.0 and c == 1.0

    def test_fig1b_theta_periodicity(self):
        quad = QuadratureSpec()
        preset = FIGURE_PRESETS["fig1b"]
        thetas = np.array([0.4, 0.4 + math.pi])
        _, rows = run_figure(preset, quad, axis_values=thetas)
        by_curve = {}
        for tau, theta, t, g, c in rows:
            by_curve.setdefault(tau, []).append(g)
        for tau, (g_low, g_high) in by_curve.items():
            assert g_low == pytest.approx(g_high, rel=1e-10)

    @pytest.mark.parametrize("fig, values", [
        ("fig1a", np.linspace(0.0, 20.0, 7)),
        ("fig1b", np.linspace(0.0, 2.0 * math.pi, 9)),
        ("fig3b", np.linspace(0.0, 4.0, 5)),
    ])
    def test_worker_pool_gives_identical_rows(self, fig, values, monkeypatch):
        pools = force_pools(monkeypatch)
        quad = QuadratureSpec()
        serial = run_figure(FIGURE_PRESETS[fig], quad, jobs=1, axis_values=values)
        parallel = run_figure(FIGURE_PRESETS[fig], quad, jobs=2, axis_values=values)
        assert serial == parallel and len(pools) == 1

    def test_no_more_workers_than_batches(self, monkeypatch):
        # a stand-in pool that records its workers and maps in this process:
        # no test starts as many processes as jobs asks for
        workers = []

        class RecordingPool:
            def __init__(self, max_workers):
                workers.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize=1):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(continuum, "_POOL_PANELS", 0)
        # fig1b's four tau at 721 phases, at t = 80, run in three batches
        fig1b = FIGURE_PRESETS["fig1b"]
        fig1b, quad = replace(fig1b, fixed={**fig1b.fixed, "t": 80.0}), QuadratureSpec()
        assert len(continuum.batches(0.1, [0.5, 1.0, 2.0, 4.0], [80.0] * 4, 721)) == 3
        serial = run_figure(fig1b, quad)
        for jobs, expected in ((2, 2), (3, 3), (100_000, 3)):
            assert run_figure(fig1b, quad, jobs=jobs) == serial
            assert workers == [expected]
            workers.clear()

    @pytest.mark.parametrize("run, shape", [
        ("fig4", (402, 1)),  # 201 tau at t = 2 and 120
        ("fig1a", (802, 5)),  # 401 t at tau = 2 and 0: the reference takes all five phases
        ("readme-sweep", (41, 25)),
    ])
    def test_a_run_is_one_grid_call(self, run, shape, monkeypatch):
        # the driver hands gamma_continuum_batch the whole grid and the jobs;
        # batches and pool are the engine's
        calls = []

        def recording(spec, taus, times, thetas, quad, jobs):
            calls.append(((len(taus), len(thetas)), jobs))
            return gamma_continuum_batch(spec, taus, times, thetas, quad)

        monkeypatch.setattr(drivers, "gamma_continuum_batch", recording)
        quad = QuadratureSpec()
        if run == "readme-sweep":
            fixed = dict(amplitude=1.0, cutoff=0.1, temp=300.0, t=20.0)
            grids = [("tau", np.linspace(0.0, 4.0, 41)), ("theta", np.linspace(0.0, 3.1416, 25))]
            run_sweep(fixed, grids, quad, jobs=2)
        else:
            run_figure(FIGURE_PRESETS[run], quad, jobs=2)
        assert calls == [(shape, 2)]

    def test_cli_figure_with_reduced_axis(self, tmp_path):
        code, text = run_cli(tmp_path, "figure", "fig2", "--t", "0:2:3")
        assert code == 0
        lines = text.strip().split("\n")
        assert lines[0] == "tau,theta,t,gamma,coherence"
        assert len(lines) == 1 + 4 * 3  # four tau curves, three times

    def test_cli_figure_points_override(self, tmp_path):
        code, text = run_cli(tmp_path, "figure", "fig3b", "--points", "3")
        assert code == 0
        assert len(text.strip().split("\n")) == 1 + 5 * 3  # five theta curves

    @pytest.mark.parametrize("fig, rows", [("fig1a", 6 * 401), ("fig2", 4 * 401)])
    def test_cli_figure_runs_full_t_axis(self, tmp_path, fig, rows):
        code, text = run_cli(tmp_path, "figure", fig)
        assert code == 0
        lines = text.strip().split("\n")
        assert len(lines) == 1 + rows
        assert {line.split(",")[2] for line in lines[1:]} == {
            f"{t:.11e}" for t in FIGURE_PRESETS[fig].axis[1]}

    def test_cli_figure_points_override_t_axis(self, tmp_path):
        code, text = run_cli(tmp_path, "figure", "fig2", "--points", "3")
        assert code == 0
        lines = text.strip().split("\n")
        assert len(lines) == 1 + 4 * 3  # four tau curves
        assert [float(line.split(",")[2]) for line in lines[1:4]] == [0.0, 10.0, 20.0]


class TestOptimize:
    def test_golden_section_on_parabola(self):
        x, fx, log = golden_section_min(lambda x: (x - 1.3) ** 2, 0.0, 3.0, 1e-6)
        assert x == pytest.approx(1.3, abs=1e-5)
        assert fx <= min(v for _, v in log)

    def test_degenerate_bounds(self):
        x, fx, _ = golden_section_min(lambda x: x * x, 2.0, 2.0, 1e-6)
        assert x == 2.0 and fx == 4.0

    def test_tau_argmin_at_upper_bound(self):
        quad = QuadratureSpec()
        fixed = OhmicSpectrum(1.0, 0.1, math.pi / 2, 300.0, 0.0)
        argmin, g_min = optimize(fixed, ["tau"], 20.0, {"tau": (0.0, 20.0)}, quad,
                                 grid_points=64)
        assert argmin["tau"] == pytest.approx(20.0, abs=1e-3)
        assert g_min <= gamma_continuum_nh(
            OhmicSpectrum(1.0, 0.1, math.pi / 2, 300.0, 19.0), 20.0, quad)

    def test_theta_argmin_matches_fine_scan(self):
        # the sin*cos cross term shifts the minimum away from pi/2, so
        # assert against a fine independent scan rather than a fixed angle
        quad = QuadratureSpec()
        fixed = OhmicSpectrum(0.1, 0.1, 0.0, 300.0, 2.0)
        argmin, g_min = optimize(fixed, ["theta"], 20.0,
                                 {"theta": (0.0, math.pi)}, quad, grid_points=64)
        thetas = np.linspace(0.0, math.pi, 601)
        scan = [gamma_continuum_nh(OhmicSpectrum(0.1, 0.1, float(th), 300.0, 2.0),
                                   20.0, quad) for th in thetas]
        best = thetas[int(np.argmin(scan))]
        assert argmin["theta"] == pytest.approx(float(best), abs=1e-2)
        assert g_min <= min(scan) + 1e-9 * abs(min(scan))
        # never above the pi/2 value the coarse description suggests
        assert g_min <= gamma_continuum_nh(
            OhmicSpectrum(0.1, 0.1, math.pi / 2, 300.0, 2.0), 20.0, quad)

    def test_cli_optimize_json(self, tmp_path):
        code, text = run_cli(tmp_path, "optimize", "--free", "tau",
                             "--tau-bounds", "0:4", "--theta", "1.5707963267948966",
                             "--t", "2", "--grid-points", "16")
        assert code == 0
        payload = json.loads(text)
        assert set(payload) == {"argmin", "gamma_min"}
        assert 0.0 <= payload["argmin"]["tau"] <= 4.0

    def test_grouped_scan_matches_per_point_evaluation(self, tmp_path, monkeypatch):
        # the README optimization on a small grid: one integral per tau grid
        # value serves the theta axis, with the same JSON as evaluating every
        # grid point on its own
        argv = ("optimize", "--free", "tau", "--free", "theta", "--t", "20",
                "--grid-points", "6")
        calls = count_integrals(monkeypatch)
        code, grouped = run_cli(tmp_path, *argv)
        assert code == 0
        grouped_calls = calls[0]

        def per_point(spec, taus, times, thetas, quad=None):
            return np.array([[gamma_continuum_nh(replace(spec, tau=tau, theta=th), t, quad)
                              for th in thetas] for tau, t in zip(taus, times)])

        monkeypatch.setattr(drivers, "gamma_continuum_batch", per_point)
        calls[0] = 0
        code, single = run_cli(tmp_path, *argv)
        assert code == 0
        assert grouped == single
        assert grouped_calls == calls[0] - 6 * 6 + 6

    def test_grid_runs_in_engine_batches(self, tmp_path, monkeypatch):
        # the 64-point tau grid is one gamma_continuum_batch call, which takes
        # one engine pass per batch; the golden refinement runs outside it
        passes, in_grid = [0], [False]

        def counting(*args, **kwargs):
            passes[0] += in_grid[0]
            return integrate_adaptive(*args, **kwargs)

        def grid(*args, **kwargs):
            in_grid[0] = True
            try:
                return gamma_continuum_batch(*args, **kwargs)
            finally:
                in_grid[0] = False

        monkeypatch.setattr(continuum, "integrate_adaptive", counting)
        monkeypatch.setattr(drivers, "gamma_continuum_batch", grid)
        code, _ = run_cli(tmp_path, "optimize", "--free", "tau", "--t", "20")
        assert code == 0
        taus = np.linspace(0.0, 20.0, 64)
        assert passes[0] == len(continuum.batches(0.1, taus, [20.0] * 64, 1)) < 64

    def test_rejects_empty_free_set(self):
        with pytest.raises(ValueError):
            optimize(OhmicSpectrum(1.0, 0.1), [], 1.0, {}, QuadratureSpec())


class TestCrossover:
    def test_no_crossover_at_theta_pi_half(self, tmp_path):
        code, text = run_cli(tmp_path, "crossover", "--theta", "1.5707963267948966",
                             "--t", "20", "--tau-max", "4")
        assert code == 0
        payload = json.loads(text)
        assert payload["crossover_tau"] is None
        assert payload["message"] == "no crossover in interval"

    def test_finds_sign_change(self):
        quad = QuadratureSpec()
        fixed = OhmicSpectrum(1.0, 0.1, 2 * math.pi / 3, 300.0, 0.0)
        tau_star = crossover(fixed, 2.0, quad, tau_max=4.0)
        assert tau_star is not None
        g0 = gamma_continuum_nh(OhmicSpectrum(1.0, 0.1, 2 * math.pi / 3, 300.0, 0.0), 2.0, quad)
        g_star = gamma_continuum_nh(
            OhmicSpectrum(1.0, 0.1, 2 * math.pi / 3, 300.0, tau_star), 2.0, quad)
        assert abs(g_star - g0) / g0 <= 1e-2  # within the 1e-3 tau bracket

    @pytest.mark.parametrize("theta, t, change", [
        (3.0, 20.0, None),  # no crossing
        (math.pi / 4, 120.0, 7),  # between scan taus 0.7 and 0.8, in the first chunk
        (0.8, 120.0, 8),  # between 0.8 and 0.9, where the first two chunks meet
        (1.0, 120.0, 18),  # in the third chunk
    ])
    def test_chunked_scan_matches_a_sequential_scan(self, theta, t, change, monkeypatch):
        quad, fixed = QuadratureSpec(), OhmicSpectrum(1.0, 0.1, theta, 300.0)

        def g(tau):
            return gamma_continuum_nh(replace(fixed, tau=tau), t, quad)

        # the scan one gamma_continuum_nh call per tau, and the same bisection
        g0, expected = g(0.0), None
        taus = np.linspace(0.0, 4.0, 41)[1:].tolist()
        f = [g(tau) - g0 for tau in taus]
        k = next((k for k in range(1, len(taus)) if f[k - 1] * f[k] < 0), None)
        assert k == change
        if k is not None:
            a, b, fa = taus[k - 1], taus[k], f[k - 1]
            while b - a > 1e-3:
                m = 0.5 * (a + b)
                fm = g(m) - g0
                if fa * fm <= 0:
                    b = m
                else:
                    a, fa = m, fm
            expected = 0.5 * (a + b)

        passes = [0]

        def counting(*args, **kwargs):
            passes[0] += 1
            return integrate_adaptive(*args, **kwargs)

        monkeypatch.setattr(continuum, "integrate_adaptive", counting)
        assert crossover(fixed, t, quad, tau_max=4.0) == expected
        if change is None:
            assert passes[0] == 6  # g0 and five chunks of eight, not 1 + 40 passes


class TestConcurrenceCommand:
    def test_values(self, tmp_path):
        code, text = run_cli(tmp_path, "concurrence", "--gamma", str(math.log(2.0)))
        assert code == 0
        lines = text.strip().split("\n")
        assert lines[0] == "gamma,concurrence,eof"
        _, c, ef = (float(v) for v in lines[1].split(","))
        assert c == pytest.approx(0.5, abs=1e-10)
        assert ef == pytest.approx(0.354578902665, abs=1e-9)

    def test_limits(self, tmp_path):
        _, text = run_cli(tmp_path, "concurrence", "--gamma", "0")
        _, c, ef = (float(v) for v in text.strip().split("\n")[1].split(","))
        assert c == pytest.approx(1.0, abs=1e-12) and ef == pytest.approx(1.0, abs=1e-10)
        _, text = run_cli(tmp_path, "concurrence", "--gamma", "1e6")
        _, c, ef = (float(v) for v in text.strip().split("\n")[1].split(","))
        assert c <= 1e-12 and ef <= 1e-10

    def test_infinite_gamma_is_full_decoherence(self, tmp_path):
        code, text = run_cli(tmp_path, "concurrence", "--gamma", "inf")
        assert code == 0
        assert text.strip().split("\n")[1] == "inf,0.00000000000e+00,0.00000000000e+00"

    def test_rejects_negative_gamma(self, tmp_path):
        code, _ = run_cli(tmp_path, "concurrence", "--gamma", "-1")
        assert code == 2


class TestOracleCommand:
    def test_report_and_exit_code(self, tmp_path):
        code, text = run_cli(tmp_path, "oracle", "--num-times", "21")
        assert code == 0
        payload = json.loads(text)
        assert list(payload) == ["dephasing_max_error", "fock_dim_used", "converged"]
        assert payload["converged"] is True
        assert payload["dephasing_max_error"] <= 1e-6

    def test_unreachable_truncation_fails_fast(self, tmp_path, capsys):
        start = time.perf_counter()
        code, text = run_cli(tmp_path, "oracle", "--temp", "300")
        assert time.perf_counter() - start < 5.0
        assert code == 4
        payload = json.loads(text)
        assert payload["converged"] is False and payload["dephasing_max_error"] is None
        # the ladder starts at 3454, whose doubling passes the budget
        assert capsys.readouterr().err == (
            "error: the thermal state at temperature 300 needs Fock dimension 6908; no Fock "
            "dimension of at least --fock-dim 40 and its doubling, which must hold it, fit "
            "--dim-budget 6400\n")

    @pytest.mark.parametrize("argv, dim", [
        (("--tau", "2", "--dim-budget", "320"), 320),
        # the ladder starts at 116, not at --fock-dim 40
        (("--temp", "10", "--tau", "5", "--dim-budget", "500"), 464),
    ])
    def test_non_convergence_is_one_error_line(self, argv, dim, capsys):
        # exit 4 used to come with an empty stderr
        assert exit_code("oracle", *argv, "--num-times", "11") == 4
        captured = capsys.readouterr()
        assert json.loads(captured.out)["converged"] is False
        assert captured.err == (
            "error: the exact coherence ratios did not converge: no doubling up to Fock "
            f"dimension {dim}, the last within --dim-budget {argv[-1]}, moved them by less "
            "than 1e-08\n")

    def test_no_doubling_within_the_budget_is_one_error_line(self, capsys, monkeypatch):
        # the state is held at 40 and 80 passes 79: one evolution used to run at 40,
        # then its line claimed that doublings up to 40 had not converged
        def no_evolution(*args):
            raise AssertionError("exact evolution ran")

        monkeypatch.setattr(oracle, "exact_dephasing", no_evolution)
        assert exit_code("oracle", "--temp", "0", "--dim-budget", "79", "--num-times", "11") == 4
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert report["converged"] is False and report["dephasing_max_error"] is None
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "--fock-dim 40" in captured.err and "--dim-budget 79" in captured.err
        assert "did not converge" not in captured.err and "no doubling up to" not in captured.err

    @pytest.mark.parametrize("argv", [("--temp", "1e307"), ("--g-abs", "0", "--temp", "1e307")])
    def test_thermal_dim_past_the_float_range_is_one_error_line(self, argv, capsys,
                                                                monkeypatch):
        # ln(1/TAIL_TOL) T / omega overflows: exit 1 with an OverflowError traceback
        # used to follow, where --temp 1e306 already gave exit 4 and one line
        def no_evolution(*args):
            raise AssertionError("exact evolution ran")

        monkeypatch.setattr(oracle, "exact_dephasing", no_evolution)
        assert exit_code("oracle", *argv) == 4
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert report["converged"] is False and report["dephasing_max_error"] is None
        assert captured.err == (
            "error: the thermal state at temperature 1e+307 needs Fock dimension inf; no Fock "
            "dimension of at least --fock-dim 40 and its doubling, which must hold it, fit "
            "--dim-budget 6400\n")

    def test_fock_dim_past_the_budget_fails_before_any_fock_work(self, capsys, monkeypatch):
        def no_fock(*args):
            raise AssertionError("Fock work ran")

        monkeypatch.setattr(np.linalg, "eigh", no_fock)
        monkeypatch.setattr(np.linalg, "eigvals", no_fock)
        assert exit_code("oracle", "--fock-dim", "80", "--dim-budget", "60") == 2
        assert capsys.readouterr().err == (
            "error: Fock dimension 80 (--fock-dim) exceeds budget 60 (--dim-budget)\n")

    @pytest.mark.parametrize("temp, g_abs, dim", [("10", "1e-6", 232), ("5", "1e-5", 116)])
    def test_ratios_settled_short_of_the_thermal_state_converge(self, temp, g_abs, dim,
                                                                tmp_path, capsys):
        # the doubling stopped at 80, whose thermal tail is beyond TAIL_TOL: exit 4, no line
        code, text = run_cli(tmp_path, "oracle", "--temp", temp, "--g-abs", g_abs)
        assert code == 0 and capsys.readouterr().err == ""
        payload = json.loads(text)
        assert payload["converged"] is True and payload["fock_dim_used"] == dim

    def test_zero_coupling(self, tmp_path):
        _, text = run_cli(tmp_path, "oracle", "--g-abs", "0", "--num-times", "11")
        assert json.loads(text)["dephasing_max_error"] <= 1e-12

    @pytest.mark.parametrize("tau", ["5", "8", "1e10"])
    def test_json_holds_no_nan(self, tau, capsys):
        def no_constant(name):
            raise AssertionError(f"{name} in the oracle report")

        code = exit_code("oracle", "--tau", tau, "--dim-budget", "80")
        json.loads(capsys.readouterr().out, parse_constant=no_constant)
        assert code == (0 if tau == "1e10" else 4)


class TestExitCodesAndConfig:
    def test_quadrature_failure_exit_code(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"max_subdivisions": 5, "rel_tol": 1e-15,
                                   "abs_tol": 1e-300}))
        code, _ = run_cli(tmp_path, "gamma", "--tau", "2", "--theta", "0.3",
                          "--t", "20", "--config", str(cfg))
        assert code == 3

    def test_quadrature_failure_in_a_batch_names_the_integral(self, capsys):
        # t = 0 and t = 20 share one batch; only the second runs out of bisections
        assert exit_code("gamma", "--tau", "2", "--theta", "0.3", "--t", "0:20:2",
                         "--rel-tol", "1e-15", "--abs-tol", "1e-300",
                         "--max-subdivisions", "400") == 3
        err = capsys.readouterr().err
        assert "did not converge within 400" in err and "'t': 20.0" in err

    def test_quadrature_failure_over_many_phases_is_one_short_line(self, capsys):
        # fig1b's 721 phases at tau = 0.5, t = 20 need 30 start panels
        assert exit_code("figure", "fig1b", "--max-subdivisions", "10") == 3
        err = capsys.readouterr().err
        assert len(err.encode()) < 300 and err.count("\n") == 1
        assert "'tau': 0.5, 't': 20.0" in err and "721 phases" in err

    def test_start_grid_over_budget_exits_fast(self, capsys):
        # about 1.5e11 start panels: refused before anything is allocated
        start = time.perf_counter()
        assert exit_code("gamma", "--tau", "20", "--t", "1e9") == 3
        assert time.perf_counter() - start < 1.0
        assert "start grid needs" in capsys.readouterr().err
        # inside the kernel constants' range a huge tau is a start grid over budget
        assert exit_code("gamma", "--t", "1", "--tau", "1e76") == 3
        assert "start grid needs" in capsys.readouterr().err
        # a count past 1e15 prints in three digits
        assert exit_code("crossover", "--t", "1e300") == 3
        assert "start grid needs 4.77e+299 panels" in capsys.readouterr().err

    def test_start_grid_budget_printed_past_1e15_parses_back(self, capsys):
        # "--max-subdivisions 1e+70" used to be refused: invalid int value
        assert exit_code("gamma", "--t", "1e60", "--max-subdivisions", "1" + "0" * 70) == 3
        err = capsys.readouterr().err
        printed = err.split("under --max-subdivisions ", 1)[1].split()[0]
        assert printed == "1e+70"
        assert exit_code("gamma", "--t", "1e60", "--max-subdivisions", printed) == 3
        assert capsys.readouterr().err == err
        assert cli._positive_int(printed) == int(1e70)

    @pytest.mark.parametrize("text", ["1.5", "1e-3", "nan", "inf", "x", "0x10"])
    def test_count_flags_refuse_what_is_no_integer(self, text, capsys):
        assert exit_code("gamma", "--max-subdivisions", text) == 2
        assert f"invalid int value: {text!r}" in capsys.readouterr().err

    def test_start_grid_past_memory_exits_3(self, monkeypatch, capsys):
        # 4.77e59 start panels within a budget of 1e70: numpy refuses the
        # array before allocating anything
        assert exit_code("gamma", "--t", "1e60", "--max-subdivisions", "1" + "0" * 70) == 3
        err = capsys.readouterr().err
        assert "4.77e+59 panels, more than fit in memory under --max-subdivisions 1e+70" in err
        assert "'t': 1e+60" in err

        def no_memory(*args):
            raise MemoryError

        monkeypatch.setattr(continuum, "_initial_edges", no_memory)
        assert exit_code("gamma", "--t", "20") == 3
        err = capsys.readouterr().err
        assert "more than fit in memory under --max-subdivisions 2000000" in err
        assert "'t': 20.0" in err

    def test_large_amplitude_is_scaled_not_overflowed(self, tmp_path, capsys):
        # Gamma is linear in A: 3.38e4 per unit amplitude at these defaults
        for amp, gamma in [("1e290", "3.38298836827e+294"), ("1e299", "3.38298836827e+303"),
                           ("1e300", "3.38298836827e+304")]:
            code, text = run_cli(tmp_path, "gamma", "--A", amp, "--t", "20")
            assert code == 0
            assert text.splitlines()[1].split(",")[1] == gamma
        # a Gamma beyond the float range is a usage error naming the flag
        assert exit_code("gamma", "--A", "1e305", "--t", "20") == 2
        assert "--A" in capsys.readouterr().err

    def test_invalid_arguments_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            main(["gamma", "--format", "xml"])
        assert exc.value.code == 2

    def test_config_supplies_defaults_but_flags_win(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tau": 1.0, "theta": 0.5, "t": 2}))
        _, from_cfg = run_cli(tmp_path, "gamma", "--config", str(cfg))
        _, direct = run_cli(tmp_path, "gamma", "--tau", "1.0", "--theta", "0.5", "--t", "2")
        assert from_cfg == direct
        _, overridden = run_cli(tmp_path, "gamma", "--config", str(cfg), "--tau", "2.0")
        _, direct2 = run_cli(tmp_path, "gamma", "--tau", "2.0", "--theta", "0.5", "--t", "2")
        assert overridden == direct2

    def test_config_overrides_subcommand_defaults(self, tmp_path):
        # Gamma falls with tau at theta = pi/2, so the argmin is the upper bound
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tau-bounds": "0:4", "grid_points": 16}))
        code, text = run_cli(tmp_path, "optimize", "--free", "tau", "--config", str(cfg),
                             "--theta", "1.5707963267948966", "--t", "2")
        assert code == 0
        assert json.loads(text)["argmin"]["tau"] == pytest.approx(4.0, abs=1e-3)

    def test_config_gives_required_and_repeatable_flags(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        direct = ("sweep", "--sweep", "tau=0:1:2", "--sweep", "theta=0:1:2", "--t", "2")
        cfg.write_text(json.dumps({"sweep": ["tau=0:1:2", "theta=0:1:2"], "t": 2}))
        assert run_cli(tmp_path, "sweep", "--config", str(cfg)) == run_cli(tmp_path, *direct)
        # a single value is one flag; the command line's --sweep replaces the config's
        cfg.write_text(json.dumps({"sweep": "tau=0:1:2", "t": 2}))
        assert (run_cli(tmp_path, "sweep", "--config", str(cfg))
                == run_cli(tmp_path, "sweep", "--sweep", "tau=0:1:2", "--t", "2"))
        cfg.write_text(json.dumps({"sweep": ["tau=0:1:3", "theta=0:1:3"], "t": 2}))
        assert (run_cli(tmp_path, "sweep", "--config", str(cfg), "--sweep", "tau=0:1:2",
                        "--sweep=theta=0:1:2") == run_cli(tmp_path, *direct))
        cfg.write_text(json.dumps({"free": "tau", "tau-bounds": "0:1", "grid_points": 8}))
        via_config = run_cli(tmp_path, "optimize", "--config", str(cfg), "--t", "2")
        assert via_config[0] == 0
        assert via_config == run_cli(tmp_path, "optimize", "--free", "tau", "--tau-bounds",
                                     "0:1", "--grid-points", "8", "--t", "2")

    def test_config_list_for_a_single_flag_is_a_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tau": [1.0, 2.0]}))
        assert exit_code("gamma", "--config", str(cfg)) == 2
        assert "--tau" in capsys.readouterr().err

    @pytest.mark.parametrize("config, message", [
        ({"out": None}, "config key 'out' (--out) needs a string or a number, got null"),
        ({"out": ["a.csv"]}, "(--out) needs a string or a number, got [\"a.csv\"]"),
        ({"out": {"x": 1}}, "(--out) needs a string or a number, got {\"x\": 1}"),
        ({"tau": None}, "config key 'tau' (--tau) needs a string or a number, got null"),
        ({"tau": True}, "(--tau) needs a string or a number, got true"),
        ({"sweep": ["tau=0:1:2", None]}, "(--sweep) needs a string or a number, got null"),
    ])
    def test_config_value_that_is_no_string_or_number_is_a_usage_error(
            self, tmp_path, monkeypatch, capsys, config, message):
        # each once reached its flag as Python text: {"out": null} wrote a file named None
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        command = "sweep" if "sweep" in config else "gamma"
        assert exit_code(command, "--config", str(cfg)) == 2
        assert message in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    def test_config_must_be_an_object(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps([["tau", 1.0]]))
        assert exit_code("gamma", "--config", str(cfg)) == 2
        assert "JSON object" in capsys.readouterr().err

    def test_config_value_goes_through_flag_type(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tau": "abc"}))
        assert exit_code("gamma", "--config", str(cfg)) == 2
        assert "--tau" in capsys.readouterr().err

    def test_config_rejects_unknown_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tua": 1.0}))
        assert exit_code("gamma", "--config", str(cfg)) == 2
        assert "'tua'" in capsys.readouterr().err
        # an option of another subcommand is not an option of this one
        cfg.write_text(json.dumps({"points": 3}))
        assert exit_code("gamma", "--config", str(cfg)) == 2
        assert "'points'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ("gamma", "--t", "nan"),
        ("gamma", "--t", "inf"),
        ("gamma", "--tau", "nan"),
        ("gamma", "--A", "nan"),
        ("gamma", "--temp", "nan"),
        ("gamma", "--cutoff", "inf"),
        ("gamma", "--rel-tol", "nan"),
        ("sweep", "--sweep", "tau=0:1:2", "--t", "nan"),
        ("figure", "fig2", "--t", "0:nan:3"),
    ])
    def test_non_finite_input_is_a_usage_error(self, argv):
        assert exit_code(*argv) == 2  # a non-finite --t range is an argparse error


class TestFlagsPerSubcommand:
    """Each subcommand takes only the flags its handler reads."""

    BASE = {
        "gamma": ("gamma",),
        "figure": ("figure", "fig3b"),
        "optimize": ("optimize", "--free", "tau"),
        "crossover": ("crossover",),
        "concurrence": ("concurrence", "--gamma", "0.5"),
        "oracle": ("oracle",),
    }
    VALUES = {"tau": "1", "theta": "1", "A": "1", "cutoff": "0.1", "temp": "1", "t": "1",
              "rel-tol": "1e-8", "abs-tol": "1e-12", "max-subdivisions": "1000",
              "format": "json", "jobs": "1"}
    # once accepted and ignored: a preset fixes its spectrum, optimize and
    # crossover always print JSON, crossover scans tau itself, and so on
    DROPPED = (
        [("gamma", "jobs")]
        + [("figure", f) for f in ("tau", "theta", "A", "cutoff", "temp")]
        + [("optimize", f) for f in ("jobs", "format")]
        + [("crossover", f) for f in ("tau", "jobs", "format")]
        + [("concurrence", f) for f in ("tau", "theta", "A", "cutoff", "temp", "t", "rel-tol",
                                         "abs-tol", "max-subdivisions", "jobs")]
        + [("oracle", f) for f in ("A", "cutoff", "t", "rel-tol", "abs-tol",
                                    "max-subdivisions", "format", "jobs")]
    )

    @pytest.mark.parametrize("command, flag", DROPPED)
    def test_dropped_flag_is_a_usage_error(self, command, flag, capsys):
        assert exit_code(*self.BASE[command], f"--{flag}", self.VALUES[flag]) == 2
        assert f"--{flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag", DROPPED)
    def test_dropped_config_key_is_a_usage_error(self, command, flag, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({flag: self.VALUES[flag]}))
        assert exit_code(*self.BASE[command], "--config", str(cfg)) == 2
        assert repr(flag) in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["A", "cutoff", "theta", "rel-tol", "abs-tol",
                                      "max-subdivisions"])
    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_modes_file_rejects_continuum_flags(self, flag, via, tmp_path, capsys):
        modes = tmp_path / "modes.csv"
        modes.write_text("omega,g_abs,theta\n1.0,1.0,0.5\n")
        argv = ["gamma", "--modes-file", str(modes)]
        if via == "flag":
            argv += [f"--{flag}", self.VALUES[flag]]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({flag: self.VALUES[flag]}))
            argv += ["--config", str(cfg)]
        assert exit_code(*argv) == 2
        assert f"--{flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag", [
        (("figure", "fig1b", "--t", "0:20:3"), "--t"),
        (("figure", "fig3a", "--t", "0:20:3"), "--t"),
        (("figure", "fig3b", "--t", "2"), "--t"),
        (("figure", "fig4", "--t", "2"), "--t"),
        (("figure", "fig2", "--t", "0:2:3", "--points", "3"), "--points"),
    ])
    def test_figure_rejects_flags_its_preset_would_drop(self, argv, flag, capsys):
        assert exit_code(*argv) == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag, value", [
        (("sweep", "--sweep", "tau=0:1:2", "--t", "5"), "tau", "3"),
        (("sweep", "--sweep", "theta=0:1:2", "--t", "5"), "theta", "3"),
        (("sweep", "--sweep", "t=0:1:2"), "t", "5"),
        (("optimize", "--free", "tau"), "tau", "3"),
        (("optimize", "--free", "theta"), "theta", "1"),
        (("optimize", "--free", "tau"), "theta-bounds", "0:0.1"),
        (("optimize", "--free", "theta"), "tau-bounds", "5:6"),
    ])
    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_sweep_and_optimize_reject_flags_they_would_drop(self, argv, flag, value, via,
                                                             tmp_path, capsys):
        # a swept or free parameter's value, or a fixed one's bounds
        if via == "flag":
            argv += (f"--{flag}", value)
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({flag: value}))
            argv += ("--config", str(cfg))
        assert exit_code(*argv) == 2
        assert f"--{flag}" in capsys.readouterr().err

    def test_sweep_and_optimize_keep_the_flags_they_use(self, tmp_path):
        assert exit_code("sweep", "--sweep", "tau=0:1:2", "--theta", "1", "--t", "2") == 0
        assert exit_code("optimize", "--free", "theta", "--tau", "1", "--theta-bounds", "0:1",
                         "--t", "2", "--grid-points", "4") == 0
        assert exit_code("optimize", "--free", "tau", "--theta", "1", "--tau-bounds", "0:1",
                         "--t", "2", "--grid-points", "4") == 0

    @pytest.mark.parametrize("argv, spaced, joined", [
        (("gamma",), ("--tau", "-1e-3"), ("--tau=-1e-3",)),
        (("gamma",), ("--theta", "-1E-3"), ("--theta=-1E-3",)),
        (("optimize", "--free", "theta", "--t", "2", "--grid-points", "4"),
         ("--theta-bounds", "-1:1"), ("--theta-bounds=-1:1",)),
    ])
    def test_a_negative_value_may_follow_its_flag(self, argv, spaced, joined, tmp_path):
        # argparse before gh-123945 took -1e-3 and -1:1 for flags and exited 2
        # with "expected one argument"
        result = run_cli(tmp_path, *argv, *spaced)
        assert result[0] == 0 and result == run_cli(tmp_path, *argv, *joined)

    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_optimize_rejects_a_repeated_free_parameter(self, via, tmp_path, capsys):
        if via == "flag":
            argv = ("optimize", "--free", "tau", "--free", "tau")
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"free": ["tau", "tau"]}))
            argv = ("optimize", "--config", str(cfg))
        assert exit_code(*argv) == 2
        assert "free parameters must be distinct" in capsys.readouterr().err
        with pytest.raises(ValueError, match="distinct"):
            optimize(OhmicSpectrum(1.0, 0.1), ["theta", "theta"], 1.0,
                     {"theta": (0.0, 1.0)}, QuadratureSpec())

    @pytest.mark.parametrize("argv, name", [
        (("figure", "fig3b", "--points", "0"), "--points"),
        (("optimize", "--free", "tau", "--grid-points", "0"), "--grid-points"),
        (("optimize", "--free", "tau", "--grid-points", "1"), "grid_points"),
        (("sweep", "--sweep", "tau=0:1:2", "--jobs", "0"), "--jobs"),
        (("figure", "fig3b", "--jobs", "-1"), "--jobs"),
        (("oracle", "--num-times", "0"), "--num-times"),
        (("crossover", "--tau-max", "0"), "tau_max"),
        (("crossover", "--tau-max", "-4"), "tau_max"),
        (("sweep", "--sweep", "tau=0:1:2", "--t", "0:20:5"), "--t"),
        (("optimize", "--free", "tau", "--t", "0:20:5"), "--t"),
        (("crossover", "--t", "0:20:5"), "--t"),
        (("optimize", "--free", "tau", "--tau-bounds", "0:20:5"), "--tau-bounds"),
        (("optimize", "--free", "tau", "--tau-bounds", "5"), "--tau-bounds"),
        (("optimize", "--free", "theta", "--theta-bounds", "0:1:2"), "--theta-bounds"),
        (("optimize", "--free", "theta", "--theta-bounds", "1"), "--theta-bounds"),
        (("gamma", "--t", "0:1:-1"), "--t"),
        (("gamma", "--t", "0:1"), "--t"),
        (("figure", "fig2", "--t", "0:1:0"), "--t"),
        (("sweep", "--sweep", "tau=0:1:0"), "--sweep"),
        (("sweep", "--sweep", "tau"), "--sweep"),
        (("concurrence", "--gamma", "nan"), "--gamma must be >= 0, got nan"),
        (("gamma", "--max-subdivisions", "0"), "--max-subdivisions"),
        (("gamma", "--max-subdivisions", "-5"), "--max-subdivisions"),
        (("sweep", "--sweep", "tau=0:1:2", "--max-subdivisions", "0"), "--max-subdivisions"),
        # the kernel is beyond the float range at the first start panel
        (("gamma", "--t", "1", "--cutoff", "1e-300"), "--cutoff"),
        (("gamma", "--t", "1", "--cutoff", "1e-160", "--temp", "0"), "--cutoff"),
        (("gamma", "--t", "1", "--temp", "1e302"), "--temp"),
        (("gamma", "--t", "200", "--temp", "1e300"), "--temp"),  # a narrower first panel
        # tau past the kernel constants, as for --modes-file (was exit 3, a start grid
        # of 1.9e77 or inf panels)
        (("gamma", "--t", "1", "--tau", "5e76"), "(--tau)"),
        (("gamma", "--t", "1", "--tau", "1e160"), "(--tau)"),
        # a non-finite range, or one whose span overflows, is no numpy warning
        (("sweep", "--sweep", "t=0:inf:3"), "argument --sweep: values must be finite"),
        (("sweep", "--sweep", "tau=nan:1:3"), "argument --sweep: values must be finite"),
        (("sweep", "--sweep", "t=-1e308:1e308:3"), "argument --sweep: values must be finite"),
        (("gamma", "--t", "0:inf:3"), "argument --t: values must be finite"),
        # 72.8 TiB of floats: numpy refuses the array before allocating anything
        (("sweep", "--sweep", "t=0:1:10000000000000"), "argument --sweep: count too large"),
        (("gamma", "--t", "0:1:10000000000000"), "argument --t: count too large"),
        # a non-finite shared float flag is named by argparse, not by the library
        (("gamma", "--t", "nan"), "argument --t: must be finite, got 'nan'"),
        (("sweep", "--sweep", "tau=0:1:2", "--t", "inf"), "argument --t: must be finite"),
        (("optimize", "--free", "tau", "--t", "nan"), "argument --t: must be finite"),
        (("crossover", "--t", "inf"), "argument --t: must be finite"),
        (("gamma", "--A", "inf"), "argument --A: must be finite, got 'inf'"),
        # a value that is no number reads as argparse's own float and int types do
        (("gamma", "--t", "abc"), "argument --t: invalid float value: 'abc'"),
        (("gamma", "--tau", "abc"), "argument --tau: invalid float value: 'abc'"),
        (("sweep", "--sweep", "tau=a:1:2"), "argument --sweep: invalid float value: 'a'"),
        (("sweep", "--sweep", "tau=0:1:2", "--jobs", "x"),
         "argument --jobs: invalid int value: 'x'"),
        (("optimize", "--free", "tau", "--tau-bounds", "a:b"),
         "argument --tau-bounds: invalid float value: 'a'"),
        (("gamma", "--max-subdivisions", "1.5"),
         "argument --max-subdivisions: invalid int value: '1.5'"),
        (("crossover", "--tau-max", "-1e3"), "tau_max (--tau-max)"),
    ])
    def test_emptied_clamped_or_truncated_input_is_a_usage_error(self, argv, name, capsys):
        assert exit_code(*argv) == 2
        assert name in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ("figure", "fig2", "--points", "10000000000000"),
        ("optimize", "--free", "tau", "--grid-points", "10000000000000"),
        ("oracle", "--num-times", "10000000000000"),
    ])
    def test_a_count_past_memory_is_one_error_line(self, argv, capsys):
        # 72.8 TiB of floats: numpy refuses the array before allocating anything
        assert exit_code(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv, flag", [
        (("optimize", "--free", "tau", "--grid-points", "1"), "--grid-points"),
        (("crossover", "--tau-max", "nan"), "--tau-max"),
        (("crossover", "--tau-max", "-4"), "--tau-max"),
        (("oracle", "--fock-dim", "0"), "--fock-dim"),
        (("oracle", "--fock-dim", "1"), "--fock-dim"),
        (("oracle", "--dim-budget", "0"), "--dim-budget"),
        (("oracle", "--fock-dim", "80", "--dim-budget", "60"), "--dim-budget"),
        # a tau past the kernel constants, named by the flag that scans it
        (("crossover", "--tau-max", "1e100"), "(--tau-max)"),
        (("optimize", "--free", "tau", "--tau-bounds", "0:1e100"), "(--tau-bounds)"),
        (("sweep", "--sweep", "tau=0:1e100:2"), "(--sweep tau=)"),
        # a negative value: the library's own text, then the flag that gave it
        (("gamma", "--t", "-1"), "(--t)"),
        (("sweep", "--sweep", "t=-1:1:3"), "(--sweep t=)"),
        (("optimize", "--free", "theta", "--t", "-1"), "(--t)"),
        (("crossover", "--t", "-1"), "(--t)"),
        (("gamma", "--temp", "-1e-3"), "(--temp)"),
        (("oracle", "--temp", "-1"), "(--temp)"),
        (("gamma", "--cutoff", "-1e-3"), "(--cutoff)"),
        (("gamma", "--A", "-1e-3"), "(--A)"),
        (("oracle", "--omega", "-1e-3"), "(--omega)"),
        (("oracle", "--g-abs", "-1e-3"), "(--g-abs)"),
        (("oracle", "--t-max", "-1"), "(--t-max)"),
        # omega^2 subnormal: core.BathMode refused it without naming the flag
        (("oracle", "--omega", "1e-300"), "(--omega)"),
    ])
    def test_library_checks_name_the_flag(self, argv, flag, capsys, monkeypatch):
        # values that argparse passes and the library rejects before any integral
        calls = count_integrals(monkeypatch)
        assert exit_code(*argv) == 2
        assert flag in capsys.readouterr().err
        assert calls[0] == 0

    def test_drivers_reject_what_they_used_to_clamp(self):
        quad, spec = QuadratureSpec(), OhmicSpectrum(1.0, 0.1)
        with pytest.raises(ValueError, match="grid_points"):
            optimize(spec, ["tau"], 1.0, {"tau": (0.0, 1.0)}, quad, grid_points=1)
        with pytest.raises(ValueError, match="jobs"):
            run_figure(FIGURE_PRESETS["fig3b"], quad, jobs=0, axis_values=[0.0])
        with pytest.raises(ValueError, match="tau_max"):
            crossover(spec, 1.0, quad, tau_max=-4.0)

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_oracle_non_finite_t_max_fails_fast(self, value, capsys):
        start = time.perf_counter()
        assert exit_code("oracle", "--t-max", value) == 2
        assert time.perf_counter() - start < 1.0
        assert "--t-max" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [("--omega", "nan"), ("--g-abs", "inf")])
    def test_oracle_non_finite_float_names_its_flag(self, flag, value, capsys):
        assert exit_code("oracle", flag, value) == 2
        assert f"argument {flag}: must be finite, got '{value}'" in capsys.readouterr().err

    def test_oracle_overflowing_coupling_is_a_usage_error(self, capsys):
        assert exit_code("oracle", "--g-abs", "1e200") == 2
        assert "g_abs 1e+200" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ("--omega", "1e300", "--temp", "0", "--tau", "1e5", "--dim-budget", "640"),
        ("--omega", "1e200", "--tau", "1e70", "--temp", "0"),
    ])
    def test_oracle_levels_past_the_float_range_are_a_usage_error(self, argv, capsys,
                                                                  monkeypatch):
        # numpy used to warn of an overflow in the bands, and the JSON to hold a NaN
        def no_fock(*args):
            raise AssertionError("Fock work ran")

        monkeypatch.setattr(np.linalg, "eigh", no_fock)
        monkeypatch.setattr(np.linalg, "eigvals", no_fock)
        assert exit_code("oracle", *argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: omega {float(argv[1]):g} (--omega), tau ")
        assert "(--tau)" in err and err.count("\n") == 1

    @pytest.mark.parametrize("g_abs", ["1e150", "1e3"])
    def test_oracle_displacement_past_the_ladder_is_a_usage_error(self, g_abs, capsys,
                                                                  monkeypatch):
        # the ladder used to climb towards --dim-budget 6400 and exit 4
        def no_fock(*args):
            raise AssertionError("Fock work ran")

        monkeypatch.setattr(np.linalg, "eigh", no_fock)
        start = time.perf_counter()
        assert exit_code("oracle", "--g-abs", g_abs) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err.startswith(f"error: g_abs {float(g_abs):g} (--g-abs) displaces the state")
        assert "(--dim-budget 6400)" in err and err.count("\n") == 1

    def test_oracle_huge_omega_in_the_float_range_runs(self, capsys):
        assert exit_code("oracle", "--omega", "1e300", "--num-times", "11") == 0
        assert json.loads(capsys.readouterr().out)["converged"] is True

    @pytest.mark.parametrize("argv", [
        ("--t-max", "1e12", "--num-times", "2", "--dim-budget", "320"),
        ("--t-max", "1e300"),
    ])
    def test_oracle_unresolvable_phases_are_a_usage_error(self, argv, capsys, monkeypatch):
        # exit 4 used to follow a climb up the ladder, non-converged at its budget
        def no_fock(*args):
            raise AssertionError("Fock work ran")

        monkeypatch.setattr(np.linalg, "eigh", no_fock)
        monkeypatch.setattr(np.linalg, "eigvals", no_fock)
        assert exit_code("oracle", *argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: t_max {float(argv[1]):g} (--t-max) takes the phases")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("t_max", ["20", "1e3"])
    def test_oracle_resolvable_phases_run(self, t_max, capsys):
        assert exit_code("oracle", "--t-max", t_max, "--num-times", "11") == 0
        assert json.loads(capsys.readouterr().out)["converged"] is True

    @pytest.mark.parametrize("argv, flag", [
        (("--free", "tau", "--tau-bounds", "5:1"), "--tau-bounds"),
        (("--free", "tau", "--tau-bounds", "nan:1"), "--tau-bounds"),
        (("--free", "tau", "--tau-bounds", "0:inf"), "--tau-bounds"),
        (("--free", "theta", "--theta-bounds", "2:1"), "--theta-bounds"),
        (("--free", "theta", "--theta-bounds=-inf:1"), "--theta-bounds"),
        (("--free", "tau", "--free", "theta", "--theta-bounds", "0:nan"), "--theta-bounds"),
    ])
    def test_bad_search_bounds_name_their_flag(self, argv, flag, capsys, monkeypatch):
        # "bad bounds for 'tau': (5.0, 1.0)" used to name no flag
        calls = count_integrals(monkeypatch)
        assert exit_code("optimize", *argv) == 2
        err = capsys.readouterr().err
        assert f"({flag})" in err and err.count("\n") == 1
        assert calls[0] == 0

    @pytest.mark.parametrize("argv, named, blamed", [
        # the start panel is narrow through the oscillation rate 0.5 t r
        (("--t", "1e155", "--max-subdivisions", "1" + "0" * 160), "t 1e+155 (--t)", "--cutoff"),
        (("--t", "1e151", "--max-subdivisions", "1" + "0" * 160), "t 1e+151 (--t)", "--cutoff"),
        # the start panel is 2 cutoff wide
        (("--t", "1", "--cutoff", "1e-300"), "cutoff 1e-300 (--cutoff)", "--t"),
        (("--t", "1", "--cutoff", "1e-160", "--temp", "0"), "cutoff 1e-160 (--cutoff)", "--t"),
    ])
    def test_out_of_range_nodes_name_what_set_the_start_panel(self, argv, named, blamed,
                                                             capsys):
        # a huge --t used to be blamed on "cutoff 0.1 (--cutoff)"
        assert exit_code("gamma", *argv) == 2
        err = capsys.readouterr().err
        assert named in err and blamed not in err

    def test_readme_cli_lines_parse(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        lines = [line for line in block.splitlines() if line.startswith("ptbath ")]
        assert {line.split()[1] for line in lines} == {*self.BASE, "sweep"}
        parser = cli.build_parser()
        for line in lines:
            parser.parse_args(shlex.split(line)[1:])


class TestParserPerSubcommand:
    """build_parser(name) gives subcommand `name` the flags build_parser()
    gives it, and the others none."""

    ARGV = {
        "gamma": ("gamma", "--t", "0:5:3", "--tau", "1", "--format", "json"),
        "sweep": ("sweep", "--sweep", "theta=0:1:3", "--jobs", "2"),
        "figure": ("figure", "fig2", "--points", "5", "--rel-tol", "1e-9"),
        "optimize": ("optimize", "--free", "tau", "--tau-bounds", "0:4", "--t", "2"),
        "crossover": ("crossover", "--theta", "1", "--tau-max", "3"),
        "concurrence": ("concurrence", "--gamma", "0.5"),
        "oracle": ("oracle", "--temp", "2", "--fock-dim", "20"),
    }

    @pytest.mark.parametrize("name", sorted(ARGV))
    def test_help_and_namespaces_match_the_full_parser(self, name, tmp_path):
        full, own = cli.build_parser(), cli.build_parser(name)
        assert own.format_help() == full.format_help()
        assert (cli._subparser(own, name).format_help()
                == cli._subparser(full, name).format_help())
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"out": "x.csv"}))
        for argv in (list(self.ARGV[name]), [*self.ARGV[name], "--config", str(cfg)]):
            parsed = [vars(p.parse_args(cli._with_config(p, argv))) for p in (full, own)]
            # repr: the gamma and sweep axes are arrays, which == does not compare
            assert repr(parsed[0]) == repr(parsed[1])
            assert parsed[0]["out"] == (None if len(argv) == len(self.ARGV[name]) else "x.csv")

    def test_only_the_named_subcommand_gets_flags(self):
        def flags(parser):
            return {name: [a.dest for a in cli._subparser(parser, name)._actions]
                    for name in self.ARGV}

        full, sweep = flags(cli.build_parser()), flags(cli.build_parser("sweep"))
        assert sweep == {**{name: ["help"] for name in self.ARGV}, "sweep": full["sweep"]}
        assert all(len(dests) > 2 for dests in full.values())
        # a name that is no subcommand builds every subcommand's flags
        assert flags(cli.build_parser("frob")) == full


class TestTableWriter:
    @pytest.mark.parametrize("rows", [
        [],
        [[-0.0, 5e-324, 1e308], [math.nan, math.inf, -math.inf], [0.0, -1e-308, 1.0]],
        [[np.float64(0.1), np.float64(-2.5e-300), np.float64(math.nan)]],
        # random bit patterns: every exponent, subnormals, nan payloads and signs
        np.random.default_rng(22).integers(0, 2**64, 3000, dtype=np.uint64, endpoint=False)
        .view(np.float64).reshape(-1, 3).tolist(),
    ])
    def test_csv_is_the_per_value_text(self, rows, tmp_path):
        out = tmp_path / "table.csv"
        cli._write_table(["a", "b", "c"], rows, str(out), "csv")
        per_value = ["a,b,c"] + [",".join(cli._fmt(v) for v in row) for row in rows]
        assert out.read_bytes().decode() == "\n".join(per_value) + "\n"


def test_known_red_script_runs():
    # docs/known_red.py calls the library with numpy scalars; it must keep running
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, str(root / "docs" / "known_red.py")], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert "criterion 9" in out.stdout
