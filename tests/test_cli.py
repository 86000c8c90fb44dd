import json
import math
import os
import shlex
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import ptbath
from ptbath import cli, continuum, drivers
from ptbath.cli import (
    FIGURE_PRESETS,
    crossover,
    golden_section_min,
    main,
    optimize,
    run_figure,
    run_sweep,
)
from ptbath.continuum import OhmicSpectrum, QuadratureSpec, gamma_continuum_nh, spectral_density
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


def count_integrals(monkeypatch):
    """Count the calls of continuum.integrate_adaptive; returns a one-item list."""
    calls = [0]

    def counting(*args, **kwargs):
        calls[0] += 1
        return integrate_adaptive(*args, **kwargs)

    monkeypatch.setattr(continuum, "integrate_adaptive", counting)
    return calls


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

    @pytest.mark.parametrize("row, message", [
        ("1e-170,1.0,0.5", "omega must be >= 1.49e-154"),
        ("1e-160,0.0,0.5", "omega must be >= 1.49e-154"),
        ("0.5,1e200,0.5", "g_abs 1e+200"),
        ("1e-150,1e10,0.5", "g_abs 1e+10"),
    ])
    def test_modes_file_beyond_the_float_range_is_a_usage_error(self, tmp_path, capsys,
                                                                row, message):
        # unchecked, each prints nan or raises an OverflowError
        modes = tmp_path / "modes.csv"
        modes.write_text("omega,g_abs,theta\n" + row + "\n")
        code, text = run_cli(tmp_path, "gamma", "--modes-file", str(modes))
        assert code == 2 and text == ""
        assert message in capsys.readouterr().err

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

        def kernel_everywhere(w, spec, t, thetas):
            j = spectral_density(w, spec.amplitude, spec.cutoff)
            return np.array([dephasing_kernel(w, j, theta, spec.tau, t, spec.temperature)
                             for theta in thetas])

        monkeypatch.setattr(continuum, "gamma_integrand_nh", kernel_everywhere)
        ref = gamma_continuum_nh(OhmicSpectrum(1.0, 0.7, 4.9, 0.05, -19.3), 300.0)
        assert g == pytest.approx(ref, rel=1e-9)


    @pytest.mark.skipif(not Path("/proc/self/status").exists(),
                        reason="peak memory is read from /proc/self/status")
    def test_large_t_peak_memory_is_bounded(self):
        # 3.1e5 panels (4.6e6 nodes): evaluated in blocks, the run stays far
        # below the 380 MB that one integrand call over every panel needed
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
        assert out[-2] == "3.00000000000e+02,1.13793417600e+02,3.80317806368e-50"
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

    def test_worker_pool_preserves_bytes(self, tmp_path):
        args = ("sweep", "--sweep", "tau=0:2:3", "--theta", "1.0", "--t", "5")
        _, serial = run_cli(tmp_path, *args, "--jobs", "1")
        _, parallel = run_cli(tmp_path, *args, "--jobs", "2")
        assert serial == parallel

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
    def test_worker_pool_gives_identical_rows(self, fig, values):
        quad = QuadratureSpec()
        serial = run_figure(FIGURE_PRESETS[fig], quad, jobs=1, axis_values=values)
        parallel = run_figure(FIGURE_PRESETS[fig], quad, jobs=2, axis_values=values)
        assert serial == parallel

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

        def per_point(spec, t, thetas, quad=None):
            return np.array([gamma_continuum_nh(replace(spec, theta=th), t, quad)
                             for th in thetas])

        monkeypatch.setattr(drivers, "gamma_continuum_thetas", per_point)
        calls[0] = 0
        code, single = run_cli(tmp_path, *argv)
        assert code == 0
        assert grouped == single
        assert grouped_calls == calls[0] - 6 * 6 + 6

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
        assert set(payload) == {"spectrum_residuals", "similarity_residual",
                                "dephasing_max_error", "fock_dim_used", "converged"}
        assert payload["converged"] is True
        assert payload["dephasing_max_error"] <= 1e-6

    def test_unreachable_truncation_fails_fast(self, tmp_path, capsys):
        start = time.perf_counter()
        code, text = run_cli(tmp_path, "oracle", "--temp", "300")
        assert time.perf_counter() - start < 5.0
        assert code == 4
        payload = json.loads(text)
        assert payload["converged"] is False and payload["dephasing_max_error"] is None
        assert "needs Fock dimension 6908" in capsys.readouterr().err

    def test_tau_zero_similarity(self, tmp_path):
        _, text = run_cli(tmp_path, "oracle", "--tau", "0", "--num-times", "11")
        assert json.loads(text)["similarity_residual"] == 0.0

    def test_zero_coupling(self, tmp_path):
        _, text = run_cli(tmp_path, "oracle", "--g-abs", "0", "--num-times", "11")
        assert json.loads(text)["dephasing_max_error"] <= 1e-12


class TestExitCodesAndConfig:
    def test_quadrature_failure_exit_code(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"max_subdivisions": 5, "rel_tol": 1e-15,
                                   "abs_tol": 1e-300}))
        code, _ = run_cli(tmp_path, "gamma", "--tau", "2", "--theta", "0.3",
                          "--t", "20", "--config", str(cfg))
        assert code == 3

    def test_start_grid_over_budget_exits_fast(self, capsys):
        # about 1.5e11 start panels: refused before anything is allocated
        start = time.perf_counter()
        assert exit_code("gamma", "--tau", "20", "--t", "1e9") == 3
        assert time.perf_counter() - start < 1.0
        assert "start grid needs" in capsys.readouterr().err

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
    def test_non_finite_input_is_a_usage_error(self, tmp_path, argv):
        code, _ = run_cli(tmp_path, *argv)
        assert code == 2


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
    ])
    def test_emptied_clamped_or_truncated_input_is_a_usage_error(self, argv, name, capsys):
        assert exit_code(*argv) == 2
        assert name in capsys.readouterr().err

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
        assert "t_max" in capsys.readouterr().err

    def test_oracle_overflowing_coupling_is_a_usage_error(self, capsys):
        assert exit_code("oracle", "--g-abs", "1e200") == 2
        assert "g_abs 1e+200" in capsys.readouterr().err

    def test_readme_cli_lines_parse(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        lines = [line for line in block.splitlines() if line.startswith("ptbath ")]
        assert {line.split()[1] for line in lines} == {*self.BASE, "sweep"}
        parser = cli.build_parser()
        for line in lines:
            parser.parse_args(shlex.split(line)[1:])


def test_known_red_script_runs():
    # docs/known_red.py calls the library with numpy scalars; it must keep running
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, str(root / "docs" / "known_red.py")], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert "criterion 9" in out.stdout
