import json
import math

import numpy as np
import pytest

from ptbath import cli, drivers
from ptbath.cli import (
    FIGURE_PRESETS,
    crossover,
    golden_section_min,
    main,
    optimize,
    run_figure,
    run_sweep,
)
from ptbath.continuum import OhmicSpectrum, QuadratureSpec, gamma_continuum_nh

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
