"""Output checks.  Each operation (one CLI invocation) gets a verdict:

* ``ok``: exit code, row count and every value as expected;
* ``wrong``: how many emitted values contradict their reference or an
  identity.  A wrong value makes the whole run incorrect; an operation
  that only exits badly or emits too few rows is a failed operation.
* ``values``: Gamma values the operation wrote that were verified (0
  unless ``ok``).

The batch workloads are compared with the committed references (made by
``make_reference.py`` from the library path).  The commands workload uses
identities that hold for any seed: coherence = exp(-Gamma), concurrence of
the dephased Bell state = exp(-Gamma), the discrete Gamma equals the
amplitude route ``gamma_discrete_amplitude``, and the oracle converges.
"""

from __future__ import annotations

import csv
import gzip
import json
import math
from dataclasses import dataclass
from pathlib import Path

from workloads import CROSSOVER_TAU_MAX, MODES_FILE, MODES_TIMES, OPTIMIZE_BOUNDS, SWEEP_T, fmt_key

# the default QuadratureSpec.rel_tol, with an absolute floor for Gamma ~ 0
REL_TOL = 1e-8
ABS_FLOOR = 1e-10
# the CLI prints 12 significant digits, so exp(-Gamma) recomputed from the
# printed Gamma carries a relative error of about 5e-12 * Gamma
PRINT_REL = 1e-11
TINY = 1e-300
# every 5th row of a discrete-bath table is recomputed by the amplitude route
MODES_STRIDE = 5


@dataclass
class Verdict:
    ok: bool
    wrong: int = 0
    values: int = 0
    note: str = ""


def close(x: float, ref: float) -> bool:
    return abs(x - ref) <= REL_TOL * abs(ref) + ABS_FLOOR


def coherence_ok(gamma: float, coherence: float) -> bool:
    if not gamma >= -ABS_FLOOR:
        return False
    expected = math.exp(-gamma)
    return abs(coherence - expected) <= (REL_TOL + PRINT_REL * abs(gamma)) * expected + TINY


def load_reference(path: Path) -> dict[str, dict[tuple, float]]:
    """op -> {(tau, theta, t) key: Gamma}."""
    ref: dict[str, dict[tuple, float]] = {}
    with gzip.open(path, "rt", newline="") as fh:
        for row in csv.DictReader(fh):
            ref.setdefault(row["op"], {})[(row["tau"], row["theta"], row["t"])] = float(row["gamma"])
    return ref


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_table(rc: int, path: Path, ref: dict[tuple, float]) -> Verdict:
    """A figure or sweep table against its reference rows."""
    if rc != 0:
        return Verdict(False, note=f"exit code {rc}")
    try:
        rows = _read_csv(path)
    except OSError as exc:
        return Verdict(False, note=str(exc))
    wrong, seen = 0, set()
    for row in rows:
        try:
            key = (fmt_key(row["tau"]), fmt_key(row["theta"]), fmt_key(row.get("t", SWEEP_T)))
            gamma, coherence = float(row["gamma"]), float(row["coherence"])
        except (KeyError, TypeError, ValueError):
            wrong += 1
            continue
        expected = ref.get(key)
        if expected is None or key in seen or not close(gamma, expected) \
                or not coherence_ok(gamma, coherence):
            wrong += 1
        seen.add(key)
    if wrong:
        return Verdict(False, wrong, note=f"{wrong} wrong values")
    if len(rows) != len(ref):
        return Verdict(False, note=f"{len(rows)} rows, expected {len(ref)}")
    return Verdict(True, values=len(rows))


class CommandChecker:
    """Checks of the commands workload; caches the amplitude-route Gamma of
    the session's discrete bath."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self._amplitude: dict[tuple, float] = {}

    def check(self, cmd, rc: int, out_path: Path) -> Verdict:
        if rc != 0:
            return Verdict(False, note=f"exit code {rc}")
        try:
            text = out_path.read_text()
            return getattr(self, "_" + cmd.kind.replace("-", "_"))(cmd.params, text)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return Verdict(False, note=f"unreadable output: {exc}")

    @staticmethod
    def _rows(text: str, columns: list[str]) -> list[list[float]]:
        lines = text.strip().splitlines()
        if not lines or lines[0].split(",") != columns:
            raise ValueError(f"expected columns {columns}")
        return [[float(v) for v in line.split(",")] for line in lines[1:]]

    def _gamma(self, p, text):
        rows = self._rows(text, ["t", "gamma", "coherence"])
        if len(rows) != 1:
            return Verdict(False, note=f"{len(rows)} rows, expected 1")
        t, g, c = rows[0]
        if fmt_key(t) != fmt_key(p["t"]) or not (math.isfinite(g) and g >= 0) \
                or not coherence_ok(g, c):
            return Verdict(False, 1, note="wrong value")
        return Verdict(True, values=1)

    def _gamma_modes(self, p, text):
        from ptbath.core import gamma_discrete_amplitude, load_bath_csv

        rows = self._rows(text, ["t", "gamma", "coherence"])
        lo, hi, n = MODES_TIMES
        if len(rows) != n:
            return Verdict(False, note=f"{len(rows)} rows, expected {n}")
        bath = None
        wrong = 0
        for i, (t, g, c) in enumerate(rows):
            expected_t = lo + (hi - lo) * i / (n - 1)
            bad = abs(t - expected_t) > 1e-9 or not coherence_ok(g, c)
            if not bad and (i % MODES_STRIDE == 0 or i == n - 1):
                key = (p["tau"], p["temp"], fmt_key(t))
                if key not in self._amplitude:
                    if bath is None:
                        bath = load_bath_csv(self.workdir / MODES_FILE,
                                             temperature=p["temp"], tau=p["tau"])
                    self._amplitude[key] = gamma_discrete_amplitude(bath, t)
                bad = not close(g, self._amplitude[key])
            wrong += bad
        if wrong:
            return Verdict(False, wrong, note=f"{wrong} wrong values")
        return Verdict(True, values=n)

    def _concurrence(self, p, text):
        rows = self._rows(text, ["gamma", "concurrence", "eof"])
        if len(rows) != 1:
            return Verdict(False, note=f"{len(rows)} rows, expected 1")
        g, conc, eof = rows[0]
        x = 0.5 * (1.0 + math.sqrt(max(0.0, 1.0 - conc * conc)))
        h = 0.0 if x >= 1.0 else -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)
        if abs(g - p["gamma"]) > 1e-12 or abs(conc - math.exp(-g)) > 1e-10 \
                or abs(eof - h) > 1e-10:
            return Verdict(False, 1, note="wrong value")
        return Verdict(True)

    def _oracle(self, p, text):
        report = json.loads(text)
        if report["converged"] is not True or not report["dephasing_max_error"] <= 1e-6:
            return Verdict(False, 1, note="oracle did not certify")
        return Verdict(True)

    _oracle_t10 = _oracle

    def _crossover(self, p, text):
        tau = json.loads(text)["crossover_tau"]
        if tau is not None and not 0.0 < tau <= CROSSOVER_TAU_MAX:
            return Verdict(False, 1, note=f"crossover {tau} outside (0, {CROSSOVER_TAU_MAX}]")
        return Verdict(True)

    _crossover_t2 = _crossover_t120 = _crossover

    def _optimize(self, p, text):
        payload = json.loads(text)
        x, g = payload["argmin"][p["free"]], payload["gamma_min"]
        lo, hi = OPTIMIZE_BOUNDS[p["free"]]
        if not (lo <= x <= hi) or not (math.isfinite(g) and g >= 0):
            return Verdict(False, 1, note="argmin outside bounds or bad gamma")
        return Verdict(True)

    _optimize_theta = _optimize_tau = _optimize
