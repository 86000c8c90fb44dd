"""The three benchmark workloads: what each runs and how its inputs are
drawn from the workload seed.

* ``figures``: the six figure presets, each run as the README documents it
  (``figure <id> --out FILE``), serially in one process, in a fixed order:
  a preset that frees large arrays speeds up the allocations of the next
  one, so a seeded order would move the per-preset times.
* ``sweep-jobs2``: the README sweep with two pool workers, in-process; the
  only workload that goes through the process pool.
* ``commands``: one user running short commands, each in a fresh
  interpreter, the next one starting when the previous one exits.  The seed
  draws the order and the parameters of a fixed mix of commands, and the
  discrete bath of the ``--modes-file`` commands.

The seed has no effect on the first two: their inputs are the documented
commands.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

FIGURE_IDS = ("fig1a", "fig1b", "fig2", "fig3a", "fig3b", "fig4")

SWEEP_GRIDS = (("tau", (0.0, 4.0, 41)), ("theta", (0.0, 3.1416, 25)))
SWEEP_T = 20.0
SWEEP_JOBS = 2

# Commands per session, by kind.  The counts are fixed so that every seed
# puts the same kinds at the median and at the 90th percentile: the light
# kinds (about 0.25 s, mostly interpreter start and imports) fill the
# bottom 78, the crossover scans at t = 120 (0.3-0.9 s, depending on theta)
# sit below the 90th percentile, the twelve tau optimizations (a fixed
# number of integrals whatever theta is) and the three large oracles, all
# 0.75-0.95 s, hold it, and the two discrete-bath runs (about 1.8 s) are the
# top.  100 commands leave ten beyond it.
SESSION_MIX = (
    ("gamma", 43),
    ("concurrence", 13),
    ("oracle", 10),
    ("crossover-t2", 6),
    ("optimize-theta", 6),
    ("crossover-t120", 5),
    ("oracle-t10", 3),
    ("optimize-tau", 12),
    ("gamma-modes", 2),
)

CROSSOVER_TAU_MAX = 4.0
OPTIMIZE_BOUNDS = {"tau": (0.0, 20.0), "theta": (0.0, math.pi)}
MODES_FILE = "modes.csv"
MODES_TIMES = (0.0, 20.0, 401)


def fmt_key(x) -> str:
    """Row keys are compared as the CLI prints them: 12 significant digits."""
    return f"{float(x):.11e}"


def figure_argv(fig: str, out: str) -> list[str]:
    return ["figure", fig, "--out", out]


def sweep_argv(out: str, jobs: int) -> list[str]:
    argv = ["sweep"]
    for name, (lo, hi, n) in SWEEP_GRIDS:
        argv += ["--sweep", f"{name}={lo:g}:{hi:g}:{n}"]
    return argv + ["--t", f"{SWEEP_T:g}", "--jobs", str(jobs), "--out", out]


@dataclass
class Command:
    kind: str
    argv: list[str]
    params: dict


def _num(x: float) -> str:
    return f"{x:.6f}"


def _command(kind: str, rng: random.Random) -> Command:
    def draw(lo, hi):
        # rounded as written on the command line, so the checks see the
        # values the program received
        return float(_num(rng.uniform(lo, hi)))

    if kind == "gamma":
        p = {"tau": draw(0.0, 4.0), "theta": draw(0.0, math.pi), "t": draw(0.5, 20.0)}
        argv = ["gamma", "--tau", _num(p["tau"]), "--theta", _num(p["theta"]), "--t", _num(p["t"])]
    elif kind == "concurrence":
        p = {"gamma": draw(0.0, 3.0)}
        argv = ["concurrence", "--gamma", _num(p["gamma"])]
    elif kind == "oracle":
        p = {}
        argv = ["oracle"]
    elif kind == "oracle-t10":
        p = {"temp": 10.0}
        argv = ["oracle", "--temp", "10"]
    elif kind in ("crossover-t2", "crossover-t120"):
        p = {"theta": draw(0.0, math.pi), "t": 2.0 if kind == "crossover-t2" else 120.0}
        argv = ["crossover", "--theta", _num(p["theta"]), "--t", f"{p['t']:g}"]
    elif kind == "optimize-theta":
        p = {"free": "theta", "tau": draw(0.5, 2.0), "t": draw(5.0, 20.0)}
        argv = ["optimize", "--free", "theta", "--tau", _num(p["tau"]), "--t", _num(p["t"])]
    elif kind == "optimize-tau":
        p = {"free": "tau", "theta": draw(0.0, math.pi), "t": 20.0}
        argv = ["optimize", "--free", "tau", "--theta", _num(p["theta"]), "--t", "20"]
    elif kind == "gamma-modes":
        lo, hi, n = MODES_TIMES
        p = {"tau": draw(0.0, 1.0), "temp": draw(0.5, 5.0)}
        argv = ["gamma", "--modes-file", MODES_FILE, "--tau", _num(p["tau"]),
                "--temp", _num(p["temp"]), "--t", f"{lo:g}:{hi:g}:{n}"]
    else:
        raise ValueError(f"unknown command kind {kind!r}")
    return Command(kind, argv, p)


def make_session(seed: int, workdir: Path) -> list[Command]:
    """The seeded command list, plus the seeded modes file it reads."""
    rng = random.Random(seed)
    write_modes(rng, workdir / MODES_FILE)
    kinds = [kind for kind, count in SESSION_MIX for _ in range(count)]
    rng.shuffle(kinds)
    return [_command(kind, rng) for kind in kinds]


def write_modes(rng: random.Random, path: Path) -> None:
    """A discrete bath of about 2,000 modes: omega,g_abs,theta."""
    n = rng.randint(1950, 2050)
    lines = ["omega,g_abs,theta"]
    for _ in range(n):
        lines.append(f"{rng.uniform(0.01, 1.0)!r},{rng.uniform(0.0, 0.02)!r},"
                     f"{rng.uniform(0.0, 2.0 * math.pi)!r}")
    path.write_text("\n".join(lines) + "\n")
