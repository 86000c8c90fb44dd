"""Self-check: two traced runs of one workload and seed must report the
same exact counts (``spans.EXACT_COUNTS``).  Claims that rest on a count
are only sound while this holds.

    python3 ptbench/repeat_counts.py --workload W --seed N [--seconds S]

Exits 0 when every count matches, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from spans import EXACT_COUNTS  # noqa: E402


def traced_run(workload: str, seed: int, seconds: float) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1"],
        capture_output=True, text=True, check=True, cwd=HERE.parent).stdout
    return json.loads(out.strip().splitlines()[-1])["metrics"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    args = parser.parse_args()
    first, second = (traced_run(args.workload, args.seed, args.seconds) for _ in range(2))
    same = True
    for name in EXACT_COUNTS:
        a, b = first[name]["value"], second[name]["value"]
        same &= a == b
        print(f"{name}: {a!r} {b!r} {'same' if a == b else 'DIFFERENT'}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
