"""Run the benchmark over several seeds and report each end-to-end
metric's median and quartile spread (IQR / median).

Usage (from the root of a checkout)::

    python3 perfbench/steady.py --workload cold-serial --seeds 1-10

Every run measures for ``run_seconds`` of ``BENCHMARK.json``, the run
length the benchmark is judged at.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN_SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))[
    "run_seconds"
]


def seeds(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values: list[float]) -> tuple[float, float]:
    """(median, IQR / median) as ``statistics.quantiles(n=4)`` gives them."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("nan")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args()
    rows = []
    for seed in seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(RUN_SECONDS), "--trace", "0"],
            capture_output=True, text=True,
        )
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
            return 1
        row = json.loads(proc.stdout.strip().splitlines()[-1])
        rows.append(row)
        values = {k: round(v["value"], 4) for k, v in row["metrics"].items()}
        print(f"seed {seed}: correct={row['correct']} failed={row['failed']} {values}", flush=True)
    if len(rows) >= 2:
        for name in rows[0]["metrics"]:
            med, iqr = spread([r["metrics"][name]["value"] for r in rows])
            print(f"{name}: median {med:.4f}  spread {iqr:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
