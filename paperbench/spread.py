"""Run the benchmark over several seeds and report each metric's spread.

Usage (from the root of a checkout)::

    python3 paperbench/spread.py --workload check-raftmongo --seeds 1-10

For every metric it prints the median, the quartiles and the interquartile
distance as a share of the median, next to the metric's bound from
``BENCHMARK.json``.  It exits 1 if any run failed or was incorrect, or if a
spread (other than ``setup_s``'s) exceeds a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

from summary import spread, summarize

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> List[int]:
    """``"1-3,7"`` -> ``[1, 2, 3, 7]``."""
    seeds: List[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in config["end_to_end"] + config["per_layer"]}
    values: Dict[str, List[float]] = {}
    ok = True
    for seed in parse_seeds(args.seeds):
        done = subprocess.run(
            config["command"]
            + [
                "--workload", args.workload,
                "--seed", str(seed),
                "--seconds", str(config["run_seconds"]),
                "--trace", str(args.trace),
            ],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=900,
        )
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        if done.returncode != 0 or not result.get("correct"):
            ok = False
            print(f"seed {seed}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
            continue
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + json.dumps({k: v["value"] for k, v in result["metrics"].items()}))
    for name, series in values.items():
        summary = summarize(series)
        share = spread(series)
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and share > bound / 3:
            flag = "  <-- above a third of its bound"
            ok = False
        print(
            f"{name}: n={summary['n']} median={summary['median']:.6g} "
            f"q1={summary['q1']:.6g} q3={summary['q3']:.6g} spread={share:.4f}"
            + (f" bound={bound}" if bound is not None else "")
            + flag
        )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
