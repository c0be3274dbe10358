"""Run the benchmark on several seeds and print each metric's median and quartiles.

    python3 perfbench/spread.py --workloads sdp_restrict --seeds 1-5 --seconds 40

Runs are sequential, one process at a time.  For every workload and metric
it prints the median, the first and third quartiles (statistics.quantiles,
n=4) and the spread (Q3 - Q1) / median, and it writes every run's result
line to --out as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seed_list(text: str) -> list[int]:
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default="sdp_restrict,certify_qsim")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    runs = []
    for workload in args.workloads.split(","):
        for seed in seed_list(args.seeds):
            start = time.perf_counter()
            out = subprocess.run(
                [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                capture_output=True, text=True, timeout=600, check=True,
            )
            wall = time.perf_counter() - start
            result = json.loads(out.stdout.strip().splitlines()[-1])
            runs.append({"workload": workload, "seed": seed, "wall_s": wall, "result": result})
            values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(f"{workload} seed {seed} wall {wall:.1f}s correct {result['correct']} "
                  f"attempted {result['attempted']} failed {result['failed']} {values}", flush=True)
        print(f"\n{workload}: metric, median, Q1, Q3, (Q3-Q1)/median")
        mine = [r for r in runs if r["workload"] == workload]
        for name in mine[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][name]["value"] for r in mine]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
            spread = (q3 - q1) / median if median else float("nan")
            print(f"  {name}: {median:.6g}, {q1:.6g}, {q3:.6g}, {spread:.4f}")
        shares = {r["result"]["failed"] / r["result"]["attempted"] for r in mine}
        print(f"  failed shares: {sorted(shares)}\n", flush=True)
    if args.out:
        args.out.write_text(json.dumps(runs, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
