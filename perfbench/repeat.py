"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/repeat.py --seeds 1-10 [--out perfbench/summary.json]

Runs are sequential, one process each, untraced, over every workload, with
the run length from BENCHMARK.json. Per workload and metric, the gated ones and those the run
only reports, it prints the median, the quartiles (statistics.quantiles,
n=4) and the spread (Q3 - Q1) / median. The exit
code is 1 if any run failed a check.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)

    summary = {"run_seconds": spec["run_seconds"], "seeds": args.seeds, "workloads": {}}
    results = ROOT / "perfbench" / "results"
    all_correct = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in args.seeds:
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            start = time.perf_counter()
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            runs.append(json.loads(out.stdout.strip().splitlines()[-1]))
            record = json.loads((results / f"{workload}-seed{seed}-trace0.json").read_text())
            runs[-1]["metrics"].update(record["reported"])
            print(f"{workload} seed {seed}: correct={runs[-1]['correct']} "
                  f"failed={runs[-1]['failed']}/{runs[-1]['attempted']} "
                  f"wall {time.perf_counter() - start:.1f}s", file=sys.stderr)
        correct = all(r["correct"] and r["failed"] == 0 for r in runs)
        all_correct &= correct
        metrics = {}
        for name, m in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            metrics[name] = {"unit": m["unit"], **summarise(values)}
        summary.setdefault("machine", record["machine"])
        summary["workloads"][workload] = {"correct": correct, "metrics": metrics}
        print(f"\n{workload}  ({len(runs)} runs, all correct: {correct})")
        for name, s in metrics.items():
            print(f"  {name:34s} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
                  f"q3 {s['q3']:<12.6g} spread {s['spread']:.4f} {s['unit']}")
    if args.out:
        args.out.write_text(json.dumps(summary, indent=2) + "\n")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
