"""mixdiff benchmark: one workload per process, a closed loop with one client.

    python3 perfbench/run.py --workload sample_wide --seed 1 --seconds 20 --trace 0

With --trace 0 the run measures the end-to-end metrics named in
BENCHMARK.json, plus the REPORTED ones: it sets the workload up nine times
(here and in eight fresh processes), then runs units of work until --seconds
have passed and at least the workload's minimum of units is done, checking
every output. With
--trace 1 it runs unit 0 plainly and then under the tracer, in rounds, until
--seconds have passed and at least two rounds are done, then completes the
workload's minimum of units plainly. It reports the per-layer metrics as
medians over the rounds; the spans and counts of the first round go to
perfbench/traces/ as JSON Lines. Either way a full record (machine, seed,
digest, failures) goes to perfbench/results/, and the last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics.

The library is imported from src/ of the checkout this file sits in; the
run fails with exit code 2 if it is not there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_SAMPLES = 9
TRACE_ROUNDS = 2  # at least this many plain/traced pairs of unit 0
# Printed and recorded with every untraced run but not listed in
# BENCHMARK.json: on the reference machine their run-to-run spread exceeds
# the largest bound allowed (see README.md).
REPORTED = {"items_per_s": "1/s", "op_p50_ms": "ms"}
# One thread per numeric library: the machine has 2 cores and the benchmark
# measures a single client.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: set up once, print the set-up time and exit.
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def machine_record() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu
            )
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "thread_env": {k: os.environ[k] for k in THREAD_ENV},
    }


def setup_probes(args, count: int) -> list[float]:
    """Set-up times of `count` fresh processes, run one after another."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    times = []
    for _ in range(count):
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        times.append(json.loads(out.stdout.splitlines()[-1])["setup_s"])
    return times


def measure(w, seconds: float, min_units: int, units=()):
    """Run units after `units` until `seconds` have passed and min_units are
    done."""
    units = list(units)
    start = time.perf_counter()
    while len(units) < min_units or time.perf_counter() - start < seconds:
        units.append(w.run_unit(len(units)))
        check(w, len(units) - 1, units[-1])
        if len(units) > 1:
            # Only unit 0's output is used later (the digest). Dropping the
            # rest keeps peak_rss_mib from growing with the number of units.
            units[-1].results = None
            units[-1].output = b""
    return units


def check(w, k: int, unit) -> None:
    """Check unit k's outputs; a check that raises counts as a failure."""
    try:
        w.check_unit(k, unit)
    except Exception:
        traceback.print_exc()
        unit.failures.append(f"checking unit {k} raised: {traceback.format_exc(limit=1).strip()}")


def trace_rounds(w, seconds: float):
    """Run unit 0 plainly, then under a fresh tracer, until `seconds` have
    passed and TRACE_ROUNDS pairs are done; [(plain, traced, tracer)]."""
    import tracing

    rounds = []
    start = time.perf_counter()
    while len(rounds) < TRACE_ROUNDS or time.perf_counter() - start < seconds:
        plain = w.run_unit(0)
        check(w, 0, plain)  # before the traced run reuses unit 0's files
        tracer = tracing.Tracer()
        with tracing.traced(tracer):
            traced = w.run_unit(0)
        check(w, 0, traced)  # outside the tracer, like every check
        rounds.append((plain, traced, tracer))
    return rounds


def per_layer(rounds) -> tuple[dict, list[str]]:
    """Each layer metric over the rounds, and the names of the counts that
    differ between rounds. Times and ratios are medians; counts must repeat
    exactly."""
    import tracing

    per_round = [tracing.layer_metrics(tracer) for _, _, tracer in rounds]
    values, differ = {}, []
    for name, first in per_round[0].items():
        seen = [r[name] for r in per_round]
        if isinstance(first, float):
            values[name] = statistics.median(seen)
        else:
            values[name] = first
            if any(v != first for v in seen):
                differ.append(name)
    values["trace.overhead_frac"] = statistics.median(
        traced.seconds / plain.seconds - 1.0 for plain, traced, _ in rounds
    )
    return values, differ


def end_to_end(units, setup_times) -> dict:
    latencies = [x for u in units for x in u.latencies]
    return {
        "setup_s": statistics.median(setup_times),
        "items_per_s": sum(u.items for u in units) / sum(u.seconds for u in units),
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_p90_ms": 1e3 * statistics.quantiles(latencies, n=10)[8],
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def main(argv=None) -> int:
    t0 = time.perf_counter()
    args = parse_args(argv)
    if not (ROOT / "src" / "mixdiff" / "__init__.py").is_file():
        print(f"error: no mixdiff sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(ROOT / "src"))
    import mixdiff
    import workloads

    if not Path(mixdiff.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: mixdiff imported from {mixdiff.__file__}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    make = workloads.WORKLOADS[args.workload]

    (BENCH / "work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BENCH / "work", prefix=args.workload + "-") as tmp:
        w = make(args.seed, Path(tmp))
        w.warm_up()
        setup_s = time.perf_counter() - t0
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        extra = {}
        if args.trace:
            rounds = trace_rounds(w, args.seconds)
            units = measure(w, 0.0, w.min_units, [rounds[0][0]])
            # Every other run of unit 0, plain or traced, must repeat its bytes.
            repeats = [u for plain, traced, _ in rounds for u in (plain, traced)][1:]
        else:
            units = measure(w, args.seconds, w.min_units)
            repeats = []
        failures = [f for u in units + repeats for f in u.failures] + w.check_run()
        failures += [
            f"repeat {i + 1} of unit 0 gave other output bytes"
            for i, u in enumerate(repeats)
            if u.output != units[0].output
        ]
        attempted = sum(u.attempted + 1 for u in repeats) + w.run_checks + sum(
            u.attempted for u in units
        )
        if args.trace:
            values, differ = per_layer(rounds)
            attempted += 1
            if differ:
                failures.append(f"counts differ between trace rounds: {', '.join(differ)}")
            metric_specs = spec["per_layer"]
            (BENCH / "traces").mkdir(exist_ok=True)
            trace_path = BENCH / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
            rounds[0][2].write_jsonl(
                trace_path, {"workload": args.workload, "seed": args.seed, "round": 0}
            )
            extra["trace_file"] = str(trace_path.relative_to(ROOT))
            extra["trace_rounds"] = len(rounds)
        else:
            values = end_to_end(units, [setup_s, *setup_probes(args, SETUP_SAMPLES - 1)])
            metric_specs = spec["end_to_end"]
            extra["latency_samples"] = sum(len(u.latencies) for u in units)
            extra["reported"] = {n: {"value": values[n], "unit": u} for n, u in REPORTED.items()}

    failed = len(failures)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metric_specs}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "item": make.item,
        "op": make.op,
        "units": len(units),
        "machine": machine_record(),
        "output_sha256": hashlib.sha256(units[0].output).hexdigest(),
        "error_rate": failed / attempted,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "checked": w.checked,
        "metrics": metrics,
        **extra,
    }
    (BENCH / "results").mkdir(exist_ok=True)
    result_path = BENCH / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=2) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  units {len(units)}")
    print(f"  item: {make.item}   op: {make.op}")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:<14.6g} {m['unit']}")
    for name, m in extra.get("reported", {}).items():
        alias = f", = {make.items_alias}" if name == "items_per_s" else ""
        print(f"  {name:34s} {m['value']:<14.6g} {m['unit']:6s} (not gated{alias})")
    print(f"  {'error_rate':34s} {failed / attempted:<14.6g} ratio ({failed} of {attempted})")
    if "latency_samples" in extra:
        print(f"  latency samples {extra['latency_samples']}")
    print(f"  output sha256 {record['output_sha256']}")
    for f in failures:
        print(f"  FAILED: {f}")
    print(f"  record: {result_path.relative_to(ROOT)}")
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
