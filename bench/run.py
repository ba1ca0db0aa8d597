"""Run one workload of the bowforge benchmark, or all of them.

    python3 bench/run.py --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]

Each repetition runs the workload's whole op list in a fresh interpreter
(bench/child.py), one at a time, until about S seconds have passed (at least
MIN_REPS repetitions).  Each op's latency is its median over the
repetitions; `wall_s` sums them and the percentiles are taken over them.
Other figures are medians over repetitions.  With --trace 1 repetitions
alternate untraced and traced, and the per-layer metrics come from the
traced ones.  Metric names, units and workloads are read from
BENCHMARK.json.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Exit code 0 means the run
completed; a wrong answer shows as "correct": false.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
CHILD = os.path.join(BENCH_DIR, "child.py")
TRACE_DIR = os.path.join(ROOT, ".bench_trace")
MIN_REPS = 3
MIN_TRACED_REPS = 4
# a run must end within 180 s; no repetition starts that would end after this
TIME_LIMIT_S = 150.0
BUSY = ".busy_s"


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("BOWFORGE_DEPTH", None)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def repetition(workload: str, seed: int, traced: bool, timeout: float) -> dict:
    trace_file = os.path.join(TRACE_DIR, f"{workload}-seed{seed}.json")
    t_spawn = perf_counter()
    cmd = [sys.executable, "-s", CHILD, workload, str(seed), "1" if traced else "0", repr(t_spawn), trace_file]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload}: a repetition ran past {timeout:.0f} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{workload}: repetition exited {proc.returncode}\n{proc.stderr[-2000:]}")
    rep = json.loads(proc.stdout.strip().splitlines()[-1])
    rep["traced"] = traced
    return rep


def run_workload(spec: dict, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    start = perf_counter()
    need = MIN_TRACED_REPS if trace else MIN_REPS
    reps: list[dict] = []
    while True:
        elapsed = perf_counter() - start
        reps.append(repetition(workload, seed, trace and len(reps) % 2 == 1, TIME_LIMIT_S - elapsed))
        elapsed = perf_counter() - start
        per_rep = elapsed / len(reps)
        if len(reps) >= need and elapsed + per_rep > seconds:
            break
        if elapsed + 1.5 * per_rep > TIME_LIMIT_S:
            if len(reps) < need:
                raise BenchError(f"{workload}: {len(reps)} repetitions fill the time limit")
            break
    return summarize(spec, workload, reps, trace)


def median(reps, key) -> float:
    return statistics.median(r[key] for r in reps)


def op_medians(reps, key="op_ms") -> list[float]:
    """Each op's median latency over the repetitions, in ms."""
    return [statistics.median(ts) for ts in zip(*(r[key] for r in reps))]


def summarize(spec: dict, workload: str, reps: list[dict], trace: bool) -> dict:
    counts = reps[0]["counts"]
    consistent = all(r["counts"] == counts for r in reps)
    failed = sum(r["failed"] for r in reps)
    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    metrics = {}
    if not trace:
        op_ms = op_medians(plain)
        cuts = statistics.quantiles(op_ms, n=10, method="inclusive")
        values = {
            "wall_s": sum(op_ms) / 1000,
            "op_p50_ms": statistics.median(op_ms),
            "op_p90_ms": cuts[8],
            "setup_s": median(plain, "setup_s"),
            "peak_rss_mib": median(plain, "peak_rss_mib"),
        }
        for m in spec["end_to_end"]:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    else:
        for m in spec["per_layer"]:
            name = m["name"]
            if name == "setup.import_s":
                value = median(reps, "import_s")
            elif name == "setup.inputs_s":
                value = median(reps, "inputs_s")
            elif name == "trace.overhead_s":
                value = (sum(op_medians(traced)) - sum(op_medians(plain))) / 1000
            elif name.endswith(BUSY):
                value = statistics.median(r["busy"].get(name[: -len(BUSY)], 0.0) for r in traced)
            else:
                value = counts.get(name, 0)
            metrics[name] = {"value": value, "unit": m["unit"]}
    report = {
        "correct": failed == 0 and consistent,
        "attempted": sum(r["attempted"] for r in reps),
        "failed": failed,
        "metrics": metrics,
    }
    lines = [f"{workload}: {len(reps)} repetitions of {reps[0]['attempted']} ops, seed fixed per run"]
    for name, m in metrics.items():
        lines.append(f"  {name:<40} {m['value']:>14.6g} {m['unit']}")
    lines.append(f"  {'failed_ratio':<40} {failed / report['attempted']:>14.6g} ratio")
    lines.append(f"  {'unadjusted wall_s':<40} {sum(op_medians(plain, 'raw_op_ms')) / 1000:>14.6g} s")
    lines.append(f"  {'unadjusted setup_s':<40} {median(plain, 'raw_setup_s'):>14.6g} s")
    lines.append(f"  {'speed factor':<40} {median(reps, 'speed_factor'):>14.6g} x")
    for name in sorted(counts):
        lines.append(f"  {'count ' + name:<40} {counts[name]:>14} count")
    if not consistent:
        lines.append("  BENCHMARK DEFECT: work counts differ between repetitions of one seed")
    for r in reps:
        lines += [f"  FAILED {msg}" for msg in r["failures"]]
    report["lines"] = lines
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path) or not os.path.isdir(os.path.join(ROOT, "src", "bowforge")):
        print(f"bench: no BENCHMARK.json or src/bowforge under {ROOT}", file=sys.stderr)
        return 2
    with open(spec_path, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names + ["all"]:
        print(f"bench: unknown workload {args.workload!r}; choose from {names} or all", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    try:
        if args.workload != "all":
            report = run_workload(spec, args.workload, args.seed, seconds, bool(args.trace))
            print("\n".join(report.pop("lines")))
            print(json.dumps(report))
            return 0
        reports = {w: run_workload(spec, w, args.seed, seconds, bool(args.trace)) for w in names}
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    for report in reports.values():
        print("\n".join(report.pop("lines")))
    print(
        json.dumps(
            {
                "correct": all(r["correct"] for r in reports.values()),
                "attempted": sum(r["attempted"] for r in reports.values()),
                "failed": sum(r["failed"] for r in reports.values()),
                "metrics": {f"{w}/{k}": v for w, r in reports.items() for k, v in r["metrics"].items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
