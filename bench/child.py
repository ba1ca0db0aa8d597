"""One repetition of one workload, in a fresh interpreter.

    python3 bench/child.py WORKLOAD SEED TRACE T_SPAWN [TRACE_FILE]

T_SPAWN is the parent's `time.perf_counter()` just before it started this
process.  On Linux perf_counter reads CLOCK_MONOTONIC, which all processes
share, so `setup_s` covers interpreter start, importing bowforge and building
the inputs.  Every time is reported twice: as measured (`raw_*`) and divided
by the speed factor from `common.calibrate` next to it.  Prints one JSON
object on stdout.
"""

from __future__ import annotations

import importlib
import json
import resource
import sys
import traceback
from time import perf_counter

from common import NullTracer, Tracer, calibrate, speed_factors

MODULES = {
    "oracle-tables": "oracle_tables",
    "fixed-points": "fixed_points",
    "dictionary": "dictionary",
    "session": "session",
}


def main(argv) -> int:
    workload, seed, trace, t_spawn = argv[0], int(argv[1]), argv[2] == "1", float(argv[3])

    t0 = perf_counter()
    import bowforge  # noqa: F401  (the import itself is what is timed)

    import_s = perf_counter() - t0

    t0 = perf_counter()
    module = importlib.import_module(MODULES[workload])
    ops = module.build(seed)
    inputs_s = perf_counter() - t0
    setup_s = perf_counter() - t_spawn

    tr = Tracer() if trace else NullTracer()
    if trace and hasattr(module, "instrument"):
        module.instrument(tr)

    results, latencies, calibration = [], [], []
    for i, op in enumerate(ops):
        calibration.append(calibrate())
        tr.begin_op(i, op.label)
        start = perf_counter()
        try:
            results.append((True, op.run(tr)))
        except Exception:
            results.append((False, traceback.format_exc(limit=3)))
        latencies.append(perf_counter() - start)
        tr.end_op()
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    counts: dict = {}
    failures = []
    for op, (ok, result) in zip(ops, results):
        error = op.check(result, counts) if ok else result
        if error:
            failures.append(f"{op.label}: {error}")

    factors = speed_factors(calibration)
    out = {
        # set-up ran just before the first op, so it shares that op's factor
        "setup_s": setup_s / factors[0],
        "import_s": import_s / factors[0],
        "inputs_s": inputs_s / factors[0],
        "op_ms": [1000 * t / f for t, f in zip(latencies, factors)],
        "raw_setup_s": setup_s,
        "raw_op_ms": [1000 * t for t in latencies],
        "speed_factor": factors[len(factors) // 2],
        "peak_rss_mib": rss_mib,
        "attempted": len(ops),
        "failed": len(failures),
        "failures": failures[:5],
        "counts": counts,
    }
    if trace:
        out["busy"] = tr.busy(factors)
        if len(argv) > 4:
            tr.dump(argv[4])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
