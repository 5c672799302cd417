"""Benchmark of the macdyn package: one workload per process, closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: schur-ensemble, general-cli, exact-oracles, insertion-roundtrip
(see README.md).  The package is imported from `src/` next to this directory.
One client runs one op at a time until the ops have been busy for S seconds
of wall-clock time, in whole rounds; every output is checked.  Op latency
is the CPU time of the op's thread, so that host stalls of a shared machine
do not set the percentiles; `ops_per_s` is wall-clock.  The last line of
standard output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with `--trace 0`, the per-layer metrics
(per op) with `--trace 1`.  A JSON line of run details goes to standard
error; span dumps go to `perfbench/out/`.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import traceback
from array import array
from pathlib import Path
from time import perf_counter, thread_time

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5  # setup_s is the median of these


def _import_package():
    """Import macdyn from the sources beside the benchmark, never from an
    installed copy; returns the two import times in seconds."""
    if not (SRC / "macdyn" / "__init__.py").is_file():
        raise SystemExit(f"error: no package sources at {SRC / 'macdyn'}")
    sys.path.insert(0, str(SRC))
    start = perf_counter()
    import macdyn
    mid = perf_counter()
    import macdyn.cli  # noqa: F401
    end = perf_counter()
    if Path(macdyn.__file__).resolve().parent != (SRC / "macdyn").resolve():
        raise SystemExit(f"error: imported macdyn from {macdyn.__file__}")
    return mid - start, end - mid


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    wall = perf_counter()
    import_s, import_cli_s = _import_package()

    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    OUT.mkdir(exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, OUT)
    setup_times = []
    for _ in range(SETUP_REPEATS):
        gc.collect()  # the previous repetition's garbage is not this one's cost
        start = perf_counter()
        wl.setup()
        setup_times.append(perf_counter() - start)

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    gc.collect()
    latencies = array("d")  # 8 bytes an op, so peak RSS hardly grows with the op count
    busy = 0.0
    attempted = failed = 0
    errors = []
    while busy < args.seconds:
        for op in wl.round():
            op.prepare()
            attempted += 1
            cpu = thread_time()
            start = perf_counter()
            try:
                out = tracer.run_op(op.kind, op.run) if tracer else op.run()
            except Exception:  # an op that fails is counted, and the run goes on
                busy += perf_counter() - start
                failed += 1
                if len(errors) < 3:
                    errors.append(traceback.format_exc())
                continue
            busy += perf_counter() - start
            latencies.append(thread_time() - cpu)
            try:
                op.check(out)
            except Exception:  # output the checks cannot even read is wrong output
                wl.fail(traceback.format_exc())
    # read before the final checks and the percentile sort, which are the
    # benchmark's own work and would grow with the op count
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    try:
        wl.finish()
    except Exception:
        wl.fail(traceback.format_exc())

    if tracer:
        metrics = tracer.metrics(len(latencies), wl.output_bytes)
        units = {name: tracing.unit_of(name) for name in metrics}
        spans = OUT / f"spans-{args.workload}.jsonl"
        tracer.dump(spans)
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "ops_per_s": len(latencies) / busy,
            "op_p50_ms": statistics.median(latencies) * 1e3,
            "op_p99_ms": statistics.quantiles(latencies, n=100)[98] * 1e3,
            "peak_rss_mb": peak_rss_mb,
        }
        units = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_p99_ms": "ms",
                 "peak_rss_mb": "MB"}
        spans = None
    details = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "import_macdyn_s": import_s, "import_cli_s": import_cli_s,
        "setup_times_s": setup_times, "ops": len(latencies), "busy_s": busy,
        "mean_op_ms": busy / max(attempted, 1) * 1e3, "wall_s": perf_counter() - wall,
        "check_errors": wl.errors, "check_messages": wl.messages, "op_errors": errors,
        "spans": str(spans) if spans else None,
    }
    print(json.dumps(details), file=sys.stderr)
    print(json.dumps({
        "correct": wl.errors == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
