"""Steadiness check: run every workload with several seeds, one process per
run, and report per metric the median, the quartiles and the spread
(Q3 - Q1) / median, with `statistics.quantiles(values, n=4)`.

    python3 perfbench/steady.py --label A [--seeds 10] [--seconds 25]
        [--workloads w1,w2] [--compare B]

Run records go to perfbench/out/steady-LABEL.json; `--compare B` also
prints each median's change against the records of label B.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=600, cwd=HERE.parent,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["details"] = json.loads(proc.stderr.splitlines()[-1])
    return result


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=BENCH["run_seconds"])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in BENCH["workloads"]))
    parser.add_argument("--compare", default=None)
    args = parser.parse_args()
    if args.seeds < 2:
        parser.error("quartiles need at least two seeds")
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    old = None
    if args.compare:
        old = json.loads((out / f"steady-{args.compare}.json").read_text())
    records = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            runs.append(run_once(workload, seed, args.seconds))
            d = runs[-1]["details"]
            print(f"  {workload} seed {seed}: correct={runs[-1]['correct']} "
                  f"attempted={runs[-1]['attempted']} failed={runs[-1]['failed']} "
                  f"wall={d['wall_s']:.1f}s", flush=True)
        stats = {}
        for name in runs[0]["metrics"]:
            stats[name] = summary([r["metrics"][name]["value"] for r in runs])
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        records[workload] = {"runs": runs, "stats": stats, "failed_shares": shares}
        print(f"{workload}: failed shares {shares}, all correct: {all(r['correct'] for r in runs)}")
        for name, st in stats.items():
            line = (f"  {name:34s} median {st['median']:.6g}  q1 {st['q1']:.6g}  "
                    f"q3 {st['q3']:.6g}  spread {st['spread']:.3f}")
            if name in bounds:
                line += f"  (bound {bounds[name]})"
            if old and workload in old and name in old[workload]["stats"]:
                before = old[workload]["stats"][name]["median"]
                line += f"  vs {args.compare}: {(st['median'] - before) / before:+.3f}"
            print(line, flush=True)
    (out / f"steady-{args.label}.json").write_text(json.dumps(records, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
