"""Measure the baseline: every workload over several seeds, plus one traced run.

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline.json

For each workload it runs run.py once per seed with --trace 0, for the
end-to-end metrics, and once per seed with --trace 1, for the per-layer
metrics. It records each metric's median, quartiles and spread, where spread
is the distance between the quartiles as a share of the median. Every run
must report correct outputs, or the script exits 1 without writing the file.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from run import HERE, ROOT, WORKLOADS, load_spec


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    env = next(ln for ln in done.stdout.splitlines() if ln.startswith("# env "))
    result["env"] = json.loads(env[len("# env "):])
    print(f"{workload} seed={seed} trace={trace} correct={result['correct']} "
          + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                     if trace == 0), flush=True)
    return result


def _summary(values: list[float]) -> dict:
    """Median and quartiles; spread is their distance over |median|, or None
    for a metric that reads 0 (a layer the workload never reaches)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else None, "values": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10", help="inclusive range, like 1-10")
    ap.add_argument("--out", default=os.path.join(HERE, "baseline.json"))
    args = ap.parse_args(argv)
    lo, hi = (int(x) for x in args.seeds.split("-"))
    seeds = list(range(lo, hi + 1))
    spec = load_spec()
    seconds = spec["run_seconds"]
    record = {"run_seconds": seconds, "seeds": seeds, "workloads": {}}
    ok = True
    for workload in WORKLOADS:
        runs = [_run(workload, s, seconds, 0) for s in seeds]
        traced = [_run(workload, s, seconds, 1) for s in seeds]
        ok = ok and all(r["correct"] for r in runs + traced)
        record["env"] = runs[0]["env"]
        record["workloads"][workload] = {
            group: {m["name"]: _summary([r["metrics"][m["name"]]["value"]
                                         for r in group_runs])
                    for m in spec[group]}
            for group, group_runs in (("end_to_end", runs), ("per_layer", traced))
        }
    if not ok:
        print("baseline.py: some run reported incorrect outputs", file=sys.stderr)
        return 1
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    for workload, entry in record["workloads"].items():
        for name, s in entry["end_to_end"].items():
            print(f"{workload:14s} {name:12s} median {s['median']:.6g} "
                  f"spread {s['spread']:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
