"""fermient benchmark: run one workload for a fixed time and report its metrics.

    python3 perfbench/run.py --workload verify-ef --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Each pass of a workload runs in a fresh single-threaded interpreter
(worker.py) on the fermient source in this checkout's `src`. Passes repeat,
closed loop, until the next one would end after --seconds (at least two run).
With --trace 0 the last line of stdout is a JSON object holding the
end-to-end metrics named in BENCHMARK.json; with --trace 1 it holds the
per-layer metrics, from traced passes that alternate with untraced ones.
Lines before it give the same metrics with units, the error rate, and the run
environment. A fuller record, with every pass, goes to
.perfbench/results/<workload>-s<seed>-t<trace>.json.

An operation fails if it raises, exits non-zero, fails its output check, or
produces bytes whose digest differs from the same operation in the first pass.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter

from worker import PROBE_REF_S

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("verify-ef", "verify-bounds", "reduce-large", "mins2-search")
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
LANES = sorted(os.sched_getaffinity(0))
MAX_LANES = 2            # concurrent passes, each pinned to its own CPU
MIN_PASSES = 2           # per run, and per lane when there is only one
SETUP_SAMPLES = 5        # set-up is sampled at least this often per run
RUN_LIMIT_S = 170.0      # workers still running this long into a run are killed


def _worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    for name in THREAD_ENV:
        env[name] = "1"
    return env


def _run_worker(workload: str, seed: int, trace: bool, cpu: int, extra: list[str],
                deadline: float) -> tuple[int, str, float | None]:
    """Run worker.py, killing it at `deadline`. Returns the exit code, the
    output after the `ready` line, and the set-up seconds up to that line."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(trace)), "--cpu", str(cpu), *extra]
    # each lane works in a directory of its own, under the same relative paths,
    # so concurrent passes write the same bytes without sharing files
    cwd = os.path.join(OUT, f"lane{cpu}")
    os.makedirs(cwd, exist_ok=True)
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=cwd, env=_worker_env(), stdout=subprocess.PIPE,
                            text=True)
    killer = threading.Timer(max(0.0, deadline - t0), proc.kill)
    killer.start()
    try:
        ready = proc.stdout.readline().strip() == "ready"
        setup = perf_counter() - t0 if ready else None
        out, _ = proc.communicate()
    finally:
        killer.cancel()
    return proc.returncode, out, setup


def run_pass(workload: str, seed: int, trace: bool, cpu: int, tag: str,
             deadline: float) -> dict:
    extra = []
    if trace:
        os.makedirs(os.path.join(OUT, "spans"), exist_ok=True)
        extra += ["--spans", os.path.join(OUT, "spans",
                                          f"{workload}-s{seed}-p{tag}.jsonl.gz")]
    t0 = perf_counter()
    code, out, setup = _run_worker(workload, seed, trace, cpu, extra, deadline)
    elapsed = perf_counter() - t0
    lines = out.strip().splitlines()
    try:
        record = json.loads(lines[-1]) if code == 0 and lines else None
    except json.JSONDecodeError:
        record = None
    if record is None:
        record = {"wall_s": elapsed - (setup or 0.0), "rss_mb": None, "ops": [],
                  "stats": {}, "crash": f"worker exited {code}"}
    record.update(setup_s=setup, traced=trace, cpu=cpu, elapsed_s=elapsed)
    return record


def scaled_ops(p: dict):
    """(name, seconds at the probe's reference speed) of each op of pass `p`."""
    for i, op in enumerate(p["ops"]):
        yield op["name"], op["s"] * p["speeds"][i + 1]


def ref_wall(passes: list[dict]) -> float:
    """Operation time at the probe's reference speed: the median of each op's
    rescaled time over `passes`, summed over a pass's operations."""
    scaled: dict[str, list[float]] = {}
    for p in passes:
        for name, s in scaled_ops(p):
            scaled.setdefault(name, []).append(s)
    return sum(statistics.median(v) for v in scaled.values())


def _lane(workload: str, seed: int, seconds: float, trace: bool, cpu: int,
          traced_first: bool, min_passes: int, t_start: float) -> list[dict]:
    """Passes on one CPU until the next would end after `seconds`; with
    tracing on, traced and untraced passes alternate."""
    passes = []
    while True:
        traced = trace and (len(passes) % 2 == 1) != traced_first
        t0 = perf_counter()
        passes.append(run_pass(workload, seed, traced, cpu, f"{cpu}-{len(passes)}",
                               t_start + RUN_LIMIT_S))
        elapsed, last = perf_counter() - t_start, perf_counter() - t0
        if len(passes) >= min_passes and elapsed + last > seconds:
            return passes
        if elapsed + last > RUN_LIMIT_S or "crash" in passes[-1]:
            return passes


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    lanes = LANES[:MAX_LANES]
    # a traced run needs an untraced and a traced pass; with two lanes the
    # second lane starts with the traced one
    min_passes = 1 if len(lanes) > 1 else MIN_PASSES
    t_start = perf_counter()
    with ThreadPoolExecutor(max_workers=len(lanes)) as pool:
        futures = [pool.submit(_lane, workload, seed, seconds, trace, cpu, i == 1,
                               min_passes, t_start) for i, cpu in enumerate(lanes)]
        passes = [p for f in futures for p in f.result()]
    # (set-up seconds, probe seconds right after set-up)
    setups = [(p["setup_s"], p["probes"][0]) for p in passes
              if not p["traced"] and "crash" not in p]
    while not trace and len(setups) < SETUP_SAMPLES:
        cpu = lanes[len(setups) % len(lanes)]
        code, out, sample = _run_worker(workload, seed, False, cpu, ["--setup-only"],
                                        t_start + RUN_LIMIT_S)
        if code != 0 or sample is None:
            break
        setups.append((sample, json.loads(out.strip().splitlines()[-1])["probes"][0]))

    attempted = failed = 0
    first = {op["name"]: op["digest"] for op in passes[0]["ops"]}
    problems = []
    for i, p in enumerate(passes):
        if "crash" in p:
            attempted += 1
            failed += 1
            problems.append(f"pass {i}: {p['crash']}")
        for op in p["ops"]:
            attempted += 1
            bad = list(op["problems"])
            if op["digest"] != first.get(op["name"]):
                bad.append("output differs from the first pass")
            if bad:
                failed += 1
                problems += [f"pass {i} {op['name']}: {b}" for b in bad]

    plain = [p for p in passes if not p["traced"] and "crash" not in p]
    rss = [p["rss_mb"] for p in plain]
    probes = [x for p in plain for x in p["probes"]] + [pr for _, pr in setups]
    metrics = {
        "ref_wall_s": ref_wall(plain),
        "setup_s": (statistics.median(t * PROBE_REF_S / pr for t, pr in setups)
                    if setups else 0.0),
        "peak_rss_mb": statistics.median(rss) if rss else 0.0,
        "error_rate": failed / attempted if attempted else 1.0,
        # as measured, before rescaling to the probe's reference speed
        "wall_s": statistics.median(p["wall_s"] for p in plain) if plain else 0.0,
        "setup_raw_s": statistics.median(t for t, _ in setups) if setups else 0.0,
        "probe_ms": 1e3 * statistics.median(probes) if probes else 0.0,
    }
    traced = [p for p in passes if p["traced"] and "layers" in p]
    if traced:
        layers = {}
        for p in traced:
            for source in (p["layers"], p["stats"]):
                for name, value in source.items():
                    layers.setdefault(name, []).append(value)
        metrics.update({name: statistics.median(v) for name, v in layers.items()})
        suite_s: dict[str, list[float]] = {}
        for p in traced:
            per_suite: dict[str, float] = {}
            for name, seconds in scaled_ops(p):
                if name.startswith("verify "):
                    suite = name.split()[1]
                    per_suite[suite] = per_suite.get(suite, 0.0) + seconds
            for suite, total in per_suite.items():
                suite_s.setdefault(suite, []).append(total)
        metrics.update({f"cli.suite_s.{s}": statistics.median(v)
                        for s, v in suite_s.items()})
        metrics["trace.overhead_s"] = ref_wall(traced) - metrics["ref_wall_s"]
    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "attempted": attempted, "failed": failed, "problems": problems,
            "metrics": metrics, "env": environment(passes), "passes": passes}


def _commit() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              capture_output=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment(passes: list[dict]) -> dict:
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "fermient", "*.py"))):
        with open(path, "rb") as fh:
            digest.update(os.path.basename(path).encode() + b"\0" + fh.read())
    worker_env = next((p["env"] for p in passes if "env" in p), {})
    return {"commit": _commit(), "src_sha256": digest.hexdigest()[:16],
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), **worker_env,
            "threads": {name: "1" for name in THREAD_ENV},
            "machine": platform.machine()}


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def report(result: dict, spec: dict, prefix: str = "") -> dict:
    """Print the human-readable lines; return the metrics for the JSON line."""
    group = "per_layer" if result["trace"] else "end_to_end"
    m = result["metrics"]
    w = result["workload"]
    print(f"# {w} seed={result['seed']} passes={len(result['passes'])} "
          f"attempted={result['attempted']} failed={result['failed']} "
          f"error_rate={m['error_rate']:.6g}")
    print(f"# as measured: wall_s={m['wall_s']:.6g} setup_s={m['setup_raw_s']:.6g} "
          f"probe_ms={m['probe_ms']:.6g} (reference {1e3 * PROBE_REF_S:g})")
    print(f"# env {json.dumps(result['env'], sort_keys=True)}")
    for problem in result["problems"][:20]:
        print(f"# FAIL {problem}")
    # a layer function that no longer exists would otherwise read as zero work
    missing = sorted({name for p in result["passes"] for name in p.get("missing", ())})
    if missing:
        print(f"# missing layer functions: {', '.join(missing)}")
    chosen = {}
    for entry in spec[group]:
        value = float(m.get(entry["name"], 0.0))
        chosen[prefix + entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"{w:14s} {entry['name']:32s} {value:16.6f} {entry['unit']}")
    return chosen


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "fermient", "__init__.py")):
        print(f"run.py: no fermient source under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    spec = load_spec()
    chosen_workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics, attempted, failed = {}, 0, 0
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    for w in chosen_workloads:
        result = run_workload(w, args.seed, args.seconds, bool(args.trace))
        path = os.path.join(OUT, "results", f"{w}-s{args.seed}-t{args.trace}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1)
        prefix = f"{w}." if args.workload == "all" else ""
        metrics.update(report(result, spec, prefix))
        attempted += result["attempted"]
        failed += result["failed"]
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
