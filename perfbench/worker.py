"""One pass of one workload in a fresh interpreter.

Started by run.py with the checkout's `src` on PYTHONPATH and BLAS pinned to
one thread. It imports fermient, makes the workload's inputs, prints `ready`
(run.py times set-up up to that line), runs every op once under the clock,
then checks the outputs and prints one JSON line with the pass's results.
A fixed probe task is timed before each op and after the last one, so that
run.py can tell how fast this CPU ran around each op. With --trace 1 the
layer functions are wrapped before the inputs are made, and the spans are
written to --spans.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import traceback
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# The probe's time (Probe below) on the machine that recorded baseline.json
# when that machine ran at full speed. Times are rescaled to this probe speed.
PROBE_REF_S = 0.012


def _blas() -> str:
    import numpy as np
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{deps.get('name')} {deps.get('version')}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


class Probe:
    """A fixed task that uses no fermient code: an interpreter loop, row
    rotations on a small complex matrix, and a batched LAPACK SVD, in about
    the mix of the workloads. Its time follows the CPU's speed of the moment,
    which on a shared machine changes by up to 2x for minutes at a time."""

    def __init__(self):
        import numpy as np
        self.np = np
        rng = np.random.default_rng(12345)
        self.mat = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        self.batch = (rng.standard_normal((480, 6, 6))
                      + 1j * rng.standard_normal((480, 6, 6)))

    def __call__(self) -> float:
        t0 = perf_counter()
        acc = 0
        for i in range(100_000):
            acc += (i * i) % 7
        a = self.mat.copy()
        for _ in range(4):
            for p in range(15):
                for q in range(p + 1, 16):
                    row = a[p, :].copy()
                    a[p, :] = 0.6 * row + 0.8 * a[q, :]
                    a[q, :] = -0.8 * row + 0.6 * a[q, :]
        self.np.linalg.svd(self.batch, compute_uv=False)
        return perf_counter() - t0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", default=None)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--cpu", type=int, default=None, help="pin to this CPU")
    args = ap.parse_args(argv)
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})

    import numpy as np
    import fermient
    src = os.path.join(ROOT, "src", "fermient")
    if os.path.dirname(os.path.abspath(fermient.__file__)) != src:
        print(f"fermient imported from {fermient.__file__}, not {src}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install(fermient)
    workdir = os.path.join("work", f"{args.workload}-s{args.seed}")
    ops = workloads.WORKLOADS[args.workload](args.seed, workdir)
    probe = Probe()
    probe()                                   # first call warms numpy's caches
    print("ready", flush=True)
    if args.setup_only:
        print(json.dumps({"probes": [probe()]}))
        return 0

    outputs, times, errors, probes = [], [], [], []
    for op in ops:
        probes.append(probe())
        t0 = perf_counter()
        try:
            if tracer:
                with tracer.operation(op.name):
                    out = op.call()
            else:
                out = op.call()
            err = None
        except Exception:
            out, err = None, traceback.format_exc(limit=3)
        times.append(perf_counter() - t0)
        outputs.append(out)
        errors.append(err)
    probes.append(probe())
    wall = sum(times)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.uninstall()

    stats: dict = {}
    results = []
    for op, out, err, dt in zip(ops, outputs, errors, times):
        if err is None and op.out_path and os.path.exists(op.out_path):
            with open(op.out_path, encoding="ascii") as fh:
                out.file_text = fh.read()
        if err:
            problems = [err]
        else:
            try:
                problems = op.check(out, stats)
            except Exception:
                problems = ["output check raised: " + traceback.format_exc(limit=2)]
        digest = hashlib.sha256(workloads.output_bytes(out)).hexdigest()
        results.append({"name": op.name, "s": dt, "problems": problems,
                        "digest": digest})
    stats = {k: v for k, v in stats.items() if isinstance(v, (int, float))}
    # factors that rescale a time to the probe's reference speed: [0] for
    # set-up, by the probe right after it; [i + 1] for op i, by the mean of
    # the probes just before and after that op
    speeds = [PROBE_REF_S / probes[0]] + [
        PROBE_REF_S / (0.5 * (probes[i] + probes[i + 1])) for i in range(len(ops))]
    record = {"wall_s": wall, "rss_mb": rss_mb, "ops": results,
              "probes": probes, "speeds": speeds, "stats": stats,
              "env": {"numpy": np.__version__, "blas": _blas(),
                      "fermient": fermient.__version__}}
    if tracer:
        record["layers"] = tracing.layer_metrics(tracer, speeds)
        record["missing"] = tracer.missing
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
