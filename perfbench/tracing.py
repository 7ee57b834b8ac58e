"""Span tracing of fermient's layers, done from outside the package.

`Tracer.install` replaces each public layer function listed in LAYERS by a
timing wrapper at every module binding the package holds it under (for
example `hermlin.eig_herm`, `cli.eig_herm` and `entmeasures.eig_herm`), so
calls between layers are recorded without editing the package. Spans stay in
memory as tuples

    (span id, parent span id, operation id, "layer.function", t0, t1, note)

and are written out once the pass ends. The leaf functions in LEAVES run
hundreds of thousands of times in a table build, so their calls are summed
per (parent span, operation, function) instead of kept one by one. A span's
self time is its duration minus the time of its direct children.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import math
import statistics
from time import perf_counter

LAYERS = {
    "fockbasis": ("rank", "unrank", "merge_sign", "enumerate_supersets"),
    "hermlin": ("eig_herm", "sqrt_psd", "sqrt_from_spectrum", "kron",
                "trace_product"),
    "statekit": ("slater_state", "yang_state", "chi_pair_vector",
                 "random_pure_state", "convex_mixture", "dumps_state",
                 "loads_state", "save_state", "load_state"),
    "corpus": ("build_corpus",),
    "rdmcore": ("reduce_pure", "reduce_mixed", "ptrace_rdm", "rescale",
                "embed_wedge_to_tensor", "tensor_ptrace", "random_two_party_dm",
                "dumps_rdm", "loads_rdm", "save_rdm", "load_rdm"),
    "entmeasures": ("vn_entropy", "purity", "state_entropy",
                    "mutual_info_bounds", "subadd_remainder", "nbody_elem_bound",
                    "elem_sym", "elem_sym_det", "elem_sym_direct", "ef_optimize",
                    "squashed_extension_value", "extension_spec_from_tripartite",
                    "slater_extension_spec", "slater_squashed_bound",
                    "yang_analytics", "min_s2_search"),
    "cli": ("main",),
    "report": ("bound_report", "report_json_line", "json_value", "fmt17"),
}

LEAVES = {"fockbasis.rank", "fockbasis.unrank", "fockbasis.merge_sign"}

STATE_CONSTRUCT = {"statekit." + f for f in ("slater_state", "yang_state",
                                             "chi_pair_vector", "random_pure_state",
                                             "convex_mixture")}
STATE_IO = {"statekit." + f for f in ("dumps_state", "loads_state",
                                      "save_state", "load_state")}
RDM_IO = {"rdmcore." + f for f in ("dumps_rdm", "loads_rdm", "save_rdm", "load_rdm")}
SQRT = {"hermlin.sqrt_psd", "hermlin.sqrt_from_spectrum"}
EIG_BUCKETS = (("n1-16", 1, 16), ("n17-36", 17, 36), ("n37-100", 37, 100),
               ("n101-up", 101, math.inf))
OP_SPAN = "bench.op"


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.leaf_totals: dict[tuple, list] = {}   # (parent, op, name) -> [calls, s]
        self.ops: list[str] = []
        self.missing: list[str] = []
        self._stack = [0]
        self._next_id = 1
        self._restore: list[tuple] = []
        self._seen_reductions: set[tuple[int, int, int]] = set()
        self._notes = {
            "hermlin.eig_herm": self._note_eig,
            "rdmcore.reduce_pure": self._note_reduce,
            "entmeasures.ef_optimize": self._note_ef,
            "entmeasures.min_s2_search": self._note_mins2,
        }

    # -- notes attached to spans -------------------------------------------

    @staticmethod
    def _note_eig(args, kwargs, result):
        return int(_arg(args, kwargs, 0, "a").shape[0])

    def _note_reduce(self, args, kwargs, result):
        basis = _arg(args, kwargs, 0, "state").basis
        key = (basis.n_modes, basis.n_particles, _arg(args, kwargs, 1, "k"))
        cold = key not in self._seen_reductions
        self._seen_reductions.add(key)
        return cold

    @staticmethod
    def _note_ef(args, kwargs, result):
        return [result.sweeps, bool(result.converged)]

    @staticmethod
    def _note_mins2(args, kwargs, result):
        return result.evaluations

    # -- recording ------------------------------------------------------------

    def _open(self) -> tuple[int, int]:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1]
        self._stack.append(sid)
        return sid, parent

    def _wrap_leaf(self, name, fn):
        totals = self.leaf_totals
        stack = self._stack
        ops = self.ops

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                key = (stack[-1], len(ops) - 1, name)
                entry = totals.get(key)
                if entry is None:
                    totals[key] = [1, dt]
                else:
                    entry[0] += 1
                    entry[1] += dt

        return counted

    def _wrap(self, name, fn):
        if name in LEAVES:
            return self._wrap_leaf(name, fn)
        note = self._notes.get(name)
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent = self._open()
            result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter()
                self._stack.pop()
                info = None
                if note and result is not None:
                    info = note(args, kwargs, result)
                spans.append((sid, parent, len(self.ops) - 1, name, t0, t1, info))

        return traced

    def operation(self, name: str):
        """Context manager for one benchmark operation: the root of its spans."""
        tracer = self

        class _Op:
            def __enter__(self):
                tracer.ops.append(name)
                self.sid, self.parent = tracer._open()
                self.t0 = perf_counter()

            def __exit__(self, *exc):
                t1 = perf_counter()
                tracer._stack.pop()
                tracer.spans.append((self.sid, self.parent, len(tracer.ops) - 1,
                                     OP_SPAN, self.t0, t1, name))
                return False

        return _Op()

    def install(self, package) -> None:
        modules = {layer: importlib.import_module(f"{package.__name__}.{layer}")
                   for layer in LAYERS}
        bindings = [package, *modules.values()]
        for layer, names in LAYERS.items():
            for fname in names:
                fn = getattr(modules[layer], fname, None)
                if fn is None:
                    self.missing.append(f"{layer}.{fname}")
                    continue
                wrapped = self._wrap(f"{layer}.{fname}", fn)
                for mod in bindings:
                    for attr, val in list(vars(mod).items()):
                        if val is fn:
                            setattr(mod, attr, wrapped)
                            self._restore.append((mod, attr, fn))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._restore):
            setattr(mod, attr, fn)
        self._restore.clear()

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="ascii") as fh:
            fh.write(json.dumps({"ops": self.ops, "missing": self.missing,
                                 "fields": ["id", "parent", "op", "name",
                                            "t0", "t1", "note"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
            for (parent, op, name), (calls, total) in self.leaf_totals.items():
                fh.write(json.dumps({"parent": parent, "op": op, "name": name,
                                     "calls": calls, "total_s": total}) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics

def _tail(values_ms: list[float]) -> tuple[float, int]:
    """Highest whole percentile with at least 10 samples beyond it (p50 when
    there are fewer than 20 samples), returned as (value, percentile)."""
    n = len(values_ms)
    if n == 0:
        return 0.0, 0
    pct = int(100 * (n - 10) / n) if n >= 20 else 50
    ordered = sorted(values_ms)
    return ordered[min(n - 1, math.ceil(pct / 100 * n) - 1)], pct


def layer_metrics(tracer: Tracer, speeds: list[float]) -> dict[str, float]:
    """Per-layer totals of one traced pass, with every time at the probe's
    reference speed: a span of op i is scaled by `speeds[i + 1]`, so set-up
    spans (op -1) by `speeds[0]`."""
    spans = tracer.spans
    child = {}
    for sid, parent, _op, _name, t0, t1, _info in spans:
        child[parent] = child.get(parent, 0.0) + (t1 - t0)
    for (parent, _op, _name), (_calls, total) in tracer.leaf_totals.items():
        child[parent] = child.get(parent, 0.0) + total
    out: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    out.update({"fockbasis.calls": 0, "hermlin.eig_calls": 0, "hermlin.eig_s": 0.0,
                "hermlin.eig_dim_max": 0, "hermlin.sqrt_s": 0.0, "hermlin.kron_s": 0.0,
                "statekit.construct_s": 0.0, "statekit.io_s": 0.0,
                "corpus.build_s": 0.0, "rdmcore.reduce_calls": 0,
                "rdmcore.reduce_cold_s": 0.0, "rdmcore.reduce_warm_s": 0.0,
                "rdmcore.ptrace_s": 0.0, "rdmcore.embed_s": 0.0, "rdmcore.io_s": 0.0,
                "entmeasures.ef_calls": 0, "entmeasures.ef_s": 0.0,
                "entmeasures.ef_sweeps": 0, "entmeasures.mins2_s": 0.0,
                "entmeasures.bounds_s": 0.0, "report.serialize_s": 0.0,
                "trace.spans": len(spans) + len(tracer.leaf_totals)})
    out.update({f"hermlin.eig_s.{label}": 0.0 for label, _, _ in EIG_BUCKETS})
    for (_parent, op, name), (calls, total) in tracer.leaf_totals.items():
        out["fockbasis.calls"] += calls
        out[f"{name.split('.', 1)[0]}.self_s"] += total * speeds[op + 1]
    warm_ms, ef_ms = [], []
    mins2_evals = 0
    wall_s = 0.0
    for sid, _parent, op, name, t0, t1, info in spans:
        speed = speeds[op + 1]
        if name == OP_SPAN:
            wall_s += (t1 - t0) * speed
            continue
        dur = (t1 - t0) * speed
        own = dur - child.get(sid, 0.0) * speed
        layer = name.split(".", 1)[0]
        out[f"{layer}.self_s"] += own
        if layer == "fockbasis":
            out["fockbasis.calls"] += 1
        if name == "hermlin.eig_herm":
            out["hermlin.eig_calls"] += 1
            out["hermlin.eig_s"] += dur
            out["hermlin.eig_dim_max"] = max(out["hermlin.eig_dim_max"], info or 0)
            for label, lo, hi in EIG_BUCKETS:
                if info is not None and lo <= info <= hi:
                    out[f"hermlin.eig_s.{label}"] += dur
        elif name in SQRT:
            out["hermlin.sqrt_s"] += own
        elif name == "hermlin.kron":
            out["hermlin.kron_s"] += own
        elif name in STATE_CONSTRUCT:
            out["statekit.construct_s"] += own
        elif name in STATE_IO:
            out["statekit.io_s"] += own
        elif name == "corpus.build_corpus":
            out["corpus.build_s"] += dur
        elif name == "rdmcore.reduce_pure":
            out["rdmcore.reduce_calls"] += 1
            if info:
                out["rdmcore.reduce_cold_s"] += dur
            else:
                out["rdmcore.reduce_warm_s"] += dur
                warm_ms.append(1e3 * dur)
        elif name == "rdmcore.ptrace_rdm":
            out["rdmcore.ptrace_s"] += dur
        elif name == "rdmcore.embed_wedge_to_tensor":
            out["rdmcore.embed_s"] += dur
        elif name in RDM_IO:
            out["rdmcore.io_s"] += dur
        elif name == "entmeasures.ef_optimize":
            out["entmeasures.ef_calls"] += 1
            out["entmeasures.ef_s"] += dur
            ef_ms.append(1e3 * dur)
            if info is not None:
                out["entmeasures.ef_sweeps"] += info[0]
        elif name == "entmeasures.min_s2_search":
            out["entmeasures.mins2_s"] += dur
            mins2_evals += info or 0
        elif layer == "entmeasures":
            out["entmeasures.bounds_s"] += own
        elif layer == "report":
            out["report.serialize_s"] += own
    out["rdmcore.reduce_warm_ms_p50"] = statistics.median(warm_ms) if warm_ms else 0.0
    out["entmeasures.ef_ms_p50"] = statistics.median(ef_ms) if ef_ms else 0.0
    out["entmeasures.ef_ms_tail"], out["entmeasures.ef_tail_pct"] = _tail(ef_ms)
    out["entmeasures.mins2_us_per_eval"] = (
        1e6 * out["entmeasures.mins2_s"] / mins2_evals if mins2_evals else 0.0)
    if wall_s > 0:
        out["hermlin.eig_share"] = 100.0 * out["hermlin.eig_s"] / wall_s
        out["entmeasures.ef_share"] = 100.0 * out["entmeasures.ef_s"] / wall_s
        out["rdmcore.eig_cold_share"] = 100.0 * (out["hermlin.eig_s"] +
                                                 out["rdmcore.reduce_cold_s"]) / wall_s
    return out
