"""Command-line harness: state construction, reduction, bound suites, sweeps.

Output contract:
  * every run embeds its resolved configuration (and tolerance set) in the
    output; wall-clock stamps are opt-in (--stamp) so that identical
    invocations stay byte-identical;
  * reports stream as JSON lines (--format json, default), CSV with
    `#`-prefixed metadata, or an aligned text table;
  * exit codes: 0 success / all bounds hold, 1 bound violation,
    2 usage or configuration error, 3 capacity guard, 4 numerical failure
    (a result failed its accuracy check) or any other crash, so that a crash
    never reads as a violated bound.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import math
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .config import TOL, Tolerances, tolerances_dict
from .corpus import CorpusEntry, build_corpus
from .entmeasures import (EfOptions, LN2, ef_optimize, elem_sym, elem_sym_det,
                          elem_sym_direct, extension_spec_from_tripartite,
                          mutual_info_bounds, nbody_elem_bound,
                          slater_extension_spec, slater_squashed_bound,
                          squashed_extension_value, subadd_remainder,
                          vn_entropy, yang_analytics)
from .errors import CapacityError, FermientError, NumericalError
from .fockbasis import RankedBasis, binom
from .hermlin import eig_herm, kron
from .rdmcore import (PHYSICS, UNIT, TensorDM, dumps_rdm,
                      embed_wedge_to_tensor, load_rdm, ptrace_rdm,
                      random_two_party_dm, reduce_mixed, rescale)
from .report import BoundReport, fmt17, json_value, report_json_line
from .statekit import (PureStateN, YangParams, chi_pair_vector,
                       convex_mixture, dumps_state, load_state,
                       random_pure_state, slater_state, yang_state)

_TEXT_NUM = ".12g"


# ---------------------------------------------------------------------------
# small helpers

def _parse_range(text: str) -> list[int]:
    """'3' -> [3]; '2..5' -> [2, 3, 4, 5]."""
    if ".." in text:
        lo_s, hi_s = text.split("..", 1)
        lo, hi = int(lo_s), int(hi_s)
        if hi < lo:
            raise argparse.ArgumentTypeError(f"empty range {text!r}")
        return list(range(lo, hi + 1))
    return [int(text)]


def _parse_occ(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x != ""]


def _resolve_tol(pairs: list[str] | None) -> Tolerances:
    if not pairs:
        return TOL
    overrides = {}
    kinds = {f.name: type(f.default) for f in dataclasses.fields(Tolerances)}
    for item in pairs:
        if "=" not in item:
            raise FermientError(f"--tol expects NAME=VALUE, got {item!r}")
        key, val = item.split("=", 1)
        if key not in kinds:
            raise FermientError(f"unknown tolerance {key!r}; valid: {sorted(kinds)}")
        try:
            value = kinds[key](val)
        except ValueError:
            raise FermientError(
                f"--tol {key} needs a {kinds[key].__name__}, got {val!r}") from None
        if not math.isfinite(value):
            raise FermientError(f"--tol {key} must be finite, got {val!r}")
        overrides[key] = value
    return dataclasses.replace(TOL, **overrides)


def _resolved_config(args: argparse.Namespace) -> dict:
    out = {}
    for key in sorted(vars(args)):
        if key in ("func",):
            continue
        val = getattr(args, key)
        if isinstance(val, (list, tuple)):
            val = list(val)
        out[key] = val
    return out


def _meta_obj(args, tol: Tolerances) -> dict:
    meta = {"tool": "fermient", "version": __version__,
            "config": _resolved_config(args), "tolerances": tolerances_dict(tol)}
    if getattr(args, "stamp", False):
        meta["generated"] = datetime.now(timezone.utc).isoformat()
    return meta


class _Sink:
    """Buffers output lines and flushes to --out or stdout at the end."""

    def __init__(self, out_path: str | None):
        self.out_path = out_path
        self.lines: list[str] = []

    def line(self, text: str) -> None:
        self.lines.append(text)

    def flush(self) -> None:
        body = "\n".join(self.lines) + ("\n" if self.lines else "")
        if self.out_path:
            with open(self.out_path, "w", encoding="ascii") as fh:
                fh.write(body)
        else:
            sys.stdout.write(body)


def _emit_reports(reports: list[BoundReport], args, tol: Tolerances) -> None:
    sink = _Sink(args.out)
    meta = _meta_obj(args, tol)
    if args.format == "json":
        sink.line(json_value({"meta": meta}))
        for r in reports:
            sink.line(report_json_line(r))
    elif args.format == "csv":
        for k, v in meta.items():
            if k == "tool":
                sink.line(f"# fermient {meta['version']}")
            elif k != "version":
                sink.line(f"# {k}: {json_value(v)}")
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["name", "lhs", "rhs", "slack", "holds", "context"])
        for r in reports:
            w.writerow([r.name, fmt17(r.lhs), fmt17(r.rhs), fmt17(r.slack),
                        str(r.holds).lower(), json_value(r.context)])
        sink.lines.extend(buf.getvalue().splitlines())
    else:
        sink.line(f"# fermient {meta['version']}")
        width = max((len(r.name) for r in reports), default=4)
        for r in reports:
            state = "HOLDS" if r.holds else "VIOLATED"
            sink.line(f"{r.name:<{width}}  lhs={r.lhs:{_TEXT_NUM}}  "
                      f"rhs={r.rhs:{_TEXT_NUM}}  slack={r.slack:{_TEXT_NUM}}  {state}")
    sink.flush()


def _emit_table(columns: list[str], rows: list[list], args, tol: Tolerances) -> None:
    sink = _Sink(args.out)
    meta = _meta_obj(args, tol)
    if args.format == "json":
        sink.line(json_value({"meta": meta}))
        for row in rows:
            sink.line(json_value(dict(zip(columns, row))))
    else:
        sink.line(f"# fermient {meta['version']}")
        for k, v in meta.items():
            if k not in ("tool", "version"):
                sink.line(f"# {k}: {json_value(v)}")
        sink.line("# columns: " + ",".join(columns))
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(columns)
        for row in rows:
            w.writerow([fmt17(v) if isinstance(v, float) else v for v in row])
        sink.lines.extend(buf.getvalue().splitlines())
    sink.flush()


def _sniff_load(path: str):
    with open(path, "r", encoding="ascii") as fh:
        for ln in fh:
            s = ln.strip()
            if s and not s.startswith("#"):
                head = s.split()[0]
                break
        else:
            raise FermientError(f"{path}: empty file")
    if head == "fermistate":
        return load_state(path)
    if head == "fermirdm":
        return load_rdm(path)
    raise FermientError(f"{path}: unknown header {head!r}")


def _file_body_with_meta(body: str, args, tol: Tolerances) -> str:
    meta = _meta_obj(args, tol)
    head = [f"# fermient {meta['version']}",
            f"# config: {json_value(meta['config'])}",
            f"# tolerances: {json_value(meta['tolerances'])}"]
    if "generated" in meta:
        head.append(f"# generated: {meta['generated']}")
    return "\n".join(head) + "\n" + body


# ---------------------------------------------------------------------------
# state / rdm / entropy / yang commands

def cmd_state(args) -> int:
    tol = _resolve_tol(args.tol)
    if args.kind == "slater":
        if args.M is None or args.occ is None:
            raise FermientError("state slater needs --M and --occ")
        occ = _parse_occ(args.occ)
        st = slater_state(RankedBasis(args.M, len(occ)), occ)
    elif args.kind == "yang":
        if args.m is None or args.n is None:
            raise FermientError("state yang needs --m and --n")
        st = yang_state(YangParams(args.m, args.n))
    elif args.kind == "chi":
        if args.m is None:
            raise FermientError("state chi needs --m")
        st = chi_pair_vector(args.m)
    else:
        if args.M is None or args.N is None:
            raise FermientError("state random needs --M and --N")
        st = random_pure_state(RankedBasis(args.M, args.N), seed=args.seed)
    body = _file_body_with_meta(dumps_state(st), args, tol)
    support = int(np.count_nonzero(st.amplitudes))
    summary = (f"fermistate M={st.basis.n_modes} N={st.basis.n_particles} "
               f"dim={st.basis.dim} support={support}")
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(body)
        print(summary)
    else:
        sys.stdout.write(body)
        print(summary, file=sys.stderr)
    return 0


def cmd_rdm(args) -> int:
    tol = _resolve_tol(args.tol)
    obj = _sniff_load(args.input)
    if isinstance(obj, PureStateN):
        r = reduce_mixed(obj, args.k)
    else:
        r = obj if obj.normalization == UNIT else rescale(obj, UNIT, tol)
        if args.k < r.k:
            r = ptrace_rdm(r, args.k)
        elif args.k != r.k:
            raise FermientError(f"cannot raise a {r.k}-RDM to k={args.k}")
    unit_spec = eig_herm(r.matrix, vectors=False, tol=tol)
    entropy = vn_entropy(unit_spec, tol)
    if args.norm == PHYSICS:
        r = rescale(r, PHYSICS, tol)
    body = _file_body_with_meta(dumps_rdm(r), args, tol)
    tr = float(np.trace(r.matrix).real)
    top = sorted((float(x) for x in eig_herm(r.matrix, vectors=False, tol=tol)
                  .eigenvalues), reverse=True)[:5]
    summary = (f"fermirdm M={r.basis.n_modes} k={r.k} norm={r.normalization} "
               f"trace={tr:{_TEXT_NUM}} entropy={entropy:{_TEXT_NUM}} "
               "top_eigenvalues=" + ",".join(format(x, _TEXT_NUM) for x in top))
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(body)
        print(summary)
    else:
        sys.stdout.write(body)
        print(summary, file=sys.stderr)
    return 0


def cmd_entropy(args) -> int:
    tol = _resolve_tol(args.tol)
    obj = _sniff_load(args.input)
    if isinstance(obj, PureStateN):
        if args.k is not None:
            r = reduce_mixed(obj, args.k)
            spec = eig_herm(r.matrix, vectors=False, tol=tol)
            kind = f"{args.k}-rdm"
        else:
            spec = None
            kind = "pure-state"
    else:
        r = obj if obj.normalization == UNIT else rescale(obj, UNIT, tol)
        if args.k is not None and args.k < r.k:
            r = ptrace_rdm(r, args.k)
        spec = eig_herm(r.matrix, vectors=False, tol=tol)
        kind = f"{r.k}-rdm"
    if spec is None:
        s, pur = 0.0, 1.0
    else:
        s = vn_entropy(spec, tol)
        pur = float(np.sum(spec.eigenvalues ** 2))
    unit = "nats"
    shown = s
    if args.bits:
        shown = s / LN2
        unit = "bits"
    rows = [[args.input, kind, shown, unit, pur]]
    _emit_table(["file", "kind", "entropy", "unit", "purity"], rows, args, tol)
    return 0


def cmd_yang(args) -> int:
    tol = _resolve_tol(args.tol)
    ana = yang_analytics(YangParams(args.m, args.n))
    scale = LN2 if args.bits else 1.0
    row = {
        "m": ana.m, "n": ana.n,
        "lam1": ana.lam1, "mult1": ana.mult1,
        "lam2": ana.lam2, "mult2": ana.mult2,
        "entropy": ana.entropy / scale,
        "pair_fraction": ana.pair_fraction,
        "ef_paper": ana.ef_paper / scale,
        "ef_alt": ana.ef_alt / scale,
        "esq_upper_candidate": ana.esq_bound_paper / scale,
        "unit": "bits" if args.bits else "nats",
    }
    if args.numeric:
        st = yang_state(YangParams(args.m, args.n))
        r2 = reduce_mixed(st, 2)
        lam = np.sort(eig_herm(r2.matrix, vectors=False, tol=tol).eigenvalues)[::-1]
        ana_full = ana.spectrum(dim=lam.size)
        row["spectrum_max_diff"] = float(np.max(np.abs(lam - ana_full)))
        row["entropy_numeric"] = vn_entropy(r2, tol) / scale
    _emit_table(list(row.keys()), [list(row.values())], args, tol)
    return 0


# ---------------------------------------------------------------------------
# verify suites

_CORPUS_CACHE: dict[tuple[int, int], list[CorpusEntry]] = {}


def _corpus(seed: int, n_random: int) -> list[CorpusEntry]:
    key = (seed, n_random)
    if key not in _CORPUS_CACHE:
        _CORPUS_CACHE[key] = build_corpus(seed=seed, n_random=n_random)
    return _CORPUS_CACHE[key]


def _filtered_entries(seed: int, n_random: int, m_filter: int | None,
                      n_filter: int | None, states: list[str]) -> list[CorpusEntry]:
    entries = list(_corpus(seed, n_random))
    for i, path in enumerate(states):
        st = load_state(path)
        entries.append(CorpusEntry(f"user-{i}-{path}", "user", st,
                                   {"M": st.basis.n_modes, "N": st.basis.n_particles}))
    if m_filter is not None:
        entries = [e for e in entries if e.meta.get("M") == m_filter]
    if n_filter is not None:
        entries = [e for e in entries if e.meta.get("N") == n_filter]
    return entries


def _suite_mutual(seed: int, n_random: int, m_filter, n_filter, states,
                  tol_pairs) -> list[BoundReport]:
    tol = _resolve_tol(tol_pairs)
    out = []
    for e in _filtered_entries(seed, n_random, m_filter, n_filter, states):
        if e.basis.n_particles < 2:
            continue
        for rep in mutual_info_bounds(e.state, tol):
            rep.context["state"] = e.name
            out.append(rep)
    return out


def _suite_subadd(seed: int, n_random: int, m_filter, n_filter, states,
                  tol_pairs) -> list[BoundReport]:
    tol = _resolve_tol(tol_pairs)
    out = []
    for e in _filtered_entries(seed, n_random, m_filter, n_filter, states):
        t = embed_wedge_to_tensor(e.rdm(2))
        rep = subadd_remainder(t, tol=tol)
        rep.context["state"] = e.name
        out.append(rep)
    # seeded random bipartite density matrices, local dims 2..4
    for i in range(n_random):
        d = 2 + (i % 3)
        rank = 1 + (i % (d * d))
        t = random_two_party_dm(d, rank, seed=seed * 1_000_000 + i)
        rep = subadd_remainder(t, tol=tol)
        rep.context["case"] = f"random-d{d}-r{rank}-{i}"
        out.append(rep)
    # product states: the equality case
    for d in (2, 3, 4):
        rng = np.random.Generator(np.random.Philox(
            np.random.SeedSequence(seed, spawn_key=(7, d))))
        g1 = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        g2 = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        r1 = g1 @ g1.conj().T
        r1 /= np.trace(r1).real
        r2 = g2 @ g2.conj().T
        r2 /= np.trace(r2).real
        t = TensorDM(parties=2, local_dim=d, matrix=kron(r1, r2),
                     source=f"product-d{d}")
        rep = subadd_remainder(t, tol=tol)
        rep.context["case"] = f"product-d{d}"
        rep.context["equality"] = bool(abs(rep.slack) <= 1e-10)
        out.append(rep)
    return out


def _suite_elem(seed: int, n_random: int, m_filter, n_filter, states,
                tol_pairs) -> list[BoundReport]:
    tol = _resolve_tol(tol_pairs)
    out = []
    for e in _filtered_entries(seed, n_random, m_filter, n_filter, states):
        rep = nbody_elem_bound(e.state, tol)
        rep.context["state"] = e.name
        out.append(rep)
    # route agreement on random spectra
    rng = np.random.Generator(np.random.Philox(
        np.random.SeedSequence(seed, spawn_key=(11,))))
    for i in range(50):
        dim = int(rng.integers(3, 13))
        n = int(rng.integers(2, dim + 1))
        lam = rng.random(dim)
        lam /= lam.sum()
        psums = [float(np.sum(lam ** j)) for j in range(2, n + 1)]
        e_rec = elem_sym(n, psums)
        e_det = elem_sym_det(n, psums)
        e_dir = elem_sym_direct(lam, n)
        worst = max(abs(e_rec - e_det), abs(e_rec - e_dir))
        rep = BoundReport(name="elem/routes", lhs=worst, rhs=1e-12,
                          slack=1e-12 - worst, holds=bool(worst <= 1e-12),
                          context={"dim": dim, "n": n, "case": i})
        out.append(rep)
    return out


def _suite_ef(seed: int, n_random: int, m_filter, n_filter, states,
              tol_pairs, restarts: int, max_iters: int,
              ensemble: str) -> list[BoundReport]:
    tol = _resolve_tol(tol_pairs)
    out = []
    opts = EfOptions(ensemble_size=ensemble, restarts=restarts,
                     seed=seed, max_iters=max_iters)
    for e in _filtered_entries(seed, n_random, m_filter, n_filter, states):
        t = embed_wedge_to_tensor(e.rdm(2))
        res = ef_optimize(t, opts, tol)
        rep = BoundReport(name="ef/floor", lhs=res.value, rhs=LN2,
                          slack=res.value - LN2,
                          holds=bool(res.value >= LN2 - 1e-4),
                          context={"state": e.name,
                                   "converged": res.converged,
                                   "restart": res.restart})
        out.append(rep)
    return out


def _suite_squash(seed: int, n_random: int, m_filter, n_filter, states,
                  tol_pairs) -> list[BoundReport]:
    tol = _resolve_tol(tol_pairs)
    out = []
    for N in (3, 4, 5, 6):
        closed = slater_squashed_bound(N)
        if N % 2 == 1:
            k = (N + 1) // 2
            ext = slater_extension_spec(N, k, tol=tol)
            val = squashed_extension_value(ext)
            diff = abs(val - closed)
            out.append(BoundReport(
                name="squash/odd-equality", lhs=diff, rhs=1e-10,
                slack=1e-10 - diff, holds=bool(diff <= 1e-10),
                context={"N": N, "k": k, "extension_value": val,
                         "closed_form": closed}))
        else:
            k = N // 2 + 1
            ext = slater_extension_spec(N, k, tol=tol)
            val = squashed_extension_value(ext)
            out.append(BoundReport(
                name="squash/upper-candidate", lhs=val, rhs=closed,
                slack=closed - val, holds=bool(val <= closed + tol.bound_slack),
                context={"N": N, "k": k, "closed_form": closed}))
    # nonnegativity on genuine tripartite states
    for i in range(max(4, min(n_random, 12))):
        d = 2 + (i % 2)
        rng = np.random.Generator(np.random.Philox(
            np.random.SeedSequence(seed, spawn_key=(13, i))))
        q = 1 + (i % 3)
        g = rng.standard_normal((d ** 3, q)) + 1j * rng.standard_normal((d ** 3, q))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        t = TensorDM(parties=3, local_dim=d, matrix=rho, source=f"tri-{i}")
        val = squashed_extension_value(extension_spec_from_tripartite(t, tol))
        out.append(BoundReport(
            name="squash/nonneg", lhs=val, rhs=0.0, slack=val,
            holds=bool(val >= -1e-9), context={"case": i, "d": d, "rank": q}))
    return out


def _suite_yang(seed: int, n_random: int, m_filter, n_filter, states,
                tol_pairs) -> list[BoundReport]:
    tol = _resolve_tol(tol_pairs)
    out = []
    for m in range(2, 6):
        for n in range(1, m + 1):
            ana = yang_analytics(YangParams(m, n))
            st = yang_state(YangParams(m, n))
            r2 = reduce_mixed(st, 2)
            lam = np.sort(eig_herm(r2.matrix, vectors=False, tol=tol)
                          .eigenvalues)[::-1]
            diff = float(np.max(np.abs(lam - ana.spectrum(dim=lam.size))))
            out.append(BoundReport(
                name="yang/spectrum-match", lhs=diff, rhs=1e-10,
                slack=1e-10 - diff, holds=bool(diff <= 1e-10),
                context={"m": m, "n": n}))
            ent_diff = abs(vn_entropy(r2, tol) - ana.entropy)
            out.append(BoundReport(
                name="yang/entropy-match", lhs=ent_diff, rhs=1e-10,
                slack=1e-10 - ent_diff, holds=bool(ent_diff <= 1e-10),
                context={"m": m, "n": n}))
            N = 2 * n
            r1 = reduce_mixed(st, 1)
            top1 = float(np.max(eig_herm(r1.matrix, vectors=False, tol=tol)
                                .eigenvalues))
            out.append(BoundReport(
                name="yang/occupation-bound", lhs=1.0 / N, rhs=top1,
                slack=1.0 / N - top1, holds=bool(top1 <= 1.0 / N + 1e-9),
                context={"m": m, "n": n, "N": N}))
            top2 = float(lam[0])
            rep = BoundReport(
                name="yang/pair-eigenvalue-bound", lhs=2.0 / (N - 1) if N > 1
                else math.inf, rhs=top2,
                slack=(2.0 / (N - 1) - top2) if N > 1 else math.inf,
                holds=bool(N <= 1 or top2 <= 2.0 / (N - 1) + 1e-9),
                context={"m": m, "n": n, "N": N})
            out.append(rep)
    return out


_SUITES = {
    "mutual": _suite_mutual,
    "subadd": _suite_subadd,
    "elem": _suite_elem,
    "ef": _suite_ef,
    "squash": _suite_squash,
    "yang": _suite_yang,
}


def _task_runner(spec):
    name, kwargs = spec
    return _SUITES[name](**kwargs)


def cmd_verify(args) -> int:
    tol = _resolve_tol(args.tol)
    suites = list(_SUITES) if args.suite == "all" else [args.suite]
    base = dict(seed=args.seed, n_random=args.random, m_filter=args.M,
                n_filter=args.N, states=args.states or [], tol_pairs=args.tol)
    specs = []
    for s in suites:
        kwargs = dict(base)
        if s == "ef":
            kwargs.update(restarts=args.restarts, max_iters=args.max_iters,
                          ensemble=args.ensemble)
        specs.append((s, kwargs))
    if args.jobs > 1:
        # imported here: the process pool's modules add ~2 MB to the resident
        # size of every serial run
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=args.jobs) as ex:
            results = list(ex.map(_task_runner, specs))
    else:
        results = [_task_runner(s) for s in specs]
    reports = [r for chunk in results for r in chunk]
    if not reports:
        picked = " ".join(f"--{name} {value}" for name, value
                          in (("M", args.M), ("N", args.N)) if value is not None)
        raise FermientError(f"verify {args.suite}: no state matches "
                            f"{picked or 'the selection'}; nothing was checked")
    _emit_reports(reports, args, tol)
    return 0 if all(r.holds for r in reports) else 1


# ---------------------------------------------------------------------------
# sweeps

def _sweep_s2(args, tol) -> tuple[list[str], list[list]]:
    rows = []
    for N in _parse_range(args.N or "2..6"):
        M = args.M if args.M else N
        st = slater_state(RankedBasis(M, N), range(N))
        s2 = vn_entropy(reduce_mixed(st, 2), tol)
        ana = math.log(binom(N, 2))
        rows.append([N, M, int(binom(M, 2)), s2, ana, abs(s2 - ana)])
    return ["N", "M", "dim2", "s2_numeric", "s2_analytic", "abs_diff"], rows


def _sweep_yang_spectrum(args, tol) -> tuple[list[str], list[list]]:
    rows = []
    for m in _parse_range(getattr(args, "m", None) or "2..5"):
        for n in range(1, m + 1):
            ana = yang_analytics(YangParams(m, n))
            st = yang_state(YangParams(m, n))
            lam = np.sort(eig_herm(reduce_mixed(st, 2).matrix, vectors=False,
                                   tol=tol).eigenvalues)[::-1]
            full = ana.spectrum(dim=lam.size)
            lam2_num = float(lam[1]) if lam.size > 1 else 0.0
            rows.append([m, n, ana.lam1, float(lam[0]), ana.lam2, lam2_num,
                         float(np.max(np.abs(lam - full)))])
    return ["m", "n", "lam1_analytic", "lam1_numeric", "lam2_analytic",
            "lam2_numeric", "max_spectrum_diff"], rows


def _sweep_ef(args, tol) -> tuple[list[str], list[list]]:
    b4 = RankedBasis(4, 2)
    b6 = RankedBasis(6, 2)
    cases = [
        ("slater-proj-M4", slater_state(b4, (0, 1))),
        ("mix2-M4", convex_mixture([0.5, 0.5], [slater_state(b4, (0, 1)),
                                                slater_state(b4, (2, 3))])),
        ("mix3-M6", convex_mixture([1 / 3, 1 / 3, 1 / 3],
                                   [slater_state(b6, (0, 1)),
                                    slater_state(b6, (2, 3)),
                                    slater_state(b6, (4, 5))])),
    ]
    rows = []
    for name, st in cases:
        t = embed_wedge_to_tensor(reduce_mixed(st, 2))
        opts = EfOptions(restarts=args.restarts, max_iters=args.max_iters,
                         seed=args.seed)
        res = ef_optimize(t, opts, tol)
        rows.append([name, st.basis.n_modes, res.value, LN2, res.value - LN2])
    return ["case", "M", "value", "floor", "excess"], rows


def _sweep_mutual_slack(args, tol) -> tuple[list[str], list[list]]:
    rows = []
    for M in _parse_range(args.M_range or "4..6"):
        for N in _parse_range(args.N or "2..4"):
            if N > M:
                continue
            cases = [("slater", slater_state(RankedBasis(M, N), range(N)))]
            if M % 2 == 0 and N % 2 == 0 and N <= M:
                cases.append(("yang", yang_state(YangParams(M // 2, N // 2))))
            for j in range(args.random):
                cases.append((f"random-{j}",
                              random_pure_state(RankedBasis(M, N),
                                                seed=args.seed * 9000 + j)))
            for label, st in cases:
                rep, _ = mutual_info_bounds(st, tol)
                rows.append([label, M, N, rep.context["S1"], rep.context["S12"],
                             rep.lhs, rep.rhs, rep.slack, str(rep.holds).lower()])
    return ["case", "M", "N", "S1", "S12", "lhs", "rhs", "slack", "holds"], rows


def cmd_sweep(args) -> int:
    tol = _resolve_tol(args.tol)
    if args.quantity == "s2":
        cols, rows = _sweep_s2(args, tol)
    elif args.quantity == "yang-spectrum":
        cols, rows = _sweep_yang_spectrum(args, tol)
    elif args.quantity == "ef":
        cols, rows = _sweep_ef(args, tol)
    else:
        cols, rows = _sweep_mutual_slack(args, tol)
    _emit_table(cols, rows, args, tol)
    return 0


# ---------------------------------------------------------------------------
# parser

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--tol", action="append", metavar="NAME=VALUE",
                   help="tolerance override, repeatable")
    p.add_argument("--format", choices=("json", "csv", "text"), default="json")
    p.add_argument("--out", "-o", default=None)
    p.add_argument("--stamp", action="store_true",
                   help="embed a wall-clock stamp (breaks byte-identity)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fermient",
        description="fermionic states, reduced density matrices, and "
                    "entanglement bound verification")
    ap.add_argument("--version", action="version",
                    version=f"fermient {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("state", help="construct a state and write a fermistate file")
    ps.add_argument("kind", choices=("slater", "yang", "chi", "random"))
    ps.add_argument("--M", type=int)
    ps.add_argument("--N", type=int)
    ps.add_argument("--occ", help="comma-separated occupied modes (slater)")
    ps.add_argument("--m", type=int, help="mode pairs (yang/chi)")
    ps.add_argument("--n", type=int, help="occupied pairs (yang)")
    _add_common(ps)
    ps.set_defaults(func=cmd_state)

    pr = sub.add_parser("rdm", help="reduce a state (or trace an RDM) to k particles")
    pr.add_argument("input")
    pr.add_argument("--k", type=int, required=True)
    pr.add_argument("--norm", choices=(UNIT, PHYSICS), default=UNIT)
    _add_common(pr)
    pr.set_defaults(func=cmd_rdm)

    pe = sub.add_parser("entropy", help="entropy and purity of a state or RDM file")
    pe.add_argument("input")
    pe.add_argument("--k", type=int, default=None,
                    help="reduce to k particles first")
    pe.add_argument("--bits", action="store_true",
                    help="display in bits instead of nats")
    _add_common(pe)
    pe.set_defaults(func=cmd_entropy)

    py = sub.add_parser("yang", help="closed-form pair-state analytics")
    py.add_argument("--m", type=int, required=True)
    py.add_argument("--n", type=int, required=True)
    py.add_argument("--numeric", action="store_true",
                    help="cross-check against the numeric 2-RDM")
    py.add_argument("--bits", action="store_true")
    _add_common(py)
    py.set_defaults(func=cmd_yang)

    pv = sub.add_parser("verify", help="run bound suites, one JSON line per report")
    pv.add_argument("suite", choices=("mutual", "subadd", "elem", "ef",
                                      "squash", "yang", "all"))
    pv.add_argument("--M", type=int, default=None, help="filter corpus by modes")
    pv.add_argument("--N", type=int, default=None, help="filter corpus by particles")
    pv.add_argument("--random", type=int, default=50,
                    help="number of seeded random corpus states")
    pv.add_argument("--states", nargs="*", default=[],
                    help="extra fermistate files to include")
    pv.add_argument("--restarts", type=int, default=2, help="ef restarts")
    pv.add_argument("--max-iters", type=int, default=4, help="ef sweeps per restart")
    pv.add_argument("--ensemble", choices=("rank", "square"), default="rank",
                    help="ef ensemble size rule")
    pv.add_argument("--jobs", type=int, default=1,
                    help="worker processes, one suite each")
    _add_common(pv)
    pv.set_defaults(func=cmd_verify)

    pw = sub.add_parser("sweep", help="CSV tables over parameter grids")
    pw.add_argument("quantity", choices=("s2", "ef", "mutual-slack",
                                         "yang-spectrum"))
    pw.add_argument("--N", default=None, help="range like 2..6")
    pw.add_argument("--M", type=int, default=None)
    pw.add_argument("--M-range", dest="M_range", default=None,
                    help="range like 4..6 (mutual-slack)")
    pw.add_argument("--m", default=None, help="range like 2..5 (yang-spectrum)")
    pw.add_argument("--random", type=int, default=5,
                    help="random states per grid point (mutual-slack)")
    pw.add_argument("--restarts", type=int, default=20)
    pw.add_argument("--max-iters", type=int, default=40)
    _add_common(pw)
    pw.set_defaults(func=cmd_sweep)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except CapacityError as exc:
        print(f"fermient: capacity: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"fermient: numerical failure: {exc}", file=sys.stderr)
        return 4
    except FermientError as exc:
        print(f"fermient: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"fermient: io error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"fermient: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
