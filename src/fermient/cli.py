"""Command-line harness: state construction, reduction, sweeps, and `verify`,
which runs the bound suites of `suites` listed in _SUITES.

One parser serves the process, and the parser of each command and leaf in it
is built the first time a command line selects it; `main` resolves --tol
once and hands the record to the command. Each call (`rdm`, `entropy`,
`yang`, and each state kind, verify suite and sweep quantity) is a parser of
its own that takes only the options its code reads, listed in _STATE_KINDS,
_VERIFY_SUITES and _SWEEP_QUANTITIES; every call takes --tol, --out and
--stamp, and --format where it writes a table (json, csv; `verify` also
text). The one exception is `verify yang`, which keeps --random and --seed
unread so that one command line runs every bound suite. An option a call does
not take exits 2 with that call's usage.

Output contract:
  * every run embeds its resolved configuration (and tolerance set) in the
    output; wall-clock stamps are opt-in (--stamp) so that identical
    invocations stay byte-identical;
  * tables and reports go through one emitter: JSON lines (--format json,
    default), or CSV under `#`-prefixed metadata; `verify` also writes an
    aligned text table;
  * exit codes: 0 success / all bounds hold, 1 bound violation,
    2 usage, configuration or input error (malformed ranges or mode lists,
    negative tolerances, --random counts or seeds, fewer than one E_f
    restart, sweep or --jobs worker, malformed or non-ASCII input files),
    3 capacity guard, 4 numerical failure (a result failed its accuracy
    check) or any other crash, so that a crash never reads as a violated
    bound.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import math
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__, suites
from .config import TOL, Tolerances
from .corpus import CorpusEntry
from .entmeasures import (EfOptions, LN2, ef_fermionic_excess, ef_optimize,
                          mutual_info_bounds, purity, vn_entropy, yang_analytics)
from .errors import CapacityError, FermientError, NumericalError
from .fockbasis import RankedBasis, binom
from .hermlin import Spectrum, eig_herm, support
from .rdmcore import (PHYSICS, UNIT, ReducedDM, dumps_rdm, embed_wedge_to_tensor,
                      loads_rdm, ptrace_rdm, reduce_mixed, reduce_pure,
                      rescale)
from .report import (REPORT_COLUMNS, fmt17, head, json_value, read_text,
                     report_row, write_text)
from .statekit import (YangParams, chi_pair_vector, convex_mixture, dumps_state,
                       load_state, loads_state, random_pure_state, slater_state,
                       yang_state)

_TEXT_NUM = ".12g"


# ---------------------------------------------------------------------------
# small helpers

def _parse_range(text: str) -> list[int]:
    """'3' -> [3]; '2..5' -> [2, 3, 4, 5]."""
    lo_s, dots, hi_s = text.partition("..")
    try:
        lo, hi = int(lo_s), int(hi_s if dots else lo_s)
    except ValueError:
        raise FermientError(f"expected N or LO..HI, got {text!r}") from None
    if hi < lo:
        raise FermientError(f"empty range {text!r}")
    return list(range(lo, hi + 1))


def _parse_occ(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x != ""]
    except ValueError:
        raise FermientError(f"--occ expects comma-separated modes, got {text!r}") from None


def _resolve_tol(pairs: list[str] | None) -> Tolerances:
    if not pairs:
        return TOL
    overrides = {}
    names = sorted(f.name for f in dataclasses.fields(Tolerances))
    for item in pairs:
        if "=" not in item:
            raise FermientError(f"--tol expects NAME=VALUE, got {item!r}")
        key, val = item.split("=", 1)
        if key not in names:
            raise FermientError(f"unknown tolerance {key!r}; valid: {names}")
        try:
            value = float(val)
        except ValueError:
            raise FermientError(f"--tol {key} needs a float, got {val!r}") from None
        if not math.isfinite(value):
            raise FermientError(f"--tol {key} must be finite, got {val!r}")
        if value < 0:
            raise FermientError(f"--tol {key} must not be negative, got {val!r}")
        overrides[key] = value
    return dataclasses.replace(TOL, **overrides)


def _meta_obj(args, tol: Tolerances) -> dict:
    config = {k: v for k, v in sorted(vars(args).items()) if k not in ("func", "parser")}
    meta = {"tool": "fermient", "version": __version__,
            "config": config, "tolerances": dataclasses.asdict(tol)}
    if args.stamp:
        meta["generated"] = datetime.now(timezone.utc).isoformat()
    return meta


def _header(meta: dict) -> list[str]:
    """`# fermient <version>`, then `# key: <json>` for the rest of meta."""
    return [f"# fermient {meta['version']}"] + [
        f"# {k}: {json_value(v)}" for k, v in meta.items() if k not in ("tool", "version")]


def _write(text: str, out_path: str | None) -> None:
    if out_path:
        write_text(out_path, text)
    else:
        sys.stdout.write(text)


def _csv_cell(v):
    """The one CSV cell rule: 17-digit floats; booleans, dicts and lists as JSON."""
    if isinstance(v, float):
        return fmt17(v)
    return json_value(v) if isinstance(v, (bool, dict, list)) else v


def _emit_table(columns, rows: list[list], args, tol: Tolerances) -> None:
    meta = _meta_obj(args, tol)
    if args.format == "json":
        lines = [json_value({"meta": meta})] + [
            json_value(dict(zip(columns, row))) for row in rows]
    elif args.format == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(
            [_csv_cell(v) for v in row] for row in [columns, *rows])
        lines = _header(meta) + [buf.getvalue().removesuffix("\n")]
    else:   # text, a `verify` format only: the rows are reports
        lines = _header(meta)[:1]   # text tables carry only the version line
        width = max((len(row[0]) for row in rows), default=4)
        for name, lhs, rhs, slack, holds, _ in rows:
            lines.append(f"{name:<{width}}  lhs={lhs:{_TEXT_NUM}}  rhs={rhs:{_TEXT_NUM}}  "
                         f"slack={slack:{_TEXT_NUM}}  {'HOLDS' if holds else 'VIOLATED'}")
    _write("\n".join(lines) + "\n", args.out)


def _emit_file(body: str, summary: str, args, tol: Tolerances) -> None:
    """A state or RDM file under the meta header goes to --out, its one-line
    summary to stdout; without --out the file goes to stdout, the summary to
    stderr."""
    _write("\n".join(_header(_meta_obj(args, tol))) + "\n" + body, args.out)
    print(summary, file=sys.stdout if args.out else sys.stderr)


# ---------------------------------------------------------------------------
# state / rdm / entropy / yang commands

def cmd_state(args, tol: Tolerances) -> int:
    needs = [f for f in _STATE_KINDS[args.kind] if "default" not in _STATE_OPTIONS[f]]
    if any(getattr(args, f[2:]) is None for f in needs):
        raise FermientError(f"state {args.kind} needs {' and '.join(needs)}")
    if args.kind == "slater":
        occ = _parse_occ(args.occ)
        st = slater_state(RankedBasis(args.M, len(occ)), occ)
    elif args.kind == "yang":
        st = yang_state(YangParams(args.m, args.n))
    elif args.kind == "chi":
        st = chi_pair_vector(args.m)
    else:
        st = random_pure_state(RankedBasis(args.M, args.N), seed=args.seed)
    nonzero = int(np.count_nonzero(st.amplitudes))
    _emit_file(dumps_state(st),
               f"fermistate M={st.basis.n_modes} N={st.basis.n_particles} "
               f"dim={st.basis.dim} support={nonzero}", args, tol)
    return 0


def _unit_rdm(path: str, k: int | None,
              tol: Tolerances) -> tuple[ReducedDM, Spectrum] | tuple[None, None]:
    """The unit-trace k-RDM of a state or RDM file (an RDM is traced down, never
    raised) and its eigenvalues; k = None keeps an RDM's own k and gives
    (None, None) for a pure state. An RDM file whose spectrum is materially
    negative is refused whatever k, since tracing it down can hide the
    negative eigenvalue; at the file's own k the spectrum of that check is
    the one returned, so the matrix is solved once."""
    text = read_text(path)
    header, _ = head(text)
    magic = header[0] if header else None
    if magic == "fermistate":
        st = loads_state(text)    # validated even when k is None
        if k is None:
            return None, None
        r = reduce_pure(st, k)
    elif magic != "fermirdm":
        raise FermientError(f"{path}: empty file" if header is None
                            else f"{path}: unknown header {magic!r}")
    else:
        r = loads_rdm(text)
        r = r if r.normalization == UNIT else rescale(r, UNIT, tol)
        spec = eig_herm(r.matrix, vectors=False, tol=tol)
        support(spec, tol)
        if k is None or k == r.k:
            return r, spec
        if k > r.k:
            raise FermientError(f"cannot raise a {r.k}-RDM to k={k}")
        r = ptrace_rdm(r, k)
    return r, eig_herm(r.matrix, vectors=False, tol=tol)


def cmd_rdm(args, tol: Tolerances) -> int:
    r, spec = _unit_rdm(args.input, args.k, tol)
    entropy = vn_entropy(spec, tol)
    scale = 1.0
    if args.norm == PHYSICS:
        r = rescale(r, PHYSICS, tol)
        scale = float(binom(r.n_particles, r.k))
    tr = float(np.trace(r.matrix).real)
    top = (spec.eigenvalues[:5] * scale).tolist()
    _emit_file(dumps_rdm(r),
               f"fermirdm M={r.basis.n_modes} k={r.k} norm={r.normalization} "
               f"trace={tr:{_TEXT_NUM}} entropy={entropy:{_TEXT_NUM}} "
               "top_eigenvalues=" + ",".join(format(x, _TEXT_NUM) for x in top),
               args, tol)
    return 0


def cmd_entropy(args, tol: Tolerances) -> int:
    r, spec = _unit_rdm(args.input, args.k, tol)
    if r is None:
        kind, s, pur = "pure-state", 0.0, 1.0
    else:
        kind, s, pur = f"{r.k}-rdm", vn_entropy(spec, tol), purity(spec)
    unit = "nats"
    shown = s
    if args.bits:
        shown = s / LN2
        unit = "bits"
    rows = [[args.input, kind, shown, unit, pur]]
    _emit_table(["file", "kind", "entropy", "unit", "purity"], rows, args, tol)
    return 0


def cmd_yang(args, tol: Tolerances) -> int:
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
        spec, row["spectrum_max_diff"] = suites.yang_spectrum(
            ana, yang_state(YangParams(args.m, args.n)), tol)
        row["entropy_numeric"] = vn_entropy(spec, tol) / scale
    _emit_table(list(row.keys()), [list(row.values())], args, tol)
    return 0


# ---------------------------------------------------------------------------
# verify

_SUITES = {
    "mutual": suites.mutual,
    "subadd": suites.subadd,
    "elem": suites.elem,
    "ef": suites.ef,
    "squash": suites.squash,
    "yang": suites.yang,
}


def _task_runner(spec):
    name, run = spec
    return _SUITES[name](run=run)


def cmd_verify(args, tol: Tolerances) -> int:
    """Run the called suite, or all of them, and emit every report. Each
    --states file is read once, here, before any suite runs or any worker
    pool is asked for; the loaded entries reach the workers in the run."""
    took = vars(args)       # a suite's call holds only the options it takes
    ef = EfOptions()        # read only by the suites that take --restarts
    if "restarts" in took:
        ef = EfOptions(ensemble_size=args.ensemble, restarts=args.restarts,
                       seed=args.seed)
    states = tuple(CorpusEntry(f"user-{i}-{path}", "user", load_state(path))
                   for i, path in enumerate(took.get("states", ())))
    run = suites.SuiteRun(seed=args.seed, n_random=args.random, M=took.get("M"),
                          N=took.get("N"), states=states, tol=tol, ef=ef)
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    specs = [(name, run) for name in names]
    workers = min(args.jobs, len(specs))    # a pool starts every worker it is given
    if workers > 1:
        # imported here: the process pool's modules add ~2 MB to the resident
        # size of every serial run
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as ex:
            results = list(ex.map(_task_runner, specs))
    else:
        results = [_task_runner(s) for s in specs]
    reports = [r for chunk in results for r in chunk]
    if not reports:
        picked = " ".join(f"--{name} {value}" for name, value
                          in (("M", run.M), ("N", run.N)) if value is not None)
        picked = picked or "the selection"
        if suites.entries(run):
            raise FermientError(
                f"verify {args.suite}: every state that matches {picked} was "
                "skipped, since the suite reads 2-RDMs (N >= 2); nothing was checked")
        raise FermientError(f"verify {args.suite}: no state matches {picked}; "
                            "nothing was checked")
    _emit_table(REPORT_COLUMNS, [report_row(r) for r in reports], args, tol)
    return 0 if all(r.holds for r in reports) else 1


# ---------------------------------------------------------------------------
# sweeps

def _sweep_s2(args, tol) -> tuple[list[str], list[list]]:
    rows = []
    for N in _parse_range(args.N):
        M = N if args.M is None else args.M
        st = slater_state(RankedBasis(M, N), range(N))
        s2 = vn_entropy(reduce_mixed(st, 2), tol)
        ana = math.log(binom(N, 2))
        rows.append([N, M, int(binom(M, 2)), s2, ana, abs(s2 - ana)])
    return ["N", "M", "dim2", "s2_numeric", "s2_analytic", "abs_diff"], rows


def _sweep_yang_spectrum(args, tol) -> tuple[list[str], list[list]]:
    rows = []
    for m in _parse_range(args.m):
        for n in range(1, m + 1):
            ana = yang_analytics(YangParams(m, n))
            spec, diff = suites.yang_spectrum(ana, yang_state(YangParams(m, n)), tol)
            lam = spec.eigenvalues
            lam2_num = float(lam[1]) if lam.size > 1 else 0.0
            rows.append([m, n, ana.lam1, float(lam[0]), ana.lam2, lam2_num, diff])
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
    opts = EfOptions(restarts=args.restarts, seed=args.seed)
    rows = []
    for name, st in cases:
        res = ef_optimize(embed_wedge_to_tensor(reduce_mixed(st, 2)), opts, tol)
        rows.append([name, st.basis.n_modes, res.value, LN2,
                     ef_fermionic_excess(res.value)])
    return ["case", "M", "value", "floor", "excess"], rows


def _sweep_mutual_slack(args, tol) -> tuple[list[str], list[list]]:
    rows = []
    for M in _parse_range(args.M_range):
        for N in _parse_range(args.N):
            if N > M:
                continue
            cases = [("slater", slater_state(RankedBasis(M, N), range(N)))]
            if M % 2 == 0 and N % 2 == 0:
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


def cmd_sweep(args, tol: Tolerances) -> int:
    columns, rows = _SWEEP_QUANTITIES[args.quantity][0](args, tol)
    _emit_table(columns, rows, args, tol)
    return 0


# ---------------------------------------------------------------------------
# parser: one leaf per command, state kind, verify suite and sweep quantity,
# each holding only the options its code reads

_STATE_OPTIONS = {
    "--M": {"type": int},
    "--N": {"type": int},
    "--occ": {"help": "comma-separated occupied modes"},
    "--m": {"type": int, "help": "mode pairs"},
    "--n": {"type": int, "help": "occupied pairs"},
    "--seed": {"type": int, "default": 1},
}
_STATE_KINDS = {
    "slater": ("--M", "--occ"),
    "yang": ("--m", "--n"),
    "chi": ("--m",),
    "random": ("--M", "--N", "--seed"),
}

_VERIFY_OPTIONS = {
    "--random": {"type": int, "default": 50,
                 "help": "number of seeded random corpus states"},
    "--seed": {"type": int, "default": 1},
    "--jobs": {"type": int, "default": 1, "help": "worker processes, one suite each"},
    "--M": {"type": int, "help": "filter corpus by modes"},
    "--N": {"type": int, "help": "filter corpus by particles"},
    "--states": {"nargs": "*", "default": (), "help": "extra fermistate files to include"},
    "--restarts": {"type": int, "default": 2, "help": "ef restarts"},
    "--ensemble": {"choices": ("rank", "square"), "default": "rank",
                   "help": "ef ensemble size rule"},
}
_ANY_SUITE = ("--random", "--seed", "--jobs")
_CORPUS = _ANY_SUITE + ("--M", "--N", "--states")
_EF = _CORPUS + ("--restarts", "--ensemble")
# `yang` reads neither --random nor --seed; it keeps both so that one command
# line (perfbench's verify-bounds workload) runs every bound suite
_VERIFY_SUITES = {
    "mutual": _CORPUS,
    "subadd": _CORPUS,
    "elem": _CORPUS,
    "ef": _EF,
    "squash": _ANY_SUITE,
    "yang": _ANY_SUITE,
    "all": _EF,
}

# each quantity's table and options, default ranges included
_SWEEP_QUANTITIES = {
    "s2": (_sweep_s2, {"--N": {"default": "2..6", "help": "range like 2..6"},
                       "--M": {"type": int}}),
    "ef": (_sweep_ef, {"--restarts": {"type": int, "default": EfOptions.restarts},
                       "--seed": {"type": int, "default": 1}}),
    "mutual-slack": (_sweep_mutual_slack, {
        "--N": {"default": "2..4", "help": "range like 2..6"},
        "--M-range": {"default": "4..6", "help": "range like 4..6"},
        "--random": {"type": int, "default": 5, "help": "random states per grid point"},
        "--seed": {"type": int, "default": 1}}),
    "yang-spectrum": (_sweep_yang_spectrum,
                      {"--m": {"default": "2..5", "help": "range like 2..5"}}),
}

_TABLE_FORMATS = ("json", "csv")


class _Deferred:
    """The parser argparse keeps for a subcommand (the subparsers'
    `parser_class`), made, and filled by `fill`, the first time a command
    line selects the subcommand, so a call builds only the parsers on its own
    path. argparse makes it with the keywords it would give the parser and
    asks it only to parse."""

    def __init__(self, fill, **kwargs):
        self._fill = fill
        self._kwargs = kwargs

    @functools.cached_property
    def _parser(self) -> argparse.ArgumentParser:
        p = argparse.ArgumentParser(**self._kwargs)
        self._fill(p)
        return p

    def parse_known_args(self, args=None, namespace=None):
        return self._parser.parse_known_args(args, namespace)


def _subcommands(p: argparse.ArgumentParser, dest: str):
    return p.add_subparsers(dest=dest, required=True, parser_class=_Deferred)


def _leaf(sub, name: str, func, options: dict, formats: tuple[str, ...] = (),
          **kw) -> None:
    """A call's parser: `options` (flag -> add_argument keywords), then --tol,
    --format where the call reads it, --out and --stamp. Flags must be spelled
    out: a prefix could name another option (`--M` of `--M-range`)."""
    def fill(p: argparse.ArgumentParser) -> None:
        for flag, spec in options.items():
            p.add_argument(flag, **spec)
        p.add_argument("--tol", action="append", metavar="NAME=VALUE",
                       help="tolerance override, repeatable")
        if formats:
            p.add_argument("--format", choices=formats, default="json")
        p.add_argument("--out", "-o", default=None)
        p.add_argument("--stamp", action="store_true",
                       help="embed a wall-clock stamp (breaks byte-identity)")
        p.set_defaults(func=func, parser=p)

    sub.add_parser(name, fill=fill, allow_abbrev=False, description=kw.get("help"), **kw)


def _group(sub, command: str, dest: str, func, leaves: dict,
           formats: tuple[str, ...] = (), **kw) -> None:
    """A command whose kind, suite or quantity is a leaf of its own; `leaves`
    maps each leaf to its options."""
    def fill(p: argparse.ArgumentParser) -> None:
        group = _subcommands(p, dest)
        for name, options in leaves.items():
            _leaf(group, name, func, options, formats)

    sub.add_parser(command, fill=fill, **kw)


def _pick(options: dict, leaves: dict) -> dict:
    """Each leaf's options from the flags it names."""
    return {name: {f: options[f] for f in flags} for name, flags in leaves.items()}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process. Commands and leaves are registered by
    name and help; each one's parser is built when a command line selects it."""
    ap = argparse.ArgumentParser(
        prog="fermient",
        description="fermionic states, reduced density matrices, and "
                    "entanglement bound verification")
    ap.add_argument("--version", action="version",
                    version=f"fermient {__version__}")
    sub = _subcommands(ap, "command")
    _group(sub, "state", "kind", cmd_state, _pick(_STATE_OPTIONS, _STATE_KINDS),
           help="construct a state and write a fermistate file")
    _leaf(sub, "rdm", cmd_rdm, {
        "input": {},
        "--k": {"type": int, "required": True},
        "--norm": {"choices": (UNIT, PHYSICS), "default": UNIT},
    }, help="reduce a state (or trace an RDM) to k particles")
    _leaf(sub, "entropy", cmd_entropy, {
        "input": {},
        "--k": {"type": int, "help": "reduce to k particles first"},
        "--bits": {"action": "store_true", "help": "display in bits instead of nats"},
    }, _TABLE_FORMATS, help="entropy and purity of a state or RDM file")
    _leaf(sub, "yang", cmd_yang, {
        "--m": {"type": int, "required": True},
        "--n": {"type": int, "required": True},
        "--numeric": {"action": "store_true",
                      "help": "cross-check against the numeric 2-RDM"},
        "--bits": {"action": "store_true"},
    }, _TABLE_FORMATS, help="closed-form pair-state analytics (ef_paper and "
                            "ef_alt are not the 2-RDM's E_f for n >= 2)")
    _group(sub, "verify", "suite", cmd_verify, _pick(_VERIFY_OPTIONS, _VERIFY_SUITES),
           ("json", "csv", "text"), help="run bound suites, one JSON line per report")
    _group(sub, "sweep", "quantity", cmd_sweep,
           {q: options for q, (_, options) in _SWEEP_QUANTITIES.items()},
           _TABLE_FORMATS, help="CSV tables over parameter grids")
    return ap


def main(argv=None) -> int:
    args, extra = build_parser().parse_known_args(argv)
    if extra:   # refused by the call's own parser, whose usage lists what it takes
        args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        for name, low in (("random", 0), ("seed", 0), ("jobs", 1)):   # least valid values
            if getattr(args, name, low) < low:
                raise FermientError(
                    f"--{name} must be at least {low}, got {getattr(args, name)}")
        return args.func(args, _resolve_tol(args.tol))
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
