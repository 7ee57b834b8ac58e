"""Workload definitions: inputs made from the seed, timed operations, checks.

A workload's `prepare(seed, workdir)` makes the inputs and returns its list of
`Op`s. Each op's `call` is the timed part: one `fermient` CLI call through
`cli.main` in this interpreter, or one library call. Its `check` runs after
all ops have been timed, returns the problems it found (an empty list means
the output is correct), and adds output-derived numbers to `stats`.

The op list and every size below are part of the benchmark's definition:
changing them changes what the recorded baseline means.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import fermient
import fermient.cli
import fermient.entmeasures

LN2 = math.log(2.0)
EF_FLOOR_GRACE = 1e-4          # the ef suite's own holds-threshold
# Mean E_f excess over ln 2 may not exceed this: 0.201-0.241 over seeds 1-3 and
# 11-20 on the commit that added the benchmark. It keeps a faster optimizer
# from buying speed with looser upper bounds.
EF_EXCESS_CEILING = 0.26
PAIR_ENTROPY_TOL = 1e-10
TRACE_RTOL = 1e-9

# verify-bounds: corpus size, several times the CLI default of 50
BOUNDS_RANDOM = 150
BOUND_SUITES = ("mutual", "subadd", "elem", "squash", "yang")
# verify-ef: one random state per corpus shape on top of the 17 named states,
# run as one call per (M, N) filter so each timed call stays short; the parts
# give (--M, --N or None, reports expected), 25 reports in all
EF_RANDOM = 8
EF_PARTS = ((2, None, 1), (4, None, 6), (5, None, 6), (6, 2, 4), (6, 3, 3),
            (6, 4, 4), (6, 6, 1))
# reduce-large: random states (M, N) plus the paired state with m pairs, n occupied
LARGE_RANDOM_SHAPES = ((12, 6), (13, 6), (14, 7))
LARGE_PAIR = (7, 3)
# mins2-search: the shapes and restarts of the tests' minimum-entropy search,
# the restarts split into calls with seeds of their own
MINS2_SHAPES = ((5, 3), (6, 4))
MINS2_RESTARTS = 50
MINS2_PARTS = 5
MINS2_GAP_LIMIT = 1e-6         # best found may not exceed the determinant by more


def expected_reports(suite: str, n_random: int) -> int:
    """Report count of `fermient verify <suite> --random n_random`."""
    entries = 17 + n_random                       # named corpus states + randoms
    return {"mutual": 2 * entries,
            "subadd": entries + n_random + 3,
            "elem": entries + 50,
            "squash": 4 + max(4, min(n_random, 12)),
            "yang": 56}[suite]


@dataclass
class Op:
    name: str
    call: Callable[[], object]
    check: Callable[[object, dict], list[str]]
    out_path: str | None = None       # file the op writes, part of its output


@dataclass
class CliOutput:
    code: int
    stdout: str
    stderr: str
    file_text: str = ""


def _cli_call(argv: list[str]) -> Callable[[], CliOutput]:
    def call() -> CliOutput:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = fermient.cli.main(argv)
            except SystemExit as exc:          # argparse usage errors
                code = exc.code if isinstance(exc.code, int) else 2
        return CliOutput(code, out.getvalue(), err.getvalue())
    return call


def output_bytes(out) -> bytes:
    """The bytes an op produced, for the determinism digest."""
    if isinstance(out, CliOutput):
        return (f"exit {out.code}\n{out.stdout}\0{out.file_text}").encode()
    return repr(out).encode()


# ---------------------------------------------------------------------------
# verify suites

def _check_verify(suite: str, want: int, last_ef: bool = False):
    """Check one verify call that should emit `want` reports; the last ef call
    also checks the mean E_f excess over every ef call of the pass."""
    def check(out: CliOutput, stats: dict) -> list[str]:
        problems = []
        if out.code != 0:
            problems.append(f"verify {suite} exited {out.code}: "
                            f"{out.stderr.strip()[:200]}")
        lines = out.stdout.splitlines()
        if not lines or "meta" not in json.loads(lines[0]):
            return problems + [f"verify {suite}: no meta header"]
        reports = [json.loads(ln) for ln in lines[1:]]
        if len(reports) != want:
            problems.append(f"verify {suite}: {len(reports)} reports, expected {want}")
        failing = [r["name"] for r in reports if r["holds"] is not True]
        if failing:
            problems.append(f"verify {suite}: {len(failing)} reports do not hold")
        slacks = [float(r["slack"]) for r in reports]
        count_key, slack_key = f"cli.reports.{suite}", f"cli.min_slack.{suite}"
        stats[count_key] = stats.get(count_key, 0) + len(reports)
        stats[slack_key] = min(slacks + [stats.get(slack_key, math.inf)])
        if suite == "ef":
            values = [float(r["lhs"]) for r in reports if r["name"] == "ef/floor"]
            low = [v for v in values if not v >= LN2 - EF_FLOOR_GRACE]
            if low:
                problems.append(f"{len(low)} ef/floor values below ln 2 - "
                                f"{EF_FLOOR_GRACE}")
            unconverged = sum(1 for r in reports
                              if r["context"].get("converged") is False)
            stats["entmeasures.ef_unconverged"] = (
                stats.get("entmeasures.ef_unconverged", 0) + unconverged)
            excess = stats.setdefault("ef_excess", [])
            excess += [v - LN2 for v in values]
            if last_ef:
                mean = sum(excess) / len(excess) if excess else 0.0
                if not mean <= EF_EXCESS_CEILING:
                    problems.append(f"mean ef excess {mean:.6f} above "
                                    f"{EF_EXCESS_CEILING}")
                stats["entmeasures.ef_excess_mean"] = mean
        return problems
    return check


def _verify_op(suite: str, n_random: int, seed: int, filters=(), want=None,
               last_ef=False) -> Op:
    argv = ["verify", suite, "--random", str(n_random), "--seed", str(seed),
            "--jobs", "1", *filters]
    name = " ".join([f"verify {suite}", *filters])
    want = expected_reports(suite, n_random) if want is None else want
    return Op(name, _cli_call(argv), _check_verify(suite, want, last_ef))


def prepare_verify_ef(seed: int, workdir: str) -> list[Op]:
    ops = []
    for i, (M, N, want) in enumerate(EF_PARTS):
        filters = ["--M", str(M)] + (["--N", str(N)] if N else [])
        ops.append(_verify_op("ef", EF_RANDOM, seed, filters, want,
                              last_ef=i == len(EF_PARTS) - 1))
    return ops


def prepare_verify_bounds(seed: int, workdir: str) -> list[Op]:
    return [_verify_op(s, BOUNDS_RANDOM, seed) for s in BOUND_SUITES]


# ---------------------------------------------------------------------------
# reductions of large states read from fermistate files

def _rdm_trace(text: str) -> tuple[str, int, float]:
    """(normalization tag, k, trace) of fermirdm text, parsed independently."""
    rows = [ln.split() for ln in text.splitlines()
            if ln.strip() and not ln.lstrip().startswith("#")]
    _, _, k, tag = rows[0]
    trace = sum(float(row[2 * i]) for i, row in enumerate(rows[1:]))
    return tag, int(k), trace


def _check_entropy(pair: bool):
    def check(out: CliOutput, stats: dict) -> list[str]:
        if out.code != 0:
            return [f"entropy exited {out.code}: {out.stderr.strip()[:200]}"]
        row = json.loads(out.stdout.splitlines()[1])
        value = float(row["entropy"])
        problems = []
        if not (math.isfinite(value) and value >= 0.0):
            problems.append(f"entropy {value!r} is not a finite nonnegative number")
        if pair:
            want = fermient.yang_analytics(fermient.YangParams(*LARGE_PAIR)).entropy
            if not abs(value - want) <= PAIR_ENTROPY_TOL:
                problems.append(f"paired-state 2-RDM entropy {value!r} != {want!r}")
        return problems
    return check


def _check_rdm(n_particles: int, k: int):
    def check(out: CliOutput, stats: dict) -> list[str]:
        if out.code != 0:
            return [f"rdm exited {out.code}: {out.stderr.strip()[:200]}"]
        tag, k_file, trace = _rdm_trace(out.file_text)
        want = 1.0 if tag == "unit" else float(math.comb(n_particles, k))
        if k_file != k or not abs(trace - want) <= TRACE_RTOL * want:
            return [f"rdm k={k_file} {tag} trace {trace!r}, expected {want!r}"]
        return []
    return check


def prepare_reduce_large(seed: int, workdir: str) -> list[Op]:
    os.makedirs(workdir, exist_ok=True)
    states = []
    for i, (M, N) in enumerate(LARGE_RANDOM_SHAPES):
        st = fermient.random_pure_state(fermient.RankedBasis(M, N),
                                        seed=seed * 100 + i)
        states.append((f"random-M{M}-N{N}", st, False))
    states.append((f"pair-m{LARGE_PAIR[0]}-n{LARGE_PAIR[1]}",
                   fermient.yang_state(fermient.YangParams(*LARGE_PAIR)), True))
    ops = []
    for label, st, pair in states:
        path = os.path.join(workdir, f"{label}.fermistate")
        with open(path, "w", encoding="ascii") as fh:
            fh.write(fermient.dumps_state(st))
        N = st.basis.n_particles
        rdm_path = os.path.join(workdir, f"{label}.k2.fermirdm")
        if os.path.exists(rdm_path):
            os.remove(rdm_path)          # the op must write it afresh
        ops += [
            Op(f"entropy k1 {label}", _cli_call(["entropy", path, "--k", "1"]),
               _check_entropy(False)),
            Op(f"entropy k2 {label}", _cli_call(["entropy", path, "--k", "2"]),
               _check_entropy(pair)),
            Op(f"rdm k2 physics {label}",
               _cli_call(["rdm", path, "--k", "2", "--norm", "physics",
                          "--out", rdm_path]),
               _check_rdm(N, 2), out_path=rdm_path),
        ]
    return ops


# ---------------------------------------------------------------------------
# minimum 2-RDM entropy search (library calls)

@dataclass
class MinS2Output:
    best_entropy: float
    reference: float
    evaluations: int
    amplitudes: bytes

    def __repr__(self):
        return (f"MinS2Output({self.best_entropy.hex()}, {self.reference.hex()}, "
                f"{self.evaluations}, {self.amplitudes.hex()})")


def _mins2_call(M: int, N: int, seed: int):
    def call() -> MinS2Output:
        opts = fermient.MinS2Options(restarts=MINS2_RESTARTS // MINS2_PARTS, seed=seed)
        res = fermient.entmeasures.min_s2_search(M, N, opts)
        return MinS2Output(float(res.best_entropy), float(res.slater_reference),
                           int(res.evaluations), res.best_state.amplitudes.tobytes())
    return call


def _check_mins2(out: MinS2Output, stats: dict) -> list[str]:
    problems = []
    if not (math.isfinite(out.best_entropy) and math.isfinite(out.reference)):
        problems.append("min-S2 search returned a non-finite entropy")
    if out.evaluations <= 0:
        problems.append("min-S2 search made no evaluations")
    gap = out.best_entropy - out.reference
    if not gap <= MINS2_GAP_LIMIT:
        problems.append(f"min-S2 search stopped {gap:.3e} above the determinant")
    gap_max = max(stats.get("entmeasures.mins2_gap_max", -math.inf), gap)
    stats["entmeasures.mins2_gap_max"] = gap_max
    evals = stats.get("entmeasures.mins2_evals", 0) + out.evaluations
    stats["entmeasures.mins2_evals"] = evals
    return problems


def prepare_mins2_search(seed: int, workdir: str) -> list[Op]:
    return [Op(f"min_s2_search M={M} N={N} part {j}",
               _mins2_call(M, N, seed * MINS2_PARTS + j), _check_mins2)
            for M, N in MINS2_SHAPES for j in range(MINS2_PARTS)]


WORKLOADS = {
    "verify-ef": prepare_verify_ef,
    "verify-bounds": prepare_verify_bounds,
    "reduce-large": prepare_reduce_large,
    "mins2-search": prepare_mins2_search,
}
