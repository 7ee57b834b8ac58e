"""Bound suites behind `fermient verify`.

Each suite takes one SuiteRun and returns its reports in a fixed order. Every
report comes from `report.bound_report`, so it holds <=> slack >= -grace:
  * bounds, ceilings and nonnegativity use the record's `bound_slack`;
  * closed-form and route matches compare a difference with ROUTE_MATCH or
    CLOSED_FORM_MATCH at grace 0;
  * the E_f floor E_f >= ln 2 uses EF_FLOOR_GRACE.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# layer functions go through their modules: perfbench's Tracer misses from-imports here
from . import corpus, entmeasures, hermlin, rdmcore, report, statekit
from .config import Tolerances
from .entmeasures import EfOptions, YangAnalytics
from .report import BoundReport
from .statekit import PureStateN, YangParams

ROUTE_MATCH = 1e-12        # elem_sym: recursion vs determinant vs subset sums
CLOSED_FORM_MATCH = 1e-10  # numeric value vs closed form
EF_FLOOR_GRACE = 1e-4      # ef/floor holds <=> E_f >= ln 2 - EF_FLOOR_GRACE


@dataclass(frozen=True)
class SuiteRun:
    """What a suite reads: the corpus selection, tolerances and E_f settings."""

    seed: int
    n_random: int
    M: int | None
    N: int | None
    states: tuple[str, ...]
    tol: Tolerances
    ef: EfOptions


_CORPUS_CACHE: dict[tuple[int, int], list[corpus.CorpusEntry]] = {}


def _corpus(seed: int, n_random: int) -> list[corpus.CorpusEntry]:
    key = (seed, n_random)
    if key not in _CORPUS_CACHE:
        _CORPUS_CACHE[key] = corpus.build_corpus(seed=seed, n_random=n_random)
    return _CORPUS_CACHE[key]


def entries(run: SuiteRun) -> list[corpus.CorpusEntry]:
    """The run's corpus plus its state files, filtered by M and N."""
    out = list(_corpus(run.seed, run.n_random))
    for i, path in enumerate(run.states):
        st = statekit.load_state(path)
        out.append(corpus.CorpusEntry(f"user-{i}-{path}", "user", st))
    if run.M is not None:
        out = [e for e in out if e.basis.n_modes == run.M]
    if run.N is not None:
        out = [e for e in out if e.basis.n_particles == run.N]
    return out


def _pair_entries(run: SuiteRun) -> list[corpus.CorpusEntry]:
    """The run's entries that have a 2-RDM (N >= 2): a suite that reads one
    skips the others."""
    return [e for e in entries(run) if e.basis.n_particles >= 2]


def yang_spectrum(ana: YangAnalytics, st: PureStateN, tol: Tolerances):
    """The spectrum of the pair state's unit 2-RDM and its largest difference
    from the closed-form spectrum in `ana`."""
    spec = hermlin.eig_herm(rdmcore.reduce_mixed(st, 2).matrix, vectors=False, tol=tol)
    lam = spec.eigenvalues
    return spec, float(np.max(np.abs(lam - ana.spectrum(dim=lam.size))))


def mutual(run: SuiteRun) -> list[BoundReport]:
    out = []
    for e in _pair_entries(run):
        for rep in entmeasures.mutual_info_bounds(e.state, run.tol):
            rep.context["state"] = e.name
            out.append(rep)
    return out


def subadd(run: SuiteRun) -> list[BoundReport]:
    seed, tol = run.seed, run.tol
    out = []
    for e in _pair_entries(run):
        rep = entmeasures.subadd_remainder(rdmcore.embed_wedge_to_tensor(e.rdm(2)),
                                           tol=tol)
        rep.context["state"] = e.name
        out.append(rep)
    # seeded random bipartite density matrices, local dims 2..4
    for i in range(run.n_random):
        d = 2 + (i % 3)
        rank = 1 + (i % (d * d))
        t = rdmcore.random_two_party_dm(d, rank, seed=seed * 1_000_000 + i)
        rep = entmeasures.subadd_remainder(t, tol=tol)
        rep.context["case"] = f"random-d{d}-r{rank}-{i}"
        out.append(rep)
    # product states: the equality case
    for d in (2, 3, 4):
        rng = statekit.seeded_rng(seed, 7, d)
        r1 = statekit.ginibre_density(rng, d, d)
        r2 = statekit.ginibre_density(rng, d, d)
        t = rdmcore.TensorDM(parties=2, local_dim=d, matrix=hermlin.kron(r1, r2))
        rep = entmeasures.subadd_remainder(t, tol=tol)
        rep.context["case"] = f"product-d{d}"
        rep.context["equality"] = bool(abs(rep.slack) <= CLOSED_FORM_MATCH)
        out.append(rep)
    return out


def elem(run: SuiteRun) -> list[BoundReport]:
    out = []
    for e in entries(run):
        rep = entmeasures.nbody_elem_bound(e.state, run.tol)
        rep.context["state"] = e.name
        out.append(rep)
    # route agreement on random spectra
    rng = statekit.seeded_rng(run.seed, 11)
    for i in range(50):
        dim = int(rng.integers(3, 13))
        n = int(rng.integers(2, dim + 1))
        lam = rng.random(dim)
        lam /= lam.sum()
        psums = [float(np.sum(lam ** j)) for j in range(2, n + 1)]
        e_rec = entmeasures.elem_sym(n, psums)
        e_det = entmeasures.elem_sym_det(n, psums)
        e_dir = entmeasures.elem_sym_direct(lam, n)
        worst = max(abs(e_rec - e_det), abs(e_rec - e_dir))
        out.append(report.bound_report("elem/routes", worst, ROUTE_MATCH, "<=",
                                       run.tol, grace=0.0, dim=dim, n=n, case=i))
    return out


def ef(run: SuiteRun) -> list[BoundReport]:
    out = []
    for e in _pair_entries(run):
        t = rdmcore.embed_wedge_to_tensor(e.rdm(2))
        res = entmeasures.ef_optimize(t, run.ef, run.tol)
        out.append(report.bound_report(
            "ef/floor", res.value, entmeasures.LN2, ">=", run.tol,
            grace=EF_FLOOR_GRACE, state=e.name, converged=res.converged,
            restart=res.restart))
    return out


def squash(run: SuiteRun) -> list[BoundReport]:
    tol = run.tol
    out = []
    for N in (3, 4, 5, 6):
        closed = entmeasures.slater_squashed_bound(N)
        k = (N + 1) // 2 if N % 2 else N // 2 + 1
        val = entmeasures.squashed_extension_value(
            entmeasures.slater_extension_spec(N, k, tol=tol))
        if N % 2:
            out.append(report.bound_report(
                "squash/odd-equality", abs(val - closed), CLOSED_FORM_MATCH, "<=",
                tol, grace=0.0, N=N, k=k, extension_value=val, closed_form=closed))
        else:
            out.append(report.bound_report(
                "squash/upper-candidate", val, closed, "<=", tol,
                N=N, k=k, closed_form=closed))
    # nonnegativity on genuine tripartite states
    for i in range(max(4, min(run.n_random, 12))):
        d = 2 + (i % 2)
        q = 1 + (i % 3)
        rho = statekit.ginibre_density(statekit.seeded_rng(run.seed, 13, i), d ** 3, q)
        t = rdmcore.TensorDM(parties=3, local_dim=d, matrix=rho)
        val = entmeasures.squashed_extension_value(
            entmeasures.extension_spec_from_tripartite(t, tol))
        out.append(report.bound_report("squash/nonneg", val, 0.0, ">=", tol,
                                       case=i, d=d, rank=q))
    return out


def yang(run: SuiteRun) -> list[BoundReport]:
    tol = run.tol
    out = []
    for m in range(2, 6):
        for n in range(1, m + 1):
            ana = entmeasures.yang_analytics(YangParams(m, n))
            st = statekit.yang_state(YangParams(m, n))
            spec, diff = yang_spectrum(ana, st, tol)
            out.append(report.bound_report(
                "yang/spectrum-match", diff, CLOSED_FORM_MATCH, "<=", tol,
                grace=0.0, m=m, n=n))
            s2 = entmeasures.vn_entropy(spec, tol)
            out.append(report.bound_report(
                "yang/entropy-match", abs(s2 - ana.entropy),
                CLOSED_FORM_MATCH, "<=", tol, grace=0.0, m=m, n=n))
            N = 2 * n
            top1 = hermlin.eig_herm(rdmcore.reduce_mixed(st, 1).matrix, vectors=False,
                                    tol=tol).eigenvalues[0]
            out.append(report.bound_report("yang/occupation-bound", 1.0 / N, top1,
                                           ">=", tol, m=m, n=n, N=N))
            out.append(report.bound_report("yang/pair-eigenvalue-bound",
                                           2.0 / (N - 1), spec.eigenvalues[0],
                                           ">=", tol, m=m, n=n, N=N))
    return out
