"""Entropy, mutual-information, subadditivity, and entanglement evaluators.

Everything here reports in nats. Bound evaluators return BoundReport records
whose slack is oriented so that slack >= 0 means the inequality holds; the
verdict threshold is the shared bound_slack tolerance.

Conventions:
  * vn_entropy(rho) = -sum lambda ln lambda over the support.
  * subadd_remainder checks S12 - S1 - S2 <= 2 ln Tr[sqrt(rho12) sqrt(rho1 x rho2)]
    (the trace form equals 1 - (1/2) Tr[(sqrt(rho12) - sqrt(rho1 x rho2))^2]).
  * ef_optimize upper-bounds the entanglement of formation by minimizing the
    average marginal entropy over pure-state ensembles parametrized through
    the mixture (Schroedinger-HJW) theorem: member_k ~ sum_j conj(V)_{kj}
    sqrt(mu_j) phi_j with V an isometry, optimized by two-row rotations:
    each pair scores a (theta, phi) grid, then batched zoom grids, from one
    batched eigvalsh of the candidates' reduced Grams per grid.
  * squashed_extension_value(ext) = (1/2)(-S123 - S3 + S13 + S23) for a
    tripartite extension of rho12; nonnegative by strong subadditivity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .config import CAP, TOL, Capacities, Tolerances
from .errors import (CapacityError, NormalizationError, RangeError,
                     ShapeError)
from .fockbasis import RankedBasis
from .hermlin import Spectrum, eig_herm, kron, psd_root, trace_product
from .rdmcore import (ReducedDM, TensorDM, UNIT, reduce_amplitudes,
                      reduce_mixed, reduce_pure, tensor_ptrace)
from .report import BoundReport, bound_report
from .statekit import (MixedStateN, PureStateN, YangParams, as_mixture,
                       complex_normal, seeded_rng, slater_state)

LN2 = math.log(2.0)


# ---------------------------------------------------------------------------
# entropy / purity

def entropy_of_probs(p: np.ndarray, cutoff: float = TOL.support_cutoff) -> float:
    """-sum p ln p over entries above the support cutoff, clamped at 0 (a lone
    eigenvalue 1 + eps would give -(1 + eps) ln(1 + eps) < 0)."""
    p = np.asarray(p, dtype=float)
    pos = p[p > cutoff]
    # 0.0 first: max returns its first argument on ties, and max(-0.0, 0.0) is -0.0
    return max(0.0, float(-(pos * np.log(pos)).sum()))


def _density_matrix_of(obj) -> np.ndarray:
    if isinstance(obj, ReducedDM):
        if obj.normalization != UNIT:
            raise NormalizationError("entropy/purity need a unit-trace RDM; rescale first")
        return obj.matrix
    if isinstance(obj, TensorDM):
        return obj.dense()
    return np.asarray(obj)


def vn_entropy(obj, tol: Tolerances = TOL) -> float:
    """von Neumann entropy in nats of a unit-trace density matrix or Spectrum."""
    if isinstance(obj, Spectrum):
        lam = obj.eigenvalues
    else:
        mat = _density_matrix_of(obj)
        tr = float(np.trace(mat).real)
        if abs(tr - 1.0) > tol.unit_trace:
            raise NormalizationError(f"trace {tr!r} is not 1 within {tol.unit_trace}")
        lam = eig_herm(mat, vectors=False, tol=tol).eigenvalues
    total = float(np.sum(lam))
    if abs(total - 1.0) > tol.unit_trace:
        raise NormalizationError(f"spectrum sums to {total!r}, not 1")
    return entropy_of_probs(lam, tol.support_cutoff)


def purity(obj) -> float:
    """Tr rho^2 of a density matrix (or sum lambda^2 of a Spectrum)."""
    if isinstance(obj, Spectrum):
        return float(np.sum(obj.eigenvalues ** 2))
    mat = _density_matrix_of(obj)
    return trace_product(mat, mat)


def _mixture_gram(w: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """G_ij = sqrt(w_i w_j) <v_i|v_j> for the columns v_i of vecs."""
    return (vecs.conj().T @ vecs) * np.sqrt(np.outer(w, w))


def state_entropy(state: PureStateN | MixedStateN, tol: Tolerances = TOL) -> float:
    """Entropy of the full N-particle density matrix via its Gram spectrum.

    The nonzero spectrum of sum_i w_i |psi_i><psi_i| equals the spectrum of
    G_ij = sqrt(w_i w_j) <psi_i|psi_j>, so mixtures with few terms never need
    a dense eigensolve.
    """
    mix = as_mixture(state)
    w = np.asarray([t[0] for t in mix.terms], dtype=float)
    vecs = np.stack([t[1].amplitudes for t in mix.terms], axis=1)
    return vn_entropy(eig_herm(_mixture_gram(w, vecs), vectors=False, tol=tol), tol)


# ---------------------------------------------------------------------------
# mutual information bounds

def mutual_info_bounds(state: PureStateN | MixedStateN,
                       tol: Tolerances = TOL) -> tuple[BoundReport, BoundReport]:
    """Chained lower bounds on 2 S(rho_1) - S(rho_12) for an N-fermion state:

        2 S1 - S12  >=  ln(2 / (1 - Tr rho_1^2))  >=  ln(2 / (1 - e^{-S1}))

    First report: mutual information vs the purity bound (equality for single
    determinants). Second: purity bound vs its flat-spectrum relaxation.
    """
    basis = state.basis
    if basis.n_particles < 2:
        raise RangeError("mutual information bounds need N >= 2")
    r1 = reduce_mixed(state, 1)
    r12 = reduce_mixed(state, 2)
    spec1 = eig_herm(r1.matrix, vectors=False, tol=tol)
    s1 = vn_entropy(spec1, tol)
    s12 = vn_entropy(r12, tol)
    pur = purity(spec1)
    lhs = 2.0 * s1 - s12
    rhs1 = math.log(2.0 / (1.0 - pur))
    rhs2 = math.log(2.0 / (1.0 - math.exp(-s1)))
    ctx = {"M": basis.n_modes, "N": basis.n_particles,
           "S1": s1, "S12": s12, "purity1": pur}
    rep1 = bound_report("mutual-info/purity", lhs, rhs1, ">=", tol, **ctx)
    rep1.context["equality"] = bool(abs(rep1.slack) <= tol.bound_slack)
    rep2 = bound_report("mutual-info/jensen", rhs1, rhs2, ">=", tol, **ctx)
    rep2.context["equality"] = bool(abs(rep2.slack) <= tol.bound_slack)
    return rep1, rep2


# ---------------------------------------------------------------------------
# quantitative subadditivity

def subadd_remainder(t: TensorDM, rho1: np.ndarray | None = None,
                     rho2: np.ndarray | None = None,
                     tol: Tolerances = TOL) -> BoundReport:
    """S12 - S1 - S2 <= 2 ln Tr[sqrt(rho12) sqrt(rho1 x rho2)] on two parties.

    Marginals are computed from rho12 (and checked against rho1/rho2 when
    supplied). The report context carries both routes to the trace form.
    """
    if t.parties != 2:
        raise ShapeError("subadd_remainder needs a two-party density matrix")
    rho = t.dense()
    m1 = tensor_ptrace(t, (0,))
    m2 = tensor_ptrace(t, (1,))
    for given, computed, label in ((rho1, m1, "rho1"), (rho2, m2, "rho2")):
        if given is not None:
            gap = float(np.linalg.norm(np.asarray(given) - computed))
            if gap > tol.marginal_match:
                raise ShapeError(f"{label} differs from the true marginal by {gap:.3e}")
    s12, (s1, s2), a, b = _dense_remainder(rho, [m1, m2], tol)
    tr = trace_product(a, b)
    diff = a - b
    tr_alt = 1.0 - 0.5 * trace_product(diff, diff)
    lhs = s12 - s1 - s2
    rhs = 2.0 * math.log(tr) if tr > 0.0 else -math.inf
    ctx = {"S12": s12, "S1": s1, "S2": s2, "trace_form": tr,
           "trace_form_alt": tr_alt, "local_dim": t.local_dim}
    return bound_report("subadd/remainder", lhs, rhs, "<=", tol, **ctx)


def _entropy_and_root(a: np.ndarray, tol: Tolerances) -> tuple[float, np.ndarray]:
    spec, root = psd_root(a, tol)
    return vn_entropy(spec, tol), root


def _dense_remainder(rho: np.ndarray, marginals: list[np.ndarray], tol: Tolerances,
                     cap: Capacities = CAP):
    """S(rho), the block entropies, sqrt(rho) and x_b sqrt(rho_b), from one
    checked root (and eigensolve) per matrix."""
    s_full, root = _entropy_and_root(rho, tol)
    s_blocks, roots = zip(*(_entropy_and_root(rb, tol) for rb in marginals))
    prod = roots[0]
    for r in roots[1:]:
        prod = kron(prod, r, cap)
    return s_full, list(s_blocks), root, prod


def _contiguous_blocks(parties: int, grouping) -> list[tuple[int, ...]]:
    if grouping is None:
        return [(i,) for i in range(parties)]
    blocks = [tuple(b) for b in grouping]
    flat = [i for b in blocks for i in b]
    if flat != list(range(parties)):
        raise ShapeError(f"grouping {blocks} must tile parties 0..{parties - 1} in order")
    return blocks


def _apply_blockwise(vec: np.ndarray, mats: list[np.ndarray],
                     dims: list[int]) -> np.ndarray:
    """Apply (B_0 x B_1 x ...) to a vector reshaped over the block dims."""
    arr = vec.reshape(dims)
    for i, mat in enumerate(mats):
        arr = np.moveaxis(np.tensordot(mat, arr, axes=([1], [i])), 0, i)
    return arr.reshape(-1)


def subadd_remainder_n(t: TensorDM, grouping=None, tol: Tolerances = TOL,
                       cap: Capacities = CAP) -> BoundReport:
    """Grouped n-party version: S(rho) - sum_b S(rho_b) <= 2 ln Tr[sqrt(rho) x_b sqrt(rho_b)].

    Blocks must be contiguous runs of parties. Factored inputs (from
    embed_state_full) are handled through their Gram spectrum so large
    fermionic tensors never hit the dense eigensolver.
    """
    blocks = _contiguous_blocks(t.parties, grouping)
    d = t.local_dim
    block_dims = [d ** len(b) for b in blocks]
    if t.factors is not None:
        w, vecs = t.factors
        gspec = eig_herm(_mixture_gram(w, vecs), vectors=True, tol=tol)
        s_full = vn_entropy(gspec, tol)
        keep = gspec.eigenvalues > tol.support_cutoff
        lam = gspec.eigenvalues[keep]
        basis_vecs = (vecs * np.sqrt(w)) @ gspec.vectors[:, keep]
        basis_vecs /= np.sqrt(lam)
        marginals = []
        for b in blocks:
            v = vecs.T.reshape(len(w), d ** b[0], d ** len(b), -1)
            marginals.append(np.einsum("i,iabc,iadc->bd", w, v, v.conj()))
        s_blocks, roots = zip(*(_entropy_and_root(rb, tol) for rb in marginals))
        tr = 0.0
        for lam_a, e_a in zip(lam, basis_vecs.T):
            image = _apply_blockwise(e_a, roots, block_dims)
            tr += math.sqrt(lam_a) * float(np.vdot(e_a, image).real)
    else:
        if t.dim > cap.dense_eig:
            raise CapacityError(
                f"dense n-party remainder limited to dim {cap.dense_eig}, got {t.dim}")
        s_full, s_blocks, root, big = _dense_remainder(
            t.dense(), [tensor_ptrace(t, b) for b in blocks], tol, cap)
        tr = trace_product(root, big)
    lhs = s_full - sum(s_blocks)
    rhs = 2.0 * math.log(tr) if tr > 0.0 else -math.inf
    ctx = {"S_full": s_full, "S_blocks": list(s_blocks), "trace_form": tr,
           "blocks": [list(b) for b in blocks]}
    return bound_report("subadd/remainder-n", lhs, rhs, "<=", tol, **ctx)


# ---------------------------------------------------------------------------
# elementary symmetric polynomials and the n-body bound

def _power_list(n: int, power_sums) -> list[float]:
    p = [0.0, 1.0] + [float(x) for x in power_sums]
    if len(p) != n + 1:
        raise ShapeError(f"need p_2..p_{n} ({n - 1} values), got {len(p) - 2}")
    return p


def elem_sym(n: int, power_sums) -> float:
    """e_n from power sums p_2..p_n (p_1 = 1) via the Newton recursion
    k e_k = sum_{i=1..k} (-1)^{i-1} e_{k-i} p_i."""
    p = _power_list(n, power_sums)
    e = [1.0] + [0.0] * n
    for k in range(1, n + 1):
        acc = 0.0
        for i in range(1, k + 1):
            term = e[k - i] * p[i]
            acc += term if (i - 1) % 2 == 0 else -term
        e[k] = acc / k
    return e[n]


def elem_sym_det(n: int, power_sums) -> float:
    """Same quantity via the determinant of the almost-triangular Newton matrix,
    divided by n!."""
    p = _power_list(n, power_sums)
    mat = np.zeros((n, n))
    for r in range(n):
        for c in range(r + 1):
            mat[r, c] = p[r - c + 1]
        if r + 1 < n:
            mat[r, r + 1] = r + 1
    return float(np.linalg.det(mat)) / math.factorial(n)


def elem_sym_direct(eigenvalues, n: int, cap: Capacities = CAP) -> float:
    """Brute-force subset sum: sum over n-subsets of eigenvalue products."""
    lam = [float(x) for x in np.asarray(eigenvalues).ravel()]
    terms = math.comb(len(lam), n)
    if terms > cap.elem_terms:
        raise CapacityError(f"{terms} subset terms exceed capacity {cap.elem_terms}")
    total = 0.0
    for sub in combinations(lam, n):
        prod = 1.0
        for x in sub:
            prod *= x
        total += prod
    return total


def nbody_elem_bound(state: PureStateN | MixedStateN, tol: Tolerances = TOL,
                     cap: Capacities = CAP) -> BoundReport:
    """N S(rho_1) - S(rho_1..N) >= -ln e_N(rho_1) with e_N from the 1-RDM spectrum.

    The subset-sum cross-check e_N_direct is skipped (null, with a
    cross_check note) when its C(M, N) terms exceed cap.elem_terms.
    """
    mix = as_mixture(state)
    N = mix.basis.n_particles
    spec1 = eig_herm(reduce_mixed(mix, 1).matrix, vectors=False, tol=tol)
    s1 = vn_entropy(spec1, tol)
    s_full = state_entropy(mix, tol)
    lam = spec1.eigenvalues
    psums = [float(np.sum(lam ** j)) for j in range(2, N + 1)]
    e_n = elem_sym(N, psums)
    lhs = N * s1 - s_full
    rhs = -math.log(e_n) if e_n > 0.0 else math.inf
    ctx = {"M": mix.basis.n_modes, "N": N, "S1": s1, "S_full": s_full,
           "e_N": e_n, "e_N_direct": None}
    try:
        ctx["e_N_direct"] = elem_sym_direct(lam, N, cap)
    except CapacityError:
        ctx["cross_check"] = "skipped (capacity)"
    return bound_report("n-body/elem-sym", lhs, rhs, ">=", tol, **ctx)


# ---------------------------------------------------------------------------
# entanglement of formation (upper bound by ensemble optimization)

@dataclass
class EfOptions:
    # ensemble size: an int, "rank" (= support rank r) or "square" (= r**2)
    ensemble_size: int | str = "square"
    restarts: int = 20
    seed: int = 0
    max_iters: int = 60                # sweeps per restart


@dataclass
class EnsembleDecomposition:
    weights: np.ndarray                # (L,) positive, sums to Tr rho
    members: np.ndarray                # (L, d1*d2) unit rows
    value: float                       # sum_k weight_k S(Tr_2 member_k)


@dataclass
class EfResult:
    value: float
    decomposition: EnsembleDecomposition
    converged: bool
    sweeps: int
    restart: int


# The pair objective has period pi/2 in theta: theta + pi/2 maps the pair to
# (u bot, -conj(u) top), and entropies ignore those phases. With phi in
# [0, pi) (phi + pi is theta -> -theta) the coarse grid covers every rotation.
_ANGLES = np.linspace(0.0, math.pi / 2, 6, endpoint=False)
_PHASES = np.linspace(0.0, math.pi, 6, endpoint=False)
# zoom refinement: the 8 neighbours of the best point on a 3x3 grid that
# spans one coarse step each way and halves after each of _ZOOM_LEVELS levels
# (7x7 grids at 5 levels reached the same E_f values on the verify corpus in
# more time)
_ZOOM_LEVELS = 8
_TINY = 1e-18

_COARSE_T, _COARSE_P = np.array([(t, p) for t in _ANGLES for p in _PHASES]).T
_ZOOM_T, _ZOOM_P = np.array([(t, p) for t in (-1.0, 0.0, 1.0)
                             for p in (-1.0, 0.0, 1.0) if t or p]).T


def _gram_contribs(grams: np.ndarray) -> np.ndarray:
    """Per-Gram weight*entropy: -sum p ln p + lam ln lam with p the
    eigenvalues of the (unnormalized) reduced Gram and lam = sum p."""
    p = np.linalg.eigvalsh(grams)
    safe = np.where(p > _TINY, p, 1.0)
    ent = -(p * np.log(safe)).sum(axis=-1)
    lam = p.sum(axis=-1)
    lam_safe = np.where(lam > _TINY, lam, 1.0)
    return ent + lam * np.log(lam_safe)


def _member_contribs(rows: np.ndarray, d1: int, d2: int) -> np.ndarray:
    """Per-row weight*entropy of the first party's marginal."""
    mats = rows.reshape(-1, d1, d2)
    return _gram_contribs(mats @ mats.conj().swapaxes(-1, -2))


def _pair_objective(wk: np.ndarray, wl: np.ndarray, thetas: np.ndarray,
                    phis: np.ndarray, d1: int, d2: int) -> np.ndarray:
    """Joint contribution of the rotated pair for equal-length (theta, phi)
    arrays: rows become (c wk + u s wl, -conj(u) s wk + c wl), u = e^{i phi}.

    Their Grams are c^2 P + s^2 Q + cs H and P + Q minus that, with
    P = A A^+, Q = B B^+ and H = conj(u) K + u K^+ for K = A B^+, so all
    candidates' Grams come from one product with the stacked (P, Q, K, K^+)
    and their spectra from one batched eigvalsh.
    """
    a = wk.reshape(d1, d2)
    b = wl.reshape(d1, d2)
    k = a @ b.conj().T
    basis = np.stack([a @ a.conj().T, b @ b.conj().T, k, k.conj().T])
    c = np.cos(thetas)
    s = np.sin(thetas)
    cs_u = c * s * np.exp(1j * phis)
    coef = np.stack([c * c, s * s, cs_u.conj(), cs_u], axis=1)
    top = (coef @ basis.reshape(4, d1 * d1)).reshape(-1, d1, d1)
    contribs = _gram_contribs(np.concatenate([top, basis[0] + basis[1] - top]))
    half = len(c)
    return contribs[:half] + contribs[half:]


def _best_pair_rotation(wk: np.ndarray, wl: np.ndarray, d1: int, d2: int,
                        base: float):
    """Coarse (theta, phi) grid, then batched zoom grids around the best point.

    Refinement runs only when the grid already beats `base`, so converged
    pairs cost a single batched scan. Each zoom level is one batched call on
    the grid around the current best point, and it moves the point only to a
    strictly lower value.
    """
    vals = _pair_objective(wk, wl, _COARSE_T, _COARSE_P, d1, d2)
    i0 = int(np.argmin(vals))
    theta, phi, val = float(_COARSE_T[i0]), float(_COARSE_P[i0]), float(vals[i0])
    if val >= base - 1e-12:
        return theta, phi, val
    t_span, p_span = _ANGLES[1], _PHASES[1]        # one coarse step
    for _ in range(_ZOOM_LEVELS):
        flat_t = theta + t_span * _ZOOM_T
        flat_p = phi + p_span * _ZOOM_P
        vals = _pair_objective(wk, wl, flat_t, flat_p, d1, d2)
        i0 = int(np.argmin(vals))
        if vals[i0] < val:
            theta, phi, val = float(flat_t[i0]), float(flat_p[i0]), float(vals[i0])
        t_span /= 2.0
        p_span /= 2.0
    return theta, phi, val


def ef_optimize(t: TensorDM, opts: EfOptions | None = None,
                tol: Tolerances = TOL, cap: Capacities = CAP) -> EfResult:
    """Upper bound on the entanglement of formation of a two-party state.

    Deterministic for fixed (input, opts.seed): restarts draw from the
    streams seeded_rng(seed, restart) and the winner is the first restart
    attaining the best value. A restart has converged once a sweep lowers
    the total by at most tol.ef_sweep_tol.
    """
    opts = opts or EfOptions()
    if opts.restarts < 1:
        raise ShapeError(f"ef_optimize needs restarts >= 1, got {opts.restarts}")
    if opts.max_iters < 1:
        raise ShapeError(f"ef_optimize needs max_iters >= 1, got {opts.max_iters}")
    if t.parties != 2:
        raise ShapeError("ef_optimize needs a two-party density matrix")
    d = t.local_dim
    rho = t.dense()
    tr = float(np.trace(rho).real)
    if abs(tr - 1.0) > tol.unit_trace:
        raise NormalizationError(f"trace {tr!r} is not 1 within {tol.unit_trace}")
    spec = eig_herm(rho, vectors=True, tol=tol)
    keep = spec.eigenvalues > tol.support_cutoff
    mu = spec.eigenvalues[keep]
    phi = spec.vectors[:, keep]
    r = int(mu.size)
    if r > cap.ef_rank:
        raise CapacityError(f"support rank {r} exceeds capacity {cap.ef_rank}")
    x = np.sqrt(mu)[:, None] * phi.T          # (r, d*d); rows span the support
    size = opts.ensemble_size
    if size == "square":
        L = r * r
    elif size == "rank":
        L = r
    elif isinstance(size, int) and not isinstance(size, bool):
        L = size
    else:
        raise ShapeError(
            f"ensemble size must be 'rank', 'square' or an int, got {size!r}")
    if L < r:
        raise ShapeError(f"ensemble size {L} below support rank {r}")

    if r == 1 or L == 1:
        w = x[:1].copy()
        contribs = _member_contribs(w, d, d)
        return _finish(float(contribs.sum()), w, True, 0, 0)

    best = None
    for restart in range(opts.restarts):
        if restart == 0:
            # deterministic start from the eigen-ensemble, zero-padded
            iso = np.zeros((L, r), dtype=complex)
            iso[:r, :r] = np.eye(r)
        else:
            iso, _ = np.linalg.qr(complex_normal(seeded_rng(opts.seed, restart), L, r))
        w = iso @ x
        contribs = _member_contribs(w, d, d)
        total = float(contribs.sum())
        converged = False
        sweeps = 0
        # a pair whose rows kept their versions since its last scan would
        # repeat a rejected scan (an accepted one bumps both rows), so skip it
        version = [0] * L
        scanned = {}
        for _ in range(opts.max_iters):
            sweeps += 1
            before = total
            for k in range(L - 1):
                for l in range(k + 1, L):
                    if scanned.get((k, l)) == (version[k], version[l]):
                        continue
                    scanned[k, l] = (version[k], version[l])
                    base = contribs[k] + contribs[l]
                    theta, phi, val = _best_pair_rotation(w[k], w[l], d, d, base)
                    if val < base - 1e-15:
                        version[k] += 1
                        version[l] += 1
                        c = math.cos(theta)
                        u_s = complex(math.cos(phi), math.sin(phi)) * math.sin(theta)
                        new_k = c * w[k] + u_s * w[l]
                        new_l = -np.conjugate(u_s) * w[k] + c * w[l]
                        w[k], w[l] = new_k, new_l
                        contribs[[k, l]] = _member_contribs(w[[k, l]], d, d)
                        total = float(contribs.sum())
            if before - total <= tol.ef_sweep_tol:
                converged = True
                break
        if best is None or total < best[0]:
            best = (total, w.copy(), converged, sweeps, restart)
    return _finish(*best)


def _finish(value: float, w: np.ndarray, converged: bool, sweeps: int,
            restart: int) -> EfResult:
    lam = np.einsum("ij,ij->i", w, w.conj()).real
    mask = lam > 1e-14
    members = w[mask] / np.sqrt(lam[mask])[:, None]
    deco = EnsembleDecomposition(weights=lam[mask], members=members, value=value)
    return EfResult(value=value, decomposition=deco, converged=converged,
                    sweeps=sweeps, restart=restart)


def ef_fermionic_excess(value: float) -> float:
    """Distance of an E_f value above the fermionic floor ln 2."""
    return value - LN2


# ---------------------------------------------------------------------------
# squashed-entanglement extension values

@dataclass
class ExtensionSpec:
    """Entropies of a tripartite extension rho_123 of a two-party state."""

    s123: float
    s3: float
    s13: float
    s23: float


def squashed_extension_value(ext: ExtensionSpec) -> float:
    """(1/2)(S13 + S23 - S123 - S3); nonnegative by strong subadditivity."""
    return 0.5 * (ext.s13 + ext.s23 - ext.s123 - ext.s3)


def extension_spec_from_tripartite(t: TensorDM, tol: Tolerances = TOL) -> ExtensionSpec:
    """Evaluate the four entropies of an explicit three-party density matrix."""
    if t.parties != 3:
        raise ShapeError("need a three-party density matrix")
    return ExtensionSpec(
        s123=vn_entropy(t.dense(), tol),
        s3=vn_entropy(tensor_ptrace(t, (2,)), tol),
        s13=vn_entropy(tensor_ptrace(t, (0, 2)), tol),
        s23=vn_entropy(tensor_ptrace(t, (1, 2)), tol),
    )


def slater_extension_spec(N: int, k: int, M: int | None = None,
                          tol: Tolerances = TOL) -> ExtensionSpec:
    """Entropies of the k-particle extension of a single determinant's 2-RDM:
    parties are (particle 1 | particle 2 | remaining k-2), so
    S123 = S(k-RDM), S3 = S((k-2)-RDM), S13 = S23 = S((k-1)-RDM),
    all computed from actual reductions."""
    if not 2 <= k <= N:
        raise RangeError(f"need 2 <= k <= N={N}, got k={k}")
    M = N if M is None else M
    state = slater_state(RankedBasis(M, N), range(N))
    s123 = vn_entropy(reduce_pure(state, k), tol)
    s3 = 0.0 if k == 2 else vn_entropy(reduce_pure(state, k - 2), tol)
    s13 = vn_entropy(reduce_pure(state, k - 1), tol)
    return ExtensionSpec(s123=s123, s3=s3, s13=s13, s23=s13)


def slater_squashed_bound(N: int) -> float:
    """Closed-form squashed-entanglement upper bound for N-fermion determinants:
    (1/2) ln((N+2)/(N-2)) for even N >= 4, (1/2) ln((N+3)/(N-1)) for odd N >= 3."""
    if N < 3:
        raise RangeError(f"bound defined for N >= 3, got {N}")
    if N % 2 == 0:
        return 0.5 * math.log((N + 2) / (N - 2))
    return 0.5 * math.log((N + 3) / (N - 1))


# ---------------------------------------------------------------------------
# paired-state analytics

@dataclass
class YangAnalytics:
    """Closed-form quantities for the paired state with n of m pairs occupied.

    esq_bound_paper is the literature value for the squashed-entanglement
    bound; its direction is ambiguous in the source, so it is reported as an
    upper-bound candidate only.
    """

    m: int
    n: int
    lam1: float
    mult1: int
    lam2: float
    mult2: int
    entropy: float
    pair_fraction: float
    ef_paper: float
    ef_alt: float
    esq_bound_paper: float

    def spectrum(self, dim: int | None = None) -> np.ndarray:
        """Dense descending eigenvalue vector (padded with zeros to dim)."""
        full = [self.lam1] * self.mult1 + [self.lam2] * self.mult2
        full.sort(reverse=True)
        if dim is not None:
            full += [0.0] * (dim - len(full))
        return np.asarray(full)


def yang_analytics(p: YangParams) -> YangAnalytics:
    m, n = p.m, p.n
    if m == 1:
        # single determinant on two modes: pure 2-RDM
        return YangAnalytics(m=m, n=n, lam1=1.0, mult1=1, lam2=0.0, mult2=0,
                             entropy=0.0, pair_fraction=0.0, ef_paper=LN2,
                             ef_alt=LN2, esq_bound_paper=math.inf)
    den = (2 * n - 1) * m * (m - 1)
    x1 = m * m - m * n + n - 1
    lam1 = x1 / den
    lam2 = (n - 1) / den
    mult2 = 2 * m * m - m - 1
    if abs(lam1 + mult2 * lam2 - 1.0) > 1e-12:
        raise NormalizationError("paired-state spectrum failed its trace identity")
    # three-term entropy closed form; 0 ln 0 terms vanish for n = 1
    entropy = math.log(den) - lam1 * math.log(x1)
    if n > 1:
        entropy -= mult2 * lam2 * math.log(n - 1)
    frac = (m - n) / ((2 * n - 1) * (m - 1))
    ef_paper = LN2 + frac * (math.log(m) - LN2)
    ef_alt = LN2 + frac * math.log(m)
    esq = frac * math.log(m) + (1.0 - frac) * 0.5 * math.log((m + 1) / (m - 1))
    return YangAnalytics(m=m, n=n, lam1=lam1, mult1=1, lam2=lam2, mult2=mult2,
                         entropy=entropy, pair_fraction=frac, ef_paper=ef_paper,
                         ef_alt=ef_alt, esq_bound_paper=esq)


# ---------------------------------------------------------------------------
# 2-RDM entropy minimization (observational search)

# min-S2 step: first size, factor after a cycle with no gain, size that stops
_MINS2_STEP = 0.5
_MINS2_SHRINK = 0.5
_MINS2_STEP_FLOOR = 1e-4


@dataclass
class MinS2Options:
    restarts: int = 50
    iters: int = 600           # coordinate proposals per restart
    seed: int = 0


@dataclass
class MinS2Result:
    best_entropy: float
    best_state: PureStateN
    slater_reference: float
    gap: float
    evaluations: int


def min_s2_search(M: int, N: int, opts: MinS2Options | None = None,
                  tol: Tolerances = TOL) -> MinS2Result:
    """Gradient-free search for low 2-RDM entropy among pure (M, N) states.

    Random restarts plus coordinate perturbations accepted on entropy
    decrease. Records the best value found next to the single-determinant
    reference ln C(N,2); it never asserts that the reference is minimal.
    """
    opts = opts or MinS2Options()
    if N < 2:
        raise RangeError("2-RDM search needs N >= 2")
    basis = RankedBasis(M, N)

    def s2_fast(amps: np.ndarray) -> float:
        return entropy_of_probs(np.linalg.eigvalsh(reduce_amplitudes(amps, M, N, 2)),
                                tol.support_cutoff)

    reference = vn_entropy(reduce_pure(slater_state(basis, range(N)), 2), tol)
    best_s = math.inf
    best_amps = None
    evals = 0
    for restart in range(opts.restarts):
        rng = seeded_rng(opts.seed, restart)
        amps = complex_normal(rng, basis.dim)
        amps /= np.linalg.norm(amps)
        cur = s2_fast(amps)
        evals += 1
        step = _MINS2_STEP
        improved_in_cycle = False
        for it in range(opts.iters):
            i = it % basis.dim
            cand = amps.copy()
            cand[i] += step * complex(rng.standard_normal(), rng.standard_normal())
            cand /= np.linalg.norm(cand)
            val = s2_fast(cand)
            evals += 1
            if val < cur - 1e-15:
                amps, cur = cand, val
                improved_in_cycle = True
            if i == basis.dim - 1:
                if not improved_in_cycle:
                    step *= _MINS2_SHRINK
                    if step < _MINS2_STEP_FLOOR:
                        break
                improved_in_cycle = False
        if cur < best_s:
            best_s, best_amps = cur, amps
    best_state = PureStateN(basis, best_amps)
    # report the winner through the deterministic eigensolver path
    best_reported = vn_entropy(reduce_pure(best_state, 2), tol)
    return MinS2Result(best_entropy=best_reported, best_state=best_state,
                       slater_reference=reference,
                       gap=best_reported - reference, evaluations=evals)
