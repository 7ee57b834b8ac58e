"""Entropy, mutual-information, subadditivity, and entanglement evaluators.

Everything here reports in nats. Bound evaluators return BoundReport records
whose slack is oriented so that slack >= 0 means the inequality holds; the
verdict threshold is the shared bound_slack tolerance.

Conventions:
  * vn_entropy(rho) = -sum lambda ln lambda over the support.
  * subadd_remainder checks S12 - S1 - S2 <= 2 ln Tr[sqrt(rho12) sqrt(rho1 x rho2)],
    the two-block case of subadd_remainder_n; both read every term from the
    support pairs of rho (_remainder_terms), with no sqrt(rho) or kron.
  * ef_optimize upper-bounds the entanglement of formation by minimizing the
    average marginal entropy over pure-state ensembles parametrized through
    the mixture (Schroedinger-HJW) theorem: members w = U x, with x the rows
    sqrt(mu_j) phi_j and U an L x r isometry. Each restart runs a conjugate
    gradient descent on U (`_descend`; one batched eigh of the members'
    reduced Grams per evaluation, `_gram_entropy_grad`), then a short polish
    of two-row rotations, each pair scoring a (theta, phi) grid in one batched
    eigvalsh. A restart that reaches the proven minimum (ln 2 on antisymmetric
    inputs) ends the run. ef_exact_m4 gives the exact value on four modes.
  * min_s2_search runs the same descent and kernel on unit amplitude vectors
    (one-column isometries), the gradient scattered through the gather table;
    its restarts are the lanes of one lockstep descent. Its gathered G are
    C(M,2) x C(M,N-2), tall at N = 3, so the kernel diagonalizes the smaller
    Gram G^+ G there (5 x 5 at M = 5); E_f's square members keep G G^+.
  * squashed_extension_value(ext) = (1/2)(-S123 - S3 + S13 + S23) for a
    tripartite extension of rho12; nonnegative by strong subadditivity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .config import CAP, TOL, Tolerances
from .errors import (CapacityError, NormalizationError, RangeError,
                     ShapeError)
from .fockbasis import RankedBasis
from .hermlin import Spectrum, eig_herm, psd_root, support, trace_product
from .rdmcore import (ReducedDM, TensorDM, UNIT, gather_amplitudes,
                      project_antisymmetric, reduce_mixed, reduce_pure,
                      scatter_amplitudes, tensor_ptrace)
from .report import BoundReport, bound_report
from .statekit import (MixedStateN, PureStateN, YangParams, as_mixture,
                       complex_normal, seeded_rng, slater_state)

LN2 = math.log(2.0)


# ---------------------------------------------------------------------------
# entropy / purity

def entropy_of_probs(p: np.ndarray, cutoff: float = TOL.support_cutoff) -> float:
    """-sum p ln p over entries above the support cutoff, clamped at 0 (a lone
    eigenvalue 1 + eps would give -(1 + eps) ln(1 + eps) < 0). Non-finite
    entries raise ShapeError."""
    p = np.asarray(p, dtype=float)
    if not math.isfinite(p.sum()):
        raise ShapeError("probabilities have non-finite entries")
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


def _unit_trace(mat: np.ndarray, tol: Tolerances) -> np.ndarray:
    """mat itself, once its trace is 1 within tol.unit_trace."""
    tr = float(np.trace(mat).real)
    if not abs(tr - 1.0) <= tol.unit_trace:
        raise NormalizationError(f"trace {tr!r} is not 1 within {tol.unit_trace}")
    return mat


def vn_entropy(obj, tol: Tolerances = TOL) -> float:
    """von Neumann entropy in nats of a unit-trace density matrix or Spectrum,
    -sum lambda ln lambda over its support."""
    if isinstance(obj, Spectrum):
        spec = obj
    else:
        mat = _unit_trace(_density_matrix_of(obj), tol)
        spec = eig_herm(mat, vectors=False, tol=tol)
    total = float(np.sum(spec.eigenvalues))
    if not abs(total - 1.0) <= tol.unit_trace:
        raise NormalizationError(f"spectrum sums to {total!r}, not 1")
    return entropy_of_probs(support(spec, tol)[0], 0.0)


def purity(obj) -> float:
    """Tr rho^2 of a density matrix (or sum lambda^2 of a Spectrum).
    Non-finite entries raise ShapeError."""
    spectral = isinstance(obj, Spectrum)
    a = obj.eigenvalues if spectral else _density_matrix_of(obj)
    if not np.isfinite(np.sum(a)):      # any NaN or inf makes the sum non-finite
        raise ShapeError("purity input has non-finite entries")
    return float(np.sum(a ** 2)) if spectral else trace_product(a, a)


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


def _one_body_spectrum(state: PureStateN | MixedStateN,
                       tol: Tolerances) -> tuple[Spectrum, float]:
    """Spectrum of the unit 1-RDM and its entropy S1."""
    spec = eig_herm(reduce_mixed(state, 1).matrix, vectors=False, tol=tol)
    return spec, vn_entropy(spec, tol)


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
    spec1, s1 = _one_body_spectrum(state, tol)
    s12 = vn_entropy(reduce_mixed(state, 2), tol)
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

def subadd_remainder(t: TensorDM, tol: Tolerances = TOL) -> BoundReport:
    """S12 - S1 - S2 <= 2 ln Tr[sqrt(rho12) sqrt(rho1 x rho2)] on two parties.

    The two-block case of subadd_remainder_n (see _remainder_terms). The report
    context carries both routes to the trace form.
    """
    if t.parties != 2:
        raise ShapeError("subadd_remainder needs a two-party density matrix")
    lhs, rhs, s12, (s1, s2), tr, tr_alt = _remainder_terms(t, [(0,), (1,)], tol)
    ctx = {"S12": s12, "S1": s1, "S2": s2, "trace_form": tr,
           "trace_form_alt": tr_alt, "local_dim": t.local_dim}
    return bound_report("subadd/remainder", lhs, rhs, "<=", tol, **ctx)


def _contiguous_blocks(parties: int, grouping) -> list[tuple[int, ...]]:
    if grouping is None:
        return [(i,) for i in range(parties)]
    blocks = [tuple(b) for b in grouping]
    flat = [i for b in blocks for i in b]
    if flat != list(range(parties)):
        raise ShapeError(f"grouping {blocks} must tile parties 0..{parties - 1} in order")
    return blocks


def _apply_blockwise(vecs: np.ndarray, mats) -> np.ndarray:
    """Apply (B_0 x B_1 x ...) to every column of vecs, one matmul per block;
    B_b may be rectangular, its columns matching block b's dimension."""
    arr, prefix = vecs, 1
    for mat in mats:
        arr = mat @ arr.reshape(prefix, mat.shape[1], -1)
        prefix *= mat.shape[0]
    return arr.reshape(prefix, -1)


def _remainder_terms(t: TensorDM, blocks: list[tuple[int, ...]],
                     tol: Tolerances) -> tuple:
    """lhs, rhs, S(rho), [S(rho_b)], the trace form and its second route, all
    read from rho's support pairs (lambda_a, e_a):
      * rho_b = sum_a lambda_a Tr_rest |e_a><e_a|, its spectrum and root from
        one psd_root;
      * Tr = sum_a sqrt(lambda_a) <e_a| x_b sqrt(rho_b) |e_a>;
      * the second route skips the roots and reads the marginals' own support
        pairs (p_i, f_i): sum_a sqrt(lambda_a) sum_I prod_b sqrt(p_{i_b})
        |<x_b f_{i_b}|e_a>|^2.
    Factored inputs take the pairs from their Gram spectrum, so large fermionic
    tensors never hit the dense eigensolver; dense ones are guarded by
    CAP.tensor_dim. No term depends on the basis inside a degenerate cluster or
    on a vector's phase, so every solve here takes LAPACK's vectors as they
    come (canonical=False)."""
    d = t.local_dim
    if t.factors is not None:
        w, vecs = t.factors
        spec = eig_herm(_mixture_gram(w, vecs), vectors=True, tol=tol, canonical=False)
        lam, gvecs = support(spec, tol)
        basis_vecs = ((vecs * np.sqrt(w)) @ gvecs) / np.sqrt(lam)
    else:
        if t.dim > CAP.tensor_dim:
            raise CapacityError(
                f"dense subadditivity remainder limited to dim {CAP.tensor_dim}, "
                f"got {t.dim}")
        spec = eig_herm(t.dense(), vectors=True, tol=tol, canonical=False)
        lam, basis_vecs = support(spec, tol)
    marginals = []
    for b in blocks:
        v = basis_vecs.T.reshape(len(lam), d ** b[0], d ** len(b), -1)
        marginals.append(np.einsum("i,iabc,iadc->bd", lam, v, v.conj()))
    specs, roots = zip(*(psd_root(m, tol) for m in marginals))
    s_full = vn_entropy(spec, tol)
    s_blocks = [vn_entropy(s, tol) for s in specs]
    amp = np.sqrt(lam)
    image = _apply_blockwise(basis_vecs, roots)
    tr = float(amp @ np.einsum("ia,ia->a", basis_vecs.conj(), image).real)
    quarter = [(f * p ** 0.25).conj().T for p, f in (support(s, tol) for s in specs)]
    tr_alt = float(amp @ np.sum(np.abs(_apply_blockwise(basis_vecs, quarter)) ** 2, axis=0))
    lhs = s_full - sum(s_blocks)
    rhs = 2.0 * math.log(tr) if tr > 0.0 else -math.inf
    return lhs, rhs, s_full, s_blocks, tr, tr_alt


def subadd_remainder_n(t: TensorDM, grouping=None,
                       tol: Tolerances = TOL) -> BoundReport:
    """Grouped n-party version: S(rho) - sum_b S(rho_b) <= 2 ln Tr[sqrt(rho) x_b sqrt(rho_b)].

    Blocks must be contiguous runs of parties. Every term, on the factored and
    the dense route, is read from rho's support pairs (see _remainder_terms).
    """
    blocks = _contiguous_blocks(t.parties, grouping)
    lhs, rhs, s_full, s_blocks, tr, tr_alt = _remainder_terms(t, blocks, tol)
    ctx = {"S_full": s_full, "S_blocks": s_blocks, "trace_form": tr,
           "trace_form_alt": tr_alt, "blocks": [list(b) for b in blocks]}
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


def elem_sym_direct(eigenvalues, n: int) -> float:
    """Brute-force subset sum: sum over n-subsets of eigenvalue products.
    Non-finite eigenvalues raise ShapeError."""
    lam = [float(x) for x in np.asarray(eigenvalues).ravel()]
    if not math.isfinite(sum(lam)):
        raise ShapeError("eigenvalues have non-finite entries")
    terms = math.comb(len(lam), n)
    if terms > CAP.elem_terms:
        raise CapacityError(f"{terms} subset terms exceed capacity {CAP.elem_terms}")
    total = 0.0
    for sub in combinations(lam, n):
        prod = 1.0
        for x in sub:
            prod *= x
        total += prod
    return total


def nbody_elem_bound(state: PureStateN | MixedStateN,
                     tol: Tolerances = TOL) -> BoundReport:
    """N S(rho_1) - S(rho_1..N) >= -ln e_N(rho_1) with e_N from the 1-RDM spectrum.

    The subset-sum cross-check e_N_direct is skipped (null, with a
    cross_check note) when its C(M, N) terms exceed CAP.elem_terms.
    """
    basis = state.basis
    N = basis.n_particles
    spec1, s1 = _one_body_spectrum(state, tol)
    s_full = state_entropy(state, tol)
    lam = spec1.eigenvalues
    psums = [float(np.sum(lam ** j)) for j in range(2, N + 1)]
    e_n = elem_sym(N, psums)
    lhs = N * s1 - s_full
    rhs = -math.log(e_n) if e_n > 0.0 else math.inf
    ctx = {"M": basis.n_modes, "N": N, "S1": s1, "S_full": s_full,
           "e_N": e_n, "e_N_direct": None}
    try:
        ctx["e_N_direct"] = elem_sym_direct(lam, N)
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
    """The optimal ensemble rho = sum_k weights_k |members_k><members_k|; its
    value, sum_k weights_k S(Tr_2 members_k), is EfResult.value."""

    weights: np.ndarray                # (L,) positive, sums to Tr rho
    members: np.ndarray                # (L, d1*d2) unit rows


@dataclass
class EfResult:
    """The best restart's total, decomposition, convergence and sweep count.
    `restart` is its index (0 starts from the eigen-ensemble, r >= 1 from a
    draw of seeded_rng(seed, r)): a later restart takes the credit only by
    ending more than _FLOOR_GAP lower, never by rounding."""

    value: float
    decomposition: EnsembleDecomposition
    converged: bool
    sweeps: int
    restart: int


# The pair objective has period pi/2 in theta: theta + pi/2 maps the pair to
# (u bot, -conj(u) top), and entropies ignore those phases. With phi in
# [0, pi) (phi + pi is theta -> -theta) the grid covers every rotation. At
# theta = 0 every phi is the identity, so that row is scored once, as (0, 0),
# first: argmin then returns theta = 0 exactly when no rotation beats it.
_ANGLES = np.linspace(0.0, math.pi / 2, 6, endpoint=False)
_PHASES = np.linspace(0.0, math.pi, 6, endpoint=False)
_TINY = 1e-18

_COARSE_T, _COARSE_P = np.array([(0.0, 0.0)] + [(t, p) for t in _ANGLES[1:]
                                                for p in _PHASES]).T

# Descent on isometries (E_f ensembles, min-S2 unit vectors): E_f takes at most
# _DESCENT_STEPS conjugate gradient steps per restart; Armijo backtracking with
# constant _ARMIJO, ended early by a squared gradient norm below _GRAD_FLOOR, a
# step below _STEP_FLOOR or a value within _FLOOR_GAP of the floor.
# _FLOOR_GAP also ends ef_optimize's restarts at the floor and decides
# restart ties: a later restart must end more than _FLOOR_GAP lower to win.
# Eigenvalues are clipped at _LOG_CLIP before the log of a Gram.
_DESCENT_STEPS = 100
_ARMIJO = 1e-4
_GRAD_FLOOR = 1e-24
_STEP_FLOOR = 1e-10
_FLOOR_GAP = 1e-12
_LOG_CLIP = 1e-300


def _spectrum_contribs(p: np.ndarray) -> np.ndarray:
    """Per-Gram weight*entropy: -sum p ln p + lam ln lam with p the
    eigenvalues of the (unnormalized) reduced Gram and lam = sum p."""
    safe = np.where(p > _TINY, p, 1.0)
    ent = -(p * np.log(safe)).sum(axis=-1)
    lam = p.sum(axis=-1)
    lam_safe = np.where(lam > _TINY, lam, 1.0)
    return ent + lam * np.log(lam_safe)


def _member_contribs(rows: np.ndarray, d1: int, d2: int) -> np.ndarray:
    """Per-row weight*entropy of the first party's marginal."""
    mats = rows.reshape(-1, d1, d2)
    return _spectrum_contribs(np.linalg.eigvalsh(mats @ mats.conj().swapaxes(-1, -2)))


def _pair_coefs(thetas: np.ndarray, phis: np.ndarray) -> np.ndarray:
    """(c^2, s^2, cs conj(u), cs u) per (theta, phi): rows of _pair_values' coef."""
    c = np.cos(thetas)
    s = np.sin(thetas)
    cs_u = c * s * np.exp(1j * phis)
    return np.stack([c * c, s * s, cs_u.conj(), cs_u], axis=1)


# the coefficient rows of the fixed scan grid
_COARSE_COEF = _pair_coefs(_COARSE_T, _COARSE_P)


def _pair_values(wk: np.ndarray, wl: np.ndarray, coef: np.ndarray,
                 d1: int, d2: int) -> np.ndarray:
    """Joint contribution of the rotated pair for each (theta, phi) row of coef
    (`_pair_coefs`): rows become (c wk + u s wl, -conj(u) s wk + c wl),
    u = e^{i phi}.

    Their Grams are c^2 P + s^2 Q + cs H and P + Q minus that, with
    P = A A^+, Q = B B^+ and H = conj(u) K + u K^+ for K = A B^+, so all
    candidates' Grams come from one product with the stacked (P, Q, K, K^+)
    and their spectra from one batched eigvalsh.
    """
    a = wk.reshape(d1, d2)
    b = wl.reshape(d1, d2)
    k = a @ b.conj().T
    basis = np.stack([a @ a.conj().T, b @ b.conj().T, k, k.conj().T])
    top = (coef @ basis.reshape(4, d1 * d1)).reshape(-1, d1, d1)
    grams = np.concatenate([top, basis[0] + basis[1] - top])
    contribs = _spectrum_contribs(np.linalg.eigvalsh(grams))
    half = len(coef)
    return contribs[:half] + contribs[half:]


def _best_pair_rotation(wk: np.ndarray, wl: np.ndarray, d1: int, d2: int):
    """Best (theta, phi, value) of the pair on the (theta, phi) grid, from one
    batched scan."""
    vals = _pair_values(wk, wl, _COARSE_COEF, d1, d2)
    i0 = int(np.argmin(vals))
    return float(_COARSE_T[i0]), float(_COARSE_P[i0]), float(vals[i0])


def _gram_entropy_grad(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sum of _spectrum_contribs over the Grams P_k = A_k A_k^+ of a stack
    (..., K, d1, d2) of d1 x d2 matrices A_k, one sum per leading index, and
    its gradient in conj(A), from one batched eigh: (ln lam_k - ln P_k) A_k
    with lam_k = Tr P_k.

    The eigh runs on the smaller Gram: a tall stack (d1 > d2) is handled as
    its conjugate transpose, whose Grams A_k^+ A_k share the nonzero spectrum
    of P_k, and the gradient is conjugate-transposed back, since
    f(A A^+) A = A f(A^+ A) for every f. Square stacks (E_f) take the direct
    route."""
    if a.shape[-2] > a.shape[-1]:
        value, g = _gram_entropy_grad(a.conj().swapaxes(-1, -2))
        return value, g.conj().swapaxes(-1, -2)
    p, v = np.linalg.eigh(a @ a.conj().swapaxes(-1, -2))
    log_p = np.log(np.maximum(p, _LOG_CLIP))
    log_lam = np.log(np.maximum(p.sum(axis=-1), _LOG_CLIP))
    g = v @ ((log_lam[..., None, None] - log_p[..., None])
             * (v.conj().swapaxes(-1, -2) @ a))
    return _spectrum_contribs(p).sum(axis=-1), g


def _ensemble_value_grad(iso: np.ndarray, x: np.ndarray,
                         d: int) -> tuple[np.ndarray, np.ndarray]:
    """Total of the members w = iso @ x (A_k the d x d reshape of w_k) and its
    gradient in conj(iso), the member gradients times x^+; iso may carry
    leading lane axes."""
    w = iso @ x
    value, g = _gram_entropy_grad(w.reshape(*w.shape[:-1], d, d))
    return value, g.reshape(w.shape) @ x.conj().T


def _tangent(iso: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Projection of g onto the tangent space of the isometries at iso (both
    (..., L, r))."""
    h = iso.conj().swapaxes(-1, -2) @ g
    return g - iso @ (0.5 * (h + h.conj().swapaxes(-1, -2)))


def _retract(m: np.ndarray) -> np.ndarray:
    """Q of m = QR, per (..., L, r) slice, with the phases of diag(R) moved
    into Q, so that a step of length 0 returns the isometry itself."""
    q, r = np.linalg.qr(m)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    q *= (diag / np.abs(diag))[..., None, :]
    return q


def _lane_dots(a: np.ndarray, b: np.ndarray, lanes) -> list:
    """Re <a_j, b_j> for the lanes j of two (B, L, r) stacks, by np.vdot."""
    return [np.vdot(a[j], b[j]).real for j in lanes]


def _descend(iso: np.ndarray, value_grad, floor: float,
             steps: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Polak-Ribiere+ conjugate gradient over the isometries (L x r) with
    QR retraction (Audenaert, Verstraete & De Moor, PRA 64, 052304 (2001)),
    run on a stack (B, L, r) of B independent lanes in lockstep.

    value_grad(stack) -> (values, gradients in conj(stack)) is called on the
    lanes still moving, one candidate each. Returns the final isometries,
    their values and each lane's evaluation count; the caller's stack is left
    as it was.

    Each lane keeps its own step, direction, step count and stop tests (a
    squared gradient norm below _GRAD_FLOOR, a value within _FLOOR_GAP of
    floor, a step below _STEP_FLOOR, `steps` steps taken), and every array
    operation acts on each lane's slice alone, so a lane's arithmetic is bit
    for bit that of a one-lane run from the same start. A lane keeps its
    index in the stack from start to end: a stopped lane is skipped, and a
    moving lane's isometry, gradient and direction are written in place. The
    previous direction is carried over by projecting it at the new point, and
    replaced by the steepest descent direction when it does not descend. The
    step shrinks (at least halving) until the Armijo condition holds and
    doubles after each accepted step.
    """
    iso = iso.copy()                    # lanes are updated in place below
    value, g = value_grad(iso)
    xi = _tangent(iso, g)
    direction = -xi
    # per lane: value, step, steps taken, evaluations, squared gradient norm,
    # slope and whether it stopped
    n = len(iso)
    value = value.tolist()
    step = [1.0] * n
    taken = [0] * n
    evals = [1] * n
    norm2 = [0.0] * n
    slope = [0.0] * n
    done = [False] * n
    act = fresh = list(range(n))        # lanes still moving; lanes at a step start
    while True:
        n2, sl = _lane_dots(xi, xi, fresh), _lane_dots(xi, direction, fresh)
        for j, a, b in zip(fresh, n2, sl):
            done[j] = taken[j] >= steps or a < _GRAD_FLOOR or value[j] - floor <= _FLOOR_GAP
            norm2[j] = a
            slope[j] = 2.0 * b                              # d value / d step
            if slope[j] >= 0.0:
                direction[j] = -xi[j]
                slope[j] = -2.0 * a
        act = [j for j in act if not done[j]]
        if not act:
            return iso, np.array(value), np.array(evals)
        # a slice takes views, not copies, when every lane steps: 9% of a
        # one-lane E_f descent, 2% of the min-S2 lanes (40 alternated pairs)
        sub = slice(None) if len(act) == n else act
        cand = _retract(iso[sub] + np.array(step)[sub, None, None] * direction[sub])
        cand_value, cand_g = value_grad(cand)
        cand_value = cand_value.tolist()
        moved = []                                      # positions in act
        for i, j in enumerate(act):
            evals[j] += 1
            if cand_value[i] <= value[j] + _ARMIJO * step[j] * slope[j]:
                moved.append(i)
                value[j] = cand_value[i]
                step[j] *= 2.0
                taken[j] += 1
                continue
            # the minimizer of the quadratic through value, slope and
            # cand_value (curv > 0 once the Armijo test fails), kept within
            # [step / 10, step / 2]
            curv = cand_value[i] - value[j] - slope[j] * step[j]
            step[j] = max(0.1 * step[j],
                          min(0.5 * step[j], -0.5 * slope[j] * step[j] * step[j] / curv))
            done[j] = step[j] < _STEP_FLOOR
        fresh = [act[i] for i in moved]
        if not fresh:
            continue
        # kept, not copied, when every stepping lane moved: 4% of a one-lane
        # E_f descent (40 alternated pairs), nothing measurable on min-S2
        if len(moved) < len(act):
            cand, cand_g = cand[moved], cand_g[moved]
        sub = slice(None) if len(fresh) == n else fresh
        cand_xi = _tangent(cand, cand_g)
        num = _lane_dots(cand_xi, cand_xi - _tangent(cand, xi[sub]), range(len(fresh)))
        beta = [max(0.0, b / norm2[j]) for b, j in zip(num, fresh)]
        direction[sub] = np.array(beta)[:, None, None] * _tangent(cand, direction[sub]) - cand_xi
        iso[sub], xi[sub] = cand, cand_xi


def _ef_floor(t: TensorDM, tol: Tolerances) -> float:
    """The proven minimum of E_f for t: ln 2 when t lives on the antisymmetric
    subspace (P t P = t for rdmcore's projector P = (1 - SWAP)/2), else 0."""
    gap = np.abs(project_antisymmetric(t).matrix - t.dense()).max()
    return LN2 if gap <= tol.hermiticity else 0.0


def ef_optimize(t: TensorDM, opts: EfOptions | None = None,
                tol: Tolerances = TOL) -> EfResult:
    """Upper bound on the entanglement of formation of a two-party state.

    Each restart descends over the ensemble isometry (`_descend`), then
    polishes the members with at most opts.max_iters sweeps of two-row
    rotations; every input, rank 1 included, takes this one path.
    Deterministic for fixed (input, opts.seed): restarts draw from the
    streams seeded_rng(seed, restart), and a later restart replaces the
    winner only when its total is lower by more than _FLOOR_GAP, so the
    winner is the earliest restart within _FLOOR_GAP of the best (barring a
    chain of smaller gains). A restart has converged once a sweep lowers
    the total by at most tol.ef_sweep_tol. Once a restart ends within
    _FLOOR_GAP of the proven minimum (`_ef_floor`) the rest are skipped.
    """
    opts = opts or EfOptions()
    if opts.restarts < 1:
        raise ShapeError(f"ef_optimize needs restarts >= 1, got {opts.restarts}")
    if opts.max_iters < 1:
        raise ShapeError(f"ef_optimize needs max_iters >= 1, got {opts.max_iters}")
    if t.parties != 2:
        raise ShapeError("ef_optimize needs a two-party density matrix")
    d = t.local_dim
    rho = _unit_trace(t.dense(), tol)
    mu, phi = support(eig_herm(rho, vectors=True, tol=tol), tol)
    r = int(mu.size)
    if r > CAP.ef_rank:
        raise CapacityError(f"support rank {r} exceeds capacity {CAP.ef_rank}")
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

    floor = _ef_floor(t, tol)

    best = None
    for restart in range(opts.restarts):
        if restart == 0:
            # deterministic start from the eigen-ensemble, zero-padded
            iso = np.zeros((L, r), dtype=complex)
            iso[:r, :r] = np.eye(r)
        else:
            iso, _ = np.linalg.qr(complex_normal(seeded_rng(opts.seed, restart), L, r))
        iso = _descend(iso[None], lambda lanes: _ensemble_value_grad(lanes, x, d),
                       floor, _DESCENT_STEPS)[0][0]
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
                    theta, phi, val = _best_pair_rotation(w[k], w[l], d, d)
                    # theta = 0 is the identity, whatever the two summation
                    # routes read
                    if theta != 0.0 and val < base - 1e-15:
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
        if best is None or total < best[0] - _FLOOR_GAP:
            best = (total, w.copy(), converged, sweeps, restart)
        if total - floor <= _FLOOR_GAP:
            break
    return _finish(*best)


def _finish(value: float, w: np.ndarray, converged: bool, sweeps: int,
            restart: int) -> EfResult:
    lam = np.einsum("ij,ij->i", w, w.conj()).real
    mask = lam > 1e-14
    members = w[mask] / np.sqrt(lam[mask])[:, None]
    deco = EnsembleDecomposition(weights=lam[mask], members=members)
    return EfResult(value=value, decomposition=deco, converged=converged,
                    sweeps=sweeps, restart=restart)


def ef_fermionic_excess(value: float) -> float:
    """Distance of an E_f value above the fermionic floor ln 2."""
    return value - LN2


def ef_exact_m4(rdm: ReducedDM, tol: Tolerances = TOL) -> float:
    """Exact E_f of a unit 2-RDM on four modes, embedded as by
    embed_wedge_to_tensor (Schliemann, Cirac, Kus, Lewenstein & Loss, PRA 64,
    022303 (2001)).

    With rho = X X^+ (X the support columns sqrt(mu) phi) and D the signed
    Hodge dual on the colex wedge basis (e_I -> sign(I, J) e_J, J the
    complement of I), C = max(0, l_1 - sum_{i>=2} l_i) over the descending
    singular values l of X^T D X, and E_f = ln 2 + h((1 + sqrt(1 - C^2)) / 2)
    with h the binary entropy in nats. D is the gather table of the filled
    four-mode determinant at k = 2: row I holds merge_sign(I, J) at J, and is
    symmetric, since exchanging two 2-sets is an even permutation.
    """
    if rdm.k != 2 or rdm.basis.n_modes != 4:
        raise ShapeError(f"ef_exact_m4 needs a 2-RDM on 4 modes, got k={rdm.k}, "
                         f"M={rdm.basis.n_modes}")
    mat = _unit_trace(_density_matrix_of(rdm), tol)
    mu, phi = support(eig_herm(mat, vectors=True, tol=tol), tol)
    x = phi * np.sqrt(mu)
    dual = gather_amplitudes(np.ones(1), 4, 4, 2)
    lam = np.linalg.svd(x.T @ dual @ x, compute_uv=False)
    conc = max(0.0, float(lam[0] - lam[1:].sum()))
    # (1 - sqrt(1 - C^2)) / 2 without the cancellation at small C
    q = conc * conc / (2.0 * (1.0 + math.sqrt(max(0.0, 1.0 - conc * conc))))
    return LN2 + entropy_of_probs(np.array([1.0 - q, q]), 0.0)


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


def slater_extension_spec(N: int, k: int, tol: Tolerances = TOL) -> ExtensionSpec:
    """Entropies of the k-particle extension of a single determinant's 2-RDM
    on N modes: parties are (particle 1 | particle 2 | remaining k-2), so
    S123 = S(k-RDM), S3 = S((k-2)-RDM), S13 = S23 = S((k-1)-RDM),
    all computed from actual reductions."""
    if not 2 <= k <= N:
        raise RangeError(f"need 2 <= k <= N={N}, got k={k}")
    state = slater_state(RankedBasis(N, N), range(N))
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
    upper-bound candidate only. ef_paper and ef_alt exceed the 2-RDM's E_f when n >= 2.
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

@dataclass
class MinS2Options:
    restarts: int = 50
    iters: int = 600           # descent steps per restart, at most
    seed: int = 0


@dataclass
class MinS2Result:
    best_entropy: float
    best_state: PureStateN
    slater_reference: float
    gap: float
    evaluations: int


# min_s2_search descends its restarts in groups whose gathered G, C(M, 2) x
# C(M, N - 2) complex entries a lane, fits in _S2_GROUP_BYTES; lanes are
# independent, so the grouping bounds the memory and changes no result.
_S2_GROUP_BYTES = 1 << 22


def _s2_value_grad(iso: np.ndarray, M: int, N: int) -> tuple[np.ndarray, np.ndarray]:
    """S(gamma_2) of the unit amplitude column iso (G = gather(iso) / sqrt(C(N,2))
    through the Gram-entropy kernel) and its gradient in conj(iso), scattered
    back; a stack (..., dim, 1) of columns gives one value and gradient each."""
    scale = math.sqrt(math.comb(N, 2))
    value, g = _gram_entropy_grad(gather_amplitudes(iso[..., 0], M, N, 2)[..., None, :, :]
                                  / scale)
    return value, scatter_amplitudes(g[..., 0, :, :], M, N, 2)[..., None] / scale


def min_s2_search(M: int, N: int, opts: MinS2Options | None = None,
                  tol: Tolerances = TOL) -> MinS2Result:
    """Gradient search for low 2-RDM entropy among pure (M, N) states.

    Every restart starts from its own random unit vector, an isometry with one
    column, and the restarts run as the lanes of the E_f descent (`_descend`),
    in groups whose gathered G fits in _S2_GROUP_BYTES, for at most opts.iters
    steps with floor 0 (S(gamma_2) >= 0: pure N = 2 states stop at once);
    evaluations count value-and-gradient evaluations of single lanes. Records
    the best value found next to the single-determinant reference ln C(N,2);
    it never asserts that the reference is minimal.
    """
    opts = opts or MinS2Options()
    if opts.restarts < 1:
        raise ShapeError(f"min_s2_search needs restarts >= 1, got {opts.restarts}")
    if opts.iters < 0:
        raise ShapeError(f"min_s2_search needs iters >= 0, got {opts.iters}")
    if N < 2:
        raise RangeError("2-RDM search needs N >= 2")
    basis = RankedBasis(M, N)
    reference = vn_entropy(reduce_pure(slater_state(basis, range(N)), 2), tol)
    starts = []
    for restart in range(opts.restarts):
        amps = complex_normal(seeded_rng(opts.seed, restart), basis.dim)
        starts.append(amps / np.linalg.norm(amps))
    group = max(1, _S2_GROUP_BYTES // (16 * math.comb(M, 2) * math.comb(M, N - 2)))
    runs = [_descend(np.stack(starts[at:at + group])[..., None],
                     lambda iso: _s2_value_grad(iso, M, N), 0.0, opts.iters)
            for at in range(0, opts.restarts, group)]
    isos, values, evals = (np.concatenate(col) for col in zip(*runs))
    best_state = PureStateN(basis, isos[int(np.argmin(values)), :, 0])
    # report the winner through the deterministic eigensolver path
    best_reported = vn_entropy(reduce_pure(best_state, 2), tol)
    return MinS2Result(best_entropy=best_reported, best_state=best_state,
                       slater_reference=reference,
                       gap=best_reported - reference, evaluations=int(evals.sum()))
