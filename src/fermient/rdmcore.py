"""Reduced density matrices of N-fermion states.

The k-particle RDM of |psi> on the wedge basis is

    rho_k(I, J) = c * sum_K  sgn(I,K) sgn(J,K) psi_{I u K} conj(psi_{J u K})

with K running over the (N-k)-subsets disjoint from both I and J, and
c = 1/C(N,k) for unit trace ("physics" normalization scales the trace to
C(N,k) instead). One index/sign table per (M, N, k), of shape
C(M,k) x C(M,N-k) with sign 0 where I and K overlap, turns this into
rho = G G^+ / C(N,k) with G = sgn * psi[idx]. Mixtures stack their
sqrt(w)-weighted terms as extra columns of G, and the partial trace of a
k-RDM to k_out particles applies the (M, k, k_out) table on both sides.

A dense oracle (`brute_force_reduce`) embeds the state into the full M**N
tensor power with explicit antisymmetrization signs, partial-traces there,
and compresses back through the wedge isometry; it exists to cross-check the
fast path and is capacity-guarded.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .config import CAP, TOL, Capacities, Tolerances
from .errors import (CapacityError, NormalizationError, RangeError,
                     ShapeError)
from .fockbasis import RankedBasis, binom, colex_masks
from .report import FMT17, read_text, records, write_text
from .statekit import (MixedStateN, PureStateN, as_mixture, ginibre_density,
                       seeded_rng)

UNIT = "unit"
PHYSICS = "physics"


@dataclass
class ReducedDM:
    """k-particle RDM on the colex wedge basis RankedBasis(M, k)."""

    k: int
    basis: RankedBasis
    matrix: np.ndarray
    normalization: str = UNIT
    n_particles: int | None = None  # N of the source state, if known


@dataclass
class TensorDM:
    """Density matrix on (C^local_dim)^(x parties), row-major party ordering.

    `factors`, when present, holds (weights, vectors) with
    matrix == sum_i w_i |v_i><v_i| exactly; low-rank paths use it to avoid
    dense eigensolves at large dimension. `matrix` may be None for factored
    states too large to materialize densely.
    """

    parties: int
    local_dim: int
    matrix: np.ndarray | None
    factors: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def dim(self) -> int:
        return self.local_dim ** self.parties

    def dense(self) -> np.ndarray:
        if self.matrix is not None:
            return self.matrix
        w, vecs = self.factors
        return (vecs * w) @ vecs.conj().T


# K-columns per block: bounds the table build's temporaries and the size of
# each gathered block of G, which peak memory (not speed) is sensitive to
_BLOCK = 256


@lru_cache(maxsize=None)
def _gather_table(M: int, N: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Index/sign table of the k-particle reduction on RankedBasis(M, N).

    Rows are the k-sets I of RankedBasis(M, k), columns the (N-k)-sets K,
    both in colex order. idx[I, K] is the rank of I | K in RankedBasis(M, N)
    and sgn[I, K] is merge_sign(I, K); where I and K overlap, sgn is 0.
    """
    rows = colex_masks(M, k)
    cols = colex_masks(M, N - k)
    members = colex_masks(M, N)         # ascending, so sorted search ranks
    modes = np.arange(M, dtype=np.uint64)
    row_bits = ((rows[:, None] >> modes) & np.uint64(1)).astype(np.int32)
    # above[I, m]: modes of I above m, so merge_sign(I, K) is the parity of
    # the sum over m in K of above[I, m]
    above = k - np.cumsum(row_bits, axis=1, dtype=np.int32)
    idx = np.zeros((rows.size, cols.size), dtype=np.int32)
    sgn = np.zeros((rows.size, cols.size), dtype=np.int8)
    for c0 in range(0, cols.size, _BLOCK):
        K = cols[c0:c0 + _BLOCK]
        ranks = np.searchsorted(members, rows[:, None] | K)
        col_bits = ((K[:, None] >> modes) & np.uint64(1)).astype(np.int32)
        parity = (above @ col_bits.T) & 1
        disjoint = (rows[:, None] & K) == 0
        idx[:, c0:c0 + K.size] = np.where(disjoint, ranks, 0)
        sgn[:, c0:c0 + K.size] = np.where(disjoint, 1 - 2 * parity, 0)
    return idx, sgn


def reduce_amplitudes(amps: np.ndarray, M: int, N: int, k: int) -> np.ndarray:
    """Unit-trace k-RDM matrix sum_t G_t G_t^+ / C(N, k) of amplitude rows.

    `amps` holds one amplitude vector over RankedBasis(M, N) per row, each
    already scaled by the square root of its mixture weight (a 1-D vector is
    a single pure state). G_t = sgn * amps_t[idx] over the gather table;
    the columns are accumulated in blocks of _BLOCK.
    """
    if not 1 <= k <= N:
        raise RangeError(f"need 1 <= k <= N={N}, got k={k}")
    amps = np.atleast_2d(amps)
    idx, sgn = _gather_table(M, N, k)
    rho = np.zeros((idx.shape[0], idx.shape[0]), dtype=complex)
    for c0 in range(0, idx.shape[1], _BLOCK):
        block = slice(c0, c0 + _BLOCK)
        G = sgn[:, block] * amps[:, idx[:, block]]       # (terms, rows, cols)
        G = G.transpose(1, 0, 2).reshape(idx.shape[0], -1)
        rho += G @ G.conj().T
    # a GEMM need not round (i, j) and (j, i) alike; keep rho exactly Hermitian
    return (rho + rho.conj().T) / (2 * binom(N, k))


def reduce_pure(state: PureStateN, k: int) -> ReducedDM:
    """Unit-trace k-particle RDM of a pure state (the one-term mixture)."""
    return reduce_mixed(state, k)


def reduce_mixed(state: MixedStateN | PureStateN, k: int) -> ReducedDM:
    """Unit-trace k-particle RDM of a mixture, linear in the weights."""
    mix = as_mixture(state)
    N = mix.basis.n_particles
    M = mix.basis.n_modes
    amps = np.stack([math.sqrt(w) * st.amplitudes for w, st in mix.terms])
    rho = reduce_amplitudes(amps, M, N, k)
    return ReducedDM(k=k, basis=RankedBasis(M, k), matrix=rho, normalization=UNIT,
                     n_particles=N)


def ptrace_rdm(r: ReducedDM, k_out: int) -> ReducedDM:
    """Trace a unit-trace k-RDM down to k_out < k particles.

    out[A, B] = sum_X sgn[A, X] sgn[B, X] R[idx[A, X], idx[B, X]] / C(k, k_out)
    over the (M, k, k_out) gather table.
    """
    if r.normalization != UNIT:
        raise NormalizationError("ptrace_rdm expects a unit-trace RDM")
    if not 1 <= k_out < r.k:
        raise RangeError(f"need 1 <= k_out < k={r.k}, got {k_out}")
    M = r.basis.n_modes
    idx, sgn = _gather_table(M, r.k, k_out)
    out = np.zeros((idx.shape[0], idx.shape[0]), dtype=complex)
    for c0 in range(0, idx.shape[1], _BLOCK):
        i = idx[:, c0:c0 + _BLOCK]
        s = sgn[:, c0:c0 + _BLOCK]
        out += np.einsum("ax,bx,abx->ab", s, s, r.matrix[i[:, None], i[None, :]])
    out /= binom(r.k, k_out)
    return ReducedDM(k=k_out, basis=RankedBasis(M, k_out), matrix=out,
                     normalization=UNIT, n_particles=r.n_particles)


def rescale(r: ReducedDM, target: str, tol: Tolerances = TOL) -> ReducedDM:
    """Switch between unit-trace and physics (trace C(N,k)) normalization."""
    if target not in (UNIT, PHYSICS):
        raise NormalizationError(f"unknown normalization tag {target!r}")
    if target == r.normalization:
        return ReducedDM(r.k, r.basis, r.matrix.copy(), r.normalization, r.n_particles)
    if r.n_particles is None:
        raise NormalizationError(
            "particle count unknown; cannot rescale (load a physics-tagged file "
            "or construct the RDM from a state)")
    phys = float(binom(r.n_particles, r.k))
    cur = float(np.trace(r.matrix).real)
    want = phys if target == PHYSICS else 1.0
    have = phys if r.normalization == PHYSICS else 1.0
    if abs(cur - have) > tol.trace_match * max(have, 1.0):
        raise NormalizationError(f"trace {cur!r} inconsistent with tag {r.normalization!r}")
    return ReducedDM(r.k, r.basis, r.matrix * (want / have), target, r.n_particles)


# ---------------------------------------------------------------------------
# tensor-space embeddings

@lru_cache(maxsize=None)
def _antisym_table(M: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Tensor positions and signs of the antisymmetrized wedge kets.

    pos[col, p] is the position in (C^M)^(x k) of permutation p of the
    ascending modes of wedge ket `col` (colex order), and sgn[p] is the sign
    of permutation p; |col> maps to sum_p sgn[p] |pos[col, p]> / sqrt(k!).
    """
    masks = colex_masks(M, k)
    bits = (masks[:, None] >> np.arange(M, dtype=np.uint64)) & np.uint64(1)
    modes = np.nonzero(bits)[1].reshape(masks.size, k)     # ascending per row
    perms = np.array(list(itertools.permutations(range(k))), dtype=np.int64)
    inv = np.triu(perms[:, :, None] > perms[:, None, :], 1).sum(axis=(1, 2))
    sgn = 1 - 2 * (inv & 1)
    pos = modes[:, perms] @ (M ** np.arange(k - 1, -1, -1, dtype=np.int64))
    return pos, sgn


@lru_cache(maxsize=None)
def _wedge_isometry(M: int, k: int) -> np.ndarray:
    """Isometry W: wedge basis -> (C^M)^(x k); columns are antisymmetrized kets."""
    pos, sgn = _antisym_table(M, k)
    W = np.zeros((M ** k, pos.shape[0]), dtype=complex)
    W[pos, np.arange(pos.shape[0])[:, None]] = sgn * (1.0 / math.sqrt(math.factorial(k)))
    return W


def embed_wedge_to_tensor(r: ReducedDM, cap: Capacities = CAP) -> TensorDM:
    """Embed a 2-particle wedge RDM into C^M x C^M via {i<j} -> (|ij>-|ji>)/sqrt(2)."""
    if r.k != 2:
        raise ShapeError(f"embedding is defined for k=2, got k={r.k}")
    M = r.basis.n_modes
    if M * M > cap.tensor_dim:
        raise CapacityError(f"tensor dimension {M * M} exceeds capacity {cap.tensor_dim}")
    W = _wedge_isometry(M, 2)
    T = W @ r.matrix @ W.conj().T
    return TensorDM(parties=2, local_dim=M, matrix=T)


def project_antisymmetric(t: TensorDM) -> TensorDM:
    """Compress a two-party matrix with P = (1 - SWAP)/2 on both sides.

    Output trace is the antisymmetric weight of the input (not unit in
    general).
    """
    if t.parties != 2:
        raise ShapeError("antisymmetric projection is defined for two parties")
    d = t.local_dim
    swap = np.eye(d * d)[np.arange(d * d).reshape(d, d).T.reshape(-1)]
    P = 0.5 * (np.eye(d * d) - swap)
    return TensorDM(parties=2, local_dim=t.local_dim, matrix=P @ t.dense() @ P)


def random_two_party_dm(local_dim: int, rank: int, seed: int) -> TensorDM:
    """Seeded random two-party density matrix: normalized Ginibre of given rank."""
    rho = ginibre_density(seeded_rng(seed), local_dim * local_dim, rank)
    return TensorDM(parties=2, local_dim=local_dim, matrix=rho)


def tensor_ptrace(t: TensorDM, keep: tuple[int, ...]) -> np.ndarray:
    """Partial trace keeping the given parties (ascending order preserved)."""
    keep = tuple(sorted(keep))
    if any(i < 0 or i >= t.parties for i in keep) or len(set(keep)) != len(keep):
        raise RangeError(f"bad party selection {keep} for {t.parties} parties")
    p = t.parties
    d = t.local_dim
    letters = "abcdefghijklmnopqrstuvwxyz"
    row = list(letters[:p])
    col = [letters[p + i] if i in keep else letters[i] for i in range(p)]
    out = "".join(row[i] for i in keep) + "".join(col[i] for i in keep)
    arr = t.dense().reshape((d,) * (2 * p))
    return np.einsum("".join(row) + "".join(col) + "->" + out,
                     arr).reshape(d ** len(keep), d ** len(keep))


def full_tensor_vector(state: PureStateN) -> np.ndarray:
    """Antisymmetrized embedding of |psi> into (C^M)^(x N), unit norm."""
    M = state.basis.n_modes
    N = state.basis.n_particles
    dim = M ** N
    if dim > CAP.brute_force:
        raise CapacityError(f"M**N = {dim} exceeds brute-force capacity {CAP.brute_force}")
    pos, sgn = _antisym_table(M, N)
    nz = np.flatnonzero(state.amplitudes)
    psi = np.zeros(dim, dtype=complex)
    amps = state.amplitudes[nz] * (1.0 / math.sqrt(math.factorial(N)))
    # distinct wedge kets have disjoint positions, so each entry is set once
    psi[pos[nz]] = sgn * amps[:, None]
    return psi


def embed_state_full(state: PureStateN | MixedStateN) -> TensorDM:
    """Embed a (possibly mixed) N-fermion state as a factored TensorDM on (C^M)^N."""
    mix = as_mixture(state)
    M = mix.basis.n_modes
    N = mix.basis.n_particles
    weights = np.asarray([w for w, _ in mix.terms], dtype=float)
    vecs = np.stack([full_tensor_vector(st) for _, st in mix.terms], axis=1)
    dim = M ** N
    dense = (vecs * weights) @ vecs.conj().T if dim <= CAP.tensor_dim else None
    return TensorDM(parties=N, local_dim=M, matrix=dense, factors=(weights, vecs))


def brute_force_reduce(state: PureStateN, k: int) -> ReducedDM:
    """Dense-oracle k-RDM: full tensor embedding, dense partial trace, compress."""
    M = state.basis.n_modes
    N = state.basis.n_particles
    if not 1 <= k <= N:
        raise RangeError(f"need 1 <= k <= N={N}, got k={k}")
    psi = full_tensor_vector(state)
    block = psi.reshape(M ** k, M ** (N - k))
    W = _wedge_isometry(M, k)
    # contract the isometry first: W^+ (B B^+) W = (W^+ B)(W^+ B)^+, which
    # avoids the M^k x M^k intermediate entirely
    Y = W.conj().T @ block
    rho = Y @ Y.conj().T
    return ReducedDM(k=k, basis=RankedBasis(M, k), matrix=rho, normalization=UNIT,
                     n_particles=N)


# ---------------------------------------------------------------------------
# fermirdm text format

def dumps_rdm(r: ReducedDM) -> str:
    """`fermirdm M k normtag` header, then one matrix row per line as re im pairs."""
    row_fmt = " ".join([FMT17] * (2 * r.matrix.shape[1]))
    rows = [row_fmt % tuple(np.column_stack((row.real, row.imag)).ravel().tolist())
            for row in r.matrix]
    return "\n".join([f"fermirdm {r.basis.n_modes} {r.k} {r.normalization}"] + rows) + "\n"


def loads_rdm(text: str) -> ReducedDM:
    rows = list(records(text, "fermirdm"))
    header = rows[0]
    try:
        _, m_s, k_s, tag = header
        M, k = int(m_s), int(k_s)
    except ValueError as exc:
        raise ShapeError(f"malformed fermirdm header: {' '.join(header)!r}") from exc
    if tag not in (UNIT, PHYSICS):
        raise NormalizationError(f"unknown normalization tag {tag!r}")
    basis = RankedBasis(M, k)
    D = basis.dim
    # count the rows before allocating, so a header alone cannot ask for D x D
    if len(rows) - 1 != D:
        raise ShapeError(f"expected {D} matrix rows, found {len(rows) - 1}")
    mat = np.zeros((D, D), dtype=complex)
    for i, fields in enumerate(rows[1:]):
        try:
            vals = [float(x) for x in fields]
        except ValueError as exc:
            raise ShapeError(f"row {i} has a non-numeric entry: {' '.join(fields)!r}") from exc
        if len(vals) != 2 * D:
            raise ShapeError(f"row {i} has {len(vals)} numbers, expected {2 * D}")
        if not all(map(math.isfinite, vals)):
            raise ShapeError(f"row {i} has a non-finite entry: {' '.join(fields)!r}")
        mat[i] = np.asarray(vals[0::2]) + 1j * np.asarray(vals[1::2])
    n_particles = None
    if tag == PHYSICS:
        # physics trace is C(N, k) with k <= N <= M; recover N by exact search
        tr = float(np.trace(mat).real)
        n_particles = next((n for n in range(k, M + 1)
                            if abs(tr - binom(n, k)) < 1e-6), None)
    return ReducedDM(k=k, basis=basis, matrix=mat, normalization=tag,
                     n_particles=n_particles)


def save_rdm(r: ReducedDM, path) -> None:
    write_text(path, dumps_rdm(r))


def load_rdm(path) -> ReducedDM:
    return loads_rdm(read_text(path))
