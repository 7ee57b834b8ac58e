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

Every map between the wedge and (C^M)^(x k) applies one more index table per
(M, k), `_antisym_table`, by index. The reference oracle `brute_force_reduce`
embeds the state into (C^M)^(x N) and gathers its wedge rows back through that
table, so it holds at most the M**N entries its capacity guard bounds.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .config import CAP, TOL, Tolerances
from .errors import (CapacityError, NormalizationError, RangeError,
                     ShapeError)
from .fockbasis import RankedBasis, binom, colex_masks
from .report import (FMT17, array_rows, blocks, head, read_text, records,
                     write_text)
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

    It holds a dense `matrix` or `factors`, never both: factors are
    (weights, vectors) with rho = sum_i w_i |v_i><v_i|, which low-rank paths
    read to avoid dense eigensolves at large dimension. dense() builds a
    factored state's matrix on demand, and raises CapacityError above
    CAP.tensor_dim.
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
        if self.dim > CAP.tensor_dim:
            raise CapacityError(
                f"tensor dimension {self.dim} exceeds capacity {CAP.tensor_dim}")
        w, vecs = self.factors
        return (vecs * w) @ vecs.conj().T


# K-columns per block: bounds the table build's temporaries and the size of
# each gathered block of G (and of ptrace_rdm's slabs, which also split their
# rows), which peak memory (not speed) is sensitive to
_BLOCK = 256


@lru_cache(maxsize=None)
def _gather_table(M: int, N: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Index/sign table of the k-particle reduction on RankedBasis(M, N).

    Rows are the k-sets I of RankedBasis(M, k), columns the (N-k)-sets K,
    both in colex order. idx[I, K] is the rank of I | K in RankedBasis(M, N)
    and sgn[I, K] is merge_sign(I, K); where I and K overlap, sgn is 0.
    A table whose 5 bytes per entry outweigh a tensor_dim x tensor_dim complex
    matrix, the largest array any other guard admits, raises CapacityError
    before anything is allocated.
    """
    entries = binom(M, k) * binom(M, N - k)
    if 5 * entries > 16 * CAP.tensor_dim ** 2:
        raise CapacityError(f"({M}, {N}, {k}) gather table of {entries} entries needs more "
                            f"bytes than a {CAP.tensor_dim}-dim complex matrix")
    rows = colex_masks(M, k)
    cols = colex_masks(M, N - k)
    members = colex_masks(M, N)         # ascending, so sorted search ranks
    modes = np.arange(M, dtype=np.uint64)
    row_bits = ((rows[:, None] >> modes) & np.uint64(1)).astype(float)
    # above[I, m]: modes of I above m, so merge_sign(I, K) is the parity of
    # the sum over m in K of above[I, m]; that sum is an integer of at most
    # k * (N - k), so the float GEMM that forms it is exact
    above = k - np.cumsum(row_bits, axis=1)
    idx = np.zeros((rows.size, cols.size), dtype=np.int32)
    sgn = np.zeros((rows.size, cols.size), dtype=np.int8)
    for c0 in range(0, cols.size, _BLOCK):
        block = slice(c0, c0 + _BLOCK)
        K = cols[block]
        col_bits = ((K[:, None] >> modes) & np.uint64(1)).astype(float)
        # only disjoint (I, K) get a rank and a sign; the rest stay 0
        disjoint = (rows[:, None] & K) == 0
        idx[:, block][disjoint] = np.searchsorted(members, (rows[:, None] | K)[disjoint])
        parity = (above @ col_bits.T)[disjoint].astype(np.int32) & 1
        sgn[:, block][disjoint] = 1 - 2 * parity
    return idx, sgn


def reduce_amplitudes(amps: np.ndarray, M: int, N: int, k: int) -> np.ndarray:
    """Unit-trace k-RDM matrix sum_t G_t G_t^+ / C(N, k) of amplitude rows.

    `amps` holds one amplitude vector over RankedBasis(M, N) per row, each
    already scaled by the square root of its mixture weight (a 1-D vector is
    a single pure state). G_t = sgn * amps_t[idx] over the gather table;
    the columns are accumulated in blocks of _BLOCK. A k-RDM of more than
    CAP.tensor_dim rows, the bound on every dense matrix, raises
    CapacityError before the table is built.
    """
    if not 1 <= k <= N:
        raise RangeError(f"need 1 <= k <= N={N}, got k={k}")
    rows = binom(M, k)
    if rows > CAP.tensor_dim:
        raise CapacityError(f"{k}-RDM dimension {rows} exceeds capacity {CAP.tensor_dim}")
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


def gather_amplitudes(amps: np.ndarray, M: int, N: int, k: int) -> np.ndarray:
    """G = sgn * amps[..., idx]; a unit vector amps has k-RDM G G^+ / C(N, k).
    Leading axes of amps are kept: a stack of vectors gives a stack of G."""
    idx, sgn = _gather_table(M, N, k)
    return sgn * amps[..., idx]


@lru_cache(maxsize=None)
def _scatter_plan(M: int, N: int, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat positions, basis ranks and signs of the nonzero entries of the
    (M, N, k) gather table, in row-major order."""
    idx, sgn = _gather_table(M, N, k)
    pos = np.flatnonzero(sgn)
    return pos, idx.ravel()[pos], sgn.ravel()[pos]


def scatter_amplitudes(G: np.ndarray, M: int, N: int, k: int) -> np.ndarray:
    """Adjoint of gather_amplitudes: out[..., n] sums sgn * G where idx = n.

    A stack of G is scattered by one bincount, each slice's indices offset by
    its own dim-long block, so every slice sums in the order a lone G would."""
    pos, ranks, signs = _scatter_plan(M, N, k)
    lead, dim = G.shape[:-2], binom(M, N)
    size = dim * math.prod(lead)
    at = (ranks + np.arange(0, size, dim)[:, None]).ravel()
    # the width is spelled out so that an empty stack reshapes too
    vals = (signs * G.reshape(*lead, G.shape[-2] * G.shape[-1])[..., pos]).ravel()
    out = np.bincount(at, vals.real, size) + 1j * np.bincount(at, vals.imag, size)
    return out.reshape(*lead, dim)


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
    over the (M, k, k_out) gather table, gathered a few rows A at a time so
    that no slab outgrows R.
    """
    if r.normalization != UNIT:
        raise NormalizationError("ptrace_rdm expects a unit-trace RDM")
    if not 1 <= k_out < r.k:
        raise RangeError(f"need 1 <= k_out < k={r.k}, got {k_out}")
    M = r.basis.n_modes
    idx, sgn = _gather_table(M, r.k, k_out)
    rows, cols = idx.shape
    # out's rows are gathered `part` at a time, so that no (part, rows, _BLOCK)
    # slab holds more entries than R; each entry sums the same column blocks
    part = max(1, r.matrix.size // (rows * min(cols, _BLOCK)))
    out = np.zeros((rows, rows), dtype=complex)
    for a0, c0 in itertools.product(range(0, rows, part), range(0, cols, _BLOCK)):
        a, x = slice(a0, a0 + part), slice(c0, c0 + _BLOCK)
        out[a] += np.einsum("ax,bx,abx->ab", sgn[a, x], sgn[:, x],
                            r.matrix[idx[a, x][:, None], idx[:, x][None, :]])
    out /= binom(r.k, k_out)
    return ReducedDM(k=k_out, basis=RankedBasis(M, k_out), matrix=out,
                     normalization=UNIT, n_particles=r.n_particles)


def rescale(r: ReducedDM, target: str, tol: Tolerances = TOL) -> ReducedDM:
    """Switch between unit-trace and physics (trace C(N,k)) normalization."""
    if target not in (UNIT, PHYSICS):
        raise NormalizationError(f"unknown normalization tag {target!r}")
    if target == r.normalization:
        return ReducedDM(r.k, r.basis, r.matrix.copy(), r.normalization, r.n_particles)
    if r.n_particles is None and r.normalization == PHYSICS:
        with np.errstate(over="ignore"):      # an overflowed trace is named as inf
            tr = float(np.trace(r.matrix).real)
        raise NormalizationError(
            f"particle count unknown: the physics-tagged trace {tr!r} is near no "
            f"C(n, {r.k}) for {r.k} <= n <= {r.basis.n_modes}")
    if r.n_particles is None:
        raise NormalizationError(
            "particle count unknown; cannot rescale (load a physics-tagged file "
            "or construct the RDM from a state)")
    phys = float(binom(r.n_particles, r.k))
    cur = float(np.trace(r.matrix).real)
    want = phys if target == PHYSICS else 1.0
    have = phys if r.normalization == PHYSICS else 1.0
    if not abs(cur - have) <= tol.unit_trace * max(have, 1.0):
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


def embed_wedge_to_tensor(r: ReducedDM) -> TensorDM:
    """Embed a 2-particle wedge RDM into C^M x C^M via {i<j} -> (|ij>-|ji>)/sqrt(2)."""
    if r.k != 2:
        raise ShapeError(f"embedding is defined for k=2, got k={r.k}")
    M = r.basis.n_modes
    if M * M > CAP.tensor_dim:
        raise CapacityError(f"tensor dimension {M * M} exceeds capacity {CAP.tensor_dim}")
    pos, sgn = _antisym_table(M, 2)
    c = 1.0 / math.sqrt(2.0)
    T = np.zeros((M * M, M * M), dtype=complex)
    # T[pos[a, p], pos[b, q]] = sgn[p] sgn[q] R[a, b] / 2; distinct wedge kets
    # have disjoint positions, so each entry is set once
    T[pos[:, :, None, None], pos] = ((sgn[:, None, None] * sgn)
                                     * ((r.matrix[:, None, :, None] * c) * c))
    return TensorDM(parties=2, local_dim=M, matrix=T)


def project_antisymmetric(t: TensorDM) -> TensorDM:
    """Compress a two-party matrix with P = (1 - SWAP)/2 on both sides.

    Output trace is the antisymmetric weight of the input (not unit in
    general).
    """
    if t.parties != 2:
        raise ShapeError("antisymmetric projection is defined for two parties")
    d = t.local_dim
    x = t.dense().reshape(d, d, d, d)
    x = x - x.transpose(1, 0, 2, 3)         # (1 - SWAP) X: swap the row parties
    x = x - x.transpose(0, 1, 3, 2)         # ... (1 - SWAP): and the column ones
    return TensorDM(parties=2, local_dim=d, matrix=0.25 * x.reshape(d * d, d * d))


def random_two_party_dm(local_dim: int, rank: int, seed: int) -> TensorDM:
    """Seeded random two-party density matrix: normalized Ginibre of given rank.
    A dimension local_dim**2 above CAP.tensor_dim raises CapacityError before
    anything is allocated."""
    dim = local_dim * local_dim
    if dim > CAP.tensor_dim:
        raise CapacityError(f"tensor dimension {dim} exceeds capacity {CAP.tensor_dim}")
    rho = ginibre_density(seeded_rng(seed), dim, rank)
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
    return TensorDM(parties=N, local_dim=M, matrix=None, factors=(weights, vecs))


def brute_force_reduce(state: PureStateN, k: int) -> ReducedDM:
    """Reference k-RDM Y Y^+, with Y = W^+ B for B the (M**k, M**(N-k)) reshape
    of the full tensor vector and W the wedge isometry. Y = sum_p sgn[p]
    B[pos[:, p]] / sqrt(k!) is gathered by index: no array exceeds M**N entries."""
    M = state.basis.n_modes
    N = state.basis.n_particles
    if not 1 <= k <= N:
        raise RangeError(f"need 1 <= k <= N={N}, got k={k}")
    block = full_tensor_vector(state).reshape(M ** k, M ** (N - k))
    pos, sgn = _antisym_table(M, k)
    Y = np.tensordot(sgn, block[pos], axes=(0, 1)) * (1.0 / math.sqrt(math.factorial(k)))
    rho = Y @ Y.conj().T
    return ReducedDM(k=k, basis=RankedBasis(M, k), matrix=rho, normalization=UNIT,
                     n_particles=N)


# ---------------------------------------------------------------------------
# fermirdm text format

def dumps_rdm(r: ReducedDM) -> str:
    """`fermirdm M k normtag` header, then one matrix row per line as re im pairs."""
    row_fmt = " ".join([FMT17] * (2 * r.matrix.shape[1]))
    rows = [row_fmt % tuple(row.tolist())
            for row in np.ascontiguousarray(r.matrix).view(float)]
    return "\n".join([f"fermirdm {r.basis.n_modes} {r.k} {r.normalization}"] + rows) + "\n"


def _walk_rows(block: str, first: int, D: int) -> np.ndarray:
    """A block's matrix rows, row `first` first, read row by row: the reader
    of every block numpy refuses or whose rows fail a check, so each error
    names the first bad row."""
    rows = []
    for i, fields in enumerate(records(block), first):
        try:
            vals = [float(x) for x in fields]
        except ValueError as exc:
            raise ShapeError(f"row {i} has a non-numeric entry: {' '.join(fields)!r}") from exc
        if len(vals) != 2 * D:
            raise ShapeError(f"row {i} has {len(vals)} numbers, expected {2 * D}")
        if not all(map(math.isfinite, vals)):
            raise ShapeError(f"row {i} has a non-finite entry: {' '.join(fields)!r}")
        rows.append(vals)
    return np.array(rows, dtype=float).reshape(-1, 2 * D)


def loads_rdm(text: str) -> ReducedDM:
    """Parse fermirdm text. The rows are read a report.blocks block at a time
    by numpy's reader; a block it refuses, or whose rows hold the wrong count
    or a non-finite number, is walked row by row."""
    header, start = head(text, "fermirdm")
    try:
        _, m_s, k_s, tag = header
        M, k = int(m_s), int(k_s)
    except ValueError as exc:
        raise ShapeError(f"malformed fermirdm header: {' '.join(header)!r}") from exc
    if tag not in (UNIT, PHYSICS):
        raise NormalizationError(f"unknown normalization tag {tag!r}")
    basis = RankedBasis(M, k)
    D = basis.dim
    # only parsed rows are kept, each checked to hold D entries, and they are
    # joined after the count, so a header alone cannot ask for D x D
    parts, n_rows = [], 0
    for block in blocks(text, start):
        rows = array_rows(block, np.dtype(float))
        if rows is None or rows.shape[1] != 2 * D or not np.isfinite(rows).all():
            rows = _walk_rows(block, n_rows, D)
        parts.append(rows)
        n_rows += len(rows)
    if n_rows != D:
        raise ShapeError(f"expected {D} matrix rows, found {n_rows}")
    mat = np.concatenate(parts).view(complex)     # keeps the sign of a zero
    n_particles = None
    if tag == PHYSICS:
        # physics trace is C(N, k) with k <= N <= M; N is the n whose C(n, k) is
        # the integer nearest the trace, and rescale judges the match by
        # unit_trace (a comparison, not round(), so an overflowed trace is no N)
        with np.errstate(over="ignore"):
            tr = float(np.trace(mat).real)
        n_particles = next((n for n in range(k, M + 1)
                            if abs(tr - binom(n, k)) < 0.5), None)
    return ReducedDM(k=k, basis=basis, matrix=mat, normalization=tag,
                     n_particles=n_particles)


def save_rdm(r: ReducedDM, path) -> None:
    write_text(path, dumps_rdm(r))


def load_rdm(path) -> ReducedDM:
    return loads_rdm(read_text(path))
