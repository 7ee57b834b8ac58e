"""Construction and serialization of N-fermion states on the ranked basis.

States are amplitude vectors over the colex-ranked antisymmetric basis.
Every random draw in the package comes from `seeded_rng`, a keyed Philox
stream, so every seed is bit-reproducible across platforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .config import CAP
from .errors import (CapacityError, InvalidModeSetError, NormalizationError,
                     ShapeError)
from .fockbasis import (RankedBasis, binom, colex_masks, modeset, rank,
                        spread_bits)
from .report import (FMT17, array_rows, blocks, head, read_text, records,
                     write_text)


@dataclass
class PureStateN:
    """Unit amplitude vector over RankedBasis(M, N)."""

    basis: RankedBasis
    amplitudes: np.ndarray

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        if self.amplitudes.shape != (self.basis.dim,):
            raise ShapeError(
                f"amplitude vector has shape {self.amplitudes.shape}, basis dim {self.basis.dim}")
        if not np.isfinite(self.amplitudes).all():
            raise NormalizationError("state amplitudes must be finite")
        nrm = float(np.linalg.norm(self.amplitudes))
        if abs(nrm - 1.0) > 1e-12:
            raise NormalizationError(f"state norm {nrm!r} is not 1 within 1e-12")


@dataclass
class MixedStateN:
    """Convex mixture of pure N-fermion states on a common basis."""

    basis: RankedBasis
    terms: list[tuple[float, PureStateN]]


@dataclass(frozen=True)
class YangParams:
    """Paired-state parameters: n occupied pairs out of m available (M=2m, N=2n)."""

    m: int
    n: int

    def __post_init__(self):
        if not 1 <= self.n <= self.m <= 32:
            raise InvalidModeSetError(f"need 1 <= n <= m <= 32, got m={self.m} n={self.n}")


def _guard_dim(basis: RankedBasis) -> None:
    if basis.dim > CAP.state_dim:
        raise CapacityError(
            f"basis dimension {basis.dim} exceeds capacity {CAP.state_dim}")


def slater_state(basis: RankedBasis, occupied: Iterable[int] | int) -> PureStateN:
    """Single determinant with the given occupied modes."""
    bits = occupied if isinstance(occupied, int) else modeset(occupied)
    _guard_dim(basis)
    amps = np.zeros(basis.dim, dtype=complex)
    amps[rank(basis, bits)] = 1.0
    return PureStateN(basis, amps)


def pair_modes(j: int) -> int:
    """Bitmask of pair j (1-based): modes 2j-2 and 2j-1."""
    return 0b11 << (2 * (j - 1))


def yang_state(params: YangParams) -> PureStateN:
    """Equal-amplitude superposition of all n-pair determinants on m pairs."""
    m, n = params.m, params.n
    basis = RankedBasis(2 * m, 2 * n)
    _guard_dim(basis)
    # bit j-1 of a choice of n pairs selects pair j
    bits = spread_bits(colex_masks(m, n), [pair_modes(j) for j in range(1, m + 1)])
    amps = np.zeros(basis.dim, dtype=complex)
    amps[np.searchsorted(colex_masks(2 * m, 2 * n), bits)] = 1.0 / math.sqrt(binom(m, n))
    return PureStateN(basis, amps)


def chi_pair_vector(m: int) -> PureStateN:
    """Unit-normalized uniform superposition of the m single-pair determinants."""
    return yang_state(YangParams(m, 1))


def seeded_rng(seed: int, *key: int) -> np.random.Generator:
    """The Philox stream of SeedSequence(seed, spawn_key=key)."""
    return np.random.Generator(np.random.Philox(
        np.random.SeedSequence(seed, spawn_key=key)))


def complex_normal(rng: np.random.Generator, *shape: int) -> np.ndarray:
    """g = N + iN, all real parts drawn before all imaginary parts."""
    z = rng.standard_normal((2, *shape))
    return z[0] + 1j * z[1]


def ginibre_density(rng: np.random.Generator, dim: int, rank: int) -> np.ndarray:
    """rho = g g^+ / Tr(g g^+) for g = complex_normal(rng, dim, rank)."""
    g = complex_normal(rng, dim, rank)
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_pure_state(basis: RankedBasis, seed: int) -> PureStateN:
    """Haar-like random state: complex_normal(seeded_rng(seed), dim), normalized."""
    _guard_dim(basis)
    amps = complex_normal(seeded_rng(seed), basis.dim)
    return PureStateN(basis, amps / np.linalg.norm(amps))


def convex_mixture(weights: Sequence[float], states: Sequence[PureStateN]) -> MixedStateN:
    """Mixture of pure states; weights must be positive and sum to 1 within 1e-9."""
    if len(weights) != len(states) or not states:
        raise ShapeError("need equally many (>=1) weights and states")
    basis = states[0].basis
    for st in states[1:]:
        if st.basis != basis:
            raise ShapeError("all states in a mixture must share one basis")
    w = [float(x) for x in weights]
    if not all(x > 0.0 for x in w):     # refuses NaN too
        raise NormalizationError("mixture weights must be strictly positive")
    total = sum(w)
    if not abs(total - 1.0) <= 1e-9:
        raise NormalizationError(f"weights sum to {total!r}, not 1 within 1e-9")
    w = [x / total for x in w]
    return MixedStateN(basis, list(zip(w, list(states))))


def as_mixture(state: PureStateN | MixedStateN) -> MixedStateN:
    if isinstance(state, MixedStateN):
        return state
    return MixedStateN(state.basis, [(1.0, state)])


def wedge_density(state: PureStateN | MixedStateN) -> np.ndarray:
    """Dense density matrix on the ranked antisymmetric basis. A basis
    dimension above CAP.tensor_dim, the bound on every dense matrix, raises
    CapacityError before anything is allocated."""
    mix = as_mixture(state)
    if mix.basis.dim > CAP.tensor_dim:
        raise CapacityError(
            f"density dimension {mix.basis.dim} exceeds capacity {CAP.tensor_dim}")
    rho = np.zeros((mix.basis.dim, mix.basis.dim), dtype=complex)
    for w, st in mix.terms:
        rho += w * np.outer(st.amplitudes, st.amplitudes.conj())
    return rho


def dumps_state(state: PureStateN) -> str:
    """fermistate text format: header `fermistate M N`, then `index re im` rows."""
    a = state.amplitudes
    rows = [f"%d {FMT17} {FMT17}" % (i, a[i].real, a[i].imag) for i in np.flatnonzero(a)]
    return "\n".join([f"fermistate {state.basis.n_modes} {state.basis.n_particles}"]
                     + rows) + "\n"


# one fermistate row: index, real part, imaginary part
_ROW = np.dtype([("index", np.int64), ("re", float), ("im", float)])


def _put_block(rows: np.ndarray, amps: np.ndarray, seen: np.ndarray) -> bool:
    """Write a block's `index re im` rows into amps and mark them in seen, if
    every index is new and in range; else change nothing and return False."""
    idx = rows["index"]
    order = np.sort(idx)
    if (order[0] < 0 or order[-1] >= seen.size or (order[1:] == order[:-1]).any()
            or seen[idx].any()):
        return False
    seen[idx] = True
    pairs = amps.view(float).reshape(-1, 2)    # writes each part's signed zero
    pairs[idx, 0] = rows["re"]
    pairs[idx, 1] = rows["im"]
    return True


def _walk_rows(block: str, amps: np.ndarray, seen: np.ndarray) -> None:
    """Read a block row by row: the reader of every block numpy refuses or
    whose rows fail a check, so each error names the first bad row."""
    dim = seen.size
    for fields in records(block):
        try:
            idx_s, re_s, im_s = fields
            idx, value = int(idx_s), complex(float(re_s), float(im_s))
        except ValueError as exc:
            raise ShapeError(f"malformed fermistate row: {' '.join(fields)!r}") from exc
        if not 0 <= idx < dim:
            raise ShapeError(f"amplitude index {idx} outside basis of dim {dim}")
        if seen[idx]:
            raise ShapeError(f"amplitude index {idx} appears twice")
        seen[idx] = True
        amps[idx] = value


def loads_state(text: str) -> PureStateN:
    """Parse fermistate text. The rows are read a report.blocks block at a
    time by numpy's reader; a block it refuses, or whose indices repeat or
    leave the basis, is walked row by row."""
    header, start = head(text, "fermistate")
    try:
        _, m_s, n_s = header
        basis = RankedBasis(int(m_s), int(n_s))
    except ValueError as exc:
        raise ShapeError(f"malformed fermistate header: {' '.join(header)!r}") from exc
    _guard_dim(basis)
    amps = np.zeros(basis.dim, dtype=complex)
    seen = np.zeros(basis.dim, dtype=bool)
    for block in blocks(text, start):
        rows = array_rows(block, _ROW)
        if rows is None or not _put_block(rows[:, 0], amps, seen):
            _walk_rows(block, amps, seen)
    return PureStateN(basis, amps)


def save_state(state: PureStateN, path) -> None:
    write_text(path, dumps_state(state))


def load_state(path) -> PureStateN:
    return loads_state(read_text(path))
