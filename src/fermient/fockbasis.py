"""Combinatorial indexing of antisymmetric N-particle basis states.

A basis state of N fermions in M one-particle modes is a size-N subset of
{0..M-1}, stored as an integer bitmask (mode i <-> bit i, M <= 64). Subsets
are ordered colexicographically: the rank of {s_0 < s_1 < ... < s_{N-1}} is
sum_t C(s_t, t+1). Colex compares two sets at their largest differing mode,
as integer comparison does their bitmasks, so `colex_masks` (ascending masks)
lists a basis in rank order and a sorted search in it ranks members; `rank`
and `unrank` are the scalar references.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import InvalidModeSetError, NonDisjointError, RangeError

# mode sets are uint64 bitmasks, so no other width works
MAX_MODES = 64


def binom(n: int, k: int) -> int:
    """C(n, k) for n <= MAX_MODES; 0 outside the triangle."""
    if k < 0 or k > n or n < 0:
        return 0
    if n > MAX_MODES:
        raise RangeError(f"binom covers n <= {MAX_MODES}, got {n}")
    return math.comb(n, k)


def modeset(modes: Iterable[int]) -> int:
    """Bitmask for a collection of distinct mode indices."""
    bits = 0
    for m in modes:
        if m < 0 or m >= MAX_MODES:
            raise InvalidModeSetError(f"mode {m} outside 0..{MAX_MODES - 1}")
        bit = 1 << m
        if bits & bit:
            raise InvalidModeSetError(f"mode {m} listed twice")
        bits |= bit
    return bits


def modes_of(bits: int) -> tuple[int, ...]:
    """Ascending mode indices present in a bitmask."""
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return tuple(out)


@dataclass(frozen=True)
class RankedBasis:
    """Colex-ranked basis of all N-subsets of M modes."""

    n_modes: int
    n_particles: int

    def __post_init__(self):
        if not 1 <= self.n_particles <= self.n_modes <= MAX_MODES:
            raise InvalidModeSetError(
                f"need 1 <= N <= M <= {MAX_MODES}, got M={self.n_modes} N={self.n_particles}")

    @property
    def dim(self) -> int:
        return binom(self.n_modes, self.n_particles)

    def __iter__(self) -> Iterator[int]:
        return iter(colex_masks(self.n_modes, self.n_particles).tolist())


def colex_masks(M: int, j: int) -> np.ndarray:
    """Bitmasks of all j-subsets of M modes in colex order ([0] for j = 0)."""
    masks = np.zeros(1, dtype=np.uint64)
    for t in range(j):
        # the (t+1)-subsets whose top mode is c: the t-subsets of modes < c
        # (a colex prefix of length C(c, t)) with bit c added; j - t - 1 modes
        # must still fit above c, so c stops at M - j + t
        masks = np.concatenate([masks[:binom(c, t)] | np.uint64(1 << c)
                                for c in range(t, M - j + t + 1)])
    return masks


def spread_bits(masks: np.ndarray, images: Sequence[int]) -> np.ndarray:
    """Each mask with its bit i replaced by the bitmask images[i]."""
    out = np.zeros_like(masks)
    for i, image in enumerate(images):
        out |= ((masks >> np.uint64(i)) & np.uint64(1)) * np.uint64(image)
    return out


def _check_member(basis: RankedBasis, s: int) -> None:
    if s < 0 or s >> basis.n_modes:
        raise InvalidModeSetError(
            f"mode set {bin(s)} uses modes outside 0..{basis.n_modes - 1}")
    if s.bit_count() != basis.n_particles:
        raise InvalidModeSetError(
            f"mode set has {s.bit_count()} modes, basis holds {basis.n_particles}")


def rank(basis: RankedBasis, s: int) -> int:
    """Colexicographic rank of mode set `s` in `basis`."""
    _check_member(basis, s)
    r = 0
    t = 0
    bits = s
    while bits:
        low = bits & -bits
        r += binom(low.bit_length() - 1, t + 1)
        t += 1
        bits ^= low
    return r


def unrank(basis: RankedBasis, index: int) -> int:
    """Mode set at colex rank `index` (inverse of rank)."""
    if not 0 <= index < basis.dim:
        raise RangeError(f"rank {index} outside [0, {basis.dim})")
    bits = 0
    rem = index
    for t in range(basis.n_particles, 0, -1):
        # largest c with C(c, t) <= rem
        c = t - 1
        while binom(c + 1, t) <= rem:
            c += 1
        bits |= 1 << c
        rem -= binom(c, t)
    return bits


def merge_sign(a: int, b: int) -> int:
    """Sign of sorting the concatenation (sorted a, sorted b) ascending.

    Equals the parity of sum_{i in b} |{j in a : j > i}|; a and b must be
    disjoint.
    """
    if a & b:
        raise NonDisjointError(f"mode sets overlap: {bin(a & b)}")
    swaps = 0
    bits = b
    while bits:
        low = bits & -bits
        swaps += (a >> low.bit_length()).bit_count()
        bits ^= low
    return -1 if swaps & 1 else 1


def enumerate_supersets(basis: RankedBasis, fixed: int, extra: int) -> list[int]:
    """All mode sets disjoint from `fixed` with `extra` modes, in colex order.

    Only modes of `basis` are used; `fixed` itself is not included in the
    returned sets.
    """
    if fixed < 0 or fixed >> basis.n_modes:
        raise InvalidModeSetError("fixed set uses modes outside the basis")
    avail = [m for m in range(basis.n_modes) if not (fixed >> m) & 1]
    if extra < 0 or extra > len(avail):
        raise InvalidModeSetError(
            f"cannot pick {extra} modes from {len(avail)} free ones")
    # an increasing relabeling of the modes keeps colex order
    return spread_bits(colex_masks(len(avail), extra), [1 << m for m in avail]).tolist()
