import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermient import (
    InvalidModeSetError,
    NonDisjointError,
    RangeError,
    RankedBasis,
    binom,
    colex_masks,
    enumerate_supersets,
    merge_sign,
    modes_of,
    modeset,
    rank,
    unrank,
)


@pytest.mark.parametrize("n", [0, 1, 5, 17, 64])
def test_binom_matches_math_comb(n):
    for k in range(n + 2):
        assert binom(n, k) == math.comb(n, k)


def test_binom_outside_triangle():
    assert binom(3, 5) == 0
    assert binom(3, -1) == 0
    assert binom(-2, 0) == 0
    with pytest.raises(RangeError):
        binom(65, 2)


def test_modeset_roundtrip():
    assert modeset([0, 3, 5]) == 0b101001
    assert modes_of(0b101001) == (0, 3, 5)
    assert modeset(()) == 0
    assert modes_of(0) == ()


def test_modeset_rejects_bad_modes():
    with pytest.raises(InvalidModeSetError):
        modeset([0, 64])
    with pytest.raises(InvalidModeSetError):
        modeset([-1])
    with pytest.raises(InvalidModeSetError):
        modeset([2, 2])


@pytest.mark.parametrize("M,N", [(4, 2), (5, 1), (6, 3), (7, 4), (8, 4), (8, 8)])
def test_colex_rank_against_sorted_subsets(M, N):
    # colex order on subsets = lexicographic on the reversed (descending) tuple
    subsets = sorted(itertools.combinations(range(M), N),
                     key=lambda s: tuple(reversed(s)))
    basis = RankedBasis(M, N)
    assert basis.dim == len(subsets)
    for idx, s in enumerate(subsets):
        bits = modeset(s)
        assert rank(basis, bits) == idx
        assert unrank(basis, idx) == bits


def test_basis_iteration_is_colex():
    basis = RankedBasis(6, 3)
    seen = list(basis)
    assert seen == [unrank(basis, r) for r in range(basis.dim)]
    assert len(set(seen)) == basis.dim


@pytest.mark.parametrize("M,N", [(0, 0), (3, 0), (3, 4), (65, 2)])
def test_basis_rejects_bad_shape(M, N):
    with pytest.raises(InvalidModeSetError):
        RankedBasis(M, N)


def test_rank_rejects_foreign_sets():
    basis = RankedBasis(5, 2)
    with pytest.raises(InvalidModeSetError):
        rank(basis, modeset([0, 5]))  # mode beyond M
    with pytest.raises(InvalidModeSetError):
        rank(basis, modeset([0, 1, 2]))  # wrong particle count
    with pytest.raises(RangeError):
        unrank(basis, basis.dim)
    with pytest.raises(RangeError):
        unrank(basis, -1)


def _merge_sign_oracle(a_modes, b_modes):
    inv = sum(1 for x in a_modes for y in b_modes if x > y)
    return -1 if inv & 1 else 1


def test_merge_sign_exhaustive_small():
    # every assignment of 8 modes to (absent, left, right)
    for assign in itertools.product(range(3), repeat=8):
        a = [m for m, where in enumerate(assign) if where == 1]
        b = [m for m, where in enumerate(assign) if where == 2]
        assert merge_sign(modeset(a), modeset(b)) == _merge_sign_oracle(a, b)


def test_merge_sign_frozen_example():
    assert merge_sign(modeset([1, 3]), modeset([0, 2])) == -1
    assert merge_sign(0, modeset([4, 7])) == 1
    assert merge_sign(modeset([4, 7]), 0) == 1


def test_merge_sign_antisymmetry():
    rng = np.random.default_rng(7)
    for _ in range(200):
        modes = [int(m) for m in rng.permutation(20)]
        na, nb = (int(v) for v in rng.integers(0, 6, size=2))
        a = modeset(modes[:na])
        b = modeset(modes[na:na + nb])
        assert merge_sign(a, b) * merge_sign(b, a) == (-1) ** (na * nb)


def test_merge_sign_requires_disjoint():
    with pytest.raises(NonDisjointError):
        merge_sign(modeset([0, 2]), modeset([2, 3]))


@settings(max_examples=40)
@given(st.sets(st.integers(min_value=0, max_value=30), max_size=10),
       st.sets(st.integers(min_value=31, max_value=63), max_size=10))
def test_merge_sign_oracle_random(a_modes, b_modes):
    a, b = sorted(a_modes), sorted(b_modes)
    assert merge_sign(modeset(a), modeset(b)) == _merge_sign_oracle(a, b)


@settings(max_examples=40)
@given(st.integers(min_value=0, max_value=binom(12, 5) - 1))
def test_unrank_roundtrip(index):
    basis = RankedBasis(12, 5)
    bits = unrank(basis, index)
    assert bits.bit_count() == 5
    assert rank(basis, bits) == index


@pytest.mark.parametrize("M,fixed,extra", [
    (6, (0, 2), 2),
    (6, (), 3),
    (7, (1, 4, 6), 1),
    (8, (0,), 4),
])
def test_enumerate_supersets(M, fixed, extra):
    basis = RankedBasis(M, max(extra, 1))
    fixed_bits = modeset(fixed)
    got = enumerate_supersets(basis, fixed_bits, extra)
    free = [m for m in range(M) if m not in fixed]
    assert len(got) == math.comb(len(free), extra)
    assert len(set(got)) == len(got)
    for s in got:
        assert s & fixed_bits == 0
        assert s.bit_count() == extra
    # colex order is preserved after relabeling back to the full mode range
    keys = [tuple(reversed(modes_of(s))) for s in got]
    assert keys == sorted(keys)


def test_enumerate_supersets_edges():
    basis = RankedBasis(5, 2)
    assert enumerate_supersets(basis, modeset([0, 1]), 0) == [0]
    with pytest.raises(InvalidModeSetError):
        enumerate_supersets(basis, modeset([0, 1]), 4)
    with pytest.raises(InvalidModeSetError):
        enumerate_supersets(basis, 1 << 5, 1)


@pytest.mark.parametrize("M", range(1, 10))
def test_colex_masks_are_ascending_and_sorted_search_ranks(M):
    for N in range(1, M + 1):
        basis = RankedBasis(M, N)
        masks = colex_masks(M, N)
        assert masks.tolist() == [unrank(basis, r) for r in range(basis.dim)]
        assert (np.diff(masks.astype(np.int64)) > 0).all()
        assert np.searchsorted(masks, masks[::-1]).tolist() == list(range(basis.dim))[::-1]


@pytest.mark.parametrize("M, N", [(M, N) for M in (10, 13, 16) for N in range(M // 2 + 1, M + 1)]
                         + [(24, 20), (24, 23)])
def test_colex_masks_above_half_filling_follow_rank(M, N):
    basis = RankedBasis(M, N)
    masks = colex_masks(M, N).tolist()
    assert [rank(basis, s) for s in masks] == list(range(basis.dim))


def test_colex_masks_never_build_the_middle_of_the_lattice():
    # C(24, 20) = 10626 masks; building every level over all 24 modes passes
    # through C(24, 12) = 2.7e6 of them
    tracemalloc.start()
    try:
        masks = colex_masks(24, 20)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert masks.size == 10626
    assert peak <= 4 * masks.nbytes


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12), st.data())
def test_enumerate_supersets_matches_scalar_relabeling(M, data):
    fixed = data.draw(st.integers(0, (1 << M) - 1))
    free = [m for m in range(M) if not (fixed >> m) & 1]
    extra = data.draw(st.integers(0, len(free)))
    want = [sum(1 << free[i] for i in c) for c in itertools.combinations(range(len(free)), extra)]
    want.sort(key=lambda s: tuple(reversed(modes_of(s))))    # colex order
    assert enumerate_supersets(RankedBasis(M, 1), fixed, extra) == want
