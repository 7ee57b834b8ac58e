import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from fermient import (
    CAP,
    PHYSICS,
    UNIT,
    CapacityError,
    NormalizationError,
    PureStateN,
    RangeError,
    RankedBasis,
    ShapeError,
    YangParams,
    brute_force_reduce,
    convex_mixture,
    dumps_rdm,
    dumps_state,
    embed_state_full,
    embed_wedge_to_tensor,
    load_rdm,
    loads_rdm,
    loads_state,
    modeset,
    pair_modes,
    project_antisymmetric,
    ptrace_rdm,
    random_pure_state,
    random_two_party_dm,
    rank,
    reduce_mixed,
    reduce_pure,
    rescale,
    save_rdm,
    slater_state,
    tensor_ptrace,
    yang_state,
)
from fermient.fockbasis import enumerate_supersets, merge_sign, modes_of, unrank
from fermient.rdmcore import ReducedDM, TensorDM, _antisym_table


def _spectrum(mat):
    return np.sort(np.linalg.eigvalsh(mat))[::-1]


def test_slater_rdm_flat_spectra():
    st = slater_state(RankedBasis(6, 4), (0, 1, 2, 3))
    for k in (1, 2, 3):
        rho = reduce_pure(st, k)
        occ = math.comb(4, k)
        lam = _spectrum(rho.matrix)
        np.testing.assert_allclose(lam[:occ], 1.0 / occ, atol=1e-14)
        np.testing.assert_allclose(lam[occ:], 0.0, atol=1e-14)
        assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-13)


def test_slater_two_rdm_support():
    st = slater_state(RankedBasis(5, 3), (0, 2, 4))
    rho = reduce_pure(st, 2).matrix
    basis2 = RankedBasis(5, 2)
    inside = [rank(basis2, modeset(p)) for p in ((0, 2), (0, 4), (2, 4))]
    for i in range(basis2.dim):
        want = 1.0 / 3.0 if i in inside else 0.0
        assert rho[i, i].real == pytest.approx(want, abs=1e-14)
    off = rho.copy()
    off[np.diag_indices_from(off)] = 0.0
    assert np.abs(off).max() == 0.0  # determinants have diagonal RDMs


def test_yang_pair_rdm_spectrum():
    # m=3 pairs, n=2 occupied: one large eigenvalue, 14 equal small ones
    rho = reduce_pure(yang_state(YangParams(3, 2)), 2).matrix
    lam = _spectrum(rho)
    np.testing.assert_allclose(lam[0], 2.0 / 9.0, atol=1e-13)
    np.testing.assert_allclose(lam[1:], 1.0 / 18.0, atol=1e-13)


@pytest.mark.parametrize("m,n,diag_pair,offdiag,diag_mixed", [
    (3, 2, 2 / 3, 1 / 3, 1 / 3),
    (4, 2, 1 / 2, 1 / 3, 1 / 6),
])
def test_yang_physics_entries(m, n, diag_pair, offdiag, diag_mixed):
    rho = rescale(reduce_pure(yang_state(YangParams(m, n)), 2), PHYSICS)
    assert np.trace(rho.matrix).real == pytest.approx(math.comb(2 * n, 2), abs=1e-12)
    basis2 = rho.basis
    r1 = rank(basis2, pair_modes(1))
    r2 = rank(basis2, pair_modes(2))
    mixed = rank(basis2, modeset((0, 2)))
    assert rho.matrix[r1, r1].real == pytest.approx(diag_pair, abs=1e-13)
    assert rho.matrix[r1, r2].real == pytest.approx(offdiag, abs=1e-13)
    assert rho.matrix[mixed, mixed].real == pytest.approx(diag_mixed, abs=1e-13)


def test_reduce_mixed_is_linear():
    basis = RankedBasis(5, 2)
    s1 = random_pure_state(basis, seed=1)
    s2 = random_pure_state(basis, seed=2)
    mix = convex_mixture([0.3, 0.7], [s1, s2])
    got = reduce_mixed(mix, 1).matrix
    want = 0.3 * reduce_pure(s1, 1).matrix + 0.7 * reduce_pure(s2, 1).matrix
    np.testing.assert_allclose(got, want, atol=1e-15)


def test_reduce_k_bounds():
    st = slater_state(RankedBasis(4, 2), (0, 1))
    with pytest.raises(RangeError):
        reduce_pure(st, 0)
    with pytest.raises(RangeError):
        reduce_pure(st, 3)


def test_ptrace_matches_direct_reduction():
    st = random_pure_state(RankedBasis(6, 3), seed=5)
    via_two = ptrace_rdm(reduce_pure(st, 2), 1)
    direct = reduce_pure(st, 1)
    np.testing.assert_allclose(via_two.matrix, direct.matrix, atol=1e-13)
    assert via_two.normalization == UNIT
    assert via_two.n_particles == 3


def test_ptrace_validation():
    st = slater_state(RankedBasis(5, 3), (0, 1, 2))
    r2 = reduce_pure(st, 2)
    with pytest.raises(RangeError):
        ptrace_rdm(r2, 2)
    with pytest.raises(NormalizationError):
        ptrace_rdm(rescale(r2, PHYSICS), 1)


def test_rescale_roundtrip_and_errors():
    st = yang_state(YangParams(3, 2))
    r = reduce_pure(st, 2)
    phys = rescale(r, PHYSICS)
    assert np.trace(phys.matrix).real == pytest.approx(6.0, abs=1e-12)
    back = rescale(phys, UNIT)
    np.testing.assert_allclose(back.matrix, r.matrix, atol=1e-15)
    with pytest.raises(NormalizationError):
        rescale(r, "bogus")
    orphan = dataclasses.replace(r, n_particles=None)
    with pytest.raises(NormalizationError):
        rescale(orphan, PHYSICS)
    lying = dataclasses.replace(r, matrix=2.0 * r.matrix)
    with pytest.raises(NormalizationError):
        rescale(lying, PHYSICS)


def test_embed_preserves_spectrum_and_marginals():
    st = yang_state(YangParams(3, 2))
    r2 = reduce_pure(st, 2)
    t = embed_wedge_to_tensor(r2)
    assert t.parties == 2 and t.local_dim == 6
    assert np.trace(t.dense()).real == pytest.approx(1.0, abs=1e-12)
    lam_w = _spectrum(r2.matrix)
    lam_t = _spectrum(t.dense())
    np.testing.assert_allclose(lam_t[:len(lam_w)], lam_w, atol=1e-12)
    np.testing.assert_allclose(lam_t[len(lam_w):], 0.0, atol=1e-12)
    # both one-party marginals coincide with the 1-RDM matrix
    r1 = reduce_pure(st, 1).matrix
    np.testing.assert_allclose(tensor_ptrace(t, (0,)), r1, atol=1e-12)
    np.testing.assert_allclose(tensor_ptrace(t, (1,)), r1, atol=1e-12)


def test_embed_requires_pairs_and_capacity(monkeypatch):
    from fermient import rdmcore

    st = slater_state(RankedBasis(4, 3), (0, 1, 2))
    with pytest.raises(ShapeError):
        embed_wedge_to_tensor(reduce_pure(st, 1))
    r2 = reduce_pure(st, 2)
    monkeypatch.setattr(rdmcore, "CAP", dataclasses.replace(CAP, tensor_dim=8))
    with pytest.raises(CapacityError):
        embed_wedge_to_tensor(r2)


def test_antisymmetric_projection_weight():
    t = random_two_party_dm(local_dim=4, rank=3, seed=8)
    proj = project_antisymmetric(t)
    pur = np.trace(tensor_ptrace(t, (0,)) @ tensor_ptrace(t, (0,))).real
    # product input rho x rho: antisymmetric weight (1 - Tr rho^2) / 2
    rho = tensor_ptrace(t, (0,))
    prod = dataclasses.replace(t, matrix=np.kron(rho, rho))
    w = np.trace(project_antisymmetric(prod).dense()).real
    assert w == pytest.approx(0.5 * (1.0 - pur), abs=1e-12)
    # projection is idempotent
    np.testing.assert_allclose(project_antisymmetric(proj).dense(),
                               proj.dense(), atol=1e-12)


def test_embedded_fermion_state_is_fully_antisymmetric():
    st = random_pure_state(RankedBasis(4, 2), seed=3)
    t = embed_wedge_to_tensor(reduce_pure(st, 2))
    np.testing.assert_allclose(project_antisymmetric(t).dense(), t.dense(),
                               atol=1e-12)


@pytest.mark.parametrize("M,N,k", [(4, 2, 1), (5, 3, 2), (6, 3, 3), (4, 4, 2)])
def test_brute_force_agrees(M, N, k):
    st = random_pure_state(RankedBasis(M, N), seed=M * 10 + N)
    fast = reduce_pure(st, k).matrix
    slow = brute_force_reduce(st, k).matrix
    np.testing.assert_allclose(fast, slow, atol=1e-12)


def test_reduction_refuses_a_k_rdm_above_tensor_dim_before_its_table(monkeypatch):
    # C(6, 2) = 15 rows against a bound of 8: refused before any gather table
    from fermient import rdmcore

    monkeypatch.setattr(rdmcore, "CAP", dataclasses.replace(CAP, tensor_dim=8))
    st = random_pure_state(RankedBasis(6, 3), seed=2)
    before = rdmcore._gather_table.cache_info()
    with pytest.raises(CapacityError, match="2-RDM dimension 15"):
        reduce_mixed(st, 2)
    assert rdmcore._gather_table.cache_info() == before
    assert reduce_mixed(st, 1).matrix.shape == (6, 6)


def test_reduction_refuses_a_gather_table_above_a_tensor_dim_matrix(monkeypatch):
    # at tensor_dim 8 the table may hold 16 * 64 / 5 = 204 entries; an (8, 4)
    # state at k = 1 needs C(8, 1) * C(8, 3) = 448 while its 1-RDM has 8 rows
    from fermient import rdmcore

    rdmcore._gather_table.cache_clear()
    monkeypatch.setattr(rdmcore, "CAP", dataclasses.replace(CAP, tensor_dim=8))
    st = random_pure_state(RankedBasis(8, 4), seed=2)
    with pytest.raises(CapacityError, match="gather table of 448 entries"):
        reduce_mixed(st, 1)
    assert rdmcore._gather_table.cache_info().currsize == 0


def test_brute_force_capacity():
    st = slater_state(RankedBasis(10, 6), (0, 1, 2, 3, 4, 5))
    with pytest.raises(CapacityError):
        brute_force_reduce(st, 2)


def test_embed_state_full_matches_dense():
    st = random_pure_state(RankedBasis(4, 2), seed=6)
    t = embed_state_full(st)
    assert t.matrix is None
    np.testing.assert_allclose(t.dense(),
                               t.factors[1] @ np.diag(t.factors[0]) @ t.factors[1].conj().T,
                               atol=1e-14)
    np.testing.assert_allclose(tensor_ptrace(t, (0,)),
                               reduce_pure(st, 1).matrix, atol=1e-12)


def test_embed_state_full_builds_no_dense_matrix():
    # the 1296-dim dense matrix would take 26.9 MB; dense() builds it on demand
    st = random_pure_state(RankedBasis(6, 4), seed=1)
    tracemalloc.start()
    try:
        t = embed_state_full(st)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert t.matrix is None and peak <= 1e6
    w, vecs = t.factors
    assert t.dense().tobytes() == ((vecs * w) @ vecs.conj().T).tobytes()


def test_random_two_party_dm_properties():
    t = random_two_party_dm(local_dim=3, rank=2, seed=11)
    rho = t.dense()
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-13)
    np.testing.assert_allclose(rho, rho.conj().T, atol=1e-15)
    lam = np.linalg.eigvalsh(rho)
    assert lam.min() >= -1e-13
    assert (lam > 1e-10).sum() == 2
    same = random_two_party_dm(local_dim=3, rank=2, seed=11)
    assert same.dense().tobytes() == rho.tobytes()


def test_random_two_party_dm_refuses_a_dimension_above_tensor_dim(monkeypatch):
    # local_dim 3 gives a 9 x 9 matrix against a bound of 8
    from fermient import rdmcore

    monkeypatch.setattr(rdmcore, "CAP", dataclasses.replace(CAP, tensor_dim=8))
    with pytest.raises(CapacityError, match="tensor dimension 9"):
        random_two_party_dm(3, 1, 0)
    assert random_two_party_dm(2, 1, 0).dense().shape == (4, 4)


def test_tensor_ptrace_validation():
    t = random_two_party_dm(local_dim=2, rank=1, seed=0)
    with pytest.raises(RangeError):
        tensor_ptrace(t, (0, 2))
    with pytest.raises(RangeError):
        tensor_ptrace(t, (1, 1))


def test_fermirdm_roundtrip(tmp_path):
    st = random_pure_state(RankedBasis(5, 2), seed=14)
    r = reduce_pure(st, 2)
    text = dumps_rdm(r)
    back = loads_rdm(text)
    np.testing.assert_allclose(back.matrix, r.matrix, atol=1e-15)
    assert back.normalization == UNIT
    assert back.n_particles is None  # unit files carry no particle count
    assert dumps_rdm(back) == text
    p = tmp_path / "r.fermirdm"
    save_rdm(r, p)
    np.testing.assert_allclose(load_rdm(p).matrix, r.matrix, atol=1e-15)


def test_text_formats_keep_the_sign_of_a_zero_real_part():
    # 17 digits round-trip every double, -0.0 included, and a real part of
    # -0.0 beside a nonnegative imaginary part keeps its sign
    amps = np.array([complex(-0.0, 0.6), complex(0.8, 0.0), 0.0, 0.0, 0.0, 0.0])
    st = PureStateN(RankedBasis(4, 2), amps)
    assert loads_state(dumps_state(st)).amplitudes.tobytes() == amps.tobytes()
    mat = np.array([[0.5, complex(-0.0, 0.25)], [complex(-0.0, -0.25), 0.5]])
    r = ReducedDM(k=1, basis=RankedBasis(2, 1), matrix=mat, normalization=UNIT)
    back = loads_rdm(dumps_rdm(r))
    assert back.matrix.tobytes() == mat.tobytes()
    assert dumps_rdm(back) == dumps_rdm(r)


def test_fermirdm_load_holds_about_the_matrix_it_reads():
    # parsed rows are kept, not all of the text's lines or fields: a dense
    # (10, 5) 3-RDM, 120 x 120, whose text is 2.9 times the matrix's bytes
    r = reduce_pure(random_pure_state(RankedBasis(10, 5), seed=3), 3)
    text = dumps_rdm(r)
    loads_rdm(text)
    tracemalloc.start()
    try:
        back = loads_rdm(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back.matrix.tobytes() == r.matrix.tobytes()
    assert peak <= 3 * r.matrix.nbytes


def test_ptrace_rdm_gathers_no_slab_larger_than_its_input():
    # (10, 5) 5 -> 4: 210 rows and 10 columns, so whole-row slabs would hold
    # 210 x 210 x 10 entries, seven times the 252 x 252 input
    r = reduce_pure(random_pure_state(RankedBasis(10, 5), seed=3), 5)
    ptrace_rdm(r, 4)                    # builds the gather table
    tracemalloc.start()
    try:
        out = ptrace_rdm(r, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    direct = reduce_pure(random_pure_state(RankedBasis(10, 5), seed=3), 4).matrix
    np.testing.assert_allclose(out.matrix, direct, rtol=0, atol=1e-15)
    assert peak <= 2 * r.matrix.nbytes


def test_fermirdm_physics_recovers_particle_count():
    r = rescale(reduce_pure(yang_state(YangParams(3, 2)), 2), PHYSICS)
    back = loads_rdm(dumps_rdm(r))
    assert back.n_particles == 4
    unit = rescale(back, UNIT)
    assert np.trace(unit.matrix).real == pytest.approx(1.0, abs=1e-12)


def test_fermirdm_malformed():
    r = reduce_pure(slater_state(RankedBasis(4, 2), (0, 1)), 1)
    good = dumps_rdm(r)
    with pytest.raises(ShapeError):
        loads_rdm("fermistate 4 2\n")
    with pytest.raises(ShapeError):
        loads_rdm("\n".join(good.splitlines()[:-1]) + "\n")  # row missing
    with pytest.raises(NormalizationError):
        loads_rdm(good.replace(UNIT, "half"))
    clipped = good.splitlines()
    clipped[1] = " ".join(clipped[1].split()[:-1])
    with pytest.raises(ShapeError):
        loads_rdm("\n".join(clipped) + "\n")
    # comment lines are transparent
    assert np.array_equal(loads_rdm("# note\n" + good).matrix, r.matrix)


def test_fermirdm_non_numeric_entry_is_shape_error():
    good = dumps_rdm(reduce_pure(slater_state(RankedBasis(4, 2), (0, 1)), 1))
    rows = good.splitlines()
    rows[1] = " ".join(["x"] + rows[1].split()[1:])
    with pytest.raises(ShapeError):
        loads_rdm("\n".join(rows) + "\n")


def test_gather_table_matches_scalar_reference():
    # every entry against the per-element rank/merge_sign definitions
    from fermient.rdmcore import _gather_table

    for M in range(1, 8):
        for N in range(1, M + 1):
            full = RankedBasis(M, N)
            for k in range(1, N + 1):
                sub = RankedBasis(M, k)
                idx, sgn = _gather_table(M, N, k)
                comp = enumerate_supersets(sub, 0, N - k)
                assert idx.shape == sgn.shape == (sub.dim, len(comp))
                for row in range(sub.dim):
                    I = unrank(sub, row)
                    for col, K in enumerate(comp):
                        if I & K:
                            assert sgn[row, col] == 0
                        else:
                            assert idx[row, col] == rank(full, I | K)
                            assert sgn[row, col] == merge_sign(I, K)


def _all_entries_table(M, N, k):
    # the table as first built: a rank for every (I, K), overlapping or not,
    # int32 parity products, and np.where to zero the overlapping entries
    from fermient.fockbasis import colex_masks

    rows, cols, members = colex_masks(M, k), colex_masks(M, N - k), colex_masks(M, N)
    modes = np.arange(M, dtype=np.uint64)
    row_bits = ((rows[:, None] >> modes) & np.uint64(1)).astype(np.int32)
    above = k - np.cumsum(row_bits, axis=1, dtype=np.int32)
    idx = np.zeros((rows.size, cols.size), dtype=np.int32)
    sgn = np.zeros((rows.size, cols.size), dtype=np.int8)
    for c0 in range(0, cols.size, 256):
        K = cols[c0:c0 + 256]
        ranks = np.searchsorted(members, rows[:, None] | K)
        col_bits = ((K[:, None] >> modes) & np.uint64(1)).astype(np.int32)
        parity = (above @ col_bits.T) & 1
        disjoint = (rows[:, None] & K) == 0
        idx[:, c0:c0 + K.size] = np.where(disjoint, ranks, 0)
        sgn[:, c0:c0 + K.size] = np.where(disjoint, 1 - 2 * parity, 0)
    return idx, sgn


def test_gather_table_is_byte_equal_to_the_all_entries_formula():
    # (40, 39, 1) and (34, 33, 2) hold masks past bit 31
    from fermient.rdmcore import _gather_table

    cases = [(M, N, k) for M in range(1, 13) for N in range(1, M + 1)
             for k in range(1, N + 1)] + [(14, 7, 2), (40, 39, 1), (34, 33, 2)]
    for M, N, k in cases:
        assert 5 * math.comb(M, k) * math.comb(M, N - k) <= 16 * CAP.tensor_dim ** 2
        got, want = _gather_table(M, N, k), _all_entries_table(M, N, k)
        for g, w in zip(got, want):
            assert (g.dtype, g.shape) == (w.dtype, w.shape), (M, N, k)
            assert g.tobytes() == w.tobytes(), (M, N, k)


@pytest.mark.parametrize("M,N,k", [(4, 2, 1), (5, 3, 1), (5, 3, 2), (5, 3, 3),
                                   (6, 4, 2), (7, 3, 3), (8, 4, 2), (8, 4, 3)])
def test_scatter_is_the_adjoint_of_gather(M, N, k):
    # <gather(psi), X> = <psi, scatter(X)>
    from fermient.rdmcore import gather_amplitudes, scatter_amplitudes
    from fermient.statekit import complex_normal, seeded_rng

    rng = seeded_rng(M, N, k)
    psi = complex_normal(rng, math.comb(M, N))
    X = complex_normal(rng, math.comb(M, k), math.comb(M, N - k))
    G = gather_amplitudes(psi, M, N, k)
    assert G.shape == X.shape
    lhs = np.vdot(G, X)
    rhs = np.vdot(psi, scatter_amplitudes(X, M, N, k))
    assert abs(lhs - rhs) <= 1e-12
    # and the gather is the reduction's: G G^+ / C(N, k) is the k-RDM
    unit = psi / np.linalg.norm(psi)
    rho = reduce_pure(PureStateN(RankedBasis(M, N), unit), k).matrix
    G = gather_amplitudes(unit, M, N, k)
    np.testing.assert_allclose(G @ G.conj().T / math.comb(N, k), rho, atol=1e-14)


@pytest.mark.parametrize("M,N", [(5, 3), (6, 4), (7, 3)])
def test_scatter_plan_keeps_the_bytes_of_the_masked_scatter(M, N):
    # the cached plan sums in the row-major order of the boolean-mask scatter
    # below, for a 2-D G, 1- and 3-lane stacks, a conjugate-transposed view
    # and an empty stack
    from fermient import rdmcore
    from fermient.statekit import complex_normal, seeded_rng

    def masked(G):
        idx, sgn = rdmcore._gather_table(M, N, 2)
        nz = sgn != 0
        lead, dim = G.shape[:-2], math.comb(M, N)
        size = dim * math.prod(lead)
        at = (idx[nz] + np.arange(0, size, dim)[:, None]).ravel()
        vals = (sgn[nz] * G[..., nz]).ravel()
        out = np.bincount(at, vals.real, size) + 1j * np.bincount(at, vals.imag, size)
        return out.reshape(*lead, dim)

    rng = seeded_rng(M, N)
    shape = (math.comb(M, 2), math.comb(M, N - 2))
    stacks = [complex_normal(rng, *shape), complex_normal(rng, 1, *shape),
              complex_normal(rng, 3, *shape)]
    stacks.append(np.ascontiguousarray(stacks[-1].conj().swapaxes(-1, -2))
                  .conj().swapaxes(-1, -2))
    stacks.append(np.zeros((0, *shape), dtype=complex))
    rdmcore.scatter_amplitudes(stacks[0], M, N, 2)
    misses = rdmcore._scatter_plan.cache_info().misses
    for G in stacks:
        assert rdmcore.scatter_amplitudes(G, M, N, 2).tobytes() == masked(G).tobytes()
    assert rdmcore._scatter_plan.cache_info().misses == misses


@pytest.mark.parametrize("M,N,k", [(4, 2, 1), (5, 3, 2), (5, 3, 3), (6, 2, 2)])
def test_mixed_reduction_agrees_with_brute_force(M, N, k):
    basis = RankedBasis(M, N)
    weights = [0.5, 0.3, 0.2]
    states = [random_pure_state(basis, seed=100 + i) for i in range(3)]
    fast = reduce_mixed(convex_mixture(weights, states), k).matrix
    slow = sum(w * brute_force_reduce(st, k).matrix for w, st in zip(weights, states))
    np.testing.assert_allclose(fast, slow, atol=1e-12)


@pytest.mark.parametrize("M,N,k,k_out", [(6, 4, 3, 1), (6, 4, 3, 2), (6, 4, 4, 1),
                                         (5, 3, 3, 2)])
def test_ptrace_skips_several_particles(M, N, k, k_out):
    st = random_pure_state(RankedBasis(M, N), seed=M + N + k)
    via = ptrace_rdm(reduce_pure(st, k), k_out).matrix
    np.testing.assert_allclose(via, reduce_pure(st, k_out).matrix, atol=1e-13)


def test_fermirdm_magic_word_is_exact(tmp_path):
    good = dumps_rdm(reduce_pure(slater_state(RankedBasis(4, 2), (0, 1)), 1))
    p = tmp_path / "x.fermirdm"
    p.write_text(good.replace("fermirdm", "fermirdmx", 1))
    with pytest.raises(ShapeError, match="not a fermirdm file"):
        load_rdm(p)


def test_fermirdm_physics_count_is_searched_up_to_the_modes():
    # trace 10 = C(10, 1) would need 10 particles on 4 modes
    zeros = " 0 0" * 3 + "\n"
    r = loads_rdm("fermirdm 4 1 physics\n10 0" + zeros + ("0 0" + zeros) * 3)
    assert r.n_particles is None
    with pytest.raises(NormalizationError, match="particle count unknown"):
        rescale(r, UNIT)


def _complex_normal(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("M", range(2, 9))
def test_embedding_matches_dense_wedge_isometry(M):
    # column {i<j} of W is (|ij> - |ji>)/sqrt(2), |ij> at position i*M + j
    basis = RankedBasis(M, 2)
    W = np.zeros((M * M, basis.dim))
    for col, bits in enumerate(basis):
        i, j = modes_of(bits)
        W[i * M + j, col], W[j * M + i, col] = 1 / math.sqrt(2), -1 / math.sqrt(2)
    R = _complex_normal(np.random.default_rng(M), (basis.dim, basis.dim))
    t = embed_wedge_to_tensor(ReducedDM(k=2, basis=basis, matrix=R))
    np.testing.assert_allclose(t.dense(), W @ R @ W.T, rtol=0, atol=1e-15)


@pytest.mark.parametrize("d", range(2, 6))
def test_antisymmetric_projection_matches_dense_projector(d):
    # SWAP |ab> = |ba>; any complex matrix, not only a density matrix
    swap = np.zeros((d * d, d * d))
    for a in range(d):
        for b in range(d):
            swap[b * d + a, a * d + b] = 1.0
    P = 0.5 * (np.eye(d * d) - swap)
    X = _complex_normal(np.random.default_rng(d), (d * d, d * d))
    out = project_antisymmetric(TensorDM(parties=2, local_dim=d, matrix=X)).dense()
    np.testing.assert_allclose(out, P @ X @ P, rtol=0, atol=1e-15)


def test_brute_force_memory_stays_within_its_guard():
    st = random_pure_state(RankedBasis(8, 5), seed=85)
    for k in range(1, 6):
        np.testing.assert_allclose(brute_force_reduce(st, k).matrix,
                                   reduce_pure(st, k).matrix, rtol=0, atol=1e-12)
    # the oracle's arrays hold at most the M**N = 32768 entries of the tensor
    # vector (0.5 MB); a dense wedge isometry would need M**k * C(M, k)
    _antisym_table.cache_clear()
    tracemalloc.start()
    try:
        rho = brute_force_reduce(st, 5)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    pos, sgn = _antisym_table(8, 5)
    assert peak <= 8e6
    # beside the result, only the index table stays
    assert current - rho.matrix.nbytes <= pos.nbytes + sgn.nbytes + 64e3
    # larger shapes inside the guard, judged by shape alone: the gathered
    # B[pos] holds C(M, k) k! M**(N-k) <= M**N entries
    for M, N, k in [(10, 5, 5), (17, 4, 4), (6, 6, 3)]:
        assert M ** N <= CAP.brute_force
        pos, _ = _antisym_table(M, k)
        assert pos.shape == (math.comb(M, k), math.factorial(k))
        assert pos.size * M ** (N - k) <= M ** N


def test_four_mode_gather_table_is_the_hodge_dual():
    # ef_exact_m4's dual e_I -> merge_sign(I, J) e_J, J the complement of I,
    # is the gather table of the filled four-mode determinant at k = 2
    from fermient.rdmcore import gather_amplitudes

    masks = [unrank(RankedBasis(4, 2), i) for i in range(6)]
    dual = np.zeros((6, 6))
    for i, mask in enumerate(masks):
        dual[i, masks.index(0b1111 ^ mask)] = merge_sign(mask, 0b1111 ^ mask)
    table = gather_amplitudes(np.ones(1), 4, 4, 2)
    np.testing.assert_array_equal(table, dual)
    # exchanging two 2-sets is an even permutation, so the dual is symmetric
    np.testing.assert_array_equal(table, table.T)


def test_rescale_refuses_a_non_finite_trace():
    r = reduce_pure(slater_state(RankedBasis(4, 2), (0, 1)), 1)
    r = ReducedDM(r.k, r.basis, np.full_like(r.matrix, np.nan), UNIT, r.n_particles)
    with pytest.raises(NormalizationError):
        rescale(r, PHYSICS)


def test_factored_tensor_dm_builds_its_dense_matrix_from_the_factors():
    rng = np.random.default_rng(4)
    v = rng.normal(size=(9, 2)) + 1j * rng.normal(size=(9, 2))
    w = np.array([0.7, 0.3])
    got = TensorDM(2, 3, None, factors=(w, v)).dense()
    np.testing.assert_array_equal(got, (v * w) @ v.conj().T)


def test_rescale_to_its_own_normalization_is_an_equal_copy():
    r = reduce_pure(yang_state(YangParams(2, 1)), 2)
    same = rescale(r, r.normalization)
    assert same.normalization == r.normalization and same.n_particles == r.n_particles
    np.testing.assert_array_equal(same.matrix, r.matrix)
    assert same.matrix is not r.matrix


def test_antisymmetric_projection_refuses_three_parties():
    t = TensorDM(parties=3, local_dim=2, matrix=np.eye(8) / 8)
    with pytest.raises(ShapeError):
        project_antisymmetric(t)


def test_brute_force_reduce_refuses_k_outside_1_to_n():
    st = slater_state(RankedBasis(4, 2), (0, 1))
    for k in (0, 3):
        with pytest.raises(RangeError):
            brute_force_reduce(st, k)


def test_loads_rdm_refuses_a_non_integer_k():
    with pytest.raises(ShapeError, match="malformed fermirdm header"):
        loads_rdm("fermirdm 4 x unit\n")
