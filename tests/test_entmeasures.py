import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from fermient import (
    CAP,
    CapacityError,
    EfOptions,
    MinS2Options,
    NormalizationError,
    PureStateN,
    RangeError,
    RankedBasis,
    ShapeError,
    Spectrum,
    TensorDM,
    YangParams,
    build_corpus,
    colex_masks,
    convex_mixture,
    ef_exact_m4,
    ef_fermionic_excess,
    ef_optimize,
    eig_herm,
    elem_sym,
    elem_sym_det,
    elem_sym_direct,
    embed_state_full,
    embed_wedge_to_tensor,
    entropy_of_probs,
    extension_spec_from_tripartite,
    min_s2_search,
    mutual_info_bounds,
    nbody_elem_bound,
    purity,
    random_pure_state,
    random_two_party_dm,
    reduce_mixed,
    reduce_pure,
    rescale,
    slater_extension_spec,
    slater_squashed_bound,
    slater_state,
    squashed_extension_value,
    state_entropy,
    subadd_remainder,
    subadd_remainder_n,
    vn_entropy,
    wedge_density,
    yang_analytics,
    yang_state,
)
from fermient import TOL, NumericalError, entmeasures, hermlin, statekit
from fermient import suites
from fermient.rdmcore import PHYSICS, gather_amplitudes, tensor_ptrace
from fermient.report import report_json_line

LN2 = math.log(2.0)


# ---------------------------------------------------------------------------
# entropies

def test_entropy_of_probs():
    assert entropy_of_probs(np.full(6, 1 / 6)) == pytest.approx(math.log(6), abs=1e-15)
    v = entropy_of_probs(np.array([1.0, 0.0, 0.0]))
    assert v == 0.0 and math.copysign(1.0, v) == 1.0  # not -0.0
    assert entropy_of_probs(np.array([1.0, 1e-16])) == 0.0


def test_entropy_is_never_negative():
    # a lone eigenvalue 1 + eps gives -(1 + eps) ln(1 + eps) < 0 unclamped
    for v in (entropy_of_probs(np.array([1 + 2**-52])),
              state_entropy(random_pure_state(RankedBasis(6, 3), seed=2))):
        assert v == 0.0 and math.copysign(1.0, v) == 1.0


def test_vn_entropy_accepts_each_carrier():
    st = slater_state(RankedBasis(6, 4), range(4))
    r1 = reduce_pure(st, 1)
    want = math.log(4)
    assert vn_entropy(r1) == pytest.approx(want, abs=1e-12)
    assert vn_entropy(r1.matrix) == pytest.approx(want, abs=1e-12)
    assert vn_entropy(eig_herm(r1.matrix, vectors=False)) == pytest.approx(want, abs=1e-12)
    t = embed_wedge_to_tensor(reduce_pure(st, 2))
    assert vn_entropy(t) == pytest.approx(math.log(6), abs=1e-12)


def test_vn_entropy_trace_checks():
    with pytest.raises(NormalizationError):
        vn_entropy(np.eye(3))
    st = slater_state(RankedBasis(4, 2), (0, 1))
    phys = rescale(reduce_pure(st, 1), PHYSICS)
    with pytest.raises(NormalizationError):
        vn_entropy(phys)


def test_purity():
    st = slater_state(RankedBasis(6, 4), range(4))
    assert purity(reduce_pure(st, 1)) == pytest.approx(0.25, abs=1e-13)
    assert purity(eig_herm(np.eye(2) / 2, vectors=False)) == pytest.approx(0.5)


def test_purity_refuses_non_finite_input():
    for obj in (Spectrum(np.array([np.nan, 1.0])), Spectrum(np.array([np.inf, 0.0])),
                np.full((2, 2), np.nan)):
        with pytest.raises(ShapeError, match="non-finite"):
            purity(obj)


def test_state_entropy_gram_equals_dense():
    basis = RankedBasis(5, 2)
    mix = convex_mixture([0.3, 0.7], [random_pure_state(basis, seed=1),
                                      random_pure_state(basis, seed=2)])
    gram = state_entropy(mix)
    dense = vn_entropy(wedge_density(mix))
    assert gram == pytest.approx(dense, abs=1e-10)
    assert state_entropy(random_pure_state(basis, seed=3)) == 0.0


# ---------------------------------------------------------------------------
# mutual information bounds

def test_mutual_bounds_slater_equality():
    rep1, rep2 = mutual_info_bounds(slater_state(RankedBasis(6, 4), range(4)))
    assert rep1.holds and rep2.holds
    assert abs(rep1.slack) <= 1e-12
    assert rep1.context["equality"] is True
    assert rep1.context["S1"] == pytest.approx(math.log(4), abs=1e-12)


def test_mutual_bounds_yang_strict():
    rep1, rep2 = mutual_info_bounds(yang_state(YangParams(3, 2)))
    assert rep1.holds and rep2.holds
    assert rep1.slack > 1e-3  # correlated state sits strictly above the bound
    assert rep2.context["equality"] is True  # flat 1-RDM makes the relaxation tight
    rep1r, rep2r = mutual_info_bounds(random_pure_state(RankedBasis(6, 3), seed=7))
    assert rep1r.holds and rep2r.holds
    assert rep2r.slack > 0.0  # non-flat spectrum separates the two right sides


def test_mutual_bounds_need_two_particles():
    with pytest.raises(RangeError):
        mutual_info_bounds(slater_state(RankedBasis(3, 1), (1,)))


# ---------------------------------------------------------------------------
# quantitative subadditivity

def test_subadd_on_fermionic_pair_state():
    t = embed_wedge_to_tensor(reduce_pure(yang_state(YangParams(3, 2)), 2))
    rep = subadd_remainder(t)
    assert rep.holds
    assert rep.lhs <= 1e-12  # subadditivity proper
    assert rep.context["trace_form"] == pytest.approx(
        rep.context["trace_form_alt"], abs=1e-10)


def test_subadd_on_random_states():
    for i in range(5):
        rep = subadd_remainder(random_two_party_dm(3, rank=1 + i % 4, seed=20 + i))
        assert rep.holds


def test_subadd_product_equality():
    rng = np.random.default_rng(0)
    g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    t = TensorDM(parties=2, local_dim=3, matrix=np.kron(rho, rho))
    rep = subadd_remainder(t)
    assert abs(rep.lhs) <= 1e-10 and abs(rep.rhs) <= 1e-10


def test_subadd_remainder_refuses_three_parties():
    three = embed_state_full(slater_state(RankedBasis(4, 3), (0, 1, 2)))
    with pytest.raises(ShapeError):
        subadd_remainder(three)


def test_subadd_n_factored_matches_dense():
    st = convex_mixture([0.4, 0.6], [slater_state(RankedBasis(4, 2), (0, 1)),
                                     slater_state(RankedBasis(4, 2), (1, 3))])
    t = embed_state_full(st)
    rep_fac = subadd_remainder_n(t)
    dense = TensorDM(parties=t.parties, local_dim=t.local_dim, matrix=t.dense())
    rep_dense = subadd_remainder_n(dense)
    assert rep_fac.holds and rep_dense.holds
    assert rep_fac.lhs == pytest.approx(rep_dense.lhs, abs=1e-8)
    assert rep_fac.rhs == pytest.approx(rep_dense.rhs, abs=1e-6)


@pytest.mark.parametrize("state, grouping", [
    (convex_mixture([0.3, 0.7], [slater_state(RankedBasis(4, 3), (0, 1, 2)),
                                 slater_state(RankedBasis(4, 3), (1, 2, 3))]), None),
    (random_pure_state(RankedBasis(3, 3), seed=2), [(0, 1), (2,)]),
    (random_pure_state(RankedBasis(5, 2), seed=4), None),
    (convex_mixture([0.4, 0.6], [slater_state(RankedBasis(4, 2), (0, 1)),
                                 slater_state(RankedBasis(4, 2), (1, 3))]), None),
])
def test_subadd_n_routes_agree_to_rounding(state, grouping):
    # both routes read S(rho), the marginals and the trace form from the same
    # support pairs, so they differ only by rounding
    t = embed_state_full(state)
    fac = subadd_remainder_n(t, grouping)
    dense = subadd_remainder_n(TensorDM(t.parties, t.local_dim, t.dense()), grouping)
    np.testing.assert_allclose(fac.context["S_blocks"], dense.context["S_blocks"],
                               rtol=0, atol=1e-12)
    assert fac.context["trace_form"] == pytest.approx(dense.context["trace_form"],
                                                      abs=1e-12)
    assert fac.lhs == pytest.approx(dense.lhs, abs=1e-12)


def test_factored_tensor_past_capacity_is_never_materialized():
    t = embed_state_full(slater_state(RankedBasis(17, 3), (0, 1, 2)))
    assert t.matrix is None and t.dim > CAP.tensor_dim     # 17**3 = 4913
    # the dense matrix would hold 4913**2 complex entries, 386 MB
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError):
            tensor_ptrace(t, (0,))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8e6
    with pytest.raises(CapacityError):
        extension_spec_from_tripartite(t)
    # the factored route never needs the dense matrix: a determinant sits at
    # equality
    rep = subadd_remainder_n(t)
    assert rep.holds and rep.lhs == pytest.approx(rep.rhs, abs=1e-12)


def test_subadd_checks_its_square_roots(monkeypatch):
    real = hermlin.sqrt_from_spectrum
    monkeypatch.setattr(hermlin, "sqrt_from_spectrum",
                        lambda spec, tol: 1.001 * real(spec, tol))
    with pytest.raises(NumericalError):
        subadd_remainder(random_two_party_dm(3, rank=2, seed=4))


def test_subadd_n_solves_each_matrix_once(monkeypatch):
    dims = []
    real = hermlin.eig_herm

    def counted(a, *args, **kwargs):
        dims.append(len(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(hermlin, "eig_herm", counted)
    monkeypatch.setattr(entmeasures, "eig_herm", counted)
    b = RankedBasis(4, 3)
    t = embed_state_full(convex_mixture([0.3, 0.7], [slater_state(b, (0, 1, 2)),
                                                     slater_state(b, (1, 2, 3))]))
    subadd_remainder_n(t)               # Gram of the two terms, three marginals
    assert dims == [2, 4, 4, 4]
    dims.clear()
    subadd_remainder_n(TensorDM(parties=3, local_dim=4, matrix=t.dense()))
    assert dims == [64, 4, 4, 4]


def test_subadd_n_grouping():
    st = random_pure_state(RankedBasis(3, 3), seed=2)  # 27-dim tensor space
    t = embed_state_full(st)
    rep = subadd_remainder_n(t, grouping=[(0, 1), (2,)])
    assert rep.holds
    assert rep.context["blocks"] == [[0, 1], [2]]
    with pytest.raises(ShapeError):
        subadd_remainder_n(t, grouping=[(0, 2), (1,)])
    with pytest.raises(ShapeError):
        subadd_remainder_n(t, grouping=[(0,), (1,)])


def test_subadd_n_dense_capacity(monkeypatch):
    t = random_two_party_dm(3, rank=2, seed=3)
    monkeypatch.setattr(entmeasures, "CAP", dataclasses.replace(CAP, tensor_dim=4))
    with pytest.raises(CapacityError):
        subadd_remainder_n(t)


def _two_party_inputs(entries):
    rng = np.random.default_rng(3)
    g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    rho = g @ g.conj().T / np.trace(g @ g.conj().T).real
    return ([embed_wedge_to_tensor(e.rdm(2)) for e in entries if e.basis.n_particles >= 2]
            + [random_two_party_dm(d, rank=r, seed=10 * d + r)
               for d in (2, 3, 4) for r in (1, d, d * d)]
            + [TensorDM(parties=2, local_dim=3, matrix=np.kron(rho, rho))])


def test_subadd_two_party_is_the_two_block_remainder(corpus_lite):
    # one rule: the two-party report is the n-party core on blocks (0,), (1,)
    for t in _two_party_inputs(corpus_lite):
        two, n = subadd_remainder(t), subadd_remainder_n(t)
        assert two.lhs == pytest.approx(n.lhs, abs=1e-12)
        assert two.rhs == pytest.approx(n.rhs, abs=1e-12)
        assert two.context["trace_form"] == pytest.approx(n.context["trace_form"],
                                                          abs=1e-12)
        np.testing.assert_allclose([two.context["S1"], two.context["S2"]],
                                   n.context["S_blocks"], rtol=0, atol=1e-12)


def test_subadd_trace_form_alt_does_not_read_the_roots(monkeypatch):
    run = suites.SuiteRun(seed=1, n_random=12, M=None, N=None, states=(), tol=TOL,
                          ef=EfOptions())
    for rep in suites.subadd(run):
        assert rep.context["trace_form"] == pytest.approx(rep.context["trace_form_alt"],
                                                          abs=1e-12)
    real = entmeasures.psd_root

    def scaled(a, tol):
        spec, root = real(a, tol)
        return spec, 1.001 * root

    monkeypatch.setattr(entmeasures, "psd_root", scaled)
    rep = subadd_remainder(random_two_party_dm(3, rank=2, seed=4))
    assert abs(rep.context["trace_form"] - rep.context["trace_form_alt"]) > 1e-4


def test_subadd_accepts_every_two_party_matrix_up_to_tensor_dim():
    # 23**2 = 529 lies above the old dense_eig of 512 and within tensor_dim
    t = random_two_party_dm(23, 3, seed=5)
    assert t.dim <= CAP.tensor_dim
    rep = subadd_remainder(t)
    assert rep.holds and rep.slack == pytest.approx(0.16848942339358, abs=1e-12)


def _count_cluster_bases(monkeypatch):
    sizes = []
    real = hermlin._cluster_basis

    def counted(v, rel):
        sizes.append(v.shape[1])
        return real(v, rel)

    monkeypatch.setattr(hermlin, "_cluster_basis", counted)
    return sizes


def test_subadd_remainder_leaves_the_null_space_basis_alone(monkeypatch):
    # rank 3 in dim 529: the 526-fold zero cluster is dropped at support, so
    # no solve of the remainder puts a degenerate cluster in canonical form
    sizes = _count_cluster_bases(monkeypatch)
    rep = subadd_remainder(random_two_party_dm(23, 3, seed=5))
    assert sizes == []
    assert rep.context["trace_form"] == pytest.approx(rep.context["trace_form_alt"],
                                                      abs=1e-12)


def test_subadd_reports_do_not_move_with_canonical_vectors(monkeypatch):
    # the remainder's raw LAPACK vectors give the slacks the canonical basis gives
    run = suites.SuiteRun(seed=1, n_random=12, M=None, N=None, states=(), tol=TOL,
                          ef=EfOptions())
    want = list(suites.subadd(run))
    real = hermlin.eig_herm
    asked = []

    def always_canonical(a, vectors=True, tol=TOL, *, canonical=True):
        asked.append(canonical)
        return real(a, vectors, tol)

    monkeypatch.setattr(hermlin, "eig_herm", always_canonical)
    monkeypatch.setattr(entmeasures, "eig_herm", always_canonical)
    sizes = _count_cluster_bases(monkeypatch)
    got = list(suites.subadd(run))
    assert False in asked and sizes        # the raw route was asked for and overridden
    assert [r.name for r in got] == [r.name for r in want]
    assert [r.holds for r in got] == [r.holds for r in want]
    assert np.abs(np.subtract([r.slack for r in got], [r.slack for r in want])).max() <= 1e-12


# ---------------------------------------------------------------------------
# elementary symmetric polynomials

@pytest.mark.parametrize("dim,n,seed", [(5, 2, 0), (8, 3, 1), (12, 4, 2), (12, 6, 3)])
def test_elem_sym_routes_agree(dim, n, seed):
    rng = np.random.default_rng(seed)
    lam = rng.random(dim)
    lam /= lam.sum()
    psums = [float(np.sum(lam ** j)) for j in range(2, n + 1)]
    e_newton = elem_sym(n, psums)
    e_det = elem_sym_det(n, psums)
    e_direct = elem_sym_direct(lam, n)
    assert e_newton == pytest.approx(e_direct, abs=1e-12)
    assert e_det == pytest.approx(e_direct, abs=1e-12)


def test_elem_sym_closed_forms():
    lam = np.array([0.5, 0.3, 0.2])
    p2 = float(np.sum(lam ** 2))
    p3 = float(np.sum(lam ** 3))
    assert elem_sym(2, [p2]) == pytest.approx((1 - p2) / 2, abs=1e-15)
    assert elem_sym(3, [p2, p3]) == pytest.approx((1 - 3 * p2 + 2 * p3) / 6, abs=1e-15)


def test_elem_sym_validation():
    with pytest.raises(ShapeError):
        elem_sym(3, [0.5])
    with pytest.raises(CapacityError):
        elem_sym_direct(np.full(40, 1 / 40), 20)


def test_elem_sym_direct_refuses_non_finite_eigenvalues():
    for lam in ([np.nan, 1.0], [np.inf, 0.5, 0.5], [np.inf, -np.inf]):
        with pytest.raises(ShapeError, match="non-finite"):
            elem_sym_direct(lam, 1)


def test_nbody_bound_slater_equality():
    rep = nbody_elem_bound(slater_state(RankedBasis(6, 4), range(4)))
    assert rep.holds
    assert rep.lhs == pytest.approx(4 * math.log(4), abs=1e-12)
    assert abs(rep.slack) <= 1e-10
    assert rep.context["e_N"] == pytest.approx(rep.context["e_N_direct"], abs=1e-14)


def test_nbody_bound_random_and_mixture():
    st = random_pure_state(RankedBasis(5, 3), seed=4)
    assert nbody_elem_bound(st).holds
    mix = convex_mixture([0.5, 0.5], [slater_state(RankedBasis(5, 3), (0, 1, 2)),
                                      slater_state(RankedBasis(5, 3), (2, 3, 4))])
    rep = nbody_elem_bound(mix)
    assert rep.holds
    assert rep.context["S_full"] == pytest.approx(LN2, abs=1e-12)


def _exact_elem_sym(lam, k):
    # the same product recursion in exact rational arithmetic on the doubles
    e = [Fraction(1)] + [Fraction(0)] * k
    for x in map(Fraction, lam):
        for j in range(k, 0, -1):
            e[j] += x * e[j - 1]
    return e[k]


@pytest.mark.parametrize("M,k", [(6, 3), (12, 6), (16, 14), (32, 16), (32, 31),
                                 (64, 2), (64, 32), (64, 62)])
@pytest.mark.parametrize("kind", ["flat", "random"])
def test_elem_sym_spectrum_matches_exact_arithmetic(M, k, kind):
    if kind == "flat":
        lam = np.full(M, 1 / M)
    else:
        lam = statekit.seeded_rng(M, k).random(M)
        lam /= lam.sum()
    exact = _exact_elem_sym(lam, k)
    got = entmeasures._elem_sym_spectrum(lam, k)
    assert abs(Fraction(got) - exact) <= Fraction(1, 10 ** 14) * exact


def test_nbody_bound_rhs_is_stable_at_many_particles():
    # yang(32, 31): a flat 1-RDM spectrum 1/64 on 64 modes, so e_62 = C(64, 62) / 64^62;
    # the Newton recursion on power sums (elem_sym) misses this rhs by 0.596
    rep = nbody_elem_bound(yang_state(YangParams(32, 31)))
    assert abs(rep.rhs - (372 * LN2 - math.log(2016))) <= 1e-12
    assert rep.context["e_N"] == pytest.approx(rep.context["e_N_direct"], rel=1e-14)


# ---------------------------------------------------------------------------
# entanglement of formation

def _pair_tensor(state):
    return embed_wedge_to_tensor(reduce_mixed(state, 2))


def test_ef_converged_means_a_stationary_winner(monkeypatch):
    # converged: the winner ends within _FLOOR_GAP of the floor, or its
    # squared Riemannian gradient norm is at most _STATIONARY
    res = ef_optimize(_pair_tensor(yang_state(YangParams(2, 2))), CLI_EF)
    assert res.converged and res.sweeps == 0
    assert res.value == pytest.approx(LN2, abs=1e-12)
    assert ef_optimize(_pair_tensor(slater_state(RankedBasis(4, 2), (0, 1))),
                       CLI_EF).converged
    rank_one = _pair_tensor(random_pure_state(RankedBasis(5, 2), seed=7))
    res = ef_optimize(rank_one, CLI_EF)
    assert res.value > LN2 + 1e-3 and res.converged
    t = _pair_tensor(random_pure_state(RankedBasis(6, 4), seed=3))
    monkeypatch.setattr(entmeasures, "_DESCENT_STEPS", 2)
    res = ef_optimize(t, CLI_EF)
    assert res.value > LN2 + 1e-3 and not res.converged and res.sweeps == 0


def test_ef_pure_determinant_is_ln2():
    res = ef_optimize(_pair_tensor(slater_state(RankedBasis(4, 2), (0, 1))))
    assert res.value == pytest.approx(LN2, abs=1e-12)
    assert res.converged
    assert ef_fermionic_excess(res.value) == pytest.approx(0.0, abs=1e-12)


def test_ef_mixture_reaches_floor():
    st = convex_mixture([0.5, 0.5], [slater_state(RankedBasis(4, 2), (0, 1)),
                                     slater_state(RankedBasis(4, 2), (2, 3))])
    res = ef_optimize(_pair_tensor(st), EfOptions(restarts=2))
    assert res.value == pytest.approx(LN2, abs=1e-6)


@pytest.mark.parametrize("restarts", [0, -1])
def test_ef_refuses_fewer_than_one_restart(restarts):
    b = RankedBasis(4, 2)
    pure = slater_state(b, (0, 1))
    mixed = convex_mixture([0.5, 0.5], [pure, slater_state(b, (2, 3))])
    for st in (pure, mixed):
        with pytest.raises(ShapeError, match="restarts"):
            ef_optimize(_pair_tensor(st), EfOptions(restarts=restarts))


def test_ef_deterministic_and_reconstructs():
    t = _pair_tensor(convex_mixture(
        [0.25, 0.75], [slater_state(RankedBasis(4, 2), (0, 1)),
                       slater_state(RankedBasis(4, 2), (1, 2))]))
    opts = EfOptions(restarts=3)
    r1 = ef_optimize(t, opts)
    r2 = ef_optimize(t, opts)
    assert r1.value == r2.value
    assert r1.decomposition.weights.tobytes() == r2.decomposition.weights.tobytes()
    deco = r1.decomposition
    assert deco.weights.sum() == pytest.approx(1.0, abs=1e-10)
    recon = (deco.members.conj().T * deco.weights) @ deco.members
    assert np.abs(recon.T - t.dense()).max() <= 1e-8


def test_ef_ensemble_size_options():
    t = _pair_tensor(convex_mixture(
        [0.5, 0.5], [slater_state(RankedBasis(4, 2), (0, 1)),
                     slater_state(RankedBasis(4, 2), (2, 3))]))
    quick = EfOptions(restarts=1)
    v_rank = ef_optimize(t, dataclasses.replace(quick, ensemble_size="rank")).value
    v_sq = ef_optimize(t, dataclasses.replace(quick, ensemble_size="square")).value
    v_four = ef_optimize(t, dataclasses.replace(quick, ensemble_size=4)).value
    assert v_sq == v_four  # r = 2, so "square" is exactly 4
    assert v_sq <= v_rank + 1e-12  # larger ensembles can only help
    with pytest.raises(ShapeError):
        ef_optimize(t, dataclasses.replace(quick, ensemble_size=1))


@pytest.mark.parametrize("size", [None, "cube", "4", 2.5, True])
def test_ef_ensemble_size_takes_rank_square_or_an_int(size):
    assert EfOptions().ensemble_size == "square"
    t = _pair_tensor(slater_state(RankedBasis(4, 2), (0, 1)))
    with pytest.raises(ShapeError, match="ensemble size"):
        ef_optimize(t, EfOptions(ensemble_size=size, restarts=1))


def test_ef_input_validation(monkeypatch):
    three = embed_state_full(slater_state(RankedBasis(4, 3), (0, 1, 2)))
    with pytest.raises(ShapeError):
        ef_optimize(three)
    t = random_two_party_dm(2, rank=2, seed=5)
    bad = TensorDM(parties=2, local_dim=2, matrix=2.0 * t.dense())
    with pytest.raises(NormalizationError):
        ef_optimize(bad)
    monkeypatch.setattr(entmeasures, "CAP", dataclasses.replace(CAP, ef_rank=1))
    with pytest.raises(CapacityError):
        ef_optimize(t)


def test_ef_chi_state_matches_closed_form():
    # single occupied pair on m pairs: pure 2-RDM, E_f = ln(2m) exactly
    for m in (2, 3):
        t = _pair_tensor(yang_state(YangParams(m, 1)))
        res = ef_optimize(t)
        assert res.value == pytest.approx(yang_analytics(YangParams(m, 1)).ef_alt,
                                          abs=1e-10)


# ---------------------------------------------------------------------------
# squashed-entanglement extensions

def test_slater_extension_family_values():
    # (1/2) ln[k (N-k+2) / ((N-k+1)(k-1))] for the k-particle extension
    for N, k in ((4, 2), (4, 3), (5, 3), (6, 4)):
        ext = slater_extension_spec(N, k)
        want = 0.5 * math.log(k * (N - k + 2) / ((N - k + 1) * (k - 1)))
        assert squashed_extension_value(ext) == pytest.approx(want, abs=1e-10)


def test_slater_odd_bound_attained():
    for N in (3, 5, 7):
        ext = slater_extension_spec(N, (N + 1) // 2)
        assert squashed_extension_value(ext) == pytest.approx(
            slater_squashed_bound(N), abs=1e-10)


def test_slater_even_candidates_pinned():
    assert squashed_extension_value(slater_extension_spec(4, 2)) == pytest.approx(
        0.5 * math.log(8 / 3), abs=1e-10)
    assert squashed_extension_value(slater_extension_spec(4, 3)) == pytest.approx(
        math.log(3 / 2), abs=1e-10)
    # both stay below the closed-form upper bound for even N
    assert slater_squashed_bound(4) == pytest.approx(0.5 * math.log(3), abs=1e-15)


def test_slater_bound_closed_forms():
    assert slater_squashed_bound(5) == pytest.approx(0.5 * LN2, abs=1e-15)
    assert slater_squashed_bound(6) == pytest.approx(0.5 * math.log(2), abs=1e-15)
    with pytest.raises(RangeError):
        slater_squashed_bound(2)
    with pytest.raises(RangeError):
        slater_extension_spec(4, 1)
    with pytest.raises(RangeError):
        slater_extension_spec(4, 5)


def test_tripartite_extension_nonnegative():
    rng = np.random.default_rng(6)
    for i in range(5):
        d = 2
        g = rng.normal(size=(d ** 3, 2)) + 1j * rng.normal(size=(d ** 3, 2))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        t = TensorDM(parties=3, local_dim=d, matrix=rho)
        ext = extension_spec_from_tripartite(t)
        assert squashed_extension_value(ext) >= -1e-9  # strong subadditivity
    with pytest.raises(ShapeError):
        extension_spec_from_tripartite(random_two_party_dm(2, 1, 0))


# ---------------------------------------------------------------------------
# paired-state analytics

@pytest.mark.parametrize("m,n", [(2, 1), (2, 2), (3, 1), (3, 2), (3, 3), (4, 2)])
def test_yang_analytics_match_numerics(m, n):
    ana = yang_analytics(YangParams(m, n))
    r2 = reduce_pure(yang_state(YangParams(m, n)), 2)
    lam = np.sort(np.linalg.eigvalsh(r2.matrix))[::-1]
    np.testing.assert_allclose(ana.spectrum(dim=lam.size), lam, atol=1e-12)
    assert ana.entropy == pytest.approx(vn_entropy(r2), abs=1e-12)


def test_yang_analytics_single_pair_limit():
    ana = yang_analytics(YangParams(1, 1))
    assert ana.entropy == 0.0
    assert ana.ef_paper == ana.ef_alt == pytest.approx(LN2)
    assert math.isinf(ana.esq_bound_paper)


def test_yang_analytics_fields():
    ana = yang_analytics(YangParams(3, 2))
    assert ana.lam1 == pytest.approx(2 / 9, abs=1e-15)
    assert ana.lam2 == pytest.approx(1 / 18, abs=1e-15)
    assert ana.mult2 == 14
    assert ana.pair_fraction == pytest.approx(1 / 6, abs=1e-15)
    assert ana.ef_alt == pytest.approx(LN2 + math.log(3) / 6, abs=1e-15)
    # n = 1 has a pure pair RDM, so the alternative form is exactly ln(2m)
    assert yang_analytics(YangParams(4, 1)).ef_alt == pytest.approx(math.log(8))


@pytest.mark.parametrize("m, n", [(3, 2), (4, 2)])
def test_yang_ef_closed_forms_are_not_the_pair_rdm_ef(m, n):
    # at n >= 2 an ensemble at CLI settings already beats both closed forms
    ana = yang_analytics(YangParams(m, n))
    res = ef_optimize(_pair_tensor(yang_state(YangParams(m, n))),
                      EfOptions(ensemble_size="rank", restarts=2, seed=1))
    assert LN2 - 1e-12 <= res.value < ana.ef_paper - 0.05
    assert ana.ef_paper < ana.ef_alt


# ---------------------------------------------------------------------------
# 2-RDM entropy search

def test_min_s2_search_quick():
    opts = MinS2Options(restarts=2, iters=40)
    res = min_s2_search(4, 3, opts)
    again = min_s2_search(4, 3, opts)
    assert res.best_entropy == again.best_entropy
    assert res.slater_reference == pytest.approx(math.log(3), abs=1e-12)
    assert res.gap == pytest.approx(res.best_entropy - res.slater_reference, abs=1e-15)
    assert res.gap >= -1e-6  # determinants stay unbeaten in this search
    assert res.evaluations > 0
    assert np.linalg.norm(res.best_state.amplitudes) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(RangeError):
        min_s2_search(3, 1, opts)


@pytest.mark.parametrize("field, value", [("restarts", 0), ("restarts", -1),
                                          ("iters", -1)])
def test_min_s2_search_refuses_bad_options(field, value):
    opts = dataclasses.replace(MinS2Options(restarts=1, iters=0), **{field: value})
    with pytest.raises(ShapeError, match=field):
        min_s2_search(4, 2, opts)


def test_min_s2_search_with_no_iters_keeps_its_random_starts():
    res = min_s2_search(4, 2, MinS2Options(restarts=3, iters=0))
    assert res.evaluations == 3
    assert res.gap >= -1e-6


@pytest.mark.parametrize("M, N", [(5, 3), (6, 4)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_min_s2_gradient_matches_central_differences(M, N, seed):
    rng = statekit.seeded_rng(seed)
    psi = statekit.complex_normal(rng, math.comb(M, N))[:, None]
    psi /= np.linalg.norm(psi)
    step = statekit.complex_normal(rng, math.comb(M, N))[:, None]
    value, grad = entmeasures._s2_value_grad(psi, M, N)
    assert value == pytest.approx(
        vn_entropy(reduce_pure(PureStateN(RankedBasis(M, N), psi[:, 0]), 2)), abs=1e-12)
    h = 1e-5
    central = (entmeasures._s2_value_grad(psi + h * step, M, N)[0]
               - entmeasures._s2_value_grad(psi - h * step, M, N)[0]) / (2 * h)
    analytic = 2.0 * np.vdot(grad, step).real      # d value / d t along psi + t step
    assert analytic == pytest.approx(central, rel=1e-6)


def _lane_cases():
    """(value_grad, stack of start isometries) for the min-S2 and E_f kernels."""
    rng = statekit.seeded_rng(7)
    M, N = 6, 3
    cols = statekit.complex_normal(rng, 5, math.comb(M, N))
    cols /= np.linalg.norm(cols, axis=1, keepdims=True)
    # lane 2 starts at a determinant: the floor below is its value
    cols[2] = slater_state(RankedBasis(M, N), (0, 2, 5)).amplitudes
    yield (lambda iso: entmeasures._s2_value_grad(iso, M, N)), cols[..., None]
    t = random_two_party_dm(3, 3, seed=4)
    mu, phi = hermlin.support(eig_herm(t.dense(), vectors=True))
    x = np.sqrt(mu)[:, None] * phi.T
    isos = np.stack([np.linalg.qr(statekit.complex_normal(rng, 9, 3))[0]
                     for _ in range(4)])
    yield (lambda iso: entmeasures._ensemble_value_grad(iso, x, 3)), isos


@pytest.mark.parametrize("case", [0, 1])
def test_descend_lanes_match_one_lane_runs(case):
    # lane b of a stacked descent does exactly what a one-lane run does:
    # same isometry bytes, value and evaluation count, also for a lane that
    # stops at once at its floor and for steps = 0
    value_grad, isos = list(_lane_cases())[case]
    starts = value_grad(isos)[0]
    floor = float(starts.min())
    sizes = []

    def spy(stack):
        sizes.append(len(stack))
        return value_grad(stack)

    for steps in (0, 3, 60):
        sizes.clear()
        got_iso, got_value, got_evals = entmeasures._descend(isos, spy, floor, steps)
        assert isos.shape == got_iso.shape
        for b in range(len(isos)):
            one_iso, one_value, one_evals = entmeasures._descend(isos[b:b + 1], value_grad,
                                                                 floor, steps)
            assert got_iso[b].tobytes() == one_iso[0].tobytes(), (steps, b)
            assert got_value[b] == one_value[0], (steps, b)
            assert got_evals[b] == one_evals[0], (steps, b)
        assert got_evals[int(np.argmin(starts))] == 1
        assert sum(sizes) == got_evals.sum()
        if steps == 0:
            assert got_iso.tobytes() == isos.tobytes()
            assert list(got_value) == list(starts) and set(got_evals) == {1}
        else:
            # lanes stop at different times; the stack shrinks as they do
            assert len(set(got_evals)) > 1 and min(sizes) < len(isos)


@pytest.mark.parametrize("case", [0, 1])
def test_descend_leaves_the_callers_stack_as_it_was(case):
    # lanes are written in place, in the descent's own copy: with the floor at
    # the lowest start one lane stops at once, so no later round moves every
    # lane and each move is such a write
    value_grad, isos = list(_lane_cases())[case]
    before = isos.tobytes()
    got_iso = entmeasures._descend(isos, value_grad, float(value_grad(isos)[0].min()), 60)[0]
    assert isos.tobytes() == before
    assert got_iso.tobytes() != before


@pytest.mark.parametrize("case", [0, 1])
def test_descend_keeps_every_lane_whose_candidates_are_nan(case):
    # a NaN candidate fails the Armijo test and the step rule still halves the
    # step, so each lane stops at its start once the step falls below
    # _STEP_FLOOR: 2**-34 is the first halving below 1e-10, 35 evaluations
    value_grad, isos = list(_lane_cases())[case]
    if case == 0:
        isos = np.delete(isos, 2, axis=0)   # a determinant: its gradient is 0
    starts = value_grad(isos)[0]
    sizes = []

    def nan_candidates(stack):
        sizes.append(len(stack))
        if sum(sizes) > 10_000:
            raise AssertionError("the step never falls below _STEP_FLOOR")
        value, g = value_grad(stack)
        if len(sizes) == 1:
            return value, g
        return np.full_like(value, np.nan), np.full_like(g, np.nan)

    got_iso, got_value, got_evals = entmeasures._descend(isos, nan_candidates, -math.inf, 60)
    assert got_iso.tobytes() == isos.tobytes()
    assert got_value.tobytes() == starts.tobytes()
    assert list(got_evals) == [35] * len(isos)


def _flat_first_candidates(value_grad, flat, bump):
    """value_grad, except that on the second call (the first candidates, one
    per lane when no lane has stopped) the lanes at positions `flat` get their
    start value times (1 + bump) back, with the candidates' own gradients."""
    calls = []

    def kernel(stack):
        value, g = value_grad(stack)
        calls.append(value)
        if len(calls) == 2:
            value[flat] = calls[0][flat] * (1.0 + bump)
        return value, g

    return kernel


@pytest.mark.parametrize("case", [0, 1])
@pytest.mark.parametrize("bump", [0.0, 2.0 ** -48, -(2.0 ** -48)])
def test_descend_stops_a_lane_whose_candidate_is_flat_to_rounding(case, bump):
    # a rejected candidate within _ROUNDING |value| of the lane's value ends
    # the lane after 2 evaluations, at its start, while the other lanes of the
    # stack keep descending; each lane does what its one-lane run does
    value_grad, isos = list(_lane_cases())[case]
    if case == 0:
        isos = np.delete(isos, 2, axis=0)   # a determinant: its gradient is 0
    flat = [0, 2]
    starts = value_grad(isos)[0]
    got_iso, got_value, got_evals = entmeasures._descend(
        isos, _flat_first_candidates(value_grad, flat, bump), -math.inf, 60)
    for b in range(len(isos)):
        kernel = _flat_first_candidates(value_grad, [0] if b in flat else [], bump)
        one_iso, one_value, one_evals = entmeasures._descend(isos[b:b + 1], kernel,
                                                             -math.inf, 60)
        assert got_iso[b].tobytes() == one_iso[0].tobytes(), b
        assert got_value[b] == one_value[0] and got_evals[b] == one_evals[0], b
        if b in flat:
            assert got_evals[b] == 2, b
            assert got_iso[b].tobytes() == isos[b].tobytes() and got_value[b] == starts[b]
        else:
            assert got_evals[b] > 2 and got_value[b] < starts[b], b


@pytest.mark.parametrize("case", [0, 1])
def test_descend_keeps_a_lane_whose_candidate_is_just_past_rounding(case):
    # a rejected candidate 4 _ROUNDING |value| above the lane's value is not
    # flat: the lane halves its step and goes on
    value_grad, isos = list(_lane_cases())[case]
    lane = isos[:1]
    kernel = _flat_first_candidates(value_grad, [0], 4 * entmeasures._ROUNDING)
    assert entmeasures._descend(lane, kernel, -math.inf, 60)[2][0] > 2


def test_ef_optimize_hands_the_descent_a_kernel_of_the_whole_stack(monkeypatch):
    # E_f passes its kernel as min-S2 does: each lane of a (B, L, r) stack gets
    # its own value and gradient, as a one-lane stack of it would
    t = random_two_party_dm(3, 3, seed=4)
    descend = entmeasures._descend
    seen = []

    def spy(iso, value_grad, floor, steps):
        other = np.linalg.qr(statekit.complex_normal(statekit.seeded_rng(5), *iso.shape[1:]))[0]
        two = np.concatenate([iso, other[None]])
        value, g = value_grad(two)
        seen.append((value.shape, g.shape, two.shape))
        for b in range(2):
            one_value, one_g = value_grad(two[b:b + 1])
            assert value[b] == one_value[0] and g[b].tobytes() == one_g[0].tobytes()
        return descend(iso, value_grad, floor, steps)

    monkeypatch.setattr(entmeasures, "_descend", spy)
    ef_optimize(t, EfOptions(restarts=2))
    assert len(seen) == 2
    assert all(value == (2,) and g == two for value, g, two in seen)


def test_ensemble_kernel_on_one_lane_is_its_2d_call_with_a_lane_axis():
    # the one-lane stack E_f's restarts descend gives, bit for bit, what the
    # kernel gives the lane's 2-D isometry
    checked = 0
    for e in build_corpus(seed=1, n_random=8):
        if e.basis.n_particles < 2:
            continue
        t = embed_wedge_to_tensor(e.rdm(2))
        mu, phi = hermlin.support(eig_herm(t.dense(), vectors=True))
        x = np.sqrt(mu)[:, None] * phi.T
        r = mu.size
        for L in (r, r * r):
            start = np.eye(L, r, dtype=complex)
            haar = np.linalg.qr(statekit.complex_normal(statekit.seeded_rng(L), L, r))[0]
            for iso in (start, haar):
                value, g = entmeasures._ensemble_value_grad(iso[None], x, t.local_dim)
                flat_value, flat_g = entmeasures._ensemble_value_grad(iso, x, t.local_dim)
                assert value.tobytes() == np.asarray(flat_value)[None].tobytes(), e.name
                assert g.tobytes() == flat_g[None].tobytes(), e.name
                checked += 1
    assert checked >= 40


def _s2_stack(M, N, lanes):
    # min-S2 kernel input: one (1, C(M,2), C(M,N-2)) gathered G per unit lane
    G = np.stack([gather_amplitudes(psi / np.linalg.norm(psi), M, N, 2) for psi in lanes])
    return G[:, None] / math.sqrt(math.comb(N, 2))


def _s2_stacks():
    # tall at (5,3), (7,3) and the one-column N = 2 case (6,2), square at
    # (6,4); each with a determinant lane (rank-deficient Gram) among random
    # lanes, and every stack also conjugate-transposed (wide)
    for M, N in ((5, 3), (7, 3), (6, 2), (6, 4)):
        basis = RankedBasis(M, N)
        rng = statekit.seeded_rng(M, N)
        lanes = [statekit.complex_normal(rng, basis.dim),
                 slater_state(basis, range(N)).amplitudes,
                 statekit.complex_normal(rng, basis.dim)]
        tall = _s2_stack(M, N, lanes)
        yield f"({M},{N})", tall
        yield f"({M},{N})^+", np.ascontiguousarray(tall.conj().swapaxes(-1, -2))


@pytest.mark.parametrize("a", [pytest.param(a, id=name) for name, a in _s2_stacks()])
def test_gram_kernel_diagonalizes_the_smaller_gram_side(monkeypatch, a):
    d1, d2 = a.shape[-2:]
    seen = []
    eigh = np.linalg.eigh

    def spy(m):
        seen.append(m.shape[-2:])
        return eigh(m)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    value, g = entmeasures._gram_entropy_grad(a)
    monkeypatch.undo()
    assert seen == [(min(d1, d2),) * 2]
    assert value.shape == a.shape[:-3] and g.shape == a.shape
    # the value is the weighted entropy of the full A A^+ spectrum
    p = np.linalg.eigvalsh(a @ a.conj().swapaxes(-1, -2))
    lam = p.sum(axis=-1)
    for j in range(a.shape[0]):
        want = sum(float(w) * entropy_of_probs(q / w) for q, w in zip(p[j], lam[j]))
        assert abs(value[j] - want) <= 1e-13, j
    # the gradient is the tall-side formula (ln lam - ln P) A
    p, v = eigh(a @ a.conj().swapaxes(-1, -2))
    log_p = np.log(np.maximum(p, 1e-300))
    want = v @ ((np.log(lam)[..., None, None] - log_p[..., None])
                * (v.conj().swapaxes(-1, -2) @ a))
    for j in range(a.shape[0]):
        scale = max(np.abs(want[j]).max(), np.abs(a[j]).max())
        assert np.abs(g[j] - want[j]).max() <= 1e-12 * scale, j


def test_gram_kernel_keeps_the_bits_of_square_stacks():
    # square stacks (every E_f member, min-S2 at N = 4 on six modes) take
    # the direct route: their bytes are those of the formula below
    def direct(a):
        p, v = np.linalg.eigh(a @ a.conj().swapaxes(-1, -2))
        log_p = np.log(np.maximum(p, 1e-300))
        log_lam = np.log(np.maximum(p.sum(axis=-1), 1e-300))
        g = v @ ((log_lam[..., None, None] - log_p[..., None])
                 * (v.conj().swapaxes(-1, -2) @ a))
        return entmeasures._spectrum_contribs(p).sum(axis=-1), g

    stacks = [a for name, a in _s2_stacks() if name.startswith("(6,4)")]
    for e in build_corpus(seed=1, n_random=8):
        if e.basis.n_particles < 2:
            continue
        t = embed_wedge_to_tensor(e.rdm(2))
        mu, phi = hermlin.support(eig_herm(t.dense(), vectors=True))
        x = np.sqrt(mu)[:, None] * phi.T
        L, d = mu.size ** 2, t.local_dim
        haar = np.linalg.qr(statekit.complex_normal(statekit.seeded_rng(L), L, mu.size))[0]
        stacks.append((haar @ x).reshape(1, L, d, d))
    for a in stacks:
        value, g = entmeasures._gram_entropy_grad(a)
        want_value, want_g = direct(a)
        assert value.tobytes() == want_value.tobytes()
        assert g.tobytes() == want_g.tobytes()
    assert len(stacks) >= 10


def test_min_s2_search_is_identical_across_processes(tmp_path):
    # BLAS and LAPACK run in each interpreter afresh, so compare two of them
    src = os.path.dirname(os.path.dirname(entmeasures.__file__))
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    script = ("from fermient import MinS2Options, min_s2_search\n"
              "res = min_s2_search(5, 3, MinS2Options(restarts=3, seed=1))\n"
              "print(res.best_state.amplitudes.tobytes().hex())\n")

    def run():
        done = subprocess.run([sys.executable, "-c", script], env=env, cwd=tmp_path,
                              capture_output=True, timeout=120)
        assert done.returncode == 0, done.stderr.decode()
        return done.stdout

    first, second = run(), run()
    assert first == second
    assert len(bytes.fromhex(first.decode().strip())) == 16 * math.comb(5, 3)


def test_min_s2_search_memory_stays_within_its_group_budget():
    # restarts descend in groups whose gathered G fits _S2_GROUP_BYTES; at
    # (12, 6) a lane's G holds 66 x 495 complex entries (523 kB), so fifty
    # restarts in one stack would hold 26 MB of G alone
    min_s2_search(12, 6, MinS2Options(restarts=1, iters=0))    # builds the gather table
    tracemalloc.start()
    try:
        res = min_s2_search(12, 6, MinS2Options(restarts=50, iters=0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.evaluations == 50
    assert peak <= 25e6


@pytest.mark.parametrize("M, N", [(7, 3), (8, 4)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_min_s2_search_reaches_the_determinant_at_larger_shapes(M, N, seed):
    res = min_s2_search(M, N, MinS2Options(restarts=2, seed=seed))
    assert res.slater_reference == pytest.approx(math.log(math.comb(N, 2)), abs=1e-12)
    assert abs(res.gap) <= 1e-8


@pytest.mark.parametrize("M, N, most", [(5, 3, 210), (6, 4, 300)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_min_s2_search_stops_its_lanes_at_the_rounding_floor(M, N, most, seed):
    # lanes end once a rejected candidate is flat to rounding: ten restarts
    # took 168-178 evaluations at (5,3) and 235-260 at (6,4) (seeds 0-3),
    # where running on to the step floor took 301-323 and 376-409
    res = min_s2_search(M, N, MinS2Options(restarts=10, seed=seed))
    assert abs(res.best_entropy - math.log(math.comb(N, 2))) <= 1e-12
    assert res.evaluations <= most


def test_nbody_elem_cross_check_skipped_past_capacity(monkeypatch):
    st = random_pure_state(RankedBasis(8, 4), seed=5)
    terms = math.comb(8, 4)
    monkeypatch.setattr(entmeasures, "CAP", dataclasses.replace(CAP, elem_terms=terms))
    at = nbody_elem_bound(st)
    monkeypatch.setattr(entmeasures, "CAP", dataclasses.replace(CAP, elem_terms=terms - 1))
    past = nbody_elem_bound(st)
    assert at.context["e_N_direct"] == pytest.approx(at.context["e_N"], abs=1e-14)
    assert "cross_check" not in at.context
    assert past.context["e_N_direct"] is None
    assert past.context["cross_check"] == "skipped (capacity)"
    assert (past.lhs, past.rhs, past.holds) == (at.lhs, at.rhs, at.holds)
    assert '"e_N_direct": null' in report_json_line(past)


def _planted_slater_mixture(M, n_det, seed):
    """Two-fermion mixture of n_det determinants phi ^ chi of random
    orthonormal orbitals: its E_f is exactly ln 2."""
    rng = statekit.seeded_rng(seed)
    masks = colex_masks(M, 2)
    lo = np.array([(m & -m).bit_length() - 1 for m in masks.tolist()])
    hi = np.array([m.bit_length() - 1 for m in masks.tolist()])
    states = []
    for _ in range(n_det):
        orb, _ = np.linalg.qr(statekit.complex_normal(rng, M, 2))
        phi, chi = orb[:, 0], orb[:, 1]
        amps = phi[lo] * chi[hi] - phi[hi] * chi[lo]
        states.append(PureStateN(RankedBasis(M, 2), amps / np.linalg.norm(amps)))
    w = rng.random(n_det) + 0.2
    return convex_mixture(list(w / w.sum()), states)


def test_ef_exact_m4_is_the_member_entropy_on_pure_states():
    for seed in range(6):
        st = random_pure_state(RankedBasis(4, 2), seed=seed)
        assert ef_exact_m4(reduce_pure(st, 2)) == pytest.approx(
            vn_entropy(reduce_pure(st, 1)), abs=1e-12)
    assert ef_exact_m4(reduce_pure(slater_state(RankedBasis(4, 2), (1, 3)), 2)) == LN2


def test_ef_exact_m4_is_ln2_on_planted_slater_mixtures():
    for n_det in (2, 3, 4):
        for seed in range(4):
            r = reduce_mixed(_planted_slater_mixture(4, n_det, seed), 2)
            assert ef_exact_m4(r) == pytest.approx(LN2, abs=1e-10), (n_det, seed)


def test_ef_exact_m4_refuses_other_shapes():
    with pytest.raises(ShapeError):
        ef_exact_m4(reduce_pure(random_pure_state(RankedBasis(5, 2), seed=1), 2))
    with pytest.raises(ShapeError):
        ef_exact_m4(reduce_pure(random_pure_state(RankedBasis(4, 3), seed=1), 1))
    with pytest.raises(NormalizationError):
        ef_exact_m4(rescale(reduce_pure(random_pure_state(RankedBasis(4, 3), seed=1), 2),
                            PHYSICS))


CLI_EF = EfOptions(ensemble_size="rank", restarts=2)


@pytest.mark.parametrize("M", [4, 6])
def test_ef_reaches_ln2_on_planted_slater_mixtures(M):
    for n_det in (2, 3, 4):
        for seed in range(3):
            r = reduce_mixed(_planted_slater_mixture(M, n_det, seed), 2)
            value = ef_optimize(embed_wedge_to_tensor(r), CLI_EF).value
            assert value == pytest.approx(LN2, abs=1e-8), (n_det, seed)
            if M == 4:
                assert value == pytest.approx(ef_exact_m4(r), abs=1e-8), (n_det, seed)


def _count_random_restarts(monkeypatch):
    drawn = []
    real = entmeasures.complex_normal

    def counting(rng, *shape):
        drawn.append(shape)
        return real(rng, *shape)

    monkeypatch.setattr(entmeasures, "complex_normal", counting)
    return drawn


def test_ef_floor_exit_skips_the_remaining_restarts(monkeypatch):
    drawn = _count_random_restarts(monkeypatch)
    opts = EfOptions(restarts=20)
    projection = _pair_tensor(slater_state(RankedBasis(4, 2), (0, 1)))
    mixture = _pair_tensor(_planted_slater_mixture(4, 3, 0))
    for t in (projection, mixture):
        res = ef_optimize(t, opts)
        assert res.restart == 0
        assert res.value == pytest.approx(LN2, abs=1e-12)
    assert drawn == []


def test_ef_floor_exit_needs_an_antisymmetric_state(monkeypatch):
    # generic two-party states can go below ln 2, so only 0 ends them early
    drawn = _count_random_restarts(monkeypatch)
    res = ef_optimize(random_two_party_dm(3, rank=3, seed=2),
                      dataclasses.replace(CLI_EF, restarts=3))
    assert len(drawn) == 2
    assert res.value < LN2


def test_ef_floor_exit_needs_the_antisymmetric_subspace(monkeypatch):
    # a symmetric admixture 1e-9 |00><00| leaves the antisymmetric subspace, so
    # no restart may end the run at ln 2; the unmixed state still exits at once
    drawn = _count_random_restarts(monkeypatch)
    opts = dataclasses.replace(CLI_EF, restarts=3)
    t = _pair_tensor(_planted_slater_mixture(4, 3, 0))
    assert ef_optimize(t, opts).restart == 0
    assert drawn == []
    mixed = (1.0 - 1e-9) * t.matrix
    mixed[0, 0] += 1e-9
    ef_optimize(TensorDM(parties=2, local_dim=4, matrix=mixed), opts)
    assert len(drawn) == opts.restarts - 1


def _one_member_value(t):
    # the lone member sqrt(mu) phi of a rank-1 input, scored as ef_optimize scores it
    rho = entmeasures._unit_trace(t.dense(), TOL)
    mu, phi = hermlin.support(eig_herm(rho, vectors=True))
    assert mu.size == 1
    x = np.sqrt(mu)[:, None] * phi.T
    return float(entmeasures._member_contribs(x, t.local_dim, t.local_dim).sum())


def test_ef_credits_no_restart_with_a_win_that_is_only_rounding():
    # restart 1 ends 4.4e-16 and 8.9e-16 below restart 0 here, which is rounding,
    # not a better decomposition, so restart 0 keeps the credit
    opts = dataclasses.replace(CLI_EF, seed=1)
    names = ("random-M5-N3-004", "random-M5-N3-005")
    entries = [e for e in build_corpus(1, 50) if e.name in names]
    assert [e.name for e in entries] == list(names)
    for e in entries:
        assert ef_optimize(embed_wedge_to_tensor(e.rdm(2)), opts).restart == 0, e.name


def test_ef_on_a_pure_pair_state_is_its_one_member_value():
    # a rank-1 input runs the descent, polish and restarts of every input, and
    # ends on the bits of its lone member sqrt(mu) phi, found by restart 0
    opts = dataclasses.replace(CLI_EF, seed=1)
    seen = 0
    for seed in (1, 2, 3):
        for e in build_corpus(seed, 50):
            if not (isinstance(e.state, PureStateN) and e.basis.n_particles == 2):
                continue
            t = embed_wedge_to_tensor(e.rdm(2))
            res = ef_optimize(t, opts)
            assert res.value == _one_member_value(t), (seed, e.name)
            assert res.restart == 0 and res.converged, (seed, e.name)
            seen += 1
    assert seen == 81


def test_ef_rank_one_input_descends_over_a_larger_ensemble(monkeypatch):
    descend = entmeasures._descend
    shapes = []

    def spy(iso, value_grad, floor, steps):
        shapes.append(iso.shape)
        return descend(iso, value_grad, floor, steps)

    monkeypatch.setattr(entmeasures, "_descend", spy)
    t = _pair_tensor(random_pure_state(RankedBasis(5, 2), seed=7))
    res = ef_optimize(t, EfOptions(ensemble_size=3, restarts=2, seed=1))
    assert shapes == [(1, 3, 1), (1, 3, 1)]
    deco = res.decomposition
    recon = (deco.members.conj().T * deco.weights) @ deco.members
    assert np.abs(recon.T - t.dense()).max() <= 1e-12
    assert res.value == pytest.approx(_one_member_value(t), abs=1e-15)


@pytest.mark.parametrize("lam", [[np.nan, 1.0], [0.5, 0.5, np.nan], [np.inf, 0.0]])
def test_vn_entropy_refuses_non_finite_spectra(lam):
    with pytest.raises(NormalizationError):
        vn_entropy(Spectrum(np.array(lam)))


def test_vn_entropy_refuses_a_non_finite_trace():
    with pytest.raises(NormalizationError):
        vn_entropy(np.full((2, 2), np.nan))


@pytest.mark.parametrize("p", [[np.nan, 0.5, 0.5], [np.inf, 0.0]])
def test_entropy_of_probs_refuses_non_finite_input(p):
    with pytest.raises(ShapeError):
        entropy_of_probs(np.array(p))


def _cuts_per_spectrum(monkeypatch, call):
    made, cut = [], []
    real_eig, real_cut = hermlin.eig_herm, hermlin._cut_support

    def eig(*args, **kwargs):
        spec = real_eig(*args, **kwargs)
        made.append(spec)
        return spec

    monkeypatch.setattr(hermlin, "eig_herm", eig)
    monkeypatch.setattr(entmeasures, "eig_herm", eig)
    monkeypatch.setattr(hermlin, "_cut_support",
                        lambda spec, tol: cut.append(spec) or real_cut(spec, tol))
    call()
    return sorted(map(id, made)), sorted(map(id, cut))


def test_subadd_remainder_cuts_each_spectrum_once(monkeypatch):
    # rho's spectrum and each marginal's: psd_root's root and square check,
    # vn_entropy and the second route share one cut
    t = random_two_party_dm(3, rank=3, seed=21)
    made, cut = _cuts_per_spectrum(monkeypatch, lambda: subadd_remainder(t))
    assert len(made) == 3 and cut == made


def test_mutual_info_bounds_cuts_each_spectrum_once(monkeypatch):
    state = random_pure_state(RankedBasis(6, 3), seed=7)
    made, cut = _cuts_per_spectrum(monkeypatch, lambda: mutual_info_bounds(state))
    assert len(made) == 2 and cut == made
