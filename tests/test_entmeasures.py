import dataclasses
import math

import numpy as np
import pytest

from fermient import (
    CAP,
    CapacityError,
    EfOptions,
    MinS2Options,
    NormalizationError,
    RangeError,
    RankedBasis,
    ShapeError,
    TensorDM,
    YangParams,
    convex_mixture,
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
from fermient import TOL, NumericalError, entmeasures, hermlin
from fermient.rdmcore import PHYSICS, tensor_ptrace
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


def test_subadd_checks_supplied_marginals():
    t = random_two_party_dm(2, rank=2, seed=1)
    good = tensor_ptrace(t, (0,))
    rep = subadd_remainder(t, rho1=good)
    assert rep.holds
    with pytest.raises(ShapeError):
        subadd_remainder(t, rho1=np.eye(2) / 2 + 0.2 * np.diag([1.0, -1.0]))
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


def test_subadd_n_dense_capacity():
    t = random_two_party_dm(3, rank=2, seed=3)
    small = dataclasses.replace(CAP, dense_eig=4)
    with pytest.raises(CapacityError):
        subadd_remainder_n(t, cap=small)


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


# ---------------------------------------------------------------------------
# entanglement of formation

def _pair_tensor(state):
    return embed_wedge_to_tensor(reduce_mixed(state, 2))


def test_ef_converges_at_zero_sweep_tol():
    # a sweep that changes nothing lowers the total by 0 <= ef_sweep_tol
    t = _pair_tensor(yang_state(YangParams(2, 2)))
    res = ef_optimize(t, EfOptions(ensemble_size="rank", restarts=2, max_iters=30),
                      dataclasses.replace(TOL, ef_sweep_tol=0.0))
    assert res.converged and res.sweeps == 1
    assert res.value == pytest.approx(LN2, abs=1e-12)


def test_ef_pure_determinant_is_ln2():
    res = ef_optimize(_pair_tensor(slater_state(RankedBasis(4, 2), (0, 1))))
    assert res.value == pytest.approx(LN2, abs=1e-12)
    assert res.converged
    assert ef_fermionic_excess(res.value) == pytest.approx(0.0, abs=1e-12)


def test_ef_mixture_reaches_floor():
    st = convex_mixture([0.5, 0.5], [slater_state(RankedBasis(4, 2), (0, 1)),
                                     slater_state(RankedBasis(4, 2), (2, 3))])
    res = ef_optimize(_pair_tensor(st), EfOptions(restarts=2, max_iters=30))
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
    opts = EfOptions(restarts=3, max_iters=20)
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
    quick = EfOptions(restarts=1, max_iters=4)
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
        ef_optimize(t, EfOptions(ensemble_size=size, restarts=1, max_iters=1))


def test_ef_input_validation():
    three = embed_state_full(slater_state(RankedBasis(4, 3), (0, 1, 2)))
    with pytest.raises(ShapeError):
        ef_optimize(three)
    t = random_two_party_dm(2, rank=2, seed=5)
    bad = TensorDM(parties=2, local_dim=2, matrix=2.0 * t.dense())
    with pytest.raises(NormalizationError):
        ef_optimize(bad)
    small = dataclasses.replace(CAP, ef_rank=1)
    with pytest.raises(CapacityError):
        ef_optimize(t, cap=small)


def test_ef_chi_state_matches_closed_form():
    # single occupied pair on m pairs: pure 2-RDM, E_f = ln(2m) exactly
    for m in (2, 3):
        t = _pair_tensor(yang_state(YangParams(m, 1)))
        res = ef_optimize(t)
        assert res.value == pytest.approx(yang_analytics(YangParams(m, 1)).ef_alt,
                                          abs=1e-10)


def _svd_contrib(row, d):
    # weight * entropy of one unnormalized member, from its Schmidt values
    s = np.linalg.svd(row.reshape(d, d), compute_uv=False)
    p = s * s
    lam = p.sum()
    p = p[p > 1e-18]
    return float(-(p * np.log(p)).sum() + lam * math.log(lam))


def _kernel_pairs():
    rng = np.random.default_rng(11)
    for d in range(2, 7):
        z = rng.standard_normal((2, d * d)) + 1j * rng.standard_normal((2, d * d))
        yield d, z[0] / np.linalg.norm(z), z[1] / np.linalg.norm(z)
        # Slater-like rows: rank-2 antisymmetric u v^T - v u^T
        u, v, x = rng.standard_normal((3, d)) + 1j * rng.standard_normal((3, d))
        wk = (np.outer(u, v) - np.outer(v, u)).ravel()
        wl = (np.outer(u, x) - np.outer(x, u)).ravel()
        scale = math.sqrt(2) * max(np.linalg.norm(wk), np.linalg.norm(wl))
        yield d, wk / scale, wl / scale


def test_pair_objective_matches_svd_of_rotated_rows():
    from fermient.entmeasures import _pair_objective
    thetas = np.array([0.0, 0.3, 1.1, 2.0, math.pi / 2])
    phis = np.array([0.7, 0.0, 2.5, 4.0, 1.3])
    for d, wk, wl in _kernel_pairs():
        got = _pair_objective(wk, wl, thetas, phis, d, d)
        for th, ph, val in zip(thetas, phis, got):
            c = math.cos(th)
            u_s = complex(math.cos(ph), math.sin(ph)) * math.sin(th)
            top = c * wk + u_s * wl
            bot = -np.conjugate(u_s) * wk + c * wl
            want = _svd_contrib(top, d) + _svd_contrib(bot, d)
            assert abs(val - want) <= 1e-12, (d, th)


def test_pair_objective_has_period_half_pi_in_theta():
    from fermient.entmeasures import _pair_objective
    thetas = np.linspace(0.0, math.pi / 2, 9)
    phis = np.linspace(0.1, 3.0, 9)
    for d, wk, wl in _kernel_pairs():
        a = _pair_objective(wk, wl, thetas, phis, d, d)
        b = _pair_objective(wk, wl, thetas + math.pi / 2, phis, d, d)
        assert np.abs(a - b).max() <= 1e-12, d


def test_best_pair_rotation_reevaluates_below_coarse_grid():
    from fermient.entmeasures import (_ANGLES, _PHASES, _best_pair_rotation,
                                      _pair_objective)
    tt, pp = np.meshgrid(_ANGLES, _PHASES, indexing="ij")
    for d, wk, wl in _kernel_pairs():
        coarse = _pair_objective(wk, wl, tt.ravel(), pp.ravel(), d, d).min()
        # an unbeatable base skips refinement; an infinite one forces it
        assert _best_pair_rotation(wk, wl, d, d, -math.inf)[2] == coarse
        theta, phi, val = _best_pair_rotation(wk, wl, d, d, math.inf)
        again = _pair_objective(wk, wl, np.array([theta]), np.array([phi]), d, d)
        assert abs(again[0] - val) <= 1e-12
        assert val <= coarse


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


def test_nbody_elem_cross_check_skipped_past_capacity():
    st = random_pure_state(RankedBasis(8, 4), seed=5)
    terms = math.comb(8, 4)
    at = nbody_elem_bound(st, cap=dataclasses.replace(CAP, elem_terms=terms))
    past = nbody_elem_bound(st, cap=dataclasses.replace(CAP, elem_terms=terms - 1))
    assert at.context["e_N_direct"] == pytest.approx(at.context["e_N"], abs=1e-14)
    assert "cross_check" not in at.context
    assert past.context["e_N_direct"] is None
    assert past.context["cross_check"] == "skipped (capacity)"
    assert (past.lhs, past.rhs, past.holds) == (at.lhs, at.rhs, at.holds)
    assert '"e_N_direct": null' in report_json_line(past)


def test_ef_never_rescans_a_pair_with_unchanged_rows(monkeypatch):
    t = _pair_tensor(random_pure_state(RankedBasis(6, 4), seed=3))
    real = entmeasures._best_pair_rotation
    seen = set()

    def spy(wk, wl, *rest):
        key = (wk.tobytes(), wl.tobytes())
        assert key not in seen
        seen.add(key)
        return real(wk, wl, *rest)

    monkeypatch.setattr(entmeasures, "_best_pair_rotation", spy)
    res = ef_optimize(t, EfOptions(ensemble_size="rank", restarts=1, max_iters=4))
    L = res.decomposition.weights.size
    assert 0 < len(seen) < res.sweeps * L * (L - 1) // 2
