"""End-to-end checks of the package's headline guarantees.

Each test prints a single PASS/FAIL line (visible under plain pytest) and
asserts the stated tolerance. The even-particle-number extension check pins
the determinant extension family to its closed form and compares its best
member with the closed-form upper bound: every even-N member lies below
(1/2) ln((N+2)/(N-2)), so the bound is met by an explicit extension.
"""

import math
import time

import numpy as np
import pytest

from fermient import (
    EfOptions,
    MinS2Options,
    RankedBasis,
    TensorDM,
    YangParams,
    brute_force_reduce,
    convex_mixture,
    ef_optimize,
    elem_sym,
    elem_sym_det,
    elem_sym_direct,
    embed_wedge_to_tensor,
    extension_spec_from_tripartite,
    min_s2_search,
    mutual_info_bounds,
    nbody_elem_bound,
    purity,
    reduce_mixed,
    reduce_pure,
    slater_extension_spec,
    slater_squashed_bound,
    slater_state,
    squashed_extension_value,
    subadd_remainder,
    vn_entropy,
    yang_analytics,
    yang_state,
)

LN2 = math.log(2.0)


def _announce(capsys, label, ok, detail):
    with capsys.disabled():
        print(f"[{label}] {'PASS' if ok else 'FAIL'}: {detail}")


def test_acceptance_slater_exactness(capsys):
    t0 = time.perf_counter()
    st = slater_state(RankedBasis(6, 4), range(4))
    lam = np.sort(np.linalg.eigvalsh(reduce_pure(st, 2).matrix))[::-1]
    dev = max(np.abs(lam[:6] - 1 / 6).max(), np.abs(lam[6:]).max())
    s12 = vn_entropy(reduce_pure(st, 2))
    s1 = vn_entropy(reduce_pure(st, 1))
    pur = purity(reduce_pure(st, 1))
    rep, _ = mutual_info_bounds(st)
    dt = time.perf_counter() - t0
    ok = (dev <= 1e-12 and abs(s12 - math.log(6)) <= 1e-10
          and abs(s1 - math.log(4)) <= 1e-10 and abs(pur - 0.25) <= 1e-12
          and abs(rep.slack) <= 1e-9 and dt < 1.0)
    _announce(capsys, "1 determinant exactness", ok,
              f"spectrum dev {dev:.2e}, |slack| {abs(rep.slack):.2e}, {dt:.2f}s")
    assert dev <= 1e-12
    assert abs(s12 - math.log(6)) <= 1e-10
    assert abs(s1 - math.log(4)) <= 1e-10
    assert abs(pur - 0.25) <= 1e-12
    assert abs(rep.slack) <= 1e-9
    assert dt < 1.0


def test_acceptance_pair_state_analytics(capsys):
    t0 = time.perf_counter()
    worst_spec = 0.0
    worst_ent = 0.0
    worst_sum = 0.0
    for m in range(2, 6):
        for n in range(1, m + 1):
            ana = yang_analytics(YangParams(m, n))
            r2 = reduce_mixed(yang_state(YangParams(m, n)), 2)
            lam = np.sort(np.linalg.eigvalsh(r2.matrix))[::-1]
            worst_spec = max(worst_spec,
                             float(np.abs(lam - ana.spectrum(dim=lam.size)).max()))
            worst_sum = max(worst_sum,
                            abs(ana.lam1 * ana.mult1 + ana.lam2 * ana.mult2 - 1.0))
            worst_ent = max(worst_ent, abs(vn_entropy(r2) - ana.entropy))
    dt = time.perf_counter() - t0
    ok = worst_spec <= 1e-10 and worst_sum <= 1e-12 and worst_ent <= 1e-10 and dt < 30
    _announce(capsys, "2 pair-state analytics", ok,
              f"spectrum {worst_spec:.2e}, trace {worst_sum:.2e}, "
              f"entropy {worst_ent:.2e}, {dt:.1f}s")
    assert worst_spec <= 1e-10
    assert worst_sum <= 1e-12
    assert worst_ent <= 1e-10
    assert dt < 30


def test_acceptance_subadditivity_remainder(corpus, capsys):
    from fermient.rdmcore import random_two_party_dm

    t0 = time.perf_counter()
    worst_slack = math.inf
    for i in range(100):
        d = 2 + i % 3
        t = random_two_party_dm(d, rank=1 + i % (d * d), seed=1_000_000 + i)
        worst_slack = min(worst_slack, subadd_remainder(t).slack)
    for entry in corpus:
        t = embed_wedge_to_tensor(entry.rdm(2))
        worst_slack = min(worst_slack, subadd_remainder(t).slack)
    worst_eq = 0.0
    rng = np.random.default_rng(7)
    for d in (2, 3, 4):
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        rep = subadd_remainder(TensorDM(parties=2, local_dim=d,
                                        matrix=np.kron(rho, rho)))
        worst_eq = max(worst_eq, abs(rep.lhs - rep.rhs))
    dt = time.perf_counter() - t0
    ok = worst_slack >= -1e-9 and worst_eq <= 1e-10 and dt < 60
    _announce(capsys, "3 subadditivity remainder", ok,
              f"min slack {worst_slack:.2e}, product gap {worst_eq:.2e}, {dt:.1f}s")
    assert worst_slack >= -1e-9
    assert worst_eq <= 1e-10
    assert dt < 60


def test_acceptance_elementary_symmetric(corpus, capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    worst_pair = 0.0
    worst_e3 = 0.0
    for _ in range(50):
        dim = int(rng.integers(3, 13))
        lam = rng.random(dim)
        lam /= lam.sum()
        n = int(rng.integers(2, min(dim, 6) + 1))
        psums = [float(np.sum(lam ** j)) for j in range(2, n + 1)]
        routes = (elem_sym(n, psums), elem_sym_det(n, psums),
                  elem_sym_direct(lam, n))
        worst_pair = max(worst_pair, max(routes) - min(routes))
        p2 = float(np.sum(lam ** 2))
        p3 = float(np.sum(lam ** 3))
        worst_e3 = max(worst_e3, abs(elem_sym(3, [p2, p3])
                                     - (1 - 3 * p2 + 2 * p3) / 6))
    all_hold = all(nbody_elem_bound(entry.state).holds for entry in corpus)
    dt = time.perf_counter() - t0
    ok = worst_pair <= 1e-12 and worst_e3 <= 1e-14 and all_hold and dt < 30
    _announce(capsys, "4 elementary symmetric forms", ok,
              f"route gap {worst_pair:.2e}, three-body gap {worst_e3:.2e}, "
              f"corpus bound holds {all_hold}, {dt:.1f}s")
    assert worst_pair <= 1e-12
    assert worst_e3 <= 1e-14
    assert all_hold
    assert dt < 30


def test_acceptance_formation_energy_floor(corpus, capsys):
    t0 = time.perf_counter()
    b4 = RankedBasis(4, 2)
    b6 = RankedBasis(6, 2)
    proj = ef_optimize(embed_wedge_to_tensor(reduce_pure(
        slater_state(b4, (0, 1)), 2))).value
    mix2 = convex_mixture([0.5, 0.5], [slater_state(b4, (0, 1)),
                                       slater_state(b4, (2, 3))])
    v2 = ef_optimize(embed_wedge_to_tensor(reduce_mixed(mix2, 2))).value
    mix3 = convex_mixture([1 / 3, 1 / 3, 1 / 3],
                          [slater_state(b6, (0, 1)), slater_state(b6, (2, 3)),
                           slater_state(b6, (4, 5))])
    v3 = ef_optimize(embed_wedge_to_tensor(reduce_mixed(mix3, 2))).value
    # cheap settings still yield valid upper bounds, so a floor check stands
    floor_opts = EfOptions(ensemble_size="rank", restarts=1)
    floor_min = math.inf
    for entry in corpus:
        t = embed_wedge_to_tensor(entry.rdm(2))
        floor_min = min(floor_min, ef_optimize(t, floor_opts).value)
    dt = time.perf_counter() - t0
    ok = (abs(proj - LN2) <= 1e-4 and abs(v2 - LN2) <= 1e-4
          and abs(v3 - LN2) <= 1e-4 and floor_min >= LN2 - 1e-4 and dt < 300)
    _announce(capsys, "5 formation optimizer", ok,
              f"projection {proj - LN2:+.2e}, mixtures {v2 - LN2:+.2e}/"
              f"{v3 - LN2:+.2e}, corpus floor excess {floor_min - LN2:+.2e}, {dt:.0f}s")
    assert abs(proj - LN2) <= 1e-4
    assert abs(v2 - LN2) <= 1e-4
    assert abs(v3 - LN2) <= 1e-4
    assert floor_min >= LN2 - 1e-4
    assert dt < 300


def test_acceptance_extension_value_even_branch(capsys):
    # The k-particle extension of an N-fermion determinant's 2-RDM has flat
    # reduced spectra, S_j = ln C(N, j), so its value is
    # E(N,k) = (1/2) ln[k(N-k+2) / ((N-k+1)(k-1))]. The family's minimum,
    # ln((N+2)/N) at k = N/2 + 1, must not exceed the closed-form bound.
    def closed_form(N, k):
        return 0.5 * math.log(k * (N - k + 2) / ((N - k + 1) * (k - 1)))

    worst_family = 0.0
    worst_min = 0.0
    argmins = {}
    gaps = {}
    for N in (4, 6, 8):
        values = {k: squashed_extension_value(slater_extension_spec(N, k))
                  for k in range(2, N + 1)}
        worst_family = max(worst_family, max(abs(v - closed_form(N, k))
                                             for k, v in values.items()))
        k_min = argmins[N] = min(values, key=values.get)
        worst_min = max(worst_min, abs(values[k_min] - math.log((N + 2) / N)))
        gaps[N] = slater_squashed_bound(N) - values[k_min]
    spec = slater_extension_spec(4, 2)
    st = slater_state(RankedBasis(4, 4), range(4))
    oracle = (vn_entropy(brute_force_reduce(st, 2)),
              vn_entropy(brute_force_reduce(st, 1)))
    worst_oracle = max(abs(spec.s123 - oracle[0]), abs(spec.s13 - oracle[1]),
                       abs(spec.s23 - oracle[1]), abs(spec.s3),
                       abs(oracle[0] - math.log(math.comb(4, 2))),
                       abs(oracle[1] - math.log(math.comb(4, 1))))
    argmin_ok = all(k == N // 2 + 1 for N, k in argmins.items())
    ok = (worst_family <= 1e-10 and argmin_ok and worst_min <= 1e-10
          and min(gaps.values()) >= -1e-10 and worst_oracle <= 1e-10)
    _announce(capsys, "6a even-branch extension value", ok,
              f"family vs closed form {worst_family:.2e}, minimum at "
              f"k = N/2+1 {argmin_ok}, minimum vs ln((N+2)/N) "
              f"{worst_min:.2e}, oracle {worst_oracle:.2e}, bound minus "
              "minimum " + ", ".join(f"N={N}: {g:.3f}"
                                     for N, g in gaps.items()))
    assert worst_family <= 1e-10
    assert argmin_ok
    assert worst_min <= 1e-10
    assert min(gaps.values()) >= -1e-10
    assert worst_oracle <= 1e-10


def test_acceptance_extension_values_odd_and_nonnegative(capsys):
    t0 = time.perf_counter()
    odd = squashed_extension_value(slater_extension_spec(5, 3))
    odd_diff = abs(odd - 0.5 * LN2)
    worst = math.inf
    for N in range(3, 7):
        for k in range(2, N + 1):
            worst = min(worst, squashed_extension_value(slater_extension_spec(N, k)))
    rng = np.random.default_rng(13)
    for i in range(20):
        d = 2 + i % 2
        q = 1 + i % 3
        g = rng.normal(size=(d ** 3, q)) + 1j * rng.normal(size=(d ** 3, q))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        ext = extension_spec_from_tripartite(TensorDM(parties=3, local_dim=d,
                                                      matrix=rho))
        worst = min(worst, squashed_extension_value(ext))
    dt = time.perf_counter() - t0
    ok = odd_diff <= 1e-10 and worst >= -1e-9 and dt < 30
    _announce(capsys, "6b odd-branch and nonnegativity", ok,
              f"odd diff {odd_diff:.2e}, min extension value {worst:.2e}, {dt:.1f}s")
    assert odd_diff <= 1e-10
    assert worst >= -1e-9
    assert dt < 30


def test_acceptance_reduction_oracle(corpus, capsys):
    t0 = time.perf_counter()
    named = [e for e in corpus if e.kind in ("slater", "yang")]
    randoms = [e for e in corpus if e.kind == "random"][:50]
    worst = 0.0
    checked = 0
    for entry in named + randoms:
        M, N = entry.basis.n_modes, entry.basis.n_particles
        if M ** N > 100_000:
            continue
        ks = range(1, N + 1) if entry.kind != "random" else (1, 2)
        for k in ks:
            gap = np.abs(reduce_pure(entry.state, k).matrix
                         - brute_force_reduce(entry.state, k).matrix).max()
            worst = max(worst, float(gap))
            checked += 1
    dt = time.perf_counter() - t0
    ok = worst <= 1e-10 and dt < 120
    _announce(capsys, "7 reduction vs dense oracle", ok,
              f"{checked} comparisons, max entry gap {worst:.2e}, {dt:.1f}s")
    assert checked >= 50
    assert worst <= 1e-10
    assert dt < 120


def test_acceptance_spectral_ceilings(corpus, capsys):
    t0 = time.perf_counter()
    worst1 = -math.inf
    worst2 = -math.inf
    for entry in corpus:
        N = entry.basis.n_particles
        top1 = float(np.linalg.eigvalsh(entry.rdm(1).matrix).max())
        top2 = float(np.linalg.eigvalsh(entry.rdm(2).matrix).max())
        worst1 = max(worst1, top1 - 1.0 / N)
        worst2 = max(worst2, top2 - 2.0 / (N - 1))
    dt = time.perf_counter() - t0
    ok = worst1 <= 1e-9 and worst2 <= 1e-9 and len(corpus) >= 200 and dt < 60
    _announce(capsys, "8 occupation and pair ceilings", ok,
              f"{len(corpus)} states, worst excesses {worst1:.2e} / {worst2:.2e}, "
              f"{dt:.1f}s")
    assert len(corpus) >= 200
    assert worst1 <= 1e-9
    assert worst2 <= 1e-9
    assert dt < 60


def test_acceptance_minimum_entropy_search(capsys):
    # observational: record whether the search ever beats the determinant
    # reference; the outcome is logged, not asserted
    t0 = time.perf_counter()
    lines = []
    for M, N in ((5, 3), (6, 4)):
        res = min_s2_search(M, N, MinS2Options(restarts=50))
        beaten = res.best_entropy < res.slater_reference - 1e-6
        lines.append(f"(M={M},N={N}) best {res.best_entropy:.9f} vs "
                     f"reference {res.slater_reference:.9f}, beaten={beaten}, "
                     f"{res.evaluations} evaluations")
        assert math.isfinite(res.best_entropy)
        assert res.evaluations > 0
    dt = time.perf_counter() - t0
    _announce(capsys, "9 pair-entropy search (observation)", True,
              "; ".join(lines) + f", {dt:.0f}s")
