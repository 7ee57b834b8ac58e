import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermient import (
    CAP,
    TOL,
    CapacityError,
    NotPSDError,
    NumericalError,
    ShapeError,
    Spectrum,
    as_hermitian,
    eig_herm,
    kron,
    sqrt_from_spectrum,
    sqrt_psd,
    support,
    trace_product,
)
from fermient import EfOptions, hermlin, suites
from fermient.statekit import ginibre_density, seeded_rng


def _random_hermitian(n, seed, psd=False):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    if psd:
        return g @ g.conj().T / n
    return 0.5 * (g + g.conj().T)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 16])
def test_eig_reconstruction_and_orthonormality(n):
    a = _random_hermitian(n, seed=n)
    spec = eig_herm(a)
    lam, u = spec.eigenvalues, spec.vectors
    scale = max(np.linalg.norm(a), 1.0)
    assert np.abs(a @ u - u * lam).max() <= TOL.eig_residual * scale
    np.testing.assert_allclose(u.conj().T @ u, np.eye(n), atol=1e-12)
    assert np.all(np.diff(lam) <= 1e-15)  # descending


@pytest.mark.parametrize("n", [2, 4, 7, 12])
def test_eig_matches_lapack(n):
    a = _random_hermitian(n, seed=100 + n)
    got = eig_herm(a, vectors=False).eigenvalues
    want = np.linalg.eigvalsh(a)[::-1]
    np.testing.assert_allclose(got, want, atol=1e-11)


def test_eig_bitwise_deterministic():
    a = _random_hermitian(9, seed=3)
    s1 = eig_herm(a)
    s2 = eig_herm(a.copy())
    assert s1.eigenvalues.tobytes() == s2.eigenvalues.tobytes()
    assert s1.vectors.tobytes() == s2.vectors.tobytes()


def test_eig_degenerate_and_diagonal():
    np.testing.assert_allclose(eig_herm(np.eye(4)).eigenvalues, np.ones(4))
    a = np.diag([3.0, -1.0, 3.0, 0.0])
    np.testing.assert_allclose(eig_herm(a, vectors=False).eigenvalues,
                               [3.0, 3.0, 0.0, -1.0], atol=1e-14)


def test_as_hermitian_rejects():
    with pytest.raises(ShapeError):
        as_hermitian(np.ones((2, 3)))
    with pytest.raises(ShapeError):
        as_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
    # asymmetry below threshold is symmetrized away
    a = np.array([[1.0, 0.5 + 1e-15], [0.5, 2.0]])
    h = as_hermitian(a)
    assert np.abs(h - h.conj().T).max() == 0.0


@pytest.mark.parametrize("n", [2, 5, 9])
def test_sqrt_psd_squares_back(n):
    a = _random_hermitian(n, seed=40 + n, psd=True)
    root = sqrt_psd(a)
    np.testing.assert_allclose(root @ root, a,
                               atol=TOL.sqrt_square * np.linalg.norm(a))
    assert np.abs(root - root.conj().T).max() == 0.0


def test_sqrt_psd_clamps_tiny_negatives():
    a = np.diag([1.0, -1e-14])
    root = sqrt_psd(a)
    np.testing.assert_allclose(root, np.diag([1.0, 0.0]), atol=1e-12)


def test_sqrt_psd_rejects_indefinite():
    with pytest.raises(NotPSDError):
        sqrt_psd(np.diag([1.0, -0.5]))


def test_sqrt_from_spectrum_matches_sqrt_psd():
    a = _random_hermitian(6, seed=11, psd=True)
    spec = eig_herm(a)
    np.testing.assert_allclose(sqrt_from_spectrum(spec), sqrt_psd(a), atol=0)


def test_kron_matches_numpy():
    a = _random_hermitian(3, seed=1)
    b = _random_hermitian(4, seed=2)
    np.testing.assert_allclose(kron(a, b), np.kron(a, b), atol=0)


def test_kron_capacity_guard():
    big = np.eye(CAP.tensor_dim // 2 + 1)
    with pytest.raises(CapacityError):
        kron(big, np.eye(2))


def test_trace_product_matches_numpy():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(4, 6)) + 1j * rng.normal(size=(4, 6))
    b = rng.normal(size=(6, 4)) + 1j * rng.normal(size=(6, 4))
    assert trace_product(a, b) == pytest.approx(np.trace(a @ b).real, abs=1e-13)
    with pytest.raises(ShapeError):
        trace_product(a, a)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=10),
       st.integers(min_value=0, max_value=10**6))
def test_eig_trace_and_norm_invariants(n, seed):
    a = _random_hermitian(n, seed=seed)
    lam = eig_herm(a, vectors=False).eigenvalues
    assert lam.sum() == pytest.approx(np.trace(a).real, abs=1e-10 * max(n, 1))
    assert np.linalg.norm(lam) == pytest.approx(np.linalg.norm(a), abs=1e-10)


@pytest.mark.parametrize("bad", [np.nan, np.inf, 1j * np.nan])
def test_as_hermitian_rejects_non_finite(bad):
    a = np.eye(3, dtype=complex)
    a[1, 1] = bad
    with pytest.raises(ShapeError):
        as_hermitian(a)
    with pytest.raises(ShapeError):
        eig_herm(a)


def _with_spectrum(lam, seed):
    rng = np.random.default_rng(seed)
    n = len(lam)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return (q * np.asarray(lam, dtype=float)) @ q.conj().T


def _mixing_eigh(monkeypatch, seed):
    """Make np.linalg.eigh return a random unitary mix of its own basis
    inside every block of equal (to 1e-9) eigenvalues."""
    real = np.linalg.eigh
    rng = np.random.default_rng(seed)

    def mixed(m):
        w, v = real(m)
        v = v.copy()
        start = 0
        for i in range(1, len(w) + 1):
            if i == len(w) or w[i] - w[start] > 1e-9:
                k = i - start
                if k > 1:
                    z = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
                    v[:, start:i] = v[:, start:i] @ np.linalg.qr(z)[0]
                start = i
        return w, v

    monkeypatch.setattr(np.linalg, "eigh", mixed)


_DEGENERATE = ([3.0, 1.0, 1.0, 1.0, 0.5, -2.0], [2.0, 2.0, 0.0, 0.0, 0.0, -1.0, -1.0],
               [0.25, 0.25, 0.25, 0.25], [0.4, 0.2, 0.2, 0.1, 0.1, 0.0, 0.0, 0.0])


@pytest.mark.parametrize("lam", _DEGENERATE)
@pytest.mark.parametrize("seed", [0, 1])
def test_eig_vectors_ignore_lapack_basis_in_degenerate_blocks(monkeypatch, lam, seed):
    a = _with_spectrum(lam, seed=seed)
    want = eig_herm(a)
    _mixing_eigh(monkeypatch, seed=10 + seed)
    got = eig_herm(a)
    assert got.eigenvalues.tobytes() == want.eigenvalues.tobytes()
    assert np.abs(got.vectors - want.vectors).max() <= 1e-12


def test_eig_degenerate_unit_vectors_pick_the_first_tied_pivot(monkeypatch):
    # every column of the projector onto span(e0, e2, e3) ties; the canonical
    # basis is e0, e2, e3 in index order, whatever basis LAPACK returns
    a = np.diag([1.0, 2.0, 1.0, 1.0])
    _mixing_eigh(monkeypatch, seed=3)
    u = eig_herm(a).vectors
    np.testing.assert_allclose(u, np.eye(4)[:, [1, 0, 2, 3]], atol=1e-12)


@pytest.mark.parametrize("seed", range(4))
def test_eig_vectors_largest_entry_is_real_positive(seed):
    for a in (_random_hermitian(9, seed=seed), _with_spectrum(_DEGENERATE[seed], seed)):
        u = eig_herm(a).vectors
        lead = u[np.argmax(np.abs(u), axis=0), np.arange(u.shape[1])]
        assert np.all(lead.imag == 0.0) and np.all(lead.real > 0.0)


@pytest.mark.parametrize("seed", range(4))
def test_eig_values_agree_with_and_without_vectors(seed):
    for a in (_random_hermitian(12, seed=seed), _with_spectrum(_DEGENERATE[seed], seed)):
        with_vecs = eig_herm(a).eigenvalues
        values_only = eig_herm(a, vectors=False).eigenvalues
        assert np.abs(with_vecs - values_only).max() <= 1e-12


def test_eig_residual_check_raises(monkeypatch):
    real = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda m: (real(m)[0], np.eye(len(m), dtype=complex)))
    with pytest.raises(NumericalError):
        eig_herm(_random_hermitian(5, seed=2))


def test_sqrt_psd_square_check_raises(monkeypatch):
    real = hermlin.sqrt_from_spectrum
    monkeypatch.setattr(hermlin, "sqrt_from_spectrum",
                        lambda spec, tol: 1.001 * real(spec, tol))
    with pytest.raises(NumericalError):
        sqrt_psd(_random_hermitian(4, seed=8, psd=True))


@pytest.mark.parametrize("seed", range(8))
def test_eig_phase_ties_resolve_to_the_first_entry(seed):
    # entries 0 and 1 of the top eigenvector tie in modulus, as in every
    # antisymmetric two-particle vector; the first one is made real positive
    v = np.array([1.0, -1.0, 0.5j, 0.0, 0.0, 0.0]) / 1.5
    rng = np.random.default_rng(seed)
    off = np.eye(6) - np.outer(v, v.conj())
    a = 3.0 * np.outer(v, v.conj()) + 0.1 * off @ _random_hermitian(6, seed=seed) @ off
    u = eig_herm(a * rng.uniform(0.5, 2.0)).vectors[:, 0]
    assert u[0].imag == 0.0 and u[0].real > 0.0
    np.testing.assert_allclose(u, v, atol=1e-12)


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("seed", range(3))
def test_sqrt_psd_of_rank_deficient_kron_is_the_kron_of_roots(d, seed):
    # the zero eigenvalues of a product of low-rank factors carry no root
    rng = seeded_rng(seed, d)
    for rank1 in range(1, d):
        for rank2 in range(1, d):
            r1 = ginibre_density(rng, d, rank1)
            r2 = ginibre_density(rng, d, rank2)
            want = kron(sqrt_psd(r1), sqrt_psd(r2))
            assert np.abs(sqrt_psd(kron(r1, r2)) - want).max() <= 1e-12


def test_psd_root_takes_lapack_vectors_as_they_come(monkeypatch):
    # psd_root reads no basis, so it skips the canonical form; eig_herm keeps it
    a = _with_spectrum(_DEGENERATE[3], seed=0)
    sizes = []
    real = hermlin._cluster_basis
    monkeypatch.setattr(hermlin, "_cluster_basis",
                        lambda v, rel: sizes.append(v.shape[1]) or real(v, rel))
    spec, root = hermlin.psd_root(a)
    assert sizes == []
    np.testing.assert_allclose(spec.eigenvalues, _DEGENERATE[3], atol=1e-12)
    eig_herm(a)
    assert sizes


def test_subadd_reports_ignore_the_null_space_basis(monkeypatch):
    run = suites.SuiteRun(seed=1, n_random=12, M=None, N=None, states=(), tol=TOL,
                          ef=EfOptions())
    want = [rep.slack for rep in suites.subadd(run)]
    monkeypatch.setattr(hermlin, "_cluster_basis", lambda v, rel: v)
    _mixing_eigh(monkeypatch, seed=5)
    got = [rep.slack for rep in suites.subadd(run)]
    assert len(got) == len(want)
    assert np.abs(np.subtract(got, want)).max() <= 1e-12


@pytest.mark.parametrize("lam", [[np.nan, 1.0], [1.0, 0.0, np.nan], [np.inf, 0.0]])
def test_support_refuses_non_finite_eigenvalues(lam):
    with pytest.raises(ShapeError):
        support(Spectrum(np.array(lam)))


def _as_hermitian_formula(a, tol=TOL):
    # the rule as_hermitian implements, written out step by step
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {a.shape}")
    a = a.astype(complex, copy=True)
    if not np.isfinite(a).all():
        raise ShapeError("matrix has non-finite entries")
    scale = max(np.abs(a).max(initial=0.0), 1.0)
    defect = np.abs(a - a.conj().T).max(initial=0.0)
    if defect > tol.hermiticity * scale:
        raise ShapeError(f"matrix not Hermitian: defect {defect:.3e}")
    return 0.5 * (a + a.conj().T)


def _outcome(fn, a):
    try:
        out = fn(a)
    except Exception as exc:
        return type(exc), str(exc)
    return out.dtype, out.shape, out.tobytes()


def _hermitian_inputs():
    rng = np.random.default_rng(11)
    g = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    herm = g + g.conj().T
    signed = np.array([[-0.0, complex(-0.0, -0.0)], [complex(-0.0, 0.0), -0.0]])
    near = herm.copy()
    near[0, 1] += 1e-15
    huge = np.array([[0.0, 1e308 + 1e308j], [1e308 - 1e308j, 0.0]])
    cases = {
        "random": herm, "random-real": herm.real + herm.real.T,
        "random-f-order": np.asfortranarray(herm), "strided": herm[::2, ::2],
        "degenerate": 2.0 * np.eye(5), "rank-one": np.outer(g[0], g[0].conj()),
        "signed-zeros": signed, "int": np.array([[1, 2], [2, 1]]),
        "1x1": np.array([[3.5]]), "0x0": np.zeros((0, 0)),
        "near-hermitian": near, "modulus-overflow": huge,
    }
    for name, bad in (("nan", np.nan), ("inf", np.inf), ("-inf", -np.inf),
                      ("nan-imag", 1j * np.nan), ("inf-imag", 1j * np.inf)):
        a = herm.copy()
        a[2, 3] = bad
        cases[name] = a
    nonherm = herm.copy()
    nonherm[0, 1] += 1e-3
    cases.update({"non-hermitian": nonherm, "non-square": np.ones((2, 3)),
                  "vector": np.ones(3),
                  # non-finite is judged before non-Hermitian
                  "nan-and-asymmetric": np.where(np.eye(6) > 0, np.nan, g)})
    return cases


@pytest.mark.parametrize("name", sorted(_hermitian_inputs()))
def test_as_hermitian_is_bytewise_its_formula(name):
    a = _hermitian_inputs()[name]
    before = (a.dtype, a.shape, a.tobytes())
    with np.errstate(all="ignore"):
        got = _outcome(as_hermitian, a)
        want = _outcome(_as_hermitian_formula, a)
        if not isinstance(got[0], type):     # a result: never the input itself
            assert not np.shares_memory(as_hermitian(a), a)
    assert got == want
    assert (a.dtype, a.shape, a.tobytes()) == before


def test_support_cuts_a_spectrum_once_per_tolerance_record(monkeypatch):
    calls = []
    real = hermlin._cut_support
    monkeypatch.setattr(hermlin, "_cut_support",
                        lambda spec, tol: calls.append(tol) or real(spec, tol))
    spec = eig_herm(_random_hermitian(5, seed=2, psd=True))
    first = support(spec)
    again = support(spec)
    assert calls == [TOL] and all(x is y for x, y in zip(first, again))
    other = dataclasses.replace(TOL)                # equal, but another record
    support(spec, other)
    assert len(calls) == 2
    spec.eigenvalues = spec.eigenvalues.copy()     # a new array is cut anew
    support(spec, other)
    assert len(calls) == 3
    assert "_cut" not in repr(spec)


@pytest.mark.parametrize("lam", [[np.nan, 1.0], [1.0, -0.5]])
def test_support_refuses_a_bad_spectrum_on_every_call(lam):
    spec = Spectrum(np.array(lam))
    for _ in range(2):
        with pytest.raises((ShapeError, NotPSDError)):
            support(spec)
