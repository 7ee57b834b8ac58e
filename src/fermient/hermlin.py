"""Dense Hermitian linear algebra on LAPACK, in a canonical form where a
basis is read.

`eig_herm` takes spectra from LAPACK (`eigvalsh`, or `eigh` for vectors),
eigenvalues descending. By default its vectors are free of LAPACK's arbitrary
choices: in each cluster of eigenvalues within tol.eig_residual * ||A|| of its
first, the basis that pivoted Gram-Schmidt builds from the columns of the
cluster's projector V V^+; each vector's largest-modulus entry real positive.
The E_f optimizer's start and ef_exact_m4 read that basis. psd_root and the
subadditivity remainder take LAPACK's vectors as they come (canonical=False):
they read only quantities that do not depend on the basis (roots, sums of
projectors, entropies, |<f|e>|^2), so a canonical basis, of the null space
too, would be thrown away at `support`. Eigenpairs (eig_residual) and square
roots (sqrt_square) are checked on every route, and a failed check raises
NumericalError. `support` alone judges an eigenvalue non-finite or negative
(errors), zero or kept, for roots, entropies and ensembles. It cuts each
Spectrum once per tolerance record and hands later calls the same cut, so
psd_root's root and square check, vn_entropy and the remainder's second route
share one cut of a marginal; a spectrum that fails the rule raises on every
call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import CAP, TOL, Tolerances
from .errors import CapacityError, NotPSDError, NumericalError, ShapeError


@dataclass
class Spectrum:
    """Eigenvalues (descending, real) and optional unitary eigenvector columns."""

    eigenvalues: np.ndarray
    vectors: np.ndarray | None = None
    # support's cut: (tol, eigenvalues, vectors, result), read by support alone
    _cut: tuple | None = field(default=None, init=False, repr=False, compare=False)


def as_hermitian(a: np.ndarray, tol: Tolerances = TOL) -> np.ndarray:
    """Validate shape and Hermiticity; return an exactly Hermitian complex copy."""
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {a.shape}")
    a = a.astype(complex, copy=False)
    top = np.abs(a).max(initial=0.0)
    # NaN and inf reach the max modulus; a finite matrix whose modulus
    # overflows is told apart by the full check
    if not math.isfinite(top) and not np.isfinite(a).all():
        raise ShapeError("matrix has non-finite entries")
    ah = a.conj().T
    defect = np.abs(a - ah).max(initial=0.0)
    if defect > tol.hermiticity * max(top, 1.0):
        raise ShapeError(f"matrix not Hermitian: defect {defect:.3e}")
    return 0.5 * (a + ah)


def _cluster_basis(v: np.ndarray, rel: float) -> np.ndarray:
    """Basis of span(v) fixed by its projector P = v v^+: pivoted Gram-Schmidt
    over P's columns, run on the rows of v (column j of P is v conj(v[j]))."""
    w = v.copy()
    out = np.empty_like(v)
    for s in range(v.shape[1]):
        norms = np.einsum("ij,ij->i", w, w.conj()).real   # residual |P e_j|^2
        p = int(np.argmax(norms >= norms.max() * (1.0 - rel)))   # ties: first
        c = w[p].conj() / np.sqrt(norms[p])
        out[:, s] = w @ c
        w -= np.outer(out[:, s], c.conj())
    return out


def eig_herm(a: np.ndarray, vectors: bool = True, tol: Tolerances = TOL, *,
             canonical: bool = True) -> Spectrum:
    """Eigenvalues (descending) and optionally eigenvectors, checked to
    max |A U - U diag(lam)| <= tol.eig_residual * max(||A||, 1).

    The vectors are canonical (see the module docstring) unless canonical is
    False; then they are LAPACK's, column-reversed: deterministic for a given
    input on one BLAS thread, but arbitrary in phase and inside a degenerate
    cluster, so only callers that read no basis (psd_root and the
    subadditivity remainder) pass False."""
    A = as_hermitian(a, tol)
    if not vectors:
        return Spectrum(eigenvalues=np.linalg.eigvalsh(A)[::-1].copy())
    lam, U = np.linalg.eigh(A)
    lam, U = lam[::-1].copy(), U[:, ::-1].copy()
    rel = tol.eig_residual
    norm = float(np.abs(lam).max(initial=0.0))
    if canonical:
        vals = lam.tolist()
        start = 0
        for i in range(1, len(vals) + 1):
            if i == len(vals) or vals[start] - vals[i] > rel * norm:
                if i - start > 1:
                    U[:, start:i] = _cluster_basis(U[:, start:i], rel)
                start = i
        if U.size:   # phase: the first entry within rel of the largest modulus
            cols = np.arange(U.shape[1])
            mag = np.abs(U)
            lead = np.argmax(mag >= mag.max(axis=0) * (1.0 - rel), axis=0)
            U *= mag[lead, cols] / U[lead, cols]
            U[lead, cols] = mag[lead, cols]
    resid = float(np.abs(A @ U - U * lam).max(initial=0.0))
    if not resid <= rel * max(norm, 1.0):
        raise NumericalError(f"eigen-residual {resid:.3e} exceeds "
                             f"{rel:g} * {max(norm, 1.0):.3e}")
    return Spectrum(eigenvalues=lam, vectors=U)


def support(spec: Spectrum,
            tol: Tolerances = TOL) -> tuple[np.ndarray, np.ndarray | None]:
    """The one spectral support rule: non-finite eigenvalues raise ShapeError,
    those below -tol.psd_fail * max(||A||, 1) NotPSDError; keep the eigenvalues
    (and their vector columns, or None) above tol.support_cutoff * max(||A||, 1),
    treating the rest as 0. Eigenvalues descend, so the support is a prefix.
    The cut is made once per Spectrum and tolerance record, then reused."""
    cut = spec._cut
    if (cut is not None and cut[0] is tol and cut[1] is spec.eigenvalues
            and cut[2] is spec.vectors):
        return cut[3]
    result = _cut_support(spec, tol)
    spec._cut = (tol, spec.eigenvalues, spec.vectors, result)
    return result


def _cut_support(spec: Spectrum, tol: Tolerances) -> tuple[np.ndarray, np.ndarray | None]:
    """support's rule, evaluated."""
    lam = spec.eigenvalues
    if not math.isfinite(lam.sum()):   # any NaN or inf makes the sum non-finite
        raise ShapeError("spectrum has non-finite eigenvalues")
    top, low = (float(lam[0]), float(lam[-1])) if lam.size else (0.0, 0.0)
    scale = max(top, -low, 1.0)
    if low < -tol.psd_fail * scale:
        raise NotPSDError(f"eigenvalue {low:.3e} is materially negative")
    r = int(np.count_nonzero(lam > tol.support_cutoff * scale))
    return lam[:r], None if spec.vectors is None else spec.vectors[:, :r]


def sqrt_from_spectrum(spec: Spectrum, tol: Tolerances = TOL) -> np.ndarray:
    """Hermitian square root rebuilt from an existing eigendecomposition's
    support."""
    lam, vecs = support(spec, tol)
    root = (vecs * np.sqrt(lam)) @ vecs.conj().T
    return 0.5 * (root + root.conj().T)


def psd_root(a: np.ndarray, tol: Tolerances = TOL) -> tuple[Spectrum, np.ndarray]:
    """Spectrum (LAPACK's vectors, not canonical) and Hermitian square root of
    a PSD matrix from one eigensolve, taken on the support. Checked against
    the input: max |R R - A| <= tol.sqrt_square * ||A|| + the largest dropped
    |eigenvalue| + the non-Hermitian part eig_herm lets through,
    tol.hermiticity * max(||A||, 1)."""
    spec = eig_herm(a, vectors=True, tol=tol, canonical=False)
    root = sqrt_from_spectrum(spec, tol)
    lam = spec.eigenvalues
    norm = float(np.abs(lam).max(initial=0.0))
    dropped = lam[support(spec, tol)[0].size:]
    bound = (tol.sqrt_square * norm + float(np.abs(dropped).max(initial=0.0))
             + tol.hermiticity * max(norm, 1.0))
    err = float(np.abs(root @ root - a).max(initial=0.0))
    if not err <= bound:
        raise NumericalError(f"square-root defect {err:.3e} exceeds {bound:.3e}")
    return spec, root


def sqrt_psd(a: np.ndarray, tol: Tolerances = TOL) -> np.ndarray:
    """Checked Hermitian square root: the root of psd_root."""
    return psd_root(a, tol)[1]


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product, its output dimension guarded by CAP.tensor_dim."""
    a = np.asarray(a)
    b = np.asarray(b)
    out_dim = a.shape[0] * b.shape[0]
    if out_dim > CAP.tensor_dim:
        raise CapacityError(
            f"kron output dimension {out_dim} exceeds capacity {CAP.tensor_dim}")
    return np.kron(a, b)


def trace_product(a: np.ndarray, b: np.ndarray) -> float:
    """Tr(a @ b) without forming the product; real part returned.

    For Hermitian a, b the trace is real up to roundoff; the imaginary residue
    is checked by tests, not silently discarded beyond that.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape[1] != b.shape[0] or a.shape[0] != b.shape[1]:
        raise ShapeError(f"incompatible shapes {a.shape} x {b.shape}")
    return float(np.einsum("ij,ji->", a, b).real)
