"""Dense Hermitian linear algebra on a deterministic eigensolver.

The eigensolver is a cyclic Jacobi iteration with complex Givens rotations in
fixed row-major sweep order. That makes every spectrum reproducible bit-for-bit
for a fixed input matrix, which the report and acceptance paths rely on.
Matrices are plain complex ndarrays; `Spectrum` carries eigenvalues sorted
descending plus (optionally) the eigenvector columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import CAP, TOL, Capacities, Tolerances
from .errors import CapacityError, NotPSDError, ShapeError


@dataclass
class Spectrum:
    """Eigenvalues (descending, real) and optional unitary eigenvector columns."""

    eigenvalues: np.ndarray
    vectors: np.ndarray | None = None


def as_hermitian(a: np.ndarray, tol: Tolerances = TOL) -> np.ndarray:
    """Validate shape and Hermiticity; return an exactly Hermitian complex copy."""
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


def _offdiag_norm(a: np.ndarray) -> float:
    total = float(np.linalg.norm(a)) ** 2
    diag = float(np.linalg.norm(np.diagonal(a))) ** 2
    return math.sqrt(max(total - diag, 0.0))


def eig_herm(a: np.ndarray, vectors: bool = True, tol: Tolerances = TOL) -> Spectrum:
    """Full eigensystem of a Hermitian matrix by cyclic complex Jacobi.

    Row-major sweeps; converged when the off-diagonal Frobenius mass drops
    below tol.jacobi_offdiag * ||A||_F; hard stop at tol.jacobi_max_sweeps.
    """
    A = as_hermitian(a, tol)
    n = A.shape[0]
    U = np.eye(n, dtype=complex) if vectors else None
    scale = float(np.linalg.norm(A))
    if n > 1 and scale > 0.0:
        target = tol.jacobi_offdiag * scale
        skip = target / (2.0 * n)  # elements this small cannot break convergence
        for _ in range(tol.jacobi_max_sweeps):
            if _offdiag_norm(A) <= target:
                break
            for p in range(n - 1):
                for q in range(p + 1, n):
                    apq = A[p, q]
                    r = abs(apq)
                    if r <= skip:
                        continue
                    phase = apq / r
                    theta = 0.5 * math.atan2(2.0 * r, (A[p, p] - A[q, q]).real)
                    c = math.cos(theta)
                    s_hi = math.sin(theta) * phase          # sigma e^{+i phi}
                    s_lo = s_hi.conjugate()                 # sigma e^{-i phi}
                    rp = A[p, :].copy()
                    rq = A[q, :].copy()
                    A[p, :] = c * rp + s_hi * rq
                    A[q, :] = -s_lo * rp + c * rq
                    cp = A[:, p].copy()
                    cq = A[:, q].copy()
                    A[:, p] = c * cp + s_lo * cq
                    A[:, q] = -s_hi * cp + c * cq
                    A[p, q] = 0.0
                    A[q, p] = 0.0
                    if U is not None:
                        up = U[:, p].copy()
                        uq = U[:, q].copy()
                        U[:, p] = c * up + s_lo * uq
                        U[:, q] = -s_hi * up + c * uq
    eigs = np.real(np.diagonal(A)).copy()
    order = np.argsort(-eigs, kind="stable")
    eigs = eigs[order]
    if U is not None:
        U = U[:, order]
    return Spectrum(eigenvalues=eigs, vectors=U)


def _clamped_psd_eigs(eigs: np.ndarray, scale: float, tol: Tolerances) -> np.ndarray:
    floor = -tol.psd_fail * max(scale, 1.0)
    low = float(eigs.min(initial=0.0))
    if low < floor:
        raise NotPSDError(f"eigenvalue {low:.3e} is materially negative")
    return np.clip(eigs, 0.0, None)


def sqrt_from_spectrum(spec: Spectrum, tol: Tolerances = TOL) -> np.ndarray:
    """Hermitian square root rebuilt from an existing eigendecomposition."""
    lam = _clamped_psd_eigs(spec.eigenvalues,
                            float(abs(spec.eigenvalues).max(initial=0.0)), tol)
    root = (spec.vectors * np.sqrt(lam)) @ spec.vectors.conj().T
    return 0.5 * (root + root.conj().T)


def sqrt_psd(a: np.ndarray, tol: Tolerances = TOL) -> np.ndarray:
    """Hermitian square root; eigenvalues in [-psd_fail, 0) are clamped to 0."""
    return sqrt_from_spectrum(eig_herm(a, vectors=True, tol=tol), tol)


def kron(a: np.ndarray, b: np.ndarray, cap: Capacities = CAP) -> np.ndarray:
    """Kronecker product with the tensor-dimension capacity guard."""
    a = np.asarray(a)
    b = np.asarray(b)
    out_dim = a.shape[0] * b.shape[0]
    if out_dim > cap.tensor_dim:
        raise CapacityError(
            f"kron output dimension {out_dim} exceeds capacity {cap.tensor_dim}")
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
