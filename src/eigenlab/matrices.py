"""Canonical matrices, the matrix exponential, the invariant metric, and
group-membership residuals for the classical compact matrix groups."""

from __future__ import annotations

import numpy as np
import scipy.linalg

__all__ = [
    "basis_E",
    "basis_X",
    "basis_Y",
    "basis_D",
    "mat_exp",
    "metric",
    "j_matrix",
    "i_signature",
    "i_signature_doubled",
    "quat_embed",
    "membership_residual",
    "GROUPS",
]

_SQRT2 = np.sqrt(2.0)


def basis_E(n: int, i: int, j: int) -> np.ndarray:
    """E_ij with a single unit entry (1-based indices)."""
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError("index out of range")
    m = np.zeros((n, n), dtype=complex)
    m[i - 1, j - 1] = 1.0
    return m


def basis_X(n: int, r: int, s: int) -> np.ndarray:
    """Symmetric generator (E_rs + E_sr)/sqrt(2)."""
    return (basis_E(n, r, s) + basis_E(n, s, r)) / _SQRT2


def basis_Y(n: int, r: int, s: int) -> np.ndarray:
    """Skew generator (E_rs - E_sr)/sqrt(2)."""
    return (basis_E(n, r, s) - basis_E(n, s, r)) / _SQRT2


def basis_D(n: int, t: int) -> np.ndarray:
    """Diagonal generator E_tt."""
    return basis_E(n, t, t)


def mat_exp(A: np.ndarray) -> np.ndarray:
    """Matrix exponential (scaling-and-squaring Pade).

    Relative accuracy is ~1e-13 for the well-conditioned skew-Hermitian
    inputs used throughout; the exponential of a skew-Hermitian matrix is
    unitary to the same tolerance.
    """
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("mat_exp requires a square matrix")
    return scipy.linalg.expm(A)


def metric(Z: np.ndarray, W: np.ndarray):
    """Bi-invariant inner product g(Z, W) = Re tr(Z conj(W)^t), over the
    leading axes of stacked matrices."""
    Wh = np.swapaxes(W, -1, -2).conj()
    return np.trace(Z @ Wh, axis1=-2, axis2=-1).real[()]


def j_matrix(n: int) -> np.ndarray:
    """The standard complex structure [[0, I_n], [-I_n, 0]]."""
    J = np.zeros((2 * n, 2 * n), dtype=complex)
    J[:n, n:] = np.eye(n)
    J[n:, :n] = -np.eye(n)
    return J


def i_signature(m: int, n: int) -> np.ndarray:
    """diag(I_m, -I_n)."""
    return np.diag(np.concatenate([np.ones(m), -np.ones(n)])).astype(complex)


def i_signature_doubled(m: int, n: int) -> np.ndarray:
    """diag(I_m, -I_n, I_m, -I_n): the doubled signature block."""
    s = np.concatenate([np.ones(m), -np.ones(n)])
    return np.diag(np.concatenate([s, s])).astype(complex)


def quat_embed(z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Complex 2n x 2n representation of the quaternionic matrix z + jw:
    [[z, w], [-conj(w), conj(z)]]."""
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)
    if z.shape != w.shape or z.ndim != 2 or z.shape[0] != z.shape[1]:
        raise ValueError("z and w must be square matrices of equal size")
    return np.block([[z, w], [-w.conj(), z.conj()]])


GROUPS = ("so", "su", "u", "sp")


def _fro(a):
    return np.linalg.norm(a, axis=(-2, -1))


def membership_residual(group: str, q: np.ndarray):
    """Max Frobenius residual of the group's defining equations, one per
    matrix of a stack.

    so: realness, orthogonality, det = 1.  su: unitarity, det = 1.
    u: unitarity.  sp: unitarity and q^t J q = J (matrix size 2n).
    """
    q = np.asarray(q, dtype=complex)
    if q.ndim < 2 or q.shape[-1] != q.shape[-2]:
        raise ValueError("membership_residual requires square matrices")
    N = q.shape[-1]
    I = np.eye(N)
    qT = np.swapaxes(q, -1, -2)
    unitary = _fro(q @ qT.conj() - I)
    if group == "u":
        return unitary[()]
    if group == "su":
        return np.maximum(unitary, abs(np.linalg.det(q) - 1.0))[()]
    if group == "so":
        real = _fro(q.imag)
        ortho = _fro(q @ qT - I)
        return np.maximum.reduce([real, ortho, abs(np.linalg.det(q) - 1.0)])[()]
    if group == "sp":
        if N % 2:
            raise ValueError("sp requires even matrix size")
        J = j_matrix(N // 2)
        return np.maximum(unitary, _fro(qT @ J @ q - J))[()]
    raise ValueError(f"unknown group {group!r}")
