"""Canonical matrices, the matrix exponential, the invariant metric, and
group-membership residuals for the classical compact matrix groups."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

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
    "membership_residual",
    "real_rows",
    "SparsePlan",
    "sparse_plan",
    "sparse_matmul",
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


# Pade-13 numerator coefficients and the 1-norm up to which Pade-13 is
# accurate to double precision (Higham 2005, SIAM J. Matrix Anal. Appl.
# 26(4), Table 2.3).
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0,
           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
           960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


def mat_exp(A: np.ndarray) -> np.ndarray:
    """Matrix exponential of a square matrix or of a (..., n, n) stack, by
    Pade-13 scaling and squaring (Higham 2005).

    Each matrix is scaled by its own 2^-s, s = max(0, ceil(log2(||A||_1 /
    theta_13))), and squared back s times, so every matrix of a stack gets
    the result it would get alone, bit for bit.  Relative accuracy is
    ~1e-13 for the well-conditioned skew-Hermitian inputs used throughout;
    the exponential of a skew-Hermitian matrix is unitary to the same
    tolerance.
    """
    A = np.asarray(A, dtype=complex)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2]:
        raise ValueError("mat_exp requires square matrices")
    shape = A.shape
    A = A.reshape((-1,) + shape[-2:])
    norm = np.abs(A).sum(axis=-2).max(axis=-1, initial=0.0)
    with np.errstate(divide="ignore"):
        s = np.maximum(0, np.ceil(np.log2(norm / _THETA13))).astype(int)
    A = A * np.ldexp(1.0, -s)[:, None, None]
    b = _PADE13
    I = np.eye(shape[-1])
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A4 @ A2
    U = A @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
             + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * I)
    V = (A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
         + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * I)
    R = np.linalg.solve(V - U, V + U)
    for step in range(s.max(initial=0)):
        sq = s > step
        R[sq] = R[sq] @ R[sq]
    return R.reshape(shape)


def metric(Z: np.ndarray, W: np.ndarray):
    """Bi-invariant inner product g(Z, W) = Re tr(Z conj(W)^t), over the
    leading axes of stacked matrices: the sum of Re Z Re W + Im Z Im W
    over the entries, in one pass, as the dot product of the two matrices'
    real views (interleaved real and imaginary parts)."""
    Z, W = (np.ascontiguousarray(a, dtype=complex).view(float) for a in (Z, W))
    size = (Z.shape[-2] * Z.shape[-1],)  # not -1: a stack may be empty
    return np.vecdot(Z.reshape(Z.shape[:-2] + size),
                     W.reshape(W.shape[:-2] + size))[()]


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


def real_rows(Z) -> np.ndarray:
    """A (k, n, n) stack as the real (k, 2 n^2) matrix of each matrix's
    interleaved real and imaginary parts: g(Z_a, Z_b) is the dot product
    of rows a and b."""
    Z = np.ascontiguousarray(Z, dtype=complex)
    return Z.reshape(Z.shape[0], Z.shape[-2] * Z.shape[-1]).view(float)


class SparsePlan(NamedTuple):
    """A matrix Z (k, m) prepared for sparse_matmul (sparse_plan): for Z
    and for Z^T, the (rows, values) of each column's r-th nonzero, in
    arrays of shape (r, columns); row 0 and value 0 past a column's last
    nonzero."""

    columns: tuple
    columns_t: tuple

    @property
    def shape(self) -> tuple:
        """(k, m), the shape of Z."""
        return self.columns_t[0].shape[1], self.columns[0].shape[1]

    @property
    def T(self) -> SparsePlan:
        """The plan of Z^T."""
        return SparsePlan(self.columns_t, self.columns)


def _columns(Z):
    """The row and value of each column's r-th nonzero, as SparsePlan."""
    col, row = np.divmod(np.flatnonzero((Z != 0).T), Z.shape[0])
    rank = np.arange(len(col)) - np.searchsorted(col, col)  # in its column
    idx = np.zeros((rank.max(initial=-1) + 1, Z.shape[1]), dtype=int)
    vals = np.zeros(idx.shape, Z.dtype)  # zero terms where a column ends
    idx[rank, col], vals[rank, col] = row, Z[row, col]
    return idx, vals


def sparse_plan(Z) -> SparsePlan:
    """What sparse_matmul reads off the sparse matrix ``Z`` (k, m) for
    products with Z and, through the plan's T, with Z^T: a matrix used
    many times is scanned once."""
    Z = np.asarray(Z)
    return SparsePlan(_columns(Z), _columns(Z.T))


def sparse_matmul(c: np.ndarray, plan: SparsePlan) -> np.ndarray:
    """c @ Z for a sparse Z (k, m), given as its sparse_plan, with no
    BLAS call: each column adds c[..., b] Z[b, j]
    over its nonzero Z[b, j] only, in order of b, to a zero start, so
    each row of c gets the bits of a sequential sum.  The gather is
    np.take, not c[..., i]: for many rows numpy returns the fancy index
    F-ordered, and so would the sum be."""
    idx, vals = plan.columns
    return sum((np.take(c, i, axis=-1) * v for i, v in zip(idx, vals)),
               np.zeros(c.shape[:-1] + vals.shape[1:],
                        np.result_type(c, vals)))
