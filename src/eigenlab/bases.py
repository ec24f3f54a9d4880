"""Orthonormal bases for the Lie algebras so(n), su(n), u(n), sp(n) under
the inner product g(Z, W) = Re tr(Z conj(W)^t).

Basis order is fixed (Y before X before D; lexicographic (r, s), then t),
so any sum over a basis reduces in a reproducible order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .matrices import basis_D, basis_X, basis_Y, j_matrix

__all__ = [
    "LieBasisSet",
    "group_basis",
    "so_basis",
    "su_basis",
    "u_basis",
    "sp_basis",
    "square_sum",
    "algebra_residual",
    "gram_matrix",
    "gram_schmidt",
]


@dataclass(frozen=True)
class LieBasisSet:
    """An ordered orthonormal basis of a matrix Lie algebra.

    ``n`` is the group parameter (matrix size for so/su/u, quaternionic size
    for sp, so sp matrices are 2n x 2n).  ``elements`` is a (dim, N, N)
    stack in fixed order.
    """

    group: str
    n: int
    elements: np.ndarray = field(repr=False)

    @property
    def dim(self) -> int:
        return self.elements.shape[0]

    @property
    def matrix_size(self) -> int:
        return self.elements.shape[-1]

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return self.elements.shape[0]

    def __getitem__(self, k):
        return self.elements[k]


def gram_schmidt(vectors, drop_tol: float = 1e-10) -> np.ndarray:
    """Gram-Schmidt over the real inner product g, with one
    reorthogonalization pass (CGS2); numerically null vectors are dropped.

    ``vectors`` is a stack of matrices; the result is the stack of the
    orthonormal ones kept, in order.  g(Z, W) = Re tr(Z conj(W)^t) is the
    dot product of the real and imaginary parts of the entries, so each
    vector is projected against all kept ones with two matrix-vector
    products.
    """
    V = np.array(vectors, dtype=complex)
    shape = V.shape[1:]
    R = V.reshape(len(V), -1).view(float)
    Q = np.empty_like(R)
    kept = 0
    for w in R:
        for _ in range(2):
            w = w - (Q[:kept] @ w) @ Q[:kept]
        nrm = np.sqrt(w @ w)
        if nrm > drop_tol:
            Q[kept] = w / nrm
            kept += 1
    return Q[:kept].view(complex).reshape((kept,) + shape)


def _pairs(n):
    return [(r, s) for r in range(1, n) for s in range(r + 1, n + 1)]


def so_basis(n: int) -> LieBasisSet:
    """Basis {Y_rs | r < s} of so(n); dimension n(n-1)/2."""
    els = [basis_Y(n, r, s) for r, s in _pairs(n)]
    return LieBasisSet("so", n, np.array(els).reshape(-1, n, n))


def u_basis(n: int) -> LieBasisSet:
    """Basis {Y_rs} + {iX_rs} + {iD_t} of u(n); dimension n^2."""
    els = [basis_Y(n, r, s) for r, s in _pairs(n)]
    els += [1j * basis_X(n, r, s) for r, s in _pairs(n)]
    els += [1j * basis_D(n, t) for t in range(1, n + 1)]
    return LieBasisSet("u", n, np.array(els))


def su_basis(n: int) -> LieBasisSet:
    """Basis of su(n): {Y_rs}, {iX_rs}, and an orthonormalized traceless
    diagonal part built from {i(D_t - D_{t+1})}; dimension n^2 - 1."""
    els = [basis_Y(n, r, s) for r, s in _pairs(n)]
    els += [1j * basis_X(n, r, s) for r, s in _pairs(n)]
    diag = gram_schmidt([1j * (basis_D(n, t) - basis_D(n, t + 1)) for t in range(1, n)])
    return LieBasisSet("su", n, np.array(els + list(diag)))


def sp_basis(n: int) -> LieBasisSet:
    """Orthonormal basis of sp(n) in the complex 2n x 2n representation.

    Off-diagonal families Y^a, X^a, X^b, X^c (lexicographic in (r, s)),
    then diagonal families D^a, D^b, D^c; dimension n(2n+1).
    """
    z = np.zeros((n, n), dtype=complex)

    def blk(a, b, c, d):
        return np.block([[a, b], [c, d]]) / np.sqrt(2.0)

    ya, xa, xb, xc = [], [], [], []
    for r, s in _pairs(n):
        y, x = basis_Y(n, r, s), basis_X(n, r, s)
        ya.append(blk(y, z, z, y))
        xa.append(blk(1j * x, z, z, -1j * x))
        xb.append(blk(z, 1j * x, 1j * x, z))
        xc.append(blk(z, x, -x, z))
    da, db, dc = [], [], []
    for t in range(1, n + 1):
        d = basis_D(n, t)
        da.append(blk(1j * d, z, z, -1j * d))
        db.append(blk(z, 1j * d, 1j * d, z))
        dc.append(blk(z, d, -d, z))
    els = ya + xa + xb + xc + da + db + dc
    return LieBasisSet("sp", n, np.array(els).reshape(-1, 2 * n, 2 * n))


_BUILDERS = {"so": so_basis, "su": su_basis, "u": u_basis, "sp": sp_basis}


def group_basis(group: str, n: int) -> LieBasisSet:
    try:
        return _BUILDERS[group](n)
    except KeyError:
        raise ValueError(f"unknown group {group!r}") from None


def square_sum(basis) -> np.ndarray:
    """Sum of Z @ Z over the basis elements (a multiple of the identity
    for the bases built here)."""
    els = basis.elements if isinstance(basis, LieBasisSet) else np.asarray(basis)
    return np.einsum("bij,bjk->ik", els, els)


def gram_matrix(basis) -> np.ndarray:
    """Pairwise inner products under g; identity for an orthonormal set."""
    els = basis.elements if isinstance(basis, LieBasisSet) else np.asarray(basis)
    return np.einsum("aij,bij->ab", els, els.conj()).real


def algebra_residual(group: str, Z: np.ndarray) -> float:
    """Frobenius residual of the defining linear condition of the algebra."""
    Z = np.asarray(Z, dtype=complex)
    skew_h = np.linalg.norm(Z + Z.conj().T)
    if group == "so":
        return float(max(np.linalg.norm(Z + Z.T), np.linalg.norm(Z.imag)))
    if group == "u":
        return float(skew_h)
    if group == "su":
        return float(max(skew_h, abs(np.trace(Z))))
    if group == "sp":
        n2 = Z.shape[0]
        if n2 % 2:
            raise ValueError("sp requires even matrix size")
        J = j_matrix(n2 // 2)
        # Z^* + Z = 0 together with the block shape W^t = W, i.e. Z J = J conj(Z).
        return float(max(skew_h, np.linalg.norm(Z @ J - J @ Z.conj())))
    raise ValueError(f"unknown group {group!r}")
