"""Symmetric pairs (G, K, sigma): involutions of the classical groups and
the induced splits g = k + p into the +1/-1 eigenspaces of d(sigma).

Seven spaces are supported, identified by the space ids in SPACES.  Four are
quotients of a single group by a fixed-point subgroup of an involution on
the same-size group (su-so, sp-u, so-u, su-sp); three are Grassmannians cut
out by signature conjugations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .bases import LieBasisSet, gram_schmidt, group_basis
from .jets import CurvePlan, Jet2, curve_plan
from .matrices import (SparsePlan, i_signature, i_signature_doubled,
                       j_matrix, real_rows, sparse_plan)

__all__ = ["Involution", "SymmetricPair", "CrossPlan", "SPACES", "make_pair",
           "space_label"]


class CrossPlan(NamedTuple):
    """The terms of sum_Z (p Z)(sigma.inverse(p Z)) over a pair's p- and
    k-basis as gathers of p (SymmetricPair.cross_plan): term k is column
    ``cols[k]`` of p times ``left[k]``, by the row of the entries
    ``index[k]`` of the flat p, conjugated if ``conj``, times ``right[k]``.
    """

    cols: np.ndarray
    left: np.ndarray
    index: np.ndarray
    right: np.ndarray
    conj: bool


@dataclass(frozen=True, eq=False)
class Involution:
    """A group involution q -> sigma(q) acting on points or on jets.

    ``conjugator`` M gives q -> M q M^{-1}; ``entrywise_conj`` composes
    with entrywise conjugation first.  Both commute, and their derivative
    at the identity is the same formula on algebra elements.  M must be a
    signed permutation (one nonzero per row and column, of modulus 1), so
    the conjugation is applied as one gather of the entries of q and a
    product with the signs s_i conj(s_j): each entry of M q M^H is
    s_i q[pi(i), pi(j)] conj(s_j), bit for bit.
    """

    conjugator: np.ndarray | None = None
    entrywise_conj: bool = False
    # flat source index pi(i) n + pi(j) of entry (i, j), and its sign
    _index: np.ndarray | None = field(init=False, repr=False, default=None)
    _signs: np.ndarray | None = field(init=False, repr=False, default=None)

    def __post_init__(self):
        M = self.conjugator
        if M is None:
            return
        M = np.asarray(M)
        nonzero = M != 0
        if (M.ndim != 2 or M.shape[0] != M.shape[1]
                or np.any(nonzero.sum(axis=0) != 1)
                or np.any(nonzero.sum(axis=1) != 1)
                or np.any(np.abs(M[nonzero]) != 1)):
            raise ValueError("the conjugator must be a signed permutation "
                             "matrix: one nonzero of modulus 1 per row and "
                             "per column")
        n = M.shape[0]
        perm = nonzero.argmax(axis=1)
        s = M[np.arange(n), perm]
        object.__setattr__(self, "_index", perm[:, None] * n + perm)
        object.__setattr__(self, "_signs", s[:, None] * s.conj())

    def __call__(self, q):
        """M c(q) M^H, c the entrywise conjugation if set; part by part
        on a Jet2."""
        return self._apply(q, transpose=False)

    # d(sigma) at the identity acts by the same two operations.
    d = __call__

    def inverse(self, q):
        """sigma(q^H) = M c(q^H) M^H, which is sigma(q)^-1 for unitary q:
        one gather from q with the transposed index, no copy of q^H."""
        return self._apply(q, transpose=True)

    def inverse_gather(self, n):
        """What sigma.inverse reads of an (n, n) matrix q: entry (i, j) of
        sigma.inverse(q) is signs[i, j] times entry index[i, j] of the
        flat q, conjugated first if ``conj``.  Returns
        (index, signs, conj)."""
        if self.conjugator is None:
            index, signs = np.arange(n * n).reshape(n, n).T, np.ones((n, n))
        else:
            index, signs = self._index.T, self._signs
        return index, signs, not self.entrywise_conj

    def _apply(self, q, transpose):
        if isinstance(q, Jet2):
            # the scalar zero d2 of a first-order jet is its own image
            return type(q)(*(self._apply(a, transpose) if a.ndim else a
                             for a in (q.v, q.d1, q.d2)))
        q = np.asarray(q)
        conj = self.entrywise_conj != transpose
        if self.conjugator is None:
            out = np.swapaxes(q, -1, -2) if transpose else q
            # a copy, not a view: numpy multiplies q by a transposed view
            # of itself with syrk, which rounds unlike gemm
            return out.conj() if conj else out.copy(order="K")
        n = q.shape[-1]
        index = self._index.T if transpose else self._index
        # n * n, not -1: a stack may be empty (dim k = 0).  take, unlike
        # q[..., index], returns C-contiguous matrices, which BLAS reads
        # fastest in the jet products that follow; the array is fresh, so
        # it is conjugated and signed in place
        out = np.take(q.reshape(q.shape[:-2] + (n * n,)), index, axis=-1)
        out = out.astype(np.result_type(out, self._signs), copy=False)
        if conj:
            np.conjugate(out, out=out)
        out *= self._signs
        return out


@dataclass(frozen=True, eq=False)
class SymmetricPair:
    """A named symmetric space G/K with its ambient basis and k/p split."""

    space: str
    group: str
    m: int | None
    n: int
    ambient: LieBasisSet = field(repr=False)
    sigma: Involution = field(repr=False)
    k_basis: np.ndarray = field(repr=False)
    p_basis: np.ndarray = field(repr=False)

    @property
    def matrix_size(self) -> int:
        return self.ambient.matrix_size

    @property
    def dim_k(self) -> int:
        return self.k_basis.shape[0]

    @property
    def dim_p(self) -> int:
        return self.p_basis.shape[0]

    @cached_property
    def p_plan(self) -> CurvePlan:
        """The p-basis as curve directions; its square sum is C_p."""
        return curve_plan(self.p_basis)

    @cached_property
    def pk_plan(self) -> CurvePlan:
        """The p-, then the k-basis as curve directions, once per pair."""
        return curve_plan(np.concatenate([self.p_basis, self.k_basis]))

    @cached_property
    def cross_plan(self) -> CrossPlan:
        """sum_Z (p Z)(sigma.inverse(p Z)) over pk_plan as one product per
        point, once per pair.  Column c of p Z is column r = rows[Z, c]
        of p times w = weights[Z, c] (JetMatrix.curve), so the sum is
        over the nonzero (Z, c): column r of p times w, by row c of
        sigma.inverse(p Z), whose entry (c, j) is entry
        (a, b) = index[c, j] of p Z, i.e. p[a, rows[Z, b]] weights[Z, b],
        signed and conjugated (Involution.inverse_gather).  The terms run
        in direction order."""
        rows, w = self.pk_plan.rows, self.pk_plan.weights
        n = self.matrix_size
        index, signs, conj = self.sigma.inverse_gather(n)
        Z, c = np.nonzero(w)
        a, b = np.divmod(index[c], n)  # (terms, n)
        right = w[Z[:, None], b]
        return CrossPlan(rows[Z, c], w[Z, c], a * n + rows[Z[:, None], b],
                         signs[c] * (right.conj() if conj else right), conj)

    @cached_property
    def p_gather(self):
        """tr(X N) for every X of the p-basis as a gather of the flat N,
        once per pair: the (dirs, terms) flat indices and weights of X's
        nonzeros X[r, b], N[b, r] of N, by column, padded with zeros."""
        plan, n = self.p_plan, self.matrix_size
        nonzero = plan.weights != 0
        width = max(1, nonzero.sum(axis=1).max(initial=0))
        cols = np.argsort(~nonzero, axis=1, kind="stable")[:, :width]
        rows = np.take_along_axis(plan.rows, cols, axis=1)
        return cols * n + rows, np.take_along_axis(plan.weights, cols, axis=1)

    @cached_property
    def ambient_sparse(self) -> SparsePlan:
        """The ambient basis's real rows (matrices.real_rows) planned for
        sparse_matmul, once per pair: for point draws and the tangential
        projection."""
        return sparse_plan(real_rows(self.ambient.elements))

    @cached_property
    def k_sparse(self) -> SparsePlan:
        """The k-basis's real rows planned for sparse_matmul, once per
        pair: for draws of K points."""
        return sparse_plan(real_rows(self.k_basis))

    def label(self) -> str:
        return space_label(self.space, self.m, self.n)


def space_label(space: str, m, n) -> str:
    if m is None:
        return f"{space}(n={n})"
    return f"{space}(m={m},n={n})"


def _split(ambient: LieBasisSet, sigma: Involution):
    """Project the ambient basis onto the dsigma eigenspaces and
    orthonormalize the projections.

    sigma.d maps each ambient element to +- another one, but for su's
    traceless diagonal block, whose elements share their support and
    which sigma mixes.  So outside su the projections are zero, or
    parallel to an earlier one on the same support, or disjoint from all
    kept ones: _disjoint keeps them, and gives gram_schmidt's bits."""
    Z = ambient.elements
    s = sigma.d(Z)
    orthonormal = gram_schmidt if ambient.group == "su" else _disjoint
    return orthonormal((Z + s) / 2.0), orthonormal((Z - s) / 2.0)


def _disjoint(vectors) -> np.ndarray:
    """The nonzero matrices of a stack that share no nonzero entry of
    their real rows (matrices.real_rows) with an earlier nonzero one, each
    normalized as w / sqrt(w @ w).  Where any two supports are equal or
    disjoint, as for the projections outside su, this keeps the first of
    each support.  Disjoint supports are exactly orthogonal: gram_schmidt
    subtracts zeros from them and gives the same bits."""
    R = real_rows(vectors)
    nonzero = R != 0
    first = nonzero.argmax(axis=0)  # each column's first nonzero row
    later = nonzero & (first != np.arange(len(R))[:, None])
    Q = R[nonzero.any(axis=1) & ~later.any(axis=1)]
    Q /= np.sqrt(np.vecdot(Q, Q))[:, None]
    return Q.view(complex).reshape((len(Q),) + vectors.shape[1:])


# space id -> (group, params, matrix size, sigma builder, dim k, dim p)
def _entry_su_so(n):
    return ("su", n, Involution(entrywise_conj=True),
            n * (n - 1) // 2, (n - 1) * (n + 2) // 2)


def _entry_sp_u(n):
    # Conjugation by the complex structure J; fixed set is the real
    # (orthogonally embedded) copy of U(n) inside Sp(n).
    return ("sp", 2 * n, Involution(conjugator=j_matrix(n)),
            n * n, n * (n + 1))


def _entry_so_u(n):
    return ("so", 2 * n, Involution(conjugator=j_matrix(n)),
            n * n, n * (n - 1))


def _entry_su_sp(n):
    return ("su", 2 * n, Involution(conjugator=j_matrix(n), entrywise_conj=True),
            n * (2 * n + 1), (n - 1) * (2 * n + 1))


def _entry_so_grass(m, n):
    return ("so", m + n, Involution(conjugator=i_signature(m, n)),
            m * (m - 1) // 2 + n * (n - 1) // 2, m * n)


def _entry_u_grass(m, n):
    return ("u", m + n, Involution(conjugator=i_signature(m, n)),
            m * m + n * n, 2 * m * n)


def _entry_sp_grass(m, n):
    return ("sp", 2 * (m + n), Involution(conjugator=i_signature_doubled(m, n)),
            m * (2 * m + 1) + n * (2 * n + 1), 4 * m * n)


SPACES = {
    "su-so": dict(params=("n",), builder=_entry_su_so, min_size={"n": 2}),
    "sp-u": dict(params=("n",), builder=_entry_sp_u, min_size={"n": 1}),
    "so-u": dict(params=("n",), builder=_entry_so_u, min_size={"n": 2}),
    "su-sp": dict(params=("n",), builder=_entry_su_sp, min_size={"n": 2}),
    "so-grassmannian": dict(params=("m", "n"), builder=_entry_so_grass,
                            min_size={"m": 1, "n": 1}),
    "u-grassmannian": dict(params=("m", "n"), builder=_entry_u_grass,
                           min_size={"m": 1, "n": 1}),
    "sp-grassmannian": dict(params=("m", "n"), builder=_entry_sp_grass,
                            min_size={"m": 1, "n": 1}),
}


def make_pair(space: str, m: int | None = None, n: int | None = None) -> SymmetricPair:
    """Build a SymmetricPair for one of the seven supported spaces.

    Single-parameter spaces take ``n`` only; Grassmannians take ``m`` and
    ``n``.  The k/p split is validated against the expected dimensions.
    """
    if space not in SPACES:
        raise ValueError(f"unknown space {space!r}; expected one of {sorted(SPACES)}")
    entry = SPACES[space]
    if entry["params"] == ("n",):
        if n is None or m is not None:
            raise ValueError(f"space {space!r} takes a single size parameter n")
        if n < entry["min_size"]["n"]:
            raise ValueError(f"space {space!r} requires n >= {entry['min_size']['n']}")
        group, size_param, sigma, dim_k, dim_p = entry["builder"](n)
        m_out = None
    else:
        if m is None or n is None:
            raise ValueError(f"space {space!r} takes sizes m and n")
        if m < 1 or n < 1:
            raise ValueError(f"space {space!r} requires m, n >= 1")
        group, size_param, sigma, dim_k, dim_p = entry["builder"](m, n)
        m_out = m

    basis_n = size_param // 2 if group == "sp" else size_param
    ambient = group_basis(group, basis_n)
    k_arr, p_arr = _split(ambient, sigma)
    if k_arr.shape[0] != dim_k or p_arr.shape[0] != dim_p:
        raise RuntimeError(
            f"k/p split of {space} produced dims ({k_arr.shape[0]}, {p_arr.shape[0]}), "
            f"expected ({dim_k}, {dim_p})"
        )
    pair = SymmetricPair(space=space, group=group, m=m_out, n=n,
                         ambient=ambient, sigma=sigma,
                         k_basis=k_arr, p_basis=p_arr)
    if pair.pk_plan.rows is None:
        raise RuntimeError(f"a basis matrix of {space} has two nonzeros in "
                           f"a column or a nonzero neither real nor imaginary")
    return pair
