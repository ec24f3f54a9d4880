"""Symmetric pairs (G, K, sigma): involutions of the classical groups and
the induced splits g = k + p into the +1/-1 eigenspaces of d(sigma).

Seven spaces are supported, identified by the space ids in SPACES.  Four are
quotients of a single group by a fixed-point subgroup of an involution on
the same-size group (su-so, sp-u, so-u, su-sp); three are Grassmannians cut
out by signature conjugations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bases import LieBasisSet, gram_schmidt, group_basis
from .matrices import i_signature, i_signature_doubled, j_matrix

__all__ = ["Involution", "SymmetricPair", "SPACES", "make_pair", "space_label"]


@dataclass(frozen=True, eq=False)
class Involution:
    """A group involution q -> sigma(q) acting on points or on jets.

    ``conjugator`` M gives q -> M q M^{-1} (M unitary); ``entrywise_conj``
    composes with entrywise conjugation first.  Both commute, and their
    derivative at the identity is the same formula on algebra elements.
    """

    conjugator: np.ndarray | None = None
    entrywise_conj: bool = False

    def __call__(self, q):
        out = q.conj() if self.entrywise_conj else q
        if self.conjugator is not None:
            M = self.conjugator
            out = M @ out @ M.conj().T
        return out

    # d(sigma) at the identity acts by the same two operations.
    d = __call__


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

    def label(self) -> str:
        return space_label(self.space, self.m, self.n)


def space_label(space: str, m, n) -> str:
    if m is None:
        return f"{space}(n={n})"
    return f"{space}(m={m},n={n})"


def _split(ambient: LieBasisSet, sigma: Involution):
    """Project the ambient basis onto the dsigma eigenspaces and
    re-orthonormalize, dropping numerically null vectors."""
    Z = ambient.elements
    s = sigma.d(Z)
    return gram_schmidt((Z + s) / 2.0), gram_schmidt((Z - s) / 2.0)


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
    return SymmetricPair(space=space, group=group, m=m_out, n=n,
                         ambient=ambient, sigma=sigma,
                         k_basis=k_arr, p_basis=p_arr)
