"""Cartan maps Phi(p) = p sigma(p^{-1}) and their structural properties:
K-invariance, harmonicity, and the conformal metric scaling.

The inverse is computed as the conjugate transpose (all supported groups
are unitary in the chosen representations), guarded by a membership check.
Every function takes a single point (n, n) or a stack of points
(..., n, n).
"""

from __future__ import annotations

import numpy as np

from .bases import square_sum
from .jets import JetMatrix
from .matrices import membership_residual, metric

__all__ = [
    "cartan_map",
    "cartan_map_jet",
    "cartan_map_closed",
    "cartan_jets_closed",
    "harmonic_residual",
    "map_tension_raw",
    "pullback_factor",
    "pullback_ratio",
    "tangential_residual",
]


def _check_member(pair, p):
    res = np.max(membership_residual(pair.group, p))
    if res > 1e-8:
        raise ValueError(f"point is not in {pair.group} (residual {res:.3e})")


def _h(a):
    return np.swapaxes(a, -1, -2).conj()


def cartan_map(pair, p: np.ndarray) -> np.ndarray:
    """Phi(p) = p sigma(p^{-1}); constant on right K-cosets."""
    _check_member(pair, p)
    return p @ pair.sigma(_h(p))


def cartan_map_jet(pair, jm: JetMatrix) -> JetMatrix:
    """The 2-jet of Phi along a curve jet in G.

    Along curves inside the group, the inverse jet is the entrywise
    conjugate transpose jet, so Phi lifts to jets with no extra machinery.
    """
    return jm @ pair.sigma(jm.conj().T)


def cartan_map_closed(pair, p: np.ndarray) -> np.ndarray:
    """Closed-form Phi for each space, as an independent code path.

    su-so: z z^t.  sp-u: q q^t.  so-u and su-sp: x J x^t J^{-1}.
    Grassmannians: q S conj(q)^t S with the defining signature S.
    """
    _check_member(pair, p)
    M = pair.sigma.conjugator
    pT = np.swapaxes(p, -1, -2)
    if M is None or pair.space == "sp-u":
        return p @ pT
    if pair.space in ("so-u", "su-sp"):
        return p @ M @ pT @ M.conj().T
    return p @ M @ pT.conj() @ M


def cartan_jets_closed(pair, p: np.ndarray):
    """(Phi, Z(Phi) along the p-basis, raw map tension) at p in closed
    form, with no jet pass.

    Along p exp(sZ), Phi is p exp(2sZ) sigma(p)^-1 for Z in p and constant
    for Z in k, so Z(Phi) = 2 p Z sigma(p)^-1 (shape (..., dim p, n, n))
    and sum_Z Z^2(Phi) over the ambient basis is 4 p C_p sigma(p)^-1,
    with C_p the sum of Z^2 over the p-basis: the map_tension_raw of p.
    """
    phi = cartan_map(pair, p)
    p = np.asarray(p, dtype=complex)
    s_inv = pair.sigma(_h(p))
    d1 = 2.0 * (p[..., None, :, :] @ pair.p_basis @ s_inv[..., None, :, :])
    return phi, d1, 4.0 * (p @ square_sum(pair.p_basis) @ s_inv)


def map_tension_raw(pair, p: np.ndarray) -> np.ndarray:
    """sum_Z d^2/ds^2 Phi(p exp(sZ)) over the full ambient basis: the
    ambient (flat matrix-space) Laplacian of the entries of Phi.

    This contains the second-fundamental-form term of the group inside
    matrix space, so it is NOT the tension of the map; see
    harmonic_residual for the tangential part.
    """
    p = np.asarray(p, dtype=complex)
    jm = JetMatrix.curve(p[..., None, :, :], pair.ambient.elements)
    return cartan_map_jet(pair, jm).d2.sum(axis=-3)


def tangential_residual(pair, y: np.ndarray, H: np.ndarray):
    """Max entry magnitude of the projection of ``H`` onto the tangent
    space of G at ``y``: H expanded in y times the orthonormal ambient
    basis.  With y = Phi(p) and H = map_tension_raw(pair, p) this is the
    tension of Phi at p; see harmonic_residual."""
    els = pair.ambient.elements
    coeff = np.einsum("...ij,bij->...b", _h(y) @ H, els.conj()).real
    tangential = y @ np.einsum("...b,bij->...ij", coeff.astype(complex), els)
    return np.abs(tangential).max(axis=(-2, -1))[()]


def harmonic_residual(pair, p: np.ndarray):
    """Max entry magnitude of the tension of the map Phi: G -> G at p.

    The tension is the projection of the entrywise second-derivative sum
    onto the tangent space of G at Phi(p); harmonicity of Phi makes it
    vanish, while a generic map (e.g. p -> p^2) leaves residuals of order
    one.
    """
    return tangential_residual(pair, cartan_map(pair, p),
                               map_tension_raw(pair, p))


def pullback_factor(pair, p: np.ndarray, X: np.ndarray, Y: np.ndarray):
    """g(dPhi(X), dPhi(Y)) / g(X, Y) at p, from first-order jets of Phi.

    ``X`` and ``Y`` may be stacks of directions, paired entry by entry.
    Equals 4 for X, Y horizontal (so the differential scales lengths by 2);
    vanishes identically for X vertical.  Where g(X, Y) = 0 the numerator
    is returned instead of the undefined ratio.
    """
    _check_member(pair, p)
    p = np.asarray(p, dtype=complex)[..., None, :, :] if np.ndim(X) == 3 else p
    dX = cartan_map_jet(pair, JetMatrix.curve(p, X)).d1
    dY = dX if Y is X else cartan_map_jet(pair, JetMatrix.curve(p, Y)).d1
    return pullback_ratio(dX, dY, X, Y)


def pullback_ratio(dX, dY, X, Y):
    """g(dX, dY) / g(X, Y) for the first derivatives dX, dY of Phi along
    the directions X, Y, entry by entry; the numerator where g(X, Y) = 0.
    See pullback_factor."""
    num = metric(dX, dY)
    den = metric(X, Y)
    small = np.abs(den) < 1e-12
    return np.where(small, num, num / np.where(small, 1.0, den))[()]
