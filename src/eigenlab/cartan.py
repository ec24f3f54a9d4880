"""Cartan maps Phi(p) = p sigma(p^{-1}) and their structural properties:
K-invariance, harmonicity, and the conformal metric scaling.

The inverse is computed as the conjugate transpose (all supported groups
are unitary in the chosen representations), guarded by a membership check,
so sigma(p)^-1 is one gather, sigma.inverse(p).
Every function takes a single point (n, n) or a stack of points
(..., n, n).  The jet routes push JetMatrix.curve jets, which carry
Z(Phi) per direction and the sum of Z^2(Phi) over the directions.  One
Cartan walk serves the per-point API and the claim engine alike: blocks
pushes first-order jets along a curve plan, a block of directions at a
time, and yields each block's p Z and Z(Phi) (pullback_factor, and the
claim engine's pass along the p- then the k-basis); map_tension_raw forms
the sum of Z^2(Phi) once, its cross term summed over the directions as
one gathered product per point.  spans is the one rule that cuts directions
and points into blocks and slices.
"""

from __future__ import annotations

import numpy as np

from .jets import JetMatrix, curve_plan
from .matrices import membership_residual, metric, sparse_matmul

__all__ = [
    "cartan_map",
    "cartan_map_jet",
    "cartan_map_closed",
    "harmonic_residual",
    "map_tension_closed",
    "map_tension_raw",
    "pullback_factor",
    "pullback_ratio",
    "tangential_residual",
]

# A Cartan pass streams its directions in blocks of at most BLOCK jet
# entries (directions x points x n^2), and its cross term in slices of
# at most BLOCK gathered entries (points x n x terms), both cut by spans,
# so no array of it holds more: a pass of 32 points at
# sp-grassmannian(3,3) makes twenty blocks of 4 of its 78 directions and
# seven slices of at most 5 points.  It is a quarter of the claim
# engine's pass budget, claims.BUDGET.  Blocks of 8 took as long, but a
# steady default run faulted their arrays in again, 3k page faults.
BLOCK = 18_432


def _check_member(pair, p):
    res = np.max(membership_residual(pair.group, p))
    if res > 1e-8:
        raise ValueError(f"point is not in {pair.group} (residual {res:.3e})")


def _h(a):
    return np.swapaxes(a, -1, -2).conj()


def cartan_map(pair, p: np.ndarray) -> np.ndarray:
    """Phi(p) = p sigma(p^{-1}); constant on right K-cosets."""
    _check_member(pair, p)
    return p @ pair.sigma.inverse(p)


def cartan_map_jet(pair, jm: JetMatrix) -> JetMatrix:
    """The 2-jet of Phi along a curve jet in G.

    Along curves inside the group, the inverse jet is the entrywise
    conjugate transpose jet, so sigma of the inverse is sigma.inverse of
    the jet, part by part, and Phi lifts to jets with no extra machinery.
    """
    return jm @ pair.sigma.inverse(jm)


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


def map_tension_closed(pair, p: np.ndarray):
    """(Phi, T) at p in closed form.  Along p exp(sZ), Phi is
    p exp(2sZ) sigma(p)^-1 for Z in p and constant for Z in k, so
    Z(Phi) = 2 p Z sigma(p)^-1 (operators.form_kappa) and the tension is
    T = 4 p C_p sigma(p)^-1, C_p the sum of Z^2 over the p-basis: up to
    rounding, map_tension_raw(pair, p)."""
    _check_member(pair, p)
    p = np.asarray(p, dtype=complex)
    s_inv = pair.sigma.inverse(p)
    return p @ s_inv, 4.0 * ((p @ pair.p_plan.square) @ s_inv)


def spans(count, per):
    """``count`` items of ``per`` entries each, cut into consecutive slices
    of as many items as hold BLOCK entries, and at least one."""
    step = max(1, BLOCK // max(1, per))
    return [slice(lo, min(lo + step, count)) for lo in range(0, count, step)]


def blocks(pair, p, plan):
    """The first-order Cartan pass at the points ``p`` along the curve
    plan ``plan``: (lo, p Z, Z(Phi)) for each block of its directions, in
    order, lo the block's first direction, p Z and Z(Phi) of shape
    (directions, *points, n, n), which the caller may overwrite.  The
    blocks are spans of the directions at np.size(p) entries each."""
    for cut in spans(len(plan.weights), np.size(p)):
        jm = JetMatrix.curve(p, plan.block(cut.start, cut.stop))
        yield cut.start, jm.d1[0], cartan_map_jet(pair, jm).d1[0]


def map_tension_raw(pair, p: np.ndarray) -> np.ndarray:
    """sum_Z d^2/ds^2 Phi(p exp(sZ)) over an orthonormal basis of the Lie
    algebra: the ambient (flat matrix-space) Laplacian of the entries of
    Phi.

    This contains the second-fundamental-form term of the group inside
    matrix space, so it is NOT the tension of the map; see
    harmonic_residual for the tangential part.

    It is the sum of Z^2(Phi) over pair.pk_plan, the p- then the k-basis,
    by the product rule, with no jet: c2 sigma(p)^-1 + cross
    + p sigma.inverse(c2), c2 = p sum Z^2, with the cross term
    2 sum_Z Z(p) Z(sigma(p)^-1) one gathered product per point
    (pair.cross_plan), over spans of points.  So a point's bits depend on
    that point only, and no array holds more than one span.
    """
    c2 = p @ pair.pk_plan.square
    return (c2 @ pair.sigma.inverse(p) + _cross(pair, p)
            + p @ pair.sigma.inverse(c2))


def _cross(pair, p):
    """2 sum_Z (p Z)(sigma.inverse(p Z)) over pair.pk_plan, as L @ R per
    point: L the weighted columns of p, R the signed rows gathered from
    it (pairs.SymmetricPair.cross_plan), a span of points at a time,
    into one L and one R made per call."""
    cols, left, index, right, conj = pair.cross_plan
    n = p.shape[-1]
    pts = np.asarray(p, dtype=complex).reshape(-1, n, n)
    flat = pts.reshape(-1, n * n)
    out = np.empty_like(pts)
    cuts = spans(len(pts), n * len(cols))
    L = np.empty((cuts[0].stop if cuts else 0, n, len(cols)), complex)
    R = np.empty((len(L), len(cols), n), complex)
    for cut in cuts:
        Ls, Rs = L[:cut.stop - cut.start], R[:cut.stop - cut.start]
        np.take(pts[cut], cols, axis=-1, out=Ls, mode="clip")
        Ls *= left
        np.take(flat[cut], index, axis=-1, out=Rs, mode="clip")
        if conj:
            np.conjugate(Rs, out=Rs)
        Rs *= right
        np.matmul(Ls, Rs, out=out[cut])
    out += out
    return out.reshape(p.shape)


def tangential_residual(pair, y: np.ndarray, H: np.ndarray):
    """Max entry magnitude of the projection of ``H`` onto the tangent
    space of G at ``y``: H expanded in y times an orthonormal basis of the
    Lie algebra, the pair's ambient basis.  With y = Phi(p) and
    H = map_tension_raw(pair, p) this is the tension of Phi at p; see
    harmonic_residual."""
    A = np.asarray(_h(y) @ H, dtype=complex)
    # g(A, Z) on interleaved real and imaginary parts, for every Z at once
    F, n = pair.ambient_sparse, A.shape[-1]
    coeff = sparse_matmul(A.reshape(-1, n * n).view(float), F.T)
    tangential = y @ sparse_matmul(coeff, F).view(complex).reshape(A.shape)
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

    ``X`` and ``Y`` may be stacks of as many directions, paired entry by
    entry; their axis comes last in the result.
    Equals 4 for X, Y horizontal (so the differential scales lengths by 2);
    vanishes identically for X vertical.  Where g(X, Y) = 0 the numerator
    is returned instead of the undefined ratio.
    """
    _check_member(pair, p)
    plans = [curve_plan(X)] + ([] if Y is X else [curve_plan(Y)])
    dirs = len(plans[0].weights)
    if len(plans[-1].weights) != dirs:
        raise ValueError("X and Y must hold as many directions")
    num = np.empty((dirs,) + np.shape(p)[:-2])
    # one walk when Y is X, else the walks along X and Y in step
    for (lo, _, dX), *dY in zip(*(blocks(pair, p, plan) for plan in plans)):
        num[lo:lo + len(dX)] = metric(dX, dY[0][2] if dY else dX)
    return pullback_ratio(num[0] if np.ndim(X) == 2 else num, X, Y)


def pullback_ratio(num, X, Y):
    """g(dX, dY) / g(X, Y) from ``num`` = g(dX, dY) (matrices.metric),
    dX and dY the first derivatives of Phi along the directions X, Y,
    entry by entry; the numerator where g(X, Y) = 0.  For stacks of
    directions (dirs, n, n), ``num`` carries them on its leading axis, as
    jets do, and the result on its last.  See pullback_factor."""
    den = metric(X, Y)
    if np.ndim(den):
        # a C-ordered copy: reductions over the ratios then run point-major
        num = np.moveaxis(num, 0, -1).copy()
    small = np.abs(den) < 1e-12
    return np.where(small, num, num / np.where(small, 1.0, den))[()]
