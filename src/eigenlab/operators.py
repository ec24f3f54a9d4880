"""Tension (Laplace-Beltrami) and conformality operators on a compact group.

With a bi-invariant metric, tau(phi) = sum_Z Z^2(phi) and
kappa(phi, psi) = sum_Z Z(phi) Z(psi) over an orthonormal algebra basis,
where Z^k(phi)(p) = d^k/ds^k phi(p exp(sZ)) at s = 0.  The covariant
correction terms vanish because nabla_Z Z = [Z, Z]/2 = 0 for left-invariant
fields.  All derivatives are exact order-2 jets; kappa is complex bilinear
(no conjugation).

A field is its jet evaluator: a callable that maps a JetMatrix (the jets
of curves through the group along a bundle of directions, with any batch
axes) to the Jet2 of the function along those curves; on a constant jet
it must return a constant jet.  Every operator takes a single point
(n, n) or a stack of points (..., n, n) and pushes all basis directions
through one call of the field: the jet's d1 holds Z(phi) per direction
and its d2 is tau(phi) already.  A field may return a trailing member
axis, so that one call evaluates a whole family; kappa is then the
pairwise (Gram) matrix over the members.
"""

from __future__ import annotations

import numpy as np

from .cartan import cartan_map
from .jets import JetMatrix, jet_ops
from .matrices import mat_exp

__all__ = [
    "field_value",
    "direction_derivs",
    "field_jets",
    "tension",
    "conformality",
    "field_ops",
    "quotient_ops",
    "image_ops",
    "image_tension",
    "finite_difference_derivs",
]


def field_value(field, p: np.ndarray):
    """phi(p), via a constant jet."""
    return field(JetMatrix.constant(p)).v[()]


def direction_derivs(field, p: np.ndarray, Z: np.ndarray):
    """(Z(phi)(p), Z^2(phi)(p)): first and second derivative of phi along
    the one-parameter subgroup curve p exp(sZ), one direction (n, n)."""
    j = field(JetMatrix.curve(p, Z))
    return j.d1[0][()], j.d2[()]


def field_jets(field, p: np.ndarray, directions):
    """phi, its first derivatives along every direction and tau(phi) at
    every point, from one call of the field.

    ``p`` is (*points, n, n); ``directions`` is (dirs, n, n), a basis, or
    (dirs, *points, n, n) for point-dependent directions.  Returns the
    value and tau of shape (*points, *members), and d1 of shape
    (dirs, *points, *members).
    """
    p = np.asarray(p, dtype=complex)
    Z = np.asarray(getattr(directions, "elements", directions), dtype=complex)
    return field(JetMatrix.curve(p, Z)).broadcast_to(p.shape[:-2], len(Z))


def field_ops(field, p: np.ndarray, basis):
    """(phi, tau(phi), kappa(phi, phi)) at every point from one call of
    the field; kappa pairs every member with every member."""
    return jet_ops(*field_jets(field, p, basis), np.ndim(p) - 2)


def tension(field, p: np.ndarray, basis):
    """tau(phi)(p) = sum over the basis of second directional derivatives."""
    return field_ops(field, p, basis)[1]


def conformality(field, p: np.ndarray, basis):
    """kappa(phi, psi)(p) = sum over the basis of Z(phi) Z(psi) for every
    pair of members of the field: their Gram matrix, complex bilinear.  To
    pair two functions, stack them into one field and read the
    off-diagonal entry."""
    return field_ops(field, p, basis)[2]


def quotient_ops(pair, field, p: np.ndarray):
    """(tau over the horizontal basis, tau over the full basis,
    kappa(field, field) over the horizontal basis).

    For a K-invariant function the vertical derivatives vanish, so the two
    tension values agree and equal the quotient-space operator;
    disagreement beyond ~1e-9 flags a function that does not descend to
    G/K.
    """
    _, horiz, kap = field_ops(field, p, pair.p_basis)
    full = tension(field, p, pair.ambient)
    return horiz, full, kap


def image_ops(pair, eta, p: np.ndarray):
    """(eta(Phi(p)), tau_N(eta), kappa_N(eta, eta)) from one call of
    eta, for eta a function on the ambient group restricted to the Cartan
    image N: derivatives along the image basis
    {Ad_{sigma(p)} X | X in the p-basis} at Phi(p)."""
    y = cartan_map(pair, p)
    s = pair.sigma(np.asarray(p, dtype=complex))
    sH = np.swapaxes(s, -1, -2).conj()
    # the curve jet (y, y W, y sum_X W^2) along W = s X s^H is the curve
    # jet at y s along the p-basis times s^H, as sum_X W^2 = s C_p s^H for
    # unitary s: no W is formed, and y W = (y s X) s^H is made in place,
    # a direction at a time, so one (dim p, points, n, n) array is held
    c = JetMatrix.curve(y @ s, pair.p_plan)
    for a in c.d1:
        np.matmul(a, sH, out=a)
    jm = JetMatrix(y, c.d1, c.d2 @ sH)
    return jet_ops(*eta(jm).broadcast_to(y.shape[:-2], pair.dim_p),
                   np.ndim(p) - 2)


def image_tension(pair, eta, p: np.ndarray):
    """tau_N(eta) at Phi(p); see image_ops."""
    return image_ops(pair, eta, p)[1]


def finite_difference_derivs(field, p: np.ndarray, Z: np.ndarray, h: float = 1e-5):
    """Central finite differences of phi(p exp(sZ)) — the step-size-dependent
    cross-check for the exact jet computation."""
    f = lambda s: field_value(field, p @ mat_exp(s * Z))
    fp, f0, fm = f(h), f(0.0), f(-h)
    return (fp - fm) / (2.0 * h), (fp - 2.0 * f0 + fm) / (h * h)
