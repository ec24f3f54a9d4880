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
pairwise (Gram) matrix over the members.  The image pass, image_ops,
and form_kappa take the catalog's trace forms themselves, not a field,
and read them off one n x n matrix per point and member, with no curve
jet: image_ops their derivatives along the image basis, form_kappa their
kappa on any pair through p_projection, the closed form of the
projection onto p that the p-basis completes to.  On the u- and
sp-grassmannian, whose catalog forms are one-hot, one_hot_scale gives
the factor that makes that kappa, within one alpha, a product of the
forms' values, read off Phi with no derivative at all.
"""

from __future__ import annotations

import numpy as np

from .cartan import cartan_map, spans
from .jets import JetMatrix, jet_ops, trace_form
from .matrices import j_matrix, mat_exp

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
    "p_projection",
    "form_kappa",
    "one_hot_scale",
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


def image_ops(pair, phi, p: np.ndarray):
    """(eta(Phi(p)), tau_N(eta), kappa_N(eta, eta)) for eta(y) = tr(y B) + c,
    the trace forms of the catalog function or stack_members stack
    ``phi``, as functions on the Cartan image N: derivatives along the
    image basis {W = s X s^H | X in the p-basis} at y = Phi(p),
    s = sigma(p).

    eta is affine, so along y exp(tW) its first derivative is
    tr(y W B) = tr(X N), N = s^H B (y s) (_image_ops), and its tension
    tr(y s C_p s^H B) = tr(C_p N), C_p the sum of X^2: the trace form of
    y s C_p s^H.  A point's bits do not depend on its batch.
    """
    return _image_ops(pair, phi, p, cartan_map(pair, p))


def _image_ops(pair, phi, p, y):
    """image_ops, with y = Phi(p) given.  tr(X N) for X in the p-basis is
    a gather of N (pair.p_gather): for one-hot B = w E_ij N is the outer
    product w s^H[:, i] (y s)[j], else two products per point and member.
    The points go in spans (cartan.spans) of k n^2 entries of N."""
    members, index, weights = phi.plan
    if len(members) > 1:
        raise ValueError("image_ops takes a function or a stack of "
                         "functions, not a grid")
    n = y.shape[-1]
    s = pair.sigma(np.reshape(np.asarray(p, dtype=complex), (-1, n, n)))
    y_s = np.reshape(y, (-1, n, n)) @ s
    sH = np.swapaxes(s, -1, -2).conj()
    value = trace_form(y, phi.plan) + phi.c
    tau = trace_form((y_s @ pair.p_plan.square) @ sH, phi.plan)
    k = int(np.prod(members))
    if index is None:
        B = np.reshape(phi.B, (k, n, n))
    else:
        # B[i, j] = w, at flat index j n + i of B^T
        j, i = np.divmod(index, n)
        w = weights[:, None]
    entries, terms = pair.p_gather
    d1 = np.empty((len(sH), k, len(entries)), complex)
    for cut in spans(len(sH), k * n * n):
        if index is None:
            N = (sH[cut, None] @ B) @ y_s[cut, None]
        else:
            u = w * np.swapaxes(np.take(sH[cut], i, axis=-1), -1, -2)
            N = u[..., :, None] * np.take(y_s[cut], j, axis=-2)[..., None, :]
        g = np.take(N.reshape(len(N), k, n * n), entries, axis=-1)
        g *= terms
        g.sum(axis=-1, out=d1[cut])
    kappa = (d1 @ np.swapaxes(d1, -1, -2)).reshape(value.shape + members)
    return value[()], tau.reshape(value.shape)[()], kappa[()]


def image_tension(pair, phi, p: np.ndarray):
    """tau_N(eta) at Phi(p); see image_ops."""
    return image_ops(pair, phi, p)[1]


def p_projection(pair, U):
    """P_p(U), the complex-linear projection of the n x n matrices U (any
    leading axes) onto p along the matrices trace-orthogonal to it, on
    any pair: Proj_g((U - dsigma(U)) / 2).  dsigma(U) is sigma.d(U), or
    -sigma.inverse(U) = -M U^T M^H where sigma conjugates entrywise, as
    M conj(Z) M^H = -M Z^T M^H on g.  Proj_g is the identity on u,
    U - tr(U) I / N on su, (U - U^T) / 2 on so and (U - J^-1 U^T J) / 2
    on sp.  Its products are exact (M, S and J are signed permutations);
    su's trace term rounds.  The p-basis completes to it,
    sum_X tr(X U) X = -P_p(U) (the scheme.completeness claim)."""
    if pair.sigma.entrywise_conj:
        V = (U + pair.sigma.inverse(U)) / 2.0
    else:
        V = (U - pair.sigma.d(U)) / 2.0
    N = V.shape[-1]
    if pair.group == "su":
        V -= (np.trace(V, axis1=-2, axis2=-1) / N)[..., None, None] * np.eye(N)
    elif pair.group == "so":
        V = (V - np.swapaxes(V, -1, -2)) / 2.0
    elif pair.group == "sp":
        J = j_matrix(N // 2)
        # J^-1 = J^T
        V = (V - J.T @ np.swapaxes(V, -1, -2) @ J) / 2.0
    return V


def form_kappa(pair, phi, p: np.ndarray):
    """kappa(tr Phi A, tr Phi B) = -4 tr(P_p(s A p) s B p), s = sigma(p)^-1,
    of the trace forms of the function, stack or grid ``phi`` at ``p``,
    paired along the last member axis (jets.gram).  As Z(tr Phi A) =
    2 tr(Z s A p) on p (cartan.map_tension_closed) and the p-basis
    completes to -P_p, this is the Gram product of those derivatives,
    none formed.  A point's bits do not depend on its batch."""
    members, n = phi.plan.members, pair.matrix_size
    pts = np.reshape(np.asarray(p, dtype=complex), (-1, 1, n, n))
    N = (pair.sigma.inverse(pts) @ np.reshape(phi.B, (-1, n, n))) @ pts
    rows = (len(pts), -1, members[-1] if members else 1, n * n)
    kappa = p_projection(pair, N).reshape(rows) @ np.swapaxes(
        np.swapaxes(N, -1, -2).reshape(rows), -1, -2)
    return (-4.0 * kappa).reshape(np.shape(p)[:-2] + members
                                  + members[-1:])[()]


# form_kappa's -4 tr(P_p(s A p) s B p) in closed form: for
# A = w1 E_{alpha j1}, B = w2 E_{alpha j2}, j1, j2 != alpha, the term of U itself gives w1 w2 Phi[j1, alpha]
# Phi[j2, alpha]; the others give entries of S at (j, alpha), of J at
# (alpha, alpha) and of R = s^T J S s at (alpha, alpha), which all
# vanish.  P_p weighs U by 1/2, and by 1/4 on the sp-grassmannian
_ONE_HOT_SCALE = {"u-grassmannian": -2.0, "sp-grassmannian": -1.0}


def one_hot_scale(pair, plan):
    """The factor in kappa(phi, psi) = scale tr(Phi A) tr(Phi B) over the
    pairs along the last member axis of the jets.FormPlan ``plan``, or
    None unless that holds: on the u- or sp-grassmannian ``pair``, for
    one-hot forms w E_{alpha j} (B[alpha, j] = w, j != alpha) with one
    alpha along the last member axis, as in the catalog's (alpha, member)
    grid.  Constant terms of the functions do not enter kappa."""
    members, index, _ = plan
    if index is None or pair.space not in _ONE_HOT_SCALE:
        return None
    # B[i, j] = w, at flat index j n + i of B^T (form_plan)
    j, i = np.divmod(np.reshape(index, members or (1,)), pair.matrix_size)
    if (i != i[..., :1]).any() or (i == j).any():
        return None
    return _ONE_HOT_SCALE[pair.space]


def finite_difference_derivs(field, p: np.ndarray, Z: np.ndarray, h: float = 1e-5):
    """Central finite differences of phi(p exp(sZ)) — the step-size-dependent
    cross-check for the exact jet computation."""
    f = lambda s: field_value(field, p @ mat_exp(s * Z))
    fp, f0, fm = f(h), f(0.0), f(-h)
    return (fp - fm) / (2.0 * h), (fp - 2.0 * f0 + fm) / (h * h)
