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
takes the catalog's trace forms themselves, not a field: their
derivatives along the image basis are read off one n x n matrix per
point and member, with no curve jet.  On the u- and sp-grassmannian,
whose catalog forms are one-hot, one_hot_scale gives the factor that
makes the kappa grid of one alpha a product of the forms' values, read
off Phi with no derivative at all; p_projection is the closed form of the
p-projection that factor rests on.
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
    tr(y W B) = tr(X N), N = s^H B (y s), and its tension
    tr(y s C_p s^H B) = tr(C_p N), C_p the sum of X^2: one n x n matrix N
    per point and member.  X has one nonzero per column at most
    (pair.p_plan), so tr(X N) gathers one entry of N per nonzero of X.
    For one-hot B = w E_ij (every u- and sp-grassmannian member) N is
    the outer product w s^H[:, i] (y s)[j, :]; any other B takes two
    products per point and member.  The tension is the trace form of
    y s C_p s^H.  The points go in spans (cartan.spans) of k n^2 entries
    of N each, and a point's bits do not depend on its batch.
    """
    members, index, weights = phi.plan
    if len(members) > 1:
        raise ValueError("image_ops takes a function or a stack of "
                         "functions, not a grid")
    y = cartan_map(pair, p)
    n = y.shape[-1]
    pts, ys = (np.reshape(a, (-1, n, n))
               for a in (np.asarray(p, dtype=complex), y))
    k = int(np.prod(members))
    if index is None:
        B = np.reshape(phi.B, (k, n, n))
    else:
        # B[i, j] = w, at flat index j n + i of B^T
        j, i = np.divmod(index, n)
        w = weights[:, None]
    entries, terms = _trace_gather(pair.p_plan, n)
    tau = np.empty((len(pts),) + members, complex)
    kappa = np.empty((len(pts), k, k), complex)
    for cut in spans(len(pts), k * n * n):
        s = pair.sigma(pts[cut])
        y_s = ys[cut] @ s
        sH = np.swapaxes(s, -1, -2).conj()
        tau[cut] = trace_form((y_s @ pair.p_plan.square) @ sH, phi.plan)
        if index is None:
            N = (sH[:, None] @ B) @ y_s[:, None]
        else:
            # rows i of s conjugated are the columns i of s^H
            u = w * np.take(s, i, axis=-2).conj()
            N = u[..., :, None] * np.take(y_s, j, axis=-2)[..., None, :]
        d1 = np.take(N.reshape(len(s), k, n * n), entries, axis=-1)
        d1 *= terms
        d1 = d1.sum(axis=-1)
        np.matmul(d1, np.swapaxes(d1, -1, -2), out=kappa[cut])
    value = trace_form(y, phi.plan) + phi.c
    shape = y.shape[:-2]
    kappa = kappa.reshape(shape + (k, k) if members else shape)
    return value[()], tau.reshape(value.shape)[()], kappa[()]


def _trace_gather(plan, n):
    """tr(X N) for every direction X of the curve plan ``plan`` as a
    gather of the flat N: the (dirs, terms) flat indices and weights of
    each direction's nonzero entries X[r, b], N[b, r] of N, in column
    order, padded with zero terms."""
    nonzero = plan.weights != 0
    width = max(1, nonzero.sum(axis=1).max(initial=0))
    cols = np.argsort(~nonzero, axis=1, kind="stable")[:, :width]
    rows = np.take_along_axis(plan.rows, cols, axis=1)
    return cols * n + rows, np.take_along_axis(plan.weights, cols, axis=1)


def image_tension(pair, phi, p: np.ndarray):
    """tau_N(eta) at Phi(p); see image_ops."""
    return image_ops(pair, phi, p)[1]


def p_projection(pair, U):
    """P_p(U) on the u- or sp-grassmannian ``pair``: the complex-linear
    projection of the n x n matrices U (any leading axes) onto p, along
    the matrices trace-orthogonal to it.  It is (U - dsigma(U)) / 2, with
    dsigma(U) = S U S the pair's involution (S its signature), then on
    the sp-grassmannian (V - J^-1 V^T J) / 2, the projection onto sp.
    Every product is exact: S and J are signed permutations.  The p-basis
    completes to it, sum_X tr(X U) X = -P_p(U) (the scheme.completeness
    claim)."""
    if pair.space not in _ONE_HOT_SCALE:
        raise ValueError("p_projection takes the u- or sp-grassmannian")
    V = (U - pair.sigma.d(U)) / 2.0
    if pair.group == "sp":
        J = j_matrix(pair.matrix_size // 2)
        # J^-1 = J^T
        V = (V - J.T @ np.swapaxes(V, -1, -2) @ J) / 2.0
    return V


# With Z(Phi) = 2 p Z s on p (s = sigma(p)^-1, cartan.casimir) and the
# completeness of the p-basis, kappa(tr Phi A, tr Phi B) =
# -4 tr(P_p(s A p) s B p).  For A = w1 E_{alpha j1}, B = w2 E_{alpha j2},
# j1, j2 != alpha, the term of U itself gives w1 w2 Phi[j1, alpha]
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
