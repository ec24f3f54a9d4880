"""Sphere and complex-projective eigenfamilies via ambient operators.

Functions on the unit sphere are represented by their degree-0 homogeneous
extensions to R^{2n} \\ {0} (written in complex coordinates C^n).  For such
an extension the radial first and second derivatives vanish, so the ambient
Euclidean Laplacian and gradient pairing at |x| = 1 restrict to the
intrinsic sphere operators.  Projective space is handled through the Hopf
lift: an S^1-invariant function on the sphere descends through the
Riemannian submersion with totally geodesic fibers, and the fiber-direction
contribution (which vanishes for invariant functions) is subtracted
literally.

This route is independent of the Lie-group machinery and serves as its
external cross-check.  Points may be stacked, (..., n), and a field may
return a trailing member axis (``stack_fields``); each operator then
evaluates every point, axis and member in one evaluator call.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .jets import Jet2, jet_ops

__all__ = [
    "AmbientField",
    "sphere_phi",
    "cpn_phi",
    "rotate_field",
    "stack_fields",
    "check_homogeneous",
    "sphere_ops",
    "cpn_ops",
]


@dataclass(frozen=True, eq=False)
class AmbientField:
    """A complex function of n complex coordinates, as a jet evaluator.

    ``evaluator`` maps one Jet2 whose last axis holds the n coordinates
    along a bundle of curves (earlier axes are batch axes) to the Jet2 of
    the function; the function must be homogeneous of degree 0.
    """

    evaluator: Callable
    n: int

    def value(self, z):
        """f at a point z of C^n, or at a stack of points (..., n)."""
        return self.evaluator(Jet2.constant(z)).v[()]


def _norm2(z: Jet2) -> Jet2:
    """The jet of |z|^2 = |z_1|^2 + ... + |z_n|^2."""
    t = z * z.conj()
    return Jet2(*(a.sum(axis=-1) for a in (t.v, t.d1, t.d2)))


def sphere_phi(n: int, j: int) -> AmbientField:
    """phi_j(z) = z_j / sqrt(|z_1|^2 + ... + |z_n|^2) on S^{2n-1};
    (lambda, mu) = (-(2n-1), -1).  1-based j."""
    if not 1 <= j <= n:
        raise ValueError(f"j must lie in 1..{n}")

    def ev(z):
        return z[..., j - 1] / _norm2(z).sqrt()

    return AmbientField(ev, n)


def cpn_phi(n: int, j: int, k: int) -> AmbientField:
    """phi_{jk}(z) = z_j conj(z_k) / (|z_1|^2 + ... + |z_{n+1}|^2) on
    C^{n+1}, the S^1-invariant lift of an eigenfunction on CP^n;
    (lambda, mu) = (-4(n+1), -4).  1-based j, k."""
    if not (1 <= j <= n + 1 and 1 <= k <= n + 1):
        raise ValueError(f"j, k must lie in 1..{n + 1}")

    def ev(z):
        return z[..., j - 1] * z[..., k - 1].conj() / _norm2(z)

    return AmbientField(ev, n + 1)


def rotate_field(f: AmbientField, U: np.ndarray) -> AmbientField:
    """g(z) = f(U^H z), so that g(U x) = f(x): the pullback of f under the
    ambient unitary rotation."""
    # (U^H z)^t = z^t conj(U), part by part
    Ubar = np.asarray(U, dtype=complex).conj()

    def ev(z):
        parts = z.broadcast_to((), len(z.d1))
        return f.evaluator(Jet2(*(a @ Ubar for a in parts)))

    return AmbientField(ev, f.n)


def stack_fields(fields) -> AmbientField:
    """Several fields on one C^n as a single field with a trailing member
    axis, so that the operators pair every member with every member."""
    fields = tuple(fields)
    return AmbientField(
        lambda z: Jet2.stack([f.evaluator(z) for f in fields]), fields[0].n)


def _check_invariant(f: AmbientField, z, moves, message: str):
    """Raise ``message`` unless f(w z) = f(z) to 1e-12 relative to
    max(1, |f(z)|) for every w in ``moves``."""
    z = np.asarray(z, dtype=complex)
    v = f.value(z)
    scale = np.maximum(1.0, np.abs(v))
    for w in moves:
        if np.any(np.abs(f.value(w * z) - v) > 1e-12 * scale):
            raise ValueError(message)


# the moves the invariance checks try: scalings c > 0, c != 1, and phases
# e^{i theta}, theta != 0
_SCALES = np.array([0.37, 1.0 + np.pi / 7.0, 2.83])
_PHASES = np.exp(1j * np.array([0.7, 2.0, 5.1]))


def check_homogeneous(f: AmbientField, z) -> None:
    """Reject extensions that are not homogeneous of degree 0:
    f(c z) must equal f(z) for c > 0, at every point of a stack."""
    _check_invariant(f, z, _SCALES, "field is not homogeneous of degree 0")


def _on_sphere(x) -> np.ndarray:
    x = np.asarray(x, dtype=complex)
    r = np.linalg.norm(x, axis=-1, keepdims=True)
    off = np.abs(r - 1.0)
    if np.all(off <= 1e-12):
        return x
    if np.all(off <= 1e-6):
        warnings.warn(f"input off the unit sphere by {off.max():.2e}; "
                      "normalizing", stacklevel=3)
        return np.where(off <= 1e-12, x, x / r)
    raise ValueError(f"point is off the unit sphere: |x| = {r.max()!r}")


def _axis_jets(x, n):
    """The jet of the straight-line curves x + s e along all 2n real
    coordinate axes of C^n = R^{2n}, the directions (e_1, i e_1, e_2, ...)
    leading."""
    E = np.repeat(np.eye(n), 2, axis=0) * np.tile([1.0, 1.0j], n)[:, None]
    return Jet2(x, E.reshape((2 * n,) + (1,) * (x.ndim - 1) + (n,)))


def _ops(f: AmbientField, z: Jet2):
    """(f, tau f, kappa f) from one call of f on the jet z of curves
    through the points z.v, (..., n)."""
    shape = z.v.shape[:-1]
    return jet_ops(*f.evaluator(z).broadcast_to(shape, len(z.d1)),
                   len(shape))


def sphere_ops(f: AmbientField, x):
    """(f, tau f, kappa f) on the unit sphere at x, via the ambient
    Euclidean second derivatives of the degree-0 extension summed over
    the 2n coordinate axes, from one jet pass; kappa pairs every member of
    f with every member."""
    x = _on_sphere(x)
    check_homogeneous(f, x)
    return _ops(f, _axis_jets(x, f.n))


def cpn_ops(f: AmbientField, x):
    """(f, tau f, kappa f) on CP^n at the class of x, via the sphere
    operators of the Hopf lift minus the fiber-direction contribution.

    The lift must be invariant under all of C*: homogeneous of degree 0,
    for the sphere operators, and S^1-invariant, to descend.  One check
    over the complex moves c e^{i theta} covers both."""
    x = _on_sphere(x)
    _check_invariant(f, x, _SCALES * _PHASES,
                     "field is not invariant under C*: a CP^n lift must "
                     "be homogeneous of degree 0 and S^1-invariant")
    phi, tau, kap = _ops(f, _axis_jets(x, f.n))
    # the 2-jet of the fiber circle s -> e^{is} x, one direction
    _, tau_f, kap_f = _ops(f, Jet2(x, 1j * x[None], -x))
    return phi, (tau - tau_f)[()], (kap - kap_f)[()]
