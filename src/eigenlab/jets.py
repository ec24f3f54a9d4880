"""Order-2 jets along a bundle of curve directions: truncated Taylor
arithmetic in one real curve parameter per direction.

A jet carries, at s = 0, a quantity's value ``v``, its first derivative
``d1`` along each curve s -> x_Z(s), one direction Z per slice of the
leading axis of ``d1``, and ``d2``, the sum over the directions of its
second derivatives.  That sum is all the operators read: the tension is
tau = sum_Z Z^2 and the conformality kappa = sum_Z Z(phi) Z(psi).
Propagating jets through an expression yields these exactly, with no
step-size tuning.  Summing before the products is the "forward Laplacian"
of Li et al. (arXiv 2307.08214).
"""

from __future__ import annotations

from functools import reduce
from typing import NamedTuple

import numpy as np

from .bases import square_sum

__all__ = ["Jet2", "JetMatrix", "FIRST_ORDER", "FormPlan", "form_plan",
           "CurvePlan", "curve_plan", "trace_form", "gram", "jet_ops"]


# rows of ``a`` per gemm in trace_form
_ROWS = 32

# The d2 of a first-order jet (Jet2): a read-only scalar zero, told by
# identity from the exact zero d2 of a straight line or a constant.
FIRST_ORDER = np.zeros((), complex)
FIRST_ORDER.flags.writeable = False


class FormPlan(NamedTuple):
    """A stack or grid of B prepared for trace_form (form_plan)."""

    members: tuple
    index: np.ndarray | None
    weights: np.ndarray


def form_plan(B) -> FormPlan:
    """What trace_form reads off the stack or grid ``B``: its member axes
    and, if every B is one-hot, the flat index and value of the nonzero
    of each B^T, else the B^T flattened to (n*n, members)."""
    B = np.asarray(B)
    Bt = np.swapaxes(B, -1, -2).reshape(-1, B.shape[-2] * B.shape[-1])
    # the total count, cheaper than the per-member one, rules out a dense
    # stack first
    if (np.count_nonzero(Bt) == len(Bt)
            and (np.count_nonzero(Bt, axis=1) == 1).all()):
        member, idx = np.nonzero(Bt)
        return FormPlan(B.shape[:-2], idx, Bt[member, idx])
    return FormPlan(B.shape[:-2], None, Bt.T)


class CurvePlan(NamedTuple):
    """Curve directions prepared for JetMatrix.curve (curve_plan).  A
    plan without ``square`` is first-order (CurvePlan.block)."""

    square: np.ndarray | None
    rows: np.ndarray | None
    weights: np.ndarray

    def block(self, lo=0, hi=None):
        """Directions lo..hi-1 (all by default) as a first-order plan: no
        square sum, so that JetMatrix.curve along it gives one first-order
        jet per direction."""
        rows = None if self.rows is None else self.rows[lo:hi]
        return CurvePlan(None, rows, self.weights[lo:hi])


def curve_plan(Z) -> CurvePlan:
    """What JetMatrix.curve reads off the directions ``Z``, one (n, n) or
    a stack (dirs, ..., n, n): the sum of Z^2 over the directions and, if
    Z is a stack (dirs, n, n) with at most one nonzero per column, each
    purely real or purely imaginary, the row and value of each column's
    nonzero (row 0 and value 0 for an empty column), else Z itself."""
    Z = np.asarray(Z, dtype=complex)
    if Z.ndim == 2:
        Z = Z[None]
    if (Z.ndim == 3 and ((Z != 0).sum(axis=-2) <= 1).all()
            and not (Z.real * Z.imag).any()):
        rows = np.abs(Z).argmax(axis=-2)
        return CurvePlan(square_sum(Z), rows,
                         np.take_along_axis(Z, rows[:, None], axis=-2)[:, 0])
    return CurvePlan(square_sum(Z), None, Z)


def trace_form(a, B):
    """tr(a @ B) = sum_ij a_ij B_ji over the leading axes of ``a``, with
    ``a`` flattened to rows of n*n; the member axes of a stack or grid of
    B, e.g. (A, K, n, n), become trailing axes.  ``B`` may be given as its
    form_plan, so that a stack used many times is read once.

    When every B has exactly one nonzero entry w at (i, j), as every u-
    and sp-grassmannian B does, tr(a B) is w a_ji: one gathered entry per
    member and row, O(n^2) per row where a matmul costs O(n^4), and the
    same bits as the matmul's one nonzero product.  Any other stack is
    contracted by matmuls against the transposed B flattened to
    (n*n, members)."""
    members, idx, w = B if isinstance(B, FormPlan) else form_plan(B)
    a = np.asarray(a)
    rows = a.reshape(-1, a.shape[-2] * a.shape[-1])
    if idx is not None:
        # np.take gives a fresh C-ordered array: gram's matmul over the
        # members then sums in the same order as on the matmuls' output
        out = np.take(rows, idx, axis=-1).astype(
            np.result_type(rows, w), copy=False)
        out *= w
    elif len(rows) <= _ROWS:
        out = _matmul_rows(rows, w)
    else:
        # gemms of _ROWS rows, one slab of ``a`` packed at a time: for a
        # few members BLAS keeps each on one thread, where all points of an
        # image pass in one gemm would start its helper threads, whose spin
        # after the call costs CPU time and no wall time.  Each row's
        # result does not depend on how the rows are blocked.
        cut = len(rows) - len(rows) % _ROWS
        head = rows[:cut].reshape(-1, _ROWS, rows.shape[1]) @ w
        out = np.concatenate([head.reshape(cut, -1),
                              _matmul_rows(rows[cut:], w)])
    return out.reshape(a.shape[:-2] + members)


def _matmul_rows(rows, w):
    """rows @ w, a lone row by the kernel of several: numpy takes one
    row through a dot product or gemv, which sum in another order, so a
    point's bits would depend on the size of its batch."""
    if len(rows) == 1:
        return (np.repeat(rows, 2, axis=0) @ w)[:1]
    return rows @ w


def _dir_sum(a):
    """The sum of ``a`` over its leading (direction) axis, in direction
    order: for one direction, that direction, uncopied.  numpy sums a
    contiguous axis pairwise, and the direction axis is one when the
    batch holds one entry, so that entry is summed by hand, as numpy sums
    the entries of a larger batch."""
    if len(a) == 1:
        return a[0]
    if len(a) and a[0].size == 1:
        return reduce(np.add, a)
    return a.sum(axis=0)


def _as_jet(x):
    """``x`` as a jet: a constant jet if it is not one."""
    return x if isinstance(x, Jet2) else Jet2(x)


def gram(a, points: int):
    """sum over the directions of a_j a_k, for ``a`` laid out as the first
    derivatives of a jet: (dirs, *points, *members) with ``points`` point
    axes.  j and k are on the last member axis; earlier member axes pair
    elementwise, like the point axes.  Without member axes, the sum of
    a^2.  One matmul of (..., j, dirs) by (..., dirs, k).  To pair two
    quantities, stack them on a member axis and read the off-diagonal
    entry.  The directions are copied to a contiguous last axis: for one
    member numpy takes a dot product, whose order of summing depends on
    the stride, so a point's bits would depend on the size of its batch."""
    if a.ndim == points + 1:
        return gram(a[..., None], points)[..., 0, 0]
    a = np.moveaxis(a, 0, -1).copy()
    return a @ np.swapaxes(a, -1, -2)


def jet_ops(v, d1, d2, points: int):
    """(phi, tau(phi), kappa(phi, phi)) read off the parts of a jet over
    ``points`` point axes: phi is the value, tau the direction-summed
    second derivative and kappa the Gram matrix of the first
    derivatives (see gram)."""
    return v[()], d2[()], gram(d1, points)[()]


class Jet2:
    """A complex quantity with its first derivatives along D curve
    directions and the sum of its second derivatives over them.

    ``v`` and ``d2`` are complex arrays of the batch shape (points, family
    members, matrix entries, ...); ``d1`` has one more axis in front, one
    slice per direction.  The parts broadcast against each other, so a
    part may omit axes on which it is constant; a constant has one
    direction of zero derivative, which broadcasts to any bundle.
    Arithmetic follows the truncated-Taylor rules elementwise, with the
    cross term of the product rule contracted over the directions:
    (a*b).d1 = a.d1*b.v + a.v*b.d1 and
    (a*b).d2 = a.d2*b.v + 2 sum_Z a.d1*b.d1 + a.v*b.d2.
    Each second derivative enters linearly, so this rule and the quotient,
    power and square-root rules built the same way are exact for the
    sums.  Conjugation acts componentwise since the curve parameter is
    real.  Each result has the type of the jet whose method made it, so
    the elementwise operations of a JetMatrix give a JetMatrix.  Where a
    value meets d1 it takes a leading axis: numpy multiplies an array of
    one entry by an array of fewer axes in a scalar loop, which rounds
    unlike the vector loop the same entry takes in a larger batch.

    A first-order jet has the scalar zero FIRST_ORDER as ``d2``: it does
    not carry its second derivatives, where any other scalar zero d2 is
    the exact zero of a straight line or a constant.  A product with a
    first-order factor is first-order, d1 only: the product of
    JetMatrix.curve jets along a first-order plan, one per direction on a
    batch axis in front of the points, gives each direction's Z(a b) and
    no cross term: the Cartan walk pushes them (cartan.blocks), and
    cartan.map_tension_raw forms the cross term once, summed over all
    directions.  Such jets take the jet products and an involution
    (pairs.Involution), what a Cartan pass needs; the other operations
    read FIRST_ORDER as a zero.
    """

    __slots__ = ("v", "d1", "d2")

    # Keep numpy from absorbing us in mixed expressions like ndarray * jet.
    __array_ufunc__ = None

    def __init__(self, v, d1=0.0, d2=0.0):
        self.v = np.asarray(v, dtype=complex)
        d1 = np.asarray(d1, dtype=complex)
        # a number is the first derivative along one direction, at every
        # batch entry: give it the direction axis in front of the batch
        self.d1 = d1.reshape((1,) * (self.v.ndim + 1)) if d1.ndim == 0 else d1
        self.d2 = np.asarray(d2, dtype=complex)  # keeps FIRST_ORDER

    @classmethod
    def constant(cls, v):
        return cls(v, 0.0, 0.0)

    @classmethod
    def stack(cls, jets):
        """Stack jets of broadcast-compatible shapes along a new trailing
        (member) axis."""
        parts = zip(*((j.v, j.d1, j.d2) for j in jets))
        return cls(*(np.stack(np.broadcast_arrays(*a), axis=-1)
                     for a in parts))

    @property
    def shape(self):
        """The batch shape: every axis but the direction axis of d1."""
        return np.broadcast_shapes(self.v.shape, self.d1.shape[1:],
                                   self.d2.shape)

    def broadcast_to(self, shape, dirs):
        """The three parts as arrays: v and d2 of ``shape`` followed by
        whatever trailing axes the jet has beyond it, d1 of ``dirs``
        directions before them (a constant's zeros spread over them)."""
        full = tuple(shape) + self.shape[len(shape):]
        return (np.broadcast_to(self.v, full),
                np.broadcast_to(self.d1, (dirs,) + full),
                np.broadcast_to(self.d2, full))

    def __getitem__(self, idx):
        """Index the batch axes of every part; d1 keeps its directions."""
        idx = idx if isinstance(idx, tuple) else (idx,)
        v, d1, d2 = self.broadcast_to((), len(self.d1))
        return type(self)(v[idx], d1[(slice(None),) + idx], d2[idx])

    def __add__(self, other):
        if not isinstance(other, Jet2):
            # a constant moves the value only
            return type(self)(self.v + other, self.d1, self.d2)
        return type(self)(self.v + other.v, self.d1 + other.d1,
                          self.d2 + other.d2)

    __radd__ = __add__

    def __neg__(self):
        return type(self)(-self.v, -self.d1, -self.d2)

    def __sub__(self, other):
        if not isinstance(other, Jet2):
            return type(self)(self.v - other, self.d1, self.d2)
        return type(self)(self.v - other.v, self.d1 - other.d1,
                          self.d2 - other.d2)

    def __rsub__(self, other):
        # only a constant: a jet on the left calls its own __sub__
        return type(self)(other - self.v, -self.d1, -self.d2)

    def __mul__(self, other):
        o = _as_jet(other)
        d2 = FIRST_ORDER  # no cross term
        if self.d2 is not FIRST_ORDER and o.d2 is not FIRST_ORDER:
            d2 = (self.d2 * o.v + 2.0 * _dir_sum(self.d1 * o.d1)
                  + self.v * o.d2)
        return type(self)(self.v * o.v,
                          self.d1 * o.v[None] + self.v[None] * o.d1, d2)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _as_jet(other)
        v = self.v / o.v
        d1 = (self.d1 - v[None] * o.d1) / o.v[None]
        d2 = (self.d2 - 2.0 * _dir_sum(d1 * o.d1) - v * o.d2) / o.v
        return type(self)(v, d1, d2)

    def __rtruediv__(self, other):
        return _as_jet(other) / self

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("only non-negative integer powers are supported")
        out = type(self)(1.0)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def conj(self):
        return type(self)(self.v.conj(), self.d1.conj(), self.d2.conj())

    def sqrt(self):
        v = np.sqrt(self.v)
        d1 = self.d1 / (2.0 * v)[None]
        d2 = (self.d2 - 2.0 * _dir_sum(d1 * d1)) / (2.0 * v)
        return type(self)(v, d1, d2)

    def __repr__(self):
        name = type(self).__name__
        if self.shape:
            return f"{name}(shape={self.shape}, dirs={len(self.d1)})"
        return (f"{name}({complex(self.v)!r}, {self.d1.tolist()!r}, "
                f"{complex(self.d2)!r})")


class JetMatrix(Jet2):
    """A Jet2 whose parts end in matrix axes (..., n, n), with the matrix
    product of the truncated-Taylor rule on top of the elementwise Jet2
    arithmetic.  Leading axes broadcast, so a bundle of curve directions
    shares one value matrix; indexing is part-wise, so ``jm[..., i, j]``
    is the jet of one entry.
    """

    __slots__ = ()

    @classmethod
    def constant(cls, a):
        # matrix-shaped zero derivatives: T and @ need matrix parts
        a = np.asarray(a, dtype=complex)
        z = np.zeros_like(a)
        return cls(a, z[None], z)

    @classmethod
    def curve(cls, p, Z):
        """The jet of s -> p @ expm(s Z) over the directions Z:
        (p, pZ, p @ sum_Z Z^2).

        ``p`` is a point (n, n) or points (..., n, n).  ``Z`` is one
        direction (n, n) or a stack (dirs, ..., n, n) whose axes after the
        first broadcast against the points: a basis (dirs, n, n) serves
        every point, and (dirs, *points, n, n) pairs point-dependent
        directions with their points.  ``Z`` may be given as its
        curve_plan, so that a basis used many times is read once.  Along a
        basis with at most one nonzero per column, each purely real or
        imaginary (every pair basis), column j of p Z is column r_j of p
        times Z[r_j, j], the matmul's one product with a nonzero: D gathers
        and one product by sum_Z Z^2, the matmul's bits up to the sign of a
        zero.  Other directions take the dense product.  Along a
        first-order plan (CurvePlan.block) the jets are first-order, one
        per direction: d1 is (1, dirs, ..., n, n) and d2 FIRST_ORDER.
        """
        p = np.asarray(p, dtype=complex)
        square, rows, w = Z if isinstance(Z, CurvePlan) else curve_plan(Z)
        if p.shape[-1] != w.shape[-1]:
            raise ValueError("size mismatch between point and direction")
        if rows is None:
            # the directions in front of every point axis
            d1 = p @ w.reshape(w.shape[:1] + (1,) * (p.ndim - w.ndim + 1)
                               + w.shape[1:])
        else:
            d1 = np.empty((len(rows),) + p.shape, complex)
            for d, r in enumerate(rows):
                np.take(p, r, axis=-1, out=d1[d], mode="clip")  # unbuffered
            d1 *= w.reshape(w.shape[:1] + (1,) * (p.ndim - 1) + w.shape[1:])
        if square is None:
            return cls(p, d1[None], FIRST_ORDER)
        return cls(p, d1, p @ square)

    @property
    def T(self):
        sw = lambda a: np.swapaxes(a, -1, -2)
        return type(self)(sw(self.v), sw(self.d1), sw(self.d2))

    def __matmul__(self, other):
        if isinstance(other, Jet2):
            # 2 D + 1 matrix products for D directions, and D + 2 more
            # for the second derivatives unless a factor is first-order.
            # Sums run in place where the shapes agree, to hold one array
            # less, and the cross term is doubled as x + x, the bits of 2 x.
            d1, right = self.d1 @ other.v, self.v @ other.d1
            d1 = np.add(d1, right, out=d1) if d1.shape == right.shape \
                else d1 + right
            del right
            d2 = FIRST_ORDER
            if self.d2 is not FIRST_ORDER and other.d2 is not FIRST_ORDER:
                d2 = _dir_sum(self.d1 @ other.d1)
                d2 += d2
                d2 = self.d2 @ other.v + d2 + self.v @ other.d2
            return type(self)(self.v @ other.v, d1, d2)
        other = np.asarray(other, dtype=complex)
        return type(self)(self.v @ other, self.d1 @ other, self.d2 @ other)

    def __rmatmul__(self, other):
        other = np.asarray(other, dtype=complex)
        return type(self)(other @ self.v, other @ self.d1, other @ self.d2)

    def trace(self):
        return Jet2(*(np.trace(a, axis1=-2, axis2=-1)
                      for a in (self.v, self.d1, self.d2)))

    def trace_form(self, B):
        """The Jet2 of tr(self @ B), contracted without forming the product.
        The member axes of a stack or grid of B become trailing axes."""
        return Jet2(*(trace_form(a, B) for a in (self.v, self.d1, self.d2)))
