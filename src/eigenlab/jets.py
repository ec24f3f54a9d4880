"""Order-2 jets: truncated Taylor arithmetic in one real curve parameter.

A jet carries (value, first derivative, second derivative) of a quantity
along a curve s -> x(s), evaluated at s = 0.  Propagating jets through an
expression yields the exact first and second derivatives of that expression
along the curve, with no step-size tuning.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Jet2", "JetMatrix", "LaplacianJet", "trace_form", "gram"]


def trace_form(a, B):
    """tr(a @ B) = sum_ij a_ij B_ji over the leading axes of ``a``, by one
    matmul of ``a`` flattened to (..., n*n) against the transposed B
    flattened to (n*n, members); the member axes of a stack or grid of B,
    e.g. (A, K, n, n), become trailing axes."""
    a, B = np.asarray(a), np.asarray(B)
    lead, n2 = a.shape[:-2], a.shape[-2] * a.shape[-1]
    Bt = np.swapaxes(B, -1, -2).reshape(-1, n2).T
    # numpy runs one gemm per index of all but the last leading axis:
    # BLAS packs one (rows, n*n) slab at a time, not all of ``a``, which
    # keeps its per-thread packing buffers small
    return (a.reshape(lead + (n2,)) @ Bt).reshape(lead + B.shape[:-2])


def _as_jet(x, like):
    """``x`` as a jet to combine with the jet ``like``: a constant jet if
    it is not one.  A jet whose second derivative is summed over the
    directions does not mix with one that keeps it per direction."""
    if not isinstance(x, Jet2):
        return Jet2(x, 0.0, 0.0)
    if x._summed != like._summed:
        raise TypeError(f"cannot combine a {type(like).__name__} with a "
                        f"{type(x).__name__}")
    return x


def gram(a, b, axis: int):
    """sum over the direction ``axis`` of a_j b_k, j and k on the last
    member axes of a and b; earlier member axes pair elementwise, like the
    leading axes.  Without member axes, the sum of a b.  One matmul of
    (..., j, dirs) by (..., dirs, k)."""
    if a.ndim == axis + 1:
        return gram(a[..., None], b[..., None], axis)[..., 0, 0]
    return np.moveaxis(a, axis, -1) @ np.moveaxis(b, axis, -2)


class Jet2:
    """A complex quantity with its first and second derivatives.

    ``v``, ``d1``, ``d2`` are complex arrays whose shapes broadcast against
    each other: one Jet2 can carry a batch of points, curve directions and
    family members, and a part may omit axes on which it is constant (a
    direction-independent value, a constant's zero derivatives).
    Arithmetic follows the truncated-Taylor rules elementwise; in particular
    (a*b).d1 = a.d1*b.v + a.v*b.d1 and
    (a*b).d2 = a.d2*b.v + 2*a.d1*b.d1 + a.v*b.d2.
    Conjugation acts componentwise since the curve parameter is real.
    Each result has the type of the jet whose method made it, so the
    elementwise operations of a JetMatrix give a JetMatrix.
    """

    __slots__ = ("v", "d1", "d2")

    # True where d2 is already summed over the directions (LaplacianJet)
    _summed = False

    # Keep numpy from absorbing us in mixed expressions like ndarray * jet.
    __array_ufunc__ = None

    def __init__(self, v, d1=0.0, d2=0.0):
        self.v = np.asarray(v, dtype=complex)
        self.d1 = np.asarray(d1, dtype=complex)
        self.d2 = np.asarray(d2, dtype=complex)

    @classmethod
    def constant(cls, v):
        return cls(v, 0.0, 0.0)

    @classmethod
    def variable(cls, v):
        """The jet of s -> v + s."""
        return cls(v, 1.0, 0.0)

    @classmethod
    def stack(cls, jets):
        """Stack jets of broadcast-compatible shapes along a new trailing
        (member) axis."""
        parts = zip(*((j.v, j.d1, j.d2) for j in jets))
        return cls(*(np.stack(np.broadcast_arrays(*a), axis=-1)
                     for a in parts))

    @property
    def shape(self):
        return np.broadcast_shapes(self.v.shape, self.d1.shape, self.d2.shape)

    def broadcast_to(self, shape):
        """The three parts as arrays of one shape: ``shape`` followed by
        whatever trailing axes the jet has beyond it."""
        full = tuple(shape) + self.shape[len(shape):]
        return tuple(np.broadcast_to(a, full) for a in (self.v, self.d1, self.d2))

    def __getitem__(self, idx):
        return type(self)(*(a[idx] for a in np.broadcast_arrays(
            self.v, self.d1, self.d2)))

    def __add__(self, other):
        o = _as_jet(other, self)
        return type(self)(self.v + o.v, self.d1 + o.d1, self.d2 + o.d2)

    __radd__ = __add__

    def __neg__(self):
        return type(self)(-self.v, -self.d1, -self.d2)

    def __sub__(self, other):
        o = _as_jet(other, self)
        return type(self)(self.v - o.v, self.d1 - o.d1, self.d2 - o.d2)

    def __rsub__(self, other):
        o = _as_jet(other, self)
        return type(self)(o.v - self.v, o.d1 - self.d1, o.d2 - self.d2)

    def __mul__(self, other):
        o = _as_jet(other, self)
        return type(self)(
            self.v * o.v,
            self.d1 * o.v + self.v * o.d1,
            self.d2 * o.v + 2.0 * self.d1 * o.d1 + self.v * o.d2,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _as_jet(other, self)
        v = self.v / o.v
        d1 = (self.d1 - v * o.d1) / o.v
        d2 = (self.d2 - 2.0 * d1 * o.d1 - v * o.d2) / o.v
        return type(self)(v, d1, d2)

    def __rtruediv__(self, other):
        return _as_jet(other, self) / self

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
        d1 = self.d1 / (2.0 * v)
        d2 = (self.d2 - 2.0 * d1 * d1) / (2.0 * v)
        return type(self)(v, d1, d2)

    def __repr__(self):
        name = type(self).__name__
        if self.shape:
            return f"{name}(shape={self.shape})"
        return (f"{name}({complex(self.v)!r}, {complex(self.d1)!r}, "
                f"{complex(self.d2)!r})")


class JetMatrix(Jet2):
    """A Jet2 whose parts end in matrix axes (..., n, n), with the matrix
    products of the truncated-Taylor rule on top of the elementwise Jet2
    arithmetic.  Leading axes broadcast, so a batch of curve directions
    can share one value matrix; indexing is part-wise, so ``jm[..., i, j]``
    is the jet of one entry.
    """

    __slots__ = ()

    @classmethod
    def constant(cls, a):
        # full-shape zero derivatives: T and @ need matrix-shaped parts
        a = np.asarray(a, dtype=complex)
        z = np.zeros_like(a)
        return cls(a, z, z)

    @classmethod
    def curve(cls, p, Z):
        """The 2-jet of s -> p @ expm(s Z) at s = 0: (p, pZ, pZ^2).

        ``Z`` may carry leading batch axes to build jets along many
        directions at once.
        """
        p = np.asarray(p, dtype=complex)
        Z = np.asarray(Z, dtype=complex)
        if p.shape[-1] != Z.shape[-2]:
            raise ValueError("size mismatch between point and direction")
        pZ = p @ Z
        return cls(p, pZ, pZ @ Z)

    @property
    def T(self):
        sw = lambda a: np.swapaxes(a, -1, -2)
        return type(self)(sw(self.v), sw(self.d1), sw(self.d2))

    @staticmethod
    def _cross(a, b):
        """The cross term a.d1 @ b.d1 of the product rule."""
        return a @ b

    def __matmul__(self, other):
        if isinstance(other, Jet2):
            if type(other) is not type(self):
                raise TypeError(f"cannot multiply a {type(self).__name__} "
                                f"by a {type(other).__name__}")
            return type(self)(
                self.v @ other.v,
                self.d1 @ other.v + self.v @ other.d1,
                self.d2 @ other.v + 2.0 * self._cross(self.d1, other.d1)
                + self.v @ other.d2,
            )
        other = np.asarray(other, dtype=complex)
        return type(self)(self.v @ other, self.d1 @ other, self.d2 @ other)

    def __rmatmul__(self, other):
        other = np.asarray(other, dtype=complex)
        return type(self)(other @ self.v, other @ self.d1, other @ self.d2)

    def trace(self):
        # batch axes may live on d1/d2 only: broadcast before reducing
        return Jet2(*(np.trace(a, axis1=-2, axis2=-1)
                      for a in self.broadcast_to(())))

    def trace_form(self, B):
        """The Jet2 of tr(self @ B), contracted without forming the product.
        The member axes of a stack or grid of B become trailing axes."""
        return Jet2(*(trace_form(a, B) for a in (self.v, self.d1, self.d2)))


class LaplacianJet(JetMatrix):
    """A JetMatrix whose second derivative is summed over the curve
    directions before any product: the forward Laplacian of Li et al.
    (arXiv 2307.08214).

    ``d1`` holds one slice per direction on axis -3; ``v`` and ``d2`` hold
    that axis at length 1 (or lack it), ``d2`` being sum_Z Z^2 of the
    quantity.  The matrix product contracts the cross term of the product
    rule over the directions,
    (a @ b).d2 = a.d2 @ b.v + 2 sum_Z a.d1 @ b.d1 + a.v @ b.d2,
    so a product of jets along D directions takes 3 D + 3 matrix products
    where the full jet takes 5 D + 1.  Sums, differences, multiples by
    constants, conj, T, matrix products with constant matrices, trace,
    trace_form, entry indexing and the involutions act part by part
    without spreading ``v`` or ``d2`` over the directions, and keep the
    type.  A product of two jets other than ``@``, a quotient by a jet, a
    power and a square root need each direction's second derivative, so
    they raise TypeError, as does mixing with per-direction jets.
    """

    __slots__ = ()

    _summed = True

    @classmethod
    def curve(cls, p, Z):
        """The Laplacian jet of s -> p @ expm(s Z) over the directions Z on
        axis -3: (p, pZ, p @ sum_Z Z^2).

        ``p`` is one point (n, n) or points (..., 1, n, n) with the
        direction axis; ``Z`` is (..., dirs, n, n).
        """
        p = np.asarray(p, dtype=complex)
        Z = np.asarray(Z, dtype=complex)
        if p.shape[-1] != Z.shape[-2]:
            raise ValueError("size mismatch between point and direction")
        return cls(p, p @ Z, p @ (Z @ Z).sum(axis=-3, keepdims=True))

    @staticmethod
    def _cross(a, b):
        """sum over the directions of a.d1 @ b.d1: batched products, then
        the sum."""
        return (a @ b).sum(axis=-3, keepdims=True)

    def _map(self, f):
        return type(self)(f(self.v), f(self.d1), f(self.d2))

    def __getitem__(self, idx):
        return self._map(lambda a: a[idx])

    def trace(self):
        return self._map(lambda a: np.trace(a, axis1=-2, axis2=-1))

    def trace_form(self, B):
        """tr(self @ B) for a stack or grid of B, as in JetMatrix."""
        return self._map(lambda a: trace_form(a, B))

    def __mul__(self, other):
        c = _factor(other, "*")
        return self._map(lambda a: a * c)

    __rmul__ = __mul__

    def __truediv__(self, other):
        c = _factor(other, "/")
        return self._map(lambda a: a / c)

    def __rtruediv__(self, other):
        _no_rule("/")

    def __pow__(self, k):
        _no_rule("**")

    def sqrt(self):
        _no_rule("sqrt")


def _factor(c, op):
    """``c`` as a constant factor of a LaplacianJet; a jet raises."""
    if isinstance(c, Jet2):
        _no_rule(op)
    return np.asarray(c, dtype=complex)


def _no_rule(op):
    raise TypeError(f"{op} of a LaplacianJet needs the second derivative "
                    "along each direction, which it has summed")
