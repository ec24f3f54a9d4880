"""Order-2 jets: truncated Taylor arithmetic in one real curve parameter.

A jet carries (value, first derivative, second derivative) of a quantity
along a curve s -> x(s), evaluated at s = 0.  Propagating jets through an
expression yields the exact first and second derivatives of that expression
along the curve, with no step-size tuning.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Jet2", "JetMatrix", "trace_form", "gram"]


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


def _as_jet(x):
    if isinstance(x, Jet2):
        return x
    return Jet2(x, 0.0, 0.0)


def gram(a, b, axis: int):
    """sum over the direction ``axis`` of a_j b_k, j and k on the last
    member axes of a and b; earlier member axes pair elementwise, like the
    leading axes.  Without member axes, the sum of a b."""
    if a.ndim == axis + 1:
        return gram(a[..., None], b[..., None], axis)[..., 0, 0]
    a, b = (np.moveaxis(x, axis, -2) for x in (a, b))
    return np.einsum("...bj,...bk->...jk", a, b)


class Jet2:
    """A complex quantity with its first and second derivatives.

    ``v``, ``d1``, ``d2`` are complex arrays whose shapes broadcast against
    each other, the way JetMatrix stores its parts: one Jet2 can carry a
    batch of points, curve directions and family members, and a part may
    omit axes on which it is constant (a direction-independent value, a
    constant's zero derivatives).  Arithmetic follows the truncated-Taylor
    rules elementwise; in particular
    (a*b).d1 = a.d1*b.v + a.v*b.d1 and
    (a*b).d2 = a.d2*b.v + 2*a.d1*b.d1 + a.v*b.d2.
    Conjugation acts componentwise since the curve parameter is real.
    """

    __slots__ = ("v", "d1", "d2")

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
        return Jet2(*(a[idx] for a in np.broadcast_arrays(self.v, self.d1, self.d2)))

    def __add__(self, other):
        o = _as_jet(other)
        return Jet2(self.v + o.v, self.d1 + o.d1, self.d2 + o.d2)

    __radd__ = __add__

    def __neg__(self):
        return Jet2(-self.v, -self.d1, -self.d2)

    def __sub__(self, other):
        o = _as_jet(other)
        return Jet2(self.v - o.v, self.d1 - o.d1, self.d2 - o.d2)

    def __rsub__(self, other):
        o = _as_jet(other)
        return Jet2(o.v - self.v, o.d1 - self.d1, o.d2 - self.d2)

    def __mul__(self, other):
        o = _as_jet(other)
        return Jet2(
            self.v * o.v,
            self.d1 * o.v + self.v * o.d1,
            self.d2 * o.v + 2.0 * self.d1 * o.d1 + self.v * o.d2,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _as_jet(other)
        v = self.v / o.v
        d1 = (self.d1 - v * o.d1) / o.v
        d2 = (self.d2 - 2.0 * d1 * o.d1 - v * o.d2) / o.v
        return Jet2(v, d1, d2)

    def __rtruediv__(self, other):
        return _as_jet(other) / self

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("only non-negative integer powers are supported")
        out = Jet2(1.0)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def conj(self):
        return Jet2(self.v.conj(), self.d1.conj(), self.d2.conj())

    def sqrt(self):
        v = np.sqrt(self.v)
        d1 = self.d1 / (2.0 * v)
        d2 = (self.d2 - 2.0 * d1 * d1) / (2.0 * v)
        return Jet2(v, d1, d2)

    def __repr__(self):
        if self.shape:
            return f"Jet2(shape={self.shape})"
        return f"Jet2({complex(self.v)!r}, {complex(self.d1)!r}, {complex(self.d2)!r})"


class JetMatrix:
    """A matrix whose entries are order-2 jets, stored as three arrays.

    ``v``, ``d1``, ``d2`` are complex ndarrays of identical trailing shape
    (..., n, n); leading axes broadcast, so a batch of curve directions can
    share one value matrix.  Matrix products follow the same truncated-Taylor
    rule as Jet2; transpose and conjugation act componentwise.
    """

    __slots__ = ("v", "d1", "d2")

    # Keep numpy from absorbing us in mixed expressions like ndarray @ jet.
    __array_ufunc__ = None

    def __init__(self, v, d1, d2):
        self.v = np.asarray(v, dtype=complex)
        self.d1 = np.asarray(d1, dtype=complex)
        self.d2 = np.asarray(d2, dtype=complex)

    @classmethod
    def constant(cls, a):
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
        return JetMatrix(sw(self.v), sw(self.d1), sw(self.d2))

    def conj(self):
        return JetMatrix(self.v.conj(), self.d1.conj(), self.d2.conj())

    def __matmul__(self, other):
        if isinstance(other, JetMatrix):
            return JetMatrix(
                self.v @ other.v,
                self.d1 @ other.v + self.v @ other.d1,
                self.d2 @ other.v + 2.0 * (self.d1 @ other.d1) + self.v @ other.d2,
            )
        other = np.asarray(other, dtype=complex)
        return JetMatrix(self.v @ other, self.d1 @ other, self.d2 @ other)

    def __rmatmul__(self, other):
        other = np.asarray(other, dtype=complex)
        return JetMatrix(other @ self.v, other @ self.d1, other @ self.d2)

    def __add__(self, other):
        if isinstance(other, JetMatrix):
            return JetMatrix(self.v + other.v, self.d1 + other.d1, self.d2 + other.d2)
        return JetMatrix(self.v + np.asarray(other), self.d1, self.d2)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, JetMatrix):
            return JetMatrix(self.v - other.v, self.d1 - other.d1, self.d2 - other.d2)
        return JetMatrix(self.v - np.asarray(other), self.d1, self.d2)

    def __mul__(self, scalar):
        return JetMatrix(self.v * scalar, self.d1 * scalar, self.d2 * scalar)

    __rmul__ = __mul__

    def __neg__(self):
        return JetMatrix(-self.v, -self.d1, -self.d2)

    def _parts(self):
        # Batch axes may live on d1/d2 only; align all three for entrywise
        # extraction and reductions.
        return np.broadcast_arrays(self.v, self.d1, self.d2)

    def __getitem__(self, idx):
        """Batch selection gives a JetMatrix; an index ending in two
        integers that address the matrix axes (``jm[..., i, j]`` or a full
        index) gives the Jet2 of that entry."""
        parts = self._parts()
        idx = idx if isinstance(idx, tuple) else (idx,)
        entry = (len(idx) >= 2
                 and all(isinstance(i, (int, np.integer)) for i in idx[-2:])
                 and (any(i is Ellipsis for i in idx) or len(idx) == parts[0].ndim))
        return (Jet2 if entry else JetMatrix)(*(a[idx] for a in parts))

    def trace(self):
        return Jet2(*(np.trace(a, axis1=-2, axis2=-1) for a in self._parts()))

    def trace_form(self, B):
        """The Jet2 of tr(self @ B), contracted without forming the product.
        The member axes of a stack or grid of B become trailing axes."""
        return Jet2(*(trace_form(a, B) for a in (self.v, self.d1, self.d2)))

    def __repr__(self):
        return f"JetMatrix(shape={self.v.shape})"
