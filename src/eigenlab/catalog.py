"""The catalog of explicit eigenfunctions on the seven symmetric spaces,
with their claimed eigenvalue pairs (lambda, mu).

Every catalog function factors through the Cartan map as an affine trace
form psi(q) = tr(Phi(q) B) + c, which is what the evaluators and the
verification engine consume.  Each constructor takes the indices or the
parameter vectors that define its function and builds B and c from them;
it also carries an independent closed-form (polynomial) evaluation used as
a cross-check.

Matrix indices j, alpha are 1-based.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .cartan import cartan_map, cartan_map_jet
from .jets import form_plan, trace_form
from .matrices import basis_E, i_signature, i_signature_doubled, j_matrix
from .pairs import SymmetricPair, make_pair

__all__ = [
    "Eigenfunction",
    "random_vector",
    "random_isotropic_vector",
    "isotropic_frame",
    "quat_grassmannian_psi",
    "complex_grassmannian_psi",
    "real_grassmannian_psi",
    "su_so_phi",
    "sp_u_phi",
    "so_u_psi",
    "su_sp_phi",
    "table_eigenvalues",
    "family_for_space",
    "stack_members",
]

_SQRT2 = np.sqrt(2.0)


# ---------------------------------------------------------------------------
# parameter vectors

def _vector(a, size: int) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.shape != (size,) or not np.any(a):
        raise ValueError(f"a parameter must be a nonzero vector of "
                         f"length {size}")
    return a


def random_vector(size: int, rng: np.random.Generator) -> np.ndarray:
    return rng.standard_normal(size) + 1j * rng.standard_normal(size)


def random_isotropic_vector(size: int, rng: np.random.Generator) -> np.ndarray:
    """a = u1 + i u2 with u1, u2 real orthonormal, so a.a = 0 exactly
    up to rounding."""
    if size < 2:
        raise ValueError("isotropic vectors need dimension >= 2")
    u1 = rng.standard_normal(size)
    u1 /= np.linalg.norm(u1)
    u2 = rng.standard_normal(size)
    u2 -= (u2 @ u1) * u1
    u2 /= np.linalg.norm(u2)
    return u1 + 1j * u2


def isotropic_frame(n: int) -> np.ndarray:
    """Columns e_k - i e_{n+k} of C^{2n}: a maximal isotropic subspace for
    the bilinear form v.w (any linear combinations stay isotropic)."""
    V = np.zeros((2 * n, n), dtype=complex)
    V[:n] = np.eye(n)
    V[n:] = -1j * np.eye(n)
    return V


# ---------------------------------------------------------------------------
# eigenfunctions

@dataclass(frozen=True, eq=False)
class Eigenfunction:
    """A catalog function psi(q) = tr(Phi(q) B) + c with claimed (lambda, mu)."""

    space: str
    name: str
    pair: SymmetricPair = field(repr=False)
    B: np.ndarray = field(repr=False)
    c: complex
    lam: complex
    mu: complex
    params: dict = field(default_factory=dict)
    direct: object = field(default=None, repr=False)  # independent closed form

    @cached_property
    def plan(self):
        """B prepared for trace_form, once per function or stack."""
        return form_plan(self.B)

    def eta_value(self, y: np.ndarray):
        """The affine functional on the image, eta(y) = tr(y B) + c."""
        return (trace_form(y, self.plan) + self.c)[()]

    def value(self, q: np.ndarray):
        """psi(q) = eta(Phi(q))."""
        return self.eta_value(cartan_map(self.pair, q))

    def direct_value(self, q: np.ndarray) -> complex:
        """The independent polynomial/closed-form evaluation."""
        if self.direct is None:
            raise ValueError(f"{self.name} has no independent closed form")
        return self.direct(q)

    def as_field(self):
        """The jet evaluator on the ambient group (for the generic
        operators)."""
        pair, B, c = self.pair, self.plan, self.c
        return lambda jm: cartan_map_jet(pair, jm).trace_form(B) + c


def stack_members(members) -> Eigenfunction:
    """The trace forms of ``members`` (one space, one pair) as a single
    Eigenfunction whose B and c carry a leading member axis.  Its values
    and fields carry a trailing member axis, so one Cartan pass evaluates
    the whole family."""
    members = tuple(members)
    first = members[0]
    return Eigenfunction(
        space=first.space, name=",".join(m.name for m in members),
        pair=first.pair, B=np.stack([m.B for m in members]),
        c=np.array([m.c for m in members], dtype=complex),
        lam=first.lam, mu=first.mu)


def table_eigenvalues(space: str, m=None, n=None):
    """The claimed (lambda, mu) for each space at the given sizes."""
    if space == "su-so":
        return -2.0 * (n * n + n - 2) / n, -4.0 * (n - 1) / n
    if space == "sp-u":
        return -2.0 * (n + 1), -2.0
    if space == "so-u":
        return -2.0 * (n - 1), -1.0
    if space == "su-sp":
        return -2.0 * (2 * n * n - n - 1) / n, -2.0 * (n - 1) / n
    if space == "so-grassmannian":
        return -1.0 * (m + n), -2.0
    if space == "u-grassmannian":
        return -2.0 * (m + n), -2.0
    if space == "sp-grassmannian":
        return -2.0 * (m + n), -1.0
    raise ValueError(f"unknown space {space!r}")


def _index_form(space: str, m: int, n: int, j: int, alpha: int, pair, S,
                scale: float) -> Eigenfunction:
    """psi_{j,alpha}(q) = scale (q S conj(q)^t + I)_{j,alpha}, S a signature,
    1-based indices, j != alpha: tr(Phi B) with Phi = q S conj(q)^t S and
    B = scale S_aa E_{alpha j}."""
    if not (1 <= j <= len(S) and 1 <= alpha <= len(S)):
        raise ValueError(f"indices must lie in 1..{len(S)}")
    if j == alpha:
        raise ValueError("j = alpha is excluded; the identities are claimed "
                         "only for j, k != alpha")
    pair = pair or make_pair(space, m=m, n=n)
    B = scale * S[alpha - 1, alpha - 1] * basis_E(len(S), alpha, j)
    lam, mu = table_eigenvalues(space, m, n)
    pos = np.flatnonzero(np.diag(S).real > 0)

    def direct(q):
        # Expansion in the entries q[., r] with S_rr = +1; uses
        # unitarity of q, so it is an independent route to the same value.
        return complex(2 * scale * (q[j - 1, pos] @ q[alpha - 1, pos].conj()))

    return Eigenfunction(
        space=space, name=f"psi[{j},{alpha}]", pair=pair,
        B=B, c=0.0, lam=lam, mu=mu,
        params={"m": m, "n": n, "j": j, "alpha": alpha}, direct=direct)


def quat_grassmannian_psi(m: int, n: int, j: int, alpha: int,
                          pair: SymmetricPair | None = None) -> Eigenfunction:
    """psi_{j,alpha}(q) = ((q S conj(q)^t + I)/2)_{j,alpha} on the
    quaternionic Grassmannian, S the doubled signature; 1-based indices,
    j != alpha.  (lambda, mu) = (-2(m+n), -1) on the family of fixed alpha.
    """
    return _index_form("sp-grassmannian", m, n, j, alpha, pair,
                       i_signature_doubled(m, n), 0.5)


def complex_grassmannian_psi(m: int, n: int, j: int, alpha: int,
                             pair: SymmetricPair | None = None) -> Eigenfunction:
    """psi_{j,alpha}(z) = (z S conj(z)^t + I)_{j,alpha} on the complex
    Grassmannian, S = diag(I_m, -I_n); (lambda, mu) = (-2(m+n), -2)."""
    return _index_form("u-grassmannian", m, n, j, alpha, pair,
                       i_signature(m, n), 1.0)


def real_grassmannian_psi(m: int, n: int, a,
                          pair: SymmetricPair | None = None) -> Eigenfunction:
    """psi_A(x) = tr((x S x^t + I) A)/2 on the real Grassmannian,
    S = diag(I_m, -I_n), A = a^t a for an isotropic a in C^{m+n} (so A is
    symmetric of rank 1 with A^2 = 0 and trace 0);
    (lambda, mu) = (-(m+n), -2)."""
    a = _vector(a, m + n)
    if abs(a @ a) > 1e-12 * float(np.abs(a) @ np.abs(a)):
        raise ValueError("vector is not isotropic (a.a != 0)")
    pair = pair or make_pair("so-grassmannian", m=m, n=n)
    S = i_signature(m, n)
    A = np.outer(a, a)
    lam, mu = table_eigenvalues("so-grassmannian", m, n)
    sdiag = np.diag(S).real.astype(float)

    def direct(x):
        w = x.T @ a
        return complex(0.5 * ((sdiag * w) @ w + a @ a))

    return Eigenfunction(
        space="so-grassmannian", name="psi[A]", pair=pair,
        B=0.5 * (S @ A), c=0.5 * complex(np.trace(A)), lam=lam, mu=mu,
        params={"m": m, "n": n}, direct=direct)


def _square_form(space: str, n: int, a, size: int, pair) -> Eigenfunction:
    """phi_A(z) = tr(z z^t A) with A = a^t a, a nonzero in C^size."""
    a = _vector(a, size)
    pair = pair or make_pair(space, n=n)
    lam, mu = table_eigenvalues(space, n=n)

    def direct(z):
        w = a @ z
        return complex(w @ w)

    return Eigenfunction(space=space, name="phi[A]", pair=pair,
                         B=np.outer(a, a), c=0.0, lam=lam, mu=mu,
                         params={"n": n}, direct=direct)


def su_so_phi(n: int, a, pair: SymmetricPair | None = None) -> Eigenfunction:
    """phi_A(z) = tr(z z^t A) with A = a^t a on the quotient of the special
    unitary group by its real forms; (lambda, mu) =
    (-2(n^2+n-2)/n, -4(n-1)/n)."""
    return _square_form("su-so", n, a, n, pair)


def sp_u_phi(n: int, a, pair: SymmetricPair | None = None) -> Eigenfunction:
    """phi_A(q) = tr(q q^t A) with A = a^t a, a in C^{2n}, on the
    quaternionic-unitary quotient; (lambda, mu) = (-2(n+1), -2)."""
    return _square_form("sp-u", n, a, 2 * n, pair)


def _skew_form(space: str, name: str, n: int, a, b, pair) -> Eigenfunction:
    """tr(z J z^t A) with A = (a b^t - b a^t)/sqrt(2) = sum a_r b_s Y_rs,
    a and b linearly independent in C^{2n}."""
    a, b = _vector(a, 2 * n), _vector(b, 2 * n)
    s = np.linalg.svd(np.stack([a, b]), compute_uv=False)
    if not s[1] > 1e-10 * s[0]:
        raise ValueError("vectors must be linearly independent")
    pair = pair or make_pair(space, n=n)
    J = j_matrix(n)
    lam, mu = table_eigenvalues(space, n=n)

    def direct(z):
        W = z @ J @ z.T
        return complex(_SQRT2 * (b @ W @ a))

    # tr(Phi J A) = tr(z J z^t A): the J pairing absorbs the inverse factor.
    return Eigenfunction(
        space=space, name=name, pair=pair,
        B=J @ ((np.outer(a, b) - np.outer(b, a)) / _SQRT2), c=0.0,
        lam=lam, mu=mu, params={"n": n}, direct=direct)


def so_u_psi(n: int, a, b, pair: SymmetricPair | None = None) -> Eigenfunction:
    """psi_A(x) = tr(x J x^t A) with A = (a b^t - b a^t)/sqrt(2), a and b
    independent vectors of a common isotropic subspace of C^{2n};
    (lambda, mu) = (-2(n-1), -1)."""
    a, b = _vector(a, 2 * n), _vector(b, 2 * n)
    scale = max(np.abs(a).max(), np.abs(b).max()) ** 2
    for u, v in ((a, a), (a, b), (b, b)):
        if abs(u @ v) > 1e-10 * scale:
            raise ValueError("a, b must span an isotropic subspace "
                             "(all bilinear products u.v must vanish)")
    return _skew_form("so-u", "psi[A]", n, a, b, pair)


def su_sp_phi(n: int, a, b, pair: SymmetricPair | None = None) -> Eigenfunction:
    """phi_A(z) = tr(z J z^t A) with A = (a b^t - b a^t)/sqrt(2), a and b
    linearly independent in C^{2n}; lambda = -2(2n^2-n-1)/n and
    mu = -2(n-1)/n, the table values."""
    return _skew_form("su-sp", "phi[A]", n, a, b, pair)


def family_for_space(space: str, m=None, n=None, alpha: int = 1,
                     rng: np.random.Generator | None = None,
                     pair: SymmetricPair | None = None):
    """A representative eigenfamily on a space: the full fixed-alpha family
    for the index-based Grassmannians, a singleton for the spaces whose
    functions come from parameter vectors.  Random parameters come from
    ``rng`` (default: seeded fresh)."""
    rng = rng or np.random.default_rng(2024)
    if space in ("sp-grassmannian", "u-grassmannian"):
        pair = pair or make_pair(space, m=m, n=n)
        quat = space == "sp-grassmannian"
        psi = quat_grassmannian_psi if quat else complex_grassmannian_psi
        return [psi(m, n, j, alpha, pair=pair)
                for j in range(1, (1 + quat) * (m + n) + 1) if j != alpha]
    if space == "so-grassmannian":
        a = random_isotropic_vector(m + n, rng)
        return [real_grassmannian_psi(m, n, a, pair=pair)]
    if space == "su-so":
        return [su_so_phi(n, random_vector(n, rng), pair=pair)]
    if space == "sp-u":
        return [sp_u_phi(n, random_vector(2 * n, rng), pair=pair)]
    if space == "so-u":
        V = isotropic_frame(n)
        a = V @ random_vector(n, rng)
        b = V @ random_vector(n, rng)
        return [so_u_psi(n, a, b, pair=pair)]
    if space == "su-sp":
        return [su_sp_phi(n, random_vector(2 * n, rng),
                          random_vector(2 * n, rng), pair=pair)]
    raise ValueError(f"unknown space {space!r}")
