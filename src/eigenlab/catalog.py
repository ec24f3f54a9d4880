"""The catalog of explicit eigenfunctions on the seven symmetric spaces,
with their claimed eigenvalue pairs (lambda, mu).

Every catalog function factors through the Cartan map as an affine trace
form psi(q) = tr(Phi(q) B) + c, which is what the evaluators and the
verification engine consume.  Each constructor also carries an independent
closed-form (polynomial) evaluation used as a cross-check.

Matrix indices j, alpha are 1-based.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cartan import cartan_map, cartan_map_jet
from .jets import trace_form
from .matrices import basis_E, i_signature, i_signature_doubled, j_matrix
from .pairs import SymmetricPair, make_pair

__all__ = [
    "ParamMatrix",
    "Eigenfunction",
    "make_param_matrix",
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
# parameter matrices

@dataclass(frozen=True, eq=False)
class ParamMatrix:
    """A validated parameter matrix A with its construction tag."""

    A: np.ndarray
    tag: str


def _rank(A: np.ndarray, rel_tol: float = 1e-10) -> int:
    s = np.linalg.svd(A, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > rel_tol * s[0]))


def make_param_matrix(tag: str, a=None, b=None) -> ParamMatrix:
    """Construct and validate a parameter matrix.

    rank1-isotropic: A = a^t a with a.a = 0 (symmetric, rank 1, A^2 = 0,
    trace 0).  symmetric-aa: A = a^t a, a nonzero.  skew-ab:
    A = (a b^t - b a^t)/sqrt(2) = sum a_r b_s Y_rs, a and b independent.
    Invalid inputs are rejected, not repaired.
    """
    if tag == "symmetric-aa":
        a = np.asarray(a, dtype=complex)
        if a.ndim != 1 or not np.any(a):
            raise ValueError("symmetric-aa requires a nonzero vector")
        A = np.outer(a, a)
        if _rank(A) != 1:
            raise ValueError("parameter matrix is not rank 1")
        return ParamMatrix(A, tag)
    if tag == "rank1-isotropic":
        a = np.asarray(a, dtype=complex)
        if a.ndim != 1 or not np.any(a):
            raise ValueError("rank1-isotropic requires a nonzero vector")
        scale = float(np.abs(a) @ np.abs(a))
        if abs(a @ a) > 1e-12 * scale:
            raise ValueError("vector is not isotropic (a.a != 0)")
        A = np.outer(a, a)
        if _rank(A) != 1:
            raise ValueError("parameter matrix is not rank 1")
        if np.abs(A @ A).max() > 1e-12 * scale * scale or abs(np.trace(A)) > 1e-12 * scale:
            raise ValueError("parameter matrix fails A^2 = 0 or trace A = 0")
        return ParamMatrix(A, tag)
    if tag == "skew-ab":
        a = np.asarray(a, dtype=complex)
        b = np.asarray(b, dtype=complex)
        if a.shape != b.shape or a.ndim != 1:
            raise ValueError("skew-ab requires two vectors of equal length")
        if _rank(np.stack([a, b])) != 2:
            raise ValueError("vectors must be linearly independent")
        A = (np.outer(a, b) - np.outer(b, a)) / _SQRT2
        return ParamMatrix(A, tag)
    raise ValueError(f"unknown parameter tag {tag!r}")


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

    @property
    def matrix_size(self) -> int:
        return self.pair.matrix_size

    def eta_value(self, y: np.ndarray):
        """The affine functional on the image, eta(y) = tr(y B) + c."""
        return (trace_form(y, self.B) + self.c)[()]

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
        pair, B, c = self.pair, self.B, self.c
        return lambda jm: cartan_map_jet(pair, jm).trace_form(B) + c

    def eta_field(self):
        """The jet evaluator of eta itself (a function on the image N)."""
        B, c = self.B, self.c
        return lambda jm: jm.trace_form(B) + c


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


def _check_indices(j, alpha, upper):
    if not (1 <= j <= upper and 1 <= alpha <= upper):
        raise ValueError(f"indices must lie in 1..{upper}")
    if j == alpha:
        raise ValueError("j = alpha is excluded; the identities are claimed "
                         "only for j, k != alpha")


def quat_grassmannian_psi(m: int, n: int, j: int, alpha: int,
                          pair: SymmetricPair | None = None) -> Eigenfunction:
    """psi_{j,alpha}(q) = ((q S conj(q)^t + I)/2)_{j,alpha} on the
    quaternionic Grassmannian, S the doubled signature; 1-based indices,
    j != alpha.  (lambda, mu) = (-2(m+n), -1) on the family of fixed alpha.
    """
    N = 2 * (m + n)
    _check_indices(j, alpha, N)
    pair = pair or make_pair("sp-grassmannian", m=m, n=n)
    S = i_signature_doubled(m, n)
    # tr(Phi B): Phi = q S conj(q)^t S, so B = S_aa E_{alpha j} / 2.
    B = 0.5 * S[alpha - 1, alpha - 1] * basis_E(N, alpha, j)
    lam, mu = table_eigenvalues("sp-grassmannian", m, n)

    def direct(q):
        # Expansion in matrix entries; uses unitarity of q, so it is an
        # independent route to the same value.
        r1 = slice(0, m)
        r2 = slice(m + n, 2 * m + n)
        return complex(q[j - 1, r1] @ q[alpha - 1, r1].conj()
                       + q[j - 1, r2] @ q[alpha - 1, r2].conj())

    return Eigenfunction(
        space="sp-grassmannian", name=f"psi[{j},{alpha}]", pair=pair,
        B=B, c=0.0, lam=lam, mu=mu,
        params={"m": m, "n": n, "j": j, "alpha": alpha}, direct=direct)


def complex_grassmannian_psi(m: int, n: int, j: int, alpha: int,
                             pair: SymmetricPair | None = None) -> Eigenfunction:
    """psi_{j,alpha}(z) = (z S conj(z)^t + I)_{j,alpha} on the complex
    Grassmannian, S = diag(I_m, -I_n); (lambda, mu) = (-2(m+n), -2)."""
    N = m + n
    _check_indices(j, alpha, N)
    pair = pair or make_pair("u-grassmannian", m=m, n=n)
    S = i_signature(m, n)
    B = S[alpha - 1, alpha - 1] * basis_E(N, alpha, j)
    lam, mu = table_eigenvalues("u-grassmannian", m, n)

    def direct(z):
        return complex(2.0 * (z[j - 1, :m] @ z[alpha - 1, :m].conj()))

    return Eigenfunction(
        space="u-grassmannian", name=f"psi[{j},{alpha}]", pair=pair,
        B=B, c=0.0, lam=lam, mu=mu,
        params={"m": m, "n": n, "j": j, "alpha": alpha}, direct=direct)


def real_grassmannian_psi(m: int, n: int, A: ParamMatrix,
                          pair: SymmetricPair | None = None) -> Eigenfunction:
    """psi_A(x) = tr((x S x^t + I) A)/2 on the real Grassmannian,
    S = diag(I_m, -I_n), A symmetric rank-1 isotropic;
    (lambda, mu) = (-(m+n), -2)."""
    if A.tag != "rank1-isotropic":
        raise ValueError("real Grassmannian functions take a rank1-isotropic A")
    N = m + n
    if A.A.shape != (N, N):
        raise ValueError(f"A must be {N}x{N}")
    pair = pair or make_pair("so-grassmannian", m=m, n=n)
    S = i_signature(m, n)
    B = 0.5 * (S @ A.A)
    lam, mu = table_eigenvalues("so-grassmannian", m, n)
    Amat = A.A

    # A = v v^t for some isotropic v; recover a generator from the largest
    # column so the closed form stays independent of the trace route.
    col = int(np.argmax(np.linalg.norm(Amat, axis=0)))
    diag = Amat[col, col]
    v = Amat[:, col] / np.sqrt(diag) if diag != 0 else None
    sdiag = np.diag(S).real.astype(float)

    def direct(x):
        w = x.T @ v
        return complex(0.5 * ((sdiag * w) @ w + v @ v))

    return Eigenfunction(
        space="so-grassmannian", name="psi[A]", pair=pair,
        B=B, c=0.5 * complex(np.trace(Amat)), lam=lam, mu=mu,
        params={"m": m, "n": n}, direct=direct if v is not None else None)


def su_so_phi(n: int, a, pair: SymmetricPair | None = None) -> Eigenfunction:
    """phi_A(z) = tr(z z^t A) with A = a^t a on the quotient of the special
    unitary group by its real forms; (lambda, mu) =
    (-2(n^2+n-2)/n, -4(n-1)/n)."""
    a = np.asarray(a, dtype=complex)
    if a.shape != (n,) or not np.any(a):
        raise ValueError(f"a must be a nonzero vector of length {n}")
    pair = pair or make_pair("su-so", n=n)
    A = np.outer(a, a)
    lam, mu = table_eigenvalues("su-so", n=n)

    def direct(z):
        w = a @ z
        return complex(w @ w)

    return Eigenfunction(space="su-so", name="phi[A]", pair=pair,
                         B=A, c=0.0, lam=lam, mu=mu, params={"n": n},
                         direct=direct)


def sp_u_phi(n: int, a, pair: SymmetricPair | None = None) -> Eigenfunction:
    """phi_A(q) = tr(q q^t A) with A = a^t a, a in C^{2n}, on the
    quaternionic-unitary quotient; (lambda, mu) = (-2(n+1), -2)."""
    a = np.asarray(a, dtype=complex)
    if a.shape != (2 * n,) or not np.any(a):
        raise ValueError(f"a must be a nonzero vector of length {2 * n}")
    pair = pair or make_pair("sp-u", n=n)
    A = np.outer(a, a)
    lam, mu = table_eigenvalues("sp-u", n=n)

    def direct(q):
        w = a @ q
        return complex(w @ w)

    return Eigenfunction(space="sp-u", name="phi[A]", pair=pair,
                         B=A, c=0.0, lam=lam, mu=mu, params={"n": n},
                         direct=direct)


def so_u_psi(n: int, a, b, pair: SymmetricPair | None = None) -> Eigenfunction:
    """psi_A(x) = tr(x J x^t A) with A = (a b^t - b a^t)/sqrt(2), a and b
    independent vectors of a common isotropic subspace of C^{2n};
    (lambda, mu) = (-2(n-1), -1)."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != (2 * n,) or b.shape != (2 * n,):
        raise ValueError(f"a, b must be vectors of length {2 * n}")
    scale = max(np.abs(a).max(), np.abs(b).max()) ** 2
    for u, v in ((a, a), (a, b), (b, b)):
        if abs(u @ v) > 1e-10 * scale:
            raise ValueError("a, b must span an isotropic subspace "
                             "(all bilinear products u.v must vanish)")
    pm = make_param_matrix("skew-ab", a, b)
    pair = pair or make_pair("so-u", n=n)
    J = j_matrix(n)
    # tr(Phi J A) = tr(x J x^t A): the J pairing absorbs the inverse factor.
    B = J @ pm.A
    lam, mu = table_eigenvalues("so-u", n=n)

    def direct(x):
        W = x @ J @ x.T
        return complex(_SQRT2 * (b @ W @ a))

    return Eigenfunction(space="so-u", name="psi[A]", pair=pair,
                         B=B, c=0.0, lam=lam, mu=mu, params={"n": n},
                         direct=direct)


def su_sp_phi(n: int, a, b, pair: SymmetricPair | None = None) -> Eigenfunction:
    """phi_A(z) = tr(z J z^t A) with A = (a b^t - b a^t)/sqrt(2), a and b
    linearly independent in C^{2n}; lambda = -2(2n^2-n-1)/n and
    mu = -2(n-1)/n, the table values."""
    pm = make_param_matrix("skew-ab", a, b)
    if pm.A.shape != (2 * n, 2 * n):
        raise ValueError(f"a, b must be vectors of length {2 * n}")
    pair = pair or make_pair("su-sp", n=n)
    J = j_matrix(n)
    B = J @ pm.A
    lam, mu = table_eigenvalues("su-sp", n=n)
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)

    def direct(z):
        W = z @ J @ z.T
        return complex(_SQRT2 * (b @ W @ a))

    return Eigenfunction(space="su-sp", name="phi[A]", pair=pair,
                         B=B, c=0.0, lam=lam, mu=mu, params={"n": n},
                         direct=direct)


def family_for_space(space: str, m=None, n=None, alpha: int = 1,
                     rng: np.random.Generator | None = None,
                     pair: SymmetricPair | None = None):
    """A representative eigenfamily on a space: the full fixed-alpha family
    for the index-based Grassmannians, a singleton for the parameter-matrix
    spaces.  Random parameters come from ``rng`` (default: seeded fresh)."""
    rng = rng or np.random.default_rng(2024)
    if space == "sp-grassmannian":
        pair = pair or make_pair(space, m=m, n=n)
        N = 2 * (m + n)
        return [quat_grassmannian_psi(m, n, j, alpha, pair=pair)
                for j in range(1, N + 1) if j != alpha]
    if space == "u-grassmannian":
        pair = pair or make_pair(space, m=m, n=n)
        N = m + n
        return [complex_grassmannian_psi(m, n, j, alpha, pair=pair)
                for j in range(1, N + 1) if j != alpha]
    if space == "so-grassmannian":
        A = make_param_matrix("rank1-isotropic",
                              random_isotropic_vector(m + n, rng))
        return [real_grassmannian_psi(m, n, A, pair=pair)]
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
