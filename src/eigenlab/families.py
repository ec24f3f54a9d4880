"""Derived eigenfamilies: homogeneous polynomial families and
product-manifold families.

If every member of a family F satisfies tau(phi) = lambda phi and
kappa(phi, psi) = mu phi psi, then any homogeneous degree-d polynomial P in
the members satisfies tau(P) = (d lambda + d(d-1) mu) P and
kappa(P, Q) = d^2 mu P Q.  On a product M1 x M2, the functions
phi1(p1) phi2(p2) form a family with eigenvalues (lambda1 + lambda2,
mu1 + mu2) for the concatenated (disjoint-union) basis.

The product law (``product_ops``) acts on the (value, d1, tau) of the two
factors, the directions leading in d1, wherever they come from: the
per-point operators push them through the factors' fields, the claim
engine reads them off Phi and its tension (claims._form_jet).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations_with_replacement, islice
from typing import Callable

import numpy as np

from .catalog import stack_members
from .jets import Jet2, JetMatrix, jet_ops
from .operators import field_jets

__all__ = [
    "EigenFamily",
    "PolyMember",
    "ProductMember",
    "base_family",
    "polynomial_family",
    "product_family",
    "product_ops",
    "product_tension",
]

MONOMIAL_CAP = 200


@dataclass(frozen=True, eq=False)
class EigenFamily:
    """Member functions sharing one (lambda, mu) on one space."""

    space: str
    members: tuple
    lam: complex
    mu: complex

    def __len__(self):
        return len(self.members)

    def __iter__(self):
        return iter(self.members)


def base_family(members) -> EigenFamily:
    members = tuple(members)
    if not members:
        raise ValueError("a family needs at least one member")
    space, lam, mu = members[0].space, members[0].lam, members[0].mu
    for m in members[1:]:
        if m.space != space or m.lam != lam or m.mu != mu:
            raise ValueError("family members must share space and (lambda, mu)")
    return EigenFamily(space, members, lam, mu)


# ---------------------------------------------------------------------------
# polynomial families

def _monomial_generator(powers) -> Callable:
    def g(vals):
        out = None
        for v, e in zip(vals, powers):
            if e:
                term = v ** e
                out = term if out is None else out * term
        return out

    return g


def _monomial_name(members, powers) -> str:
    parts = []
    for m, e in zip(members, powers):
        if e == 1:
            parts.append(m.name)
        elif e > 1:
            parts.append(f"{m.name}^{e}")
    return "*".join(parts)


def _check_homogeneous(g, nvars: int, d: int, rng: np.random.Generator):
    # P(alpha v) = alpha^d P(v) at random arguments; anything else is not a
    # degree-d homogeneous polynomial in the members.
    for _ in range(3):
        vals = tuple(complex(x, y) for x, y in
                     rng.standard_normal((nvars, 2)))
        alpha = complex(*rng.standard_normal(2))
        lhs = g(tuple(alpha * v for v in vals))
        rhs = alpha ** d * g(vals)
        if abs(lhs - rhs) > 1e-9 * max(1.0, abs(rhs)):
            raise ValueError("generator is not homogeneous of degree "
                             f"{d}: P(a v) != a^{d} P(v)")


@dataclass(frozen=True, eq=False)
class PolyMember:
    """A homogeneous polynomial in the members of a base family."""

    name: str
    space: str
    base: tuple = field(repr=False)
    generator: Callable = field(repr=False)
    lam: complex = 0.0
    mu: complex = 0.0

    def value(self, q) -> complex:
        return self.generator(tuple(m.value(q) for m in self.base))

    def as_field(self):
        # One stacked pass over the base trace forms; the generator maps
        # the tuple of base-member jets to the polynomial's jet.
        field = stack_members(self.base).as_field()
        k = len(self.base)

        def ev(jm: JetMatrix) -> Jet2:
            jb = field(jm)
            return self.generator(tuple(jb[..., i] for i in range(k)))

        return ev


def polynomial_family(F: EigenFamily, d: int, generators=None) -> EigenFamily:
    """The degree-d polynomial family over F.

    ``generators`` is an optional list of (name, callable) pairs, each
    callable mapping the tuple of member values to the polynomial value
    (it must also accept jets, i.e. use only +, -, *, **).  By default all
    degree-d monomials are enumerated, capped at MONOMIAL_CAP.  Every
    generator is probed for homogeneity and rejected if P(a v) != a^d P(v).
    """
    if not isinstance(d, int) or d < 1:
        raise ValueError("d must be a positive integer")
    k = len(F.members)
    rng = np.random.default_rng(11)
    if generators is None:
        combos = combinations_with_replacement(range(k), d)
        generators = []
        for combo in islice(combos, MONOMIAL_CAP):
            powers = [0] * k
            for i in combo:
                powers[i] += 1
            generators.append((_monomial_name(F.members, powers),
                               _monomial_generator(powers)))
    lam = d * F.lam + d * (d - 1) * F.mu
    mu = d * d * F.mu
    members = []
    for name, g in generators:
        _check_homogeneous(g, k, d, rng)
        members.append(PolyMember(name=name, space=F.space, base=F.members,
                                  generator=g, lam=lam, mu=mu))
    return EigenFamily(F.space, tuple(members), lam, mu)


# ---------------------------------------------------------------------------
# product families

@dataclass(frozen=True, eq=False)
class ProductMember:
    """phi(p1, p2) = phi1(p1) phi2(p2) on the product of two spaces."""

    f1: object
    f2: object
    name: str
    space: str
    lam: complex
    mu: complex

    def value(self, pq):
        p1, p2 = pq
        return self.f1.value(p1) * self.f2.value(p2)


def product_family(F1: EigenFamily, F2: EigenFamily) -> EigenFamily:
    lam = F1.lam + F2.lam
    mu = F1.mu + F2.mu
    space = f"{F1.space} x {F2.space}"
    members = tuple(
        ProductMember(a, b, name=f"{a.name}(x){b.name}", space=space,
                      lam=lam, mu=mu)
        for a in F1.members for b in F2.members)
    return EigenFamily(space, members, lam, mu)


def product_ops(jets, points: int):
    """(phi, tau(phi), kappa(phi, phi)) of phi1(p1) phi2(p2) from the
    factors' (value, d1, tau) over ``points`` point axes:
    tau = tau1 phi2 + phi1 tau2, and kappa the Gram product of the
    derivatives along basis1, which moves p1 only, then basis2.  The
    factors' member axes pair elementwise, so factors that stack the
    factors of a whole product family evaluate that family, and kappa
    pairs every member with every member."""
    (v1, a1, t1), (v2, a2, t2) = jets
    return jet_ops(v1 * v2, np.concatenate([a1 * v2, v1 * a2]),
                   t1 * v2 + v1 * t2, points)


def product_tension(member: ProductMember, p1, p2, basis1, basis2):
    """tau on the product over the concatenated basis."""
    jets = (field_jets(member.f1.as_field(), p1, basis1),
            field_jets(member.f2.as_field(), p2, basis2))
    return product_ops(jets, np.ndim(p1) - 2)[1]
