"""Batched operators against per-point reference loops.

Each reference below is the loop over one point, one direction and one
member at a time, on scalar jets, that the batched operators replace.
Every batched operator is checked against it on a stack of points for all
seven symmetric pairs, the sphere and CP^n.  Both sides run in float64 and
differ only in the order of summation, so the tolerance is fixed at
1e-12 relative to max(1, |reference|).
"""

import numpy as np
import pytest

from eigenlab import ambient, cartan, catalog, families, operators
from eigenlab.cartan import cartan_map_jet
from eigenlab.claims import DEFAULT_SIZES, _alpha_range, _closed_ops
from eigenlab.jets import Jet2, JetMatrix
from eigenlab.matrices import j_matrix, membership_residual
from eigenlab.operators import ScalarField, field_value
from eigenlab.pairs import make_pair
from eigenlab.sampling import SampleConfig, random_pair_point

RTOL = 1e-12
P = 4

CASES = [
    ("su-so", None, 3),
    ("sp-u", None, 2),
    ("so-u", None, 3),
    ("su-sp", None, 2),
    ("so-grassmannian", 2, 1),
    ("u-grassmannian", 1, 2),
    ("sp-grassmannian", 1, 1),
]


def close(batched, ref):
    batched = np.asarray(batched)
    ref = np.asarray(ref, dtype=complex)
    assert batched.shape == ref.shape
    assert np.all(np.abs(batched - ref) <= RTOL * np.maximum(1.0, np.abs(ref)))


@pytest.fixture(params=CASES, ids=lambda c: f"{c[0]}-{c[1]}-{c[2]}")
def case(request):
    space, m, n = request.param
    pair = make_pair(space, m=m, n=n)
    cfg = SampleConfig(seed=40)
    pts = np.stack([random_pair_point(pair, cfg, i) for i in range(2 * P)])
    members = catalog.family_for_space(space, m=m, n=n, pair=pair,
                                       rng=np.random.default_rng(3))
    return pair, pts[:P], pts[P:], members


# ---------------------------------------------------------------------------
# per-point references

def ref_field(pair, mm):
    # one member: form the product Phi @ B, then take its trace
    return ScalarField(lambda jm: (cartan_map_jet(pair, jm) @ mm.B).trace()
                       + mm.c, pair.group, pair.ambient.n)


def ref_eta(mm):
    return ScalarField(lambda jm: (jm @ mm.B).trace() + mm.c, "", 0)


def ref_tension(f, p, basis):
    total = 0.0 + 0.0j
    for Z in basis:
        total += f.evaluator(JetMatrix.curve(p, Z)).d2
    return total


def ref_conformality(f, g, p, basis):
    total = 0.0 + 0.0j
    for Z in basis:
        jm = JetMatrix.curve(p, Z)
        total += f.evaluator(jm).d1 * g.evaluator(jm).d1
    return total


def ref_ops(fields, pts, basis):
    """(values, tau, kappa) over points and members, one at a time."""
    return ([[field_value(f, p) for f in fields] for p in pts],
            [[ref_tension(f, p, basis) for f in fields] for p in pts],
            [[[ref_conformality(f, g, p, basis) for g in fields]
              for f in fields] for p in pts])


def ref_image_curve(pair, p, X):
    y = p @ pair.sigma(p.conj().T)
    s = pair.sigma(p)
    return JetMatrix.curve(y, s @ X @ s.conj().T)


def ref_image_ops(pair, etas, pts):
    taus, kaps = [], []
    for p in pts:
        jets = [[eta.evaluator(ref_image_curve(pair, p, X)) for eta in etas]
                for X in pair.p_basis]
        taus.append([sum(js[a].d2 for js in jets) for a in range(len(etas))])
        kaps.append([[sum(js[a].d1 * js[b].d1 for js in jets)
                      for b in range(len(etas))] for a in range(len(etas))])
    return taus, kaps


def ref_raw(pair, p):
    return sum(cartan_map_jet(pair, JetMatrix.curve(p, Z)).d2
               for Z in pair.ambient.elements)


def ref_harmonic(pair, p):
    y = p @ pair.sigma(p.conj().T)
    els = pair.ambient.elements
    coeff = np.einsum("ij,bij->b", y.conj().T @ ref_raw(pair, p),
                      els.conj()).real
    return np.abs(y @ np.einsum("b,bij->ij", coeff, els)).max()


def ref_pullback(pair, p, X, Y):
    dX = cartan_map_jet(pair, JetMatrix.curve(p, X)).d1
    dY = cartan_map_jet(pair, JetMatrix.curve(p, Y)).d1
    den = np.trace(X @ Y.conj().T).real
    num = np.trace(dX @ dY.conj().T).real
    return num if abs(den) < 1e-12 else num / den


def ref_membership(group, q):
    fro = lambda a: float(np.sqrt((np.abs(a) ** 2).sum()))
    I = np.eye(q.shape[0])
    unitary = fro(q @ q.conj().T - I)
    det = abs(np.linalg.det(q) - 1.0)
    if group == "u":
        return unitary
    if group == "su":
        return max(unitary, det)
    if group == "so":
        return max(fro(q.imag), fro(q @ q.T - I), det)
    J = j_matrix(q.shape[0] // 2)
    return max(unitary, fro(q.T @ J @ q - J))


def ref_product(ma, mb, p1, p2, basis, pair):
    """Direct tau of ma and kappa(ma, mb) on the product, by jets of the
    product function along the concatenated basis."""
    a1, a2 = ref_field(pair, ma.f1), ref_field(pair, ma.f2)
    b1, b2 = ref_field(pair, mb.f1), ref_field(pair, mb.f2)
    tau = kap = 0.0 + 0.0j
    for Z in basis:
        jm = JetMatrix.curve(p1, Z)
        tau += (a1.evaluator(jm) * Jet2.constant(field_value(a2, p2))).d2
        kap += ((a1.evaluator(jm).d1 * field_value(a2, p2))
                * (b1.evaluator(jm).d1 * field_value(b2, p2)))
    for Z in basis:
        jm = JetMatrix.curve(p2, Z)
        tau += (Jet2.constant(field_value(a1, p1)) * a2.evaluator(jm)).d2
        kap += ((field_value(a1, p1) * a2.evaluator(jm).d1)
                * (field_value(b1, p1) * b2.evaluator(jm).d1))
    return tau, kap


def ref_axis_jets(x, n):
    for k in range(n):
        for unit in (1.0, 1.0j):
            yield tuple(Jet2(x[i], unit if i == k else 0.0, 0.0)
                        for i in range(n))


def ref_sphere_ops(f, g, x):
    tau = kap = 0.0 + 0.0j
    for zs in ref_axis_jets(x, f.n):
        tau += f.evaluator(zs).d2
        kap += f.evaluator(zs).d1 * g.evaluator(zs).d1
    return tau, kap


def ref_cpn_ops(f, g, x):
    tau, kap = ref_sphere_ops(f, g, x)
    zs = tuple(Jet2(x[i], 1j * x[i], -x[i]) for i in range(f.n))
    return tau - f.evaluator(zs).d2, kap - f.evaluator(zs).d1 * g.evaluator(zs).d1


def ref_value(f, x):
    return f.evaluator(tuple(Jet2.constant(zk) for zk in x)).v


# ---------------------------------------------------------------------------
# the seven pairs

def test_family_ops(case):
    pair, pts, _, members = case
    refs = [ref_field(pair, mm) for mm in members]
    got = operators.field_ops(catalog.stack_members(members).as_field(), pts,
                              pair.ambient)
    for g, r in zip(got, ref_ops(refs, pts, pair.ambient)):
        close(g, r)


def test_single_member_operators(case):
    pair, pts, _, members = case
    f, r = members[0].as_field(), ref_field(pair, members[0])
    close(members[0].value(pts), [field_value(r, p) for p in pts])
    close(operators.tension(f, pts, pair.p_basis),
          [ref_tension(r, p, pair.p_basis) for p in pts])
    close(operators.conformality(f, f, pts, pair.ambient),
          [ref_conformality(r, r, p, pair.ambient) for p in pts])
    horiz, full, kap = operators.quotient_ops(pair, f, pts)
    close(horiz, [ref_tension(r, p, pair.p_basis) for p in pts])
    close(full, [ref_tension(r, p, pair.ambient) for p in pts])
    close(kap, [ref_conformality(r, r, p, pair.p_basis) for p in pts])


def test_image_operators(case):
    pair, pts, _, members = case
    etas = [ref_eta(mm) for mm in members]
    taus, kaps = ref_image_ops(pair, etas, pts)
    S = catalog.stack_members(members)
    values, tau, kap = operators.image_ops(pair, S.eta_field(), pts)
    close(values, [[mm.eta_value(p @ pair.sigma(p.conj().T)) for mm in members]
                   for p in pts])
    close(tau, taus)
    close(kap, kaps)
    eta = members[0].eta_field()
    close(operators.image_tension(pair, eta, pts), [t[0] for t in taus])
    close(operators.image_conformality(pair, eta, eta, pts),
          [k[0][0] for k in kaps])


def test_cartan_operators(case):
    pair, pts, _, _ = case
    close(cartan.cartan_map(pair, pts),
          [p @ pair.sigma(p.conj().T) for p in pts])
    close(cartan.map_tension_raw(pair, pts), [ref_raw(pair, p) for p in pts])
    close(cartan.harmonic_residual(pair, pts),
          [ref_harmonic(pair, p) for p in pts])
    for basis in (pair.p_basis, pair.k_basis):
        close(cartan.pullback_factor(pair, pts, basis, basis),
              [[ref_pullback(pair, p, X, X) for X in basis] for p in pts])
    X, Y = pair.p_basis[0], pair.p_basis[-1]
    close(cartan.pullback_factor(pair, pts, X, Y),
          [ref_pullback(pair, p, X, Y) for p in pts])


def test_cartan_jets_closed(case):
    # the closed form against the jet route: Z(Phi) along the p-basis by
    # cartan_map_jet, the tension by map_tension_raw over the ambient
    # basis, at stacked points and at one point
    pair, pts, _, _ = case
    refs = ([p @ pair.sigma(p.conj().T) for p in pts],
            [[cartan_map_jet(pair, JetMatrix.curve(p, X)).d1
              for X in pair.p_basis] for p in pts],
            [cartan.map_tension_raw(pair, p) for p in pts])
    for g, r in zip(cartan.cartan_jets_closed(pair, pts), refs):
        close(g, r)
    for g, r in zip(cartan.cartan_jets_closed(pair, pts[0]), refs):
        close(g, r[0])


def test_tangential_residual(case):
    # the projection split out of harmonic_residual, fed the raw tension
    # of the per-point API and the closed-form one
    pair, pts, _, _ = case
    ref = [ref_harmonic(pair, p) for p in pts]
    y = cartan.cartan_map(pair, pts)
    close(cartan.tangential_residual(pair, y,
                                     cartan.map_tension_raw(pair, pts)), ref)
    close(cartan.tangential_residual(
        pair, y, cartan.cartan_jets_closed(pair, pts)[2]), ref)


def test_phi_bundle(case):
    # table1's (alpha, member) grid from the closed-form Phi bundle
    # (Phi, Z(Phi) on p, tension) against one field_ops per alpha over the
    # ambient basis
    pair, pts, _, _ = case
    blocks = [catalog.family_for_space(pair.space, m=pair.m, n=pair.n,
                                       alpha=alpha, pair=pair,
                                       rng=np.random.default_rng(3))
              for alpha in _alpha_range(pair.space, pair.m, pair.n)]
    grid = _closed_ops(pair, catalog.stack_members(
        map(catalog.stack_members, blocks)), pts)
    for a, members in enumerate(blocks):
        ref = operators.field_ops(catalog.stack_members(members).as_field(),
                                  pts, pair.ambient)
        for g, r in zip(grid, ref):
            close(g[:, a], r)


def test_membership_residual(case):
    pair, pts, _, _ = case
    rng = np.random.default_rng(5)
    off = pts + 0.05 * rng.standard_normal(pts.shape)
    for q in (pts, off):
        close(membership_residual(pair.group, q),
              [ref_membership(pair.group, p) for p in q])


def test_polynomial_family(case):
    pair, pts, _, members = case
    PF = families.polynomial_family(families.base_family(members), 2)
    base = [ref_field(pair, mm) for mm in members]
    refs = [ScalarField(lambda jm, g=pm.generator:
                        g(tuple(b.evaluator(jm) for b in base)), "", 0)
            for pm in PF.members]
    got = operators.field_ops(PF.as_field(), pts, pair.ambient)
    for g, r in zip(got, ref_ops(refs, pts, pair.ambient)):
        close(g, r)


def test_product_operators(case):
    pair, pts, pts2, members = case
    F = families.base_family(members)
    PF = families.product_family(F, F)
    els = pair.ambient.elements
    whole = families.ProductMember(
        catalog.stack_members(mm.f1 for mm in PF.members),
        catalog.stack_members(mm.f2 for mm in PF.members),
        name=PF.space, space=PF.space, lam=PF.lam, mu=PF.mu)
    values, tau, kap = families.product_ops(whole, pts, pts2, els, els)
    close(values, [[mm.value((p1, p2)) for mm in PF.members]
                   for p1, p2 in zip(pts, pts2)])
    close(tau, [[ref_product(mm, mm, p1, p2, els, pair)[0]
                 for mm in PF.members] for p1, p2 in zip(pts, pts2)])
    close(kap, [[[ref_product(ma, mb, p1, p2, els, pair)[1]
                  for mb in PF.members] for ma in PF.members]
                for p1, p2 in zip(pts, pts2)])
    ma, mb = PF.members[0], PF.members[-1]
    direct, decomposed = families.product_tension(ma, pts, pts2, els, els)
    ref = [ref_product(ma, ma, p1, p2, els, pair)[0]
           for p1, p2 in zip(pts, pts2)]
    close(direct, ref)
    close(decomposed, ref)
    direct, decomposed = families.product_conformality(ma, mb, pts, pts2,
                                                       els, els)
    ref = [ref_product(ma, mb, p1, p2, els, pair)[1]
           for p1, p2 in zip(pts, pts2)]
    close(direct, ref)
    close(decomposed, ref)


GRID_CASES = [(space, m, n)
              for space in ("so-grassmannian", "u-grassmannian",
                            "sp-grassmannian")
              for m, n in DEFAULT_SIZES[space]] + [("u-grassmannian", 3, 3)]


@pytest.mark.parametrize("space,m,n", GRID_CASES)
def test_alpha_member_grid(space, m, n):
    # reference: one field_ops pass per fixed-alpha family
    pair = make_pair(space, m=m, n=n)
    cfg = SampleConfig(seed=42)
    pts = np.stack([random_pair_point(pair, cfg, i) for i in range(P)])
    blocks = [catalog.family_for_space(space, m=m, n=n, alpha=alpha,
                                       pair=pair,
                                       rng=np.random.default_rng(3))
              for alpha in _alpha_range(space, m, n)]
    grid = catalog.stack_members(map(catalog.stack_members, blocks))
    values, tau, kappa = operators.field_ops(grid.as_field(), pts,
                                             pair.ambient)
    A, K = len(blocks), len(blocks[0])
    assert values.shape == tau.shape == (P, A, K)
    assert kappa.shape == (P, A, K, K)
    for a, members in enumerate(blocks):
        ref = operators.field_ops(catalog.stack_members(members).as_field(),
                                  pts, pair.ambient)
        for g, r in zip((values[:, a], tau[:, a], kappa[:, a]), ref):
            close(g, r)


# ---------------------------------------------------------------------------
# the sphere and CP^n

def sphere_points(n):
    rng = np.random.default_rng(41)
    return np.stack([ambient.random_sphere_point(n, rng) for _ in range(P)])


@pytest.mark.parametrize("n", [2, 3])
def test_sphere_ops(n):
    fields = [ambient.sphere_phi(n, j) for j in range(1, n + 1)]
    xs = sphere_points(n)
    F = ambient.stack_fields(fields)
    close(F.value(xs), [[ref_value(f, x) for f in fields] for x in xs])
    tau, kap = ambient.sphere_ops(F, xs)
    close(tau, [[ref_sphere_ops(f, f, x)[0] for f in fields] for x in xs])
    close(kap, [[[ref_sphere_ops(f, g, x)[1] for g in fields] for f in fields]
                for x in xs])
    tau, kap = ambient.sphere_ops(fields[0], xs, fields[-1])
    close(tau, [ref_sphere_ops(fields[0], fields[-1], x)[0] for x in xs])
    close(kap, [ref_sphere_ops(fields[0], fields[-1], x)[1] for x in xs])


@pytest.mark.parametrize("n", [1, 2])
def test_cpn_ops(n):
    fields = [ambient.cpn_phi(n, j, k)
              for j in range(1, n + 2) for k in range(1, n + 2) if j != k]
    xs = sphere_points(n + 1)
    F = ambient.stack_fields(fields)
    close(F.value(xs), [[ref_value(f, x) for f in fields] for x in xs])
    tau, kap = ambient.cpn_ops(F, xs)
    close(tau, [[ref_cpn_ops(f, f, x)[0] for f in fields] for x in xs])
    close(kap, [[[ref_cpn_ops(f, g, x)[1] for g in fields] for f in fields]
                for x in xs])
    tau, kap = ambient.cpn_ops(fields[0], xs, fields[-1])
    close(tau, [ref_cpn_ops(fields[0], fields[-1], x)[0] for x in xs])
    close(kap, [ref_cpn_ops(fields[0], fields[-1], x)[1] for x in xs])
