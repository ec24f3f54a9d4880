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
from eigenlab.claims import (DEFAULT_SIZES, _alpha_range, _form_jet,
                             _poly_ops, _product_ops, _table1_ops)
from eigenlab.jets import Jet2, JetMatrix
from eigenlab.matrices import j_matrix, membership_residual
from eigenlab.operators import field_value
from eigenlab.pairs import make_pair
from eigenlab.sampling import (SampleConfig, random_pair_point,
                               random_sphere_points)

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
    return lambda jm: (cartan_map_jet(pair, jm) @ mm.B).trace() + mm.c


def ref_eta(mm):
    return lambda jm: (jm @ mm.B).trace() + mm.c


def ref_tension(f, p, basis):
    total = 0.0 + 0.0j
    for Z in basis:
        total += f(JetMatrix.curve(p, Z)).d2
    return total


def ref_conformality(f, g, p, basis):
    total = 0.0 + 0.0j
    for Z in basis:
        jm = JetMatrix.curve(p, Z)
        total += f(jm).d1[0] * g(jm).d1[0]
    return total


def ref_ops(fields, pts, basis):
    """(values, tau, kappa) over points and members, one at a time."""
    return ([[field_value(f, p) for f in fields] for p in pts],
            [[ref_tension(f, p, basis) for f in fields] for p in pts],
            [[[ref_conformality(f, g, p, basis) for g in fields]
              for f in fields] for p in pts])


def ref_poly_ops(pair, PF, pts, basis):
    """(values, tau, kappa) of a polynomial family, one point and one
    direction at a time: the base members' jets, then every generator's."""
    base = [ref_field(pair, mm) for mm in PF.members[0].base]
    gens = [pm.generator for pm in PF.members]
    values, taus, kaps = [], [], []
    for p in pts:
        jets = [[g(js) for g in gens]
                for js in ([b(JetMatrix.curve(p, Z)) for b in base]
                           for Z in basis)]
        values.append([j.v for j in jets[0]])
        taus.append([sum(js[a].d2 for js in jets) for a in range(len(gens))])
        kaps.append([[sum(js[a].d1[0] * js[b].d1[0] for js in jets)
                      for b in range(len(gens))] for a in range(len(gens))])
    return values, taus, kaps


def ref_image_curve(pair, p, X):
    y = p @ pair.sigma(p.conj().T)
    s = pair.sigma(p)
    return JetMatrix.curve(y, s @ X @ s.conj().T)


def ref_image_ops(pair, etas, pts):
    taus, kaps = [], []
    for p in pts:
        jets = [[eta(ref_image_curve(pair, p, X)) for eta in etas]
                for X in pair.p_basis]
        taus.append([sum(js[a].d2 for js in jets) for a in range(len(etas))])
        kaps.append([[sum(js[a].d1[0] * js[b].d1[0] for js in jets)
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
    dX = cartan_map_jet(pair, JetMatrix.curve(p, X)).d1[0]
    dY = cartan_map_jet(pair, JetMatrix.curve(p, Y)).d1[0]
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


def ref_factor_jets(pair, mm, p, basis):
    """A factor's value at p and its jet along each direction of the
    basis, one direction at a time."""
    f = ref_field(pair, mm)
    return field_value(f, p), [f(JetMatrix.curve(p, Z)) for Z in basis]


def ref_product(members, p1, p2, basis, pair):
    """Direct tau of each product member and kappa of each pair of them,
    by jets of the product function along the concatenated basis: each
    factor's jets are built once per point, then paired."""
    first, second = {}, {}
    for mm in members:
        for jets, f, p in ((first, mm.f1, p1), (second, mm.f2, p2)):
            if id(f) not in jets:
                jets[id(f)] = ref_factor_jets(pair, f, p, basis)
    parts = [(first[id(mm.f1)], second[id(mm.f2)]) for mm in members]
    taus = [sum([(j1 * Jet2.constant(v2)).d2 for j1 in js1]
                + [(Jet2.constant(v1) * j2).d2 for j2 in js2])
            for (v1, js1), (v2, js2) in parts]
    kaps = [[sum([(a1.d1[0] * va2) * (b1.d1[0] * vb2)
                  for a1, b1 in zip(ja1, jb1)]
                 + [(va1 * a2.d1[0]) * (vb1 * b2.d1[0])
                    for a2, b2 in zip(ja2, jb2)])
             for (vb1, jb1), (vb2, jb2) in parts]
            for (va1, ja1), (va2, ja2) in parts]
    return taus, kaps


def ref_axis_jets(x, n):
    for k in range(n):
        for unit in (1.0, 1.0j):
            yield Jet2(x, unit * np.eye(n)[k][None], 0.0)


def ref_sphere_ops(f, g, x):
    tau = kap = 0.0 + 0.0j
    for z in ref_axis_jets(x, f.n):
        tau += f.evaluator(z).d2
        kap += f.evaluator(z).d1[0] * g.evaluator(z).d1[0]
    return tau, kap


def ref_cpn_ops(f, g, x):
    tau, kap = ref_sphere_ops(f, g, x)
    z = Jet2(x, 1j * x[None], -x)
    return (tau - f.evaluator(z).d2,
            kap - f.evaluator(z).d1[0] * g.evaluator(z).d1[0])


def ref_value(f, x):
    return f.evaluator(Jet2.constant(x)).v


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
    close(operators.conformality(f, pts, pair.ambient),
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
    values, tau, kap = operators.image_ops(pair, S, pts)
    close(values, [[mm.eta_value(p @ pair.sigma(p.conj().T)) for mm in members]
                   for p in pts])
    close(tau, taus)
    close(kap, kaps)
    close(operators.image_tension(pair, members[0], pts),
          [t[0] for t in taus])


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


def test_closed_forms_match_the_jet_route(case):
    # the closed forms against the jet route: Phi and its tension
    # (map_tension_closed) against map_tension_raw over the p- and the
    # k-basis, and the members' kappa off the p-projection (form_kappa,
    # -4 tr(P_p(s A p) s B p)) against the Gram product of their first
    # derivatives along the p-basis through cartan_map_jet, at stacked
    # points and at one point
    pair, pts, _, members = case
    fields = [ref_field(pair, mm) for mm in members]
    refs = ([p @ pair.sigma(p.conj().T) for p in pts],
            [cartan.map_tension_raw(pair, p) for p in pts])
    kappa = ref_ops(fields, pts, pair.p_basis)[2]
    stack = catalog.stack_members(members)
    closed = cartan.map_tension_closed(pair, pts)
    for g, r in zip(closed, refs):
        close(g, r)
    close(operators.form_kappa(pair, stack, pts), kappa)
    closed = cartan.map_tension_closed(pair, pts[0])
    for g, r in zip(closed, refs):
        close(g, r[0])
    close(operators.form_kappa(pair, stack, pts[0]), kappa[0])


def test_tangential_residual(case):
    # the projection split out of harmonic_residual, fed the raw tension
    # of the per-point API and the closed-form one
    pair, pts, _, _ = case
    ref = [ref_harmonic(pair, p) for p in pts]
    y = cartan.cartan_map(pair, pts)
    close(cartan.tangential_residual(pair, y,
                                     cartan.map_tension_raw(pair, pts)), ref)
    close(cartan.tangential_residual(
        pair, y, cartan.map_tension_closed(pair, pts)[1]), ref)


def test_phi_bundle(case):
    # table1's (alpha, member) grid as the sweep reads it: values and tau
    # the trace forms of Phi and of its tension, kappa scale phi psi on a
    # one-hot grid, else off the p-projection (form_kappa), against one
    # field_ops per alpha over the ambient basis
    pair, pts, _, _ = case
    blocks = [catalog.family_for_space(pair.space, m=pair.m, n=pair.n,
                                       alpha=alpha, pair=pair,
                                       rng=np.random.default_rng(3))
              for alpha in _alpha_range(pair.space, pair.m, pair.n)]
    forms = catalog.stack_members(map(catalog.stack_members, blocks))
    grid = _table1_ops(pair, forms, operators.one_hot_scale(pair, forms.plan),
                       pts, cartan.map_tension_closed(pair, pts))
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
    # the engine's closed-form polynomial ops (the base forms' entries
    # jet, _form_jet) against the generators on per-point jets along the
    # ambient basis.  The entries jet takes one-hot forms of one alpha
    # only: on the other spaces it raises, with no other route to fall
    # back to
    pair, pts, _, members = case
    closed = cartan.map_tension_closed(pair, pts)
    for d in (2, 3):
        PF = families.polynomial_family(families.base_family(members), d)
        base = catalog.stack_members(PF.members[0].base)
        if operators.one_hot_scale(pair, base.plan) is None:
            with pytest.raises(ValueError, match="not one-hot"):
                _form_jet(pair, base, closed)
            continue
        for g, r in zip(_poly_ops(PF, _form_jet(pair, base, closed)),
                        ref_poly_ops(pair, PF, pts, pair.ambient)):
            close(g, r)


def test_product_operators(case):
    pair, pts, pts2, members = case
    F = families.base_family(members)
    PF = families.product_family(F, F)
    els = pair.ambient.elements
    # the engine's closed-form product ops (the factors' entries jets,
    # _form_jet) against jets of the product function along the
    # concatenated ambient basis; as the polynomial ops, they raise on
    # forms that are not one-hot of one alpha
    factors = (catalog.stack_members(mm.f1 for mm in PF.members),
               catalog.stack_members(mm.f2 for mm in PF.members))
    args = (pair, factors, pts, cartan.map_tension_closed(pair, pts), pts2)
    if operators.one_hot_scale(pair, factors[0].plan) is None:
        with pytest.raises(ValueError, match="not one-hot"):
            _product_ops(*args)
    else:
        values, tau, kap = _product_ops(*args)
        close(values, [[mm.value((p1, p2)) for mm in PF.members]
                       for p1, p2 in zip(pts, pts2)])
        refs = [ref_product(PF.members, p1, p2, els, pair)
                for p1, p2 in zip(pts, pts2)]
        close(tau, [r[0] for r in refs])
        close(kap, [r[1] for r in refs])
    ma, mb = PF.members[0], PF.members[-1]
    refs = [ref_product((ma, mb), p1, p2, els, pair)
            for p1, p2 in zip(pts, pts2)]
    close(families.product_tension(ma, pts, pts2, els, els),
          [r[0][0] for r in refs])
    # the per-point route: the product law on the factors' fields, stacked
    # over ma and mb, pairs them in the off-diagonal entry
    factors = ([ma.f1, mb.f1], [ma.f2, mb.f2])
    jets = [operators.field_jets(catalog.stack_members(f).as_field(), p, els)
            for f, p in zip(factors, (pts, pts2))]
    close(families.product_ops(jets, 1)[2][:, 0, 1],
          [r[1][0][1] for r in refs])


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
    return random_sphere_points(n, "reference", SampleConfig(seed=41),
                                range(P))


@pytest.mark.parametrize("n", [2, 3])
def test_sphere_ops(n):
    fields = [ambient.sphere_phi(n, j) for j in range(1, n + 1)]
    xs = sphere_points(n)
    F = ambient.stack_fields(fields)
    close(F.value(xs), [[ref_value(f, x) for f in fields] for x in xs])
    _, tau, kap = ambient.sphere_ops(F, xs)
    close(tau, [[ref_sphere_ops(f, f, x)[0] for f in fields] for x in xs])
    close(kap, [[[ref_sphere_ops(f, g, x)[1] for g in fields] for f in fields]
                for x in xs])
    # two fields pair through their stack, in the off-diagonal entry
    _, tau, kap = ambient.sphere_ops(
        ambient.stack_fields([fields[0], fields[-1]]), xs)
    close(tau[:, 0], [ref_sphere_ops(fields[0], fields[-1], x)[0]
                      for x in xs])
    close(kap[:, 0, 1], [ref_sphere_ops(fields[0], fields[-1], x)[1]
                         for x in xs])


@pytest.mark.parametrize("n", [1, 2])
def test_cpn_ops(n):
    fields = [ambient.cpn_phi(n, j, k)
              for j in range(1, n + 2) for k in range(1, n + 2) if j != k]
    xs = sphere_points(n + 1)
    F = ambient.stack_fields(fields)
    close(F.value(xs), [[ref_value(f, x) for f in fields] for x in xs])
    _, tau, kap = ambient.cpn_ops(F, xs)
    close(tau, [[ref_cpn_ops(f, f, x)[0] for f in fields] for x in xs])
    close(kap, [[[ref_cpn_ops(f, g, x)[1] for g in fields] for f in fields]
                for x in xs])
    _, tau, kap = ambient.cpn_ops(
        ambient.stack_fields([fields[0], fields[-1]]), xs)
    close(tau[:, 0], [ref_cpn_ops(fields[0], fields[-1], x)[0] for x in xs])
    close(kap[:, 0, 1], [ref_cpn_ops(fields[0], fields[-1], x)[1]
                         for x in xs])
