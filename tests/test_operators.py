"""Tension and conformality via jets: worked examples, identities, and the
finite-difference cross-check."""

import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from eigenlab import cartan
from eigenlab.bases import group_basis, square_sum
from eigenlab.cartan import cartan_map
from eigenlab.catalog import family_for_space, stack_members
from eigenlab.claims import DEFAULT_SIZES, PAIR_SPACE_ORDER
from eigenlab.jets import Jet2, JetMatrix, form_plan, jet_ops
from eigenlab.matrices import basis_Y
from eigenlab.operators import (conformality, direction_derivs, field_value,
                                finite_difference_derivs, image_ops,
                                one_hot_scale, p_projection, quotient_ops,
                                tension)
from eigenlab.pairs import make_pair
from eigenlab.sampling import (SampleConfig, random_pair_point,
                               random_pair_points, random_point)


def entry_field(group, n, i, j):
    """The coordinate function q -> q_ij (0-based indices)."""
    return lambda jm: jm[..., i, j]


def const_field(group, n, c):
    return lambda jm: Jet2.constant(c)


def stacked(*fields):
    """One field whose members are ``fields``: kappa(f, g) is the (0, 1)
    entry of its Gram matrix."""
    return lambda jm: Jet2.stack([f(jm) for f in fields])


class TestDirectionDerivs:
    def test_constant(self):
        f = const_field("so", 2, 1.0)
        d1, d2 = direction_derivs(f, np.eye(2), basis_Y(2, 1, 2))
        assert d1 == 0 and d2 == 0

    def test_so2_offdiagonal(self):
        # d/ds of exp(s Y12)_12 at s=0 is (Y12)_12 = 1/sqrt(2);
        # Y12^2 = -I/2 kills the second derivative of the 12 entry.
        f = entry_field("so", 2, 0, 1)
        d1, d2 = direction_derivs(f, np.eye(2), basis_Y(2, 1, 2))
        assert_allclose(d1, 1 / np.sqrt(2), atol=1e-15)
        assert_allclose(d2, 0, atol=1e-15)

    def test_so2_diagonal(self):
        f = entry_field("so", 2, 0, 0)
        d1, d2 = direction_derivs(f, np.eye(2), basis_Y(2, 1, 2))
        assert_allclose(d1, 0, atol=1e-15)
        assert_allclose(d2, -0.5, atol=1e-15)


class TestTension:
    def test_constant_is_harmonic(self):
        B = group_basis("su", 2)
        assert tension(const_field("su", 2, 3 + 1j), np.eye(2), B) == 0

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_so_coordinates(self, n):
        # tau(q_ij) = (q . sum Y^2)_ij = -(n-1)/2 q_ij
        B = group_basis("so", n)
        p = random_point("so", n, SampleConfig(seed=7), 0)
        for i, j in [(0, 0), (0, 1), (n - 1, n - 2)]:
            t = tension(entry_field("so", n, i, j), p, B)
            assert_allclose(t, -(n - 1) / 2 * p[i, j], atol=1e-13)

    @pytest.mark.parametrize("n", [1, 2])
    def test_sp_coordinates(self, n):
        B = group_basis("sp", n)
        p = random_point("sp", n, SampleConfig(seed=7), 0)
        t = tension(entry_field("sp", n, 0, 0), p, B)
        assert_allclose(t, -(2 * n + 1) / 2 * p[0, 0], atol=1e-13)

    def test_leibniz_identity(self):
        # tau(fg) = tau(f) g + 2 kappa(f,g) + f tau(g)
        n = 3
        B = group_basis("su", n)
        f = entry_field("su", n, 0, 1)
        g = entry_field("su", n, 2, 0)
        prod = lambda jm: jm[..., 0, 1] * jm[..., 2, 0]
        cfg = SampleConfig(seed=8)
        for i in range(5):
            p = random_point("su", n, cfg, i)
            lhs = tension(prod, p, B)
            rhs = (tension(f, p, B) * field_value(g, p)
                   + 2 * conformality(stacked(f, g), p, B)[0, 1]
                   + field_value(f, p) * tension(g, p, B))
            assert abs(lhs - rhs) <= 1e-9 * max(1, abs(rhs))


class TestConformality:
    def test_with_constant_vanishes(self):
        B = group_basis("so", 3)
        f = entry_field("so", 3, 0, 1)
        c = const_field("so", 3, 2.0)
        p = random_point("so", 3, SampleConfig(seed=9), 0)
        assert conformality(stacked(f, c), p, B)[0, 1] == 0

    def test_symmetric(self):
        B = group_basis("su", 3)
        f = entry_field("su", 3, 0, 1)
        g = entry_field("su", 3, 1, 2)
        cfg = SampleConfig(seed=10)
        for i in range(10):
            p = random_point("su", 3, cfg, i)
            k = conformality(stacked(f, g), p, B)
            assert abs(k[0, 1] - k[1, 0]) < 1e-12

    def test_so2_diagonal_square(self):
        B = group_basis("so", 2)
        f = entry_field("so", 2, 0, 0)
        k = conformality(f, np.eye(2), B)
        assert_allclose(k, 0, atol=1e-15)  # (I Y12)_11 = 0


class TestFiniteDifferenceOracle:
    @pytest.mark.parametrize("h,rtol", [(1e-4, 1e-5), (1e-5, 1e-4)])
    def test_jets_match_fd(self, h, rtol):
        n = 3
        B = group_basis("su", n)
        f = lambda jm: jm[..., 0, 1] * jm[..., 1, 2].conj()
        cfg = SampleConfig(seed=11)
        p = random_point("su", n, cfg, 0)
        for k in range(min(10, B.dim)):
            d1, d2 = direction_derivs(f, p, B[k])
            f1, f2 = finite_difference_derivs(f, p, B[k], h=h)
            assert abs(d1 - f1) <= rtol * max(1, abs(d1))
            assert abs(d2 - f2) <= rtol * max(1, abs(d2))


class TestQuotientOps:
    def test_constant(self):
        pair = make_pair("u-grassmannian", m=1, n=2)
        f = const_field("u", 3, 5.0)
        horiz, full, kap = quotient_ops(pair, f, np.eye(3))
        assert (horiz, full, kap) == (0, 0, 0)

    def test_invariant_function_agrees(self):
        # psi from the catalog is K-invariant, so vertical derivatives die.
        from eigenlab.catalog import quat_grassmannian_psi
        m, n = 1, 1
        psi = quat_grassmannian_psi(m, n, j=2, alpha=1)
        f = psi.as_field()
        cfg = SampleConfig(seed=12)
        for i in range(5):
            p = random_pair_point(psi.pair, cfg, i)
            horiz, full, kap = quotient_ops(psi.pair, f, p)
            assert abs(horiz - full) <= 1e-9 * max(1, abs(full))

    def test_noninvariant_function_detected(self):
        # q_11 on SO(m+n) is not K-invariant; needs dim k > 0 for the
        # vertical sum to be nonempty, hence (m, n) = (2, 1).
        pair = make_pair("so-grassmannian", m=2, n=1)
        f = entry_field("so", 3, 0, 0)
        cfg = SampleConfig(seed=13)
        diffs = []
        for i in range(5):
            p = random_pair_point(pair, cfg, i)
            horiz, full, _ = quotient_ops(pair, f, p)
            diffs.append(abs(horiz - full))
        assert max(diffs) > 1e-3


def w_formed_image_ops(pair, eta, p):
    """image_ops with the image directions W = s X s^H formed first, and
    the tension term as y (s C_p s^H)."""
    y = cartan_map(pair, p)
    s = pair.sigma(p)
    sH = np.swapaxes(s, -1, -2).conj()
    W = s @ pair.p_basis[:, None] @ sH  # p is a stack of points
    jm = JetMatrix(y, y @ W, y @ (s @ square_sum(pair.p_basis) @ sH))
    return jet_ops(*eta(jm).broadcast_to(y.shape[:-2], len(W)), 1)


@pytest.mark.parametrize("space,m,n", [
    (space, m, n) for space in PAIR_SPACE_ORDER
    for m, n in DEFAULT_SIZES[space]])
def test_image_ops_matches_the_w_formed_jet(space, m, n):
    # image_ops reads the derivatives off N = s^H B (y s) and never forms
    # W: the same jet up to the order of the products, relative to
    # max(1, |reference|) as every claim residual is; for the family and
    # for one member
    pair = make_pair(space, m=m, n=n)
    family = family_for_space(space, m=m, n=n, alpha=1,
                              rng=np.random.default_rng(4), pair=pair)
    p = random_pair_points(pair, SampleConfig(seed=17), range(8))
    for phi in (stack_members(family), family[0]):
        eta = lambda jm: jm.trace_form(phi.plan) + phi.c
        for got, ref in zip(image_ops(pair, phi, p),
                            w_formed_image_ops(pair, eta, p)):
            assert got.shape == ref.shape
            assert np.all(np.abs(got - ref)
                          <= 1e-13 * np.maximum(1.0, np.abs(ref)))


@pytest.mark.parametrize("space,m,n", [
    ("sp-grassmannian", 2, 2), ("su-so", None, 3), ("so-u", None, 3)])
def test_a_points_image_bits_do_not_depend_on_its_batch(monkeypatch, space,
                                                         m, n):
    # one-hot (sp-grassmannian) and dense B alike: a point's value, tau
    # and kappa are the same bits alone, in a batch, with two point axes,
    # and at slices of one point, of three and of all points
    pair = make_pair(space, m=m, n=n)
    phi = stack_members(family_for_space(
        space, m=m, n=n, alpha=1, rng=np.random.default_rng(5), pair=pair))
    p = random_pair_points(pair, SampleConfig(seed=11), range(8))
    ref = image_ops(pair, phi, p)
    entries = len(phi.B) * pair.matrix_size ** 2
    for points in (1, 3, len(p)):
        monkeypatch.setattr(cartan, "BLOCK", points * entries)
        for got, want in zip(image_ops(pair, phi, p), ref):
            assert np.array_equal(got, want)
        grid = p.reshape((2, 4) + p.shape[1:])
        for got, want in zip(image_ops(pair, phi, grid), ref):
            assert np.array_equal(got.reshape(want.shape), want)
        for k in (0, 5):
            for got, want in zip(image_ops(pair, phi, p[k]), ref):
                assert np.array_equal(got, want[k])


def test_image_ops_holds_less_than_a_quarter_of_one_curve_jet():
    # at 300 sp-grassmannian(3,3) points one (dim p, points, n, n) complex
    # array, the curve jet the image pass no longer forms, is 24,883,200
    # bytes; the pass's traced peak stays below a quarter of it
    pair = make_pair("sp-grassmannian", m=3, n=3)
    phi = stack_members(family_for_space(
        "sp-grassmannian", m=3, n=3, alpha=1, rng=np.random.default_rng(0),
        pair=pair))
    p = random_pair_points(pair, SampleConfig(seed=3), range(300))
    image_ops(pair, phi, p)
    tracemalloc.start()
    try:
        image_ops(pair, phi, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    whole = 16 * pair.dim_p * len(p) * pair.matrix_size ** 2
    assert whole == 24_883_200
    assert peak < whole / 4


@pytest.mark.parametrize("space", ["u-grassmannian", "sp-grassmannian",
                                   "su-so", "sp-u", "so-u", "su-sp",
                                   "so-grassmannian"])
def test_p_projection_keeps_p_and_drops_k(space):
    # P_p is the identity on the p-basis, zero on the k-basis and
    # idempotent, bit for bit where its products are with signed
    # permutations only; on su its trace term rounds, once
    pair = make_pair(space, m=1, n=2) if space in (
        "u-grassmannian", "sp-grassmannian", "so-grassmannian") \
        else make_pair(space, n=2)
    assert np.array_equal(p_projection(pair, pair.p_basis), pair.p_basis)
    assert not p_projection(pair, pair.k_basis).any()
    U = np.random.default_rng(6).normal(size=(2, 2) + pair.p_basis.shape[1:])
    PU = p_projection(pair, U)
    if pair.group == "su":
        assert np.abs(p_projection(pair, PU) - PU).max() <= 2.3e-16
        assert np.abs(np.trace(PU, axis1=-2, axis2=-1)).max() <= 4.5e-16
    else:
        assert np.array_equal(p_projection(pair, PU), PU)


def test_one_hot_scale_takes_one_alpha_per_row():
    # the factor is read only for one-hot forms w E_{alpha j}, j != alpha,
    # with one alpha along the last member axis: a catalog family, a stack
    # of two alphas, a form with j = alpha, a dense form or another space
    # give the jet route (None)
    pair = make_pair("u-grassmannian", m=1, n=2)
    family = stack_members(family_for_space("u-grassmannian", m=1, n=2,
                                            alpha=2, pair=pair))
    assert one_hot_scale(pair, family.plan) == -2.0
    assert family.plan.index.tolist() == [1, 7]
    # B[i, j] at flat index j n + i: 1 is E_{1,0}, 6 is E_{0,2}, 4 E_{1,1}
    for bad in ([1, 6], [1, 4]):
        assert one_hot_scale(pair, family.plan._replace(
            index=np.array(bad))) is None
    assert one_hot_scale(pair, form_plan(np.eye(3)[None])) is None
    assert one_hot_scale(make_pair("so-grassmannian", m=1, n=2),
                         family.plan) is None
