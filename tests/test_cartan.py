"""Cartan maps: closed forms, structural identities, harmonicity, and the
metric pullback factor."""

import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from eigenlab.cartan import (cartan_map, cartan_map_closed, cartan_map_jet,
                             harmonic_residual, map_tension_raw,
                             pullback_factor, pullback_ratio,
                             tangential_residual)
from eigenlab import cartan, jets, pairs
from eigenlab.claims import DEFAULT_SIZES, PAIR_SPACE_ORDER
from eigenlab.jets import FIRST_ORDER, JetMatrix
from eigenlab.matrices import (membership_residual, metric, real_rows,
                               sparse_matmul, sparse_plan)
from eigenlab.pairs import make_pair
from eigenlab.sampling import (SampleConfig, random_pair_point,
                               random_pair_points, random_subgroup_point)

CASES = [
    ("su-so", None, 3),
    ("sp-u", None, 2),
    ("so-u", None, 3),
    ("su-sp", None, 2),
    ("so-grassmannian", 1, 2),
    ("u-grassmannian", 1, 2),
    ("sp-grassmannian", 1, 1),
]


@pytest.fixture(params=CASES, ids=lambda c: f"{c[0]}-{c[1]}-{c[2]}")
def pair(request):
    space, m, n = request.param
    return make_pair(space, m=m, n=n)


class TestStructure:
    def test_identity_maps_to_identity(self, pair):
        N = pair.matrix_size
        assert_allclose(cartan_map(pair, np.eye(N)), np.eye(N), atol=1e-14)
        assert_allclose(pair.sigma(np.eye(N)), np.eye(N), atol=1e-14)

    def test_subgroup_collapses_to_identity(self, pair):
        cfg = SampleConfig(seed=20)
        N = pair.matrix_size
        for i in range(5):
            k = random_subgroup_point(pair, cfg, i)
            assert np.linalg.norm(cartan_map(pair, k) - np.eye(N)) < 1e-12

    def test_closed_form_matches_definition(self, pair):
        cfg = SampleConfig(seed=21)
        for i in range(10):
            p = random_pair_point(pair, cfg, i)
            a = cartan_map(pair, p)
            b = cartan_map_closed(pair, p)
            assert np.linalg.norm(a - b) < 1e-12

    def test_sigma_of_image_is_inverse(self, pair):
        cfg = SampleConfig(seed=22)
        for i in range(5):
            p = random_pair_point(pair, cfg, i)
            y = cartan_map(pair, p)
            assert np.linalg.norm(pair.sigma(y) - y.conj().T) < 1e-12

    def test_right_k_invariance(self, pair):
        cfg = SampleConfig(seed=23)
        for i in range(5):
            p = random_pair_point(pair, cfg, i)
            k = random_subgroup_point(pair, cfg, i)
            a = cartan_map(pair, p @ k)
            b = cartan_map(pair, p)
            assert np.linalg.norm(a - b) < 1e-12

    def test_image_in_group(self, pair):
        cfg = SampleConfig(seed=24)
        for i in range(5):
            p = random_pair_point(pair, cfg, i)
            assert membership_residual(pair.group, cartan_map(pair, p)) < 1e-10

    def test_rejects_non_member(self, pair):
        N = pair.matrix_size
        with pytest.raises(ValueError):
            cartan_map(pair, 2.0 * np.eye(N))

    def test_jet_value_matches_point_map(self, pair):
        cfg = SampleConfig(seed=25)
        p = random_pair_point(pair, cfg, 0)
        Z = pair.p_basis[0]
        jm = cartan_map_jet(pair, JetMatrix.curve(p, Z))
        assert_allclose(jm.v, cartan_map(pair, p), atol=1e-13)


class TestHarmonicity:
    def test_residual_small(self, pair):
        cfg = SampleConfig(seed=26)
        for i in range(10):
            p = random_pair_point(pair, cfg, i)
            assert harmonic_residual(pair, p) < 1e-9

    def test_residual_at_identity(self, pair):
        assert harmonic_residual(pair, np.eye(pair.matrix_size)) < 1e-9

    def test_raw_sum_is_not_tension(self, pair):
        # the entrywise sum keeps the second fundamental form of G in
        # matrix space; only its tangential part vanishes
        cfg = SampleConfig(seed=27)
        p = random_pair_point(pair, cfg, 0)
        raw = np.abs(map_tension_raw(pair, p)).max()
        assert raw > 1e-3

    def test_negative_control_square_map(self, pair):
        # p -> p^2 is not harmonic: run the same tangential projection for
        # it and expect a loud residual at a generic point. The second
        # derivatives are taken along one direction at a time and summed.
        cfg = SampleConfig(seed=28)
        p = np.stack([random_pair_point(pair, cfg, i) for i in range(4)])
        H = sum((j @ j).d2 for j in (JetMatrix.curve(p, Z)
                                      for Z in pair.ambient.elements))
        assert tangential_residual(pair, p @ p, H).max() > 1e-2

    def test_negative_control_square_map_laplacian(self, pair):
        # the same control on the direction-summed jet over the whole
        # ambient basis, whose bits the Cartan pass forms: its d2 is the
        # sum of the single-direction second derivatives and leaves the
        # same loud residual
        cfg = SampleConfig(seed=28)
        p = np.stack([random_pair_point(pair, cfg, i) for i in range(4)])
        jm = JetMatrix.curve(p, pair.ambient.elements)
        H = (jm @ jm).d2
        singles = sum((j @ j).d2 for j in (JetMatrix.curve(p, Z)
                                            for Z in pair.ambient.elements))
        assert np.all(np.abs(H - singles)
                      <= 1e-12 * np.maximum(1.0, np.abs(singles)))
        assert tangential_residual(pair, p @ p, H).max() > 1e-2


class TestPullback:
    def test_unit_horizontal_gives_four(self, pair):
        cfg = SampleConfig(seed=29)
        for i in range(5):
            p = random_pair_point(pair, cfg, i)
            for X in pair.p_basis[:3]:
                r = pullback_factor(pair, p, X, X)
                assert abs(r - 4.0) < 1e-8

    def test_orthogonal_directions_stay_orthogonal(self, pair):
        if pair.dim_p < 2:
            pytest.skip("needs two horizontal directions")
        cfg = SampleConfig(seed=30)
        X, Y = pair.p_basis[0], pair.p_basis[1]
        for i in range(3):
            p = random_pair_point(pair, cfg, i)
            num = pullback_factor(pair, p, X, Y)  # numerator when g(X,Y)=0
            assert abs(num) < 1e-10

    def test_laplacian_route_keeps_the_full_jet_bits(self, pair):
        # pullback_factor reads Z(Phi) from one direction-summed (forward
        # Laplacian) jet over a stack of directions; its d1 comes from the
        # same products as the jets along one direction each, bit for bit
        cfg = SampleConfig(seed=32)
        pts = np.stack([random_pair_point(pair, cfg, i) for i in range(3)])
        for basis in (pair.p_basis, pair.k_basis):
            d = np.array([cartan_map_jet(pair, JetMatrix.curve(pts, Z)).d1[0]
                          for Z in basis]).reshape((len(basis),) + pts.shape)
            assert np.array_equal(pullback_factor(pair, pts, basis, basis),
                                  pullback_ratio(metric(d, d), basis, basis))
        X, Y = pair.p_basis[0], pair.p_basis[-1]
        for p in (pts, pts[0]):
            dX, dY = (cartan_map_jet(pair, JetMatrix.curve(p, Z)).d1[0]
                      for Z in (X, Y))
            assert np.array_equal(pullback_factor(pair, p, X, Y),
                                  pullback_ratio(metric(dX, dY), X, Y))

    def test_vertical_directions_killed(self, pair):
        if pair.dim_k == 0:
            pytest.skip("no vertical directions")
        cfg = SampleConfig(seed=31)
        for i in range(3):
            p = random_pair_point(pair, cfg, i)
            X = pair.k_basis[0]
            jm = cartan_map_jet(pair, JetMatrix.curve(p, X))
            assert np.linalg.norm(jm.d1) < 1e-10


@pytest.mark.parametrize("space,m,n", [
    (space, m, n) for space in PAIR_SPACE_ORDER
    for m, n in DEFAULT_SIZES[space]])
def test_one_pass_along_p_then_k_matches_the_two_passes(space, m, n):
    # the cartan suite's one pass along the p-basis then the k-basis
    # (dim k = 0 at so-grassmannian(1,1)) carries the first derivatives
    # of a pass along each basis bit for bit, and as d2 their sum up to
    # the order of summation
    pair = make_pair(space, m=m, n=n)
    pts = random_pair_points(pair, SampleConfig(seed=33), range(32))
    jp, jk, j = (cartan_map_jet(pair, JetMatrix.curve(pts, Z)) for Z in (
        pair.p_basis, pair.k_basis,
        np.concatenate([pair.p_basis, pair.k_basis])))
    assert np.array_equal(j.d1, np.concatenate([jp.d1, jk.d1]))
    split = jp.d2 + jk.d2
    assert np.all(np.abs(j.d2 - split)
                  <= 1e-12 * np.maximum(1.0, np.abs(split)))


def einsum_tangential_residual(pair, y, H):
    """The projection tangential_residual makes, as two einsums over the
    ambient basis."""
    els = pair.ambient.elements
    coeff = np.einsum("...ij,bij->...b", np.swapaxes(y, -1, -2).conj() @ H,
                      els.conj()).real
    tangential = y @ np.einsum("...b,bij->...ij", coeff.astype(complex), els)
    return np.abs(tangential).max(axis=(-2, -1))


@pytest.mark.parametrize("space,m,n", [
    (space, m, n) for space in PAIR_SPACE_ORDER
    for m, n in DEFAULT_SIZES[space]] + [("sp-grassmannian", 3, 3)])
def test_tangential_residual_matches_the_einsum_projection(space, m, n):
    # the projection runs as sparse products on interleaved real and
    # imaginary parts; on stacked points and on one point it is the einsum
    # projection up to rounding, for Phi and the p -> p^2 control alike
    pair = make_pair(space, m=m, n=n)
    p = random_pair_points(pair, SampleConfig(seed=28), range(8))
    y = cartan_map(pair, p)
    got = tangential_residual(pair, y, map_tension_raw(pair, p))
    ref = einsum_tangential_residual(pair, y, map_tension_raw(pair, p))
    assert got.shape == (8,) and np.abs(got - ref).max() <= 1e-15
    jm = JetMatrix.curve(p, pair.ambient.elements)
    H = (jm @ jm).d2
    got = tangential_residual(pair, p @ p, H)
    ref = einsum_tangential_residual(pair, p @ p, H)
    assert np.all(np.abs(got - ref) <= 1e-15 * np.maximum(1.0, ref))
    one = tangential_residual(pair, y[0], map_tension_raw(pair, p[0]))
    ref = einsum_tangential_residual(pair, y[0], map_tension_raw(pair, p[0]))
    assert np.ndim(one) == 0 and abs(one - ref) <= 1e-15


@pytest.mark.parametrize("space,m,n", [("sp-grassmannian", 2, 2),
                                       ("su-sp", None, 2),
                                       ("so-grassmannian", 1, 2)])
def test_tangential_residual_with_the_plan_is_the_raw_product(space, m, n):
    # the pair's planned ambient basis gives the bits of sparse products
    # with plans of the raw real rows, each made on the spot
    pair = make_pair(space, m=m, n=n)
    p = random_pair_points(pair, SampleConfig(seed=3), range(5))
    y, H = cartan_map(pair, p), map_tension_raw(pair, p)
    A = np.swapaxes(y, -1, -2).conj() @ H
    F = real_rows(pair.ambient.elements)
    coeff = sparse_matmul(A.reshape(len(A), -1).view(float),
                          sparse_plan(F.T))
    ref = np.abs(y @ sparse_matmul(coeff, sparse_plan(F)).view(complex)
                 .reshape(A.shape)
                 ).max(axis=(-2, -1))
    assert np.array_equal(tangential_residual(pair, y, H), ref)


def test_harmonic_residual_on_many_stacked_points_matches_the_chunks():
    # numpy returns a fancy index over many rows F-ordered; the projection
    # gathers by np.take, so 128 stacked points (past the size where the
    # fancy index flipped the order) give the four 32-point results
    pair = make_pair("sp-grassmannian", m=3, n=3)
    pts = random_pair_points(pair, SampleConfig(seed=0), range(128))
    parts = [harmonic_residual(pair, pts[lo:lo + 32])
             for lo in range(0, 128, 32)]
    assert np.array_equal(harmonic_residual(pair, pts), np.concatenate(parts))


def test_map_tension_raw_reads_the_pairs_pk_plan(monkeypatch):
    # the per-point API is the Cartan pass along the pair's cached plans of
    # the p-, then the k-basis: the whole jet's d2 along the bare stack up
    # to the order of its sums (2e-15 of its largest entry), one point's
    # bits alone as in the stack, and no curve_plan call after make_pair
    # however often it is called
    pair = make_pair("sp-grassmannian", m=1, n=2)
    p = random_pair_points(pair, SampleConfig(seed=4), range(3))
    pk = np.concatenate([pair.p_basis, pair.k_basis])
    ref = cartan_map_jet(pair, JetMatrix.curve(p, pk)).d2
    calls = []
    plan = jets.curve_plan
    for module in (jets, pairs):
        monkeypatch.setattr(module, "curve_plan",
                            lambda Z: calls.append(len(Z)) or plan(Z))
    got = map_tension_raw(pair, p)
    assert np.abs(got - ref).max() <= 2e-15 * np.abs(ref).max()
    assert np.array_equal(map_tension_raw(pair, p[0]), got[0])
    harmonic_residual(pair, p)
    assert calls == []


def test_a_first_order_block_carries_no_second_derivatives():
    # a block of the Cartan pass is first-order: Z(Phi) of the whole jet
    # bit for bit, per direction, and the scalar zero FIRST_ORDER as d2
    pair = make_pair("sp-grassmannian", m=1, n=2)
    p = random_pair_points(pair, SampleConfig(seed=6), range(3))
    whole = cartan_map_jet(pair, JetMatrix.curve(p, pair.pk_plan))
    j = cartan_map_jet(pair, JetMatrix.curve(p, pair.pk_plan.block(2, 5)))
    assert j.d2 is FIRST_ORDER and j.d2.shape == () and j.d2 == 0
    assert j.d1.shape == (1, 3) + p.shape
    assert np.array_equal(j.d1[0], whole.d1[2:5])


@pytest.mark.parametrize("space,m,n", [("sp-grassmannian", 3, 3),
                                       ("su-so", None, 3),
                                       ("so-u", None, 2),
                                       ("u-grassmannian", 1, 2)])
def test_one_point_gives_its_bits_in_any_batch(monkeypatch, space, m, n):
    # the raw tension of a point depends on that point only: alone, in a
    # batch of 7, with two point axes, and with the cross term's slices of
    # points of one, of three (uneven) and of the whole batch
    pair = make_pair(space, m=m, n=n)
    p = random_pair_points(pair, SampleConfig(seed=7), range(8))
    terms = len(pair.cross_plan.cols) * pair.matrix_size
    alone = np.array([map_tension_raw(pair, q) for q in p])
    for step in (1, 3, 8):
        monkeypatch.setattr(cartan, "BLOCK", step * terms)
        assert np.array_equal(map_tension_raw(pair, p[:7]), alone[:7]), step
        assert np.array_equal(map_tension_raw(pair, p.reshape(
            (2, 4) + p.shape[1:])), alone.reshape((2, 4) + p.shape[1:]))


def test_pullback_factor_pairs_as_many_directions():
    # its blocks pair the directions of X and Y entry by entry, so stacks
    # of different lengths are refused at any number of points
    pair = make_pair("sp-grassmannian", m=1, n=1)
    p = random_pair_points(pair, SampleConfig(seed=8), range(2))
    with pytest.raises(ValueError, match="as many directions"):
        pullback_factor(pair, p, pair.p_basis, pair.p_basis[:1])


def test_pullback_factor_walks_once_when_y_is_x(monkeypatch):
    # with Y the very stack X, each block of directions is pushed once;
    # with an equal copy, once along X and once along Y
    pair = make_pair("sp-grassmannian", m=2, n=2)
    p = random_pair_points(pair, SampleConfig(seed=9), range(64))
    X = pair.p_basis
    calls = []
    monkeypatch.setattr(cartan, "cartan_map_jet",
                        lambda pair, jm: calls.append(1) or cartan_map_jet(
                            pair, jm))
    pullback_factor(pair, p, X, X)
    same = len(calls)
    calls.clear()
    pullback_factor(pair, p, X, X.copy())
    assert same > 1 and 2 * same == len(calls)


def test_pullback_factor_holds_less_than_one_whole_jet():
    # pullback_factor streams its directions in map_tension_raw's blocks:
    # along the p-basis at 128 stacked points of sp-grassmannian(3,3) its
    # traced peak stays below one complex (dim p, points, N, N) array,
    # 10.1 MiB (one block of all directions peaked at 41.1 MiB)
    pair = make_pair("sp-grassmannian", m=3, n=3)
    pts = random_pair_points(pair, SampleConfig(seed=0), range(128))
    B = pair.p_basis
    pullback_factor(pair, pts, B, B)
    tracemalloc.start()
    try:
        pullback_factor(pair, pts, B, B)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    whole = 16 * len(B) * len(pts) * pair.matrix_size ** 2
    assert whole == 10_616_832
    assert peak < whole


def test_harmonic_residual_holds_less_than_one_whole_jet():
    # the per-point API streams the Cartan pass too: at 128 stacked points
    # of sp-grassmannian(3,3) its traced peak stays below one complex
    # (D, points, N, N) array, 21.9 MiB
    pair = make_pair("sp-grassmannian", m=3, n=3)
    pts = random_pair_points(pair, SampleConfig(seed=0), range(128))
    harmonic_residual(pair, pts)
    tracemalloc.start()
    try:
        harmonic_residual(pair, pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    whole = 16 * (pair.dim_k + pair.dim_p) * len(pts) * pair.matrix_size ** 2
    assert whole == 23_003_136
    assert peak < whole
