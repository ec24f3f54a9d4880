"""Cartan maps: closed forms, structural identities, harmonicity, and the
metric pullback factor."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from eigenlab.cartan import (cartan_map, cartan_map_closed, cartan_map_jet,
                             harmonic_residual, map_tension_raw,
                             pullback_factor, tangential_residual)
from eigenlab.jets import JetMatrix
from eigenlab.matrices import membership_residual
from eigenlab.pairs import make_pair
from eigenlab.sampling import (SampleConfig, random_pair_point,
                               random_subgroup_point)

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
        cfg = SampleConfig(seed=20, count=5)
        N = pair.matrix_size
        for i in range(5):
            k = random_subgroup_point(pair, cfg, i)
            assert np.linalg.norm(cartan_map(pair, k) - np.eye(N)) < 1e-12

    def test_closed_form_matches_definition(self, pair):
        cfg = SampleConfig(seed=21, count=10)
        for i in range(10):
            p = random_pair_point(pair, cfg, i)
            a = cartan_map(pair, p)
            b = cartan_map_closed(pair, p)
            assert np.linalg.norm(a - b) < 1e-12

    def test_sigma_of_image_is_inverse(self, pair):
        cfg = SampleConfig(seed=22, count=5)
        for i in range(5):
            p = random_pair_point(pair, cfg, i)
            y = cartan_map(pair, p)
            assert np.linalg.norm(pair.sigma(y) - y.conj().T) < 1e-12

    def test_right_k_invariance(self, pair):
        cfg = SampleConfig(seed=23, count=5)
        for i in range(5):
            p = random_pair_point(pair, cfg, i)
            k = random_subgroup_point(pair, cfg, i)
            a = cartan_map(pair, p @ k)
            b = cartan_map(pair, p)
            assert np.linalg.norm(a - b) < 1e-12

    def test_image_in_group(self, pair):
        cfg = SampleConfig(seed=24, count=5)
        for i in range(5):
            p = random_pair_point(pair, cfg, i)
            assert membership_residual(pair.group, cartan_map(pair, p)) < 1e-10

    def test_rejects_non_member(self, pair):
        N = pair.matrix_size
        with pytest.raises(ValueError):
            cartan_map(pair, 2.0 * np.eye(N))

    def test_jet_value_matches_point_map(self, pair):
        cfg = SampleConfig(seed=25, count=2)
        p = random_pair_point(pair, cfg, 0)
        Z = pair.p_basis[0]
        jm = cartan_map_jet(pair, JetMatrix.curve(p, Z))
        assert_allclose(jm.v, cartan_map(pair, p), atol=1e-13)


class TestHarmonicity:
    def test_residual_small(self, pair):
        cfg = SampleConfig(seed=26, count=10)
        for i in range(10):
            p = random_pair_point(pair, cfg, i)
            assert harmonic_residual(pair, p) < 1e-9

    def test_residual_at_identity(self, pair):
        assert harmonic_residual(pair, np.eye(pair.matrix_size)) < 1e-9

    def test_raw_sum_is_not_tension(self, pair):
        # the entrywise sum keeps the second fundamental form of G in
        # matrix space; only its tangential part vanishes
        cfg = SampleConfig(seed=27, count=2)
        p = random_pair_point(pair, cfg, 0)
        raw = np.abs(map_tension_raw(pair, p)).max()
        assert raw > 1e-3

    def test_negative_control_square_map(self, pair):
        # p -> p^2 is not harmonic: run the same tangential projection for
        # it and expect a loud residual at a generic point.
        cfg = SampleConfig(seed=28, count=4)
        p = np.stack([random_pair_point(pair, cfg, i) for i in range(4)])
        jm = JetMatrix.curve(p[:, None], pair.ambient.elements)
        H = (jm @ jm).d2.sum(axis=1)
        assert tangential_residual(pair, p @ p, H).max() > 1e-2


class TestPullback:
    def test_unit_horizontal_gives_four(self, pair):
        cfg = SampleConfig(seed=29, count=5)
        for i in range(5):
            p = random_pair_point(pair, cfg, i)
            for X in pair.p_basis[:3]:
                r = pullback_factor(pair, p, X, X)
                assert abs(r - 4.0) < 1e-8

    def test_orthogonal_directions_stay_orthogonal(self, pair):
        if pair.dim_p < 2:
            pytest.skip("needs two horizontal directions")
        cfg = SampleConfig(seed=30, count=3)
        X, Y = pair.p_basis[0], pair.p_basis[1]
        for i in range(3):
            p = random_pair_point(pair, cfg, i)
            num = pullback_factor(pair, p, X, Y)  # numerator when g(X,Y)=0
            assert abs(num) < 1e-10

    def test_vertical_directions_killed(self, pair):
        if pair.dim_k == 0:
            pytest.skip("no vertical directions")
        cfg = SampleConfig(seed=31, count=3)
        for i in range(3):
            p = random_pair_point(pair, cfg, i)
            X = pair.k_basis[0]
            jm = cartan_map_jet(pair, JetMatrix.curve(p, X))
            assert np.linalg.norm(jm.d1) < 1e-10
