"""Deterministic sampling streams and membership of sampled points."""

import hashlib

import numpy as np
import pytest
from numpy.testing import assert_allclose

from eigenlab import sampling
from eigenlab.ambient import random_sphere_point
from eigenlab.matrices import membership_residual
from eigenlab.pairs import make_pair
from eigenlab.sampling import (GENERATOR_NAME, SampleConfig,
                               random_algebra_element,
                               random_algebra_elements, random_pair_point,
                               random_pair_points, random_point,
                               random_points, random_sphere_points,
                               random_subgroup_point, random_subgroup_points,
                               rng_for)


class TestDeterminism:
    def test_bitwise_repeatable(self):
        cfg = SampleConfig(seed=3, count=10)
        for i in range(5):
            a = random_point("su", 3, cfg, i)
            b = random_point("su", 3, cfg, i)
            assert (a == b).all()  # bitwise, not just allclose

    def test_streams_independent_of_call_order(self):
        cfg = SampleConfig(seed=3, count=10)
        fwd = [random_point("so", 3, cfg, i) for i in range(4)]
        rev = [random_point("so", 3, cfg, i) for i in reversed(range(4))]
        for a, b in zip(fwd, reversed(rev)):
            assert (a == b).all()

    def test_distinct_indices_differ(self):
        cfg = SampleConfig(seed=0, count=10)
        a = random_point("u", 2, cfg, 0)
        b = random_point("u", 2, cfg, 1)
        assert np.linalg.norm(a - b) > 1e-3

    def test_seed_changes_stream(self):
        a = random_point("u", 2, SampleConfig(seed=0), 0)
        b = random_point("u", 2, SampleConfig(seed=1), 0)
        assert np.linalg.norm(a - b) > 1e-3

    def test_label_keying(self):
        # Streams are keyed by label string, so group/size changes decouple.
        r1 = rng_for("so:3", 0, 0).integers(0, 2 ** 32, 4)
        r2 = rng_for("so:3", 0, 0).integers(0, 2 ** 32, 4)
        r3 = rng_for("su:3", 0, 0).integers(0, 2 ** 32, 4)
        assert (r1 == r2).all()
        assert (r1 != r3).any()

    def test_generator_name(self):
        assert GENERATOR_NAME == "philox-4x64"

    @pytest.mark.parametrize("index", [0, 5, 2 ** 64 + 3])
    def test_stream_is_philox_keyed_by_label_and_seed(self, index):
        key = int.from_bytes(
            hashlib.sha256(b"sp:2:9").digest()[:16], "little")
        ref = np.random.Generator(np.random.Philox(key=key,
                                                   counter=index << 64))
        assert (rng_for("sp:2", 9, index).uniform(size=9)
                == ref.uniform(size=9)).all()


# P points per set; the product suite draws its second set at P..2P-1.
P = 6
INDICES = (0, 1, P - 1)


def assert_rows_are_single_draws(single, batched):
    """Row r of the batched draws over 0..P-1 and over P..2P-1 is the
    one-index draw of its index, bit for bit."""
    first, second = batched(range(P)), batched(range(P, 2 * P))
    for i in INDICES:
        assert (first[i] == single(i)).all()
    for r, i in enumerate(range(P, 2 * P)):
        assert (second[r] == single(i)).all()


class TestBatchedDraws:
    cfg = SampleConfig(seed=6)

    @pytest.mark.parametrize("space,m,n", [("sp-grassmannian", 1, 2),
                                           ("su-sp", None, 2),
                                           ("so-grassmannian", 2, 1)])
    def test_pair_and_subgroup_points(self, space, m, n):
        pair = make_pair(space, m=m, n=n)
        cfg = self.cfg
        assert_rows_are_single_draws(
            lambda i: random_pair_point(pair, cfg, i),
            lambda idx: random_pair_points(pair, cfg, idx))
        assert_rows_are_single_draws(
            lambda i: random_subgroup_point(pair, cfg, i),
            lambda idx: random_subgroup_points(pair, cfg, idx))

    @pytest.mark.parametrize("group,n", [("so", 3), ("su", 3), ("u", 2),
                                         ("sp", 2)])
    def test_group_points_and_algebra_elements(self, group, n):
        cfg = self.cfg
        assert_rows_are_single_draws(
            lambda i: random_point(group, n, cfg, i),
            lambda idx: random_points(group, n, cfg, idx))
        assert_rows_are_single_draws(
            lambda i: random_algebra_element(group, n, cfg, i),
            lambda idx: random_algebra_elements(group, n, cfg, idx))

    @pytest.mark.parametrize("label,n", [("sphere:3", 3), ("cpn:2", 3)])
    def test_sphere_and_cpn_points(self, label, n):
        cfg = self.cfg
        assert_rows_are_single_draws(
            lambda i: random_sphere_point(n, rng_for(label, cfg.seed, i)),
            lambda idx: random_sphere_points(n, label, cfg, idx))
        assert random_sphere_points(n, label, cfg, range(4)).shape == (4, n)

    def test_membership_guard_checks_every_point(self, monkeypatch):
        assert random_points("su", 3, self.cfg, range(0)).shape == (0, 3, 3)
        exp = sampling.mat_exp

        def off_group_last(Z):
            q = exp(Z)
            q[-1] *= 1.001
            return q

        monkeypatch.setattr(sampling, "mat_exp", off_group_last)
        with pytest.raises(RuntimeError, match="membership"):
            random_points("su", 3, self.cfg, range(5))


class TestMembership:
    @pytest.mark.parametrize("group,n", [("so", 3), ("su", 3), ("u", 2), ("sp", 2)])
    def test_points_on_group(self, group, n):
        cfg = SampleConfig(seed=1, count=10)
        for i in range(10):
            q = random_point(group, n, cfg, i)
            assert membership_residual(group, q) < 1e-10

    def test_algebra_elements_in_algebra(self):
        from eigenlab.bases import algebra_residual
        cfg = SampleConfig(seed=2, count=5)
        for i in range(5):
            Z = random_algebra_element("sp", 2, cfg, i)
            assert algebra_residual("sp", Z) < 1e-12

    def test_zero_radius_gives_identity(self):
        cfg = SampleConfig(seed=0, radius=0.0)
        q = random_point("su", 3, cfg, 0)
        assert_allclose(q, np.eye(3), atol=1e-15)

    def test_subgroup_points_fixed_by_sigma(self):
        pair = make_pair("u-grassmannian", m=1, n=2)
        cfg = SampleConfig(seed=4, count=5)
        for i in range(5):
            k = random_subgroup_point(pair, cfg, i)
            assert membership_residual("u", k) < 1e-10
            assert np.linalg.norm(pair.sigma(k) - k) < 1e-12

    def test_pair_points_on_ambient_group(self):
        pair = make_pair("sp-grassmannian", m=1, n=1)
        cfg = SampleConfig(seed=4, count=5)
        for i in range(5):
            q = random_pair_point(pair, cfg, i)
            assert membership_residual("sp", q) < 1e-10


class TestConfigValidation:
    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError):
            SampleConfig(seed=-1)

    def test_rejects_bad_count(self):
        with pytest.raises(ValueError):
            SampleConfig(count=0)

    def test_rejects_negative_radius(self):
        with pytest.raises(ValueError):
            SampleConfig(radius=-0.5)

    def test_defaults(self):
        cfg = SampleConfig()
        assert (cfg.seed, cfg.count, cfg.radius) == (0, 100, 1.5)
