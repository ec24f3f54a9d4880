"""Sphere and projective-space eigenfunctions via ambient coordinates."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from eigenlab.ambient import (AmbientField, check_homogeneous, cpn_ops,
                              cpn_phi, rotate_field, sphere_ops, sphere_phi,
                              stack_fields)
from eigenlab.jets import Jet2
from eigenlab.sampling import SampleConfig, random_sphere_points


def sphere_points(n, seed, count):
    """``count`` points of the unit sphere in C^n, stacked."""
    return random_sphere_points(n, "ambient", SampleConfig(seed=seed),
                                range(count))


class TestFields:
    def test_sphere_phi_value(self):
        f = sphere_phi(2, 1)
        z = np.array([3.0, 4.0j])  # |z| = 5
        assert_allclose(f.value(z), 0.6, atol=1e-15)

    def test_cpn_phi_value(self):
        f = cpn_phi(1, 1, 2)
        z = np.array([1.0, 1.0j])
        assert_allclose(f.value(z), (1.0 * (-1.0j)) / 2.0, atol=1e-15)

    def test_index_validation(self):
        with pytest.raises(ValueError):
            sphere_phi(2, 3)
        with pytest.raises(ValueError):
            cpn_phi(1, 3, 1)

    def test_homogeneity_check_passes(self):
        z = sphere_points(3, 0, 1)[0]
        check_homogeneous(sphere_phi(3, 2), z)

    def test_homogeneity_check_rejects(self):
        bad = AmbientField(lambda z: z[..., 0], 2)  # degree 1
        z = sphere_points(2, 1, 1)[0]
        with pytest.raises(ValueError):
            check_homogeneous(bad, z)

    def test_cpn_ops_rejects_each_half_of_c_star_invariance(self):
        # a CP^n lift must be homogeneous of degree 0 and S^1-invariant;
        # cpn_ops checks both at once and must reject a field that fails
        # either one alone
        z = sphere_points(2, 5, 3)
        circle_only = AmbientField(lambda w: w[..., 0] * w[..., 1].conj(), 2)
        homogeneous_only = sphere_phi(2, 1)
        # circle_only is S^1-invariant, homogeneous_only homogeneous
        for theta in (0.7, 2.0, 5.1):
            assert_allclose(circle_only.value(np.exp(1j * theta) * z),
                            circle_only.value(z), rtol=0, atol=1e-12)
        check_homogeneous(homogeneous_only, z)
        for bad in (circle_only, homogeneous_only):
            with pytest.raises(ValueError, match="invariant under C"):
                cpn_ops(bad, z)
        cpn_ops(cpn_phi(1, 1, 2), z)


class TestOffSpherePolicy:
    def test_on_sphere_accepted(self):
        f = sphere_phi(2, 1)
        z = sphere_points(2, 3, 1)[0]
        sphere_ops(f, z)  # no warning, no error

    def test_near_sphere_warns_and_normalizes(self):
        f = sphere_phi(2, 1)
        z = sphere_points(2, 4, 1)[0] * (1 + 5e-7)
        with pytest.warns(UserWarning):
            _, t1, k1 = sphere_ops(f, z)
        _, t2, k2 = sphere_ops(f, z / np.linalg.norm(z))
        assert abs(t1 - t2) < 1e-12

    def test_far_from_sphere_rejected(self):
        f = sphere_phi(2, 1)
        with pytest.raises(ValueError):
            sphere_ops(f, np.array([2.0, 0.0]))


class TestSphereEigenvalues:
    @pytest.mark.parametrize("n", [2, 3])
    def test_tension(self, n):
        lam = -(2 * n - 1)
        for j in range(1, n + 1):
            f = sphere_phi(n, j)
            for z in sphere_points(n, 5, 10):
                _, tau, _ = sphere_ops(f, z)
                v = f.value(z)
                assert abs(tau - lam * v) <= 1e-8 * max(1, abs(v))

    def test_conformality(self):
        n = 2
        f, g = sphere_phi(n, 1), sphere_phi(n, 2)
        for z in sphere_points(n, 6, 10):
            kap = sphere_ops(stack_fields([f, g]), z)[2][0, 1]
            prod = f.value(z) * g.value(z)
            assert abs(kap + prod) <= 1e-8 * max(1, abs(prod))

    def test_radial_derivative_vanishes(self):
        # degree-0 extension: the radial direction contributes nothing
        n = 3
        f = sphere_phi(n, 1)
        z = sphere_points(n, 7, 1)[0]
        jet = f.evaluator(Jet2(z, z[None], 0.0))
        assert abs(jet.d1) < 1e-10
        assert abs(jet.d2) < 1e-10

    def test_rotation_invariance(self):
        # the operators commute with ambient unitary rotations
        n = 3
        rng = np.random.default_rng(8)
        f = sphere_phi(n, 2)
        U, _ = np.linalg.qr(rng.standard_normal((n, n))
                            + 1j * rng.standard_normal((n, n)))
        g = rotate_field(f, U)
        for x in sphere_points(n, 8, 5):
            assert abs(g.value(U @ x) - f.value(x)) < 1e-12
            _, t1, k1 = sphere_ops(f, x)
            _, t2, k2 = sphere_ops(g, U @ x)
            assert abs(t1 - t2) < 1e-10
            assert abs(k1 - k2) < 1e-10


class TestProjectiveEigenvalues:
    @pytest.mark.parametrize("n", [1, 2])
    def test_tension(self, n):
        lam = -4 * (n + 1)
        for j in range(1, n + 1):
            for k in range(j + 1, n + 2):
                f = cpn_phi(n, j, k)
                for z in sphere_points(n + 1, 9, 10):
                    _, tau, _ = cpn_ops(f, z)
                    v = f.value(z)
                    assert abs(tau - lam * v) <= 1e-8 * max(1, abs(v))

    def test_conformality(self):
        n = 2
        f, g = cpn_phi(n, 1, 2), cpn_phi(n, 1, 3)
        for z in sphere_points(n + 1, 10, 10):
            kap = cpn_ops(stack_fields([f, g]), z)[2][0, 1]
            prod = f.value(z) * g.value(z)
            assert abs(kap + 4 * prod) <= 1e-8 * max(1, abs(prod))

    @pytest.mark.parametrize("n", [1, 2])
    def test_ambient_laplacian_cross_check(self, n):
        # Delta_{R^{2n+2}} (z_j conj(z_k) |z|^-2) = -2(2n+2) z_j conj(z_k)
        # at |z| = 1; the full ambient Laplacian, no fiber subtraction.
        f = cpn_phi(n, 1, 2)
        for z in sphere_points(n + 1, 11, 5):
            _, tau, _ = sphere_ops(f, z)
            expect = -2 * (2 * n + 2) * (z[0] * np.conj(z[1]))
            assert abs(tau - expect) <= 1e-10 * max(1, abs(expect))


class TestConstants:
    def test_constant_field(self):
        one = AmbientField(lambda z: Jet2.constant(1.0), 2)
        z = sphere_points(2, 12, 1)[0]
        _, tau, kap = sphere_ops(one, z)
        assert tau == 0 and kap == 0
        _, tau, kap = cpn_ops(one, z)
        assert tau == 0 and kap == 0
