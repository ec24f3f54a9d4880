"""Cataloged eigenfunctions: constructor validation, dual evaluation
routes, K-invariance, and values at the identity."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from eigenlab.catalog import (complex_grassmannian_psi, family_for_space,
                              isotropic_frame, make_param_matrix,
                              quat_grassmannian_psi, random_isotropic_vector,
                              random_vector, real_grassmannian_psi, so_u_psi,
                              sp_u_phi, su_so_phi, su_sp_phi,
                              table_eigenvalues)
from eigenlab.matrices import basis_Y
from eigenlab.operators import quotient_ops
from eigenlab.sampling import SampleConfig, random_pair_point


class TestParamMatrix:
    def test_symmetric_aa_by_hand(self):
        pm = make_param_matrix("symmetric-aa", a=[1.0, 2.0])
        assert_allclose(pm.A, [[1, 2], [2, 4]])
        assert abs(np.trace(pm.A) - 5) < 1e-15

    def test_symmetric_aa_rejects_zero(self):
        with pytest.raises(ValueError):
            make_param_matrix("symmetric-aa", a=[0.0, 0.0])

    def test_rank1_isotropic_accepts(self):
        pm = make_param_matrix("rank1-isotropic", a=[1.0, 1j, 0.0])
        A = pm.A
        assert_allclose(A, A.T)
        assert np.abs(A @ A).max() < 1e-14
        assert abs(np.trace(A)) < 1e-14

    def test_rank1_isotropic_rejects_non_isotropic(self):
        with pytest.raises(ValueError):
            make_param_matrix("rank1-isotropic", a=[1.0, 2.0])

    def test_skew_ab_is_Y12(self):
        pm = make_param_matrix("skew-ab", a=[1.0, 0.0], b=[0.0, 1.0])
        assert_allclose(pm.A, basis_Y(2, 1, 2))

    def test_skew_ab_rejects_dependent(self):
        a = np.array([1.0, 2.0])
        with pytest.raises(ValueError):
            make_param_matrix("skew-ab", a=a, b=3.0 * a)

    def test_unknown_tag(self):
        with pytest.raises(ValueError):
            make_param_matrix("hermitian", a=[1.0])

    def test_random_isotropic_vector(self):
        rng = np.random.default_rng(0)
        for size in (2, 3, 6):
            a = random_isotropic_vector(size, rng)
            assert abs(a @ a) < 1e-14

    def test_isotropic_frame(self):
        V = isotropic_frame(3)
        assert np.abs(V.T @ V).max() < 1e-14
        # combinations stay isotropic
        rng = np.random.default_rng(1)
        w = V @ random_vector(3, rng)
        assert abs(w @ w) < 1e-12


class TestIndexValidation:
    def test_equal_indices_rejected(self):
        with pytest.raises(ValueError):
            quat_grassmannian_psi(1, 1, j=2, alpha=2)
        with pytest.raises(ValueError):
            complex_grassmannian_psi(1, 2, j=1, alpha=1)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            quat_grassmannian_psi(1, 1, j=5, alpha=1)  # N = 4
        with pytest.raises(ValueError):
            complex_grassmannian_psi(1, 1, j=0, alpha=1)

    def test_real_grassmannian_needs_isotropic_tag(self):
        pm = make_param_matrix("symmetric-aa", a=[1.0, 2.0])
        with pytest.raises(ValueError):
            real_grassmannian_psi(1, 1, pm)

    def test_so_u_rejects_non_isotropic(self):
        with pytest.raises(ValueError):
            so_u_psi(2, a=[1, 0, 0, 0], b=[0, 1, 0, 0])

    def test_vector_length_checked(self):
        with pytest.raises(ValueError):
            su_so_phi(3, a=[1.0, 0.0])
        with pytest.raises(ValueError):
            sp_u_phi(2, a=[1.0, 0.0])


def all_members(seed=0):
    rng = np.random.default_rng(seed)
    out = []
    out += family_for_space("sp-grassmannian", m=1, n=1, rng=rng)
    out += family_for_space("u-grassmannian", m=1, n=2, rng=rng)
    out += family_for_space("so-grassmannian", m=1, n=2, rng=rng)
    out += family_for_space("su-so", n=2, rng=rng)
    out += family_for_space("sp-u", n=1, rng=rng)
    out += family_for_space("so-u", n=2, rng=rng)
    out += family_for_space("su-sp", n=2, rng=rng)
    return out


class TestDualRoutes:
    def test_value_equals_direct_value(self):
        # trace-affine route vs independent polynomial/closed form
        cfg = SampleConfig(seed=40, count=8)
        for mm in all_members():
            for i in range(8):
                q = random_pair_point(mm.pair, cfg, i)
                v1 = mm.value(q)
                v2 = mm.direct_value(q)
                assert abs(v1 - v2) <= 1e-12 * max(1, abs(v1)), mm.name

    def test_identity_values(self):
        # psi(I) = 0 off-diagonal for the index Grassmannians
        psi = quat_grassmannian_psi(1, 1, j=2, alpha=1)
        assert abs(psi.value(np.eye(4))) < 1e-15
        eta = complex_grassmannian_psi(1, 1, j=2, alpha=1)
        assert abs(eta.value(np.eye(2))) < 1e-15
        # phi_A(e) = tr(A) = a.a for the trace forms
        a = np.array([1.0, 2.0])
        phi = su_so_phi(2, a)
        assert abs(phi.value(np.eye(2)) - (a @ a)) < 1e-13
        b = np.array([1.0, 2.0, 0.5, -1.0])
        phi2 = sp_u_phi(2, b)
        assert abs(phi2.value(np.eye(4)) - (b @ b)) < 1e-12

    def test_scaling_is_quadratic(self):
        # a -> c a multiplies A = a^t a by c^2, hence phi by c^2
        cfg = SampleConfig(seed=41, count=3)
        a = np.array([1.0, 2.0 - 1j])
        c = 0.7 + 0.2j
        f1 = su_so_phi(2, a)
        f2 = su_so_phi(2, c * a, pair=f1.pair)
        for i in range(3):
            q = random_pair_point(f1.pair, cfg, i)
            assert abs(f2.value(q) - c ** 2 * f1.value(q)) < 1e-12


class TestKInvariance:
    @pytest.mark.parametrize("space,m,n", [
        ("sp-grassmannian", 1, 1), ("u-grassmannian", 1, 2),
        ("so-grassmannian", 1, 2), ("su-so", None, 2), ("sp-u", None, 1),
        ("so-u", None, 2), ("su-sp", None, 2)])
    def test_vertical_derivatives_vanish(self, space, m, n):
        rng = np.random.default_rng(7)
        members = family_for_space(space, m=m, n=n, rng=rng)
        cfg = SampleConfig(seed=42, count=5)
        for mm in members[:2]:
            f = mm.as_field()
            assert f.k_invariant
            for i in range(5):
                p = random_pair_point(mm.pair, cfg, i)
                horiz, full, _ = quotient_ops(mm.pair, f, p)
                assert abs(horiz - full) <= 1e-9 * max(1, abs(full))


class TestTableValues:
    def test_known_rows(self):
        assert table_eigenvalues("su-so", n=2) == (-4.0, -2.0)
        assert table_eigenvalues("sp-u", n=1) == (-4.0, -2.0)
        assert table_eigenvalues("so-u", n=2) == (-2.0, -1.0)
        assert table_eigenvalues("su-sp", n=2) == (-5.0, -1.0)
        assert table_eigenvalues("so-grassmannian", 1, 1) == (-2.0, -2.0)
        assert table_eigenvalues("u-grassmannian", 1, 1) == (-4.0, -2.0)
        assert table_eigenvalues("sp-grassmannian", 1, 1) == (-4.0, -1.0)

    def test_unknown_space(self):
        with pytest.raises(ValueError):
            table_eigenvalues("torus", n=2)

    @pytest.mark.parametrize("n", [2, 3])
    def test_su_sp_lambda_is_the_table_value(self, n):
        # lambda is stated with its sign, and tau(phi) / phi measures it
        rng = np.random.default_rng(n)
        f = su_sp_phi(n, random_vector(2 * n, rng), random_vector(2 * n, rng))
        assert (f.lam, f.mu) == table_eigenvalues("su-sp", n=n)
        assert f.lam < 0
        for i in range(3):
            p = random_pair_point(f.pair, SampleConfig(seed=5), i)
            tau, _, _ = quotient_ops(f.pair, f.as_field(), p)
            v = f.value(p)
            assert abs(tau - f.lam * v) <= 1e-9 * max(1, abs(v))
