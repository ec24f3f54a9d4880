"""Orthonormality, dimensions, and Casimir sums of the Lie algebra bases."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from eigenlab.bases import (algebra_residual, gram_matrix, gram_schmidt,
                            group_basis, so_basis, sp_basis, square_sum,
                            su_basis, u_basis)
from eigenlab.matrices import metric


DIMS = {
    "so": lambda n: n * (n - 1) // 2,
    "su": lambda n: n * n - 1,
    "u": lambda n: n * n,
    "sp": lambda n: n * (2 * n + 1),
}

# sum of Z^2 over an orthonormal basis, as a multiple of the identity
CASIMIR = {
    "so": lambda n: -(n - 1) / 2.0,
    "su": lambda n: -(n * n - 1.0) / n,
    "u": lambda n: -float(n),
    "sp": lambda n: -(2 * n + 1) / 2.0,
}


@pytest.mark.parametrize("group", ["so", "su", "u", "sp"])
@pytest.mark.parametrize("n", [2, 3, 4])
class TestGroupBasis:
    def test_dimension(self, group, n):
        B = group_basis(group, n)
        assert B.dim == DIMS[group](n)
        assert B.matrix_size == (2 * n if group == "sp" else n)

    def test_orthonormal(self, group, n):
        B = group_basis(group, n)
        G = gram_matrix(B)
        assert_allclose(G, np.eye(B.dim), atol=1e-14)

    def test_elements_in_algebra(self, group, n):
        B = group_basis(group, n)
        for Z in B:
            assert algebra_residual(group, Z) < 1e-14

    def test_casimir_multiple_of_identity(self, group, n):
        B = group_basis(group, n)
        S = square_sum(B)
        expect = CASIMIR[group](n) * np.eye(B.matrix_size)
        assert_allclose(S, expect, atol=1e-13)


class TestIndividualBuilders:
    def test_so3(self):
        B = so_basis(3)
        assert B.dim == 3
        for Z in B:
            assert_allclose(Z, -Z.T)
            assert_allclose(Z.imag, 0)

    def test_su2_traceless(self):
        B = su_basis(2)
        for Z in B:
            assert abs(np.trace(Z)) < 1e-14

    def test_u_contains_center(self):
        B = u_basis(2)
        # i*I lies in u(n); expand in the basis and reconstruct.
        target = 1j * np.eye(2)
        coeff = np.array([metric(target, Z) for Z in B])
        recon = np.einsum("b,bij->ij", coeff, B.elements)
        assert_allclose(recon, target, atol=1e-14)

    def test_sp_quaternionic_structure(self):
        from eigenlab.matrices import j_matrix
        B = sp_basis(2)
        J = j_matrix(2)
        for Z in B:
            assert_allclose(Z @ J, J @ Z.conj(), atol=1e-14)
            assert_allclose(Z, -Z.conj().T, atol=1e-14)

    def test_unknown_group(self):
        with pytest.raises(ValueError):
            group_basis("gl", 3)


class TestGramSchmidt:
    def test_orthonormalizes(self):
        rng = np.random.default_rng(0)
        vs = [rng.standard_normal((3, 3)) for _ in range(4)]
        out = gram_schmidt(vs)
        assert len(out) == 4
        G = gram_matrix(np.array(out))
        assert_allclose(G, np.eye(4), atol=1e-13)

    def test_drops_dependent(self):
        v = np.eye(3)
        out = gram_schmidt([v, 2.0 * v, v + 1e-14 * v])
        assert len(out) == 1

    def test_idempotent_scaling(self):
        v = np.diag([3.0, 0, 0])
        (u,) = gram_schmidt([v])
        assert_allclose(metric(u, u), 1.0)

    def test_complex_stack_in_order(self):
        # the real inner product g: i v is orthogonal to v, and is kept
        rng = np.random.default_rng(1)
        v = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        out = gram_schmidt(np.array([v, 1j * v, 2.0 * v, v + 1j * v]))
        assert out.shape == (2, 2, 2)
        assert_allclose(out[0], v / np.sqrt(metric(v, v)), atol=1e-15)
        assert_allclose(gram_matrix(out), np.eye(2), atol=1e-15)

    def test_all_dropped_keeps_matrix_shape(self):
        out = gram_schmidt(np.zeros((3, 2, 4)))
        assert out.shape == (0, 2, 4) and out.dtype == complex
