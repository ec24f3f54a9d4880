"""Elementary matrices, the exponential, and group membership residuals."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from eigenlab.matrices import (basis_D, basis_E, basis_X, basis_Y,
                               i_signature, i_signature_doubled, j_matrix,
                               mat_exp, membership_residual, metric,
                               sparse_matmul, sparse_plan)
from eigenlab.pairs import make_pair

# The seven pairs, up to the largest size the command line accepts.
PAIRS = [("su-so", None, 3), ("sp-u", None, 2), ("so-u", None, 3),
         ("su-sp", None, 2), ("so-grassmannian", 2, 2),
         ("u-grassmannian", 2, 2), ("sp-grassmannian", 3, 3)]


def series_exp(A, terms=30):
    out = np.eye(A.shape[0], dtype=complex)
    term = np.eye(A.shape[0], dtype=complex)
    for k in range(1, terms):
        term = term @ A / k
        out = out + term
    return out


class TestElementary:
    def test_basis_E_one_based(self):
        E = basis_E(3, 1, 2)
        expect = np.zeros((3, 3))
        expect[0, 1] = 1
        assert_allclose(E, expect)

    def test_X_symmetric_Y_skew(self):
        for r, s in [(1, 2), (1, 3), (2, 3)]:
            X = basis_X(3, r, s)
            Y = basis_Y(3, r, s)
            assert_allclose(X, X.T)
            assert_allclose(Y, -Y.T)
            # normalized in the trace metric
            assert_allclose(metric(X, X), 1.0, atol=1e-15)
            assert_allclose(metric(Y, Y), 1.0, atol=1e-15)
            assert_allclose(metric(X, Y), 0.0, atol=1e-15)

    def test_D_diagonal_unit(self):
        D = basis_D(4, 2)
        assert_allclose(D, np.diag([0, 1, 0, 0]))
        assert_allclose(metric(D, D), 1.0)

    def test_metric_real_part_trace(self):
        rng = np.random.default_rng(0)
        Z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        W = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert_allclose(metric(Z, W), np.trace(Z @ W.conj().T).real)

    @pytest.mark.parametrize("zshape,wshape", [
        ((3, 3), (3, 3)), ((5, 4, 4), (5, 4, 4)), ((2, 1, 6, 6), (3, 6, 6)),
        ((12, 12), (7, 12, 12))])
    @pytest.mark.parametrize("kinds", ["complex", "real", "mixed"])
    def test_metric_matches_the_trace_of_the_product(self, zshape, wshape,
                                                     kinds):
        # metric against Re tr(Z conj(W)^t) over broadcast
        # stacks, at 1e-12 relative to max(1, |reference|), fixed beforehand
        rng = np.random.default_rng(2)
        rand = lambda shape, cplx: rng.standard_normal(shape) + (
            1j * rng.standard_normal(shape) if cplx else 0.0)
        Z = rand(zshape, kinds != "real")
        W = rand(wshape, kinds == "complex")
        ref = np.trace(Z @ np.swapaxes(W, -1, -2).conj(),
                       axis1=-2, axis2=-1).real
        got = metric(Z, W)
        assert np.shape(got) == ref.shape
        assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))


class TestExp:
    def test_matches_power_series(self):
        rng = np.random.default_rng(1)
        A = 0.3 * (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        assert_allclose(mat_exp(A), series_exp(A), atol=1e-13)

    def test_rotation_quarter_turn(self):
        Z = basis_E(2, 1, 2) - basis_E(2, 2, 1)
        R = mat_exp((np.pi / 2) * Z)
        assert_allclose(R, np.array([[0, 1], [-1, 0]], dtype=float), atol=1e-15)

    def test_exp_zero(self):
        assert_allclose(mat_exp(np.zeros((3, 3))), np.eye(3))

    def test_one_by_one(self):
        z = np.array([[0.3 - 2.0j]])
        assert mat_exp(z).shape == (1, 1)
        assert abs(mat_exp(z)[0, 0] - np.exp(0.3 - 2.0j)) <= 1e-15
        # real arguments lose digits to cancellation in the Pade
        # denominator and to squaring: 3.7e-14 relative at -40
        stack = np.array([[[-40.0]], [[1e-3j]], [[7.5]]])
        assert_allclose(mat_exp(stack)[:, 0, 0], np.exp(stack[:, 0, 0]),
                        rtol=1e-13)

    def test_real_input(self):
        # a real so(3) element: the result is the rotation, real to the bit
        Z = 2.7 * (basis_Y(3, 1, 2) - 0.4 * basis_Y(3, 2, 3)).real
        R = mat_exp(Z)
        assert not R.imag.any()
        assert (R == mat_exp(Z.astype(complex))).all()
        assert membership_residual("so", R) <= 1e-13

    def test_keeps_stack_shape_and_rejects_non_square(self):
        rng = np.random.default_rng(3)
        A = 0.5 * rng.standard_normal((2, 3, 4, 4))
        E = mat_exp(A)
        assert E.shape == A.shape
        assert (E[1, 2] == mat_exp(A[1, 2])).all()
        assert mat_exp(np.zeros((0, 3, 3))).shape == (0, 3, 3)
        with pytest.raises(ValueError):
            mat_exp(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            mat_exp(np.zeros(3))


def algebra_stacks(space, m, n):
    """Algebra elements of one pair, as sampling draws them: the ambient
    and k-basis elements scaled by 3, and random combinations of each basis
    with coefficients in [-1.5, 1.5]."""
    pair = make_pair(space, m=m, n=n)
    rng = np.random.default_rng(11)
    for basis in (pair.ambient.elements, pair.k_basis):
        coeff = rng.uniform(-1.5, 1.5, (16, len(basis)))
        yield pair.group, np.concatenate(
            [3.0 * basis, np.einsum("kb,bij->kij", coeff, basis)])


@pytest.mark.parametrize("space,m,n", PAIRS)
class TestExpOverStacks:
    def test_matches_scipy(self, space, m, n):
        expm = pytest.importorskip("scipy.linalg").expm
        for _, S in algebra_stacks(space, m, n):
            assert np.abs(mat_exp(S) - expm(S)).max() <= 1e-13

    def test_unitary_and_on_the_group(self, space, m, n):
        for group, S in algebra_stacks(space, m, n):
            E = mat_exp(S)
            eye = np.eye(E.shape[-1])
            unitary = np.abs(E @ np.swapaxes(E, -1, -2).conj() - eye)
            assert unitary.max() <= 1e-13
            assert membership_residual(group, E).max() <= 1e-13

    def test_each_matrix_as_if_alone(self, space, m, n):
        for _, S in algebra_stacks(space, m, n):
            # norms 1e-3 and 40 mix scalings s = 0 and s = 3 or more
            S = np.concatenate([S, 1e-3 * S[:4], 40.0 * S[:4]])
            E = mat_exp(S)
            for i in range(len(S)):
                assert (E[i] == mat_exp(S[i:i + 1])[0]).all()


class TestStructureMatrices:
    def test_j_matrix_square(self):
        J = j_matrix(3)
        assert_allclose(J @ J, -np.eye(6))
        assert_allclose(J.T, -J)

    def test_signatures(self):
        S = i_signature(1, 2)
        assert_allclose(S, np.diag([1, -1, -1]))
        Sd = i_signature_doubled(1, 2)
        assert_allclose(Sd, np.diag([1, -1, -1, 1, -1, -1]))


class TestMembership:
    def test_identity_in_every_group(self):
        for group, n in [("so", 3), ("su", 3), ("u", 3), ("sp", 2)]:
            size = 2 * n if group == "sp" else n
            assert membership_residual(group, np.eye(size)) < 1e-15

    def test_small_perturbation_scales(self):
        q = np.eye(3) + 1e-3 * basis_E(3, 1, 2)
        res = membership_residual("so", q)
        assert 1e-4 < res < 1e-2

    def test_su_catches_determinant(self):
        q = np.diag([1j, 1, 1]).astype(complex)
        assert membership_residual("u", q) < 1e-15
        assert membership_residual("su", q) > 0.1

    def test_sp_catches_j_violation(self):
        # unitary but not quaternionic
        q = np.diag([1j, 1, 1, 1]).astype(complex)
        assert membership_residual("sp", q) > 0.1

    def test_unknown_group_rejected(self):
        with pytest.raises((KeyError, ValueError)):
            membership_residual("sl", np.eye(2))


def test_sparse_matmul_is_the_sequential_product():
    # columns with no, one and several nonzeros, leading batch axes, a
    # complex Z against real rows, and an empty Z; each column sums its
    # nonzero terms in order from zero, as a loop over b does
    rng = np.random.default_rng(5)
    Z = rng.standard_normal((6, 7)) * (rng.random((6, 7)) < 0.4)
    Z[:, 0], Z[:, 1] = 0.0, 0.0
    Z[2, 1] = 1.5
    Z = Z + 1j * Z[::-1]
    c = rng.standard_normal((2, 3, 6))
    ref = np.zeros((2, 3, 7), dtype=complex)
    for b in range(6):
        ref += c[..., b, None] * Z[b]
    plan = sparse_plan(Z)
    assert plan.shape == (6, 7) and plan.T.shape == (7, 6)
    got = sparse_matmul(c, plan)
    assert got.dtype == ref.dtype and np.array_equal(got, ref)
    assert np.array_equal(sparse_matmul(c[1, 2], plan), ref[1, 2])
    assert_allclose(got, c @ Z, rtol=0, atol=1e-14)
    assert sparse_matmul(c[..., :0], sparse_plan(Z[:0])).shape == (2, 3, 7)
    assert not sparse_matmul(c[..., :0], sparse_plan(Z[:0])).any()
    # a plan's T gives the bits of Z^T's own plan
    d = rng.standard_normal((4, 7))
    assert sparse_matmul(d, plan.T).tobytes() == \
        sparse_matmul(d, sparse_plan(Z.T)).tobytes()


def entrywise_metric(Z, W):
    """g(Z, W) as the elementwise sum of Re Z Re W + Im Z Im W."""
    return (Z.real * W.real + Z.imag * W.imag).sum(axis=(-2, -1))


def test_metric_is_the_entrywise_sum():
    # one dot product of the real views per pair of matrices against the
    # elementwise sum, relative to the sum of |Z| |W|; on stacks,
    # broadcast stacks, single matrices, real input, non-contiguous views
    # and empty stacks (so-grassmannian(1,1) has dim k = 0)
    rng = np.random.default_rng(11)
    Z = rng.standard_normal((6, 5, 4, 4)) + 1j * rng.standard_normal((6, 5, 4, 4))
    W = rng.standard_normal((6, 5, 4, 4)) + 1j * rng.standard_normal((6, 5, 4, 4))
    cases = [(Z, W), (Z, W[0, 0]), (Z[2, 3], W[1, 4]), (Z.real, W.real),
             (Z[:, ::2].swapaxes(-1, -2), W[:, ::2, ::-1]),
             (Z[::-1, :, ::2, ::2], W[:, :, 1::2, 1::2])]
    for a, b in cases:
        ref = entrywise_metric(a, b)
        got = metric(a, b)
        assert np.shape(got) == ref.shape
        assert np.all(np.abs(got - ref)
                      <= 1e-15 * entrywise_metric(np.abs(a), np.abs(b)))
    empty = np.zeros((0, 3, 2, 2), dtype=complex)
    assert metric(empty, empty).shape == (0, 3)
    assert metric(empty, np.eye(2)).shape == (0, 3)
    assert metric(empty[:, ::2].swapaxes(-1, -2), empty[:, 1:]).shape == (0, 2)
