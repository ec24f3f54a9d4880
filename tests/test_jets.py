"""Truncated-Taylor arithmetic checks for scalar and matrix jets."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from eigenlab.jets import Jet2, JetMatrix, LaplacianJet, gram, trace_form
from eigenlab.pairs import make_pair


def jt(a):
    return (a.v, a.d1, a.d2)


class TestJet2:
    def test_mul_rule(self):
        a = Jet2(2, 3, 4)
        b = Jet2(5, 7, 9)
        # (ab)'' = a''b + 2a'b' + ab''
        assert jt(a * b) == (10, 29, 80)

    def test_add_sub_scalars(self):
        a = Jet2(1 + 2j, 3, 4)
        assert jt(a + 5) == (6 + 2j, 3, 4)
        assert jt(5 + a) == (6 + 2j, 3, 4)
        assert jt(a - 1j) == (1 + 1j, 3, 4)
        assert jt(2 - a) == (1 - 2j, -3, -4)

    def test_div_inverts_mul(self):
        a = Jet2(2 + 1j, 3 - 2j, 4 + 5j)
        b = Jet2(5 - 3j, 7, 9 + 1j)
        c = (a * b) / b
        assert_allclose(jt(c), jt(a), atol=1e-14)
        one = b / b
        assert_allclose(jt(one), (1, 0, 0), atol=1e-15)

    def test_sqrt_squares_back(self):
        a = Jet2(2 + 1j, 3 - 2j, 4 + 5j)
        r = a.sqrt()
        assert_allclose(jt(r * r), jt(a), atol=1e-14)

    def test_pow_matches_repeated_mul(self):
        a = Jet2(1.5 - 0.5j, 2j, -1)
        assert_allclose(jt(a ** 5), jt(a * a * a * a * a), atol=1e-12)
        assert jt(a ** 0) == (1, 0, 0)
        assert jt(a ** 1) == jt(a)

    def test_pow_rejects_bad_exponent(self):
        with pytest.raises(ValueError):
            Jet2(1) ** -1
        with pytest.raises(ValueError):
            Jet2(1) ** 0.5

    def test_conj_componentwise(self):
        # The curve parameter is real, so conjugation commutes with d/ds.
        a = Jet2(1 + 2j, 3 - 4j, -5j)
        assert jt(a.conj()) == (1 - 2j, 3 + 4j, 5j)
        b = Jet2(2 - 1j, 1j, 0.5)
        assert_allclose(jt((a * b).conj()), jt(a.conj() * b.conj()), atol=1e-15)

    def test_variable_chain(self):
        # f(s) = (x + s)^2 at s=0: value x^2, d1 = 2x, d2 = 2.
        x = 1.7 - 0.3j
        f = Jet2.variable(x) ** 2
        assert_allclose(jt(f), (x * x, 2 * x, 2), atol=1e-15)

    def test_constant_has_zero_derivs(self):
        assert jt(Jet2.constant(3 + 4j)) == (3 + 4j, 0, 0)


class TestJetMatrix:
    def rand(self, rng, shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    def test_curve_jet(self):
        rng = np.random.default_rng(3)
        p = self.rand(rng, (4, 4))
        Z = self.rand(rng, (4, 4))
        jm = JetMatrix.curve(p, Z)
        assert_allclose(jm.v, p)
        assert_allclose(jm.d1, p @ Z)
        assert_allclose(jm.d2, p @ Z @ Z)

    def test_curve_matches_expm_derivatives(self):
        # Central finite differences of s -> p expm(sZ) agree with the jet.
        expm = pytest.importorskip("scipy.linalg").expm
        rng = np.random.default_rng(4)
        p = self.rand(rng, (3, 3))
        Z = self.rand(rng, (3, 3))
        jm = JetMatrix.curve(p, Z)
        h = 1e-5
        f = lambda s: p @ expm(s * Z)
        assert_allclose((f(h) - f(-h)) / (2 * h), jm.d1, atol=1e-8)
        assert_allclose((f(h) - 2 * f(0) + f(-h)) / h ** 2, jm.d2, atol=1e-5)

    def test_matmul_product_rule(self):
        rng = np.random.default_rng(5)
        p, q = self.rand(rng, (3, 3)), self.rand(rng, (3, 3))
        Z, W = self.rand(rng, (3, 3)), self.rand(rng, (3, 3))
        a = JetMatrix.curve(p, Z)
        b = JetMatrix.curve(q, W)
        c = a @ b
        assert_allclose(c.v, p @ q)
        assert_allclose(c.d1, a.d1 @ q + p @ b.d1)
        assert_allclose(c.d2, a.d2 @ q + 2 * a.d1 @ b.d1 + p @ b.d2)

    def test_ndarray_matmul_falls_back(self):
        rng = np.random.default_rng(6)
        p, Z = self.rand(rng, (3, 3)), self.rand(rng, (3, 3))
        M = self.rand(rng, (3, 3))
        jm = JetMatrix.curve(p, Z)
        left = M @ jm
        right = jm @ M
        assert isinstance(left, JetMatrix)
        assert isinstance(right, JetMatrix)
        assert_allclose(left.d2, M @ jm.d2)
        assert_allclose(right.d2, jm.d2 @ M)

    def test_batched_directions_share_value(self):
        rng = np.random.default_rng(7)
        p = self.rand(rng, (3, 3))
        Zs = self.rand(rng, (5, 3, 3))
        jm = JetMatrix.curve(p, Zs)
        assert jm.v.shape == (3, 3)
        assert jm.d1.shape == (5, 3, 3)
        for k in range(5):
            single = JetMatrix.curve(p, Zs[k])
            assert_allclose(jm.d1[k], single.d1)
            assert_allclose(jm.d2[k], single.d2)

    def test_batched_trace_and_getitem_broadcast(self):
        # v unbatched, d1/d2 batched: reductions must broadcast first.
        rng = np.random.default_rng(8)
        p = self.rand(rng, (3, 3))
        Zs = self.rand(rng, (4, 3, 3))
        jm = JetMatrix.curve(p, Zs)
        tr = jm.trace()
        assert tr.v.shape == (4,)
        assert_allclose(tr.v, np.full(4, np.trace(p)))
        assert_allclose(tr.d2, np.trace(jm.d2, axis1=-2, axis2=-1))
        entry = jm[1]
        assert isinstance(entry, JetMatrix)
        assert_allclose(entry.v, p)
        scalar = jm[1, 0, 2]
        assert isinstance(scalar, Jet2)
        assert scalar.v == p[0, 2]

    def test_trace_unbatched_is_jet2(self):
        rng = np.random.default_rng(9)
        p, Z = self.rand(rng, (3, 3)), self.rand(rng, (3, 3))
        tr = JetMatrix.curve(p, Z).trace()
        assert isinstance(tr, Jet2)
        assert_allclose(tr.d2, np.trace(p @ Z @ Z))

    def test_transpose_conj_scalar_ops(self):
        rng = np.random.default_rng(10)
        p, Z = self.rand(rng, (3, 3)), self.rand(rng, (3, 3))
        jm = JetMatrix.curve(p, Z)
        assert_allclose(jm.T.d1, (p @ Z).T)
        assert_allclose(jm.conj().d2, (p @ Z @ Z).conj())
        assert_allclose((2j * jm).d1, 2j * jm.d1)
        assert_allclose((jm + np.eye(3)).v, p + np.eye(3))
        assert_allclose((jm + np.eye(3)).d1, jm.d1)
        assert_allclose((-jm).d2, -jm.d2)


class TestArrayJets:
    def rand(self, rng, shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    def test_elementwise_like_scalar_jets(self):
        rng = np.random.default_rng(11)
        a = Jet2(*(self.rand(rng, (4, 3)) for _ in range(3)))
        b = Jet2(self.rand(rng, (3,)), self.rand(rng, (4, 3)), 0.0)
        out = ((a * b - 2.0) / (a + 3.0)).sqrt() ** 2
        assert out.shape == (4, 3)
        for i in range(4):
            for k in range(3):
                sa = Jet2(a.v[i, k], a.d1[i, k], a.d2[i, k])
                sb = Jet2(b.v[k], b.d1[i, k], 0.0)
                ref = ((sa * sb - 2.0) / (sa + 3.0)).sqrt() ** 2
                assert_allclose(jt(out[i, k]), jt(ref), rtol=1e-13)

    def test_ndarray_operands_defer_to_jets(self):
        a = Jet2(np.ones(2), np.arange(2.0), 0.0)
        left = np.array([2.0, 3.0]) * a
        assert isinstance(left, Jet2)
        assert_allclose(left.d1, [0.0, 3.0])

    def test_stack_and_index_member_axis(self):
        a = Jet2(1.0, np.arange(3.0), 0.0)
        b = Jet2.constant(2.0)
        s = Jet2.stack([a, b])
        assert s.shape == (3, 2)
        assert_allclose(s[..., 0].d1, np.arange(3.0))
        assert_allclose(s[..., 1].v, np.full(3, 2.0))
        v, d1, d2 = b.broadcast_to((5,))
        assert v.shape == d1.shape == d2.shape == (5,)

    def test_trace_form_without_the_product(self):
        rng = np.random.default_rng(12)
        p, Zs = self.rand(rng, (2, 1, 3, 3)), self.rand(rng, (4, 3, 3))
        Bs = self.rand(rng, (5, 3, 3))
        jm = JetMatrix.curve(p, Zs)
        got = jm.trace_form(Bs)
        assert got.shape == (2, 4, 5)
        for k in range(5):
            ref = (jm @ Bs[k]).trace()
            assert_allclose(got[..., k].d2, ref.d2, rtol=1e-13)
            assert_allclose(got[..., k].v, ref.v, rtol=1e-13)

    def test_trace_form_of_a_grid(self):
        # an (A, K, n, n) grid of B gives trailing (A, K) axes
        rng = np.random.default_rng(14)
        a, Bs = self.rand(rng, (2, 4, 3, 3)), self.rand(rng, (3, 5, 3, 3))
        got = trace_form(a, Bs)
        assert got.shape == (2, 4, 3, 5)
        for i in range(3):
            assert_allclose(got[..., i, :], trace_form(a, Bs[i]), rtol=1e-13)
            for k in range(5):
                assert_allclose(got[..., i, k], trace_form(a, Bs[i, k]),
                                rtol=1e-13)
                assert_allclose(got[..., i, k],
                                np.trace(a @ Bs[i, k], axis1=-2, axis2=-1),
                                rtol=1e-13)

    def test_gram_pairs_the_last_member_axis_only(self):
        # (points, dirs, A, K): the A families pair elementwise
        rng = np.random.default_rng(15)
        a, b = self.rand(rng, (2, 6, 3, 4)), self.rand(rng, (2, 6, 3, 5))
        got = gram(a, b, 1)
        assert got.shape == (2, 3, 4, 5)
        for i in range(3):
            ref = gram(a[:, :, i], b[:, :, i], 1)
            assert ref.shape == (2, 4, 5)
            assert_allclose(got[:, i], ref, rtol=1e-13)
            assert_allclose(ref, np.einsum("pbj,pbk->pjk", a[:, :, i],
                                           b[:, :, i]), rtol=1e-13)
        flat = gram(a[..., 0, 0], b[..., 0, 0], 1)
        assert flat.shape == (2,)
        assert_allclose(flat, (a[..., 0, 0] * b[..., 0, 0]).sum(axis=1),
                        rtol=1e-13)

    def test_entry_index_gives_batched_jet2(self):
        rng = np.random.default_rng(13)
        jm = JetMatrix.curve(self.rand(rng, (3, 3)), self.rand(rng, (4, 3, 3)))
        entry = jm[..., 0, 2]
        assert isinstance(entry, Jet2)
        assert entry.shape == (4,)
        assert_allclose(entry.d1, jm.d1[:, 0, 2])


def einsum_trace_form(a, B):
    """The contraction trace_form replaces, sum_ij a_ij B_ji by einsum."""
    B = np.asarray(B)
    members = "klmn"[:B.ndim - 2]
    return np.einsum(f"...ij,{members}ji->...{members}", a, B)


class TestTraceForm:
    """trace_form is one matmul; the einsum reference differs from it only
    in the order of summation, so the tolerance is fixed at 1e-12
    relative to max(1, |reference|)."""

    RTOL = 1e-12

    def rand(self, rng, shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    def close(self, got, ref):
        assert got.shape == ref.shape
        assert np.all(np.abs(got - ref)
                      <= self.RTOL * np.maximum(1.0, np.abs(ref)))

    @pytest.mark.parametrize("lead,members", [
        ((7, 5), (4,)),          # dense stack of B
        ((3, 6), (3, 5)),        # (A, K) grid of B
        ((), (4,)),              # one (n, n) input, no leading axes
        ((2, 3), ()),            # a single B
        ((), (2, 3)),
    ])
    def test_matches_einsum(self, lead, members):
        rng = np.random.default_rng(16)
        a = self.rand(rng, lead + (4, 4))
        B = self.rand(rng, members + (4, 4))
        self.close(trace_form(a, B), einsum_trace_form(a, B))

    def test_broadcast_and_strided_inputs(self):
        rng = np.random.default_rng(17)
        a = np.broadcast_to(self.rand(rng, (3, 1, 4, 4)), (3, 5, 4, 4))
        B = self.rand(rng, (2, 6, 4, 4))
        self.close(trace_form(a, B), einsum_trace_form(a, B))
        # transposed and real-valued operands
        aT, Br = np.swapaxes(a, -1, -2), B.real[:, ::2]
        self.close(trace_form(aT, Br), einsum_trace_form(aT, Br))

    def test_single_nonzero_B_is_exact(self):
        # one nonzero entry coef at (i, j): tr(a B) = coef * a[..., j, i]
        # bit for bit, whatever order BLAS sums the zero terms in
        rng = np.random.default_rng(18)
        a = self.rand(rng, (32, 9, 6, 6))
        B = np.zeros((3, 4, 6, 6))
        coef = np.array([[0.5, -0.5, 0.25, -3.0]] * 3)
        ij = [[(k, (k + l + 1) % 6) for l in range(4)] for k in range(3)]
        for k in range(3):
            for l, (i, j) in enumerate(ij[k]):
                B[k, l, i, j] = coef[k, l]
        got = trace_form(a, B)
        for k in range(3):
            for l, (i, j) in enumerate(ij[k]):
                exact = coef[k, l] * a[..., j, i]
                assert np.array_equal(got[..., k, l], exact)


def einsum_gram(a, b, axis):
    """The contraction gram replaces: the direction axis moved next to the
    member axis and summed by einsum; without member axes, sum of a b."""
    if a.ndim == axis + 1:
        return (a * b).sum(axis=axis)
    a, b = (np.moveaxis(x, axis, -2) for x in (a, b))
    return np.einsum("...bj,...bk->...jk", a, b)


class TestGram:
    """gram is one matmul; the einsum reference differs from it only in
    the order of summation, so the tolerance is fixed at 1e-12 relative
    to max(1, |reference|)."""

    RTOL = 1e-12

    def close(self, got, ref):
        assert got.shape == ref.shape
        assert np.all(np.abs(got - ref)
                      <= self.RTOL * np.maximum(1.0, np.abs(ref)))

    @pytest.mark.parametrize("complex_", [True, False])
    @pytest.mark.parametrize("ashape,bshape,axis", [
        ((32, 36, 12), (32, 36, 11), 1),        # (points, dirs, members)
        ((32, 36, 12, 11), (32, 36, 12, 11), 1),  # (alpha, member) grid
        ((7, 9), (7, 9), 1),                    # no member axis
        ((9, 4), (9, 5), 0),                    # no leading axis
        ((2, 1, 6, 3), (1, 4, 6, 5), 2),        # broadcast leading axes
        ((3, 6, 1, 4), (3, 6, 5, 4), 1),        # broadcast member grid
    ])
    def test_matches_einsum(self, ashape, bshape, axis, complex_):
        rng = np.random.default_rng(19)
        rand = lambda shape: rng.standard_normal(shape) + (
            1j * rng.standard_normal(shape) if complex_ else 0.0)
        a, b = rand(ashape), rand(bshape)
        got = gram(a, b, axis)
        assert np.iscomplexobj(got) == complex_
        self.close(got, einsum_gram(a, b, axis))


class TestLaplacianJet:
    """LaplacianJet against the full per-direction JetMatrix on random
    general (non-unitary) matrices.  d1 comes from the same products, so
    it must agree bit for bit; d2 is the full jet's d2 summed over the
    directions in another order, so it agrees to 1e-12 relative to
    max(1, |reference|)."""

    RTOL = 1e-12

    def rand(self, rng, shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    def close(self, got, ref):
        assert got.shape == ref.shape
        assert np.all(np.abs(got - ref)
                      <= self.RTOL * np.maximum(1.0, np.abs(ref)))

    def pair(self, rng, lead=(3, 1), dirs=(5,), n=4):
        # the Laplacian and the full jets of two curves along the same
        # directions; the points keep a direction axis of length 1
        p, q = self.rand(rng, lead + (n, n)), self.rand(rng, lead + (n, n))
        Z, W = self.rand(rng, dirs + (n, n)), self.rand(rng, dirs + (n, n))
        return ((LaplacianJet.curve(p, Z), LaplacianJet.curve(q, W)),
                (JetMatrix.curve(p, Z), JetMatrix.curve(q, W)))

    def agrees(self, lap, full):
        assert type(lap) is LaplacianJet
        assert np.array_equal(np.broadcast_to(lap.v, full.v.shape), full.v)
        assert np.array_equal(lap.d1, full.d1)
        self.close(lap.d2, full.d2.sum(axis=-3, keepdims=True))

    def test_curve(self):
        rng = np.random.default_rng(20)
        (a, _), (A, _) = self.pair(rng)
        assert a.v.shape == a.d2.shape == (3, 1, 4, 4)
        assert a.d1.shape == (3, 5, 4, 4)
        self.agrees(a, A)

    def test_product_rule_summed_over_directions(self):
        rng = np.random.default_rng(21)
        (a, b), (A, B) = self.pair(rng)
        self.agrees(a @ b, A @ B)
        self.agrees(a @ b @ a, A @ B @ A)

    def test_broadcast_leading_axes(self):
        # points (2, 1, 1) against point-dependent directions (3, dirs)
        rng = np.random.default_rng(22)
        (a, b), (A, B) = self.pair(rng, lead=(2, 1, 1), dirs=(3, 6))
        assert (a @ b).d2.shape == (2, 3, 1, 4, 4)
        self.agrees(a @ b, A @ B)
        # one point (n, n) with no direction axis
        p, Z = self.rand(rng, (4, 4)), self.rand(rng, (6, 4, 4))
        a, A = LaplacianJet.curve(p, Z), JetMatrix.curve(p, Z)
        self.agrees(a @ a, A @ A)

    def test_empty_direction_stack(self):
        # dim k = 0 (so-grassmannian(1, 1)): no directions, zero Laplacian
        rng = np.random.default_rng(23)
        (a, b), (A, B) = self.pair(rng, dirs=(0,))
        c = a @ b
        assert c.d1.shape == (3, 0, 4, 4)
        assert c.d2.shape == (3, 1, 4, 4) and not np.any(c.d2)
        self.agrees(c, A @ B)

    def test_linear_operations_agree_with_the_full_jet(self):
        rng = np.random.default_rng(24)
        (a, b), (A, B) = self.pair(rng)
        M = self.rand(rng, (4, 4))
        for lap, full in [(a + b, A + B), (a - b, A - B), (-a, -A),
                          (a + M, A + M), (M - a, M - A),
                          (2j * a, 2j * A), (a * 0.5, A * 0.5),
                          (a * M, A * M), (a / 3.0, A / 3.0),
                          (a.conj(), A.conj()), (a.T, A.T),
                          (a @ M, A @ M), (M @ a, M @ A)]:
            self.agrees(lap, full)
        Bs = self.rand(rng, (2, 3, 4, 4))
        for lap, full in [(a.trace(), A.trace()),
                          (a.trace_form(Bs), A.trace_form(Bs))]:
            assert type(lap) is LaplacianJet
            assert np.array_equal(lap.d1, full.d1)
            assert lap.v.shape == lap.d2.shape
            self.close(np.broadcast_to(lap.v, full.v.shape), full.v)
            self.close(lap.d2, full.d2.sum(axis=1, keepdims=True))
        entry, ref = a[..., 1, 2], A[..., 1, 2]
        assert np.array_equal(entry.d1, ref.d1)
        self.close(entry.d2, ref.d2.sum(axis=1, keepdims=True))

    def test_involution_keeps_the_type(self):
        pair = make_pair("sp-grassmannian", m=1, n=1)
        rng = np.random.default_rng(25)
        (a, _), (A, _) = self.pair(rng)
        for f in (pair.sigma, pair.sigma.inverse):
            self.agrees(f(a), f(A))

    def test_nonlinear_operations_raise(self):
        # the direction sum makes the elementwise Leibniz rule wrong for
        # these: they must raise, not return wrong numbers
        rng = np.random.default_rng(26)
        (a, b), (A, _) = self.pair(rng)
        t = a.trace()
        for op in (lambda: a * b, lambda: a / b, lambda: 2.0 / a,
                   lambda: a ** 2, lambda: a ** 1, lambda: a.sqrt(),
                   lambda: t * t, lambda: t / t, lambda: t.sqrt(),
                   lambda: a * Jet2.constant(2.0),
                   lambda: Jet2.constant(2.0) * a,
                   lambda: a @ A, lambda: A @ a, lambda: a + A,
                   lambda: A - a, lambda: a.trace() + A.trace()):
            with pytest.raises(TypeError):
                op()
