"""Truncated-Taylor arithmetic checks for scalar and matrix jets along
bundles of curve directions."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from eigenlab.cartan import cartan_map_jet
from eigenlab.jets import (FIRST_ORDER, Jet2, JetMatrix, curve_plan,
                           form_plan, gram, trace_form)
from eigenlab.matrices import mat_exp
from eigenlab.pairs import make_pair
from eigenlab.sampling import SampleConfig, random_pair_points


def jt(a):
    """(value, first derivative, second derivative) of a jet along one
    direction."""
    return (a.v, a.d1[0], a.d2)


def rand(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class Bundles:
    """A jet along D directions against the D jets along one direction
    each.  d1 is computed by the same operations either way, so it must
    agree bit for bit with the single-direction d1 stacked on the leading
    axis; d2 is the sum over the directions, taken inside the product
    rules instead of after them, so it agrees with the sum of the
    single-direction d2 to 1e-12 relative to max(1, |reference|)."""

    RTOL = 1e-12

    def close(self, got, ref):
        assert got.shape == ref.shape
        assert np.all(np.abs(got - ref)
                      <= self.RTOL * np.maximum(1.0, np.abs(ref)))

    def agrees(self, bundle, singles):
        """``singles`` are the same expression along each direction."""
        assert type(bundle) is type(singles[0])
        assert np.array_equal(bundle.d1,
                              np.concatenate([s.d1 for s in singles]))
        self.close(np.broadcast_to(bundle.v, bundle.shape),
                   np.broadcast_to(singles[0].v, bundle.shape))
        self.close(np.broadcast_to(bundle.d2, bundle.shape),
                   np.broadcast_to(sum(s.d2 for s in singles), bundle.shape))


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
        f = Jet2(x, 1.0) ** 2
        assert_allclose(jt(f), (x * x, 2 * x, 2), atol=1e-15)

    def test_constant_has_zero_derivs(self):
        assert jt(Jet2.constant(3 + 4j)) == (3 + 4j, 0, 0)


class TestScalarBundles(Bundles):
    """The nonlinear scalar rules, whose cross terms contract over the
    directions, on random complex jets along D = 5 directions with a
    batch of 3."""

    D = 5

    def jets(self, rng):
        # a bundle and its D single-direction jets: the bundle's d2 is the
        # sum of theirs
        v, d1, d2 = (rand(rng, shape) for shape in
                     ((3,), (self.D, 3), (self.D, 3)))
        return Jet2(v, d1, d2.sum(axis=0)), [
            Jet2(v, d1[k:k + 1], d2[k]) for k in range(self.D)]

    @pytest.mark.parametrize("op", [
        lambda a, b: a * b,
        lambda a, b: a / b,
        lambda a, b: a ** 3,
        lambda a, b: (a * b + 2.0).sqrt(),
        lambda a, b: a.conj() * b,
        lambda a, b: (a - b) / (a + b) ** 2,
    ], ids=["mul", "div", "pow", "sqrt", "conj", "mixed"])
    def test_rules_sum_over_directions(self, op):
        rng = np.random.default_rng(30)
        (a, a1), (b, b1) = self.jets(rng), self.jets(rng)
        self.agrees(op(a, b), [op(x, y) for x, y in zip(a1, b1)])

    @pytest.mark.parametrize("op", [
        lambda a, c: a * c,
        lambda a, c: c * a,
        lambda a, c: c / a,
        lambda a, c: a / c + c,
        lambda a, c: (c - a) * (a + c),
        lambda a, c: Jet2.stack([a, c * a, Jet2(1.0) * c]),
    ], ids=["mul", "rmul", "rdiv", "div-add", "product", "stack"])
    @pytest.mark.parametrize("const", [2.5 - 1j, np.array([1.0, -2.0, 3j])],
                             ids=["number", "array"])
    def test_constants_mix_with_bundles(self, op, const):
        rng = np.random.default_rng(31)
        a, singles = self.jets(rng)
        for c in (const, Jet2.constant(const)):
            self.agrees(op(a, c), [op(s, c) for s in singles])

    @pytest.mark.parametrize("const", [2.5 - 1j, np.array([1.0, -2.0, 3j])],
                             ids=["number", "array"])
    def test_adding_a_constant_moves_the_value_only(self, const):
        # j + c and j - c keep j's derivative arrays and c - j negates
        # them, with the parts of the full addition of the constant jet
        rng = np.random.default_rng(32)
        a, _ = self.jets(rng)
        c = Jet2.constant(const)
        for j in (a + const, const + a, a - const):
            assert j.d1 is a.d1 and j.d2 is a.d2
        assert np.array_equal((const - a).d1, -a.d1)
        assert np.array_equal((const - a).d2, -a.d2)
        for got, ref in ((a + const, a + c), (const + a, c + a),
                         (a - const, a - c), (const - a, c - a)):
            for g, r in zip(got.broadcast_to(ref.shape, self.D),
                            ref.broadcast_to(ref.shape, self.D)):
                assert np.array_equal(g, r)

    def test_constants_have_no_direction_of_their_own(self):
        c = Jet2.constant(np.arange(3.0))
        assert c.shape == (3,) and c.d1.shape == (1, 1)
        v, d1, d2 = (c * c).broadcast_to((), 4)
        assert d1.shape == (4, 3) and not np.any(d1) and not np.any(d2)


class TestJetMatrix(Bundles):
    def test_curve_jet(self):
        rng = np.random.default_rng(3)
        p = rand(rng, (4, 4))
        Z = rand(rng, (4, 4))
        jm = JetMatrix.curve(p, Z)
        assert jm.d1.shape == (1, 4, 4)
        assert_allclose(jm.v, p)
        assert_allclose(jm.d1[0], p @ Z)
        assert_allclose(jm.d2, p @ Z @ Z)

    def test_curve_matches_expm_derivatives(self):
        # Central finite differences of s -> p expm(sZ) agree with the jet.
        rng = np.random.default_rng(4)
        p = rand(rng, (3, 3))
        Z = rand(rng, (3, 3))
        jm = JetMatrix.curve(p, Z)
        h = 1e-5
        f = lambda s: p @ mat_exp(s * Z)
        assert_allclose((f(h) - f(-h)) / (2 * h), jm.d1[0], atol=1e-8)
        assert_allclose((f(h) - 2 * f(0) + f(-h)) / h ** 2, jm.d2, atol=1e-5)

    def test_matmul_product_rule(self):
        rng = np.random.default_rng(5)
        p, q = rand(rng, (3, 3)), rand(rng, (3, 3))
        Z, W = rand(rng, (3, 3)), rand(rng, (3, 3))
        a = JetMatrix.curve(p, Z)
        b = JetMatrix.curve(q, W)
        c = a @ b
        assert_allclose(c.v, p @ q)
        assert_allclose(c.d1, a.d1 @ q + p @ b.d1)
        assert_allclose(c.d2, a.d2 @ q + 2 * a.d1[0] @ b.d1[0] + p @ b.d2)

    def test_first_order_products_carry_d1_only(self):
        # a product with a first-order factor is first-order: the full
        # jets' first derivatives, bit for bit, and FIRST_ORDER as d2; a
        # jet whose scalar d2 is any other zero, a straight line, keeps
        # its cross term
        rng = np.random.default_rng(9)
        p, q = rand(rng, (2, 3, 3)), rand(rng, (2, 3, 3))
        Z, W = (curve_plan(rand(rng, (4, 3, 3))) for _ in range(2))
        full = JetMatrix.curve(p, Z) @ JetMatrix.curve(q, W)
        a, b = JetMatrix.curve(p, Z.block()), JetMatrix.curve(q, W.block())
        for c in (a @ b, a * b, a * JetMatrix.curve(q, W), 2.0 * a):
            assert c.d2 is FIRST_ORDER and c.shape == (4, 2, 3, 3)
        assert np.array_equal((a @ b).d1[0], full.d1)
        assert np.array_equal((a * b).d1[0], (JetMatrix.curve(p, Z)
                                              * JetMatrix.curve(q, W)).d1)
        line = Jet2(rand(rng, (3,)), 1.0, 0.0)
        assert_allclose((line * line).d2, np.full(3, 2.0))

    def test_ndarray_matmul_falls_back(self):
        rng = np.random.default_rng(6)
        p, Z = rand(rng, (3, 3)), rand(rng, (3, 3))
        M = rand(rng, (3, 3))
        jm = JetMatrix.curve(p, Z)
        left = M @ jm
        right = jm @ M
        assert isinstance(left, JetMatrix)
        assert isinstance(right, JetMatrix)
        assert_allclose(left.d2, M @ jm.d2)
        assert_allclose(right.d2, jm.d2 @ M)

    def test_batched_directions_share_value(self):
        rng = np.random.default_rng(7)
        p = rand(rng, (3, 3))
        Zs = rand(rng, (5, 3, 3))
        jm = JetMatrix.curve(p, Zs)
        assert jm.v.shape == jm.d2.shape == (3, 3)
        assert jm.d1.shape == (5, 3, 3)
        singles = [JetMatrix.curve(p, Zs[k]) for k in range(5)]
        for k in range(5):
            assert_allclose(jm.d1[k], singles[k].d1[0])
        assert_allclose(jm.d2, sum(s.d2 for s in singles))

    def test_batched_trace_and_getitem_broadcast(self):
        # v unbatched over the directions: reductions and indexing act on
        # the batch axes and keep the direction axis of d1
        rng = np.random.default_rng(8)
        p = rand(rng, (2, 3, 3))
        Zs = rand(rng, (4, 3, 3))
        jm = JetMatrix.curve(p, Zs)
        tr = jm.trace()
        assert tr.v.shape == tr.d2.shape == (2,)
        assert tr.d1.shape == (4, 2)
        assert_allclose(tr.v, np.trace(p, axis1=-2, axis2=-1))
        assert_allclose(tr.d2, np.trace(jm.d2, axis1=-2, axis2=-1))
        entry = jm[1]
        assert isinstance(entry, JetMatrix)
        assert_allclose(entry.v, p[1])
        assert_allclose(entry.d1, jm.d1[:, 1])
        scalar = jm[1, 0, 2]
        assert isinstance(scalar, Jet2)
        assert scalar.v == p[1, 0, 2]
        assert_allclose(scalar.d1, jm.d1[:, 1, 0, 2])

    def test_trace_unbatched_is_jet2(self):
        rng = np.random.default_rng(9)
        p, Z = rand(rng, (3, 3)), rand(rng, (3, 3))
        tr = JetMatrix.curve(p, Z).trace()
        assert isinstance(tr, Jet2)
        assert_allclose(tr.d2, np.trace(p @ Z @ Z))

    def test_transpose_conj_scalar_ops(self):
        rng = np.random.default_rng(10)
        p, Z = rand(rng, (3, 3)), rand(rng, (3, 3))
        jm = JetMatrix.curve(p, Z)
        assert_allclose(jm.T.d1[0], (p @ Z).T)
        assert_allclose(jm.conj().d2, (p @ Z @ Z).conj())
        assert_allclose((2j * jm).d1, 2j * jm.d1)
        assert_allclose((jm + np.eye(3)).v, p + np.eye(3))
        assert_allclose((jm + np.eye(3)).d1, jm.d1)
        assert_allclose((-jm).d2, -jm.d2)

    # the direction bundle against one direction per jet, on random
    # general (non-unitary) matrices

    def pair(self, rng, lead=(3,), dirs=5, n=4):
        # the jets of two curves along the same D directions, and along
        # each direction alone
        p, q = rand(rng, lead + (n, n)), rand(rng, lead + (n, n))
        Z, W = rand(rng, (dirs, n, n)), rand(rng, (dirs, n, n))
        singles = [(JetMatrix.curve(p, Z[k]), JetMatrix.curve(q, W[k]))
                   for k in range(dirs)]
        return (JetMatrix.curve(p, Z), JetMatrix.curve(q, W)), singles

    def test_curve_stacks_single_directions(self):
        rng = np.random.default_rng(20)
        (a, _), singles = self.pair(rng)
        assert a.v.shape == a.d2.shape == (3, 4, 4)
        assert a.d1.shape == (5, 3, 4, 4)
        self.agrees(a, [s for s, _ in singles])

    def test_product_rule_sums_over_directions(self):
        rng = np.random.default_rng(21)
        (a, b), singles = self.pair(rng)
        self.agrees(a @ b, [x @ y for x, y in singles])
        self.agrees(a @ b @ a, [x @ y @ x for x, y in singles])

    def test_broadcast_leading_axes(self):
        # points (2, 1) against point-dependent directions (dirs, 3)
        rng = np.random.default_rng(22)
        p, q = rand(rng, (2, 1, 4, 4)), rand(rng, (2, 1, 4, 4))
        Z, W = rand(rng, (6, 3, 4, 4)), rand(rng, (6, 3, 4, 4))
        a, b = JetMatrix.curve(p, Z), JetMatrix.curve(q, W)
        assert (a @ b).d1.shape == (6, 2, 3, 4, 4)
        assert (a @ b).d2.shape == (2, 3, 4, 4)
        self.agrees(a @ b, [JetMatrix.curve(p, Z[k:k + 1])
                            @ JetMatrix.curve(q, W[k:k + 1])
                            for k in range(6)])
        # one point (n, n) along a basis
        p, Z = rand(rng, (4, 4)), rand(rng, (6, 4, 4))
        a = JetMatrix.curve(p, Z)
        self.agrees(a @ a, [JetMatrix.curve(p, z) @ JetMatrix.curve(p, z)
                            for z in Z])

    def test_empty_direction_stack(self):
        # dim k = 0 (so-grassmannian(1, 1)): no directions, a zero d1 of
        # shape (0, ...) and exactly zero second derivatives
        pair = make_pair("so-grassmannian", m=1, n=1)
        assert pair.k_basis.shape == (0, 2, 2)
        pts = random_pair_points(pair, SampleConfig(seed=23), range(3))
        phi = cartan_map_jet(pair, JetMatrix.curve(pts, pair.k_basis))
        assert phi.d1.shape == (0, 3, 2, 2)
        assert phi.d2.shape == (3, 2, 2) and not np.any(phi.d2)
        t = phi.trace()
        for out in (t, t * t, t / (t + 3.0), t ** 3, (t + 3.0).sqrt(),
                    t.conj() * t, phi @ phi):
            assert out.d1.shape[:2] == (0, 3)
            assert not np.any(out.d2)

    def test_linear_operations_agree_with_single_directions(self):
        rng = np.random.default_rng(24)
        (a, b), singles = self.pair(rng)
        M = rand(rng, (4, 4))
        ops = [lambda x, y: x + y, lambda x, y: x - y, lambda x, y: -x,
               lambda x, y: x + M, lambda x, y: M - x,
               lambda x, y: 2j * x, lambda x, y: x * 0.5,
               lambda x, y: x * M, lambda x, y: x / 3.0,
               lambda x, y: x.conj(), lambda x, y: x.T,
               lambda x, y: x @ M, lambda x, y: M @ x,
               lambda x, y: x[..., 1, 2], lambda x, y: x[1]]
        for op in ops:
            self.agrees(op(a, b), [op(x, y) for x, y in singles])
        Bs = rand(rng, (2, 3, 4, 4))
        for op in (lambda x: x.trace(), lambda x: x.trace_form(Bs)):
            out = op(a)
            assert type(out) is Jet2
            self.agrees(out, [op(x) for x, _ in singles])

    def test_involution_keeps_the_type(self):
        pair = make_pair("sp-grassmannian", m=1, n=1)
        rng = np.random.default_rng(25)
        (a, _), singles = self.pair(rng)
        for f in (pair.sigma, pair.sigma.inverse):
            self.agrees(f(a), [f(x) for x, _ in singles])


class TestArrayJets:
    def rand(self, rng, shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    def test_elementwise_like_scalar_jets(self):
        # a (4, 3) batch along one direction, element by element
        rng = np.random.default_rng(11)
        a = Jet2(self.rand(rng, (4, 3)), self.rand(rng, (1, 4, 3)),
                 self.rand(rng, (4, 3)))
        b = Jet2(self.rand(rng, (3,)), self.rand(rng, (1, 4, 3)), 0.0)
        out = ((a * b - 2.0) / (a + 3.0)).sqrt() ** 2
        assert out.shape == (4, 3)
        for i in range(4):
            for k in range(3):
                sa = Jet2(a.v[i, k], a.d1[0, i, k], a.d2[i, k])
                sb = Jet2(b.v[k], b.d1[0, i, k], 0.0)
                ref = ((sa * sb - 2.0) / (sa + 3.0)).sqrt() ** 2
                assert_allclose(jt(out[i, k]), jt(ref), rtol=1e-13)

    def test_ndarray_operands_defer_to_jets(self):
        a = Jet2(np.ones(2), np.arange(2.0)[None], 0.0)
        left = np.array([2.0, 3.0]) * a
        assert isinstance(left, Jet2)
        assert_allclose(left.d1, [[0.0, 3.0]])

    def test_stack_and_index_member_axis(self):
        a = Jet2(1.0, np.arange(3.0)[None], 0.0)
        b = Jet2.constant(2.0)
        s = Jet2.stack([a, b])
        assert s.shape == (3, 2)
        assert s.d1.shape == (1, 3, 2)
        assert_allclose(s[..., 0].d1, [np.arange(3.0)])
        assert_allclose(s[..., 1].v, np.full(3, 2.0))
        v, d1, d2 = b.broadcast_to((5,), 4)
        assert v.shape == d2.shape == (5,)
        assert d1.shape == (4, 5)

    def test_trace_form_without_the_product(self):
        rng = np.random.default_rng(12)
        p, Zs = self.rand(rng, (2, 3, 3)), self.rand(rng, (4, 3, 3))
        Bs = self.rand(rng, (5, 3, 3))
        jm = JetMatrix.curve(p, Zs)
        got = jm.trace_form(Bs)
        assert got.shape == (2, 5)
        assert got.d1.shape == (4, 2, 5)
        for k in range(5):
            ref = (jm @ Bs[k]).trace()
            assert_allclose(got[..., k].d2, ref.d2, rtol=1e-13)
            assert_allclose(got[..., k].d1, ref.d1, rtol=1e-13)
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
        # (dirs, points, A, K): the A families pair elementwise; a's
        # members against b's are the off-diagonal block of their stack
        rng = np.random.default_rng(15)
        a, b = self.rand(rng, (6, 2, 3, 4)), self.rand(rng, (6, 2, 3, 5))
        s = np.concatenate([a, b], axis=-1)
        got = gram(s, 1)
        assert got.shape == (2, 3, 9, 9)
        for i in range(3):
            ref = gram(s[:, :, i], 1)
            assert ref.shape == (2, 9, 9)
            assert_allclose(got[:, i], ref, rtol=1e-13)
            assert_allclose(ref[:, :4, 4:], np.einsum(
                "bpj,bpk->pjk", a[:, :, i], b[:, :, i]), rtol=1e-13)
        flat = gram(a[..., 0, 0], 1)
        assert flat.shape == (2,)
        assert_allclose(flat, (a[..., 0, 0] ** 2).sum(axis=0), rtol=1e-13)

    def test_entry_index_gives_batched_jet2(self):
        rng = np.random.default_rng(13)
        jm = JetMatrix.curve(self.rand(rng, (3, 3)), self.rand(rng, (4, 3, 3)))
        entry = jm[..., 0, 2]
        assert isinstance(entry, Jet2)
        assert entry.shape == ()
        assert entry.d1.shape == (4,)
        assert_allclose(entry.d1, jm.d1[:, 0, 2])


def einsum_trace_form(a, B):
    """The contraction trace_form replaces, sum_ij a_ij B_ji by einsum."""
    B = np.asarray(B)
    members = "klmn"[:B.ndim - 2]
    return np.einsum(f"...ij,{members}ji->...{members}", a, B)


class TestTraceForm:
    """trace_form gathers one entry per member when every B is one-hot and
    runs matmuls otherwise; the einsum reference differs from the matmuls
    only in the order of summation, so the tolerance is fixed at 1e-12
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

    @staticmethod
    def one_hot(members, n, weights, seed):
        """A stack of B of shape ``members`` + (n, n), each with one
        nonzero entry, the weights in turn, at a random (i, j); and the
        (i, j) per member."""
        rng = np.random.default_rng(seed)
        B = np.zeros(members + (n, n), dtype=complex)
        ij = rng.integers(0, n, size=members + (2,))
        w = np.resize(np.asarray(weights, dtype=complex), members)
        for k in np.ndindex(*members):
            B[k + tuple(ij[k])] = w[k]
        return B, ij, w

    @pytest.mark.parametrize("lead,members", [
        ((40, 3), (9,)),         # a stack, more rows than one gemm block
        ((5,), (3, 4)),          # an (A, K) grid
        ((), (6,)),              # one (n, n) input
        ((7,), ()),              # a single B
    ])
    def test_one_hot_B_gathers_the_entry(self, lead, members):
        # tr(a B) = w a[..., j, i] for B = w E_ij, into a C-ordered array.
        # For w = +-1, +-0.5, +-i each part of the product is one exact
        # real product, so it is bit for bit; for a general complex w,
        # numpy rounds the complex product differently on its scalar and
        # array loops, so that one agrees to 5 eps |w a|, twice the
        # sqrt(5) eps bound of one complex product.
        rng = np.random.default_rng(19)
        a = self.rand(rng, lead + (5, 5))
        B, ij, w = self.one_hot(members, 5,
                                [1, -1, 0.5, -0.5, 1j, -1j, 0.3 - 0.7j], 20)
        got = trace_form(a, B)
        assert got.shape == lead + members
        assert got.flags.c_contiguous
        for k in np.ndindex(*members):
            i, j = ij[k]
            ref = w[k] * a[..., j, i]
            if w[k].real and w[k].imag:
                assert np.all(np.abs(got[(...,) + k] - ref)
                              <= 5 * np.finfo(float).eps * np.abs(ref))
            else:
                assert np.array_equal(got[(...,) + k], ref)

    def test_real_input_against_imaginary_weights(self):
        # the gather promotes a real input to the weights' complex type
        rng = np.random.default_rng(21)
        a = rng.standard_normal((3, 4, 4))
        B, ij, w = self.one_hot((4,), 4, [1j, -0.5, 1, -1j], 22)
        got = trace_form(a, B)
        assert got.dtype == complex
        for k in range(4):
            i, j = ij[k]
            assert np.array_equal(got[..., k], w[k] * a[..., j, i])

    @pytest.mark.parametrize("dense", ["one dense member", "one zero member"])
    def test_not_every_B_one_hot_takes_the_matmuls(self, dense):
        # a stack with a member of other than one nonzero is contracted
        # by the blocked matmuls, over every member
        rng = np.random.default_rng(23)
        a = self.rand(rng, (40, 2, 4, 4))
        B, _, _ = self.one_hot((3,), 4, [0.5, -1, 1j], 24)
        B[1] = self.rand(rng, (4, 4)) if dense == "one dense member" else 0
        self.close(trace_form(a, B), einsum_trace_form(a, B))

    @pytest.mark.parametrize("one_hot", [True, False])
    def test_empty_direction_stack(self, one_hot):
        # no directions (dim k = 0): shape (0, points, members)
        rng = np.random.default_rng(25)
        B = (self.one_hot((5,), 3, [1, -0.5], 26)[0] if one_hot
             else self.rand(rng, (5, 3, 3)))
        got = trace_form(np.zeros((0, 4, 3, 3), dtype=complex), B)
        assert got.shape == (0, 4, 5)

    @pytest.mark.parametrize("one_hot", [True, False])
    def test_a_plan_made_once_gives_the_same_bits(self, one_hot):
        # form_plan reads the stack once; trace_form and
        # JetMatrix.trace_form give the bits of the unplanned call, on
        # either path, for every input it is reused on
        rng = np.random.default_rng(27)
        B = (self.one_hot((2, 3), 4, [1, -0.5, 1j], 28)[0] if one_hot
             else self.rand(rng, (2, 3, 4, 4)))
        plan = form_plan(B)
        assert (plan.index is not None) == one_hot
        for lead in ((), (5,), (40, 2)):
            a = self.rand(rng, lead + (4, 4))
            assert np.array_equal(trace_form(a, plan), trace_form(a, B))
        jm = JetMatrix(*(self.rand(rng, s + (4, 4))
                         for s in ((6,), (3, 6), (6,))))
        got, ref = jm.trace_form(plan), jm.trace_form(B)
        for part in ("v", "d1", "d2"):
            assert np.array_equal(getattr(got, part), getattr(ref, part))


def einsum_gram(a, b, points):
    """The contraction gram replaces: the leading direction axis summed by
    einsum against the last member axes; without member axes (only
    ``points`` point axes after the directions), sum of a b."""
    if a.ndim == points + 1:
        return (a * b).sum(axis=0)
    return np.einsum("b...j,b...k->...jk", a, b)


def stacked_pair(a, b, points):
    """a and b as one derivative stack, b's members after a's (on a member
    axis of one each if they have none) and the leading axes broadcast;
    and the index of b's first member."""
    if a.ndim == points + 1:
        a, b = a[..., None], b[..., None]
    lead = np.broadcast_shapes(a.shape[:-1], b.shape[:-1])
    parts = [np.broadcast_to(x, lead + x.shape[-1:]) for x in (a, b)]
    return np.concatenate(parts, axis=-1), a.shape[-1]


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
    @pytest.mark.parametrize("ashape,bshape,points", [
        ((36, 32, 12), (36, 32, 11), 1),        # (dirs, points, members)
        ((36, 32, 12, 11), (36, 32, 12, 11), 1),  # (alpha, member) grid
        ((9, 7), (9, 7), 1),                    # no member axis
        ((9, 4), (9, 5), 0),                    # no point axis
        ((6, 2, 1, 3), (6, 1, 4, 5), 2),        # broadcast point axes
        ((6, 3, 1, 4), (6, 3, 5, 4), 1),        # broadcast member grid
    ])
    def test_matches_einsum(self, ashape, bshape, points, complex_):
        rng = np.random.default_rng(19)
        rand = lambda shape: rng.standard_normal(shape) + (
            1j * rng.standard_normal(shape) if complex_ else 0.0)
        a, b = rand(ashape), rand(bshape)
        got = gram(a, points)
        assert np.iscomplexobj(got) == complex_
        self.close(got, einsum_gram(a, a, points))
        # a against b: the off-diagonal block of their stack's Gram matrix
        s, j = stacked_pair(a, b, points)
        ref = einsum_gram(a, b, points)
        self.close(gram(s, points)[..., :j, j:].reshape(ref.shape), ref)


@pytest.mark.parametrize("members", [(), (1,), (3,)])
def test_an_entry_alone_gets_the_bits_it_gets_in_a_batch(members):
    # a lone row of a dense trace form goes through the kernel of several
    # rows, also as the tail of _ROWS-row blocks (33 rows), and a lone
    # entry's sum over the directions runs in direction order, as numpy
    # sums a batch: a point's bits do not depend on the size of its batch
    rng = np.random.default_rng(31)
    B = rand(rng, members + (4, 4))
    for points in (9, 33):
        a = rand(rng, (points, 4, 4))
        got = trace_form(a, B)
        for i in range(points):
            assert np.array_equal(trace_form(a[i], B), got[i])
    x, y = (Jet2(*(rand(rng, s + members) for s in ((9,), (6, 9), (9,))))
            for _ in range(2))
    for op in (lambda x, y: x * y, lambda x, y: x / y,
               lambda x, y: x.sqrt()):
        got = op(x, y).d2
        for i in range(9):
            assert np.array_equal(op(x[i], y[i]).d2, got[i])
