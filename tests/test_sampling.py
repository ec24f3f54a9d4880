"""Deterministic sampling streams and membership of sampled points."""

import hashlib
import warnings

import numpy as np
import pytest

from eigenlab import sampling
from eigenlab.bases import group_basis
from eigenlab.claims import DEFAULT_SIZES, PAIR_SPACE_ORDER
from eigenlab.matrices import membership_residual, real_rows, sparse_plan
from eigenlab.pairs import make_pair
from eigenlab.sampling import (GENERATOR_NAME, RADIUS, SampleConfig,
                               random_algebra_elements, random_pair_point,
                               random_pair_points, random_point,
                               random_points, random_sphere_points,
                               random_subgroup_point, random_subgroup_points,
                               rng_for)


class TestDeterminism:
    def test_bitwise_repeatable(self):
        cfg = SampleConfig(seed=3)
        for i in range(5):
            a = random_point("su", 3, cfg, i)
            b = random_point("su", 3, cfg, i)
            assert (a == b).all()  # bitwise, not just allclose

    def test_streams_independent_of_call_order(self):
        cfg = SampleConfig(seed=3)
        fwd = [random_point("so", 3, cfg, i) for i in range(4)]
        rev = [random_point("so", 3, cfg, i) for i in reversed(range(4))]
        for a, b in zip(fwd, reversed(rev)):
            assert (a == b).all()

    def test_distinct_indices_differ(self):
        cfg = SampleConfig(seed=0)
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

    # sha256 prefixes of rng_for("sp:2", 5, index).uniform(size=9).tobytes():
    # the family parameters draw from these streams, so their bits are fixed
    PINNED = {0: "4d4a3c64e9d8bdd6", 1: "648357aa1367f567",
              99: "9863acc8d5ce85b1", 2 ** 32 + 7: "fc0bd2275faf0a28",
              2 ** 63 + 5: "12dcbc80833d3926",
              2 ** 64 - 1: "d0c6a7b98467babb"}

    @pytest.mark.parametrize("index", sorted(PINNED))
    def test_stream_bits_are_pinned(self, index):
        u = rng_for("sp:2", 5, index).uniform(size=9)
        assert hashlib.sha256(u.tobytes()).hexdigest()[:16] == \
            self.PINNED[index]


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
            lambda i: random_algebra_elements(group, n, cfg, (i,))[0],
            lambda idx: random_algebra_elements(group, n, cfg, idx))

    @pytest.mark.parametrize("label,n", [("sphere:3", 3), ("cpn:2", 3)])
    def test_sphere_and_cpn_points(self, label, n):
        # each point is its _uniform_rows row over 2n columns, real parts
        # then imaginary parts, normalised; alone it is its batch row
        cfg = self.cfg
        pts = random_sphere_points(n, label, cfg, range(2 * P))
        assert pts.shape == (2 * P, n) and pts.dtype == complex
        for i, z in enumerate(pts):
            x = sampling._uniform_rows(label, cfg.seed, (i,), 2 * n)[0]
            ref = x[:n] + 1j * x[n:]
            np.testing.assert_allclose(z, ref / np.linalg.norm(ref),
                                       rtol=1e-15, atol=0)
            assert abs(np.linalg.norm(z) - 1) <= 1e-15
        assert_rows_are_single_draws(
            lambda i: random_sphere_points(n, label, cfg, (i,))[0],
            lambda idx: random_sphere_points(n, label, cfg, idx))
        assert random_sphere_points(n, label, cfg, ()).shape == (0, n)

    def test_numpy_indices_draw_the_python_index_bits(self):
        # int(index) << 64: np.int64(5) << 64 would be 0, sample 0's stream
        for index in (5, 2 ** 63 + 5):
            for np_index in (np.uint64(index), np.array(index, np.uint64)):
                assert np.array_equal(
                    rng_for("x", 0, np_index).uniform(size=9),
                    rng_for("x", 0, index).uniform(size=9))
        assert np.array_equal(rng_for("x", 0, np.int64(5)).uniform(size=9),
                              rng_for("x", 0, 5).uniform(size=9))
        assert np.array_equal(
            random_sphere_points(3, "sphere:3", self.cfg, np.arange(4)),
            random_sphere_points(3, "sphere:3", self.cfg, range(4)))

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


def einsum_combos(basis_els, label, cfg, indices):
    """The sums of the basis elements with each sample's coefficient row,
    as one einsum."""
    width = len(basis_els)
    coeff = np.array([rng_for(label, cfg.seed, i).uniform(
        -RADIUS, RADIUS, size=width) for i in indices])
    return np.einsum("kb,bij->kij", coeff.reshape(len(indices), width),
                     basis_els)


def combo_bases():
    """Every default pair's ambient, k- and p-basis (dim k = 0 at
    so-grassmannian(1,1)), and the su(8), su(12) and sp(6) bases."""
    for space in PAIR_SPACE_ORDER:
        for m, n in DEFAULT_SIZES[space]:
            pair = make_pair(space, m=m, n=n)
            for part, els in (("g", pair.ambient.elements),
                              ("k", pair.k_basis), ("p", pair.p_basis)):
                yield pytest.param(els, id=f"{pair.label()}:{part}")
    for group, n in (("su", 8), ("su", 12), ("sp", 6)):
        yield pytest.param(group_basis(group, n).elements,
                           id=f"{group}({n})")


@pytest.mark.parametrize("basis_els", combo_bases())
def test_combos_are_the_einsum_bit_for_bit(basis_els):
    # the gather over each entry's nonzero basis elements sums in basis
    # order from zero, as the einsum does: equal bits, batched or one by one
    cfg = SampleConfig(seed=7)
    plan = sparse_plan(real_rows(basis_els))
    ref = einsum_combos(basis_els, "combos", cfg, range(9))
    got = sampling._combos(plan, "combos", cfg, range(9))
    assert got.dtype == ref.dtype and np.array_equal(got, ref)
    assert np.array_equal(sampling._combos(plan, "combos", cfg, (4,)),
                          ref[4:5])
    assert sampling._combos(plan, "combos", cfg, ()).shape == \
        (0,) + basis_els.shape[1:]


@pytest.mark.parametrize("space,m,n", [("sp-grassmannian", 2, 2),
                                       ("su-so", None, 3),
                                       ("so-grassmannian", 1, 1)])
def test_combos_with_the_plan_are_the_raw_basis_draws(space, m, n):
    # a pair's planned ambient and k-bases draw the einsum's bits over
    # the raw stacks (dim k = 0 at so-grassmannian(1,1))
    pair = make_pair(space, m=m, n=n)
    cfg = SampleConfig(seed=12)
    for plan, els in ((pair.ambient_sparse, pair.ambient.elements),
                      (pair.k_sparse, pair.k_basis)):
        got = sampling._combos(plan, "plan", cfg, range(7))
        ref = einsum_combos(els, "plan", cfg, range(7))
        assert got.shape == ref.shape == (7,) + els.shape[1:]
        assert got.dtype == ref.dtype and np.array_equal(got, ref)


class TestMembership:
    @pytest.mark.parametrize("group,n", [("so", 3), ("su", 3), ("u", 2), ("sp", 2)])
    def test_points_on_group(self, group, n):
        cfg = SampleConfig(seed=1)
        for i in range(10):
            q = random_point(group, n, cfg, i)
            assert membership_residual(group, q) < 1e-10

    def test_algebra_elements_in_algebra(self):
        from eigenlab.bases import algebra_residual
        cfg = SampleConfig(seed=2)
        for Z in random_algebra_elements("sp", 2, cfg, range(5)):
            assert algebra_residual("sp", Z) < 1e-12

    def test_subgroup_points_fixed_by_sigma(self):
        pair = make_pair("u-grassmannian", m=1, n=2)
        cfg = SampleConfig(seed=4)
        for i in range(5):
            k = random_subgroup_point(pair, cfg, i)
            assert membership_residual("u", k) < 1e-10
            assert np.linalg.norm(pair.sigma(k) - k) < 1e-12

    def test_pair_points_on_ambient_group(self):
        pair = make_pair("sp-grassmannian", m=1, n=1)
        cfg = SampleConfig(seed=4)
        for i in range(5):
            q = random_pair_point(pair, cfg, i)
            assert membership_residual("sp", q) < 1e-10


class TestConfigValidation:
    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError):
            SampleConfig(seed=-1)

    def test_defaults(self):
        assert (SampleConfig().seed, RADIUS) == (0, 1.5)


class TestVectorizedDraw:
    """Every coefficient row of a point set comes from one array
    evaluation of Philox4x64-10 over the indices, equal bit for bit to
    each index's own numpy Philox generator."""

    @staticmethod
    def reference(label, seed, indices, width):
        key = int.from_bytes(
            hashlib.sha256(f"{label}:{seed}".encode()).digest()[:16],
            "little")
        return np.array([np.random.Generator(
            np.random.Philox(key=key, counter=index << 64)).uniform(
                -RADIUS, RADIUS, size=width) for index in indices]
        ).reshape(len(indices), width)

    @pytest.mark.parametrize("seed", [0, 5, 2 ** 40])
    def test_rows_are_the_per_sample_philox_draws(self, seed):
        # 2^63 + 5 sets the top bit of counter word 1 and 2^32 + 7 carries
        # into its high half; widths 1..80 end blocks at every word.  With
        # warnings as errors, no uint64 product or sum may warn
        indices = (0, 1, 99, 2 ** 32 + 7, 2 ** 63 + 5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for width in range(1, 81):
                got = sampling._uniform_rows("draw", seed, indices, width)
                ref = self.reference("draw", seed, indices, width)
                assert got.dtype == ref.dtype
                assert got.tobytes() == ref.tobytes(), width

    def test_empty_and_one_index_draws(self):
        ref = self.reference("draw", 3, (7,), 9)
        assert sampling._uniform_rows("draw", 3, (), 9).shape == (0, 9)
        assert sampling._uniform_rows("draw", 3, range(4), 0).shape == (4, 0)
        assert sampling._uniform_rows("draw", 3, (7,), 9).tobytes() == \
            ref.tobytes()

    def test_indices_past_the_counter_word_are_refused(self):
        with pytest.raises(OverflowError):
            sampling._uniform_rows("draw", 3, (2 ** 64,), 4)
        with pytest.raises(OverflowError):
            sampling._uniform_rows("draw", 3, (-1,), 4)

