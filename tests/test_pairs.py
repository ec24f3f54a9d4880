"""Symmetric pair construction: involutions, k/p splits, bracket relations."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from eigenlab.bases import gram_matrix, gram_schmidt
from eigenlab.claims import DEFAULT_SIZES, PAIR_SPACE_ORDER
from eigenlab.jets import JetMatrix
from eigenlab.matrices import i_signature, metric
from eigenlab import pairs
from eigenlab.pairs import SPACES, Involution, make_pair, space_label
from eigenlab.sampling import (SampleConfig, random_pair_points,
                               random_subgroup_point)

CASES = [
    ("su-so", None, 2), ("su-so", None, 3),
    ("sp-u", None, 1), ("sp-u", None, 2),
    ("so-u", None, 2), ("so-u", None, 3),
    ("su-sp", None, 2),
    ("so-grassmannian", 1, 2), ("so-grassmannian", 2, 2),
    ("u-grassmannian", 1, 2), ("u-grassmannian", 2, 2),
    ("sp-grassmannian", 1, 1), ("sp-grassmannian", 1, 2),
]

# (dim k, dim p) per case, from the classical dimension counts
EXPECTED_DIMS = {
    ("su-so", None, 2): (1, 2),
    ("su-so", None, 3): (3, 5),
    ("sp-u", None, 1): (1, 2),
    ("sp-u", None, 2): (4, 6),
    ("so-u", None, 2): (4, 2),
    ("so-u", None, 3): (9, 6),  # u(3) in so(6): 15 = 9 + 6
    ("su-sp", None, 2): (10, 5),
    ("so-grassmannian", 1, 2): (1, 2),
    ("so-grassmannian", 2, 2): (2, 4),
    ("u-grassmannian", 1, 2): (5, 4),
    ("u-grassmannian", 2, 2): (8, 8),
    ("sp-grassmannian", 1, 1): (6, 4),
    ("sp-grassmannian", 1, 2): (13, 8),
}


def brak(A, B):
    return A @ B - B @ A


@pytest.mark.parametrize("space,m,n", CASES)
class TestPair:
    def test_split_dimensions(self, space, m, n):
        pair = make_pair(space, m=m, n=n)
        assert (pair.dim_k, pair.dim_p) == EXPECTED_DIMS[(space, m, n)]
        assert pair.dim_k + pair.dim_p == pair.ambient.dim

    def test_split_orthonormal(self, space, m, n):
        pair = make_pair(space, m=m, n=n)
        stacked = np.concatenate([pair.k_basis, pair.p_basis], axis=0)
        G = gram_matrix(stacked)
        assert_allclose(G, np.eye(stacked.shape[0]), atol=1e-13)

    def test_dsigma_eigenspaces(self, space, m, n):
        pair = make_pair(space, m=m, n=n)
        for Z in pair.k_basis:
            assert np.linalg.norm(pair.sigma.d(Z) - Z) < 1e-13
        for Z in pair.p_basis:
            assert np.linalg.norm(pair.sigma.d(Z) + Z) < 1e-13

    def test_bracket_relations(self, space, m, n):
        # [k,k] in k, [k,p] in p, [p,p] in k
        pair = make_pair(space, m=m, n=n)
        k, p = pair.k_basis, pair.p_basis

        def in_span(W, span):
            coeff = np.array([metric(W, Z) for Z in span])
            recon = (np.einsum("b,bij->ij", coeff, span)
                     if len(span) else np.zeros_like(W))
            return np.linalg.norm(W - recon)

        for A in k[:3]:
            for B in k[:3]:
                assert in_span(brak(A, B), k) < 1e-12
            for B in p[:3]:
                assert in_span(brak(A, B), p) < 1e-12
        for A in p[:3]:
            for B in p[:3]:
                assert in_span(brak(A, B), k) < 1e-12

    def test_sigma_fixes_subgroup(self, space, m, n):
        pair = make_pair(space, m=m, n=n)
        cfg = SampleConfig(seed=5)
        for i in range(4):
            kpt = random_subgroup_point(pair, cfg, i)
            assert np.linalg.norm(pair.sigma(kpt) - kpt) < 1e-12

    def test_sigma_involutive(self, space, m, n):
        pair = make_pair(space, m=m, n=n)
        cfg = SampleConfig(seed=6)
        from eigenlab.sampling import random_pair_point
        q = random_pair_point(pair, cfg, 0)
        assert np.linalg.norm(pair.sigma(pair.sigma(q)) - q) < 1e-12


def mgs_reference(vectors, drop_tol=1e-10):
    """Modified Gram-Schmidt over g, with a second pass and one metric
    call per vector pair: the loop the one-pass split replaced."""
    out = []
    for v in vectors:
        w = np.array(v, dtype=complex)
        for _ in range(2):
            for u in out:
                w = w - metric(w, u) * u
        nrm = np.sqrt(metric(w, w))
        if nrm > drop_tol:
            out.append(w / nrm)
    return out


@pytest.mark.parametrize("space,m,n", [
    ("su-so", None, 3), ("sp-u", None, 3), ("so-u", None, 3),
    ("su-sp", None, 3), ("so-grassmannian", 2, 3), ("u-grassmannian", 3, 3),
    ("sp-grassmannian", 3, 3)])
def test_split_matches_modified_gram_schmidt(space, m, n):
    pair = make_pair(space, m=m, n=n)
    Z = pair.ambient.elements
    s = np.array([pair.sigma.d(z) for z in Z])
    for raw, got in (((Z + s) / 2.0, pair.k_basis),
                     ((Z - s) / 2.0, pair.p_basis)):
        ref = np.array(mgs_reference(raw)).reshape((-1,) + Z.shape[1:])
        assert got.shape == ref.shape
        assert np.abs(got - ref).max() <= 1e-14
        assert (gram_schmidt(raw) == got).all()


def test_discrete_k_split_is_an_empty_stack():
    pair = make_pair("so-grassmannian", m=1, n=1)
    assert pair.k_basis.shape == (0, 2, 2)
    assert pair.p_basis.shape == (1, 2, 2)
    assert_allclose(gram_matrix(pair.p_basis), np.eye(1), atol=1e-15)


# The seven pairs at their default sizes; so-grassmannian(1,1) has
# dim k = 0, so its k-basis jets are empty stacks.
DEFAULT_PAIRS = [(space, m, n) for space in PAIR_SPACE_ORDER
                 for m, n in DEFAULT_SIZES[space]]


def conjugation(pair, q):
    """M c(q) M^H by two matmuls, c the entrywise conjugation if sigma
    sets it: the reference for the gather of Involution."""
    M = pair.sigma.conjugator
    M = np.eye(q.shape[-1]) if M is None else M
    c = q.conj() if pair.sigma.entrywise_conj else q
    return M @ c @ M.conj().T


def jt(jm):
    return (jm.v, jm.d1, jm.d2)


@pytest.mark.parametrize("space,m,n", DEFAULT_PAIRS)
def test_sigma_gathers_the_conjugation_exactly(space, m, n):
    # each entry of M c(q) M^H is one signed entry of q plus exact zeros,
    # so the gather must agree bit for bit, on points and on every part
    # of a jet
    pair = make_pair(space, m=m, n=n)
    pts = random_pair_points(pair, SampleConfig(seed=7), range(5))
    h = lambda a: np.swapaxes(a, -1, -2).conj()
    assert np.array_equal(pair.sigma(pts), conjugation(pair, pts))
    assert np.array_equal(pair.sigma.inverse(pts), conjugation(pair, h(pts)))
    for basis in (pair.p_basis, pair.k_basis):
        jm = JetMatrix.curve(pts[:, None], basis)
        for got, inv, part in zip(jt(pair.sigma(jm)),
                                  jt(pair.sigma.inverse(jm)), jt(jm)):
            assert got.shape == inv.shape == part.shape
            assert np.array_equal(got, conjugation(pair, part))
            assert np.array_equal(inv, conjugation(pair, h(part)))
        assert isinstance(pair.sigma.inverse(jm), JetMatrix)


@pytest.mark.parametrize("M", [
    np.array([[np.cos(0.3), -np.sin(0.3)], [np.sin(0.3), np.cos(0.3)]]),
    np.diag([2.0, 0.5]),
    np.array([[1.0, 1.0], [0.0, 1.0]]),
    np.array([[0.0, 1.0], [0.0, 1.0]]),
    np.zeros((2, 2)),
    np.ones((2, 3)),
], ids=["rotation", "diag(2,0.5)", "two-in-a-row", "two-in-a-column",
        "zero", "not-square"])
def test_involution_rejects_a_conjugator_not_a_signed_permutation(M):
    with pytest.raises(ValueError, match="signed permutation"):
        Involution(conjugator=M)


def test_involution_accepts_signed_permutations():
    # a quarter turn is a signed permutation; so are the signatures
    rng = np.random.default_rng(8)
    q = rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2))
    for M in (np.array([[0.0, -1.0], [1.0, 0.0]]), i_signature(1, 1)):
        sigma = Involution(conjugator=M)
        assert np.array_equal(sigma(q), M @ q @ M.conj().T)


class TestValidation:
    def test_unknown_space(self):
        with pytest.raises(ValueError):
            make_pair("sl-so", n=2)

    def test_single_param_rejects_m(self):
        with pytest.raises(ValueError):
            make_pair("su-so", m=1, n=2)

    def test_grassmannian_needs_both(self):
        with pytest.raises(ValueError):
            make_pair("u-grassmannian", n=2)

    def test_min_sizes(self):
        with pytest.raises(ValueError):
            make_pair("su-so", n=1)
        with pytest.raises(ValueError):
            make_pair("so-grassmannian", m=0, n=1)

    def test_labels(self):
        assert space_label("su-so", None, 2) == "su-so(n=2)"
        assert space_label("u-grassmannian", 1, 2) == "u-grassmannian(m=1,n=2)"
        assert make_pair("sp-u", n=1).label() == "sp-u(n=1)"

    def test_all_spaces_listed(self):
        assert set(SPACES) == {
            "su-so", "sp-u", "so-u", "su-sp",
            "so-grassmannian", "u-grassmannian", "sp-grassmannian",
        }


# every size the command line accepts: m, n in 1..3, from each space's
# smallest size
CLI_PAIRS = [(space, m, n) for space in PAIR_SPACE_ORDER for m, n in (
    [(m, n) for m in (1, 2, 3) for n in (1, 2, 3)]
    if SPACES[space]["params"] == ("m", "n")
    else [(None, n) for n in range(SPACES[space]["min_size"]["n"], 4)])]


@pytest.mark.parametrize("space,m,n", CLI_PAIRS)
def test_basis_products_gather_the_matmul(space, m, n):
    # every p- and k-basis matrix has at most one nonzero per column,
    # purely real or imaginary, so JetMatrix.curve gathers p Z
    # along each, bit for bit p @ Z, and its square sum is (Z @ Z).sum
    # bit for bit; so-grassmannian(1,1) has an empty k-basis.  The pair's
    # own plans have a gather index, so no pass falls back to the dense
    # product unseen
    pair = make_pair(space, n=n) if m is None else make_pair(space, m=m, n=n)
    p = random_pair_points(pair, SampleConfig(seed=3), range(5))
    pk = np.concatenate([pair.p_basis, pair.k_basis])
    assert pair.p_plan.rows is not None and pair.pk_plan.rows is not None
    for Z, plan in ((pair.p_basis, pair.p_plan), (pk, pair.pk_plan)):
        assert plan.rows is not None
        assert np.array_equal(plan.square, (Z @ Z).sum(axis=0))
        jm = JetMatrix.curve(p, plan)
        assert np.array_equal(jm.d1, p @ Z[:, None])
        assert np.array_equal(jm.d2, p @ plan.square)
        assert jm.d1.flags.c_contiguous
        assert np.array_equal(JetMatrix.curve(p[0], plan).d1, p[0] @ Z)
    assert np.array_equal(JetMatrix.curve(p, pair.k_basis).d1,
                          p @ pair.k_basis[:, None])


@pytest.mark.parametrize("mix", [
    lambda p: np.concatenate([(p[:1] + p[1:2]) / np.sqrt(2.0), p[1:]]),
    lambda p: np.exp(0.25j * np.pi) * p])
def test_make_pair_rejects_a_basis_the_gather_cannot_take(monkeypatch, mix):
    # negative control: two nonzeros in a column, or a nonzero neither
    # real nor imaginary, and make_pair refuses the split
    split = pairs._split
    monkeypatch.setattr(pairs, "_split",
                        lambda Z, s: (lambda k, p: (k, mix(p)))(*split(Z, s)))
    with pytest.raises(RuntimeError, match="two nonzeros"):
        make_pair("sp-grassmannian", m=1, n=1)


SPLIT_CASES = sorted({(space, m, n) for space in PAIR_SPACE_ORDER
                      for m, n in DEFAULT_SIZES[space]}
                     | {(space, 3, 3) for space in SPACES
                        if SPACES[space]["params"] == ("m", "n")}
                     | {(space, None, 3) for space in SPACES
                        if SPACES[space]["params"] == ("n",)}
                     | {("sp-grassmannian", 8, 8), ("u-grassmannian", 6, 6),
                        ("so-grassmannian", 5, 5), ("sp-u", None, 6),
                        ("so-u", None, 8)}, key=str)


@pytest.mark.parametrize("space,m,n", SPLIT_CASES)
def test_split_is_gram_schmidt_bit_for_bit(space, m, n):
    # outside su the split keeps the disjoint projections, normalized;
    # Gram-Schmidt (CGS2) of the same projections is the reference
    pair = make_pair(space, m=m, n=n)
    Z = pair.ambient.elements
    s = pair.sigma.d(Z)
    for raw, got in (((Z + s) / 2.0, pair.k_basis),
                     ((Z - s) / 2.0, pair.p_basis)):
        ref = gram_schmidt(raw)
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("space", sorted(SPACES))
def test_split_runs_gram_schmidt_only_on_su(space, monkeypatch):
    from eigenlab import bases
    calls = []

    def spy(vectors):
        calls.append(len(vectors))
        return gram_schmidt(vectors)

    monkeypatch.setattr(pairs, "gram_schmidt", spy)
    monkeypatch.setattr(bases, "gram_schmidt", spy)
    if SPACES[space]["params"] == ("n",):
        pair = make_pair(space, n=3)
    else:
        pair = make_pair(space, m=2, n=2)
    assert (len(calls) > 0) == (pair.group == "su")
