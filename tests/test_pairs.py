"""Symmetric pair construction: involutions, k/p splits, bracket relations."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from eigenlab.bases import gram_matrix, gram_schmidt
from eigenlab.matrices import metric
from eigenlab.pairs import SPACES, make_pair, space_label
from eigenlab.sampling import SampleConfig, random_subgroup_point

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
        cfg = SampleConfig(seed=5, count=4)
        for i in range(4):
            kpt = random_subgroup_point(pair, cfg, i)
            assert np.linalg.norm(pair.sigma(kpt) - kpt) < 1e-12

    def test_sigma_involutive(self, space, m, n):
        pair = make_pair(space, m=m, n=n)
        cfg = SampleConfig(seed=6, count=2)
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
