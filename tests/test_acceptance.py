"""Acceptance suite: one test per top-level criterion, each asserting the
stated tolerances (and runtime budgets where stated).

Each criterion drives the public claim runner the same way the CLI does,
so a green run here means `eigenlab verify` passes end to end.
"""

import time

import numpy as np
import pytest

from eigenlab.claims import RunConfig, run_claims


def timed(config, prefix=None):
    start = time.perf_counter()
    results = run_claims(config, prefix=prefix)
    return results, time.perf_counter() - start


def assert_all_pass(results, tol=None):
    assert results, "no claims selected"
    for r in results:
        assert r.passed, f"{r.claim_id}: max residual {r.max_residual:.3e}"
        if tol is not None:
            assert r.tol <= tol
            assert r.max_residual <= tol


def by_id(results, fragment):
    return [r for r in results if fragment in r.claim_id]


def test_criterion_01_basis_square_sums_exact():
    # sum Y^2 = -(n-1)/2 I, sum X^2 = +(n-1)/2 I, sum D^2 = I for n in 2..8,
    # residual <= 1e-15, under one second.
    results, wall = timed(RunConfig(spaces=("basis",)))
    assert len(results) == 3 * 7  # three families, n = 2..8
    assert_all_pass(results, tol=1e-15)
    assert wall < 1.0


def test_criterion_02_quaternionic_grassmannian_row10():
    # (m,n) in {(1,1),(1,2),(2,2)}, 100 points, all j,k != alpha including
    # the index range m+n < j <= 2(m+n); residual <= 1e-8, under a minute.
    results, wall = timed(
        RunConfig(spaces=("sp-grassmannian",), samples=100), prefix="table1.")
    lam = by_id(results, "table1.row10.lambda")
    mu = by_id(results, "table1.row10.mu")
    fresh = by_id(results, "catalog.quat.new-range")
    assert len(lam) == 3 and len(mu) == 3 and len(fresh) == 3
    for r in lam + mu + fresh:
        assert r.samples == 100
    assert_all_pass(lam + mu + fresh, tol=1e-8)
    for r in fresh:
        assert "indices j or alpha in" in r.detail
    assert wall < 60.0


def test_criterion_03_real_and_complex_grassmannians():
    results, _ = timed(
        RunConfig(spaces=("so-grassmannian", "u-grassmannian"), samples=100),
        prefix="table1.")
    for row, expect_lam in (("row8", -2.0), ("row9", -2.0)):
        lam = by_id(results, f"table1.{row}.lambda")
        mu = by_id(results, f"table1.{row}.mu")
        assert len(lam) == 3 and len(mu) == 3
        assert_all_pass(lam + mu, tol=1e-8)
    # spot-check the eigenvalues themselves at (1,1)
    r8 = by_id(results, "table1.row8.lambda[m=1,n=1]")[0]
    assert r8.expected == -2.0
    r9 = by_id(results, "table1.row9.lambda[m=1,n=1]")[0]
    assert r9.expected == -4.0
    m8 = by_id(results, "table1.row8.mu[m=1,n=1]")[0]
    m9 = by_id(results, "table1.row9.mu[m=1,n=1]")[0]
    assert m8.expected == -2.0 and m9.expected == -2.0


def test_criterion_04_single_parameter_quotients_rows_4_to_7():
    results, _ = timed(
        RunConfig(spaces=("su-so", "sp-u", "so-u", "su-sp"), samples=100),
        prefix="table1.")
    expected = {
        "table1.row4.lambda[n=2]": -4.0,
        "table1.row4.lambda[n=3]": -20.0 / 3.0,
        "table1.row4.mu[n=2]": -2.0,
        "table1.row4.mu[n=3]": -8.0 / 3.0,
        "table1.row5.lambda[n=1]": -4.0,
        "table1.row5.lambda[n=2]": -6.0,
        "table1.row5.mu[n=1]": -2.0,
        "table1.row5.mu[n=2]": -2.0,
        "table1.row6.lambda[n=2]": -2.0,
        "table1.row6.lambda[n=3]": -4.0,
        "table1.row6.mu[n=2]": -1.0,
        "table1.row6.mu[n=3]": -1.0,
        "table1.row7.lambda[n=2]": -5.0,
        "table1.row7.mu[n=2]": -1.0,
    }
    got = {r.claim_id: r for r in results}
    assert set(got) == set(expected)
    assert_all_pass(results, tol=1e-8)
    for cid, val in expected.items():
        assert got[cid].expected == pytest.approx(val, abs=1e-12)
        # each claim scores the table value, sign included, and the fit
        # over the samples agrees with it
        assert abs(got[cid].measured - val) <= 1e-8
        assert got[cid].detail == ""


def test_criterion_05_cartan_map_properties():
    # harmonicity <= 1e-9, pullback factor 4 <= 1e-8, vertical kill 1e-10,
    # K-invariance 1e-12, composition factor 4 <= 1e-8, closed-form jets
    # against the jet route 1e-10; >= 50 points/pair.
    results, _ = timed(RunConfig(samples=50), prefix="cartan.")
    tols = {
        "cartan.harmonic": 1e-9,
        "cartan.pullback": 1e-8,
        "cartan.vertical": 1e-10,
        "cartan.k-invariance": 1e-12,
        "cartan.factor4.tau": 1e-8,
        "cartan.factor4.kappa": 1e-8,
        "cartan.casimir": 1e-10,
    }
    seen_spaces = set()
    for kind, tol in tols.items():
        rs = by_id(results, kind)
        assert rs, kind
        assert_all_pass(rs, tol=tol)
        for r in rs:
            assert r.samples >= 50
            seen_spaces.add(r.space)
    assert seen_spaces == {"su-so", "sp-u", "so-u", "su-sp",
                           "so-grassmannian", "u-grassmannian",
                           "sp-grassmannian"}


def test_criterion_06_image_operator_identities():
    # tau_N(eta) = -((m+n)/2) psi and kappa_N = -(1/4) psi psi at (1,1).
    results, _ = timed(
        RunConfig(spaces=("sp-grassmannian",), samples=100), prefix="prop7.1.")
    assert {r.claim_id for r in results} == {
        "prop7.1.tau[m=1,n=1]", "prop7.1.kappa[m=1,n=1]"}
    assert_all_pass(results, tol=1e-8)


def test_criterion_07_polynomial_families_d2_d3():
    # degree-d families on two distinct spaces, d in {2,3}, <= 1e-7.
    results, _ = timed(RunConfig(spaces=("polynomial",), samples=50))
    ids = {r.claim_id for r in results}
    assert any("d=2" in i for i in ids) and any("d=3" in i for i in ids)
    assert len({i.split("space=")[1].split(",")[0] for i in ids}) == 2
    assert_all_pass(results, tol=1e-7)


def test_criterion_08_product_family():
    results, _ = timed(RunConfig(spaces=("product",), samples=50))
    lam = by_id(results, "product.lambda")
    mu = by_id(results, "product.mu")
    assert lam and mu
    assert lam[0].expected == -8.0  # sum of two copies of -4
    assert mu[0].expected == -2.0
    assert_all_pass(results, tol=1e-8)


def test_criterion_09_sphere_and_projective_space():
    results, _ = timed(RunConfig(spaces=("sphere", "cpn"), samples=100))
    expected = {
        "sphere.lambda[n=2]": -3.0, "sphere.mu[n=2]": -1.0,
        "sphere.lambda[n=3]": -5.0, "sphere.mu[n=3]": -1.0,
        "cpn.lambda[n=1]": -8.0, "cpn.mu[n=1]": -4.0,
        "cpn.lambda[n=2]": -12.0, "cpn.mu[n=2]": -4.0,
    }
    got = {r.claim_id: r for r in results}
    assert set(got) == set(expected)
    for cid, val in expected.items():
        assert got[cid].expected == val
    assert_all_pass(results, tol=1e-8)


def test_criterion_10_property_suites():
    # Leibniz identity, jet vs finite differences, Gram matrices, bracket
    # relations of the k/p splits; module tolerances.
    from numpy.testing import assert_allclose
    from eigenlab.bases import gram_matrix, group_basis
    from eigenlab.matrices import metric
    from eigenlab.operators import (ScalarField, conformality, field_value,
                                    finite_difference_derivs,
                                    direction_derivs, tension)
    from eigenlab.pairs import make_pair
    from eigenlab.sampling import SampleConfig, random_point

    # Gram matrices
    for group, n in [("so", 4), ("su", 3), ("u", 3), ("sp", 2)]:
        B = group_basis(group, n)
        assert_allclose(gram_matrix(B), np.eye(B.dim), atol=1e-14)

    # Leibniz: tau(fg) = tau(f) g + 2 kappa(f,g) + f tau(g), <= 1e-9
    n = 3
    B = group_basis("su", n)
    f = ScalarField(lambda jm: jm[..., 0, 1], "su", n)
    g = ScalarField(lambda jm: jm[..., 1, 2], "su", n)
    fg = ScalarField(lambda jm: jm[..., 0, 1] * jm[..., 1, 2], "su", n)
    cfg = SampleConfig(seed=99)
    for i in range(10):
        p = random_point("su", n, cfg, i)
        lhs = tension(fg, p, B)
        rhs = (tension(f, p, B) * field_value(g, p)
               + 2 * conformality(f, g, p, B)
               + field_value(f, p) * tension(g, p, B))
        assert abs(lhs - rhs) <= 1e-9 * max(1, abs(rhs))

    # jets vs central differences at h = 1e-4, relative 1e-5
    p = random_point("su", n, cfg, 0)
    for k in range(min(10, B.dim)):
        d1, d2 = direction_derivs(fg, p, B[k])
        f1, f2 = finite_difference_derivs(fg, p, B[k], h=1e-4)
        assert abs(d1 - f1) <= 1e-5 * max(1, abs(d1))
        assert abs(d2 - f2) <= 1e-5 * max(1, abs(d2))

    # bracket relations of the splits, <= 1e-12
    for space, m, sz in [("su-so", None, 3), ("sp-grassmannian", 1, 1)]:
        pair = make_pair(space, m=m, n=sz)
        k_b, p_b = pair.k_basis, pair.p_basis

        def residual_outside(W, span):
            coeff = np.array([metric(W, Z) for Z in span])
            recon = np.einsum("b,bij->ij", coeff, span)
            return np.linalg.norm(W - recon)

        for A in k_b[:2]:
            for Bm in p_b[:2]:
                C = A @ Bm - Bm @ A
                assert residual_outside(C, p_b) < 1e-12
        for A in p_b[:2]:
            for Bm in p_b[:2]:
                C = A @ Bm - Bm @ A
                assert residual_outside(C, k_b) < 1e-12


def test_full_default_run_all_claims_pass_under_budget():
    results, wall = timed(RunConfig())
    assert_all_pass(results)
    assert len(results) > 150
    assert wall < 300.0
