"""The claim engine: no claim can pass on zero evidence."""

import numpy as np
import pytest

from eigenlab import catalog
from eigenlab.claims import (CHUNK, RunConfig, _eigen_claims, _result,
                             jobs_for, run_claims)


def claim_ids(config):
    return [cid for job in jobs_for(config) for cid in job.claim_ids]


def test_result_rejects_empty_residuals():
    with pytest.raises(ValueError, match="no residuals"):
        _result("cartan.vertical[n=1]", "so-grassmannian", {"n": 1}, 3,
                np.zeros((3, 0)), 0.0, None, 1e-10)


def test_discrete_k_registers_no_vertical_claims():
    # dim k = 0 at so-grassmannian(1,1): K-invariance and the vertical
    # kill would compare nothing, so they are not claimed there.
    ids = claim_ids(RunConfig(spaces=("so-grassmannian",), m=1, n=1))
    cartan = [cid for cid in ids if cid.startswith("cartan.")]
    assert [cid.split("[")[0] for cid in cartan] == [
        "cartan.harmonic", "cartan.pullback", "cartan.factor4.tau",
        "cartan.factor4.kappa"]
    ids = claim_ids(RunConfig(spaces=("so-grassmannian",), m=2, n=1))
    assert "cartan.k-invariance[space=so-grassmannian,m=2,n=1]" in ids
    assert "cartan.vertical[space=so-grassmannian,m=2,n=1]" in ids


def test_discrete_k_results_match_registration():
    config = RunConfig(spaces=("so-grassmannian",), m=1, n=1, samples=5)
    results = run_claims(config, prefix="cartan.")
    assert [r.claim_id for r in results] == [
        cid for cid in claim_ids(config) if cid.startswith("cartan.")]
    assert all(r.passed and r.max_residual > 0 for r in results)


def test_default_claim_count():
    assert len(claim_ids(RunConfig())) == 170


def test_eigen_claims_without_evidence_fail():
    # |phi| = 1e-6 everywhere: the residuals vanish with phi, so they
    # show nothing, and no eigenvalue can be fitted
    lam, mu = -4.0, -1.0
    values = np.full((6, 3), 1e-6, dtype=complex)
    tau = lam * values
    kappa = mu * np.einsum("pj,pk->pjk", values, values)
    lam_claim, mu_claim = _eigen_claims(("x.lambda", "x.mu"), "sphere", {},
                                        values, tau, kappa, lam, mu, 1e-8)
    for r in (lam_claim, mu_claim):
        assert not r.passed
        assert r.max_residual == 0.0
        assert r.measured is None
    assert "no sample had |phi| >= 1e-3" in lam_claim.detail
    assert "no sample had |phi psi| >= 1e-3" in mu_claim.detail
    # the same identities on values of order one pass
    values = 1e6 * values
    tau = lam * values
    kappa = mu * np.einsum("pj,pk->pjk", values, values)
    results = _eigen_claims(("x.lambda", "x.mu"), "sphere", {}, values, tau,
                            kappa, lam, mu, 1e-8)
    assert all(r.passed and r.detail == "" for r in results)


def test_table1_makes_one_cartan_pass(monkeypatch):
    # every fixed-alpha family of a job is one (alpha, member) grid of
    # trace forms: one Cartan pass per chunk, not one per alpha
    calls = []
    original = catalog.cartan_map_jet

    def counting(pair, jm):
        calls.append(jm.d1.shape)
        return original(pair, jm)

    monkeypatch.setattr(catalog, "cartan_map_jet", counting)
    config = RunConfig(spaces=("sp-grassmannian",), m=2, n=2, samples=CHUNK)
    results = run_claims(config, prefix="table1.")
    assert [r.claim_id for r in results] == [
        "table1.row10.lambda[m=2,n=2]", "table1.row10.mu[m=2,n=2]",
        "catalog.quat.new-range[m=2,n=2]"]
    assert all(r.passed for r in results)
    assert len(calls) == 1
