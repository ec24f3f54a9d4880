"""The claim engine: no claim can pass on zero evidence."""

import numpy as np
import pytest

from eigenlab.claims import RunConfig, _result, jobs_for, run_claims


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
