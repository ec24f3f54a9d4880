"""The claim engine: no claim can pass on zero evidence."""

import sys

import numpy as np
import pytest

from eigenlab import cartan, catalog, claims
from eigenlab.bases import square_sum
from eigenlab.claims import (CHUNK, RunConfig, _eigen_claims, _result,
                             jobs_for, run_claims)
from eigenlab.pairs import make_pair


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
        "cartan.factor4.kappa", "cartan.casimir"]
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
    assert len(claim_ids(RunConfig())) == 186


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


@pytest.fixture
def cartan_passes(monkeypatch):
    """The direction stacks of every cartan_map_jet call, counted in each
    eigenlab module that binds the function by name."""
    calls = []
    original = cartan.cartan_map_jet

    def counting(pair, jm):
        p = np.broadcast_to(jm.v, jm.d1.shape)
        calls.append(np.swapaxes(p, -1, -2).conj() @ jm.d1)
        return original(pair, jm)

    for name, mod in list(sys.modules.items()):
        if name.startswith("eigenlab") and \
                getattr(mod, "cartan_map_jet", None) is original:
            monkeypatch.setattr(mod, "cartan_map_jet", counting)
    return calls


def passes_along(calls, basis):
    # a pass pushes every direction of the basis at every point; p is
    # unitary, so p^H (p Z) recovers the direction Z
    return sum(Z.shape[-3:] == basis.shape
               and np.allclose(Z, basis, atol=1e-12) for Z in calls)


def test_table1_makes_no_cartan_jet_pass(cartan_passes):
    # table1 reads Phi and its jets from the closed form
    # (cartan_jets_closed): no jet goes through cartan_map_jet
    config = RunConfig(spaces=("sp-grassmannian",), m=2, n=2, samples=CHUNK)
    results = run_claims(config, prefix="table1.")
    assert [r.claim_id for r in results] == [
        "table1.row10.lambda[m=2,n=2]", "table1.row10.mu[m=2,n=2]",
        "catalog.quat.new-range[m=2,n=2]"]
    assert all(r.passed for r in results)
    assert cartan_passes == []


def test_full_run_pushes_p_and_k_basis_once(cartan_passes):
    # the cartan suite reads every claim from one p-basis and one k-basis
    # pass; no ambient-basis pass is left anywhere in the run
    config = RunConfig(spaces=("sp-grassmannian",), m=2, n=2, samples=CHUNK)
    results = run_claims(config)
    assert [r.claim_id for r in results] == claim_ids(config)
    assert all(r.passed for r in results)
    pair = make_pair("sp-grassmannian", m=2, n=2)
    assert [passes_along(cartan_passes, basis) for basis in (
        pair.ambient.elements, pair.p_basis, pair.k_basis)] == [0, 1, 1]
    assert len(cartan_passes) == 2


def _halved(pair, p):
    # Z(Phi) = p Z sigma(p)^-1: factor 1 instead of 2
    phi, d1, tension = cartan.cartan_jets_closed(pair, p)
    return phi, d1 / 2.0, tension


def _casimir_of_k(pair, p):
    # 4 p C_k sigma(p)^-1: the k-basis square sum in place of C_p
    phi, d1, _ = cartan.cartan_jets_closed(pair, p)
    s_inv = pair.sigma(np.swapaxes(p, -1, -2).conj())
    return phi, d1, 4.0 * (p @ square_sum(pair.k_basis) @ s_inv)


@pytest.mark.parametrize("wrong", [_halved, _casimir_of_k])
@pytest.mark.parametrize("space,m,n", [
    ("su-so", None, 3), ("sp-u", None, 2), ("so-u", None, 3),
    ("su-sp", None, 2), ("so-grassmannian", 1, 1), ("so-grassmannian", 2, 1),
    ("u-grassmannian", 1, 2), ("sp-grassmannian", 1, 1)])
def test_casimir_rejects_a_wrong_closed_form(monkeypatch, wrong, space, m, n):
    # negative control: the casimir claim fails loudly on a wrong closed
    # form, while the claims read from the jets alone still pass
    monkeypatch.setattr(claims, "cartan_jets_closed", wrong)
    results = run_claims(RunConfig(spaces=(space,), m=m, n=n, samples=4),
                         prefix="cartan.")
    casimir = [r for r in results if r.claim_id.startswith("cartan.casimir")]
    assert len(casimir) == 1
    assert not casimir[0].passed and casimir[0].max_residual >= 1e-3
    assert all(r.passed for r in results if r not in casimir)


@pytest.mark.parametrize("space,m,n", [("su-so", None, 3),
                                       ("so-grassmannian", 1, 1),
                                       ("sp-grassmannian", 1, 2)])
def test_cartan_results_do_not_depend_on_table1(space, m, n):
    # the cartan suite reads only its own passes, the same with or
    # without table1; CHUNK + 5 samples leave a partial last chunk
    config = RunConfig(spaces=(space,), m=m, n=n, samples=CHUNK + 5)
    alone = run_claims(config, prefix="cartan.")
    full = [r for r in run_claims(config)
            if r.claim_id.startswith("cartan.")]
    assert [r.claim_id for r in alone] == [
        cid for cid in claim_ids(config) if cid.startswith("cartan.")]
    assert alone == full


@pytest.mark.parametrize("n", [2, 3])
def test_row7_lambda_fails_with_its_sign_flipped(monkeypatch, n):
    # negative control: su-sp scores the table's lambda as stated, with no
    # sign fitted to the samples it scores, so a flipped sign must fail
    table = catalog.table_eigenvalues

    def flipped(space, m=None, n=None):
        lam, mu = table(space, m, n)
        return (-lam, mu) if space == "su-sp" else (lam, mu)

    monkeypatch.setattr(catalog, "table_eigenvalues", flipped)
    lam, mu = run_claims(RunConfig(spaces=("su-sp",), n=n, samples=8),
                         prefix="table1.")
    assert lam.claim_id == f"table1.row7.lambda[n={n}]"
    assert lam.expected == -table("su-sp", n=n)[0] > 0
    assert not lam.passed and lam.max_residual >= 1e-3
    assert mu.passed
