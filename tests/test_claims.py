"""The claim engine: no claim can pass on zero evidence."""

import re
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from eigenlab import ambient, cartan, catalog, claims, jets, operators, pairs
from eigenlab.bases import square_sum
from eigenlab.claims import (CHUNK, ConfigError, RunConfig, _eigen_claims,
                             _eigen_residuals, _result, jobs_for, run_claims,
                             validate_config)
from eigenlab.matrices import i_signature_doubled, metric
from eigenlab.pairs import make_pair
from eigenlab.report import build_report, emit_json_lines
from eigenlab.sampling import (SampleConfig, random_pair_points,
                               random_sphere_points)


def claim_ids(config):
    return [cid for job in jobs_for(config) for cid in job.claim_ids]


@pytest.mark.parametrize("config,message", [
    (RunConfig(spaces=("lens-space",)), "unknown space 'lens-space'"),
    (RunConfig(spaces=()), "empty space selection"),
    (RunConfig(samples=0), "samples must be a positive integer"),
    (RunConfig(tol=0.0), "tolerance must be positive"),
    (RunConfig(tol=-1e-8), "tolerance must be positive"),
    (RunConfig(tol=float("nan")), "tolerance must be positive"),
    (RunConfig(seed=-1), "seed must be non-negative"),
    (RunConfig(fmt="xml"), "unknown format 'xml'"),
    (RunConfig(n=2), "require a single --space selection"),
    (RunConfig(spaces=("sphere", "cpn"), n=2),
     "require a single --space selection"),
    (RunConfig(spaces=("basis",), n=2), "sizes are fixed for the 'basis'"),
    (RunConfig(spaces=("polynomial",), m=1, n=1),
     "sizes are fixed for the 'polynomial'"),
    (RunConfig(spaces=("product",), n=1), "sizes are fixed for the 'product'"),
    (RunConfig(spaces=("su-so",), n=4), "n must lie in 1..3"),
    (RunConfig(spaces=("sphere",), n=0), "n must lie in 1..3"),
    (RunConfig(spaces=("u-grassmannian",), m=0, n=1), "m must lie in 1..3"),
    (RunConfig(spaces=("sp-grassmannian",), n=1),
     "'sp-grassmannian' needs both --m and --n"),
    (RunConfig(spaces=("so-grassmannian",), m=1),
     "'so-grassmannian' needs both --m and --n"),
    (RunConfig(spaces=("su-so",), m=1, n=2), "'su-so' takes --n only"),
    (RunConfig(spaces=("cpn",), m=2), "'cpn' takes --n only"),
    (RunConfig(spaces=("su-sp",), n=1), "'su-sp' requires n >= 2"),
    (RunConfig(spaces=("so-u",), n=1), "'so-u' requires n >= 2"),
    (RunConfig(tol=float("inf")), "tolerance must be positive and finite"),
])
def test_config_rules(config, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        validate_config(config)


def _cartan_ids(params):
    return [f"cartan.{kind}[{params}]"
            for kind in ("k-invariance", "harmonic", "pullback", "vertical",
                         "factor4.tau", "factor4.kappa", "casimir")]


@pytest.mark.parametrize("config,ids", [
    (RunConfig(spaces=("su-so",), n=3),
     ["table1.row4.lambda[n=3]", "table1.row4.mu[n=3]",
      "scheme.completeness[space=su-so,n=3]"]
     + _cartan_ids("space=su-so,n=3")),
    (RunConfig(spaces=("sp-grassmannian",), m=3, n=1),
     ["table1.row10.lambda[m=3,n=1]", "table1.row10.mu[m=3,n=1]",
      "catalog.quat.new-range[m=3,n=1]",
      "scheme.completeness[space=sp-grassmannian,m=3,n=1]",
      "prop7.1.tau[m=3,n=1]", "prop7.1.kappa[m=3,n=1]"]
     + _cartan_ids("space=sp-grassmannian,m=3,n=1")),
    (RunConfig(spaces=("sphere",), n=3), ["sphere.lambda[n=3]",
                                          "sphere.mu[n=3]"]),
    (RunConfig(spaces=("cpn",), n=3), ["cpn.lambda[n=3]", "cpn.mu[n=3]"]),
])
def test_size_override_replaces_the_default_sizes(config, ids):
    assert claim_ids(config) == ids


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
    assert len(claim_ids(RunConfig())) == 202


def test_default_results_carry_the_registered_ids():
    # claim ids are formatted once, by jobs_for; each runner reports
    # exactly the ids its job registered, in order
    config = RunConfig()
    assert [r.claim_id for r in run_claims(config)] == claim_ids(config)


def test_eigen_claims_without_evidence_fail():
    # |phi| = 1e-6 everywhere: the residuals vanish with phi, so they
    # show nothing, and no eigenvalue can be fitted
    lam, mu = -4.0, -1.0
    values = np.full((6, 3), 1e-6, dtype=complex)
    tau = lam * values
    kappa = mu * np.einsum("pj,pk->pjk", values, values)
    lam_claim, mu_claim = _eigen_claims(
        ("x.lambda", "x.mu"), "sphere", {},
        _eigen_residuals(values, tau, kappa, lam, mu), 1e-8)
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
    results = _eigen_claims(("x.lambda", "x.mu"), "sphere", {},
                            _eigen_residuals(values, tau, kappa, lam, mu),
                            1e-8)
    assert all(r.passed and r.detail == "" for r in results)


def unsliced_eigen_scores(values, tau, kappa, lam, mu):
    """(residuals, ev, fit) of tau = lam phi and kappa = mu phi psi by the
    formula over whole arrays, whose fit sums every entry with
    |den| >= 1e-3 in one reduction: the scorer's residuals have its bits,
    its fits agree to FIT_RTOL."""
    prod = np.einsum("...j,...k->...jk", values, values)
    out = []
    for x, den, ev in ((tau, values, lam), (kappa, prod, mu)):
        ref = ev * den
        res = np.abs(x - ref) / np.maximum(1.0, np.abs(ref))
        num, den = x.ravel(), den.ravel()
        mask = np.abs(den) >= 1e-3
        d = den[mask]
        out.append((res, ev, complex((num[mask] * d.conj()).sum()
                                     / (np.abs(d) ** 2).sum())))
    return out


def per_point_eigen_scores(values, tau, kappa, lam, mu):
    """(residuals, ev, fit) with each point scored alone: its fit's two
    sums over its own entries with |den| >= 1e-3, then summed over the
    points.  The reference of the scorer's bits."""
    parts = [([], [], []), ([], [], [])]
    for v, t, k in zip(values, tau, kappa):
        prod = np.einsum("...j,...k->...jk", v, v)
        for (res, num, sq), x, den, ev in zip(parts, (t, k), (v, prod),
                                              (lam, mu)):
            ref = ev * den
            res.append(np.abs(x - ref) / np.maximum(1.0, np.abs(ref)))
            x, den = x.ravel(), den.ravel()
            keep = np.abs(den) >= 1e-3
            num.append(np.where(keep, np.multiply(x, den.conj()), 0).sum())
            sq.append(np.where(keep, np.abs(den) ** 2, 0.0).sum())
    return [(np.array(res), ev, complex(np.sum(num) / np.sum(sq)))
            for (res, num, sq), ev in zip(parts, (lam, mu))]


# The scorer's fits against the whole-array formula's, which sums the same
# terms in another order (the worst seen is 4e-16, on the default reports
# at seeds 0 and 1).
FIT_RTOL = 2e-15


def assert_scores_match(got, per_point, unsliced):
    assert len(got) == len(per_point) == len(unsliced) == 2
    for (res, ev, fit), (r, e, f), (r0, e0, f0) in zip(got, per_point,
                                                       unsliced):
        assert np.array_equal(res, r) and np.array_equal(res, r0)
        assert ev == e == e0 and fit == f
        assert abs(fit - f0) <= FIT_RTOL * abs(f0)


@pytest.mark.parametrize("chunk", [CHUNK, 7, 1])
def test_table1_scores_do_not_depend_on_the_pass_size(monkeypatch, chunk):
    # the quat-sized (300, 12, 11, 11) kappa grid is scored as the sweep
    # makes it, in passes of CHUNK points, of 7 or of 1: every field of the
    # three table1 claims has the bits of each point scored alone, and
    # each fit is the whole-array formula's up to FIT_RTOL
    monkeypatch.setattr(claims, "CHUNK", chunk)
    monkeypatch.setattr(claims, "BUDGET", 0)
    config = RunConfig(spaces=("sp-grassmannian",), m=3, n=3, samples=300)
    job = next(j for j in jobs_for(config) if j.kind == "table1")
    cache = claims._Cache(config, [job])
    got = job.run(cache)

    pair, blocks = (cache.pair("sp-grassmannian", 3, 3),
                    cache.blocks("sp-grassmannian", 3, 3))
    grid = catalog.stack_members(map(catalog.stack_members, blocks))
    points = random_pair_points(pair, SampleConfig(seed=0), range(300))
    values, tau, kappa = claims._table1_ops(
        pair, grid, operators.one_hot_scale(pair, grid.plan), points,
        cartan.map_tension_closed(pair, points))
    assert kappa.shape == (300, 12, 11, 11)
    args = (values, tau, kappa, blocks[0][0].lam, blocks[0][0].mu)
    scores = per_point_eigen_scores(*args)
    params = {"m": 3, "n": 3}
    want = claims._eigen_claims(job.claim_ids[:2], "sp-grassmannian",
                                params, scores, 1e-8)
    new = np.array([[alpha > 6 or mm.params["j"] > 6 for mm in members]
                    for alpha, members in enumerate(blocks, 1)])
    (res_tau, *_), (res_kappa, *_) = scores
    want.append(claims._result(
        job.claim_ids[2], "sp-grassmannian", params, 300,
        np.concatenate([res_tau[:, new],
                        res_kappa[:, new].reshape(300, -1)], axis=1),
        None, None, 1e-8, detail="indices j or alpha in 7..12"))
    res = claims._completeness_residuals(pair)
    want.append(claims._result(
        job.claim_ids[3], "sp-grassmannian", params, 0, res, None, None,
        1e-10, detail="sum_X tr(X U) X = -P_p(U) at the 144 U = E_ij"))
    assert got == want
    assert_scores_match(scores, scores, unsliced_eigen_scores(*args))


def _noisy_grid(points):
    """A (points, 12, 11) family grid with its tau and its
    (points, 12, 11, 11) kappa, off by noise; some entries fall below the
    fit's threshold."""
    rng = np.random.default_rng(2)
    values = (rng.normal(size=(points, 12, 11))
              + 1j * rng.normal(size=(points, 12, 11)))
    values[::7] *= 1e-4
    tau = -3.0 * values + 1e-12 * rng.normal(size=values.shape)
    kappa = -0.5 * np.einsum("...j,...k->...jk", values, values)
    return values, tau, kappa


def _scored(points, step, values, tau, kappa):
    scores = claims._EigenScores(points, -3.0, -0.5)
    for lo in range(0, points, step):
        scores.add(values[lo:lo + step], tau[lo:lo + step],
                   kappa[lo:lo + step])
    return scores.results()


def test_eigen_scores_do_not_depend_on_the_slices():
    # at a (50, 12, 11, 11) kappa grid, where slices of 12 points or more
    # put conj(den) over numpy's 256 KB threshold for reusing temporaries,
    # slices of 1, 7 and 12 points and of all 50 give the bits of each
    # point scored alone, and _eigen_residuals, one slice, gives them too
    grid = _noisy_grid(50)
    per_point = per_point_eigen_scores(*grid, -3.0, -0.5)
    unsliced = unsliced_eigen_scores(*grid, -3.0, -0.5)
    for step in (1, 7, 12, 50):
        assert_scores_match(_scored(50, step, *grid), per_point, unsliced)
    assert_scores_match(_eigen_residuals(*grid, -3.0, -0.5), per_point,
                        unsliced)


def test_scoring_a_quat_sized_grid_holds_little_past_its_residuals():
    # scoring the (300, 12, 11, 11) kappa grid in passes of CHUNK points
    # keeps its residuals, 3.5 MiB, two sums per point and claim and one
    # pass's temporaries: its tracemalloc peak stays below 8 MiB
    grid = _noisy_grid(300)
    _scored(300, CHUNK, *grid)
    tracemalloc.start()
    try:
        _scored(300, CHUNK, *grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


@pytest.fixture
def cartan_passes(monkeypatch):
    """The direction stacks of every cartan_map_jet call, counted in each
    eigenlab module that binds the function by name."""
    calls = []
    original = cartan.cartan_map_jet

    def counting(pair, jm):
        # the directions of the jet, or of the first-order jets of a
        # block (d1 of shape (1, dirs, ...)), moved after the point axes
        d1 = jm.d1.reshape((-1,) + jm.v.shape)
        Z = np.swapaxes(jm.v, -1, -2).conj() @ d1
        calls.append(np.moveaxis(Z, 0, -3))
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
    # table1 reads Phi and its tension from the closed form
    # (cartan.map_tension_closed): no jet goes through cartan_map_jet
    config = RunConfig(spaces=("sp-grassmannian",), m=2, n=2, samples=CHUNK)
    results = run_claims(config, prefix="table1.")
    assert [r.claim_id for r in results] == [
        "table1.row10.lambda[m=2,n=2]", "table1.row10.mu[m=2,n=2]",
        "catalog.quat.new-range[m=2,n=2]",
        "scheme.completeness[space=sp-grassmannian,m=2,n=2]"]
    assert all(r.passed for r in results)
    assert cartan_passes == []


# table1's entries route against the p-projection kappa
# (operators.form_kappa), relative to the latter's largest entry: both
# round differently (the worst seen is 5.4e-16, at sp-grassmannian(2,2))
ENTRY_RTOL = 1e-15


@pytest.mark.parametrize("space,m,n", [
    (space, m, n) for space in ("u-grassmannian", "sp-grassmannian")
    for m, n in claims.DEFAULT_SIZES[space]] + [("sp-grassmannian", 3, 3)])
def test_table1_entries_match_the_closed_jets(space, m, n):
    # the route table1 takes on one-hot grids is tied to the one it takes
    # on every other space: its values and tau are the bits of the
    # latter's, its kappa form_kappa's up to ENTRY_RTOL
    cache = claims._Cache(RunConfig(samples=40), [])
    pair = cache.pair(space, m, n)
    grid = catalog.stack_members(map(catalog.stack_members,
                                     cache.blocks(space, m, n)))
    pts = random_pair_points(pair, SampleConfig(seed=0), range(40))
    closed = cartan.map_tension_closed(pair, pts)
    (values, tau, kappa), (v, t, k) = (
        claims._table1_ops(pair, grid, scale, pts, closed)
        for scale in (operators.one_hot_scale(pair, grid.plan), None))
    assert np.array_equal(values, v) and np.array_equal(tau, t)
    assert kappa.shape == k.shape
    assert np.abs(kappa - k).max() <= ENTRY_RTOL * np.abs(k).max()


def _wrong_alpha(monkeypatch):
    # each member's kappa read off the forms of the next alpha
    table1_ops = claims._table1_ops

    def shifted(*args):
        values, tau, kappa = table1_ops(*args)
        return values, tau, np.roll(kappa, 1, axis=-3)

    monkeypatch.setattr(claims, "_table1_ops", shifted)


def _swapped_scale(monkeypatch):
    # each space's one-hot factor on the other space
    monkeypatch.setattr(operators, "_ONE_HOT_SCALE", {
        "u-grassmannian": -1.0, "sp-grassmannian": -2.0})


def _s_for_j(monkeypatch):
    # S in place of J in P_p: sp-grassmannian(1,2)'s signature as its
    # symplectic form
    monkeypatch.setattr(operators, "j_matrix",
                        lambda size: i_signature_doubled(1, 2))


def _flipped_transpose_term(monkeypatch):
    # P_p's term in J^-1 U^T J, from which the entry formula's Q R and
    # J^-1 J terms come, with its sign flipped: i J in place of J
    j_matrix = operators.j_matrix
    monkeypatch.setattr(operators, "j_matrix",
                        lambda size: 1j * j_matrix(size))


@pytest.mark.parametrize("wrong,space,failing", [
    (_wrong_alpha, "u-grassmannian", ("mu",)),
    (_wrong_alpha, "sp-grassmannian", ("mu", "new-range")),
    (_swapped_scale, "u-grassmannian", ("mu",)),
    (_swapped_scale, "sp-grassmannian", ("mu", "new-range")),
    (_s_for_j, "sp-grassmannian", ("completeness",)),
    (_flipped_transpose_term, "sp-grassmannian", ("completeness",))])
def test_a_wrong_scheme_fails_its_claim(monkeypatch, wrong, space, failing):
    # negative controls of the entries route.  Kappa read at the wrong
    # alpha, or with the other space's factor, fails table1's mu claim and
    # the new range's by 1e-3 or more, while lambda, read off the closed
    # forms of Phi and of its tension, passes.  A P_p with S in place of J, or
    # with its transpose term flipped, fails scheme.completeness, the
    # report's check of the identity the factor rests on
    wrong(monkeypatch)
    results = run_claims(RunConfig(spaces=(space,), m=1, n=2, samples=8),
                         prefix="table1.")
    assert [r.claim_id.split("[")[0].split(".")[-1] for r in results] == (
        ["lambda", "mu"] + ["new-range"] * (space == "sp-grassmannian")
        + ["completeness"])
    for r in results:
        fails = r.claim_id.split("[")[0].split(".")[-1] in failing
        assert r.passed != fails, r.claim_id
        assert not fails or r.max_residual >= 1e-3, r.claim_id


@pytest.mark.parametrize("space", ["u-grassmannian", "sp-grassmannian",
                                   "su-so", "sp-u", "so-u", "su-sp",
                                   "so-grassmannian"])
def test_completeness_fails_a_wrong_basis_or_involution(space):
    # the built p-basis completes to P_p at every default size up to one
    # rounding; a p-basis short of one element, or an involution with the
    # first row of its conjugator (the identity on su-so) negated, misses
    # it by a quarter or more
    for m, n in claims.DEFAULT_SIZES[space]:
        pair = make_pair(space, m=m, n=n)
        assert claims._completeness_residuals(pair).max() <= 4e-16
    short = replace(pair, p_basis=pair.p_basis[1:])
    sigma = pair.sigma
    M = (np.eye(pair.matrix_size) if sigma.conjugator is None
         else sigma.conjugator.copy())
    M[0] = -M[0]
    flipped = replace(pair, sigma=pairs.Involution(
        conjugator=M, entrywise_conj=sigma.entrywise_conj))
    for wrong in (short, flipped):
        assert claims._completeness_residuals(wrong).max() >= 0.25


class _NegatedInverse(pairs.Involution):
    """An involution whose sigma.inverse carries the wrong sign."""

    def inverse(self, q):
        return -super().inverse(q)


@pytest.mark.parametrize("space,n", [("su-so", 2), ("su-so", 3),
                                     ("su-sp", 2)])
def test_completeness_fails_a_wrong_transpose_or_trace_term(space, n):
    # on the entrywise-conjugating pairs P_p takes dsigma as the transpose
    # term -M U^T M^H, and on su Proj_g subtracts tr(U) I / N: that term
    # with its sign flipped, or the trace term dropped (P_p of u, the pair
    # otherwise the same), misses the built p-basis by a quarter or more
    pair = make_pair(space, n=n)
    negated = replace(pair, sigma=_NegatedInverse(
        conjugator=pair.sigma.conjugator, entrywise_conj=True))
    for wrong in (negated, replace(pair, group="u")):
        assert claims._completeness_residuals(wrong).max() >= 0.25


@pytest.mark.parametrize("space", ["u-grassmannian", "sp-grassmannian"])
def test_a_quat_sized_table1_pass_forms_no_first_derivative(monkeypatch,
                                                            space):
    # on the one-hot grids table1 reads kappa off entries of Phi: a pass
    # of CHUNK points at (3,3) makes no Gram product and takes trace forms
    # of Phi and its tension only, not of their first derivatives
    grams, forms = [], []
    gram, trace_form = jets.gram, jets.trace_form

    def spy(a, B):
        forms.append(np.shape(a))
        return trace_form(a, B)

    for mod in (jets, claims, operators):
        if getattr(mod, "gram", None) is gram:
            monkeypatch.setattr(mod, "gram",
                                lambda *a: grams.append(a) or gram(*a))
        monkeypatch.setattr(mod, "trace_form", spy)
    results = run_claims(RunConfig(spaces=(space,), m=3, n=3, samples=CHUNK),
                         prefix="table1.")
    assert all(r.passed for r in results)
    N = make_pair(space, m=3, n=3).matrix_size
    assert grams == []
    assert forms == [(CHUNK, N, N)] * 2


def test_full_run_pushes_p_and_k_basis_once(cartan_passes):
    # the cartan suite reads every claim from one pass along the p-basis
    # then the k-basis, streamed in blocks of directions: all the Cartan
    # jets of the run, in order, are along the two bases once at every
    # point, so no pass along the ambient basis or along one of the two
    # bases alone is left anywhere in the run.  At sp-grassmannian(3,3) a
    # pass of CHUNK points holds 19.5 cartan.BLOCK, so it makes twenty
    # blocks.
    config = RunConfig(spaces=("sp-grassmannian",), m=3, n=3, samples=CHUNK)
    results = run_claims(config)
    assert [r.claim_id for r in results] == claim_ids(config)
    assert all(r.passed for r in results)
    pair = make_pair("sp-grassmannian", m=3, n=3)
    size = cartan.BLOCK // (CHUNK * pair.matrix_size ** 2)
    assert [Z.shape[-3] for Z in cartan_passes] == ([size] * 19
                                                     + [78 - 19 * size])
    directions = [np.concatenate(cartan_passes, axis=-3)]
    assert [passes_along(directions, basis) for basis in (
        np.concatenate([pair.p_basis, pair.k_basis]), pair.ambient.elements,
        pair.p_basis, pair.k_basis)] == [1, 0, 0, 0]


def test_poly_and_product_make_no_cartan_jet_pass(cartan_passes):
    # the polynomial and product suites read the same closed-form trace
    # forms as table1: no jet goes through cartan_map_jet
    config = RunConfig(spaces=("polynomial", "product"), samples=CHUNK)
    results = run_claims(config)
    assert [r.claim_id for r in results] == claim_ids(config)
    assert all(r.passed for r in results)
    assert cartan_passes == []


@pytest.mark.parametrize("space,passes", [("sphere", (8, 2)),
                                          ("cpn", (8, 4))])
def test_ambient_jobs_read_values_from_the_jet_pass(monkeypatch, space,
                                                    passes):
    # (value passes, jet passes) of the stacked fields of the two jobs:
    # the values come from the jet pass with tau and kappa, so the only
    # value passes left are the invariance check's 4 per job
    counts = [0, 0]
    made = []
    stack_fields = ambient.stack_fields

    def counting(fields):
        F = stack_fields(fields)
        made.append(F)

        def ev(z):
            counts[bool(np.any(z.d1))] += 1
            return F.evaluator(z)

        return ambient.AmbientField(ev, F.n)

    monkeypatch.setattr(ambient, "stack_fields", counting)
    config = RunConfig(spaces=(space,), samples=8)
    results = run_claims(config)
    assert [r.claim_id for r in results] == claim_ids(config)
    assert all(r.passed for r in results)
    assert tuple(counts) == passes
    ops = {"sphere": ambient.sphere_ops, "cpn": ambient.cpn_ops}[space]
    for F in made:
        x = random_sphere_points(F.n, "test", SampleConfig(seed=13), range(5))
        assert np.array_equal(ops(F, x)[0], F.value(x))


def test_prop71_and_factor4_share_one_image_pass(monkeypatch):
    # prop7.1 and cartan.factor4 both read the whole alpha = 1 stack's
    # image pass: one image pass per space (operators._image_ops, handed
    # the sweep's Phi)
    calls = []
    original = claims._image_ops

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(claims, "_image_ops", counting)
    config = RunConfig(spaces=("sp-grassmannian",), m=1, n=1, samples=8)
    results = run_claims(config)
    assert [r.claim_id for r in results] == claim_ids(config)
    assert all(r.passed for r in results)
    assert len(calls) == 1


def test_factor4_reads_the_last_new_range_member(monkeypatch):
    # negative control: the image kappa of the last alpha = 1 member,
    # j = 2(m + n), a new-range member, scaled by 1.001 in its row and
    # column, fails the claims that read the whole image pass, each by
    # 1e-4 or more: cartan.factor4.kappa at every default size and
    # prop7.1.kappa, and nothing else
    config = RunConfig(spaces=("sp-grassmannian",))
    sizes = claims.DEFAULT_SIZES["sp-grassmannian"]
    cache = claims._Cache(config, [])
    assert [cache.family("sp-grassmannian", m, n)[-1].params["j"]
            for m, n in sizes] == [2 * (m + n) for m, n in sizes]
    original = claims._image_ops

    def scaled(*args):
        value, tau, kappa = original(*args)
        kappa = kappa.copy()
        kappa[..., -1, :] *= 1.001
        kappa[..., :, -1] *= 1.001
        return value, tau, kappa

    monkeypatch.setattr(claims, "_image_ops", scaled)
    results = run_claims(config)
    failing = [r.claim_id for r in results if not r.passed]
    assert failing == ["prop7.1.kappa[m=1,n=1]"] + [
        f"cartan.factor4.kappa[space=sp-grassmannian,m={m},n={n}]"
        for m, n in sizes]
    assert all(r.max_residual >= 1e-4 for r in results if not r.passed)


def test_a_point_set_is_drawn_once_and_imaged_pass_by_pass(monkeypatch):
    # a 300-sample sp-grassmannian(3,3) run draws its points, and its
    # points of K, once, and makes one image pass per pass of the sweep,
    # each on at most _pass_size points
    calls = {name: [] for name in ("random_pair_points",
                                   "random_subgroup_points", "_image_ops")}

    def counting(name):
        original = getattr(claims, name)

        def spy(*args):
            calls[name].append(len(args[-1]))
            return original(*args)

        return spy

    for name in calls:
        monkeypatch.setattr(claims, name, counting(name))
    config = RunConfig(spaces=("sp-grassmannian",), m=3, n=3, samples=300)
    results = run_claims(config)
    assert [r.claim_id for r in results] == claim_ids(config)
    assert all(r.passed for r in results)
    size = claims._pass_size(make_pair("sp-grassmannian", m=3, n=3))
    assert calls["random_pair_points"] == calls["random_subgroup_points"] \
        == [300]
    assert len(calls["_image_ops"]) == -(-300 // size)
    assert sum(calls["_image_ops"]) == 300
    assert max(calls["_image_ops"]) <= size


def test_every_sweep_part_made_is_read():
    # the sweep makes a part only for a job that reads its point set: after
    # a default run none is left unread (a prop7.1 part made at every
    # sp-grassmannian size would be, but at (1,1))
    config = RunConfig()
    jobs = jobs_for(config)
    cache = claims._Cache(config, jobs)
    for job in jobs:
        job.run(cache)
    assert cache._sweeps and not any(cache._sweeps.values())


def test_only_the_eigen_outer_products_call_einsum(monkeypatch):
    # sampling, the harmonic projection and the image pass contract by
    # gather or gemm; what is left is the phi psi outer product of each
    # eigen claim pair and one square_sum per curve plan of a pair, two
    # per pair and run
    callers = []
    einsum = np.einsum

    def spy(*args, **kwargs):
        caller = sys._getframe(1)
        callers.append((caller.f_globals["__name__"],
                        caller.f_code.co_name))
        return einsum(*args, **kwargs)

    monkeypatch.setattr(np, "einsum", spy)
    for space, m, n in (("sp-grassmannian", 1, 1), ("su-sp", None, 2)):
        results = run_claims(RunConfig(spaces=(space,), m=m, n=n, samples=8))
        assert all(r.passed for r in results)
    # table1 and prop7.1 on sp-grassmannian, table1 on su-sp, each
    # scored in one slice
    assert sorted(callers) == [("eigenlab.bases", "square_sum")] * 4 + [
        ("eigenlab.claims", "add")] * 3


def _half_tension(pair, p):
    # 2 p C_p sigma(p)^-1: half the closed-form tension
    Phi, T = cartan.map_tension_closed(pair, p)
    return Phi, T / 2.0


def test_poly_and_product_reject_half_the_tension(monkeypatch):
    # negative control: tau of a polynomial or product member reads the
    # tension form, kappa reads only the first derivatives
    monkeypatch.setattr(claims, "map_tension_closed", _half_tension)
    results = run_claims(RunConfig(spaces=("polynomial", "product"),
                                   samples=8))
    lam = [r for r in results if ".lambda" in r.claim_id]
    mu = [r for r in results if ".mu" in r.claim_id]
    assert len(lam) == len(mu) == 5 and len(results) == 10
    assert all(not r.passed and r.max_residual >= 1e-3 for r in lam)
    assert all(r.passed for r in mu)


def test_form_kappa_at_half_its_factor_fails_the_dense_mu_claims(monkeypatch):
    # negative control: kappa = -4 tr(P_p(s A p) s B p).  Read with -2 in
    # place of -4, it fails exactly the claims that read it, the mu claims
    # of table1's rows 4-8, each by 1e-3 or more.  Every other claim, the
    # one-hot grids and the polynomial and product suites, read off
    # entries, among them, still passes
    form_kappa = claims.form_kappa
    monkeypatch.setattr(claims, "form_kappa",
                        lambda *args: form_kappa(*args) / 2.0)
    results = run_claims(RunConfig(samples=8))
    failing = [r.claim_id for r in results if not r.passed]
    assert failing == [r.claim_id for r in results
                       if re.match(r"table1\.row[4-8]\.mu", r.claim_id)]
    assert len(failing) == 10
    assert all(r.max_residual >= 1e-3 for r in results if not r.passed)


def test_a_swapped_scale_fails_the_suites_reading_it(monkeypatch):
    # negative control: the polynomial and product suites read their
    # forms' kappa as the one-hot factor (claims._form_jet).  With each
    # space's factor on the other space, product.mu fails, and so does
    # every polynomial claim, whose tau takes kappa in the product rule's
    # cross term, each by 1e-3 or more; product.lambda, tau1 phi2 +
    # phi1 tau2, reads no kappa and passes
    _swapped_scale(monkeypatch)
    results = run_claims(RunConfig(spaces=("polynomial", "product"),
                                   samples=8))
    assert len(results) == 10
    for r in results:
        assert r.passed == r.claim_id.startswith("product.lambda"), \
            r.claim_id
        assert r.passed or r.max_residual >= 1e-3, r.claim_id


def _halved(monkeypatch):
    # Z(Phi) = p Z sigma(p)^-1: factor 1 instead of 2
    closed = claims._closed_derivs
    monkeypatch.setattr(claims, "_closed_derivs",
                        lambda *args: closed(*args) / 2.0)


def _casimir_of_k(monkeypatch):
    # 4 p C_k sigma(p)^-1: the k-basis square sum in place of C_p
    def wrong(pair, p):
        Phi, _ = cartan.map_tension_closed(pair, p)
        s_inv = pair.sigma(np.swapaxes(p, -1, -2).conj())
        return Phi, 4.0 * (p @ square_sum(pair.k_basis) @ s_inv)

    monkeypatch.setattr(claims, "map_tension_closed", wrong)


@pytest.mark.parametrize("wrong", [_halved, _casimir_of_k])
@pytest.mark.parametrize("space,m,n", [
    ("su-so", None, 3), ("sp-u", None, 2), ("so-u", None, 3),
    ("su-sp", None, 2), ("so-grassmannian", 1, 1), ("so-grassmannian", 2, 1),
    ("u-grassmannian", 1, 2), ("sp-grassmannian", 1, 1)])
def test_casimir_rejects_a_wrong_closed_form(monkeypatch, wrong, space, m, n):
    # negative control: the casimir claim fails loudly on a wrong closed
    # form, while the claims read from the jets alone still pass
    wrong(monkeypatch)
    results = run_claims(RunConfig(spaces=(space,), m=m, n=n, samples=4),
                         prefix="cartan.")
    casimir = [r for r in results if r.claim_id.startswith("cartan.casimir")]
    assert len(casimir) == 1
    assert not casimir[0].passed and casimir[0].max_residual >= 1e-3
    assert all(r.passed for r in results if r not in casimir)


@pytest.mark.parametrize("space,m,n", [("su-so", None, 3),
                                       ("so-grassmannian", 1, 1),
                                       ("sp-grassmannian", 1, 2)])
def test_cartan_results_do_not_depend_on_table1(monkeypatch, space, m, n):
    # the cartan suite reads only its own passes, the same with or
    # without table1; with passes of CHUNK points, CHUNK + 5 samples
    # leave a partial last pass
    monkeypatch.setattr(claims, "BUDGET", 0)
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
    lam, mu, scheme = run_claims(
        RunConfig(spaces=("su-sp",), n=n, samples=8), prefix="table1.")
    assert lam.claim_id == f"table1.row7.lambda[n={n}]"
    assert lam.expected == -table("su-sp", n=n)[0] > 0
    assert not lam.passed and lam.max_residual >= 1e-3
    assert mu.passed and scheme.passed


def test_each_family_is_built_once(monkeypatch):
    # table1, the cartan suite and the image pass all read the alpha = 1
    # family of a space: a run builds each (space, m, n, alpha) once
    calls = []
    original = catalog.family_for_space

    def counting(space, m=None, n=None, alpha=1, **kwargs):
        calls.append((space, m, n, alpha))
        return original(space, m=m, n=n, alpha=alpha, **kwargs)

    monkeypatch.setattr(catalog, "family_for_space", counting)
    results = run_claims(RunConfig(samples=4))
    assert all(r.passed for r in results)
    assert len(calls) == len(set(calls)) > 0


def test_sampled_claims_score_residuals_point_major(monkeypatch):
    # every claim read from samples hands _result its residuals with the
    # sample axis first, so they can be read point by point
    shapes = {}
    original = claims._result

    def recording(claim_id, space, params, samples, residuals, *args,
                  **kwargs):
        if samples > 0:
            shapes[claim_id] = np.shape(residuals)
        return original(claim_id, space, params, samples, residuals, *args,
                        **kwargs)

    monkeypatch.setattr(claims, "_result", recording)
    run_claims(RunConfig(samples=7))
    assert shapes
    assert [c for c, shape in shapes.items() if shape[:1] != (7,)] == []


def test_a_wrong_involution_fails_the_cartan_claims(monkeypatch):
    # negative control: a signed permutation that is not the pair's
    # involution (the doubled signature with its first sign flipped) keeps
    # the k/p split but must fail every claim read from Phi's jets
    make = claims.make_pair

    def wrong(space, m=None, n=None):
        pair = make(space, m=m, n=n)
        M = i_signature_doubled(m, n)
        M[0, 0] = -M[0, 0]
        return replace(pair, sigma=replace(pair.sigma, conjugator=M))

    monkeypatch.setattr(claims, "make_pair", wrong)
    results = run_claims(RunConfig(spaces=("sp-grassmannian",), m=1, n=1,
                                   samples=32), prefix="cartan.")
    failed = {r.claim_id.split("[")[0]: r.max_residual
              for r in results if not r.passed}
    for kind in ("k-invariance", "pullback", "vertical", "casimir"):
        assert failed[f"cartan.{kind}"] >= 1e-3


def _flipped(plan, dim_p_terms):
    # each term's row with its sign flipped
    return plan._replace(right=-plan.right)


def _k_dropped(plan, dim_p_terms):
    # the terms of the k-basis left out
    return plan._replace(**{f: getattr(plan, f)[:dim_p_terms]
                            for f in ("cols", "left", "index", "right")})


def _mispaired(plan, dim_p_terms):
    # each column by the row of the term before it
    return plan._replace(index=np.roll(plan.index, 1, axis=0),
                         right=np.roll(plan.right, 1, axis=0))


@pytest.mark.parametrize("wrong,fails", [
    (_flipped, {"factor4.tau", "casimir"}),
    (_k_dropped, {"factor4.tau", "casimir"}),
    (_mispaired, {"harmonic", "factor4.tau", "casimir"})])
def test_a_wrong_cross_plan_fails_the_tension_claims(monkeypatch, wrong,
                                                     fails):
    # negative control: a corrupted plan of the tension's cross term
    # fails the claims read from the tension, and only those.  A flipped
    # or a lost term errs by Phi(p) times a hermitian matrix, which is
    # normal to the group, so the harmonic claim, the tangential part,
    # does not see it; terms paired with the wrong rows are seen by all
    from eigenlab import pairs
    planned = pairs.SymmetricPair.cross_plan.func
    monkeypatch.setattr(pairs.SymmetricPair, "cross_plan", property(
        lambda pair: wrong(planned(pair), np.count_nonzero(
            pair.pk_plan.weights[:pair.dim_p]))))
    results = run_claims(RunConfig(spaces=("sp-grassmannian",), m=1, n=1,
                                   samples=8), prefix="cartan.")
    failed = {r.claim_id[len("cartan."):].split("[")[0]: r.max_residual
              for r in results if not r.passed}
    assert set(failed) == fails
    assert min(failed.values()) >= 0.1


def test_full_run_makes_one_closed_form_pass_per_chunk(monkeypatch):
    # table1 and the cartan job read the closed-form Phi and tension from
    # one sweep of their point set: at quat-scale, 10 passes over 300
    # points, at the floor of CHUNK = 32 points each, and 10
    # map_tension_closed calls, where one per job would make 20
    calls = []
    original = claims.map_tension_closed

    def counting(pair, p):
        calls.append(len(p))
        return original(pair, p)

    monkeypatch.setattr(claims, "map_tension_closed", counting)
    config = RunConfig(spaces=("sp-grassmannian",), m=3, n=3, samples=300)
    results = run_claims(config)
    assert [r.claim_id for r in results] == claim_ids(config)
    assert all(r.passed for r in results)
    assert calls == [32] * 9 + [12]


def test_a_default_run_makes_each_closed_jet_once(monkeypatch):
    # the sweep hands each pass's closed Phi and tension to every job that
    # reads its points, the polynomial and product jobs too: a default
    # run makes 21 map_tension_closed calls, none on points already swept
    calls = []
    original = claims.map_tension_closed

    def counting(pair, p):
        calls.append((pair.label(), p.tobytes()))
        return original(pair, p)

    monkeypatch.setattr(claims, "map_tension_closed", counting)
    config = RunConfig(seed=1)
    assert all(r.passed for r in run_claims(config))
    assert len(calls) == len(set(calls)) == 21


def test_every_curve_jet_is_built_by_jetmatrix_curve(monkeypatch):
    # every curve jet comes from JetMatrix.curve along a pair's plans, all
    # first-order: per pass the blocks of the Cartan pass, whose
    # directions in order are the p- then the k-basis once; the casimir
    # check reads the walk's own p Z, and the closed forms and the image
    # pass build none.
    # sp-grassmannian(1,1) has dim p = 4, dim k = 6, so its jets hold 160
    # entries per point, 96 points make one pass and its ten directions
    # one block
    calls = []
    curve = jets.JetMatrix.curve.__func__

    def spy(cls, p, plan):
        assert plan.rows is not None
        calls.append((len(p), plan))
        return curve(cls, p, plan)

    monkeypatch.setattr(jets.JetMatrix, "curve", classmethod(spy))
    config = RunConfig(spaces=("sp-grassmannian",), m=1, n=1,
                       samples=3 * CHUNK)
    results = run_claims(config)
    assert [r.claim_id for r in results] == claim_ids(config)
    assert all(r.passed for r in results)
    assert {size for size, _ in calls} == {3 * CHUNK}
    pair = make_pair("sp-grassmannian", m=1, n=1)
    (_, walk), = calls
    assert walk.square is None
    assert np.array_equal(walk.rows, pair.pk_plan.rows)
    assert np.array_equal(walk.weights, pair.pk_plan.weights)


def test_each_trace_form_stack_is_planned_once_per_job(monkeypatch):
    # the one-hot test and gather index of a stack of B (jets.form_plan)
    # are made once per stack a job builds, not once per trace_form call:
    # no B is planned twice within a job, over three passes of CHUNK
    # points per point set
    monkeypatch.setattr(claims, "BUDGET", 0)
    planned = []
    original = jets.form_plan

    def spy(B):
        planned.append(B)
        return original(B)

    for mod in (jets, catalog):
        monkeypatch.setattr(mod, "form_plan", spy)
    config = RunConfig(samples=2 * CHUNK + 1)
    jobs = jobs_for(config)
    cache = claims._Cache(config, jobs)
    per_job = []
    for job in jobs:
        planned.clear()
        assert all(r.passed for r in job.run(cache))
        assert len({id(B) for B in planned}) == len(planned)
        per_job.append(len(planned))
    # table1 plans what the sweep of its points reads: its grid, the
    # alpha = 1 stack (the image pass, the cartan job's walk and, at
    # sp-grassmannian(1,1), the two polynomial jobs read it) and the
    # product's two factors
    kinds = [job.kind for job in jobs]
    assert {k: max(c for kk, c in zip(kinds, per_job) if kk == k)
            for k in kinds} == {"basis": 0, "table1": 4, "prop7": 0,
                                "cartan": 0, "poly": 0, "product": 0,
                                "sphere": 0, "cpn": 0}


# The streamed pass's d2 against the whole jet's, relative to the largest
# entry of the latter: both sum the same products in another order (the
# worst seen is 7.4e-16, at 300 samples of sp-grassmannian(3,3)).
D2_RTOL = 2e-15


def _whole_jet_pass(pair, forms, pts, j, closed):
    """What _cartan_pass returns at the points ``pts``, read off the 2-jet
    ``j`` of Phi along the p- then the k-basis, (D, points, N, N) per
    part, with the closed Z(Phi) = 2 p Z sigma(p)^-1 along the whole
    p-basis at once: the reference of the streamed pass."""
    X, V = pair.p_basis, pair.k_basis
    dp, dk = j.d1[:len(X)], j.d1[len(X):]
    Phi, T = closed
    pZ = jets.JetMatrix.curve(pts, pair.p_plan).d1
    casimir = np.maximum(
        np.abs(dp - pZ @ (2.0 * pair.sigma.inverse(pts))).max(axis=(0, 2, 3)),
        np.abs(j.d2 - T).max(axis=(1, 2)))
    f = j.trace_form(forms.plan) + forms.c
    _, tau, kappa = jets.jet_ops(f.v, f.d1, f.d2, 1)
    return {"pullback": cartan.pullback_ratio(metric(dp, dp), X, X),
            "vertical": cartan.pullback_ratio(metric(dk, dk), V, V),
            "harmonic": cartan.tangential_residual(pair, Phi, j.d2),
            "tau": tau, "kappa": kappa, "casimir": casimir}


def _pass_args(space, m, n, points):
    """What the cartan job hands _cartan_pass at one point set of
    ``points`` samples: the pair, the alpha = 1 stack, the points and
    their closed Phi and tension."""
    cache = claims._Cache(RunConfig(samples=points), [])
    pair = cache.pair(space, m, n)
    forms = catalog.stack_members(cache.family(space, m, n))
    pts = random_pair_points(pair, SampleConfig(seed=0), range(points))
    return pair, forms, pts, cartan.map_tension_closed(pair, pts)


DEFAULT_PAIR_SETS = [(space, m, n) for space in claims.PAIR_SPACE_ORDER
                     for m, n in claims.DEFAULT_SIZES[space]]


@pytest.mark.parametrize("space,m,n,points", [
    (space, m, n, 40) for space, m, n in DEFAULT_PAIR_SETS]
    + [("sp-grassmannian", 3, 3, 5)])
def test_streamed_pass_matches_the_whole_jet(monkeypatch, space, m, n,
                                             points):
    # the streamed Cartan pass gives, bit for bit, what the readers read
    # off the whole jet's first derivatives and of map_tension_raw as d2,
    # and that d2 is the whole jet's up to D2_RTOL: with one direction per
    # block, with blocks that do not divide the directions, and with all
    # directions in one block (and so slices of points of every size)
    pair, forms, pts, closed = _pass_args(space, m, n, points)
    whole = cartan.cartan_map_jet(pair, jets.JetMatrix.curve(pts,
                                                             pair.pk_plan))
    d2 = cartan.map_tension_raw(pair, pts)
    assert (np.abs(d2 - whole.d2).max()
            <= D2_RTOL * np.abs(whole.d2).max())
    ref = _whole_jet_pass(pair, forms, pts,
                          jets.JetMatrix(whole.v, whole.d1, d2), closed)
    D = pair.dim_k + pair.dim_p
    uneven = next((s for s in range(2, D) if D % s), D)
    for size in {1, uneven, D}:
        monkeypatch.setattr(cartan, "BLOCK", size * pts.size)
        got = claims._cartan_pass(pair, forms, pts, closed)
        assert got.keys() == ref.keys()
        assert all(np.array_equal(got[k], ref[k]) for k in ref), size


@pytest.mark.parametrize("space,m,n", DEFAULT_PAIR_SETS)
def test_per_point_api_gives_the_engines_pass_bits(space, m, n):
    # one Cartan jet route: at every default point set the per-point
    # harmonic_residual and pullback_factor give, bit for bit, the
    # harmonic residuals and the pullback ratios of the engine's pass
    pair, forms, pts, closed = _pass_args(space, m, n, 40)
    got = claims._cartan_pass(pair, forms, pts, closed)
    assert np.array_equal(cartan.harmonic_residual(pair, pts),
                          got["harmonic"])
    for B, ratio in ((pair.p_basis, got["pullback"]),
                     (pair.k_basis, got["vertical"])):
        assert np.array_equal(cartan.pullback_factor(pair, pts, B, B), ratio)


def test_a_quat_sized_cartan_pass_holds_less_than_one_whole_jet():
    # the streamed pass never forms a (D, points, N, N) array: its
    # traced peak at 32 points of sp-grassmannian(3,3) stays below one
    # such complex array, 5.48 MiB
    cache = claims._Cache(RunConfig(samples=CHUNK), [])
    pair = cache.pair("sp-grassmannian", 3, 3)
    forms = catalog.stack_members(cache.family("sp-grassmannian", 3, 3))
    pts = random_pair_points(pair, SampleConfig(seed=0), range(CHUNK))
    closed = cartan.map_tension_closed(pair, pts)
    claims._cartan_pass(pair, forms, pts, closed)
    tracemalloc.start()
    try:
        claims._cartan_pass(pair, forms, pts, closed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    whole = 16 * (pair.dim_k + pair.dim_p) * CHUNK * pair.matrix_size ** 2
    assert whole == 5_750_784
    assert peak < whole


def test_a_quat_sized_closed_pass_holds_less_than_one_p_jet():
    # a sweep pass's closed forms never form a (dim p, points, N, N)
    # array: Phi, its tension and the alpha = 1 stack's entries jet
    # (claims._form_jet, what the polynomial and product suites read) at
    # 32 points of sp-grassmannian(3,3) peak below one such complex array
    cache = claims._Cache(RunConfig(samples=CHUNK), [])
    pair, family = (cache.pair("sp-grassmannian", 3, 3),
                    cache.family("sp-grassmannian", 3, 3))
    stack = catalog.stack_members(family)
    pts = random_pair_points(pair, SampleConfig(seed=0), range(CHUNK))

    def closed_pass():
        return claims._form_jet(pair, stack,
                                cartan.map_tension_closed(pair, pts))

    closed_pass()
    tracemalloc.start()
    try:
        j = closed_pass()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert j.d1.shape == (1, CHUNK, len(family))
    whole = 16 * pair.dim_p * CHUNK * pair.matrix_size ** 2
    assert whole == 2_654_208
    assert peak < whole


def test_reports_do_not_depend_on_the_pass_size(monkeypatch):
    # the invariant the pass sizing rests on: every default space at 40
    # samples gives the same json-lines report bytes with passes of one
    # point, of seven points, of the whole point set and by the rule
    config = RunConfig(samples=40)
    texts = set()
    for chunk, budget in ((1, 0), (7, 0), (40, 0),
                          (claims.CHUNK, claims.BUDGET)):
        monkeypatch.setattr(claims, "CHUNK", chunk)
        monkeypatch.setattr(claims, "BUDGET", budget)
        texts.add(emit_json_lines(build_report(config, run_claims(config))))
    assert len(texts) == 1


def test_jobs_carry_their_kind():
    # each job's kind, the first part of its claim ids, names its suite;
    # the sweep parts are found by it, also on a Job rebuilt from its
    # fields, as a wrapper of its run may build it
    jobs = jobs_for(RunConfig())
    assert {job.kind for job in jobs} == {
        "basis", "table1", "prop7", "cartan", "poly", "product", "sphere",
        "cpn"}
    rebuilt = [claims.Job(job.claim_ids, job.space, job.run) for job in jobs]
    assert [job.kind for job in rebuilt] == [job.kind for job in jobs]


def test_one_sparse_plan_per_basis_and_pair(monkeypatch):
    # a three-pass sp-grassmannian(2,2) run plans the pair's ambient and
    # k-basis once each, for every draw and every tangential projection
    from eigenlab import matrices, pairs, sampling
    planned = []
    original = matrices.sparse_plan

    def spy(Z):
        planned.append(np.array(Z))
        return original(Z)

    for mod in (matrices, pairs, sampling):
        monkeypatch.setattr(mod, "sparse_plan", spy)
    config = RunConfig(spaces=("sp-grassmannian",), m=2, n=2,
                       samples=3 * CHUNK)
    pair = make_pair("sp-grassmannian", m=2, n=2)
    assert claims._pass_size(pair) == CHUNK
    tangential = []
    monkeypatch.setattr(claims, "tangential_residual",
                        lambda *args: tangential.append(1)
                        or cartan.tangential_residual(*args))
    assert all(r.passed for r in run_claims(config))
    assert len(tangential) == 3
    bases = [matrices.real_rows(b)
             for b in (pair.ambient.elements, pair.k_basis)]
    assert len(planned) == 2
    assert all(np.array_equal(a, b) for a, b in zip(planned, bases))
