"""Claim registry and verification engine.

Every identity the library asserts has a stable claim id (for example
"table1.row10.lambda[m=1,n=1]" or "cartan.harmonic[space=su-so,n=2]") so
that reports diff meaningfully between runs.  The engine registers the
claims and scores each by the relative residual |x - ref| / max(1, |ref|).
Each point set (space, m, n) of a symmetric pair is drawn once and walked
once (_Cache.sweep), in passes of _pass_size points.  A pass makes Phi and
its tension T in closed form (cartan.map_tension_closed), and every job
on the set reads its share: the trace forms of Phi and T, the image pass,
and the library's one Cartan walk (cartan.blocks, cartan.map_tension_raw).
table1 takes kappa on every space as -4 tr(P_p(s A p) s B p)
(operators.form_kappa), on the one-hot grids of the u- and
sp-grassmannian as its closed form scale phi psi within one alpha
(operators.one_hot_scale), which the polynomial and product suites read
as jets (_form_jet).  These routes share with the jet routes the
involution, C_p through cartan.casimir (Z(Phi) = 2 p Z sigma(p)^-1 and T
against the Cartan walk), and the p-basis through table1's
scheme.completeness claim (sum_X tr(X U) X = -P_p(U)).  Every eigenvalue
claim is scored and fitted by one streaming scorer (_EigenScores).
Reports do not depend on the pass size nor on the Cartan pass's blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from . import ambient, catalog
from .bases import square_sum
# cartan_map_jet is not called here; perfbench's tracer test rebinds it here
from .cartan import (blocks, cartan_map, cartan_map_jet, map_tension_closed,
                     map_tension_raw, pullback_ratio, tangential_residual)
from .catalog import stack_members
from .families import (base_family, polynomial_family, product_family,
                       product_ops)
from .jets import Jet2, gram, jet_ops, trace_form
from .matrices import basis_D, basis_X, basis_Y, metric
from .operators import _image_ops, form_kappa, one_hot_scale, p_projection
from .pairs import SPACES, make_pair, space_label
from .sampling import (SampleConfig, random_pair_points, random_sphere_points,
                       random_subgroup_points, rng_for)

__all__ = [
    "ConfigError",
    "RunConfig",
    "ClaimResult",
    "Job",
    "SELECTORS",
    "DEFAULT_SIZES",
    "ROW_BY_SPACE",
    "validate_config",
    "jobs_for",
    "run_claims",
]

# A chunked pass takes as many points as BUDGET entries of Cartan jets
# hold (D directions x N^2 entries per point, D = dim k + dim p, N the
# matrix size), and at least CHUNK: they size a pass's work, not its
# memory, as the Cartan walk streams its jets in blocks of cartan.BLOCK
# entries, a quarter of BUDGET, and every other array of a pass holds N^2
# entries per point, member or direction.  BUDGET is 32 points at
# sp-grassmannian(2,2), the largest default point set; the floor keeps
# 12 x 12 passes at CHUNK points, where more points per pass ran slower.
CHUNK = 32
BUDGET = 73_728

PAIR_SPACE_ORDER = ("su-so", "sp-u", "so-u", "su-sp",
                    "so-grassmannian", "u-grassmannian", "sp-grassmannian")

SELECTORS = ("basis",) + PAIR_SPACE_ORDER + ("polynomial", "product",
                                             "sphere", "cpn")

ROW_BY_SPACE = {"su-so": 4, "sp-u": 5, "so-u": 6, "su-sp": 7,
                "so-grassmannian": 8, "u-grassmannian": 9,
                "sp-grassmannian": 10}

DEFAULT_SIZES = {
    "su-so": ((None, 2), (None, 3)),
    "sp-u": ((None, 1), (None, 2)),
    "so-u": ((None, 2), (None, 3)),
    "su-sp": ((None, 2),),
    "so-grassmannian": ((1, 1), (1, 2), (2, 2)),
    "u-grassmannian": ((1, 1), (1, 2), (2, 2)),
    "sp-grassmannian": ((1, 1), (1, 2), (2, 2)),
    "sphere": ((None, 2), (None, 3)),
    "cpn": ((None, 1), (None, 2)),
}

PROP71_SIZES = ((1, 1),)
BASIS_NS = tuple(range(2, 9))
POLY_SPACES = (("sp-grassmannian", 1, 1), ("u-grassmannian", 1, 1))
POLY_DEGREES = (2, 3)
PRODUCT_SPACE = ("sp-grassmannian", 1, 1)
CPN_ALPHA = 1
# the eigenvalue fits read the samples with |phi| (or |phi psi|) >=
# 10^FIT_DECADE
FIT_DECADE = -3
FORMATS = ("json-lines", "tsv", "human-table")


class ConfigError(ValueError):
    """A configuration problem (reported with its own exit status)."""


@dataclass(frozen=True)
class RunConfig:
    """What to verify and how: spaces, sizes, samples, tolerance, seed,
    output destination and format.  ``tol`` = None keeps each claim's own
    stated tolerance (1e-8 for the generic eigenvalue claims)."""

    spaces: tuple = ("all",)
    m: int | None = None
    n: int | None = None
    samples: int = 100
    tol: float | None = None
    seed: int = 0
    out: str | None = None
    fmt: str = "human-table"


def validate_config(config: RunConfig) -> RunConfig:
    for s in config.spaces:
        if s != "all" and s not in SELECTORS:
            raise ConfigError(f"unknown space {s!r}; choose from "
                              f"{('all',) + SELECTORS}")
    if not config.spaces:
        raise ConfigError("empty space selection")
    if config.samples < 1:
        raise ConfigError("samples must be a positive integer")
    if config.tol is not None and not 0 < config.tol < np.inf:
        raise ConfigError("tolerance must be positive and finite")
    if config.seed < 0:
        raise ConfigError("seed must be non-negative")
    if config.fmt not in FORMATS:
        raise ConfigError(f"unknown format {config.fmt!r}; choose from {FORMATS}")
    if config.out == "":
        raise ConfigError("empty output path ''; omit --out to write the "
                          "report to stdout")
    if config.m is None and config.n is None:
        return config
    # Size overrides bind to a single explicitly selected suite.
    if len(config.spaces) != 1 or config.spaces[0] == "all":
        raise ConfigError("--m/--n require a single --space selection")
    target = config.spaces[0]
    if target not in DEFAULT_SIZES:
        raise ConfigError(f"sizes are fixed for the {target!r} suite")
    for name, v in (("m", config.m), ("n", config.n)):
        if v is not None and not 1 <= v <= 3:
            raise ConfigError(f"{name} must lie in 1..3")
    if target in SPACES and SPACES[target]["params"] == ("m", "n"):
        if config.m is None or config.n is None:
            raise ConfigError(f"space {target!r} needs both --m and --n")
    else:
        # the early return above leaves n set whenever m is not
        if config.m is not None:
            raise ConfigError(f"space {target!r} takes --n only")
        if target in SPACES and config.n < SPACES[target]["min_size"]["n"]:
            raise ConfigError(
                f"space {target!r} requires n >= {SPACES[target]['min_size']['n']}")
    return config


@dataclass(frozen=True)
class ClaimResult:
    """One verified claim: its residual statistics and eigenvalue fit."""

    claim_id: str
    space: str
    params: dict
    samples: int
    max_residual: float
    mean_residual: float
    expected: float | None
    measured: complex | None
    tol: float
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class Job:
    """A unit of verification work producing one or more claim results.

    ``kind`` names its suite, the first part of its first claim id:
    "basis", "table1", "prop7", "cartan", "poly", "product", "sphere" or
    "cpn"; table1's job also scores scheme.completeness.  ``space`` is the
    point set (space, m, n) that a job on a symmetric pair reads, else its
    selector ("basis", "sphere", "cpn")."""

    claim_ids: tuple
    space: str | tuple
    run: Callable = field(repr=False)

    @property
    def kind(self):
        return self.claim_ids[0].split(".")[0]


# ---------------------------------------------------------------------------
# engine primitives

def _rel(x, ref):
    return np.abs(np.asarray(x) - ref) / np.maximum(1.0, np.abs(ref))


def _result(claim_id, space, params, samples, residuals, expected, measured,
            tol, detail=""):
    res = np.asarray(residuals, dtype=float).ravel()
    if not res.size:
        raise ValueError(f"{claim_id}: no residuals to score")
    mx = float(res.max())
    mean = float(res.mean())
    return ClaimResult(
        claim_id=claim_id, space=space, params=dict(params), samples=samples,
        max_residual=mx, mean_residual=mean,
        expected=None if expected is None else float(expected),
        measured=None if measured is None else complex(measured),
        tol=float(tol), passed=bool(mx <= tol), detail=detail)


def _suffix(params: dict) -> str:
    inner = ",".join(f"{k}={v}" for k, v in params.items())
    return f"[{inner}]" if inner else ""


def _tol(config: RunConfig, default: float) -> float:
    return default if config.tol is None else config.tol


def _eigen_ids(prefix, params):
    suffix = _suffix(params)
    return (f"{prefix}.lambda{suffix}", f"{prefix}.mu{suffix}")


class _EigenScores:
    """The lambda and mu claims of one family, tau = lam phi and
    kappa = mu phi psi, scored slice by slice as its points arrive (add),
    in point order.  Each claim keeps its residuals _rel(x, ev den), point
    major, and per point the two sums of the least-squares fit of ev,
    x conj(den) and |den|^2 over the point's entries with
    |den| >= 10^FIT_DECADE, each reduced along the point's own row;
    results() sums them over the points.  No temporary spans more than a
    slice, and no bit depends on how the points are sliced."""

    def __init__(self, points, lam, mu):
        self.points, self.evs = points, (lam, mu)
        self.done, self.parts = 0, []

    def add(self, values, tau, kappa):
        """Score the next len(values) points."""
        lo, self.done = self.done, self.done + len(values)
        prod = np.einsum("...j,...k->...jk", values, values)
        for k, (x, den) in enumerate(((tau, values), (kappa, prod))):
            if len(self.parts) == k:
                self.parts.append((np.empty((self.points,) + np.shape(x)[1:]),
                                   np.empty(self.points, complex),
                                   np.empty(self.points)))
            res, num, sq = self.parts[k]
            res[lo:self.done] = _rel(x, self.evs[k] * den)
            mod = np.abs(den)
            keep = mod >= 10.0 ** FIT_DECADE
            # not x * den.conj(): numpy may then reuse the temporary conj
            # and multiply in the other order, which for complex numbers
            # is not the same bits
            num[lo:self.done] = _row_sums(
                np.where(keep, np.multiply(x, den.conj()), 0))
            sq[lo:self.done] = _row_sums(np.where(keep, mod ** 2, 0.0))

    def results(self):
        """(residuals, ev, fit) of each claim; no fit if no entry had
        |den| large enough."""
        return [(res, ev, complex(num.sum() / sq.sum()) if sq.any() else None)
                for (res, num, sq), ev in zip(self.parts, self.evs)]


def _row_sums(a):
    """The sum of each point's entries of ``a``, along its own row."""
    return a.reshape(len(a), -1).sum(axis=1)


def _eigen_residuals(values, tau, kappa, lam, mu):
    """The _EigenScores results of tau = lam phi, then of
    kappa = mu phi psi, over whole arrays."""
    scores = _EigenScores(len(values), lam, mu)
    scores.add(values, tau, kappa)
    return scores.results()


def _eigen_claims(ids, space, params, scores, tol, details=("", "")):
    """The lambda and mu claims of one family from its _EigenScores results.
    A claim with no eigenvalue fit fails: its residuals are small only
    because phi is."""
    out = []
    for cid, (res, ev, fit), detail, name in zip(
            ids, scores, details, ("|phi|", "|phi psi|")):
        r = _result(cid, space, params, len(res), res, ev, fit, tol, detail)
        out.append(r if fit is not None else replace(
            r, passed=False,
            detail=f"no sample had {name} >= 1e{FIT_DECADE}"))
    return out


def _pass_size(pair):
    """Points per chunked pass on ``pair``: as many as BUDGET entries of
    its Cartan jets hold, and at least CHUNK."""
    D = pair.dim_k + pair.dim_p
    return max(CHUNK, BUDGET // (D * pair.matrix_size ** 2))


class _Cache:
    """Per-run cache of pairs, families and sweeps, keyed by (space, m, n)
    and, for families, alpha or degree.  sweep is the one walk over a
    point set; no runner touches the points."""

    def __init__(self, config: RunConfig, jobs):
        self.config = config
        self.scfg = SampleConfig(seed=config.seed)
        # (kind, point set) of each job; a point set is (space, m, n)
        self._jobs = {(job.kind, job.space) for job in jobs}
        self._built = {}
        self._sweeps = {}

    def _once(self, key, build):
        if key not in self._built:
            self._built[key] = build()
        return self._built[key]

    def pair(self, space, m, n):
        return self._once((space, m, n), lambda: make_pair(space, n=n)
                          if m is None else make_pair(space, m=m, n=n))

    def family(self, space, m, n, alpha=1):
        """The fixed-alpha family of a space, built once per run; the
        sweep stacks the alpha = 1 one for every job on its points."""
        pair = self.pair(space, m, n)
        return self._once((space, m, n, alpha), lambda: tuple(
            catalog.family_for_space(space, m=m, n=n, alpha=alpha, pair=pair,
                                     rng=rng_for(f"{pair.label()}:param",
                                                 self.config.seed, 0))))

    def blocks(self, space, m, n):
        """The fixed-alpha families of a space, one per alpha."""
        return [self.family(space, m, n, alpha=alpha)
                for alpha in _alpha_range(space, m, n)]

    def polynomial(self, space, m, n, d):
        """The degree-d polynomial family over the alpha = 1 family of a
        space, built once per run."""
        return self._once((space, m, n, f"d{d}"), lambda: polynomial_family(
            base_family(self.family(space, m, n)), d))

    def sweep(self, space, m, n, part):
        """The job ``part``'s share of the sweep of (space, m, n): the
        point set, drawn once (and, for the cartan job, a point of K per
        point if dim k > 0), is walked in passes of _pass_size(pair)
        points; each pass's Phi and tension (map_tension_closed) and, for
        prop7.1 or the cartan job, its image pass go to one sink per job
        on the set.  One alpha = 1 stack feeds the image pass, the cartan
        job's walk and the polynomial suites.  The eigen sinks score as
        the points arrive (_EigenScores), so no kappa grid is held
        whole."""
        held = self._sweeps.setdefault((space, m, n), {})
        if part not in held:
            pair, alpha1 = self.pair(space, m, n), self.family(space, m, n)
            stack = stack_members(alpha1)
            P = self.config.samples
            points = random_pair_points(pair, self.scfg, range(P))
            # each sink: (feed(lo, points, closed, image), result())
            sinks = {}
            kinds = {kind for kind, at in self._jobs if at == (space, m, n)}

            def scored(lam, mu, ops):
                scores = _EigenScores(P, lam, mu)
                return (lambda *a: scores.add(*ops(*a)), scores.results)

            if "table1" in kinds:
                grid = stack_members(map(stack_members, self.blocks(
                    space, m, n)))
                scale = one_hot_scale(pair, grid.plan)
                sinks["table1"] = scored(
                    alpha1[0].lam, alpha1[0].mu, lambda lo, c, cl, im:
                    _table1_ops(pair, grid, scale, c, cl))
            if "prop7" in kinds:
                sinks["prop7.1"] = scored(-(m + n) / 2.0, -0.25,
                                          lambda lo, c, cl, im: im)
            if "cartan" in kinds:
                kpts = (random_subgroup_points(pair, self.scfg, range(P))
                        if pair.dim_k > 0 else None)
                sinks["cartan"] = _cartan_sink(pair, stack, kpts, P)
            if "poly" in kinds:
                for d in POLY_DEGREES:
                    PF = self.polynomial(space, m, n, d)
                    sinks[f"poly.d{d}"] = scored(
                        PF.lam, PF.mu, lambda lo, c, cl, im, PF=PF:
                        _poly_ops(PF, _form_jet(pair, stack, cl)))
            if "product" in kinds:
                F = base_family(alpha1)
                PF = product_family(F, F)
                factors = (stack_members(mm.f1 for mm in PF.members),
                           stack_members(mm.f2 for mm in PF.members))
                second = random_pair_points(pair, self.scfg, range(P, 2 * P))
                sinks["product"] = scored(
                    PF.lam, PF.mu, lambda lo, c, cl, im: _product_ops(
                        pair, factors, c, cl, second[lo:lo + len(c)]))

            size = _pass_size(pair)
            for lo in range(0, P, size):
                c = points[lo:lo + size]
                closed = map_tension_closed(pair, c)
                image = (_image_ops(pair, stack, c, closed[0])
                         if {"prop7", "cartan"} & kinds else None)
                for feed, _ in sinks.values():
                    feed(lo, c, closed, image)
            held.update((name, result()) for name, (_, result)
                        in sinks.items())
        return held.pop(part)


def _cartan_sink(pair, stack, kpts, P):
    """The cartan job's sink over P points: per point and claim kind, what
    _cartan_pass reads of the alpha = 1 ``stack``, the factor-4 residuals
    of its tau and kappa against the whole image pass and, at points
    ``kpts`` of K, the largest entry of |Phi(p k) - Phi(p)|."""
    out = {}

    def feed(lo, c, closed, image):
        parts = _cartan_pass(pair, stack, c, closed)
        _, tauN, kapN = image
        parts["factor4.tau"] = _rel(parts.pop("tau"), 4.0 * tauN)
        parts["factor4.kappa"] = _rel(parts.pop("kappa"), 4.0 * kapN)
        if kpts is not None:
            y = cartan_map(pair, c @ kpts[lo:lo + len(c)])
            parts["k-invariance"] = np.abs(y - closed[0]).reshape(
                len(c), -1).max(axis=1)
        for name, a in parts.items():
            if name not in out:
                out[name] = np.empty((P,) + a.shape[1:], a.dtype)
            out[name][lo:lo + len(a)] = a

    return feed, lambda: out


def _table1_ops(pair, grid, scale, points, closed):
    """Values, tau and kappa of the stack or grid ``grid`` at ``points``:
    the trace forms of ``closed`` = (Phi, T), kappa ``scale`` phi psi
    (operators.one_hot_scale), or with no scale operators.form_kappa."""
    t = trace_form(closed[0], grid.plan)
    kappa = (form_kappa(pair, grid, points) if scale is None
             else scale * t[..., :, None] * t[..., None, :])
    return t + grid.c, trace_form(closed[1], grid.plan), kappa


def _form_jet(pair, phi, closed):
    """The Jet2 (tr(Phi B) + c, d1, tr(T B)) of the one-hot stack ``phi``
    at ``closed`` = (Phi, T): its Gram, scale phi psi
    (operators.one_hot_scale; raises without one), makes Jet2's product
    rule the chain rule tau(g(phi)) = sum g_i tau_i + sum g_ij kappa_ij.
    d1 is the one direction sqrt(scale) tr(Phi B)."""
    scale = one_hot_scale(pair, phi.plan)
    if scale is None:
        raise ValueError(f"{pair.label()}: not one-hot forms of one alpha")
    t = trace_form(closed[0], phi.plan)
    return Jet2(t + phi.c, np.sqrt(complex(scale)) * t[None],
                trace_form(closed[1], phi.plan))


def _poly_ops(PF, j):
    """Values, tau and kappa of the polynomial family ``PF``: its
    generators' jet arithmetic on ``j``, its base members' _form_jet."""
    vals = tuple(j[..., i] for i in range(j.shape[-1]))
    j = Jet2.stack([mm.generator(vals) for mm in PF.members])
    return jet_ops(j.v, j.d1, j.d2, 1)


def _product_ops(pair, factors, p1, closed1, p2):
    """Values, tau and kappa of a product family at the point pairs
    (p1, p2): the product law on the _form_jet of its two ``factors``,
    each stacked over every member, at p1 (``closed1`` given) and p2."""
    jets = (_form_jet(pair, factors[0], closed1),
            _form_jet(pair, factors[1], map_tension_closed(pair, p2)))
    return product_ops([(j.v, j.d1, j.d2) for j in jets], 1)


def _closed_derivs(pZ, two):
    """Z(Phi) = (p Z) two, two = 2 sigma(p)^-1, from the curve jet's
    ``pZ`` (cartan.blocks), a direction at a time, in place."""
    for d in pZ:
        np.matmul(d, two, out=d)
    return pZ


def _cartan_pass(pair, forms, points, closed):
    """What the cartan claims read of the 2-jets of Phi at ``points``: one
    Cartan walk (cartan.blocks) along the p-, then the k-basis, each
    block's Z(Phi) reduced as soon as it is made, and the raw map tension
    (cartan.map_tension_raw).  Returns per point, keyed by claim kind, the
    pullback ratios along the p-basis ("pullback") and the k-basis
    ("vertical"), the harmonic residual, the casimir residual, the largest
    error of each p-block against _closed_derivs and of the tension
    against T of ``closed`` = (Phi, T) (map_tension_closed), and "tau"
    and "kappa" of the trace forms ``forms``."""
    Phi, T = closed
    X, V = pair.p_basis, pair.k_basis
    dp = len(X)
    num = np.empty((dp + len(V), len(points)))
    # the forms' first derivatives, for one Gram product
    d1_forms = np.empty(num.shape + forms.plan.members, complex)
    casimir = np.zeros(len(points))
    two = 2.0 * pair.sigma.inverse(points)
    for lo, pZ, d1 in blocks(pair, points, pair.pk_plan):
        hi = lo + len(d1)
        num[lo:hi] = metric(d1, d1)
        d1_forms[lo:hi] = trace_form(d1, forms.plan)
        if lo < dp:
            # the closed form's error, in place: the pass reads d1 no more
            d1 = d1[:dp - lo]
            d1 -= _closed_derivs(pZ[:dp - lo], two)
            np.maximum(casimir, np.abs(d1).max(axis=(0, 2, 3)), out=casimir)
    d2 = map_tension_raw(pair, points)
    np.maximum(casimir, np.abs(d2 - T).max(axis=(1, 2)), out=casimir)
    return {"pullback": pullback_ratio(num[:dp], X, X),
            "vertical": pullback_ratio(num[dp:], V, V),
            "harmonic": tangential_residual(pair, Phi, d2),
            "tau": trace_form(d2, forms.plan), "kappa": gram(d1_forms, 1),
            "casimir": casimir}


# ---------------------------------------------------------------------------
# suites

_FAMILY_COEFF = {
    "Y": lambda n: -(n - 1) / 2.0,
    "X": lambda n: (n - 1) / 2.0,
    "D": lambda n: 1.0,
}


def _family_stack(fam: str, n: int) -> np.ndarray:
    if fam == "Y":
        els = [basis_Y(n, r, s) for r in range(1, n) for s in range(r + 1, n + 1)]
    elif fam == "X":
        els = [basis_X(n, r, s) for r in range(1, n) for s in range(r + 1, n + 1)]
    else:
        els = [basis_D(n, t) for t in range(1, n + 1)]
    return np.array(els).reshape(-1, n, n)


_BASIS_PARAMS = tuple({"family": fam, "n": n}
                      for n in BASIS_NS for fam in ("Y", "X", "D"))


def _basis_claim_ids():
    return tuple(f"basis.square-sum{_suffix(params)}"
                 for params in _BASIS_PARAMS)


def _run_basis(config: RunConfig, cache: _Cache, ids):
    results = []
    for cid, params in zip(ids, _BASIS_PARAMS):
        fam, n = params["family"], params["n"]
        S = square_sum(_family_stack(fam, n))
        coeff = _FAMILY_COEFF[fam](n)
        residual = float(np.abs(S - coeff * np.eye(n)).max())
        measured = complex(np.trace(S) / n)
        results.append(_result(cid, "basis", params, 0, [residual], coeff,
                               measured, _tol(config, 1e-15)))
    return results


def _size_params(m, n):
    return {"n": n} if m is None else {"m": m, "n": n}


def _table1_claim_ids(space, params):
    ids = _eigen_ids(f"table1.row{ROW_BY_SPACE[space]}", params)
    if space == "sp-grassmannian":
        ids += (f"catalog.quat.new-range{_suffix(params)}",)
    return ids + (f"scheme.completeness{_suffix({'space': space, **params})}",)


def _alpha_range(space, m, n):
    # the index-based Grassmannian families exist for every admissible alpha
    if space == "sp-grassmannian":
        return range(1, 2 * (m + n) + 1)
    if space == "u-grassmannian":
        return range(1, m + n + 1)
    return range(1, 2)


def _run_table1(config: RunConfig, cache: _Cache, ids, params, space, m, n):
    tol = _tol(config, 1e-8)
    # a check of the built basis, like the basis claims: no samples.  It
    # runs before the sweep, so its N^4 temporaries are never held with
    # the sweep's arrays
    res = _completeness_residuals(cache.pair(space, m, n))
    scheme = _result(ids[-1], space, params, 0, res, None, None,
                     _tol(config, 1e-10), detail=f"sum_X tr(X U) X = "
                     f"-P_p(U) at the {len(res)} U = E_ij")

    # kappa couples members only within one fixed-alpha family: the
    # families form an (alpha, member) grid of trace forms, paired along
    # the member axis only
    alphas = _alpha_range(space, m, n)
    blocks = cache.blocks(space, m, n)
    eigen = cache.sweep(space, m, n, "table1")
    out = _eigen_claims(ids[:2], space, params, eigen, tol)
    if space == "sp-grassmannian":
        new = np.array([[alpha > m + n or mm.params["j"] > m + n
                         for mm in members]
                        for alpha, members in zip(alphas, blocks)])
        (res_tau, *_), (res_kappa, *_) = eigen
        # per point: the lambda residuals, then the mu residuals, copied
        # member by member into one array; res_kappa[:, new] and a
        # concatenate would hold the mu part twice, at the run's peak
        P, cols, K = len(res_tau), np.flatnonzero(new), res_kappa.shape[-1]
        res = np.empty((P, len(cols) * (1 + K)))
        res[:, :len(cols)] = res_tau.reshape(P, -1)[:, cols]
        kappa = res_kappa.reshape(P, -1, K)
        for lo, col in zip(range(len(cols), res.shape[1], K), cols):
            res[:, lo:lo + K] = kappa[:, col]
        out.append(_result(
            ids[2], space, params, P, res, None, None, tol,
            detail=f"indices j or alpha in {m + n + 1}..{2 * (m + n)}"))
    return out + [scheme]


def _completeness_residuals(pair):
    """Per U = E_ij of the pair's size, the largest entry of
    |sum_X tr(X U) X + P_p(U)| over the pair's built p-basis X, with
    P_p the closed form of operators.p_projection.  Both sides are linear
    in U, and the E_ij span every U, so this checks for every U the
    identity table1's kappa rests on (operators.form_kappa)."""
    N = pair.matrix_size
    X = pair.p_basis.reshape(-1, N * N)
    # sum_X tr(X E_ij) X = sum_X X[j, i] X: each X adds the products of
    # its own few nonzeros, at row i N + j of lhs for X[j, i].  A gemm of
    # the whole basis would be as exact, but OpenBLAS threads it at 12 x 12
    x, v = np.nonzero(X)
    a, b = np.nonzero(x[:, None] == x)
    j, i = np.divmod(v[a], N)
    lhs = np.zeros((N * N, N * N), complex)
    np.add.at(lhs, (i * N + j, v[b]), X[x[a], v[a]] * X[x[b], v[b]])
    E = np.eye(N * N).reshape(-1, N, N)
    return np.abs(lhs + p_projection(pair, E).reshape(N * N, -1)).max(axis=1)


def _prop71_claim_ids(params):
    suffix = _suffix(params)
    return (f"prop7.1.tau{suffix}", f"prop7.1.kappa{suffix}")


def _run_prop71(config: RunConfig, cache: _Cache, ids, params, m, n):
    space = "sp-grassmannian"
    return _eigen_claims(ids, space, params,
                         cache.sweep(space, m, n, "prop7.1"),
                         _tol(config, 1e-8))


def _cartan_kinds(space, m, n):
    # With K discrete (dim k = 0) Phi is injective and there is no
    # vertical direction: both claims would pass on zero evidence.
    build = SPACES[space]["builder"]
    vertical = (build(n) if m is None else build(m, n))[3] > 0
    return (("k-invariance",) * vertical + ("harmonic", "pullback")
            + ("vertical",) * vertical
            + ("factor4.tau", "factor4.kappa", "casimir"))


# each cartan claim kind's tolerance, expected value and detail
_CARTAN_CLAIMS = {
    "k-invariance": (1e-12, None, ""),
    "harmonic": (1e-9, None, ""),
    "pullback": (1e-8, 4.0, "metric factor 4 = (conformal factor 2)^2"),
    "vertical": (1e-10, 0.0, ""),
    "factor4.tau": (1e-8, None, ""),
    "factor4.kappa": (1e-8, None, ""),
    "casimir": (1e-10, None, "Z(Phi) = 2 p Z sigma(p)^-1 on p, "
                             "tau(Phi) = 4 p C_p sigma(p)^-1"),
}


def _run_cartan(config: RunConfig, cache: _Cache, ids, params, space, m, n,
                kinds):
    res = cache.sweep(space, m, n, "cartan")
    ratios = res["pullback"]
    res.update(pullback=abs(ratios - 4.0), vertical=np.sqrt(res["vertical"]))
    return [_result(cid, space, params, config.samples, res[kind], expected,
                    complex(ratios.mean()) if kind == "pullback" else None,
                    _tol(config, tol), detail)
            for cid, kind in zip(ids, kinds)
            for tol, expected, detail in [_CARTAN_CLAIMS[kind]]]


def _run_poly(config: RunConfig, cache: _Cache, ids, params, space, m, n, d):
    PF = cache.polynomial(space, m, n, d)
    return _eigen_claims(ids, space, params,
                         cache.sweep(space, m, n, f"poly.d{d}"),
                         _tol(config, 1e-7),
                         (f"{len(PF.members)} monomials of degree {d}", ""))


def _run_product(config: RunConfig, cache: _Cache, ids, params, space, m, n):
    detail = f"{space_label(space, m, n)} x {space_label(space, m, n)}"
    return _eigen_claims(ids, "product", params,
                         cache.sweep(space, m, n, "product"),
                         _tol(config, 1e-8), (detail, detail))


def _run_sphere(config: RunConfig, cache: _Cache, ids, params, n):
    F = ambient.stack_fields(ambient.sphere_phi(n, j) for j in range(1, n + 1))
    pts = random_sphere_points(n, f"sphere:{n}", cache.scfg,
                               range(config.samples))
    return _eigen_claims(ids, "sphere", params, _eigen_residuals(
        *ambient.sphere_ops(F, pts), -(2.0 * n - 1.0), -1.0), _tol(config, 1e-8))


def _run_cpn(config: RunConfig, cache: _Cache, ids, params, n):
    # Members phi_{jk} with j <= alpha < k, the fixed-alpha family.
    F = ambient.stack_fields(ambient.cpn_phi(n, j, k)
                             for j in range(1, CPN_ALPHA + 1)
                             for k in range(CPN_ALPHA + 1, n + 2))
    pts = random_sphere_points(n + 1, f"cpn:{n}", cache.scfg,
                               range(config.samples))
    return _eigen_claims(ids, "cpn", params, _eigen_residuals(
        *ambient.cpn_ops(F, pts), -4.0 * (n + 1), -4.0), _tol(config, 1e-8))


# ---------------------------------------------------------------------------
# job assembly

def _selected(config: RunConfig, key: str) -> bool:
    return "all" in config.spaces or key in config.spaces


def _sizes(config: RunConfig, key: str, default):
    """The (m, n) sizes of the suites behind selector ``key``: the --m/--n
    override when ``key`` is the whole selection, else ``default``."""
    if (config.m is not None or config.n is not None) and \
            config.spaces == (key,):
        return ((config.m, config.n),)
    return default


def jobs_for(config: RunConfig):
    """The ordered list of verification jobs the config selects.  Claim
    ids are formatted here only: each runner is handed its job's ids."""
    config = validate_config(config)
    jobs = []

    def add(space, ids, run, *args):
        jobs.append(Job(ids, space,
                        lambda cache: run(config, cache, ids, *args)))

    if _selected(config, "basis"):
        add("basis", _basis_claim_ids(), _run_basis)

    for space in PAIR_SPACE_ORDER:
        if not _selected(config, space):
            continue
        for m, n in _sizes(config, space, DEFAULT_SIZES[space]):
            params = _size_params(m, n)
            add((space, m, n), _table1_claim_ids(space, params),
                _run_table1, params, space, m, n)

    if _selected(config, "sp-grassmannian"):
        for m, n in _sizes(config, "sp-grassmannian", PROP71_SIZES):
            params = {"m": m, "n": n}
            add(("sp-grassmannian", m, n), _prop71_claim_ids(params),
                _run_prop71, params, m, n)

    for space in PAIR_SPACE_ORDER:
        if not _selected(config, space):
            continue
        for m, n in _sizes(config, space, DEFAULT_SIZES[space]):
            params = {"space": space, **_size_params(m, n)}
            kinds = _cartan_kinds(space, m, n)
            add((space, m, n), tuple(f"cartan.{kind}{_suffix(params)}"
                                     for kind in kinds),
                _run_cartan, params, space, m, n, kinds)

    if _selected(config, "polynomial"):
        for space, m, n in POLY_SPACES:
            for d in POLY_DEGREES:
                params = {"space": space, "m": m, "n": n, "d": d}
                add((space, m, n), _eigen_ids(f"poly.d{d}", params),
                    _run_poly, params, space, m, n, d)

    if _selected(config, "product"):
        space, m, n = PRODUCT_SPACE
        params = {"m": m, "n": n}
        add(PRODUCT_SPACE, _eigen_ids("product", params), _run_product,
            params, space, m, n)

    if _selected(config, "sphere"):
        for _, n in _sizes(config, "sphere", DEFAULT_SIZES["sphere"]):
            add("sphere", _eigen_ids("sphere", {"n": n}), _run_sphere,
                {"n": n}, n)

    if _selected(config, "cpn"):
        for _, n in _sizes(config, "cpn", DEFAULT_SIZES["cpn"]):
            add("cpn", _eigen_ids("cpn", {"n": n}), _run_cpn, {"n": n}, n)

    return jobs


def run_claims(config: RunConfig, prefix: str | None = None):
    """Run every selected job in deterministic order; returns the flat
    list of claim results.  ``prefix`` restricts to jobs owning at least
    one claim id with that prefix (e.g. "table1.")."""
    jobs = jobs_for(config)
    if prefix is not None:
        jobs = [j for j in jobs
                if any(c.startswith(prefix) for c in j.claim_ids)]
    cache = _Cache(config, jobs)
    results = []
    for job in jobs:
        results.extend(job.run(cache))
    return results
