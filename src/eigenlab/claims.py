"""Claim registry and verification engine.

Every identity the library asserts has a stable claim id (for example
"table1.row10.lambda[m=1,n=1]" or "cartan.harmonic[space=su-so,n=2]") so
that reports diff meaningfully between runs.  The engine registers the
claims, samples deterministic pseudo-random points, feeds them CHUNK at a
time to the batched operators of the library, and scores each claim by
the relative residual |x - ref| / max(1, |ref|) together with a
least-squares fit of the eigenvalue (the ratio tau(phi)/phi fitted over
samples with |phi| >= 1e-3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import ambient, catalog
from .bases import square_sum
# cartan_map_jet is bound here by name, like every operator the engine
# uses, so that perfbench/tracer.py, which rebinds it in each eigenlab
# namespace, also finds it here.
from .cartan import (cartan_map, cartan_map_jet,  # noqa: F401
                     harmonic_residual, pullback_factor)
from .catalog import stack_members
from .families import (ProductMember, base_family, polynomial_family,
                       product_family, product_ops)
from .matrices import basis_D, basis_X, basis_Y
from .operators import field_ops, image_ops
from .pairs import SPACES, make_pair, space_label
from .sampling import (SampleConfig, random_pair_point,
                       random_subgroup_point, rng_for)

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

CHUNK = 32

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
}

POLY_SPACES = (("sp-grassmannian", 1, 1), ("u-grassmannian", 1, 1))
POLY_DEGREES = (2, 3)
SPHERE_NS = (2, 3)
CPN_NS = (1, 2)
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
    if config.tol is not None and not config.tol > 0:
        raise ConfigError("tolerance must be positive")
    if config.seed < 0:
        raise ConfigError("seed must be non-negative")
    if config.fmt not in FORMATS:
        raise ConfigError(f"unknown format {config.fmt!r}; choose from {FORMATS}")
    if config.m is None and config.n is None:
        return config
    # Size overrides bind to a single explicitly selected suite.
    if len(config.spaces) != 1 or config.spaces[0] == "all":
        raise ConfigError("--m/--n require a single --space selection")
    target = config.spaces[0]
    if target in ("basis", "polynomial", "product"):
        raise ConfigError(f"sizes are fixed for the {target!r} suite")
    for name, v in (("m", config.m), ("n", config.n)):
        if v is not None and not 1 <= v <= 3:
            raise ConfigError(f"{name} must lie in 1..3")
    if target in SPACES and SPACES[target]["params"] == ("m", "n"):
        if config.m is None or config.n is None:
            raise ConfigError(f"space {target!r} needs both --m and --n")
    else:
        if config.m is not None:
            raise ConfigError(f"space {target!r} takes --n only")
        if config.n is None:
            raise ConfigError(f"space {target!r} needs --n")
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
    """A unit of verification work producing one or more claim results."""

    claim_ids: tuple
    space: str
    run: Callable = field(repr=False)


# ---------------------------------------------------------------------------
# engine primitives

def _rel(x, ref):
    return np.abs(np.asarray(x) - ref) / np.maximum(1.0, np.abs(ref))


def _fit(num, den, floor: float = 1e-3):
    """Least-squares ratio num/den over entries with |den| >= floor."""
    num = np.asarray(num).ravel()
    den = np.asarray(den).ravel()
    mask = np.abs(den) >= floor
    if not mask.any():
        return None
    d = den[mask]
    return complex((num[mask] * d.conj()).sum() / (np.abs(d) ** 2).sum())


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


def _eigen_claims(ids, space, params, values, tau, kappa, lam, mu, tol,
                  details=("", "")):
    """The claims tau(phi) = lam phi and kappa(phi, psi) = mu phi psi of
    one family, from values (P, K), tau (P, K) and kappa (P, K, K)."""
    prod = np.einsum("pj,pk->pjk", values, values)
    P = values.shape[0]
    return [
        _result(ids[0], space, params, P, _rel(tau, lam * values), lam,
                _fit(tau, values), tol, details[0]),
        _result(ids[1], space, params, P, _rel(kappa, mu * prod), mu,
                _fit(kappa, prod), tol, details[1]),
    ]


def _draw(sample, count, start=0):
    """Stack ``sample(i)`` for i in start .. start + count - 1."""
    return np.stack([sample(i) for i in range(start, start + count)])


def _chunked(op, *points):
    """``op`` over CHUNK points at a time, its outputs concatenated along
    the point axis (item by item when it returns a tuple)."""
    outs = [op(*(p[lo:lo + CHUNK] for p in points))
            for lo in range(0, len(points[0]), CHUNK)]
    if isinstance(outs[0], tuple):
        return tuple(np.concatenate(parts) for parts in zip(*outs))
    return np.concatenate(outs)


class _Cache:
    """Per-run cache of pairs and point samples, keyed by (space, m, n)."""

    def __init__(self, config: RunConfig):
        self.config = config
        self.scfg = SampleConfig(seed=config.seed, count=config.samples)
        self._pairs = {}
        self._points = {}

    def pair(self, space, m, n):
        key = (space, m, n)
        if key not in self._pairs:
            self._pairs[key] = (make_pair(space, n=n) if m is None
                                else make_pair(space, m=m, n=n))
        return self._pairs[key]

    def points(self, space, m, n):
        key = (space, m, n)
        if key not in self._points:
            pair = self.pair(space, m, n)
            self._points[key] = _draw(
                lambda i: random_pair_point(pair, self.scfg, i),
                self.config.samples)
        return self._points[key]

    def family(self, space, m, n, alpha=1):
        pair = self.pair(space, m, n)
        rng = rng_for(f"{pair.label()}:param", self.config.seed, 0)
        return catalog.family_for_space(space, m=m, n=n, alpha=alpha,
                                        rng=rng, pair=pair)


def _family_ops(pair, members, points):
    """phi values, tau(phi), and the pairwise kappa matrix of a family of
    trace forms over the ambient basis, one Cartan pass per chunk."""
    f = stack_members(members).as_field()
    els = pair.ambient.elements
    return _chunked(lambda c: field_ops(f, c, els), points)


def _family_image_ops(pair, members, points):
    """eta values, tau_N and kappa_N of the affine functionals
    eta(y) = tr(y B) + c along the image basis at Phi(p).  Image passes
    push no Cartan jets and run on all points at once: freeing their large
    arrays raises glibc's dynamic trim threshold above the working set of
    a chunked Cartan pass, whose pages are then reused, not faulted in
    again every chunk."""
    return image_ops(pair, stack_members(members).eta_field(), points)


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


def _basis_claim_ids():
    return tuple(f"basis.square-sum[family={fam},n={n}]"
                 for n in range(2, 9) for fam in ("Y", "X", "D"))


def _run_basis(config: RunConfig, cache: _Cache):
    results = []
    for n in range(2, 9):
        for fam in ("Y", "X", "D"):
            S = square_sum(_family_stack(fam, n))
            coeff = _FAMILY_COEFF[fam](n)
            residual = float(np.abs(S - coeff * np.eye(n)).max())
            measured = complex(np.trace(S) / n)
            params = {"family": fam, "n": n}
            results.append(_result(
                f"basis.square-sum{_suffix(params)}", "basis", params, 0,
                [residual], coeff, measured, _tol(config, 1e-15)))
    return results


def _table1_claim_ids(space, m, n):
    row = ROW_BY_SPACE[space]
    suffix = _suffix({"m": m, "n": n} if m is not None else {"n": n})
    ids = (f"table1.row{row}.lambda{suffix}", f"table1.row{row}.mu{suffix}")
    if space == "sp-grassmannian":
        ids += (f"catalog.quat.new-range{suffix}",)
    return ids


def _alpha_range(space, m, n):
    # the index-based Grassmannian families exist for every admissible alpha
    if space == "sp-grassmannian":
        return range(1, 2 * (m + n) + 1)
    if space == "u-grassmannian":
        return range(1, m + n + 1)
    return range(1, 2)


def _run_table1(config: RunConfig, cache: _Cache, space, m, n):
    pair = cache.pair(space, m, n)
    pts = cache.points(space, m, n)
    params = {"m": m, "n": n} if m is not None else {"n": n}
    ids = _table1_claim_ids(space, m, n)
    P, tol = pts.shape[0], _tol(config, 1e-8)

    # kappa couples members only within one fixed-alpha family, so the
    # pairwise block is computed per alpha and the residuals concatenated
    alphas = _alpha_range(space, m, n)
    blocks = [cache.family(space, m, n, alpha=alpha) for alpha in alphas]
    first = blocks[0][0]
    stats = [_family_ops(pair, members, pts) for members in blocks]
    values = np.concatenate([v for v, _, _ in stats], axis=1)
    tau = np.concatenate([t for _, t, _ in stats], axis=1)
    lam_fit = _fit(tau, values)
    lam, detail = first.lam, ""
    if first.sign_pending:
        sign = 1.0 if (lam_fit is not None and lam_fit.real > 0) else -1.0
        lam = sign * abs(first.lam)
        source = "table" if sign * first.lam > 0 else "opposite"
        detail = f"resolved_sign={'+1' if sign > 0 else '-1'} ({source} sign)"
    res_l = _rel(tau, lam * values)
    prods = [np.einsum("pj,pk->pjk", v, v) for v, _, _ in stats]
    res_m = [_rel(k, first.mu * prod) for (_, _, k), prod in zip(stats, prods)]
    mu_fit = _fit(np.concatenate([k.ravel() for _, _, k in stats]),
                  np.concatenate([prod.ravel() for prod in prods]))
    out = [
        _result(ids[0], space, params, P, res_l, lam, lam_fit, tol, detail),
        _result(ids[1], space, params, P,
                np.concatenate([r.ravel() for r in res_m]), first.mu, mu_fit,
                tol),
    ]
    if space == "sp-grassmannian":
        parts, col = [], 0
        for alpha, members, r in zip(alphas, blocks, res_m):
            new = np.array([alpha > m + n or mm.params["j"] > m + n
                            for mm in members])
            parts += [res_l[:, col:col + len(members)][:, new].ravel(),
                      r[:, new, :].ravel()]
            col += len(members)
        out.append(_result(
            ids[2], space, params, P, np.concatenate(parts), None, None, tol,
            detail=f"indices j or alpha in {m + n + 1}..{2 * (m + n)}"))
    return out


def _prop71_claim_ids(m, n):
    suffix = _suffix({"m": m, "n": n})
    return (f"prop7.1.tau{suffix}", f"prop7.1.kappa{suffix}")


def _run_prop71(config: RunConfig, cache: _Cache, m, n):
    space = "sp-grassmannian"
    pair = cache.pair(space, m, n)
    members = cache.family(space, m, n)
    values, tauN, kapN = _family_image_ops(pair, members,
                                           cache.points(space, m, n))
    return _eigen_claims(_prop71_claim_ids(m, n), space, {"m": m, "n": n},
                         values, tauN, kapN, -(m + n) / 2.0, -0.25,
                         _tol(config, 1e-8))


def _cartan_kinds(space, m, n):
    # With K discrete (dim k = 0) Phi is injective and there is no
    # vertical direction: both claims would pass on zero evidence.
    build = SPACES[space]["builder"]
    vertical = (build(n) if m is None else build(m, n))[3] > 0
    return (("k-invariance",) * vertical + ("harmonic", "pullback")
            + ("vertical",) * vertical + ("factor4.tau", "factor4.kappa"))


def _cartan_claim_ids(space, m, n):
    params = {"space": space}
    params.update({"m": m, "n": n} if m is not None else {"n": n})
    suffix = _suffix(params)
    return tuple(f"cartan.{kind}{suffix}"
                 for kind in _cartan_kinds(space, m, n))


def _run_cartan(config: RunConfig, cache: _Cache, space, m, n):
    pair = cache.pair(space, m, n)
    pts = cache.points(space, m, n)
    P = pts.shape[0]
    params = {"space": space}
    params.update({"m": m, "n": n} if m is not None else {"n": n})
    suffix = _suffix(params)
    kinds = _cartan_kinds(space, m, n)
    results = []

    if "k-invariance" in kinds:
        kpts = _draw(lambda i: random_subgroup_point(pair, cache.scfg, i), P)
        res_k = np.abs(cartan_map(pair, pts @ kpts)
                       - cartan_map(pair, pts)).reshape(P, -1).max(axis=1)
        results.append(_result(f"cartan.k-invariance{suffix}", space, params,
                               P, res_k, None, None, _tol(config, 1e-12)))

    res_h = _chunked(lambda c: harmonic_residual(pair, c), pts)
    results.append(_result(f"cartan.harmonic{suffix}", space, params, P,
                           res_h, None, None, _tol(config, 1e-9)))

    X = pair.p_basis
    ratios = _chunked(lambda c: pullback_factor(pair, c, X, X), pts)
    results.append(_result(f"cartan.pullback{suffix}", space, params, P,
                           np.abs(ratios - 4.0), 4.0,
                           complex(ratios.mean()), _tol(config, 1e-8),
                           detail="metric factor 4 = (conformal factor 2)^2"))

    if "vertical" in kinds:
        V = pair.k_basis
        vert = np.sqrt(_chunked(lambda c: pullback_factor(pair, c, V, V), pts))
        results.append(_result(f"cartan.vertical{suffix}", space, params, P,
                               vert, 0.0, None, _tol(config, 1e-10)))

    members = cache.family(space, m, n)
    etas = members[:2] if len(members) > 1 else [members[0], members[0]]
    _, tauL, kapL = _family_ops(pair, etas, pts)
    _, tauN, kapN = _family_image_ops(pair, etas, pts)
    results.append(_result(f"cartan.factor4.tau{suffix}", space, params, P,
                           _rel(tauL, 4.0 * tauN), None, None,
                           _tol(config, 1e-8)))
    results.append(_result(f"cartan.factor4.kappa{suffix}", space, params, P,
                           _rel(kapL, 4.0 * kapN), None, None,
                           _tol(config, 1e-8)))
    return results


def _poly_params(space, m, n, d):
    return {"space": space, "m": m, "n": n, "d": d}


def _run_poly(config: RunConfig, cache: _Cache, space, m, n, d):
    pair = cache.pair(space, m, n)
    PF = polynomial_family(base_family(cache.family(space, m, n)), d)
    f = PF.as_field()
    els = pair.ambient.elements
    values, tau, kappa = _chunked(lambda c: field_ops(f, c, els),
                                  cache.points(space, m, n))
    params = _poly_params(space, m, n, d)
    return _eigen_claims(
        _eigen_ids(f"poly.d{d}", params), space, params, values, tau, kappa,
        PF.lam, PF.mu, _tol(config, 1e-7),
        (f"{len(PF.members)} monomials of degree {d}", ""))


def _run_product(config: RunConfig, cache: _Cache):
    space, m, n = "sp-grassmannian", 1, 1
    pair = cache.pair(space, m, n)
    members = cache.family(space, m, n)
    F = base_family(members)
    PF = product_family(F, F)
    pts1 = cache.points(space, m, n)
    P = pts1.shape[0]
    pts2 = _draw(lambda i: random_pair_point(pair, cache.scfg, i), P, P)
    # one member whose factors stack those of every member: the family
    whole = ProductMember(stack_members(mm.f1 for mm in PF.members),
                          stack_members(mm.f2 for mm in PF.members),
                          name=PF.space, space=PF.space, lam=PF.lam, mu=PF.mu)
    els = pair.ambient.elements
    vals, tau, kappa = _chunked(
        lambda a, b: product_ops(whole, a, b, els, els), pts1, pts2)
    params = {"m": m, "n": n}
    detail = f"{space_label(space, m, n)} x {space_label(space, m, n)}"
    return _eigen_claims(_eigen_ids("product", params), "product", params,
                         vals, tau, kappa, PF.lam, PF.mu, _tol(config, 1e-8),
                         (detail, detail))


def _sphere_points(config: RunConfig, label: str, n: int):
    return _draw(lambda i: ambient.random_sphere_point(
        n, rng_for(label, config.seed, i)), config.samples)


def _run_sphere(config: RunConfig, cache: _Cache, n):
    F = ambient.stack_fields(ambient.sphere_phi(n, j) for j in range(1, n + 1))
    pts = _sphere_points(config, f"sphere:{n}", n)
    tau, kappa = ambient.sphere_ops(F, pts)
    return _eigen_claims(_eigen_ids("sphere", {"n": n}), "sphere", {"n": n},
                         F.value(pts), tau, kappa, -(2.0 * n - 1.0), -1.0,
                         _tol(config, 1e-8))


def _run_cpn(config: RunConfig, cache: _Cache, n, alpha: int = 1):
    # Members phi_{jk} with j <= alpha < k, the fixed-alpha family.
    F = ambient.stack_fields(ambient.cpn_phi(n, j, k)
                             for j in range(1, alpha + 1)
                             for k in range(alpha + 1, n + 2))
    pts = _sphere_points(config, f"cpn:{n}", n + 1)
    tau, kappa = ambient.cpn_ops(F, pts)
    return _eigen_claims(_eigen_ids("cpn", {"n": n}), "cpn", {"n": n},
                         F.value(pts), tau, kappa, -4.0 * (n + 1), -4.0,
                         _tol(config, 1e-8))


# ---------------------------------------------------------------------------
# job assembly

def _selected(config: RunConfig, key: str) -> bool:
    return "all" in config.spaces or key in config.spaces


def _sizes_for(config: RunConfig, space: str):
    if (config.m is not None or config.n is not None) and \
            config.spaces == (space,):
        return ((config.m, config.n),)
    return DEFAULT_SIZES[space]


def jobs_for(config: RunConfig):
    """The ordered list of verification jobs the config selects."""
    config = validate_config(config)
    jobs = []

    if _selected(config, "basis"):
        jobs.append(Job(_basis_claim_ids(), "basis",
                        lambda cache: _run_basis(config, cache)))

    for space in PAIR_SPACE_ORDER:
        if not _selected(config, space):
            continue
        for m, n in _sizes_for(config, space):
            jobs.append(Job(
                _table1_claim_ids(space, m, n), space,
                lambda cache, s=space, m=m, n=n: _run_table1(config, cache, s, m, n)))

    if _selected(config, "sp-grassmannian"):
        sizes = (((config.m, config.n),)
                 if config.spaces == ("sp-grassmannian",) and config.m is not None
                 else ((1, 1),))
        for m, n in sizes:
            jobs.append(Job(_prop71_claim_ids(m, n), "sp-grassmannian",
                            lambda cache, m=m, n=n: _run_prop71(config, cache, m, n)))

    for space in PAIR_SPACE_ORDER:
        if not _selected(config, space):
            continue
        for m, n in _sizes_for(config, space):
            jobs.append(Job(
                _cartan_claim_ids(space, m, n), space,
                lambda cache, s=space, m=m, n=n: _run_cartan(config, cache, s, m, n)))

    if _selected(config, "polynomial"):
        for space, m, n in POLY_SPACES:
            for d in POLY_DEGREES:
                jobs.append(Job(
                    _eigen_ids(f"poly.d{d}", _poly_params(space, m, n, d)),
                    "polynomial",
                    lambda cache, s=space, m=m, n=n, d=d:
                        _run_poly(config, cache, s, m, n, d)))

    if _selected(config, "product"):
        jobs.append(Job(_eigen_ids("product", {"m": 1, "n": 1}), "product",
                        lambda cache: _run_product(config, cache)))

    if _selected(config, "sphere"):
        ns = ((config.n,) if config.spaces == ("sphere",) and config.n is not None
              else SPHERE_NS)
        for n in ns:
            jobs.append(Job(_eigen_ids("sphere", {"n": n}), "sphere",
                            lambda cache, n=n: _run_sphere(config, cache, n)))

    if _selected(config, "cpn"):
        ns = ((config.n,) if config.spaces == ("cpn",) and config.n is not None
              else CPN_NS)
        for n in ns:
            jobs.append(Job(_eigen_ids("cpn", {"n": n}), "cpn",
                            lambda cache, n=n: _run_cpn(config, cache, n)))

    return jobs


def run_claims(config: RunConfig, prefix: str | None = None):
    """Run every selected job in deterministic order; returns the flat
    list of claim results.  ``prefix`` restricts to jobs owning at least
    one claim id with that prefix (e.g. "table1.")."""
    jobs = jobs_for(config)
    if prefix is not None:
        jobs = [j for j in jobs
                if any(c.startswith(prefix) for c in j.claim_ids)]
    cache = _Cache(config)
    results = []
    for job in jobs:
        results.extend(job.run(cache))
    return results
