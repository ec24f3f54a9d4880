"""Deterministic pseudo-random points on the classical compact groups.

Points are mat_exp of a random Lie-algebra element with coefficients drawn
uniformly from [-RADIUS, RADIUS].  Streams are counter-based (Philox keyed
by a hash of the stream label and seed, counter = index * 2^64), so sample
``index`` of a given configuration is O(1) to reach, stateless, and
bitwise-reproducible; parallel generation is safe.

Each point set is drawn in one call over a sequence of indices: the stream
key is hashed once, the coefficient rows meet the basis in one
sparse_matmul, and the stack is exponentiated once.  The one-index
functions are that call with a single index: the same matrix bit for bit.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .ambient import random_sphere_point
from .bases import group_basis
from .matrices import mat_exp, membership_residual, sparse_matmul

__all__ = ["SampleConfig", "GENERATOR_NAME", "rng_for",
           "random_algebra_elements",
           "random_points", "random_point",
           "random_subgroup_points", "random_subgroup_point",
           "random_pair_points", "random_pair_point",
           "random_sphere_points"]

GENERATOR_NAME = "philox-4x64"

_WORD = (1 << 64) - 1

RADIUS = 1.5


@dataclass(frozen=True)
class SampleConfig:
    seed: int = 0

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")


def _generators(label: str, seed: int, indices):
    """The generator of each sample in ``indices`` of one stream, in order.

    The key is hashed once and one Philox generator is moved to each
    sample's counter in turn, so each yielded generator is valid only
    until the next one is drawn."""
    key = int.from_bytes(
        hashlib.sha256(f"{label}:{seed}".encode()).digest()[:16], "little"
    )
    bitgen = np.random.Philox(key=key)
    state = bitgen.state
    counter = state["state"]["counter"]
    rng = np.random.Generator(bitgen)
    for index in indices:
        counter[:] = [(index << 64) >> (64 * w) & _WORD for w in range(4)]
        bitgen.state = state
        yield rng


def rng_for(label: str, seed: int, index: int) -> np.random.Generator:
    """The generator for one sample of one stream."""
    return next(_generators(label, seed, (index,)))


def _combos(basis_els: np.ndarray, label: str, cfg: SampleConfig, indices):
    width, n, _ = basis_els.shape
    rows = [rng.uniform(-RADIUS, RADIUS, size=width)
            for rng in _generators(label, cfg.seed, indices)]
    return sparse_matmul(np.array(rows).reshape(len(rows), width),
                         basis_els.reshape(width, n * n)).reshape(-1, n, n)


def random_algebra_elements(group: str, n: int, cfg: SampleConfig,
                            indices) -> np.ndarray:
    """Samples ``indices`` of the (group, n, cfg) algebra stream, stacked."""
    return _combos(group_basis(group, n).elements, f"{group}:{n}", cfg,
                   indices)


def random_points(group: str, n: int, cfg: SampleConfig, indices) -> np.ndarray:
    """Samples ``indices`` of the (group, n, cfg) stream, stacked; identical
    arguments give bitwise-identical matrices."""
    q = mat_exp(random_algebra_elements(group, n, cfg, indices))
    res = membership_residual(group, q).max(initial=0.0)
    if res > 1e-10:
        raise RuntimeError(f"sampled point failed membership: residual {res:.3e}")
    return q


def random_point(group: str, n: int, cfg: SampleConfig, index: int) -> np.ndarray:
    """Sample ``index`` of the (group, n, cfg) stream."""
    return random_points(group, n, cfg, (index,))[0]


def random_subgroup_points(pair, cfg: SampleConfig, indices) -> np.ndarray:
    """Points of the fixed-point subgroup K of a SymmetricPair, obtained by
    exponentiating random elements of k; one per index, stacked."""
    return mat_exp(_combos(pair.k_basis, f"{pair.label()}:k", cfg, indices))


def random_subgroup_point(pair, cfg: SampleConfig, index: int) -> np.ndarray:
    """A point of the fixed-point subgroup K of a SymmetricPair."""
    return random_subgroup_points(pair, cfg, (index,))[0]


def random_pair_points(pair, cfg: SampleConfig, indices) -> np.ndarray:
    """Points of the ambient group G of a SymmetricPair; one per index,
    stacked."""
    return mat_exp(_combos(pair.ambient.elements, f"{pair.label()}:g", cfg,
                           indices))


def random_pair_point(pair, cfg: SampleConfig, index: int) -> np.ndarray:
    """A point of the ambient group G of a SymmetricPair."""
    return random_pair_points(pair, cfg, (index,))[0]


def random_sphere_points(n: int, label: str, cfg: SampleConfig,
                         indices) -> np.ndarray:
    """Points of the unit sphere in C^n, stacked: the point of sample
    ``index`` is random_sphere_point(n, rng_for(label, cfg.seed, index))."""
    return np.array([random_sphere_point(n, rng)
                     for rng in _generators(label, cfg.seed, indices)]
                    ).reshape(-1, n)
