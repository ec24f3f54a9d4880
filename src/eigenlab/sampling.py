"""Deterministic pseudo-random points on the classical compact groups and
the unit sphere.

Points are mat_exp of a random Lie-algebra element with coefficients drawn
uniformly from [-RADIUS, RADIUS].  Streams are counter-based (Philox keyed
by a hash of the stream label and seed, counter = index * 2^64), so sample
``index`` of a given configuration is O(1) to reach, stateless, and
bitwise-reproducible; parallel generation is safe.

Each point set is drawn in one call over a sequence of indices (each below
2^64): every coefficient row comes from one array evaluation of Philox
over all the indices, equal bit for bit to each sample's own generator,
the rows meet the pair's planned basis in one sparse_matmul, and the stack
is exponentiated once.  Sphere points are the same rows, normalised.  The
one-index functions are that call with a single index: the same matrix
bit for bit.  rng_for gives one sample's numpy Generator, for the single
family-parameter draw of a pair.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .bases import group_basis
from .matrices import (SparsePlan, mat_exp, membership_residual, real_rows,
                       sparse_matmul, sparse_plan)

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


def _key(label: str, seed: int) -> int:
    return int.from_bytes(
        hashlib.sha256(f"{label}:{seed}".encode()).digest()[:16], "little")


def rng_for(label: str, seed: int, index: int) -> np.random.Generator:
    """The generator for one sample of one stream."""
    return np.random.Generator(np.random.Philox(key=_key(label, seed),
                                                counter=int(index) << 64))


# Philox4x64-10 (Salmon et al., SC 2011), as numpy's Philox computes it:
# the multipliers of counter words 0 and 2, and the key's Weyl increments
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10


def _uniform_rows(label: str, seed: int, indices, width: int) -> np.ndarray:
    """Row r: the first ``width`` draws of rng_for(label, seed,
    indices[r]).uniform(-RADIUS, RADIUS), bit for bit, for indices below
    2^64, all in one pass: Philox4x64-10 of the counters (block, index, 0,
    0) for the blocks 1..ceil(width / 4), each 64-bit output word w read
    as -RADIUS + 2 RADIUS ((w >> 11) 2^-53)."""
    index = np.fromiter(indices, np.uint64)
    blocks = -(-width // 4)
    # counter words 0 and 2, which a round multiplies, and 1 and 3, which
    # it xors, for every (index, block); every operand has their shape,
    # since numpy broadcasts a scalar or a short axis slower than it runs
    # a small draw's arithmetic
    shape = (2, len(index) * blocks)
    mul = np.zeros(shape, np.uint64)
    mul[0] = np.tile(np.arange(1, blocks + 1, dtype=np.uint64), len(index))
    xor = np.zeros(shape, np.uint64)
    xor[0] = np.repeat(index, blocks)

    def full(words):
        return np.repeat(np.array(words, np.uint64)[..., None], shape[1], -1)

    m, low, s32 = full(_PHILOX_M), full((0xFFFFFFFF,) * 2), full((32, 32))
    m_lo, m_hi = m & low, m >> s32
    key = [_key(label, seed) >> 64 * i & _WORD for i in range(2)]
    keys = []
    for _ in range(_PHILOX_ROUNDS):
        keys.append(key)
        key = [(k + inc) & _WORD for k, inc in zip(key, _PHILOX_W)]
    for key in full(keys):
        # the high words of m mul from 32-bit halves: no partial product
        # or sum overflows
        x_lo, x_hi = mul & low, mul >> s32
        t = m_lo * x_lo
        u = m_hi * x_lo + (t >> s32)
        v = m_lo * x_hi + (u & low)
        hi = m_hi * x_hi + (u >> s32) + (v >> s32)
        mul, xor = hi[::-1] ^ xor ^ key, (m * mul)[::-1]
    words = np.stack([mul[0], xor[0], mul[1], xor[1]], axis=-1)
    words = words.reshape(len(index), 4 * blocks)[:, :width]
    return -RADIUS + 2 * RADIUS * ((words >> np.uint64(11)) * 2.0 ** -53)


def _combos(basis: SparsePlan, label: str, cfg: SampleConfig, indices):
    """Each sample's combination of a (width, n, n) basis stack, given as
    its real rows' sparse_plan, with its coefficient row of
    _uniform_rows."""
    width, cols = basis.shape
    n = math.isqrt(cols // 2)
    coeff = _uniform_rows(label, cfg.seed, indices, width)
    return sparse_matmul(coeff, basis).view(complex).reshape(-1, n, n)


def random_algebra_elements(group: str, n: int, cfg: SampleConfig,
                            indices) -> np.ndarray:
    """Samples ``indices`` of the (group, n, cfg) algebra stream, stacked."""
    basis = sparse_plan(real_rows(group_basis(group, n).elements))
    return _combos(basis, f"{group}:{n}", cfg, indices)


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
    return mat_exp(_combos(pair.k_sparse, f"{pair.label()}:k", cfg, indices))


def random_subgroup_point(pair, cfg: SampleConfig, index: int) -> np.ndarray:
    """A point of the fixed-point subgroup K of a SymmetricPair."""
    return random_subgroup_points(pair, cfg, (index,))[0]


def random_pair_points(pair, cfg: SampleConfig, indices) -> np.ndarray:
    """Points of the ambient group G of a SymmetricPair; one per index,
    stacked."""
    return mat_exp(_combos(pair.ambient_sparse, f"{pair.label()}:g", cfg,
                           indices))


def random_pair_point(pair, cfg: SampleConfig, index: int) -> np.ndarray:
    """A point of the ambient group G of a SymmetricPair."""
    return random_pair_points(pair, cfg, (index,))[0]


def random_sphere_points(n: int, label: str, cfg: SampleConfig,
                         indices) -> np.ndarray:
    """Points of the unit sphere in C^n, stacked: sample ``index`` is its
    row of _uniform_rows over 2n columns, read as the real parts, then the
    imaginary parts, and normalised.  The points are not uniform on the
    sphere; the identities checked on them hold at every point."""
    x = _uniform_rows(label, cfg.seed, indices, 2 * n)
    z = x[:, :n] + 1j * x[:, n:]
    return z / np.linalg.norm(z, axis=1, keepdims=True)
