"""
The quotient-to-group embedding Phi(p) = p sigma(p)^-1
======================================================

Phi maps G/K into G itself.  Numerically checkable facts, each at every
sampled point:

  * a closed form (p p^t and friends) matches the defining formula;
  * Phi is harmonic: the tangential part of its raw entrywise Laplacian
    vanishes;
  * the differential kills vertical directions and scales horizontal ones
    by exactly 2 (factor 4 on the metric);
  * composing a function on the image with Phi multiplies its tension by 4.
"""

import numpy as np

from eigenlab import (SampleConfig, cartan_map, cartan_map_closed,
                      family_for_space, harmonic_residual, image_tension,
                      make_pair, pullback_factor, random_pair_point,
                      random_subgroup_point, tension)

cfg = SampleConfig(seed=5)

print(f"{'space':>18} {'closed form':>12} {'harmonic':>10} "
      f"{'pullback':>10} {'vertical':>10}")
for space, m, n in [("su-so", None, 3), ("sp-u", None, 2), ("so-u", None, 3),
                    ("su-sp", None, 2), ("so-grassmannian", 2, 1),
                    ("u-grassmannian", 1, 2), ("sp-grassmannian", 1, 1)]:
    pair = make_pair(space, m=m, n=n)
    closed = harmonic = pull = vert = 0.0
    for i in range(10):
        p = random_pair_point(pair, cfg, i)
        closed = max(closed, np.abs(
            cartan_map(pair, p) - cartan_map_closed(pair, p)).max())
        harmonic = max(harmonic, harmonic_residual(pair, p))
        X = pair.p_basis[0]
        pull = max(pull, abs(pullback_factor(pair, p, X, X) - 4.0))
        if len(pair.k_basis):
            V = pair.k_basis[0]
            vert = max(vert, abs(pullback_factor(pair, p, V, V)))
    print(f"{pair.label():>18} {closed:>12.2e} {harmonic:>10.2e} "
          f"{pull:>10.2e} {vert:>10.2e}")

# Phi collapses K to the identity, so it factors through the quotient
pair = make_pair("su-so", n=3)
k = random_subgroup_point(pair, cfg, 0)
print(f"\n|Phi(k) - I| for k in K: {np.abs(cartan_map(pair, k) - np.eye(3)).max():.2e}")

# the factor-4 law: tau(eta o Phi) = 4 (tau_N eta) o Phi
phi = family_for_space("su-so", n=3)[0]
p = random_pair_point(pair, cfg, 1)
lhs = tension(phi.as_field(), p, pair.ambient)
rhs = 4.0 * image_tension(pair, phi, p)
print(f"tau(eta o Phi) = {lhs:.10f}")
print(f"4 tau_N(eta) o Phi = {rhs:.10f}")
print(f"difference: {abs(lhs - rhs):.2e}")
