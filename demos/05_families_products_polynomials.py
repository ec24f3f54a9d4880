"""
Eigenvalue transformation laws
==============================

Starting from one eigenfamily with (lambda, mu), two constructions give
new eigenfunctions with predictable eigenvalues:

  * any homogeneous degree-d polynomial in the members:
        lambda' = d lambda + d (d - 1) mu,   mu' = d^2 mu
  * a product of members from two independent spaces:
        lambda' = lambda1 + lambda2,         mu' = mu1 + mu2

Both are verified here by direct measurement on the quaternionic
one-plane space, whose base family has (lambda, mu) = (-4, -1).
"""

import numpy as np

from eigenlab import (SampleConfig, base_family, family_for_space,
                      field_value, make_pair, polynomial_family,
                      product_family, product_tension, quotient_ops,
                      random_pair_point, tension)

F = base_family(family_for_space("sp-grassmannian", m=1, n=1))
print(f"base family on {F.space}: {len(F)} members, "
      f"lambda = {F.lam:.1f}, mu = {F.mu:.1f}")

pair = make_pair("sp-grassmannian", m=1, n=1)
cfg = SampleConfig(seed=17)

for d in (2, 3):
    PF = polynomial_family(F, d)
    member = PF.members[0]
    claimed = d * F.lam + d * (d - 1) * F.mu
    print(f"\ndegree {d}: {len(PF)} monomials, "
          f"claimed lambda' = {claimed:.1f}, mu' = {d * d * F.mu:.1f}")
    measured = []
    for i in range(5):
        q = random_pair_point(pair, cfg, i)
        horiz, _, _ = quotient_ops(pair, member.as_field(), q)
        measured.append(horiz / field_value(member.as_field(), q))
    spread = np.ptp([x.real for x in measured])
    print(f"  member {member.name!r}: measured lambda' = "
          f"{np.mean(measured).real:.10f} (spread {spread:.2e})")

# a product across two copies of the space sums the eigenvalues
PF = product_family(F, F)
print(f"\nproduct family: {len(PF)} members, "
      f"lambda = {PF.lam:.1f}, mu = {PF.mu:.1f}")

member = PF.members[0]
q1 = random_pair_point(pair, cfg, 11)
q2 = random_pair_point(pair, cfg, 12)
tau = product_tension(member, q1, q2, pair.p_basis, pair.p_basis)
val = member.value((q1, q2))
print(f"measured lambda on the product: {(tau / val).real:.10f}")
# the same tau from each factor's own tension on its own space
f1, f2 = member.f1, member.f2
by_factor = (tension(f1.as_field(), q1, pair.p_basis) * f2.value(q2)
             + f1.value(q1) * tension(f2.as_field(), q2, pair.p_basis))
print(f"tau1 phi2 + phi1 tau2 from the factors agrees to "
      f"{abs(tau - by_factor):.2e}")
