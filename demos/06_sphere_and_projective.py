"""
Spheres and complex projective spaces by the ambient route
==========================================================

Round spheres sit in C^n, so instead of group curves we differentiate the
degree-0 homogeneous extension of a function along the 2n real coordinate
axes and restrict to |z| = 1.  The projective space then comes for free:
subtract the Hopf-fiber direction from the sphere operators.

    phi_j   = z_j / |z|          on S^{2n-1}:  lambda = -(2n-1), mu = -1
    phi_jk  = z_j conj(z_k)/|z|^2 on CP^{n-1}: lambda = -4n,     mu = -4
"""

import numpy as np

from eigenlab import (SampleConfig, cpn_ops, cpn_phi, random_sphere_points,
                      rotate_field, sphere_ops, sphere_phi, stack_fields)

n = 3
# sample 0 of the "demo" stream at seed 42: a point of C^3 with |x| = 1
x = random_sphere_points(n, "demo", SampleConfig(seed=42), [0])[0]
print(f"sample point on S^5, |x| = {np.linalg.norm(x):.15f}\n")

print("sphere eigenfunctions phi_j = z_j / |z|:")
for j in range(1, n + 1):
    f = sphere_phi(n, j)
    _, tau, kap = sphere_ops(f, x)
    v = f.value(x)
    print(f"  j={j}: tau/phi = {(tau / v).real:>12.8f}   "
          f"kappa/phi^2 = {(kap / (v * v)).real:>12.8f}")
print(f"  expected: {-(2 * n - 1)} and -1")

# kappa of two distinct members is -phi_j phi_k: the family is isotropic.
# kappa pairs the members of one field, so stack the two and read the
# off-diagonal entry
f1, f2 = sphere_phi(n, 1), sphere_phi(n, 2)
kap12 = sphere_ops(stack_fields([f1, f2]), x)[2][0, 1]
print(f"\nkappa(phi1, phi2) + phi1 phi2 = "
      f"{abs(kap12 + f1.value(x) * f2.value(x)):.2e}")

# the operators are rotation invariant: rotating the field and the point
# by the same unitary changes nothing
rng = np.random.default_rng(42)
U = np.linalg.qr(rng.standard_normal((n, n))
                 + 1j * rng.standard_normal((n, n)))[0]
g = rotate_field(f1, U)
_, t0, k0 = sphere_ops(f1, x)
_, t1, k1 = sphere_ops(g, U @ x)
print(f"rotation invariance: |d tau| = {abs(t0 - t1):.2e}, "
      f"|d kappa| = {abs(k0 - k1):.2e}")

# projective space: circle-invariant functions, fiber contribution removed
print(f"\nCP^{n - 1} eigenfunctions phi_jk = z_j conj(z_k) / |z|^2:")
for (j, k) in [(1, 2), (1, 3), (2, 3)]:
    f = cpn_phi(n - 1, j, k)
    _, tau, kap = cpn_ops(f, x)
    v = f.value(x)
    print(f"  (j,k)=({j},{k}): tau/phi = {(tau / v).real:>12.8f}   "
          f"kappa/phi^2 = {(kap / (v * v)).real:>12.8f}")
print(f"  expected: {-4 * n} and -4")

# phi_j itself is not circle invariant, so the projective operators refuse it
try:
    cpn_ops(sphere_phi(n, 1), x)
except ValueError as e:
    print(f"\ncpn_ops(sphere_phi) raises: {e!s:.60}")
