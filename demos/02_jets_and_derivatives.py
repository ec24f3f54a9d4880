"""
Second-order jets along one-parameter subgroups
===============================================

A 2-jet carries (value, first derivative, second derivative) through
arithmetic exactly, so derivatives of matrix-entry expressions along
s -> p exp(sZ) come out to machine precision.  A finite-difference probe
of the same derivative shows the usual h^2 truncation error for contrast.
"""

import numpy as np

from eigenlab import (Jet2, JetMatrix, SampleConfig,
                      direction_derivs, finite_difference_derivs,
                      group_basis, random_point)

# scalar jets: (value, d1, d2) with the product rule built in
a = Jet2(2.0, 3.0, 4.0)
b = Jet2(5.0, 7.0, 9.0)
print("a*b   =", a * b)           # d2 = a2 b + 2 a1 b1 + a b2
print("a**3  =", a ** 3)
print("sqrt(a*a) =", (a * a).sqrt())

# the curve jet of s -> p exp(sZ) is (p, pZ, pZ^2): no expm needed
n = 3
B = group_basis("su", n)
cfg = SampleConfig(seed=11)
p = random_point("su", n, cfg, 0)
jm = JetMatrix.curve(p, B[0])
print("\ncurve jet value == p:", np.allclose(jm.v, p))
print("curve jet d1    == pZ:", np.allclose(jm.d1[0], p @ B[0]))

# a field is any jet-in, jet-out evaluator; here q -> q_01 * conj(q_12)
f = lambda j: j[..., 0, 1] * j[..., 1, 2].conj()

print("\nderivatives of q01 * conj(q12) along each basis direction:")
print(f"{'direction':>10} {'jet d1':>24} {'fd d1 err':>12} {'fd d2 err':>12}")
for k in range(3):
    d1, d2 = direction_derivs(f, p, B[k])
    f1, f2 = finite_difference_derivs(f, p, B[k], h=1e-5)
    print(f"{k:>10} {d1:>24.3e} {abs(d1 - f1):>12.2e} {abs(d2 - f2):>12.2e}")

# one jet carries all dim many curves at once: d1 holds one slice per
# direction, and d2 is already the sum of the second derivatives over them
M = np.diag([1.0, -1.0, 0.0]).astype(complex)
g = lambda j: (j @ M).trace()
stack = np.stack(list(B))
jall = g(JetMatrix.curve(p, stack))
batched = jall.d2
looped = sum(direction_derivs(g, p, Z)[1] for Z in B)
print(f"\ntau(tr(qM)) batched: {batched:.6f}   looped: {looped:.6f}")
print("(the sum of second derivatives is the Laplace-Beltrami operator)")
