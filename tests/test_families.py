"""Derived eigenfamilies: polynomial closure and product manifolds."""

import numpy as np
import pytest

from eigenlab.catalog import family_for_space, stack_members
from eigenlab.families import (base_family, polynomial_family,
                               product_family, product_ops, product_tension)
from eigenlab.operators import conformality, field_jets, field_value, tension
from eigenlab.pairs import make_pair
from eigenlab.sampling import SampleConfig, random_pair_point


@pytest.fixture(scope="module")
def quat11():
    pair = make_pair("sp-grassmannian", m=1, n=1)
    rng = np.random.default_rng(0)
    members = family_for_space("sp-grassmannian", m=1, n=1, rng=rng, pair=pair)
    return base_family(members)


class TestBaseFamily:
    def test_shares_eigenvalues(self, quat11):
        assert quat11.lam == -4.0
        assert quat11.mu == -1.0
        assert len(quat11) == 3  # j in {2,3,4} for alpha = 1

    def test_rejects_mixed(self, quat11):
        from eigenlab.catalog import su_so_phi
        other = su_so_phi(2, np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            base_family(list(quat11) + [other])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            base_family([])


class TestPolynomialFamily:
    def test_d1_keeps_eigenvalues(self, quat11):
        F = polynomial_family(quat11, 1)
        assert F.lam == quat11.lam
        assert F.mu == quat11.mu
        assert len(F) == len(quat11)

    def test_d2_eigenvalue_formula(self, quat11):
        # lambda' = d lambda + d(d-1) mu, mu' = d^2 mu
        F = polynomial_family(quat11, 2)
        assert F.lam == 2 * (-4.0) + 2 * (-1.0)  # -4(m+n) - 2 = -10
        assert F.mu == -4.0
        assert len(F) == 6  # C(3+1, 2) monomials

    def test_members_evaluate_as_monomials(self, quat11):
        F = polynomial_family(quat11, 2)
        cfg = SampleConfig(seed=50)
        m0 = quat11.members[0]
        p = random_pair_point(m0.pair, cfg, 0)
        vals = {mm.name: mm.value(p) for mm in F}
        a, b = quat11.members[0], quat11.members[1]
        key = f"{a.name}*{b.name}"
        assert key in vals
        assert abs(vals[key] - a.value(p) * b.value(p)) < 1e-12

    def test_d2_tension_measured(self, quat11):
        F = polynomial_family(quat11, 2)
        pair = quat11.members[0].pair
        B = pair.ambient
        cfg = SampleConfig(seed=51)
        for mm in F.members[:3]:
            f = mm.as_field()
            for i in range(5):
                p = random_pair_point(pair, cfg, i)
                t = tension(f, p, B)
                v = field_value(f, p)
                assert abs(t - F.lam * v) <= 1e-7 * max(1, abs(v))

    def test_custom_generator(self, quat11):
        gens = [("sum-of-squares", lambda vals: vals[0] ** 2 + vals[1] ** 2)]
        F = polynomial_family(quat11, 2, generators=gens)
        assert len(F) == 1
        assert F.members[0].name == "sum-of-squares"

    def test_rejects_non_homogeneous(self, quat11):
        gens = [("affine", lambda vals: vals[0] ** 2 + 1.0)]
        with pytest.raises(ValueError):
            polynomial_family(quat11, 2, generators=gens)
        gens = [("wrong-degree", lambda vals: vals[0] ** 3)]
        with pytest.raises(ValueError):
            polynomial_family(quat11, 2, generators=gens)

    def test_rejects_bad_degree(self, quat11):
        with pytest.raises(ValueError):
            polynomial_family(quat11, 0)


class TestProductFamily:
    def test_eigenvalues_add(self, quat11):
        F = product_family(quat11, quat11)
        assert F.lam == -8.0
        assert F.mu == -2.0
        assert len(F) == 9

    def test_symmetric_in_factors(self, quat11):
        rng = np.random.default_rng(1)
        other = base_family(
            family_for_space("u-grassmannian", m=1, n=1, rng=rng))
        a = product_family(quat11, other)
        b = product_family(other, quat11)
        assert (a.lam, a.mu) == (b.lam, b.mu)

    def test_member_values_multiply(self, quat11):
        F = product_family(quat11, quat11)
        cfg = SampleConfig(seed=53)
        pair = quat11.members[0].pair
        p1 = random_pair_point(pair, cfg, 0)
        p2 = random_pair_point(pair, cfg, 1)
        mm = F.members[1]  # psi_a x psi_b
        assert abs(mm.value((p1, p2))
                   - mm.f1.value(p1) * mm.f2.value(p2)) < 1e-13

    def test_tension_decomposition(self, quat11):
        # tau_{M1 x M2}(f g) = tau1(f) g + f tau2(g), checked pointwise
        F = product_family(quat11, quat11)
        pair = quat11.members[0].pair
        B = pair.ambient.elements
        cfg = SampleConfig(seed=54)
        for i in range(3):
            p1 = random_pair_point(pair, cfg, i)
            p2 = random_pair_point(pair, cfg, i + 3)
            for mm in F.members[:3]:
                direct = product_tension(mm, p1, p2, B, B)
                f1, f2 = mm.f1, mm.f2
                decomposed = (tension(f1.as_field(), p1, B) * f2.value(p2)
                              + f1.value(p1) * tension(f2.as_field(), p2, B))
                assert abs(direct - decomposed) <= 1e-9 * max(1, abs(direct))
                v = mm.value((p1, p2))
                assert abs(direct - F.lam * v) <= 1e-8 * max(1, abs(v))

    def test_conformality_decomposition(self, quat11):
        F = product_family(quat11, quat11)
        pair = quat11.members[0].pair
        B = pair.ambient.elements
        cfg = SampleConfig(seed=55)
        p1 = random_pair_point(pair, cfg, 0)
        p2 = random_pair_point(pair, cfg, 1)
        ma, mb = F.members[0], F.members[4]
        # kappa(phi, psi) is the off-diagonal entry of the product law on
        # factors stacked over the two members
        f1, f2 = (stack_members([getattr(ma, f), getattr(mb, f)])
                  for f in ("f1", "f2"))
        jets = (field_jets(f1.as_field(), p1, B),
                field_jets(f2.as_field(), p2, B))
        direct = product_ops(jets, 0)[2][0, 1]
        # kappa1(phi1, psi1) phi2 psi2 + phi1 psi1 kappa2(phi2, psi2)
        k1 = conformality(f1.as_field(), p1, B)[0, 1]
        k2 = conformality(f2.as_field(), p2, B)[0, 1]
        decomposed = (k1 * ma.f2.value(p2) * mb.f2.value(p2)
                      + ma.f1.value(p1) * mb.f1.value(p1) * k2)
        assert abs(direct - decomposed) <= 1e-9 * max(1, abs(direct))
        prod = ma.value((p1, p2)) * mb.value((p1, p2))
        assert abs(direct - F.mu * prod) <= 1e-8 * max(1, abs(prod))

