"""eigenlab: exact-jet verification of complex-valued eigenfunctions on
the classical compact Lie groups and their symmetric quotients.

The library builds orthonormal Lie-algebra bases, samples deterministic
pseudo-random group points, evaluates the Laplace-Beltrami (tension) and
conformality operators as exact second-order derivatives along
one-parameter subgroups, and verifies the cataloged eigenfunction families
against their claimed eigenvalues.

The package namespace re-exports what the demos and the README use; every
other name is imported from its submodule.
"""

__version__ = "0.1.0"

from .jets import Jet2, JetMatrix
from .matrices import mat_exp, membership_residual
from .bases import algebra_residual, gram_matrix, group_basis, square_sum
from .pairs import make_pair
from .sampling import (SampleConfig, random_pair_point, random_point,
                       random_sphere_points, random_subgroup_point)
from .operators import (direction_derivs, field_value,
                        finite_difference_derivs, image_tension,
                        quotient_ops, tension)
from .cartan import (cartan_map, cartan_map_closed, harmonic_residual,
                     pullback_factor)
from .catalog import family_for_space, table_eigenvalues
from .families import (base_family, polynomial_family, product_family,
                       product_tension)
from .ambient import (cpn_ops, cpn_phi, rotate_field, sphere_ops, sphere_phi,
                      stack_fields)

__all__ = [
    "__version__",
    "Jet2", "JetMatrix",
    "mat_exp", "membership_residual",
    "algebra_residual", "gram_matrix", "group_basis", "square_sum",
    "make_pair",
    "SampleConfig", "random_pair_point", "random_point",
    "random_sphere_points", "random_subgroup_point",
    "direction_derivs", "field_value",
    "finite_difference_derivs", "image_tension", "quotient_ops", "tension",
    "cartan_map", "cartan_map_closed", "harmonic_residual",
    "pullback_factor",
    "family_for_space", "table_eigenvalues",
    "base_family", "polynomial_family", "product_family", "product_tension",
    "cpn_ops", "cpn_phi", "rotate_field", "sphere_ops", "sphere_phi",
    "stack_fields",
]
