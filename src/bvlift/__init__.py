"""bvlift: total-variation energies and sphere-valued liftings of line fields.

The package computes discrete BV energies of fields valued in the projective
space (line fields, uniaxial Q-tensors) on regular grids, constructs
near-optimal sphere-valued liftings by rotation averaging, and numerically
checks the closed-form identities and optimality constants that govern them.
"""

from .constants import (ConstantResult, avg_eucl_jump, avg_eucl_jump_closed,
                        avg_lifted_dist, avg_lifted_dist_closed, ball_volume,
                        c1d_const, ca_const, cj_estimate, k_const, m_const,
                        psi_closed, psi_estimate, sphere_area)
from .fields import (EnergyReport, GridField, avg_directional_energy,
                     embedded_tv, mollified_energy,
                     mollified_energy_extrapolated, read_field, write_field)
from .geometry import (canonicalize, dist_proj, dist_sphere, embed_tensor,
                       eucl_jump_cost, haar_rotations, lift_sign,
                       random_unit_vectors, uniaxial_q)
from .lifting import (LiftResult, boundary_cells, lift_1d, lift_greedy_1d,
                      lift_rotation_search, lift_with_boundary, solve_laplace)
from .verify import (FIELD_KINDS, CheckReport, make_field, make_half_vortex,
                     make_half_vortex_lifting, run_all_suites,
                     run_diffuse_invariance_suite, run_half_vortex_suite,
                     run_identity_suite, run_repr_formula_suite, write_report)

__version__ = "0.1.0"
