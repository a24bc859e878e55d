"""Exact conductor-exponent calculus for group filtrations and
Weil-Deligne block data, with brute-force character-theoretic oracles."""

from .chars import Character, ClassFunction, CharacterTable, character_table, fixed_dim
from .cyclo import CycloNum
from .filtration import (ConductorReport, conductor, conductor_exponent,
                         min_sum_bound, pgroup_tensor_bound,
                         symplectic_tensor_bound, tensor_level_identity)
from .globalbound import (GlobalDatum, PrimeLocalPair, PrimeSummary, d_term,
                          rankin_selberg_bound)
from .groups import (FiniteGroup, Filtration, Subgroup, affine, build_group,
                     cyclic, dihedral, direct_product, elementary_abelian,
                     filtration_from_generators, heisenberg, quaternion8,
                     subgroup_generated)
from .jacobians import (BreakRep, FamilyParams, disc_valuation,
                        jacobian_inertia_model, joint_break_model,
                        smallest_valid_unit, swan_jacobian,
                        validate_params, verify_sharpness)
from .weildeligne import (AbVarDatum, InertiaModel, LocalPair, WDRep,
                          clebsch_gordan, conductor_bound, degree_gap,
                          semistable_equality, swan_bound, tame_identity,
                          tensor, uniform_bound)

__version__ = "0.1.0"
