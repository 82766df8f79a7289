"""Multipole expansions as weighted point sets on bounding spheres.

Spherical-harmonic machinery is replaced throughout by a quadrature
representation: an expansion is a set of weights at Lebedev points on
its bounding sphere.  The package provides expansion fitting and
evaluation, shift (translation) operators, conversion to and from
Cartesian polytensors, exact boundary-integral quadratures on spheres,
and a potential-flow solver.
"""
from .errors import (
    CapacityError,
    ContractViolation,
    DomainError,
    GeometryError,
    QuadpoleError,
    SingularityError,
    SolverError,
    UnsupportedOrderError,
)
from .legendre import kernel_matrix, kernel_sum, legendre_poly
from .quadrature import (
    QuadratureRule,
    available_orders,
    lebedev_rule,
    rule_for_expansion,
    verify_exactness,
)
from .expansion import (
    PointCharges,
    SurfaceExpansion,
    direct_energy,
    direct_potential,
    energy_between_outers,
    eval_inner_potential,
    eval_outer_potential,
    eval_point_charge_potential,
    expansion_from_text,
    expansion_to_text,
    fit_inner,
    fit_outer,
    interaction_energy,
)
from .translation import outer_to_inner, shift_inner, shift_outer
from .tensors import (
    Polytensor,
    contract,
    detrace_directional,
    directional_moment,
    expansion_from_polytensor,
    moments_from_charges,
    partial_contract,
    polytensor_from_expansion,
    polytensor_from_text,
    polytensor_to_text,
    symmetric_product,
)
from .bem import (
    FlowSolution,
    SphereBoundary,
    boundary_error,
    double_layer_ext,
    double_layer_int,
    jump_check,
    outer_gradient,
    parse_scene,
    single_layer_ext,
    single_layer_int,
    solve_potential_flow,
)

__version__ = "0.1.0"
