"""Transition maps, blow-up constants, and cycle continuation for smoothed
planar two-zone flows whose sliding region ends at a visible even contact.
"""

from .errors import (
    RegtangError,
    DomainError,
    UnresolvedContact,
    DegenerateDenominator,
    OutOfRange,
    ClassMismatch,
    BadValuation,
    StepSizeUnderflow,
    DomainExit,
    NoCrossing,
    TangentialGraze,
    ConditionViolated,
    TransientNotDecayed,
    NoExit,
    NoRoot,
    LeftWindow,
    SlidingCapture,
    NoReturn,
    NonPositiveQuantity,
    NoBracket,
    NotConverged,
    MaxRevolutions,
)
from .polys import Poly1, Poly2
from .phi import (
    TransitionFunction,
    phi_family,
    phi_inverse,
    phi_bracket_constant,
    phi_bracket_exact,
)
from .fields import (
    PlanarField,
    FilippovSystem,
    field_from_polys,
    lie_derivative,
    contact_classification,
    classify_sigma_point,
    sliding_field,
)
from .integrate import (
    IntegratorConfig,
    SectionSpec,
    EventHit,
    Trajectory,
    flow,
    flow_to_section_traj,
    sample_dense,
)
from .regularize import (
    RegularizedField,
    BandField,
    SlowManifold,
    departure_coefficient,
    sandwich_exponent,
    SandwichReport,
    slow_manifold_sandwich_check,
)
from .maps import (
    TransitionConfig,
    TransitionResult,
    ScalingFit,
    lambda_star,
    find_x_epsilon,
    tangency_curve_psi,
    predicted_upper_boundary,
    upper_transition_map,
    lower_transition_map,
    fit_scaling,
    mirror_map,
    mirror_fixed_point,
    mirror_derivative,
)
from .blowup import (
    EquatorialChart,
    PlanarCrossing,
    planar_model_crossing,
    scaling_constants,
    sigma_shift,
    sigma_bound,
    departure_prefactor,
)
from .cycles import (
    CycleResult,
    CycleInfo,
    ReturnInfo,
    find_cycle,
    return_map,
    cycle_analysis,
    loop_period,
    default_bracket,
    unique_root_scan,
    hausdorff_distance,
    resample_arclength,
    grazing_half_map,
    grazing_exponent_fit,
)
from .scenarios import (
    canonical_system,
    boundary_cycle_system,
    time_reversed,
    oval_point,
    oval_polyline,
    build_scenario,
    SCENARIOS,
)

__version__ = "0.1.0"
