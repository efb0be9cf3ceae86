"""Exterior-algebra multivectors over flat (k, n) space-times.

Graded multivector algebra (dot, wedge, interior products, Hodge
complements), analytic and grid-sampled multivector fields with exterior
calculus, generalized Maxwell residuals in differential, integral, and
Fourier form, and the stress-energy-momentum tensor with its conservation
law and slice fluxes.
"""

from .algebra import (
    Bitensor,
    GradeError,
    IdentityReport,
    Multivector,
    SignatureError,
    SpacetimeSignature,
    cross,
    dot,
    hodge,
    inv_hodge,
    left_interior,
    merge_with_sign,
    odot,
    owedge,
    right_interior,
    vec_interior_bitensor,
    verify_identities,
    wedge,
)
from .energy import (
    GaugeViolation,
    QuadraticTensorField,
    StressTensorField,
    conservation_residual,
    conservation_residual_components,
    flux_T_direct,
    flux_T_fourier,
    lorentz_force,
    stress_tensor_def,
    stress_tensor_explicit,
    stress_tensor_explicit_components,
    synthesize_on_cone_potential,
    tensor_divergence_identity,
    tensor_identity_check,
    trace,
    trace_components,
    trace_formula,
    trace_formula_components,
)
from .fields import (
    AnalyticField,
    FieldDomainError,
    GaussianEnvelope,
    GridField,
    Mode,
    constant_field,
    dalembertian,
    exterior_derivative,
    exterior_derivative_components,
    exterior_derivative_field,
    interior_derivative,
    interior_derivative_components,
    interior_derivative_field,
    partial_derivative,
    plane_wave,
    polynomial_field,
)
from .integrate import (
    HypersurfaceBox,
    bitensor_stokes_check,
    circulation,
    flux,
    gauss_legendre_rule,
    stokes_circulation_check,
    stokes_flux_check,
)
from .maxwell import (
    ClassicalFields,
    MaxwellSystem,
    charge_conservation_residual,
    classical_pack,
    classical_unpack,
    classical_vector_residual_components,
    classical_vector_residuals,
    dof_count,
    field_from_potential,
    fourier_maxwell_residuals,
    harmonic_gauge_residual,
    integral_maxwell_check,
    lorenz_gauge_residual,
    maxwell_residual_components,
    maxwell_residuals,
    null_frequency,
    null_support_violation,
    residuals_to_classical,
    transverse_gauge_residuals,
    wave_equation_residual,
)
from .serialize import (
    Scenario,
    ScenarioError,
    field_from_json,
    field_to_json,
    multivector_from_json,
    multivector_to_json,
    scenario_from_json,
)

__version__ = "0.1.0"
