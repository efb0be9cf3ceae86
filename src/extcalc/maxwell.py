"""Generalized Maxwell equations for a grade-r field with a grade-(r-1) source.

The differential system is: interior derivative of F equals J, exterior
derivative of F equals zero.  This module evaluates those residuals as dense
rows over a point array (``maxwell_residuals`` is the one-row case), the wave
equation of a potential (gauge residuals are ``fields.interior_derivative``),
the per-mode Fourier (algebraic) form, the integral form over boxes, the
degrees-of-freedom count, and the packing of classical (E, B, rho, j) data
into the bivector form on (1, 3) space-time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .algebra import (
    GradeError,
    Multivector,
    SpacetimeSignature,
    _product_table,
    dot,
    left_interior,
    wedge,
)
from .fields import (
    EXTERIOR,
    INTERIOR,
    AnalyticField,
    _derivative_at,
    _derivative_rows,
    as_point,
    dalembertian,
)
from .integrate import DEFAULT_POINTS, HypersurfaceBox, _integral, flux

__all__ = [
    "MaxwellSystem",
    "ClassicalFields",
    "maxwell_residuals",
    "maxwell_residual_components",
    "wave_equation_residual",
    "fourier_maxwell_residuals",
    "null_support_violation",
    "null_frequency",
    "dof_count",
    "classical_pack",
    "classical_unpack",
    "classical_vector_residual_components",
    "residuals_to_classical",
    "integral_maxwell_check",
]

MINKOWSKI = SpacetimeSignature(1, 3)
SPACE_AXES_3D = (1, 2, 3)

# a Fourier mode whose normalized residuals are within this counts as a solution
NULL_SUPPORT_TOL = 1e-9


@dataclass(frozen=True)
class MaxwellSystem:
    """A field grade r, the Maxwell field F, and the source J (grade r-1)."""

    signature: SpacetimeSignature
    r: int
    F: object
    J: object = None

    def __post_init__(self):
        if not 1 <= self.r <= self.signature.dim:
            raise GradeError(f"field grade {self.r} out of range 1..{self.signature.dim}")
        if self.F.signature != self.signature or self.F.grade != self.r:
            raise GradeError("F must have the declared signature and grade r")
        if self.J is None:
            object.__setattr__(self, "J", AnalyticField(self.signature, self.r - 1))
        if self.J.signature != self.signature or self.J.grade != self.r - 1:
            raise GradeError("J must have the declared signature and grade r-1")


def maxwell_residuals(system: MaxwellSystem, x: Sequence[float]) -> tuple[Multivector, Multivector]:
    """(interior derivative of F minus J, exterior derivative of F) at x, both
    from one jet of F."""
    slopes = system.F.jet(as_point(system.signature, x)[None, :])[1]
    inhom = _derivative_at(system.F, INTERIOR, x, slopes=slopes) - system.J.evaluate(x)
    hom = _derivative_at(system.F, EXTERIOR, x, slopes=slopes)
    return inhom, hom


def maxwell_residual_components(system: MaxwellSystem, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dense rows of (interior derivative of F minus J, exterior derivative of
    F) at every point, in ``index_lists`` order of grades r - 1 and r + 1; the
    second has no columns when r is the top grade."""
    points = np.asarray(points, dtype=float)
    slopes = system.F.jet(points)[1]
    inhom, hom = (_derivative_rows(system.F, kind, points, slopes=slopes) for kind in (INTERIOR, EXTERIOR))
    return inhom - system.J.evaluate_components(points), hom


def wave_equation_residual(potential: AnalyticField, source, x: Sequence[float]) -> Multivector:
    """(-1)^(r-1) (wave operator) A - J at x; the Maxwell residual under Lorenz gauge."""
    r = potential.grade + 1
    value = ((-1) ** (r - 1)) * dalembertian(potential, x)
    if source is not None:
        value = value - source.evaluate(x)
    return value


# ---------------------------------------------------------------------------
# Fourier (algebraic) form
# ---------------------------------------------------------------------------

def _as_covector(sig: SpacetimeSignature, xi) -> Multivector:
    if isinstance(xi, Multivector):
        if xi.grade != 1:
            raise GradeError("frequency covector must have grade 1")
        return xi
    return Multivector.vector(sig, xi)


def fourier_maxwell_residuals(xi, f_hat: Multivector,
                              j_hat: Multivector | None = None) -> tuple[Multivector, Multivector]:
    """Per-mode algebraic residuals (j 2 pi xi interior F_hat - J_hat, xi wedge F_hat)."""
    sig = f_hat.signature
    cov = _as_covector(sig, xi)
    inhom = (2j * math.pi) * left_interior(cov, f_hat)
    if j_hat is not None:
        inhom = inhom - j_hat
    hom = wedge(cov, f_hat)
    return inhom, hom


def null_support_violation(xi, f_hat: Multivector) -> dict:
    """Check that a source-free mode with both residuals within NULL_SUPPORT_TOL sits on
    the null cone.  Reports the largest residual components, the inhomogeneous one
    divided by 2 pi, and the contradiction magnitude |xi . xi| * |F_hat|."""
    sig = f_hat.signature
    cov = _as_covector(sig, xi)
    inhom, hom = fourier_maxwell_residuals(cov, f_hat)
    inhom_max, hom_max = inhom.max_abs() / (2 * math.pi), hom.max_abs()
    xi_sq = dot(cov, cov)
    satisfied = inhom_max <= NULL_SUPPORT_TOL and hom_max <= NULL_SUPPORT_TOL
    violation = abs(xi_sq) * f_hat.max_abs() if satisfied else 0.0
    return {
        "xi_dot_xi": xi_sq,
        "inhom_max": inhom_max,
        "hom_max": hom_max,
        "residuals_satisfied": satisfied,
        "violation": violation,
        "consistent": (not satisfied) or violation <= NULL_SUPPORT_TOL,
    }


def null_frequency(xi_bar, axis: int, sig: SpacetimeSignature | None = None) -> Multivector | None:
    """Complete a frequency covector with zero component on ``axis`` to a null one.

    Returns the covector whose ``axis`` component is the positive root of
    chi^2 = -Delta_ll (xi_bar . xi_bar), or None when the radicand is negative.
    """
    if isinstance(xi_bar, Multivector):
        sig = xi_bar.signature
        cov = xi_bar
    else:
        if sig is None:
            raise ValueError("a signature is required when xi_bar is a plain sequence")
        cov = Multivector.vector(sig, xi_bar)
    if cov.grade != 1:
        raise GradeError("xi_bar must have grade 1")
    if cov.coeff((axis,)) != 0:
        raise ValueError(f"xi_bar must have a zero component on axis {axis}")
    radicand = -sig.metric(axis) * dot(cov, cov)
    if radicand < 0:
        return None
    chi = math.sqrt(radicand)
    return cov + Multivector.blade(sig, (axis,), chi)


def dof_count(r: int, k: int, n: int) -> int:
    """Propagating degrees of freedom: binomial(k + n - 2, r - 1)."""
    if k < 1 or n < 1:
        raise ValueError("degrees of freedom need at least one time and one space axis")
    if not 1 <= r <= k + n:
        raise GradeError(f"grade {r} out of range 1..{k + n}")
    return math.comb(k + n - 2, r - 1)


# ---------------------------------------------------------------------------
# classical (1,3) bridge
# ---------------------------------------------------------------------------

def _require_spatial(field, name: str):
    temporal = [0 in indices for indices in field.signature.index_lists(field.grade)]
    if np.any(field._table.amp[:, temporal] != 0):
        raise ValueError(f"{name} must have purely spatial components")


@dataclass(frozen=True)
class ClassicalFields:
    """Classical electrodynamics data on (1, 3): E, B, charge and current density.

    E, B, j are grade-1 analytic fields with spatial components only; rho has
    grade 0.  All live on the shared Minkowski signature with axis 0 as time.
    """

    E: AnalyticField
    B: AnalyticField
    rho: AnalyticField
    j: AnalyticField

    def __post_init__(self):
        for name, fld, grade in (("E", self.E, 1), ("B", self.B, 1), ("rho", self.rho, 0), ("j", self.j, 1)):
            if fld.signature != MINKOWSKI:
                raise ValueError(f"{name} must live on the (1,3) signature")
            if fld.grade != grade:
                raise GradeError(f"{name} must have grade {grade}")
        _require_spatial(self.E, "E")
        _require_spatial(self.B, "B")
        _require_spatial(self.j, "j")


# position of the spatial volume blade e_123 among the grade-3 blades: the
# spatial Hodge maps of (1, 3) are right_interior(e_123, v) and left_interior(b, e_123)
_E123 = list(MINKOWSKI.index_lists(3)).index(SPACE_AXES_3D)


def classical_pack(cf: ClassicalFields) -> MaxwellSystem:
    """Build the grade-2 system F = e_0 wedge E + spatial Hodge of B, J = rho e_0 + j.

    Each amplitude map is a table on unit blades: slices of ``_product_table``
    for E and B, the time column for rho."""
    f_field = (cf.E._mapped(_product_table(MINKOWSKI, "w", 1, 1)[0], 2)
               + cf.B._mapped(_product_table(MINKOWSKI, "r", 3, 1)[_E123], 2))
    rho = cf.rho._mapped(np.eye(MINKOWSKI.dim)[:1], 1)
    return MaxwellSystem(signature=MINKOWSKI, r=2, F=f_field, J=rho + cf.j)


def classical_unpack(system: MaxwellSystem) -> ClassicalFields:
    """Split a (1,3) grade-2 system back into E = e_0 interior F, B = F
    interior e_123, and rho and j, the time and space components of J."""
    if system.signature != MINKOWSKI or system.r != 2:
        raise GradeError("classical_unpack requires signature (1,3) and r = 2")
    return ClassicalFields(E=system.F._mapped(_product_table(MINKOWSKI, "l", 1, 2)[0], 1),
                           B=system.F._mapped(_product_table(MINKOWSKI, "l", 2, 3)[:, _E123], 1),
                           rho=system.J._mapped(np.eye(MINKOWSKI.dim)[:, :1], 0),
                           j=system.J._mapped(np.diag([0.0, 1.0, 1.0, 1.0]), 1))


def classical_vector_residual_components(cf: ClassicalFields, points: np.ndarray) -> dict:
    """The four vector-calculus Maxwell residuals at every point, evaluated
    independently of the multivector form.

    Returns gauss = div E - rho and monopole = div B as (npoints,) arrays,
    faraday = curl E + dB/dt and ampere = curl B - j - dE/dt as (npoints, 3),
    using only per-component partial derivatives.
    """
    points = np.asarray(points, dtype=float)

    def curl(d):
        return np.stack([d[2][:, 3] - d[3][:, 2], d[3][:, 1] - d[1][:, 3], d[1][:, 2] - d[2][:, 1]], axis=1)

    def div(d):
        return d[1][:, 1] + d[2][:, 2] + d[3][:, 3]

    # d[axis][:, i] is the partial along axis of component e_i
    d_e, d_b = cf.E.jet(points)[1], cf.B.jet(points)[1]
    return {
        "gauss": div(d_e) - cf.rho.evaluate_components(points)[:, 0],
        "faraday": curl(d_e) + d_b[0][:, 1:],
        "monopole": div(d_b),
        "ampere": curl(d_b) - cf.j.evaluate_components(points)[:, 1:] - d_e[0][:, 1:],
    }


def residuals_to_classical(inhom, hom) -> dict:
    """Map the (1,3), r = 2 residual pair onto the classical four.

    Takes the pair as multivectors or as dense rows (npoints, ncomp) in
    ``index_lists`` order, such as ``maxwell_residual_components`` returns;
    rows give per-point arrays.
    """
    if isinstance(inhom, Multivector):
        inhom, hom = inhom.row(), hom.row()
    # hom columns: e_012, e_013, e_023, e_123
    return {"gauss": inhom[..., 0],
            "faraday": np.stack([-hom[..., 2], hom[..., 1], -hom[..., 0]], axis=-1),
            "monopole": hom[..., 3],
            "ampere": inhom[..., 1:4]}


# ---------------------------------------------------------------------------
# integral form
# ---------------------------------------------------------------------------

def integral_maxwell_check(system: MaxwellSystem,
                           circulation_box: HypersurfaceBox | None = None,
                           flux_box: HypersurfaceBox | None = None,
                           points: int = DEFAULT_POINTS, panels: int = 1) -> tuple[float | None, float | None]:
    """Integral-form residuals over box boundaries.

    The circulation of F around the boundary of an (r+1)-box must vanish; the
    flux of F across the boundary of a (k+n-r+1)-box must equal the flux of J
    through the box.  Each boundary is integrated in one evaluation of F over
    all its faces' nodes.  Returns absolute residuals, None for a skipped check.
    """
    sig = system.signature
    circ_res = None
    if circulation_box is not None:
        if circulation_box.dim != system.r + 1:
            raise GradeError(f"circulation box must have dimension {system.r + 1}")
        circ_res = abs(_integral(system.F.evaluate_components, circulation_box, points, panels,
                                 system.r, "circulation", faces=True))
    flux_res = None
    if flux_box is not None:
        expected = sig.dim - system.r + 1
        if flux_box.dim != expected:
            raise GradeError(f"flux box must have dimension {expected}")
        boundary = _integral(system.F.evaluate_components, flux_box, points, panels, system.r, "flux",
                             faces=True)
        through = flux(system.J, flux_box, points, panels)
        flux_res = (boundary - through).max_abs()
    return circ_res, flux_res
