"""Circulation, flux, and Stokes-theorem checks over axis-aligned boxes.

A hypersurface is an axis-aligned box: a set of free axes carrying intervals,
fixed coordinates on the remaining axes, and an overall orientation sign.
Integrals are tensor-product Gauss-Legendre quadratures (composite when
``panels`` is raised) taken in one ``weights @ rows(nodes)`` step over dense
component rows.  Each integrand is a product linear in the field with a fixed
volume differential, so the product is applied once, after integration.

Boundary faces carry the induced orientation: the face fixing free axis q at
its upper end is weighted by the sign of the permutation moving q in front of
the remaining free axes, and the lower end by its negative.  With this rule
the circulation, flux, and bitensor Stokes identities all hold on boxes; on a
half space it reproduces the constant-coordinate slice element of the paper
with outward normal along the fixed axis.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping

import numpy as np

from .algebra import (
    Bitensor,
    GradeError,
    Multivector,
    SpacetimeSignature,
    dot,
    inv_hodge,
    left_interior,
    vec_interior_bitensor,
)
from .fields import exterior_derivative_field, interior_derivative_field

__all__ = [
    "HypersurfaceBox",
    "gauss_legendre_rule",
    "circulation",
    "flux",
    "stokes_circulation_check",
    "stokes_flux_check",
    "bitensor_stokes_check",
]

DEFAULT_POINTS = 8


@dataclass(frozen=True)
class HypersurfaceBox:
    """Axis-aligned integration region of dimension len(free_axes)."""

    signature: SpacetimeSignature
    intervals: Mapping[int, tuple[float, float]]
    fixed: Mapping[int, float]
    orientation: int = 1

    def __post_init__(self):
        intervals = {int(a): (float(lo), float(hi)) for a, (lo, hi) in dict(self.intervals).items()}
        fixed = {int(a): float(v) for a, v in dict(self.fixed).items()}
        free = set(intervals)
        if free & set(fixed):
            raise ValueError("an axis cannot be both free and fixed")
        if free | set(fixed) != set(self.signature.axes()):
            raise ValueError("every axis needs an interval or a fixed coordinate")
        for a, (lo, hi) in intervals.items():
            if not lo < hi:
                raise ValueError(f"degenerate interval on axis {a}: [{lo}, {hi}]")
        if self.orientation not in (-1, 1):
            raise ValueError("orientation must be +1 or -1")
        object.__setattr__(self, "intervals", intervals)
        object.__setattr__(self, "fixed", fixed)

    @property
    def free_axes(self) -> tuple[int, ...]:
        return tuple(sorted(self.intervals))

    @property
    def dim(self) -> int:
        return len(self.intervals)

    def element_blade(self) -> Multivector:
        """The oriented blade e_S carried by the differential of this box."""
        return Multivector.blade(self.signature, self.free_axes, self.orientation)

    def boundary_faces(self) -> list["HypersurfaceBox"]:
        """The 2*dim oriented faces, induced orientation included."""
        faces = []
        free = self.free_axes
        for position, axis in enumerate(free):
            lo, hi = self.intervals[axis]
            induced = (-1) ** position * self.orientation
            rest = {a: self.intervals[a] for a in free if a != axis}
            for value, side in ((hi, +1), (lo, -1)):
                faces.append(HypersurfaceBox(
                    signature=self.signature,
                    intervals=rest,
                    fixed={**self.fixed, axis: value},
                    orientation=side * induced,
                ))
        return faces

    def quadrature(self, points: int = DEFAULT_POINTS, panels: int = 1):
        """(point, weight) pairs, the rows of ``grid_points``."""
        return zip(*self.grid_points(points, panels))

    def grid_points(self, points: int = DEFAULT_POINTS, panels: int = 1):
        """Tensor-product (nodes, weights) arrays, last free axis fastest; each
        weight multiplies its per-axis weights in free-axis order from 1.0."""
        rules = [gauss_legendre_rule(*self.intervals[a], points, panels) for a in self.free_axes]
        weights = np.ones(1)
        for _, axis_weights in rules:
            weights = np.multiply.outer(weights, axis_weights).ravel()
        nodes = np.empty((len(weights), self.signature.dim))
        nodes[:, list(self.fixed)] = list(self.fixed.values())
        for a, axis_nodes in zip(self.free_axes, np.meshgrid(*(r[0] for r in rules), indexing="ij")):
            nodes[:, a] = axis_nodes.ravel()
        return nodes, weights


@lru_cache(maxsize=None)
def _legendre_base(points: int) -> tuple[np.ndarray, np.ndarray]:
    """``leggauss(points)`` on [-1, 1], computed once per point count; the
    arrays are shared by every caller, so they are read-only."""
    nodes, weights = np.polynomial.legendre.leggauss(points)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def gauss_legendre_rule(a: float, b: float, points: int, panels: int = 1):
    """Composite Gauss-Legendre nodes and weights on [a, b]."""
    base_nodes, base_weights = _legendre_base(points)
    edges = np.linspace(a, b, panels + 1)
    nodes = []
    weights = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        half = 0.5 * (hi - lo)
        nodes.append(half * base_nodes + 0.5 * (hi + lo))
        weights.append(half * base_weights)
    return np.concatenate(nodes), np.concatenate(weights)


def _integrate(rows, box: HypersurfaceBox, points: int, panels: int) -> list:
    """The one quadrature step: weights @ rows(nodes), as Python scalars."""
    nodes, weights = box.grid_points(points, panels)
    return (weights @ rows(nodes)).tolist()


def _integrated_field(f, box: HypersurfaceBox, points: int, panels: int) -> Multivector:
    total = _integrate(f.evaluate_components, box, points, panels)
    return Multivector.from_row(box.signature, f.grade, total)


def circulation(f, box: HypersurfaceBox, points: int = DEFAULT_POINTS, panels: int = 1) -> complex:
    """Circulation of a grade-m field along an m-dimensional box: the dot
    product of the oriented volume differential e_S with the integrated field."""
    if box.dim != f.grade:
        raise GradeError(f"circulation needs box dimension {f.grade}, got {box.dim}")
    # dot gives the integer 0 when no component meets e_S; keep a float
    return dot(box.element_blade(), _integrated_field(f, box, points, panels)) + 0.0


def flux(f, box: HypersurfaceBox, points: int = DEFAULT_POINTS, panels: int = 1) -> Multivector:
    """Flux of the field across the box: the interior product of the inverse-Hodge
    volume differential with the integrated field; the zero scalar when the box
    dimension is smaller than k + n - grade."""
    sig = box.signature
    if f.grade + box.dim < sig.dim:
        return Multivector.zero(sig, 0)
    return left_interior(inv_hodge(box.element_blade()), _integrated_field(f, box, points, panels))


def stokes_circulation_check(f, box: HypersurfaceBox, points: int = DEFAULT_POINTS,
                             panels: int = 1) -> tuple[complex, complex, float]:
    """Boundary circulation of f against interior circulation of its exterior
    derivative; returns (lhs, rhs, |lhs - rhs|).  Needs an analytic field."""
    if box.dim != f.grade + 1:
        raise GradeError(f"circulation Stokes check needs box dimension {f.grade + 1}, got {box.dim}")
    lhs = sum(circulation(f, face, points, panels) for face in box.boundary_faces())
    rhs = circulation(exterior_derivative_field(f), box, points, panels)
    return lhs, rhs, abs(lhs - rhs)


def stokes_flux_check(f, box: HypersurfaceBox, points: int = DEFAULT_POINTS,
                      panels: int = 1) -> tuple[Multivector, Multivector, float]:
    """Boundary flux of f against interior flux of its interior derivative.
    Needs an analytic field."""
    terms = [flux(f, face, points, panels) for face in box.boundary_faces()]
    lhs = sum(terms[1:], terms[0])
    rhs = flux(interior_derivative_field(f), box, points, panels)
    return lhs, rhs, (lhs - rhs).max_abs()


def bitensor_stokes_check(tf, box: HypersurfaceBox, points: int = DEFAULT_POINTS,
                          panels: int = 1) -> tuple[Multivector, Multivector, float]:
    """Stokes identity for a symmetric bitensor field over a full-dimension box:
    each face's inverse-Hodge element contracted into the tensor integrated over
    the face, against the integrated interior derivative.  The field supplies
    batched ``evaluate_components`` rows (pairs i <= j in
    ``combinations_with_replacement`` order) and ``divergence_components`` rows."""
    sig = box.signature
    if box.dim != sig.dim:
        raise GradeError("bitensor Stokes check requires a full-dimensional box")
    lhs = Multivector.zero(sig, 1)
    for face in box.boundary_faces():
        tensor = Bitensor.from_row(sig, _integrate(tf.evaluate_components, face, points, panels))
        lhs = lhs + vec_interior_bitensor(inv_hodge(face.element_blade()), tensor)
    # inverse Hodge of the full-volume blade is the scalar orientation
    rhs = Multivector.vector(sig, _integrate(tf.divergence_components, box, points, panels)) \
        * box.orientation
    return lhs, rhs, (lhs - rhs).max_abs()
