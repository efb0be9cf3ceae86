"""Circulation, flux, and Stokes-theorem checks over axis-aligned boxes.

A hypersurface is an axis-aligned box: a set of free axes carrying intervals,
fixed coordinates on the remaining axes, and an overall orientation sign.
Integrals are tensor-product Gauss-Legendre quadratures (composite when
``panels`` is raised), summed in a fixed node order so results are bit-stable.

Boundary faces carry the induced orientation: the face fixing free axis q at
its upper end is weighted by the sign of the permutation moving q in front of
the remaining free axes, and the lower end by its negative.  With this rule
the circulation, flux, and bitensor Stokes identities all hold on boxes; on a
half space it reproduces the constant-coordinate slice element of the paper
with outward normal along the fixed axis.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .algebra import (
    GradeError,
    Multivector,
    SpacetimeSignature,
    dot,
    inv_hodge,
    left_interior,
    right_interior,
    vec_interior_bitensor,
)
from .fields import exterior_derivative, interior_derivative, interior_derivative_bitensor

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
        """Yield (point, weight) pairs in a fixed deterministic order."""
        free = self.free_axes
        rules = [gauss_legendre_rule(*self.intervals[a], points, panels) for a in free]
        base = np.empty(self.signature.dim)
        for a, v in self.fixed.items():
            base[a] = v
        if not free:
            yield base.copy(), 1.0
            return
        for combo in itertools.product(*(range(len(r[0])) for r in rules)):
            x = base.copy()
            w = 1.0
            for a, (nodes, weights), c in zip(free, rules, combo):
                x[a] = nodes[c]
                w *= weights[c]
            yield x, w

    def grid_points(self, points: int = DEFAULT_POINTS, panels: int = 1):
        """Dense (nodes, weights) arrays over the box, for vectorised integrands."""
        pairs = list(self.quadrature(points, panels))
        xs = np.array([p for p, _ in pairs])
        ws = np.array([w for _, w in pairs])
        return xs, ws


def gauss_legendre_rule(a: float, b: float, points: int, panels: int = 1):
    """Composite Gauss-Legendre nodes and weights on [a, b]."""
    base_nodes, base_weights = np.polynomial.legendre.leggauss(points)
    edges = np.linspace(a, b, panels + 1)
    nodes = []
    weights = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        half = 0.5 * (hi - lo)
        nodes.append(half * base_nodes + 0.5 * (hi + lo))
        weights.append(half * base_weights)
    return np.concatenate(nodes), np.concatenate(weights)


def _integrate_scalar(fn: Callable[[np.ndarray], complex], box: HypersurfaceBox,
                      points: int, panels: int) -> complex:
    total: complex = 0.0
    for x, w in box.quadrature(points, panels):
        total += w * fn(x)
    return total


def _integrate_multivector(fn: Callable[[np.ndarray], Multivector], box: HypersurfaceBox,
                           grade: int, points: int, panels: int) -> Multivector:
    total = Multivector.zero(box.signature, grade)
    for x, w in box.quadrature(points, panels):
        total = total + fn(x) * w
    return total


def circulation(f, box: HypersurfaceBox, points: int = DEFAULT_POINTS, panels: int = 1,
                use_right_interior: bool = False) -> complex:
    """Circulation of a grade-m field along an m-dimensional box.

    Defined through the dot product of the field with the oriented volume
    differential; ``use_right_interior`` evaluates the equivalent right
    interior form instead.
    """
    if box.dim != f.grade:
        raise GradeError(f"circulation needs box dimension {f.grade}, got {box.dim}")
    return _circulation_of(f.evaluate, box, points, panels, use_right_interior)


def _circulation_of(fn_value, box: HypersurfaceBox, points: int, panels: int,
                    use_right_interior: bool = False) -> complex:
    blade = box.element_blade()
    if use_right_interior:
        fn = lambda x: right_interior(blade, fn_value(x)).scalar_value()
    else:
        fn = lambda x: dot(blade, fn_value(x))
    return _integrate_scalar(fn, box, points, panels)


def flux(f, box: HypersurfaceBox, points: int = DEFAULT_POINTS, panels: int = 1) -> Multivector:
    """Flux of the field across the box: quadrature of the interior product
    of the inverse-Hodge volume differential with the field.

    Identically zero (and returned as such) when the box dimension is smaller
    than k + n - grade.
    """
    return _flux_of(f.evaluate, f.grade, box, points, panels)


def _flux_of(fn_value, value_grade: int, box: HypersurfaceBox, points: int, panels: int) -> Multivector:
    sig = box.signature
    grade = value_grade + box.dim - sig.dim
    if grade < 0:
        return Multivector.zero(sig, 0)
    element = inv_hodge(box.element_blade())
    return _integrate_multivector(lambda x: left_interior(element, fn_value(x)),
                                  box, grade, points, panels)


def stokes_circulation_check(f, box: HypersurfaceBox, points: int = DEFAULT_POINTS,
                             panels: int = 1) -> tuple[complex, complex, float]:
    """Boundary circulation of f against interior circulation of its exterior
    derivative; returns (lhs, rhs, |lhs - rhs|)."""
    if box.dim != f.grade + 1:
        raise GradeError(f"circulation Stokes check needs box dimension {f.grade + 1}, got {box.dim}")
    lhs = sum(circulation(f, face, points, panels) for face in box.boundary_faces())
    rhs = _circulation_of(lambda x: exterior_derivative(f, x), box, points, panels)
    return lhs, rhs, abs(lhs - rhs)


def stokes_flux_check(f, box: HypersurfaceBox, points: int = DEFAULT_POINTS,
                      panels: int = 1) -> tuple[Multivector, Multivector, float]:
    """Boundary flux of f against interior flux of its interior derivative."""
    lhs = None
    for face in box.boundary_faces():
        term = flux(f, face, points, panels)
        lhs = term if lhs is None else lhs + term
    rhs = _flux_of(lambda x: interior_derivative(f, x), f.grade - 1, box, points, panels)
    return lhs, rhs, (lhs - rhs).max_abs()


def bitensor_stokes_check(tf, box: HypersurfaceBox, points: int = DEFAULT_POINTS,
                          panels: int = 1) -> tuple[Multivector, Multivector, float]:
    """Stokes identity for a symmetric bitensor field over a full-dimension box.

    The boundary flux contracts the grade-1 inverse-Hodge face element into
    the bitensor; the interior side integrates its interior derivative."""
    sig = box.signature
    if box.dim != sig.dim:
        raise GradeError("bitensor Stokes check requires a full-dimensional box")
    lhs = Multivector.zero(sig, 1)
    for face in box.boundary_faces():
        element = inv_hodge(face.element_blade())
        lhs = lhs + _integrate_multivector(
            lambda x, e=element: vec_interior_bitensor(e, tf.evaluate(x)),
            face, 1, points, panels)
    scale = box.orientation  # inverse Hodge of the full-volume blade is the scalar 1
    rhs = _integrate_multivector(lambda x: interior_derivative_bitensor(tf, x) * scale,
                                 box, 1, points, panels)
    return lhs, rhs, (lhs - rhs).max_abs()
