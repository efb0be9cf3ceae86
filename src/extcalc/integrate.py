"""Circulation, flux, and Stokes-theorem checks over axis-aligned boxes.

A hypersurface is an axis-aligned box: a set of free axes carrying intervals,
fixed coordinates on the remaining axes, and an overall orientation sign.
Integrals are tensor-product Gauss-Legendre quadratures (composite when
``panels`` is raised) taken in one ``weights @ rows(nodes)`` step over dense
component rows.  Each integrand is a product linear in the field with a fixed
volume differential, so the product is applied once, after integration: the
public ``dot``, ``left_interior`` or ``vec_interior_bitensor`` of the element
with the integrated row read back as a multivector or bitensor.

Boundary faces carry the induced orientation: the face fixing free axis q at
its upper end is weighted by the sign of the permutation moving q in front of
the remaining free axes, and the lower end by its negative.  With this rule
the circulation, flux, and bitensor Stokes identities all hold on boxes; on a
half space it reproduces the constant-coordinate slice element of the paper
with outward normal along the fixed axis.  A boundary is integrated in one
evaluation over all its faces' nodes, each face's oriented element applied
to its integrated row; no face box is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping

import numpy as np

from .algebra import (Bitensor, GradeError, Multivector, SpacetimeSignature, dot, inv_hodge, left_interior,
                      vec_interior_bitensor)
from .fields import exterior_derivative_field, interior_derivative_field

__all__ = ["HypersurfaceBox", "gauss_legendre_rule", "circulation", "flux",
           "stokes_circulation_check", "stokes_flux_check", "bitensor_stokes_check"]

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
        if set(intervals) & set(fixed):
            raise ValueError("an axis cannot be both free and fixed")
        if set(intervals) | set(fixed) != set(self.signature.axes()):
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

    def quadrature(self, points: int = DEFAULT_POINTS, panels: int = 1):
        """(point, weight) pairs, the rows of ``grid_points``."""
        return zip(*self.grid_points(points, panels))

    def grid_points(self, points: int = DEFAULT_POINTS, panels: int = 1):
        """Tensor-product (nodes, weights) arrays, last free axis fastest; each
        weight multiplies its per-axis weights in free-axis order from 1.0."""
        rules = [_composite_rule(*self.intervals[a], points, panels) for a in self.free_axes]
        return _grid(self.signature, self.fixed, self.free_axes, rules)


def _grid(sig: SpacetimeSignature, fixed: Mapping[int, float], free, rules, copies: int = 1):
    """``copies`` stacked ``grid_points`` nodes, (copies * count, dim), and the weights."""
    weights = np.ones(1)
    for _, axis_weights in rules:
        weights = np.multiply.outer(weights, axis_weights).ravel()
    nodes = np.empty((copies * len(weights), sig.dim))
    nodes[:, list(fixed)] = list(fixed.values())
    # in the (copies, *per-axis counts, dim) grid, each axis's column broadcasts its rule's nodes
    grid = nodes.reshape(copies, *(len(axis_nodes) for axis_nodes, _ in rules), -1)
    for position, (a, (axis_nodes, _)) in enumerate(zip(free, rules)):
        grid[..., a] = axis_nodes.reshape((-1,) + (1,) * (len(rules) - 1 - position))
    return nodes, weights


@lru_cache(maxsize=None)
def _legendre_base(points: int) -> tuple[np.ndarray, np.ndarray]:
    """``leggauss(points)`` on [-1, 1], computed once per point count and read-only."""
    nodes, weights = np.polynomial.legendre.leggauss(points)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


@lru_cache(maxsize=1024)
def _composite_rule(a: float, b: float, points: int, panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre nodes and weights on [a, b]: on each of ``panels`` equal panels
    [lo, hi], the base rule scaled by (hi - lo) / 2 about (hi + lo) / 2.  Cached, so read-only."""
    base_nodes, base_weights = _legendre_base(points)
    edges = np.linspace(a, b, panels + 1)
    lo, hi = edges[:-1, None], edges[1:, None]
    half = 0.5 * (hi - lo)
    nodes = (half * base_nodes + 0.5 * (hi + lo)).ravel()
    weights = (half * base_weights).ravel()
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def gauss_legendre_rule(a: float, b: float, points: int, panels: int = 1):
    """Composite Gauss-Legendre nodes and weights on [a, b], as new arrays."""
    return tuple(array.copy() for array in _composite_rule(float(a), float(b), points, panels))


@lru_cache(maxsize=None)
def _element(sig: SpacetimeSignature, axes: tuple, orientation: int, form: str) -> Multivector:
    """The element e = orientation e_axes of a ``form`` integral, or inv_hodge(e) for flux and bitensor."""
    blade = Multivector.blade(sig, axes, orientation)
    return blade if form == "circulation" else inv_hodge(blade)


def _element_product(element: Multivector, grade: int, form: str, row: np.ndarray):
    """dot + 0.0, left_interior or vec_interior_bitensor by ``form`` of ``_element`` and an integrated row."""
    sig = element.signature
    if form == "bitensor":
        return vec_interior_bitensor(element, Bitensor.from_row(sig, row))
    field = Multivector.from_row(sig, grade, row)
    return dot(element, field) + 0.0 if form == "circulation" else left_interior(element, field)


def _integral(rows, box: HypersurfaceBox, points: int, panels: int, grade: int, form: str, faces=False):
    """The one quadrature step: the sum of each piece's ``_element_product`` of its element and its
    ``weights @ rows[segment]``, from one ``rows`` call over the pieces' ``grid_points`` nodes: the box, or
    with ``faces`` its faces, upper then lower on each free axis, the two of an axis sharing weights."""
    sig, free = box.signature, box.free_axes
    if form == "flux" and grade + len(free) - faces < sig.dim:  # zero, with no evaluation
        return Multivector.zero(sig, 0)
    rules = [_composite_rule(*box.intervals[a], points, panels) for a in free]
    nodes, pieces = [], []
    for position, axis in enumerate(free if faces else ()):
        rest = free[:position] + free[position + 1:]
        pair, weights = _grid(sig, box.fixed, rest, rules[:position] + rules[position + 1:], 2)
        pair.reshape(2, -1, sig.dim)[..., axis] = np.reshape(box.intervals[axis][::-1], (2, 1))
        nodes.append(pair)
        induced = (-1) ** position * box.orientation
        pieces += [(_element(sig, rest, side * induced, form), weights) for side in (1, -1)]
    if not faces:
        nodes, weights = box.grid_points(points, panels)
        nodes, pieces = [nodes], [(_element(sig, free, box.orientation, form), weights)]
    values = rows(np.concatenate(nodes)).reshape(len(pieces), len(weights), -1)
    # multivectors add from the zero scalar, which the first term replaces
    return sum((_element_product(element, grade, form, weights @ block)
                for (element, weights), block in zip(pieces, values)),
               0 if form == "circulation" else Multivector.zero(sig, 0))


def circulation(f, box: HypersurfaceBox, points: int = DEFAULT_POINTS, panels: int = 1) -> complex:
    """Circulation of a grade-m field along an m-dimensional box: the dot
    product of the oriented volume differential e_S with the integrated field."""
    if box.dim != f.grade:
        raise GradeError(f"circulation needs box dimension {f.grade}, got {box.dim}")
    return _integral(f.evaluate_components, box, points, panels, f.grade, "circulation")


def flux(f, box: HypersurfaceBox, points: int = DEFAULT_POINTS, panels: int = 1) -> Multivector:
    """Flux of the field across the box: the interior product of the inverse-Hodge volume
    differential with the integrated field; the zero scalar when dim < k + n - grade."""
    return _integral(f.evaluate_components, box, points, panels, f.grade, "flux")


def stokes_circulation_check(f, box: HypersurfaceBox, points: int = DEFAULT_POINTS,
                             panels: int = 1) -> tuple[complex, complex, float]:
    """Boundary circulation of f against interior circulation of its exterior
    derivative; returns (lhs, rhs, |lhs - rhs|).  Needs an analytic field."""
    if box.dim != f.grade + 1:
        raise GradeError(f"circulation Stokes check needs box dimension {f.grade + 1}, got {box.dim}")
    lhs = _integral(f.evaluate_components, box, points, panels, f.grade, "circulation", faces=True)
    rhs = circulation(exterior_derivative_field(f), box, points, panels)
    return lhs, rhs, abs(lhs - rhs)


def stokes_flux_check(f, box: HypersurfaceBox, points: int = DEFAULT_POINTS,
                      panels: int = 1) -> tuple[Multivector, Multivector, float]:
    """Boundary flux of f against interior flux of its interior derivative; needs an analytic field."""
    lhs = _integral(f.evaluate_components, box, points, panels, f.grade, "flux", faces=True)
    rhs = flux(interior_derivative_field(f), box, points, panels)
    return lhs, rhs, (lhs - rhs).max_abs()


def bitensor_stokes_check(tf, box: HypersurfaceBox, points: int = DEFAULT_POINTS,
                          panels: int = 1) -> tuple[Multivector, Multivector, float]:
    """Stokes identity for a symmetric bitensor field over a full-dimension box: each face's
    inverse-Hodge element contracted into the field's integrated ``evaluate_components`` rows
    (pairs i <= j in ``combinations_with_replacement`` order), against its integrated
    ``divergence_components`` rows, the interior derivative."""
    sig = box.signature
    if box.dim != sig.dim:
        raise GradeError("bitensor Stokes check requires a full-dimensional box")
    lhs = _integral(tf.evaluate_components, box, points, panels, 1, "bitensor", faces=True)
    # inverse Hodge of the full-volume blade is the scalar orientation
    nodes, weights = box.grid_points(points, panels)
    rhs = Multivector.vector(sig, (weights @ tf.divergence_components(nodes)).tolist()) * box.orientation
    return lhs, rhs, (lhs - rhs).max_abs()
