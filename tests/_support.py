"""Test-only helpers: a reference index sort, a component bitensor field, a
pointwise product-rule residual, a per-point reference evaluation of
analytic mode fields, per-node reference quadratures and the dense slice
flux.  None of these is used by the package."""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from extcalc.algebra import (
    Bitensor,
    Multivector,
    SpacetimeSignature,
    dot,
    inv_hodge,
    left_interior,
    merge_with_sign,
)
from extcalc.energy import _stress_tables
from extcalc.fields import AnalyticField, exterior_derivative, interior_derivative
from extcalc.integrate import HypersurfaceBox, gauss_legendre_rule


def sort_with_sign(indices: Iterable[int], dim: int | None = None) -> tuple[tuple[int, ...], int]:
    """Sort an index sequence, returning the sorted list and the permutation sign.

    The sign is the parity of the sorting permutation, and zero when the
    sequence contains a repeated index.  If ``dim`` is given, indices outside
    [0, dim) raise IndexError.
    """
    seq = list(indices)
    if dim is not None:
        for i in seq:
            if not 0 <= i < dim:
                raise IndexError(f"index {i} out of range for dimension {dim}")
    sign = 1
    repeated = False
    # Insertion sort; swap count parity is the permutation signature.
    for pos in range(1, len(seq)):
        value = seq[pos]
        here = pos
        while here > 0 and seq[here - 1] > value:
            seq[here] = seq[here - 1]
            here -= 1
            sign = -sign
        seq[here] = value
        if here > 0 and seq[here - 1] == value:
            repeated = True
    return tuple(seq), 0 if repeated else sign


@dataclass(frozen=True)
class ComponentBitensorField:
    """Symmetric bitensor field built from grade-0 analytic component fields."""

    signature: SpacetimeSignature
    comps: dict

    def __post_init__(self):
        fixed = {}
        for (i, j), comp in self.comps.items():
            key = (i, j) if i <= j else (j, i)
            fixed[key] = comp
        object.__setattr__(self, "comps", fixed)

    def evaluate(self, x: Sequence[float]) -> Bitensor:
        return Bitensor(self.signature,
                        {key: comp.evaluate(x).scalar_value() for key, comp in self.comps.items()})

    def partial_at(self, axis: int, x: Sequence[float]) -> Bitensor:
        return Bitensor(self.signature,
                        {key: comp.partial_at(axis, x).scalar_value() for key, comp in self.comps.items()})

def product_rule_check(v, w, x: Sequence[float]) -> float:
    """Residual of the derivative product rule at one point.

    For a grade-(r-1) field v and a grade-r field w this is the absolute
    difference between the interior derivative of the grade-1 field v
    interior w and the two-term expansion through the exterior and interior
    derivatives of the factors.
    """
    sig = v.signature
    if w.grade != v.grade + 1:
        raise ValueError("product rule expects grades (r-1, r)")
    vx = v.evaluate(x)
    wx = w.evaluate(x)
    div_u: complex = 0
    for i in sig.axes():
        du = left_interior(v.partial_at(i, x), wx) + left_interior(vx, w.partial_at(i, x))
        contracted = left_interior(Multivector.blade(sig, (i,)), du)
        div_u += sig.metric(i) * contracted.scalar_value()
    term1 = dot(exterior_derivative(v, x), wx)
    term2 = (-1) ** v.grade * dot(interior_derivative(w, x), vx)
    return abs(div_u - term1 - term2)


def reference_mode_factor(mode, x: Sequence[float]) -> complex:
    """One mode's scalar factor at x, written out in Python scalars:
    monomial x cos(theta) or exp(j theta) x Gaussian envelope, with
    theta = 2 pi sum_i Delta_ii xi_i x_i + phase."""
    sig = mode.amplitude.signature
    value: complex = 1.0
    for i, p in enumerate(mode.poly):
        value *= (x[i] - mode.poly_center[i]) ** p
    theta = 2.0 * math.pi * sum(sig.metric(i) * mode.xi[i] * x[i] for i in sig.axes()) + mode.phase
    value *= math.cos(theta) if mode.waveform == "cos" else cmath.exp(1j * theta)
    if mode.envelope is not None:
        d2 = sum((x[i] - c) ** 2 for i, c in enumerate(mode.envelope.center))
        value *= math.exp(-d2 / (2.0 * mode.envelope.width ** 2))
    return value


def reference_evaluate(field: AnalyticField, x: Sequence[float]) -> Multivector:
    """The field at x as the sum of amplitude x scalar factor over its modes."""
    total = Multivector.zero(field.signature, field.grade)
    for mode in field.modes:
        total = total + mode.amplitude * reference_mode_factor(mode, x)
    return total


def reference_grid(box, points: int, panels: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """The box's quadrature nodes and weights built one node at a time over
    itertools.product of the per-axis rules, last free axis fastest, each
    weight multiplied up in free-axis order from 1.0."""
    free = box.free_axes
    rules = [gauss_legendre_rule(*box.intervals[a], points, panels) for a in free]
    nodes, weights = [], []
    for combo in itertools.product(*(range(len(r[0])) for r in rules)):
        x = np.empty(box.signature.dim)
        for a, v in box.fixed.items():
            x[a] = v
        w = 1.0
        for a, (axis_nodes, axis_weights), c in zip(free, rules, combo):
            x[a] = axis_nodes[c]
            w *= axis_weights[c]
        nodes.append(x)
        weights.append(w)
    return np.array(nodes), np.array(weights)


def reference_circulation(f, box, points: int = 8, panels: int = 1) -> complex:
    """Sum over nodes of w dot(e_S, F(x))."""
    blade = box.element_blade()
    return sum(w * dot(blade, f.evaluate(x)) for x, w in zip(*reference_grid(box, points, panels)))


def reference_flux(f, box, points: int = 8, panels: int = 1) -> Multivector:
    """Sum over nodes of w left_interior(inv_hodge(e_S), F(x))."""
    element = inv_hodge(box.element_blade())
    terms = [left_interior(element, f.evaluate(x)) * w
             for x, w in zip(*reference_grid(box, points, panels))]
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    return total


def reference_flux_T_direct(f_field, axis: int, coordinate: float, bounds,
                            points: int = 8, panels: int = 1) -> Multivector:
    """The slice flux by the dense route: every mode evaluated at every node of
    ``grid_points``, then weights @ each ``_stress_tables`` column, with the
    permutation sign of moving the fixed axis in front."""
    sig = f_field.signature
    box = HypersurfaceBox(sig, intervals=dict(bounds), fixed={axis: coordinate})
    nodes, weights = box.grid_points(points, panels)
    dense = f_field.evaluate_components(nodes).real
    _, sign = merge_with_sign((axis,), tuple(a for a in sig.axes() if a != axis))
    tables = _stress_tables(sig, f_field.grade)
    out = {}
    for i in sig.axes():
        triples = tables.get((min(i, axis), max(i, axis)), ())
        column = sum(c * dense[:, a] * dense[:, b] for a, b, c in triples)
        out[(i,)] = sign * float(weights @ column) if triples else 0.0
    return Multivector(sig, 1, out)
