"""Test-only helpers: a reference index sort, a component bitensor field, a
pointwise product-rule residual, and a per-point reference evaluation of
analytic mode fields.  None of these is used by the package."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from extcalc.algebra import Bitensor, Multivector, SpacetimeSignature, dot, left_interior
from extcalc.fields import AnalyticField, exterior_derivative, interior_derivative


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
