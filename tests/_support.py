"""Test-only helpers: a reference index sort, a component bitensor field, the
per-point quadratic tensor divergence, a pointwise product-rule residual, a
per-point reference evaluation of analytic mode fields, per-node reference
quadratures, the dense slice flux and the loop form of the identity suite.
None of these is used by the package."""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from extcalc import algebra
from extcalc.algebra import (
    Bitensor,
    IdentityReport,
    Multivector,
    SpacetimeSignature,
    dot,
    inv_hodge,
    left_interior,
    merge_with_sign,
    right_interior,
    wedge,
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

    def _column(self, i: int, j: int, points: np.ndarray, axis: int | None = None) -> np.ndarray:
        """Component T_ij at the points, or its partial along ``axis``."""
        comp = self.comps.get((min(i, j), max(i, j)))
        if comp is None:
            return np.zeros(len(points))
        rows = comp.evaluate_components(points) if axis is None else comp.partial_components(axis, points)
        return rows[:, 0]

    def evaluate_components(self, points: np.ndarray) -> np.ndarray:
        pairs = itertools.combinations_with_replacement(self.signature.axes(), 2)
        return np.stack([self._column(i, j, points) for i, j in pairs], axis=1)

    def divergence_components(self, points: np.ndarray) -> np.ndarray:
        axes = self.signature.axes()
        return np.stack([sum(self._column(i, j, points, j) for j in axes) for i in axes], axis=1)

def reference_tensor_divergence(field, kind: str, x: Sequence[float]) -> Multivector:
    """Interior derivative sum_j d_j T_ij of a quadratic tensor field at x.

    The product rule written out from ``left_interior``, ``right_interior``,
    ``wedge`` and ``dot`` on the field value and its partials, with the
    contractions of each shared across axes; ``kind`` is "odot", "owedge" or
    "stress" as in ``QuadraticTensorField``.
    """
    sig = field.signature
    value = field.evaluate(x)
    basis = [Multivector.blade(sig, (i,)) for i in sig.axes()]
    want_odot = kind in ("odot", "stress")
    want_owedge = kind in ("owedge", "stress")
    flip = -1 if kind == "stress" else 1

    def contractions(mv):
        left_i = [left_interior(basis[i], mv) for i in sig.axes()] if want_odot else None
        right_i = [right_interior(mv, basis[j]) for j in sig.axes()] if want_odot else None
        left_w = [wedge(basis[i], mv) for i in sig.axes()] if want_owedge else None
        right_w = [wedge(mv, basis[j]) for j in sig.axes()] if want_owedge else None
        return left_i, right_i, left_w, right_w

    v_li, v_ri, v_lw, v_rw = contractions(value)
    out: dict[tuple[int, ...], complex] = {}
    for j in sig.axes():
        slope = field.partial_at(j, x)
        s_li, s_ri, s_lw, s_rw = contractions(slope)
        dj = sig.metric(j)
        for i in sig.axes():
            entry: complex = 0
            if want_odot:
                entry += dot(s_li[i], v_ri[j]) + dot(v_li[i], s_ri[j])
            if want_owedge:
                entry += dot(s_lw[i], v_rw[j]) + dot(v_lw[i], s_rw[j])
            entry *= 0.5 * flip * sig.metric(i) * dj
            if entry:
                out[(i,)] = out.get((i,), 0) + entry
    return Multivector(sig, 1, out)


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


def _reference_blade_table(product, units: dict) -> dict:
    """Nonzero products of every ordered pair of unit blades, as {(I, J): (K, c)}."""
    table = {}
    for I, u in units.items():
        for J, v in units.items():
            terms = product(u, v).terms
            if len(terms) > 1:
                raise ValueError(f"{product.__name__}(e_{I}, e_{J}) is not a single blade: {terms}")
            for K, c in terms.items():
                table[I, J] = (K, c)
    return table


def reference_verify_identities(sig: SpacetimeSignature, tol: float = 0.0,
                                wedge_sign_fn=None) -> IdentityReport:
    """The identity suite as Python loops over blade tuples.

    Tabulates the products through the ``extcalc.algebra`` module at call
    time, so a monkeypatched product reaches it exactly as it reaches
    ``verify_identities``; the two must agree residual for residual.
    """
    dim = sig.dim
    blades_by_grade = [list(sig.index_lists(m)) for m in range(dim + 1)]
    vectors = blades_by_grade[1]
    units = {I: Multivector.blade(sig, I) for blades in blades_by_grade for I in blades}
    if wedge_sign_fn is None:
        wedge_t = _reference_blade_table(algebra.wedge, units)
    else:
        wedge_t = {}
        for I in units:
            for J in units:
                K, s = wedge_sign_fn(I, J)
                if s:
                    wedge_t[I, J] = (K, s)
    lint_t = _reference_blade_table(algebra.left_interior, units)
    rint_t = _reference_blade_table(algebra.right_interior, units)
    dot_t = {(I, J): algebra.dot(u, v)
             for I, u in units.items() for J, v in units.items() if len(I) == len(J)}

    def tabulated(table):
        def product(I, J, scale=1):
            K, c = table.get((I, J), ((), 0))
            return K, c * scale
        return product

    wedge_b, lint, rint = tabulated(wedge_t), tabulated(lint_t), tabulated(rint_t)

    def bdot(I, J, scale=1):
        return dot_t.get((I, J), 0) * scale

    def gap(lhs, *rhs):
        """Largest |coefficient| of the term lhs minus the sum of the rhs terms."""
        K, c = lhs
        out = {K: c}
        for K, c in rhs:
            out[K] = out.get(K, 0) - c
        return max(map(abs, out.values()))

    residuals = {name: 0 for name in (
        "wedge_skew", "interior_transpose", "wedge_dot_expansion",
        "double_interior_assoc", "double_interior_antisym",
        "interior_of_wedge", "triple_product")}
    checks = 0

    def bump(name, value):
        nonlocal checks
        checks += 1
        value = abs(value)
        if value > residuals[name]:
            residuals[name] = value

    for gu in range(dim + 1):
        for gv in range(dim + 1):
            swap_wedge = (-1) ** (gu * gv)
            swap_int = (-1) ** (gu * (gu + gv))
            for I in blades_by_grade[gu]:
                for J in blades_by_grade[gv]:
                    bump("wedge_skew", gap(wedge_b(I, J), wedge_b(J, I, swap_wedge)))
                    bump("interior_transpose", gap(lint(I, J), rint(J, I, swap_int)))

    for r in range(dim + 1):
        r_blades = blades_by_grade[r]
        sign_r = (-1) ** r
        for vi in vectors:
            for W in r_blades:
                Li, ci = lint(vi, W)
                for vj in vectors:
                    bump("interior_of_wedge", gap(lint(vi, *wedge_b(vj, W)),
                                                  (W, sign_r * bdot(vi, vj)), wedge_b(vj, Li, ci)))
                    bump("double_interior_assoc", gap(lint(vi, *rint(W, vj)), rint(Li, vj, ci)))
                    Lj, cj = lint(vj, W)
                    bump("double_interior_antisym", gap(lint(vi, Lj, cj), lint(vj, Li, -ci)))

        for vi in vectors:
            for vj in vectors:
                dot_vv = sign_r * bdot(vi, vj)
                for W in r_blades:
                    Lj, cj = lint(vj, W)
                    K1, s1 = wedge_b(vi, W)
                    for Wp in r_blades:
                        K2, s2 = wedge_b(Wp, vj)
                        Rp, cp = rint(Wp, vi)
                        bump("wedge_dot_expansion",
                             bdot(K1, K2, s1 * s2) - dot_vv * bdot(W, Wp) - bdot(Lj, Rp, cj * cp))

        if r >= 1:
            for vi in vectors:
                for V in blades_by_grade[r - 1]:
                    K, s = wedge_b(vi, V)
                    for W in r_blades:
                        lhs = bdot(K, W, s)
                        bump("triple_product", lhs - bdot(V, *rint(W, vi)))
                        bump("triple_product", lhs - bdot(vi, *lint(V, W)))

    passed = all(v <= tol for v in residuals.values())
    return IdentityReport(signature=sig, residuals={k: float(v) for k, v in residuals.items()},
                          checks=checks, passed=passed)
