"""Test-only helpers: a reference index sort, the brute-force blade merge and
difference the sign tables are checked against, the four products as loops
over them, the quadratic bitensors as loops over axis pairs and the product
tables built from them, a linear map tabulated on unit blades and the
derivative, force and classical-bridge tables built from it, a component
bitensor field, the per-point quadratic tensor divergence, the per-point
exterior and interior derivatives, the per-point classical vector residuals,
the derived modes built through ``dataclasses.replace``, one axis of the
partial table as a field, the derivative field by the keyed grouping alone,
the wave operator from twice-derived modes, one field of each kind of mode, a
pointwise product-rule residual, a per-point reference evaluation of analytic
mode fields, the mode kernel as a loop over modes, per-node reference
quadratures, the oriented boundary faces of a box,
the face-by-face boundary integrals with a point-by-point field wrapper and
an exact-bits key, the dense slice flux, the per-node frequency-domain flux
and cone synthesis, the derived-field and mapped amplitude modes built by
per-mode multivector algebra, the mode-table merge through a dict of Python
key tuples, the row prune by reductions along the rows, a by-value
comparison of modes, the analytic field reader through ``Multivector`` and
``Mode`` objects with an exact key of mode tables, the analytic field writer
through ``Mode`` objects, and the loop form of the identity suite.  None of
these is used by the package."""

from __future__ import annotations

import cmath
import dataclasses
import itertools
import math
import struct
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from extcalc import algebra, fields
from extcalc.algebra import (
    Bitensor,
    IdentityReport,
    Multivector,
    SpacetimeSignature,
    dot,
    inv_hodge,
    left_interior,
    right_interior,
    vec_interior_bitensor,
    wedge,
)
from extcalc.energy import _bitensor_tables, _force_table, _stress_tables
from extcalc.fields import (
    EXTERIOR,
    INTERIOR,
    AnalyticField,
    GaussianEnvelope,
    Mode,
    _derivative_at,
    _derivative_table,
    _ModeTable,
    _pruned,
    constant_field,
    polynomial_field,
)
from extcalc.maxwell import MINKOWSKI, ClassicalFields, MaxwellSystem, classical_pack, classical_unpack
from extcalc.integrate import HypersurfaceBox, _composite_rule
from extcalc.serialize import ScenarioError, _reading, json_float, json_int, multivector_to_json


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


def merge_with_sign(first: tuple[int, ...], second: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """Merge two strictly increasing lists; sign of the interleaving permutation.

    Linear time; returns sign 0 when the lists overlap.
    """
    merged: list[int] = []
    sign = 1
    a, b = 0, 0
    while a < len(first) and b < len(second):
        if first[a] < second[b]:
            merged.append(first[a])
            a += 1
        elif first[a] > second[b]:
            # second[b] jumps over the remaining elements of first
            if (len(first) - a) % 2:
                sign = -sign
            merged.append(second[b])
            b += 1
        else:
            return (), 0
    merged.extend(first[a:])
    merged.extend(second[b:])
    return tuple(merged), sign


def _difference(big: tuple[int, ...], small: tuple[int, ...]) -> tuple[int, ...] | None:
    """big minus small, or None when small is not a subset of big."""
    out: list[int] = []
    it = iter(big)
    for s in small:
        for b in it:
            if b == s:
                break
            out.append(b)
        else:
            return None
    out.extend(it)
    return tuple(out)


def reference_product(name: str, u: Multivector, v: Multivector):
    """``dot``, ``wedge``, ``left_interior`` or ``right_interior`` as a loop
    over the operands' terms that merges index lists with ``merge_with_sign``
    and ``_difference``, in the package's term order and accumulation."""
    sig = u.signature
    if name == "dot":
        first, second = (u, v) if len(u.terms) <= len(v.terms) else (v, u)
        total = 0
        for indices, c in first.terms.items():
            other = second.terms.get(indices)
            if other is not None:
                total += c * other * sig.metric_list(indices)
        return total
    out = {}
    if name == "wedge":
        grade = u.grade + v.grade
        if grade > sig.dim:
            return Multivector.zero(sig, 0)
        for I, a in u.terms.items():
            for J, b in v.terms.items():
                merged, sign = merge_with_sign(I, J)
                if sign:
                    out[merged] = out.get(merged, 0) + sign * a * b
    elif name == "left_interior":
        grade = v.grade - u.grade
        if grade < 0:
            return Multivector.zero(sig, 0)
        for I, a in u.terms.items():
            delta = sig.metric_list(I)
            for J, b in v.terms.items():
                rest = _difference(J, I)
                if rest is not None:
                    out[rest] = out.get(rest, 0) + delta * merge_with_sign(rest, I)[1] * a * b
    else:
        grade = u.grade - v.grade
        if grade < 0:
            return Multivector.zero(sig, 0)
        for J, b in v.terms.items():
            delta = sig.metric_list(J)
            for I, a in u.terms.items():
                rest = _difference(I, J)
                if rest is not None:
                    out[rest] = out.get(rest, 0) + delta * merge_with_sign(J, rest)[1] * a * b
    return Multivector(sig, grade, out)


def reference_quadratic_bitensor(f: Multivector, g: Multivector, kind: str) -> Bitensor:
    """``odot`` (kind "odot") or ``owedge`` (kind "owedge") of f and g as a
    loop over the axis pairs i <= j: tau_ij is
    dot(left_interior(e_i, f), right_interior(g, e_j)), or
    dot(wedge(e_i, f), wedge(g, e_j)), and the component is
    (1/2) Delta_ii Delta_jj tau_ii on the diagonal and
    (1/4) Delta_ii Delta_jj (tau_ij + tau_ji) off it."""
    if kind == "odot":
        def entry(ei, ej):
            return dot(left_interior(ei, f), right_interior(g, ej))
    else:
        def entry(ei, ej):
            return dot(wedge(ei, f), wedge(g, ej))
    sig = f.signature
    basis = [Multivector.blade(sig, (i,)) for i in sig.axes()]
    out: dict[tuple[int, int], complex] = {}
    for i in sig.axes():
        di = sig.metric(i)
        for j in range(i, sig.dim):
            dj = sig.metric(j)
            tau_ij = entry(basis[i], basis[j])
            if i == j:
                value = 0.5 * di * dj * tau_ij
            else:
                tau_ji = entry(basis[j], basis[i])
                value = 0.25 * di * dj * (tau_ij + tau_ji)
            if value != 0:
                out[(i, j)] = value
    return Bitensor(sig, out)


def reference_bitensor_tables(sig: SpacetimeSignature, grade: int) -> dict[str, np.ndarray]:
    """The ``C[p, a, b]`` table of each kind of ``_bitensor_tables``, filled
    by ``reference_quadratic_bitensor`` on every pair of unit blades; the
    stress table is -(odot + owedge) + 0.0 on those rows."""
    units = [Multivector.blade(sig, idx) for idx in sig.index_lists(grade)]
    rows = {kind: np.array([[reference_quadratic_bitensor(a, b, kind).row() for b in units]
                            for a in units], dtype=float) for kind in ("odot", "owedge")}
    rows["stress"] = -(rows["odot"] + rows["owedge"]) + 0.0
    return {kind: np.ascontiguousarray(table.transpose(2, 0, 1)) for kind, table in rows.items()}


def bitensor_table_mismatches(sig: SpacetimeSignature) -> list[tuple[int, str]]:
    """The (grade, kind) pairs whose ``_bitensor_tables`` table differs from
    ``reference_bitensor_tables`` in a value or in the sign of a zero."""
    mismatches = []
    for grade in range(sig.dim + 1):
        for kind, want in reference_bitensor_tables(sig, grade).items():
            got, _ = _bitensor_tables(sig, grade, kind)
            if not (got.shape == want.shape and np.array_equal(got, want)
                    and np.array_equal(np.signbit(got), np.signbit(want))):
                mismatches.append((grade, kind))
    return mismatches


def reference_unit_table(sig: SpacetimeSignature, fn, grade: int, out_grade: int) -> np.ndarray:
    """``T[a, b]``: component b of ``fn(e_a)`` over the unit blades a of
    ``grade`` and b of ``out_grade``, both in ``index_lists`` order; float
    unless an image has a complex coefficient.  For a linear ``fn``, the image
    of a dense row u is ``u @ T``.  An image that is not a grade-``out_grade``
    multivector of this signature raises ``ValueError``."""
    images = [fn(Multivector.blade(sig, idx)) for idx in sig.index_lists(grade)]
    if not all(isinstance(i, Multivector) and i.signature == sig and i.grade == out_grade for i in images):
        raise ValueError(f"unit table needs grade-{out_grade} images on {sig}")
    table = np.array([image.row() for image in images])
    return table if np.iscomplexobj(table) else table.astype(float)


def _mapped_tables(call) -> list[np.ndarray]:
    """The tables that ``call()`` hands to ``AnalyticField._mapped``, in call order."""
    seen, original = [], AnalyticField._mapped

    def recording(self, table, grade):
        seen.append(table)
        return original(self, table, grade)

    AnalyticField._mapped = recording
    try:
        call()
    finally:
        AnalyticField._mapped = original
    return seen


def _bridge_reference_tables() -> dict[str, list[np.ndarray]]:
    """The ``reference_unit_table`` of each amplitude map of ``classical_pack``
    and ``classical_unpack``, in the order they apply them."""
    sig = MINKOWSKI
    e0, e123 = Multivector.blade(sig, (0,)), Multivector.blade(sig, (1, 2, 3))
    return {
        "pack": [reference_unit_table(sig, lambda a: wedge(e0, a), 1, 2),
                 reference_unit_table(sig, lambda b: right_interior(e123, b), 1, 2),
                 reference_unit_table(sig, lambda a: Multivector.blade(sig, (0,), a.coeff(())), 0, 1)],
        "unpack": [reference_unit_table(sig, lambda a: left_interior(e0, a), 2, 1),
                   reference_unit_table(sig, lambda a: left_interior(a, e123), 2, 1),
                   reference_unit_table(sig, lambda a: Multivector.blade(sig, (), a.coeff((0,))), 1, 0),
                   reference_unit_table(sig, lambda a: Multivector(sig, 1, {i: c for i, c in a.terms.items()
                                                                             if 0 not in i}), 1, 1)],
    }


def product_table_mismatches(sig: SpacetimeSignature) -> list[tuple]:
    """The derivative (grade, kind), force (grade) and, on (1,3), classical
    pack and unpack (position) tables that differ from the
    ``reference_unit_table`` stack of their product maps in shape, dtype, a
    value or the sign of a zero.  The pack and unpack tables are the ones
    ``classical_pack`` and ``classical_unpack`` hand to ``_mapped``."""
    def differ(got, want):
        return not (got.shape == want.shape and got.dtype == want.dtype and np.array_equal(got, want)
                    and np.array_equal(np.signbit(got), np.signbit(want)))

    mismatches = []
    for grade in range(sig.dim + 1):
        for kind, product, out in ((EXTERIOR, wedge, grade + 1), (INTERIOR, left_interior, grade - 1)):
            if 0 <= out <= sig.dim:
                want = np.stack([reference_unit_table(sig, lambda a, i=i: product(
                    Multivector.blade(sig, (i,), sig.metric(i)), a), grade, out) for i in sig.axes()])
                if differ(_derivative_table(sig, grade, kind), want):
                    mismatches.append(("derivative", grade, kind))
        if grade >= 1:
            want = np.stack([reference_unit_table(sig, lambda a, s=s: left_interior(Multivector.blade(sig, s), a),
                                                  grade, 1) for s in sig.index_lists(grade - 1)])
            if differ(_force_table(sig, grade), want):
                mismatches.append(("force", grade))
    if sig == MINKOWSKI:
        cf = ClassicalFields(E=AnalyticField(sig, 1), B=AnalyticField(sig, 1), rho=AnalyticField(sig, 0),
                             j=AnalyticField(sig, 1))
        system = MaxwellSystem(sig, 2, constant_field(Multivector.blade(sig, (0, 1))))
        got = {"pack": _mapped_tables(lambda: classical_pack(cf)),
               "unpack": _mapped_tables(lambda: classical_unpack(system))}
        for name, tables in _bridge_reference_tables().items():
            if len(got[name]) != len(tables):
                mismatches.append((name, "count"))
            mismatches += [(name, n) for n, (g, w) in enumerate(zip(got[name], tables)) if differ(g, w)]
    return mismatches


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
                        {key: comp.evaluate(x).coeff(()) for key, comp in self.comps.items()})

    def _column(self, i: int, j: int, points: np.ndarray, axis: int | None = None) -> np.ndarray:
        """Component T_ij at the points, or its partial along ``axis``."""
        comp = self.comps.get((min(i, j), max(i, j)))
        if comp is None:
            return np.zeros(len(points))
        rows = comp.evaluate_components(points) if axis is None else comp.jet(points)[1][axis]
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
    "stress" as in ``_bitensor_tables``.
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


def reference_exterior_derivative(f, x: Sequence[float]) -> Multivector:
    """sum_i Delta_ii e_i wedge (d_i f) at x, one ``partial_at`` multivector
    per axis folded through ``wedge``."""
    sig = f.signature
    if f.grade >= sig.dim:
        return Multivector.zero(sig, 0)
    total = Multivector.zero(sig, f.grade + 1)
    for i in sig.axes():
        part = f.partial_at(i, x)
        if part:
            total = total + sig.metric(i) * wedge(Multivector.blade(sig, (i,)), part)
    return total


def reference_interior_derivative(f, x: Sequence[float], axes: Iterable[int] | None = None) -> Multivector:
    """sum over ``axes`` (default all) of Delta_ii e_i interior (d_i f) at x,
    folded through ``left_interior``."""
    sig = f.signature
    if f.grade == 0:
        return Multivector.zero(sig, 0)
    total = Multivector.zero(sig, f.grade - 1)
    for i in (sig.axes() if axes is None else axes):
        part = f.partial_at(i, x)
        if part:
            total = total + sig.metric(i) * left_interior(Multivector.blade(sig, (i,)), part)
    return total


def reference_classical_vector_residuals(cf, x: Sequence[float]) -> dict:
    """gauss = div E - rho, faraday = curl E + dB/dt, monopole = div B and
    ampere = curl B - j - dE/dt at x, one component coefficient at a time."""
    def comp(field, i):
        return field.evaluate(x).coeff((i,))

    def dcomp(field, axis, i):
        return field.partial_at(axis, x).coeff((i,))

    def curl(field):
        return np.array([
            dcomp(field, 2, 3) - dcomp(field, 3, 2),
            dcomp(field, 3, 1) - dcomp(field, 1, 3),
            dcomp(field, 1, 2) - dcomp(field, 2, 1),
        ])

    def div(field):
        return sum(dcomp(field, i, i) for i in (1, 2, 3))

    gauss = div(cf.E) - cf.rho.evaluate(x).coeff(())
    faraday = curl(cf.E) + np.array([dcomp(cf.B, 0, i) for i in (1, 2, 3)])
    monopole = div(cf.B)
    ampere = curl(cf.B) - np.array([comp(cf.j, i) for i in (1, 2, 3)]) \
        - np.array([dcomp(cf.E, 0, i) for i in (1, 2, 3)])
    return {"gauss": gauss, "faraday": faraday, "monopole": monopole, "ampere": ampere}


def reference_derivative_modes(mode: Mode, axis: int) -> list[Mode]:
    """A mode's exact partial along one axis, each derived mode built by
    ``dataclasses.replace`` (so ``Mode.__post_init__`` runs again) with an
    amplitude scaled through ``Multivector.__mul__``."""
    replace = dataclasses.replace
    out = []
    p = mode.poly[axis]
    if p:
        lowered = list(mode.poly)
        lowered[axis] = p - 1
        out.append(replace(mode, amplitude=mode.amplitude * p, poly=tuple(lowered)))
    slope = 2.0 * math.pi * mode.amplitude.signature.metric(axis) * mode.xi[axis]
    if slope != 0.0:
        if mode.waveform == "cos":
            out.append(replace(mode, amplitude=mode.amplitude * slope, phase=mode.phase + 0.5 * math.pi))
        else:
            out.append(replace(mode, amplitude=mode.amplitude * (1j * slope)))
    if mode.envelope is not None:
        w2 = mode.envelope.width ** 2
        raised = list(mode.poly)
        raised[axis] += 1
        out.append(replace(mode, amplitude=mode.amplitude * (-1.0 / w2), poly=tuple(raised)))
        shift = mode.poly_center[axis] - mode.envelope.center[axis]
        if shift:
            out.append(replace(mode, amplitude=mode.amplitude * (-shift / w2)))
    return [m for m in out if m.amplitude]


def reference_pruned(amp: np.ndarray) -> np.ndarray:
    """``fields._pruned`` as one reduce along the rows for each row's largest
    magnitude and one for each row's sum."""
    with np.errstate(over="ignore"):
        mags = np.abs(amp)
        cut = np.where(np.add.reduce(mags, axis=1) < np.inf,
                       algebra.PRUNE_REL * np.maximum.reduce(mags, axis=1, initial=0.0), 0.0)
    drop = mags < cut[:, None]
    drop |= amp == 0
    np.copyto(amp, 0, where=drop)
    return amp


def reference_merged_modes(modes: Iterable[Mode]) -> list[Mode]:
    """Modes sharing every field but the amplitude merged into their first
    occurrence: the group's dense amplitude rows summed in order, then made
    one ``Multivector`` (pruned once); zero amplitudes dropped."""
    merged: dict[tuple, tuple[Mode, np.ndarray]] = {}
    for mode in modes:
        if not mode.amplitude:
            continue
        key = (mode.xi, mode.phase, mode.waveform, mode.poly, mode.poly_center, mode.envelope)
        held = merged.get(key)
        merged[key] = (mode, mode.amplitude.row()) if held is None else (held[0], held[1] + mode.amplitude.row())
    out = [dataclasses.replace(m, amplitude=Multivector.from_row(m.amplitude.signature, m.amplitude.grade, row))
           for m, row in merged.values()]
    return [m for m in out if m.amplitude]


def reference_merged(table: _ModeTable, part: np.ndarray | None = None) -> tuple[_ModeTable, np.ndarray]:
    """``fields._merged`` through a dict keyed by each row's part and its
    ``data[:, :-1]`` entries as a tuple of Python floats (equal keys compare
    equal, so 0.0 matches -0.0 and a fresh NaN matches nothing); the groups'
    members are then added in order and the sums pruned once."""
    if part is None:
        part = np.zeros(len(table.data), dtype=np.intp)
    nonzero = np.logical_or.reduce(table.amp != 0, axis=1)
    if np.count_nonzero(nonzero) < len(nonzero):
        table, part = table.take(nonzero), part[nonzero]
    seen: dict[tuple, int] = {}
    group = [seen.setdefault(key, len(seen))
             for key in zip(part.tolist(), map(tuple, table.data[:, :-1].tolist()))]
    if len(seen) == len(group):
        return table, part
    group = np.array(group)
    order = np.argsort(group, kind="stable")
    starts = np.searchsorted(group[order], np.arange(len(seen)))
    rank = np.empty_like(group)
    rank[order] = np.arange(len(group)) - starts[group[order]]
    lead = order[starts]
    amp = table.amp[lead]
    for r in range(1, int(rank.max()) + 1):
        members = np.flatnonzero(rank == r)
        g = group[members]
        amp[g] = amp[g] + table.amp[members]
    amp = _pruned(amp)
    nonzero = np.logical_or.reduce(amp != 0, axis=1)
    return _ModeTable(amp, table.data[lead]).take(nonzero), part[lead][nonzero]


def reference_partial_modes(modes: Sequence[Mode], axis: int) -> list[Mode]:
    """The partial field's modes: every mode's derived modes, merged."""
    return reference_merged_modes(m for mode in modes for m in reference_derivative_modes(mode, axis))


def axis_partial_field(field: AnalyticField, axis: int) -> AnalyticField:
    """The exact partial along one axis: that axis's rows of the field's
    ``_partial_table``, held as a field without merging them again."""
    table, along, mode = field._partial_table()
    if mode is not None:
        table = _ModeTable(table.amp, table.data[mode])
    lo, hi = np.searchsorted(along, [axis, axis + 1]).tolist()
    return AnalyticField._from_table(field.signature, field.grade, table.take(slice(lo, hi)))


def reference_keyed_derivative(field: AnalyticField, kind: str) -> AnalyticField:
    """The exterior ("exterior") or interior derivative field by the keyed
    grouping alone: every candidate partial row of every mode with a data row
    of its own, merged per axis through the dict of key tuples
    (``reference_merged``), each row gathered and signed through its axis's
    ``_derivative_table`` entries, then merged on the keys again.  No row is
    merged by its source mode, and no step of ``fields._merged`` runs."""
    sig, t = field.signature, field._table
    grade = field.grade + 1 if kind == EXTERIOR else field.grade - 1
    if not 0 <= grade <= sig.dim:
        return AnalyticField(sig, 0)
    data, dim = t.data, sig.dim
    poly = t.block(fields._POLY)
    slope = 2.0 * math.pi * fields._metric(sig) * t.block(fields._XI)
    exp = data[:, fields._EXP] != 0
    valid = np.zeros((dim, len(data), 4), dtype=bool)
    factor = np.zeros(valid.shape)
    valid[:, :, 0], factor[:, :, 0] = poly.T != 0, poly.T
    valid[:, :, 1], factor[:, :, 1] = slope.T != 0.0, slope.T
    has_env = data[:, fields._WIDTH] > 0
    if np.count_nonzero(has_env):
        w2 = data[:, -1]
        shift = (t.block(fields._CENTRE) - t.block(fields._ENV)).T
        valid[:, :, 2] = has_env
        valid[:, :, 3] = has_env & (shift != 0)
        np.divide(-1.0, w2, out=factor[:, :, 2], where=has_env)
        np.divide(-shift, w2, out=factor[:, :, 3], where=valid[:, :, 3])
    if np.count_nonzero(exp):
        factor = factor.astype(complex)
        factor[:, exp, 1] *= 1j
    along, mode, candidate = np.nonzero(valid)
    with np.errstate(invalid="ignore"):
        amp = _pruned(t.amp[mode] * factor[along, mode, candidate][:, None])
    changed = data[mode]
    changed[np.arange(len(mode)), t.column(fields._POLY, 0) + along] += fields._CANDIDATE_STEP[candidate]
    np.add(changed[:, fields._PHASE], 0.5 * math.pi, out=changed[:, fields._PHASE],
           where=(candidate == 1) & ~exp[mode])
    with np.errstate(invalid="ignore"):
        partial, along = reference_merged(_ModeTable(amp, changed), along)
    # each column of the derivative table holds at most one entry
    table = _derivative_table(sig, field.grade, kind)
    source = np.abs(table).argmax(axis=1)
    sign = np.take_along_axis(table, source[:, None, :], axis=1)[:, 0, :]
    amp, sign = partial.amp[np.arange(len(along))[:, None], source[along]], sign[along]
    np.copyto(amp, 0, where=sign == 0)
    with np.errstate(invalid="ignore"):
        amp = _pruned(np.multiply(sign, amp, out=amp))
        merged = reference_merged(_ModeTable(amp, partial.data))[0]
    return AnalyticField._from_table(sig, grade, merged)


def reference_dalembertian(field: AnalyticField, x: Sequence[float]) -> Multivector:
    """sum_i Delta_ii d_i d_i f at x: each axis's second partial built by
    ``reference_partial_modes`` applied twice, made a field and evaluated."""
    sig = field.signature
    total = Multivector.zero(sig, field.grade)
    for i in sig.axes():
        second = reference_partial_modes(reference_partial_modes(field.modes, i), i)
        total = total + sig.metric(i) * AnalyticField(sig, field.grade, second).evaluate(x)
    return total


def reference_map_amplitudes(field: AnalyticField, fn, grade: int) -> list[Mode]:
    """The modes of ``field`` with the linear ``fn`` mapping every amplitude
    to grade ``grade``, by the per-mode route: ``fn`` applied to each whole
    amplitude, then merged."""
    return reference_merged_modes(dataclasses.replace(m, amplitude=fn(m.amplitude)) for m in field.modes)


def mode_values(modes: Iterable[Mode]) -> list[tuple]:
    """Each mode's fields as a tuple that compares coefficients by value:
    Python's scalar types and the signs of zeros are not compared."""
    return [(m.amplitude.terms, m.xi, m.phase, m.waveform, m.poly, m.poly_center, m.envelope)
            for m in modes]


def reference_derivative_field_modes(field: AnalyticField, kind: str) -> list[Mode]:
    """The exterior ("exterior") or interior derivative field's modes: the
    public ``wedge`` or ``left_interior`` of Delta_ii e_i with every mode of
    each partial field, merged."""
    sig = field.signature
    product = wedge if kind == "exterior" else left_interior
    out = []
    for i in sig.axes():
        basis = Multivector.blade(sig, (i,), sig.metric(i))
        for mode in reference_partial_modes(field.modes, i):
            amp = product(basis, mode.amplitude)
            if amp:
                out.append(dataclasses.replace(mode, amplitude=amp))
    return reference_merged_modes(out)


def mode_family_fields(sig: SpacetimeSignature, r: int, rng) -> dict[str, AnalyticField]:
    """One grade-r field of each kind of mode: cos, exp, monomial, envelope,
    and their mix, with normal random amplitudes on every blade."""
    def amp():
        return Multivector(sig, r, {idx: float(rng.normal()) for idx in sig.index_lists(r)})

    def xi():
        return tuple(rng.uniform(-0.7, 0.7, sig.dim))

    envelope = GaussianEnvelope(center=tuple(rng.uniform(-0.5, 0.5, sig.dim)), width=0.9)
    cos = AnalyticField(sig, r, [Mode(amplitude=amp(), xi=xi(), phase=0.3),
                                 Mode(amplitude=amp(), xi=xi(), phase=1.1)])
    exp = AnalyticField(sig, r, [Mode(amplitude=amp(), xi=xi(), waveform="exp"),
                                 Mode(amplitude=amp(), xi=xi(), phase=0.4, waveform="exp")])
    monomial = polynomial_field(amp(), tuple(rng.integers(0, 3, sig.dim))) \
        + polynomial_field(amp(), tuple(rng.integers(0, 3, sig.dim)))
    enveloped = AnalyticField(sig, r, [Mode(amplitude=amp(), xi=xi(), envelope=envelope),
                                       Mode(amplitude=amp(), envelope=envelope)])
    mixed = AnalyticField(sig, r, [Mode(amplitude=amp(), xi=xi(), poly=tuple(rng.integers(0, 2, sig.dim)),
                                        envelope=envelope),
                                   Mode(amplitude=amp(), xi=xi(), waveform="exp")])
    return {"cos": cos, "exp": exp, "monomial": monomial, "envelope": enveloped, "mixed": mixed}


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
        div_u += sig.metric(i) * contracted.coeff(())
    term1 = dot(_derivative_at(v, EXTERIOR, x), wx)
    term2 = (-1) ** v.grade * dot(_derivative_at(w, INTERIOR, x), vx)
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


def reference_mode_kernel(field: AnalyticField, points: np.ndarray) -> np.ndarray:
    """Dense (npoints, ncomp) rows as a loop over the modes: each adds its
    amplitude row times monomial x waveform x envelope, evaluated over all
    points at once."""
    sig = field.signature
    dtype = complex if field.is_complex() else float
    out = np.zeros((len(points), math.comb(sig.dim, field.grade)), dtype=dtype)
    metric = np.array([sig.metric(i) for i in sig.axes()])
    for mode in field.modes:
        theta = points @ (2.0 * math.pi * metric * np.array(mode.xi)) + mode.phase
        factor = np.exp(1j * theta) if mode.waveform == "exp" else np.cos(theta)
        for axis, (power, centre) in enumerate(zip(mode.poly, mode.poly_center)):
            if power:
                factor = factor * (points[:, axis] - centre) ** power
        if mode.envelope is not None:
            d = points - np.array(mode.envelope.center)
            factor = factor * np.exp(-np.einsum("pi,pi->p", d, d) / (2.0 * mode.envelope.width ** 2))
        out += np.outer(factor, mode.amplitude.row())
    return out


def element_blade(box) -> Multivector:
    """The oriented blade e_S carried by a box's differential."""
    return Multivector.blade(box.signature, box.free_axes, box.orientation)


def boundary_faces(box) -> list[HypersurfaceBox]:
    """The 2 * dim oriented face boxes, upper then lower on each free axis.  The
    face fixing free axis q at its upper end carries the box's orientation times
    the sign of the permutation moving q in front of the other free axes, the
    lower end its negative: the induced orientation."""
    faces = []
    for axis in box.free_axes:
        rest = [a for a in box.free_axes if a != axis]
        induced = sort_with_sign([axis, *rest])[1] * box.orientation
        lo, hi = box.intervals[axis]
        faces += [HypersurfaceBox(box.signature, {a: box.intervals[a] for a in rest},
                                  {**box.fixed, axis: value}, side * induced)
                  for value, side in ((hi, 1), (lo, -1))]
    return faces


def reference_grid(box, points: int, panels: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """The box's quadrature nodes and weights built one node at a time over
    itertools.product of the per-axis rules, last free axis fastest, each
    weight multiplied up in free-axis order from 1.0."""
    free = box.free_axes
    rules = [_composite_rule(*box.intervals[a], points, panels) for a in free]
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
    blade = element_blade(box)
    return sum(w * dot(blade, f.evaluate(x)) for x, w in zip(*reference_grid(box, points, panels)))


def reference_flux(f, box, points: int = 8, panels: int = 1) -> Multivector:
    """Sum over nodes of w left_interior(inv_hodge(e_S), F(x))."""
    element = inv_hodge(element_blade(box))
    terms = [left_interior(element, f.evaluate(x)) * w
             for x, w in zip(*reference_grid(box, points, panels))]
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    return total


def _reference_integrated(rows, box, points: int, panels: int) -> list:
    """One box's integrated row as ``grid_points`` gives it: weights @ rows(nodes)."""
    nodes, weights = box.grid_points(points, panels)
    return (weights @ rows(nodes)).tolist()


def reference_box_circulation(f, box, points: int = 8, panels: int = 1) -> complex:
    """``circulation`` as the multivector product dot(e_S, integrated field) + 0.0."""
    total = _reference_integrated(f.evaluate_components, box, points, panels)
    return dot(element_blade(box), Multivector.from_row(box.signature, f.grade, total)) + 0.0


def reference_box_flux(f, box, points: int = 8, panels: int = 1) -> Multivector:
    """``flux`` as the multivector product left_interior(inv_hodge(e_S), integrated field)."""
    sig = box.signature
    if f.grade + box.dim < sig.dim:
        return Multivector.zero(sig, 0)
    total = _reference_integrated(f.evaluate_components, box, points, panels)
    return left_interior(inv_hodge(element_blade(box)), Multivector.from_row(sig, f.grade, total))


def reference_box_vector(tf, box, points: int = 8, panels: int = 1) -> Multivector:
    """A full-dimension box's integrated ``divergence_components`` as a vector times its orientation."""
    rows = _reference_integrated(tf.divergence_components, box, points, panels)
    return Multivector.vector(box.signature, rows) * box.orientation


def reference_boundary_circulation(f, box, points: int = 8, panels: int = 1) -> complex:
    """The boundary circulation face by face, the route of ``reference_circulation``
    on face boxes: one ``boundary_faces`` box, evaluation and
    ``reference_box_circulation`` per face, summed from 0."""
    return sum(reference_box_circulation(f, face, points, panels) for face in boundary_faces(box))


def reference_boundary_flux(f, box, points: int = 8, panels: int = 1) -> Multivector:
    """The boundary flux face by face, the route of ``reference_flux`` on face
    boxes: one ``reference_box_flux`` per ``boundary_faces`` box, added in order."""
    terms = [reference_box_flux(f, face, points, panels) for face in boundary_faces(box)]
    return sum(terms[1:], terms[0])


def reference_boundary_bitensor(tf, box, points: int = 8, panels: int = 1) -> Multivector:
    """The bitensor boundary term face by face: each face box's integrated
    tensor contracted with its inverse-Hodge element by
    ``vec_interior_bitensor``, added from the zero vector."""
    sig = box.signature
    total = Multivector.zero(sig, 1)
    for face in boundary_faces(box):
        tensor = Bitensor.from_row(sig, _reference_integrated(tf.evaluate_components, face, points, panels))
        total = total + vec_interior_bitensor(inv_hodge(element_blade(face)), tensor)
    return total


class PointByPoint:
    """A field, or a quadratic tensor field, whose batched rows are its
    one-point rows stacked.  A batched matrix product may round a row
    differently with its place in the batch, so only through this wrapper do
    a boundary's stacked evaluation and its face-by-face reference see the
    same rows bit for bit."""

    def __init__(self, field):
        self.field = field
        self.signature = field.signature
        self.grade = getattr(field, "grade", None)

    def _stacked(self, method: str, points: np.ndarray) -> np.ndarray:
        call = getattr(self.field, method)
        return np.concatenate([call(point[None, :]) for point in np.asarray(points, dtype=float)])

    def evaluate_components(self, points: np.ndarray) -> np.ndarray:
        return self._stacked("evaluate_components", points)

    def divergence_components(self, points: np.ndarray) -> np.ndarray:
        return self._stacked("divergence_components", points)


def exact_bits(value):
    """A result's exact content: a scalar, or a multivector's grade and its
    terms in order, each float part as its IEEE bytes (so -0.0, NaN and the
    sign of a NaN all count)."""
    def bits(c):
        if isinstance(c, complex):
            return "complex", struct.pack("<dd", c.real, c.imag)
        return type(c).__name__, struct.pack("<d", c) if isinstance(c, float) else c
    if isinstance(value, Multivector):
        return value.grade, [(idx, bits(c)) for idx, c in value.terms.items()]
    return bits(value)


def reference_field_from_json(data, sig: SpacetimeSignature) -> tuple[AnalyticField, list[Mode]]:
    """The analytic field reader through objects: each amplitude read into a
    ``Multivector``, each mode into a ``Mode``, then the ``AnalyticField`` of
    those modes, under the reader's error wrapping.  Returns the field and the
    modes with a nonzero amplitude, which were its ``modes`` view when none
    merged.

    The ``AnalyticField`` constructor hands its modes to
    ``AnalyticField._from_rows``, the builder the reader calls, so this
    reference shares the table build with the code it checks: it certifies
    how each entry is read and checked, while ``reference_pruned``,
    ``reference_merged`` and ``test_modes_field_round_trip`` certify the
    shared prune, merge and dtype rule."""
    with _reading("field object"):
        grade = json_int(data["grade"], "grade")
        modes = []
        for entry in data.get("modes", []):
            amplitude = entry["amplitude"]
            with _reading("multivector object"):
                amp_grade = json_int(amplitude["grade"], "grade")
                terms = {}
                for term in amplitude.get("terms", []):
                    indices = tuple(json_int(i, "index") for i in term["indices"])
                    re = json_float(term.get("re", 0.0), "re")
                    im = json_float(term.get("im", 0.0), "im")
                    terms[indices] = complex(re, im) if im else re
                amplitude = Multivector(sig, amp_grade, terms)
            modes.append(Mode(
                amplitude=amplitude,
                xi=tuple(json_float(v, "xi") for v in entry.get("xi", [0.0] * sig.dim)),
                phase=json_float(entry.get("phase", 0.0), "phase"),
                waveform=entry.get("waveform", "cos"),
                poly=tuple(json_int(p, "poly") for p in entry.get("poly", [])),
                poly_center=tuple(json_float(c, "poly_center") for c in entry.get("poly_center", [])),
                envelope=_reference_envelope(entry.get("envelope"), sig.dim),
            ))
        return AnalyticField(sig, grade, modes), [mode for mode in modes if mode.amplitude]


def _reference_envelope(data, dim: int) -> GaussianEnvelope | None:
    if data is None:
        return None
    if data.get("type") != "gaussian":
        raise ScenarioError(f"unknown envelope type {data.get('type')!r}")
    center = data.get("center", [0.0] * dim)
    return GaussianEnvelope(center=tuple(json_float(c, "envelope center") for c in center),
                            width=json_float(data["width"], "envelope width"))


def reference_field_to_json(field: AnalyticField) -> dict:
    """The analytic field writer through the ``modes`` view, one ``Mode``
    object at a time."""
    modes = []
    for mode in field.modes:
        entry = {"xi": list(mode.xi), "phase": mode.phase, "waveform": mode.waveform,
                 "envelope": None if mode.envelope is None else {
                     "type": "gaussian", "width": mode.envelope.width, "center": list(mode.envelope.center)},
                 "amplitude": multivector_to_json(mode.amplitude)}
        if any(mode.poly):
            entry["poly"] = list(mode.poly)
            entry["poly_center"] = list(mode.poly_center)
        modes.append(entry)
    return {"grade": field.grade, "backend": "modes", "modes": modes}


def table_bits(field: AnalyticField) -> tuple:
    """A field's mode table exactly: the mode count, and each array's dtype,
    shape and bytes (so -0.0 and NaN payloads count)."""
    table = field._table
    return field.mode_count, *((a.dtype.str, a.shape, a.tobytes()) for a in (table.amp, table.data))


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


def _reference_cone_nodes(sig: SpacetimeSignature, axis: int, region, points: int, panels: int):
    """(xi_bar, xi_plus, chi, weight) node by node over ``HypersurfaceBox.quadrature``,
    xi_plus a multivector with chi on the flux axis; nodes off the cone skipped."""
    free = [a for a in sig.axes() if a != axis]
    box = HypersurfaceBox(sig, intervals=dict(region), fixed={axis: 0.0})
    for xi_bar, weight in box.quadrature(points, panels):
        radicand = -sig.metric(axis) * sum(sig.metric(a) * xi_bar[a] ** 2 for a in free)
        if radicand < 0:
            continue
        chi = math.sqrt(radicand)
        comps = {(a,): xi_bar[a] for a in free if xi_bar[a] != 0}
        if chi != 0:
            comps[(axis,)] = chi
        yield xi_bar, Multivector(sig, 1, comps), chi, weight


def _reference_amplitude(a_hat, xi_plus: Multivector, grade: int) -> Multivector:
    """The array spectrum at one node, as a multivector."""
    sig = xi_plus.signature
    row = np.asarray(a_hat(np.array([xi_plus.row()], dtype=float)))[0]
    return Multivector.from_row(sig, grade, row)


def reference_flux_T_fourier(a_hat, axis: int, region, sig: SpacetimeSignature, grade: int,
                             points: int = 8, panels: int = 1, gauge_tol: float = 1e-9) -> Multivector:
    """The frequency-domain slice flux node by node: ``dot`` of the amplitude
    with its conjugate, ``left_interior`` for the Lorenz residual, and the
    first node that breaks a condition raising."""
    from extcalc.energy import CHI_EPS, GaugeViolation

    _, sign = merge_with_sign((axis,), tuple(a for a in sig.axes() if a != axis))
    accum = np.zeros(sig.dim)
    for xi_bar, xi_plus, chi, weight in _reference_cone_nodes(sig, axis, region, points, panels):
        amp = _reference_amplitude(a_hat, xi_plus, grade - 1)
        mod2 = dot(amp, amp.conjugate())
        mod2 = mod2.real if isinstance(mod2, complex) else mod2
        if chi < CHI_EPS:
            if not amp.max_abs() <= 1e-9:
                raise ValueError(f"amplitude must vanish near the chi = 0 degeneracy (chi={chi:.3g})")
            continue
        gauge = left_interior(xi_plus, amp).max_abs()
        if gauge > gauge_tol * max(1.0, amp.max_abs()):
            raise GaugeViolation(f"Lorenz condition violated at xi_bar={xi_bar.tolist()}: "
                                 f"residual {gauge:.3e}")
        scale = weight * mod2 / chi
        for a in sig.axes():
            accum[a] += scale * (chi if a == axis else xi_bar[a])
    prefactor = (-1) ** grade * 2.0 * math.pi ** 2 * sign
    return Multivector(sig, 1, {(a,): prefactor * accum[a] for a in sig.axes() if accum[a] != 0.0})


def reference_synthesized_modes(a_hat, axis: int, region, sig: SpacetimeSignature, grade: int,
                                points: int = 8, panels: int = 1) -> list[Mode]:
    """The synthesized potential's modes node by node: the amplitude's real
    part times weight / chi at phase 0, then its imaginary part at phase pi/2."""
    from extcalc.energy import CHI_EPS

    modes = []
    for xi_bar, xi_plus, chi, weight in _reference_cone_nodes(sig, axis, region, points, panels):
        if chi < CHI_EPS:
            continue
        amp = _reference_amplitude(a_hat, xi_plus, grade - 1)
        xi = tuple(chi if a == axis else xi_bar[a] for a in sig.axes())
        real = Multivector(sig, amp.grade, {i: c.real for i, c in amp.terms.items()})
        imag = Multivector(sig, amp.grade, {i: c.imag for i, c in amp.terms.items()
                                            if isinstance(c, complex)})
        if real:
            modes.append(Mode(amplitude=real * (weight / chi), xi=xi, phase=0.0))
        if imag:
            modes.append(Mode(amplitude=imag * (weight / chi), xi=xi, phase=0.5 * math.pi))
    return reference_merged_modes(modes)


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
