"""Multivector fields over (k, n) space-time and the differential operator.

Two backends satisfy the same small protocol: ``signature``, ``grade``, the
batched ``evaluate_components(points)`` and ``partial_components(axis,
points)`` giving dense ``(npoints, ncomp)`` rows in ``component_lists()``
order, and their per-point one-row cases ``evaluate`` and ``partial_at``, as
multivectors:

* ``AnalyticField`` is a finite sum of modes, each the product of a constant
  multivector amplitude, a monomial, a cosine or complex-exponential waveform
  in the metric pairing xi . x, and an optional Gaussian envelope.  The family
  is closed under partial differentiation, so derivatives are exact.
* ``GridField`` samples a field on a rectangular lattice and differentiates
  with second-order central differences.

The exterior and interior derivatives are linear in the partials, so over a
point array each is the sum over axes of the partial rows times a table of
``wedge``/``left_interior`` on unit blades; the per-point forms are the
one-row case.

The wave phase is theta(x) = 2 pi sum_i Delta_ii xi_i x_i + phi, i.e. the
metric dot product of the frequency covector with the position.  This is the
pairing under which a complex-exponential mode turns the interior derivative
into the algebraic contraction j 2 pi xi applied to the amplitude.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Mapping, Sequence

import numpy as np

from .algebra import Multivector, SpacetimeSignature, left_interior, wedge

__all__ = [
    "FieldDomainError",
    "GaussianEnvelope",
    "Mode",
    "AnalyticField",
    "GridField",
    "partial_derivative",
    "exterior_derivative",
    "interior_derivative",
    "exterior_derivative_components",
    "interior_derivative_components",
    "dalembertian",
    "exterior_derivative_field",
    "interior_derivative_field",
    "plane_wave",
    "polynomial_field",
    "constant_field",
]

WAVE_COS = "cos"
WAVE_EXP = "exp"


class FieldDomainError(ValueError):
    """Evaluation requested outside the domain a backend can serve."""


def as_point(sig: SpacetimeSignature, x: Sequence[float]) -> np.ndarray:
    point = np.asarray(x, dtype=float)
    if point.shape != (sig.dim,):
        raise ValueError(f"point has shape {point.shape}, expected ({sig.dim},)")
    return point


@dataclass(frozen=True)
class GaussianEnvelope:
    """exp(-|x - center|^2 / (2 width^2)), isotropic over all axes."""

    center: tuple[float, ...]
    width: float

    def __post_init__(self):
        if self.width <= 0:
            raise ValueError("envelope width must be positive")
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))

    def truncation_radius(self, cutoff: float = 1e-12) -> float:
        """Distance from the center beyond which the envelope drops below cutoff."""
        return self.width * math.sqrt(2.0 * math.log(1.0 / cutoff))


@dataclass(frozen=True)
class Mode:
    """One analytic term: amplitude * poly(x) * waveform(theta(x)) * envelope(x).

    ``poly`` holds per-axis monomial exponents taken around ``poly_center``;
    all-zero exponents make the factor 1.  ``xi`` is the frequency covector
    entering theta through the metric pairing.
    """

    amplitude: Multivector
    xi: tuple[float, ...] = ()
    phase: float = 0.0
    waveform: str = WAVE_COS
    poly: tuple[int, ...] = ()
    poly_center: tuple[float, ...] = ()
    envelope: GaussianEnvelope | None = None

    def __post_init__(self):
        dim = self.amplitude.signature.dim
        object.__setattr__(self, "xi", _pad(self.xi, dim))
        object.__setattr__(self, "poly", tuple(int(p) for p in _pad(self.poly, dim)))
        if any(p < 0 for p in self.poly):
            raise ValueError("monomial exponents must be nonnegative")
        center = self.poly_center
        if not center and self.envelope is not None:
            center = self.envelope.center
        object.__setattr__(self, "poly_center", _pad(center, dim))
        if self.waveform not in (WAVE_COS, WAVE_EXP):
            raise ValueError(f"unknown waveform {self.waveform!r}")

    def phase_gradient(self, axis: int) -> float:
        sig = self.amplitude.signature
        return 2.0 * math.pi * sig.metric(axis) * self.xi[axis]

    def derivative_modes(self, axis: int) -> list["Mode"]:
        """Exact partial derivative along one axis as a list of modes."""
        out: list[Mode] = []
        poly = self.poly
        # monomial factor
        p = poly[axis]
        if p:
            out.append(self._with(amplitude=self.amplitude * p,
                                  poly=poly[:axis] + (p - 1,) + poly[axis + 1:]))
        # waveform factor
        slope = self.phase_gradient(axis)
        if slope != 0.0:
            if self.waveform == WAVE_COS:
                out.append(self._with(amplitude=self.amplitude * slope,
                                      phase=self.phase + 0.5 * math.pi))
            else:
                out.append(self._with(amplitude=self.amplitude * (1j * slope)))
        # envelope factor: -(x_a - c_a)/w^2 splits over the monomial center
        if self.envelope is not None:
            w2 = self.envelope.width ** 2
            out.append(self._with(amplitude=self.amplitude * (-1.0 / w2),
                                  poly=poly[:axis] + (poly[axis] + 1,) + poly[axis + 1:]))
            shift = self.poly_center[axis] - self.envelope.center[axis]
            if shift:
                out.append(self._with(amplitude=self.amplitude * (-shift / w2)))
        return [m for m in out if m.amplitude]

    def _with(self, **changes) -> "Mode":
        """This mode with some fields replaced by values already in canonical
        form: unlike ``dataclasses.replace`` it does not re-run __post_init__,
        whose padding and checks this mode has passed."""
        mode = object.__new__(Mode)
        mode.__dict__.update(self.__dict__, **changes)
        return mode


def _pad(values: Iterable[float], dim: int) -> tuple[float, ...]:
    out = tuple(float(v) for v in values)
    if not out:
        return (0.0,) * dim
    if len(out) != dim:
        raise ValueError(f"expected {dim} entries, got {len(out)}")
    return out


def _dense_multivector(sig: SpacetimeSignature, grade: int, lists: Sequence[tuple[int, ...]],
                       row: np.ndarray) -> Multivector:
    """The multivector whose components, in ``lists`` order, are one dense row."""
    return Multivector(sig, grade, zip(lists, row.tolist()))


class AnalyticField:
    """Fixed-grade multivector field given by a finite list of analytic modes."""

    __slots__ = ("signature", "grade", "modes", "_partials", "_arrays")

    def __init__(self, signature: SpacetimeSignature, grade: int, modes: Iterable[Mode] = ()):
        self.signature = signature
        self.grade = grade
        # merge modes sharing every scalar factor; keeps derived fields compact
        merged: dict[tuple, Mode] = {}
        for mode in modes:
            if mode.amplitude.signature != signature:
                raise ValueError("mode amplitude signature does not match the field")
            if mode.amplitude.grade != grade:
                raise ValueError(f"mode amplitude grade {mode.amplitude.grade} != field grade {grade}")
            if not mode.amplitude:
                continue
            key = (mode.xi, mode.phase, mode.waveform, mode.poly, mode.poly_center, mode.envelope)
            held = merged.get(key)
            merged[key] = mode if held is None else held._with(amplitude=held.amplitude + mode.amplitude)
        self.modes = tuple(m for m in merged.values() if m.amplitude)
        self._partials: dict[int, AnalyticField] = {}
        self._arrays: tuple | None = None

    def evaluate(self, x: Sequence[float]) -> Multivector:
        row = self.evaluate_components(as_point(self.signature, x)[None, :])[0]
        return _dense_multivector(self.signature, self.grade, self._mode_arrays()[0], row)

    def partial_field(self, axis: int) -> "AnalyticField":
        cached = self._partials.get(axis)
        if cached is None:
            modes: list[Mode] = []
            for mode in self.modes:
                modes.extend(mode.derivative_modes(axis))
            cached = AnalyticField(self.signature, self.grade, modes)
            self._partials[axis] = cached
        return cached

    def partial_at(self, axis: int, x: Sequence[float]) -> Multivector:
        return self.partial_field(axis).evaluate(x)

    def partial_components(self, axis: int, points: np.ndarray) -> np.ndarray:
        """Dense (npoints, ncomp) exact partial along one axis."""
        return self.partial_field(axis).evaluate_components(points)

    def component_lists(self) -> list[tuple[int, ...]]:
        return list(combinations(range(self.signature.dim), self.grade))

    def is_complex(self) -> bool:
        if any(m.waveform == WAVE_EXP for m in self.modes):
            return True
        return any(isinstance(c, complex) for m in self.modes for c in m.amplitude.terms.values())

    def _mode_arrays(self) -> tuple:
        """Component lists, dtype and per-mode kernel arrays, built once per field.

        Each mode gives (dense amplitude row, 2 pi Delta xi, phase, exp flag,
        (axis, exponent, centre) monomial factors, (centre, 2 w^2) or None).
        """
        if self._arrays is None:
            sig = self.signature
            lists = self.component_lists()
            index = {idx: pos for pos, idx in enumerate(lists)}
            dtype = complex if self.is_complex() else float
            metric = np.array([sig.metric(i) for i in sig.axes()], dtype=float)
            arrays = []
            for mode in self.modes:
                row = np.zeros(len(lists), dtype=dtype)
                for idx, c in mode.amplitude.terms.items():
                    row[index[idx]] = c
                monomials = tuple((i, p, mode.poly_center[i]) for i, p in enumerate(mode.poly) if p)
                env = mode.envelope
                envelope = None if env is None else (np.asarray(env.center), 2.0 * env.width ** 2)
                arrays.append((row, 2.0 * math.pi * metric * np.asarray(mode.xi), mode.phase,
                               mode.waveform == WAVE_EXP, monomials, envelope))
            self._arrays = (lists, dtype, tuple(arrays))
        return self._arrays

    def evaluate_components(self, points: np.ndarray) -> np.ndarray:
        """Dense (npoints, ncomp) evaluation in component_lists order.

        The one mode kernel: every mode adds its amplitude row times monomial
        x waveform x envelope, evaluated over all points at once.  Modes are
        looped over, not stacked, so memory stays at one column per point.
        """
        lists, dtype, arrays = self._mode_arrays()
        out = np.zeros((len(points), len(lists)), dtype=dtype)
        for row, slope, phase, is_exp, monomials, envelope in arrays:
            theta = points @ slope + phase
            factor = np.exp(1j * theta) if is_exp else np.cos(theta)
            for axis, power, centre in monomials:
                factor *= (points[:, axis] - centre) ** power
            if envelope is not None:
                centre, two_w2 = envelope
                d = points - centre
                factor *= np.exp(-np.einsum("pi,pi->p", d, d) / two_w2)
            out += np.outer(factor, row)
        return out

    def axis_factors(self, fixed: Mapping[int, float], nodes: Mapping[int, np.ndarray]):
        """The mode kernel split over axes, for a tensor-product point set.

        Returns the (nmodes, ncomp) amplitude rows, a per-mode complex
        constant c, and for each axis a in ``nodes`` the (nmodes, len(nodes[a]))
        factors E_a[m] = exp(j s_ma x) (x - c_ma)^p_ma exp(-(x - e_ma)^2 / 2 w_m^2)
        of mode m's slope, monomial and envelope on that axis.  c folds
        exp(j phi_m) with the same factors at the ``fixed`` coordinates, so
        c_m prod_a E_a[m, i_a] is mode m's exp(j theta) x monomial x envelope
        at the point with coordinates nodes[a][i_a]; for a cosine mode the
        factor is its real part.
        """
        lists, dtype, arrays = self._mode_arrays()
        rows = np.array([row for row, *_ in arrays], dtype=dtype).reshape(len(arrays), len(lists))

        def factors(axis: int, x: np.ndarray) -> np.ndarray:
            out = np.exp(1j * np.multiply.outer([slope[axis] for _, slope, *_ in arrays], x))
            for m, (*_, monomials, envelope) in enumerate(arrays):
                for a, power, centre in monomials:
                    if a == axis:
                        out[m] *= (x - centre) ** power
                if envelope is not None:
                    centre, two_w2 = envelope
                    out[m] *= np.exp(-(x - centre[axis]) ** 2 / two_w2)
            return out

        const = np.exp(1j * np.array([phase for _, _, phase, *_ in arrays], dtype=float))
        for axis, value in fixed.items():
            const *= factors(axis, np.array([value], dtype=float))[:, 0]
        return rows, const, {a: factors(a, np.asarray(x, dtype=float)) for a, x in nodes.items()}

    def __add__(self, other: "AnalyticField") -> "AnalyticField":
        if self.signature != other.signature or self.grade != other.grade:
            raise ValueError("cannot add fields with different signature or grade")
        return AnalyticField(self.signature, self.grade, self.modes + other.modes)

    def __mul__(self, factor: complex) -> "AnalyticField":
        return AnalyticField(self.signature, self.grade,
                             [m._with(amplitude=m.amplitude * factor) for m in self.modes])

    __rmul__ = __mul__

    def __neg__(self) -> "AnalyticField":
        return self * -1

    def map_amplitudes(self, fn, grade: int) -> "AnalyticField":
        """New field with every mode amplitude passed through a linear map."""
        modes = [m._with(amplitude=fn(m.amplitude)) for m in self.modes]
        return AnalyticField(self.signature, grade, [m for m in modes if m.amplitude])


def constant_field(value: Multivector) -> AnalyticField:
    return AnalyticField(value.signature, value.grade, [Mode(amplitude=value)])


def plane_wave(amplitude: Multivector, xi: Sequence[float], phase: float = 0.0,
               waveform: str = WAVE_COS, envelope: GaussianEnvelope | None = None) -> AnalyticField:
    mode = Mode(amplitude=amplitude, xi=tuple(xi), phase=phase, waveform=waveform, envelope=envelope)
    return AnalyticField(amplitude.signature, amplitude.grade, [mode])


def polynomial_field(amplitude: Multivector, exponents: Sequence[int],
                     center: Sequence[float] = ()) -> AnalyticField:
    mode = Mode(amplitude=amplitude, poly=tuple(exponents), poly_center=tuple(center))
    return AnalyticField(amplitude.signature, amplitude.grade, [mode])


class GridField:
    """Field sampled on a rectangular lattice; central-difference derivatives."""

    __slots__ = ("signature", "grade", "origin", "spacing", "values", "_lists")

    def __init__(self, signature: SpacetimeSignature, grade: int,
                 origin: Sequence[float], spacing: Sequence[float], values: np.ndarray):
        self.signature = signature
        self.grade = grade
        self.origin = np.asarray(origin, dtype=float)
        self.spacing = np.asarray(spacing, dtype=float)
        if self.origin.shape != (signature.dim,) or self.spacing.shape != (signature.dim,):
            raise ValueError("origin and spacing must have one entry per axis")
        if np.any(self.spacing <= 0):
            raise ValueError("grid spacings must be positive")
        self._lists = list(combinations(range(signature.dim), grade))
        values = np.asarray(values)
        if np.iscomplexobj(values) and np.any(values.imag != 0):
            raise ValueError("grid values must be real; these have a non-zero imaginary part")
        values = np.asarray(values.real, dtype=float)
        if values.ndim != signature.dim + 1 or values.shape[-1] != len(self._lists):
            raise ValueError(f"values must have shape (*sites, {len(self._lists)})")
        self.values = values

    @classmethod
    def sample(cls, source: AnalyticField, origin: Sequence[float], spacing: Sequence[float],
               counts: Sequence[int]) -> "GridField":
        sig = source.signature
        origin = np.asarray(origin, dtype=float)
        spacing = np.asarray(spacing, dtype=float)
        counts = tuple(int(c) for c in counts)
        axes = [origin[i] + spacing[i] * np.arange(counts[i]) for i in range(sig.dim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        points = np.stack([m.reshape(-1) for m in mesh], axis=1)
        dense = source.evaluate_components(points)
        return cls(sig, source.grade, origin, spacing, dense.reshape(*counts, -1))

    def component_lists(self) -> list[tuple[int, ...]]:
        return list(self._lists)

    def _sites(self, points: np.ndarray) -> np.ndarray:
        """Lattice sites of the points; the first point off the lattice or
        outside it raises."""
        rel = (points - self.origin) / self.spacing
        sites = np.rint(rel).astype(int)
        off = np.abs(rel - sites) > 1e-8
        bad = off | (sites < 0) | (sites >= self.values.shape[:-1])
        if bad.any():
            p = int(bad.any(axis=1).argmax())
            where = "is not on the sampling lattice" if off[p].any() else "lies outside the sampled lattice"
            raise FieldDomainError(f"point {points[p].tolist()} {where}")
        return sites

    def evaluate_components(self, points: np.ndarray) -> np.ndarray:
        """Dense (npoints, ncomp) lattice values in component_lists order."""
        points = np.asarray(points, dtype=float)
        return self.values[tuple(self._sites(points).T)]

    def evaluate(self, x: Sequence[float]) -> Multivector:
        row = self.evaluate_components(as_point(self.signature, x)[None, :])[0]
        return _dense_multivector(self.signature, self.grade, self._lists, row)

    def partial_components(self, axis: int, points: np.ndarray) -> np.ndarray:
        """Dense (npoints, ncomp) central differences along one axis; the
        first point whose neighbours leave the lattice raises."""
        sites = self._sites(np.asarray(points, dtype=float))
        bad = (sites[:, axis] < 1) | (sites[:, axis] + 1 >= self.values.shape[axis])
        if bad.any():
            site = tuple(int(s) for s in sites[bad.argmax()])
            raise FieldDomainError(f"axis {axis} neighbours of site {site} fall outside the lattice")
        fwd = sites.copy()
        bwd = sites.copy()
        fwd[:, axis] += 1
        bwd[:, axis] -= 1
        return (self.values[tuple(fwd.T)] - self.values[tuple(bwd.T)]) / (2.0 * self.spacing[axis])

    def partial_at(self, axis: int, x: Sequence[float]) -> Multivector:
        row = self.partial_components(axis, as_point(self.signature, x)[None, :])[0]
        return _dense_multivector(self.signature, self.grade, self._lists, row)


# ---------------------------------------------------------------------------
# derivative operators
# ---------------------------------------------------------------------------

def partial_derivative(f, axis: int, x: Sequence[float]) -> Multivector:
    """Partial derivative of the field along one axis, exact or central-difference."""
    if not 0 <= axis < f.signature.dim:
        raise IndexError(f"axis {axis} out of range")
    return f.partial_at(axis, x)


EXTERIOR = "exterior"
INTERIOR = "interior"


@lru_cache(maxsize=None)
def _derivative_table(sig: SpacetimeSignature, grade: int, kind: str) -> np.ndarray:
    """``T[i, a, b]``: component b of Delta_ii e_i wedge (exterior) or
    Delta_ii e_i interior (interior) unit blade a, filled by the public
    ``wedge``/``left_interior``; blades in ``index_lists`` order.

    By linearity the derivative of a field with partial rows P_i is
    sum_i P_i @ T[i].  Shape (dim, ncomp(grade), ncomp(grade +- 1)).
    """
    product, out_grade = (wedge, grade + 1) if kind == EXTERIOR else (left_interior, grade - 1)
    units = [Multivector.blade(sig, idx) for idx in sig.index_lists(grade)]
    slot = {idx: b for b, idx in enumerate(sig.index_lists(out_grade))}
    table = np.zeros((sig.dim, len(units), len(slot)))
    for i in sig.axes():
        basis = Multivector.blade(sig, (i,), sig.metric(i))
        for a, unit in enumerate(units):
            for idx, c in product(basis, unit).terms.items():
                table[i, a, slot[idx]] = c
    # cached and shared by every caller
    table.flags.writeable = False
    return table


def _derivative_grade(f, kind: str) -> int | None:
    """Grade of the field's exterior or interior derivative; None when it
    leaves 0..dim and the derivative is identically zero."""
    grade = f.grade + 1 if kind == EXTERIOR else f.grade - 1
    return grade if 0 <= grade <= f.signature.dim else None


def _derivative_rows(f, kind: str, points: np.ndarray, axes: Iterable[int] | None = None,
                     slopes: Sequence[np.ndarray] | None = None) -> np.ndarray:
    """Dense (npoints, ncomp) exterior or interior derivative rows: the sum over
    ``axes`` (default all) of the partial rows along axis i times ``T[i]``.

    ``slopes[i]`` may supply partial rows already evaluated at the points.  A
    derivative that leaves the grade range has no components: (npoints, 0).
    """
    sig = f.signature
    if _derivative_grade(f, kind) is None:
        return np.zeros((len(points), 0))
    table = _derivative_table(sig, f.grade, kind)
    total = np.zeros((len(points), table.shape[2]))
    for i in (sig.axes() if axes is None else axes):
        total = total + (f.partial_components(i, points) if slopes is None else slopes[i]) @ table[i]
    return total


def exterior_derivative_components(f, points: np.ndarray) -> np.ndarray:
    """Grade-raising derivative sum_i Delta_ii e_i wedge (d_i f) as dense
    (npoints, ncomp) rows in ``index_lists(grade + 1)`` order; (npoints, 0)
    for a top-grade field."""
    return _derivative_rows(f, EXTERIOR, np.asarray(points, dtype=float))


def interior_derivative_components(f, points: np.ndarray,
                                   axes: Iterable[int] | None = None) -> np.ndarray:
    """Grade-lowering derivative sum_i Delta_ii e_i interior (d_i f) as dense
    (npoints, ncomp) rows in ``index_lists(grade - 1)`` order; ``axes``
    restricts the sum (time or space parts); (npoints, 0) for a scalar field."""
    return _derivative_rows(f, INTERIOR, np.asarray(points, dtype=float), axes)


def _derivative_at(f, kind: str, x: Sequence[float], axes: Iterable[int] | None = None,
                   slopes: Sequence[np.ndarray] | None = None) -> Multivector:
    """The one-row case of ``_derivative_rows`` as a multivector; the zero
    scalar when the derivative leaves the grade range."""
    sig = f.signature
    grade = _derivative_grade(f, kind)
    if grade is None:
        return Multivector.zero(sig, 0)
    row = _derivative_rows(f, kind, as_point(sig, x)[None, :], axes, slopes)[0]
    return _dense_multivector(sig, grade, list(sig.index_lists(grade)), row)


def exterior_derivative(f, x: Sequence[float]) -> Multivector:
    """Grade-raising derivative at x: the one-row case of
    ``exterior_derivative_components``."""
    return _derivative_at(f, EXTERIOR, x)


def interior_derivative(f, x: Sequence[float], axes: Iterable[int] | None = None) -> Multivector:
    """Grade-lowering derivative at x; ``axes`` restricts the operator (time or
    space parts).  The one-row case of ``interior_derivative_components``."""
    return _derivative_at(f, INTERIOR, x, axes)


def dalembertian(f: AnalyticField, x: Sequence[float]) -> Multivector:
    """The scalar wave operator sum_i Delta_ii d_i d_i applied to the field."""
    sig = f.signature
    total = Multivector.zero(sig, f.grade)
    for i in sig.axes():
        total = total + sig.metric(i) * f.partial_field(i).partial_at(i, x)
    return total


def exterior_derivative_field(f: AnalyticField) -> AnalyticField:
    """The exterior derivative as a new analytic field (exact mode algebra)."""
    sig = f.signature
    if f.grade >= sig.dim:
        return AnalyticField(sig, 0)
    modes: list[Mode] = []
    for i in sig.axes():
        basis = Multivector.blade(sig, (i,), sig.metric(i))
        for mode in f.partial_field(i).modes:
            amp = wedge(basis, mode.amplitude)
            if amp:
                modes.append(mode._with(amplitude=amp))
    return AnalyticField(sig, f.grade + 1, modes)


def interior_derivative_field(f: AnalyticField) -> AnalyticField:
    """The interior derivative as a new analytic field (exact mode algebra)."""
    sig = f.signature
    if f.grade == 0:
        return AnalyticField(sig, 0)
    modes: list[Mode] = []
    for i in sig.axes():
        basis = Multivector.blade(sig, (i,), sig.metric(i))
        for mode in f.partial_field(i).modes:
            amp = left_interior(basis, mode.amplitude)
            if amp:
                modes.append(mode._with(amplitude=amp))
    return AnalyticField(sig, f.grade - 1, modes)
