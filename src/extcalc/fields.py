"""Multivector fields over (k, n) space-time and the differential operator.

Two backends satisfy the same small protocol: ``signature``, ``grade``, the
batched ``evaluate_components(points)`` and ``partial_components(axis,
points)`` giving dense ``(npoints, ncomp)`` rows in ``index_lists(grade)``
order, and their per-point one-row cases ``evaluate`` and ``partial_at``, as
multivectors:

* ``AnalyticField`` is a finite sum of modes, each the product of a constant
  multivector amplitude, a monomial, a cosine or complex-exponential waveform
  in the metric pairing xi . x, and an optional Gaussian envelope.  The family
  is closed under partial differentiation, so derivatives are exact.  The
  modes are held as one table of stacked arrays, and derived fields are
  built by array operations on it.
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
from functools import lru_cache, partial
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .algebra import PRUNE_REL, Multivector, SpacetimeSignature, left_interior, unit_table, wedge

__all__ = [
    "FieldDomainError",
    "GaussianEnvelope",
    "Mode",
    "AnalyticField",
    "GridField",
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
        if not (math.isfinite(self.width) and self.width > 0):
            raise ValueError(f"envelope width must be finite and positive, got {self.width}")
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
        poly = _pad(self.poly, dim)
        if not all(p.is_integer() and p >= 0 for p in poly):
            raise ValueError(f"monomial exponents must be nonnegative integers, got {poly}")
        object.__setattr__(self, "poly", tuple(int(p) for p in poly))
        center = self.poly_center
        if not center and self.envelope is not None:
            center = self.envelope.center
        object.__setattr__(self, "poly_center", _pad(center, dim))
        if self.waveform not in (WAVE_COS, WAVE_EXP):
            raise ValueError(f"unknown waveform {self.waveform!r}")


def _pad(values: Iterable[float], dim: int) -> tuple[float, ...]:
    out = tuple(float(v) for v in values)
    if not out:
        return (0.0,) * dim
    if len(out) != dim:
        raise ValueError(f"expected {dim} entries, got {len(out)}")
    return out


# ---------------------------------------------------------------------------
# the mode table
#
# An analytic field stores its modes as one table of stacked arrays, and
# derives partial, exterior and interior derivative fields by array operations
# on it.  The amplitudes are one float or complex array, and every operation
# takes the per-mode ``Multivector`` algebra's steps in its order: the same
# products and sums, the same merge order and a relative prune after each
# addition.  So a derived table lists the same modes, in the same order, with
# coefficients equal in value to that algebra's; Python's scalar types and
# the signs of zeros are not kept.
# ---------------------------------------------------------------------------

# columns of ``_ModeTable.data``: three scalars, then blocks of dim columns
# (indexed by ``_XI`` to ``_ENV``), then Python's envelope ``width ** 2``
_PHASE, _EXP, _WIDTH = 0, 1, 2
_XI, _POLY, _CENTRE, _ENV = range(4)
# per derivative candidate (monomial, waveform, envelope, envelope shift): the
# change of the monomial exponent
_CANDIDATE_STEP = np.array([-1.0, 0.0, 1.0, 0.0])


@lru_cache(maxsize=None)
def _metric(sig: SpacetimeSignature) -> np.ndarray:
    """The diagonal metric as a read-only float array."""
    metric = np.array([sig.metric(i) for i in sig.axes()], dtype=float)
    metric.flags.writeable = False
    return metric


class _ModeTable(NamedTuple):
    """M modes of one field as stacked arrays.

    ``amp`` (M, ncomp) holds the amplitude rows in ``index_lists`` order,
    float unless an amplitude has a complex coefficient.  ``data`` (M, 4 dim
    + 4) holds the rest of each mode: phase, exp flag (1.0 for an
    exponential), envelope width (0.0 without an envelope), then the blocks
    xi, monomial exponents, monomial centre and envelope centre, and last the
    envelope's width ** 2 as Python computes it.
    """

    amp: np.ndarray
    data: np.ndarray

    def take(self, index) -> "_ModeTable":
        return _ModeTable(self.amp[index], self.data[index])

    @staticmethod
    def concat(tables: Sequence["_ModeTable"]) -> "_ModeTable":
        return _ModeTable(*(np.concatenate(parts) for parts in zip(*tables)))

    def column(self, block: int, axis: int) -> int:
        """Index in ``data`` of one axis of a block."""
        return 3 + block * (self.data.shape[1] - 4) // 4 + axis

    def block(self, block: int) -> np.ndarray:
        start = self.column(block, 0)
        return self.data[:, start:start + (self.data.shape[1] - 4) // 4]


def _table_of_modes(sig: SpacetimeSignature, grade: int,
                    modes: Iterable[Mode]) -> tuple[_ModeTable, list[Mode]]:
    """The table of the modes with a nonzero amplitude, in the order given,
    and those modes."""
    kept, amps, data = [], [], []
    for mode in modes:
        amplitude = mode.amplitude
        if amplitude.signature != sig:
            raise ValueError("mode amplitude signature does not match the field")
        if amplitude.grade != grade:
            raise ValueError(f"mode amplitude grade {amplitude.grade} != field grade {grade}")
        if not amplitude:
            continue
        env = mode.envelope
        kept.append(mode)
        amps.append(amplitude.row())
        data.append((mode.phase, mode.waveform == WAVE_EXP, 0.0 if env is None else env.width,
                     *mode.xi, *mode.poly, *mode.poly_center,
                     *((0.0,) * sig.dim if env is None else env.center),
                     0.0 if env is None else env.width ** 2))
    dtype = complex if any(map(np.iscomplexobj, amps)) else float
    return _ModeTable(np.array(amps, dtype=dtype).reshape(len(amps), math.comb(sig.dim, grade)),
                      np.array(data, dtype=float).reshape(len(amps), 4 * sig.dim + 4)), kept


def _pruned(amp: np.ndarray) -> np.ndarray:
    """``algebra._prune`` applied in place to every row of fresh arrays: zero
    entries and entries below PRUNE_REL of the row's largest magnitude become
    absent, and no relative cut is made in a row holding a NaN or infinite
    entry (fail closed)."""
    mags = np.abs(amp)
    # a row whose magnitudes do not sum to a finite value gets no cut
    cut = np.where(np.add.reduce(mags, axis=1) < np.inf,
                   PRUNE_REL * np.maximum.reduce(mags, axis=1, initial=0.0), 0.0)
    drop = mags < cut[:, None]
    drop |= amp == 0
    np.copyto(amp, 0, where=drop)
    return amp


def _merged(table: _ModeTable, part: np.ndarray | None = None) -> tuple[_ModeTable, np.ndarray]:
    """Modes sharing every field but the amplitude merged into their first
    occurrence by sequential addition, as ``AnalyticField`` merges ``Mode``
    objects; modes whose amplitude is or becomes zero are dropped.

    Rows of different ``part`` never merge; the parts of the rows kept are
    returned with the table.  Keys compare as Python floats, so 0.0 and -0.0
    merge and NaN never does.
    """
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
    # groups are numbered by first occurrence; rank counts a member's predecessors
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
        amp[g] = _pruned(amp[g] + table.amp[members])
    nonzero = np.logical_or.reduce(amp != 0, axis=1)
    return _ModeTable(amp, table.data[lead]).take(nonzero), part[lead][nonzero]


def _cosine_field(sig: SpacetimeSignature, grade: int, amp: np.ndarray, xi: np.ndarray,
                  phase: np.ndarray) -> "AnalyticField":
    """The field sum_m amp[m] cos(theta_m), theta_m = 2 pi xi_m . x + phase[m],
    from real (M, ncomp) amplitude rows; zero rows are dropped and equal
    modes merged, as for any field."""
    table = _ModeTable(amp, np.zeros((len(amp), 4 * sig.dim + 4)))
    table.data[:, _PHASE] = phase
    table.block(_XI)[:] = xi
    return AnalyticField._from_table(sig, grade, table)


def _table_mode(sig: SpacetimeSignature, grade: int, amp: np.ndarray, data: list) -> Mode:
    """One table row as a ``Mode``."""
    dim = sig.dim
    phase, exp, width, rest = data[0], data[1], data[2], data[3:-1]
    mode = object.__new__(Mode)
    mode.__dict__.update(
        amplitude=Multivector.from_row(sig, grade, amp), xi=tuple(rest[:dim]), phase=phase,
        waveform=WAVE_EXP if exp else WAVE_COS, poly=tuple(int(p) for p in rest[dim:2 * dim]),
        poly_center=tuple(rest[2 * dim:3 * dim]),
        envelope=GaussianEnvelope(tuple(rest[3 * dim:]), width) if width > 0 else None)
    return mode


class AnalyticField:
    """Fixed-grade multivector field given by a finite list of analytic modes.

    The modes are held as one ``_ModeTable``; ``modes`` is a tuple of ``Mode``
    objects: the given ones when none merged, else built from the table on
    first access.
    """

    __slots__ = ("signature", "grade", "_table", "_modes", "_partials", "_arrays")

    def __init__(self, signature: SpacetimeSignature, grade: int, modes: Iterable[Mode] = ()):
        table, kept = _table_of_modes(signature, grade, modes)
        # merge modes sharing every scalar factor; keeps derived fields compact
        self._set(signature, grade, _merged(table)[0])
        if len(self._table.data) == len(kept):
            # nothing merged: the given modes are the view
            self._modes = tuple(kept)

    def _set(self, signature: SpacetimeSignature, grade: int, table: _ModeTable) -> None:
        """Hold an already merged table."""
        self.signature = signature
        self.grade = grade
        self._table = table
        self._modes: tuple[Mode, ...] | None = None
        self._partials: dict[int, AnalyticField] = {}
        self._arrays: tuple | None = None

    @classmethod
    def _from_table(cls, signature: SpacetimeSignature, grade: int, table: _ModeTable,
                    merged: bool = False) -> "AnalyticField":
        field = object.__new__(cls)
        field._set(signature, grade, table if merged else _merged(table)[0])
        return field

    @property
    def modes(self) -> tuple[Mode, ...]:
        """The modes as ``Mode`` objects, in table order."""
        if self._modes is None:
            t = self._table
            self._modes = tuple(_table_mode(self.signature, self.grade, *row)
                                for row in zip(t.amp, t.data.tolist()))
        return self._modes

    @property
    def mode_count(self) -> int:
        return len(self._table.data)

    def evaluate(self, x: Sequence[float]) -> Multivector:
        row = self.evaluate_components(as_point(self.signature, x)[None, :])[0]
        return Multivector.from_row(self.signature, self.grade, row)

    def partial_field(self, axis: int) -> "AnalyticField":
        """The exact partial derivative along one axis.

        Each mode gives up to four modes, in this order: its monomial factor
        differentiated (amplitude times the exponent, exponent lowered), its
        waveform (amplitude times the phase slope s, with the phase advanced
        by pi/2 for a cosine and the factor j s for an exponential), and its
        envelope's -(x_a - e_a) / w^2 split over the monomial centre c_a
        (amplitude times -1/w^2 with the exponent raised, and amplitude times
        -(c_a - e_a)/w^2).  The partials along every axis are built together,
        from one pass over the table, and cached.
        """
        if not 0 <= axis < self.signature.dim:
            raise IndexError(f"axis {axis} out of range")
        if not self._partials:
            sig, t = self.signature, self._table
            data = t.data
            poly = t.block(_POLY)
            slope = 2.0 * math.pi * _metric(sig) * t.block(_XI)
            exp = data[:, _EXP] != 0
            # candidates c of mode m along axis a, as valid[a, m, c] and
            # factor[a, m, c]: monomial, waveform, envelope, envelope shift
            valid = np.zeros((sig.dim, len(data), 4), dtype=bool)
            factor = np.zeros(valid.shape)
            valid[:, :, 0] = poly.T != 0
            factor[:, :, 0] = poly.T
            valid[:, :, 1] = slope.T != 0.0
            factor[:, :, 1] = slope.T
            has_env = data[:, _WIDTH] > 0
            if np.count_nonzero(has_env):
                w2 = data[:, -1]
                shift = (t.block(_CENTRE) - t.block(_ENV)).T
                valid[:, :, 2] = has_env
                valid[:, :, 3] = has_env & (shift != 0)
                np.divide(-1.0, w2, out=factor[:, :, 2], where=has_env)
                np.divide(-shift, w2, out=factor[:, :, 3], where=valid[:, :, 3])
            if np.count_nonzero(exp):
                # an exponential's waveform factor is j s
                factor = factor.astype(complex)
                factor[:, exp, 1] *= 1j
            # axis by axis, then mode by mode, then in candidate order
            along, mode, candidate = np.nonzero(valid)
            with np.errstate(invalid="ignore"):
                amp = _pruned(t.amp[mode] * factor[along, mode, candidate][:, None])
            changed = data[mode]
            rows = np.arange(len(mode))
            changed[rows, t.column(_POLY, 0) + along] += _CANDIDATE_STEP[candidate]
            np.add(changed[:, _PHASE], 0.5 * math.pi, out=changed[:, _PHASE],
                   where=(candidate == 1) & ~exp[mode])
            table, along = _merged(_ModeTable(amp, changed), along)
            bounds = np.searchsorted(along, np.arange(sig.dim + 1))
            for a in sig.axes():
                self._partials[a] = AnalyticField._from_table(
                    sig, self.grade, table.take(slice(bounds[a], bounds[a + 1])), merged=True)
        return self._partials[axis]

    def partial_at(self, axis: int, x: Sequence[float]) -> Multivector:
        return self.partial_field(axis).evaluate(x)

    def partial_components(self, axis: int, points: np.ndarray) -> np.ndarray:
        """Dense (npoints, ncomp) exact partial along one axis."""
        return self.partial_field(axis).evaluate_components(points)

    def is_complex(self) -> bool:
        return bool(self._table.amp.dtype == complex or self._table.data[:, _EXP].any())

    def _mode_arrays(self) -> tuple:
        """Dtype and per-mode kernel arrays, built once per field.

        Each mode gives (dense amplitude row, 2 pi Delta xi, phase, exp flag,
        (axis, exponent, centre) monomial factors, (centre, 2 w^2) or None).
        """
        if self._arrays is None:
            sig, t = self.signature, self._table
            dtype = complex if self.is_complex() else float
            rows = t.amp.astype(dtype, copy=False)
            slopes = 2.0 * math.pi * _metric(sig) * t.block(_XI)
            env_centres = t.block(_ENV)
            arrays = []
            for m, (phase, exp, width, *rest) in enumerate(t.data.tolist()):
                dim = sig.dim
                monomials = tuple((i, int(p), c) for i, (p, c) in
                                  enumerate(zip(rest[dim:2 * dim], rest[2 * dim:3 * dim])) if p)
                envelope = (env_centres[m].copy(), 2.0 * rest[-1]) if width > 0 else None
                arrays.append((rows[m].copy(), slopes[m].copy(), phase, bool(exp), monomials, envelope))
            self._arrays = (dtype, tuple(arrays))
        return self._arrays

    def evaluate_components(self, points: np.ndarray) -> np.ndarray:
        """Dense (npoints, ncomp) evaluation in ``index_lists`` order.

        The one mode kernel: every mode adds its amplitude row times monomial
        x waveform x envelope, evaluated over all points at once.  Modes are
        looped over, not stacked, so memory stays at one column per point.
        """
        dtype, arrays = self._mode_arrays()
        out = np.zeros((len(points), self._table.amp.shape[1]), dtype=dtype)
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
        factor is its real part.  Every array is over all modes at once.
        """
        sig, t = self.signature, self._table
        data = t.data
        rows = t.amp.astype(complex if self.is_complex() else float)
        has_env = data[:, _WIDTH] > 0

        def factors(axis: int, x: np.ndarray) -> np.ndarray:
            slope = 2.0 * math.pi * sig.metric(axis) * data[:, t.column(_XI, axis)]
            out = np.exp(1j * np.multiply.outer(slope, x))
            powers = data[:, t.column(_POLY, axis)]
            for power in np.unique(powers[powers > 0]).tolist():
                hit = powers == power
                out[hit] *= (x - data[hit, t.column(_CENTRE, axis), None]) ** int(power)
            out[has_env] *= np.exp(-(x - data[has_env, t.column(_ENV, axis), None]) ** 2
                                   / (2.0 * data[has_env, -1, None]))
            return out

        const = np.exp(1j * data[:, _PHASE])
        for axis, value in fixed.items():
            const *= factors(axis, np.array([value], dtype=float))[:, 0]
        return rows, const, {a: factors(a, np.asarray(x, dtype=float)) for a, x in nodes.items()}

    def __add__(self, other: "AnalyticField") -> "AnalyticField":
        if self.signature != other.signature or self.grade != other.grade:
            raise ValueError("cannot add fields with different signature or grade")
        return AnalyticField._from_table(self.signature, self.grade,
                                         _ModeTable.concat([self._table, other._table]))

    def __mul__(self, factor: complex) -> "AnalyticField":
        t = self._table
        return AnalyticField._from_table(self.signature, self.grade,
                                         _ModeTable(_pruned(t.amp * factor), t.data))

    __rmul__ = __mul__

    def __neg__(self) -> "AnalyticField":
        return self * -1

    def map_amplitudes(self, fn, grade: int) -> "AnalyticField":
        """New field with every mode amplitude passed through a linear ``fn``:
        ``fn`` is called once per unit blade e_a (``unit_table``), and an
        amplitude sum_a c_a e_a maps to sum_a c_a fn(e_a).  An image that is
        not a grade-``grade`` multivector of this signature raises
        ``ValueError``."""
        sig = self.signature
        table = unit_table(sig, fn, self.grade, grade)
        t = self._table
        with np.errstate(invalid="ignore"):
            # terms only where fn(e_a) has one, so an infinite c_a stays in its components
            amp = np.where(table != 0, t.amp[:, :, None] * table, 0).sum(axis=1)
        return AnalyticField._from_table(sig, grade, _ModeTable(_pruned(amp), t.data))


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

    __slots__ = ("signature", "grade", "origin", "spacing", "values")

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
        values = np.asarray(values)
        if np.iscomplexobj(values) and np.any(values.imag != 0):
            raise ValueError("grid values must be real; these have a non-zero imaginary part")
        values = np.asarray(values.real, dtype=float)
        ncomp = math.comb(signature.dim, grade)
        if values.ndim != signature.dim + 1 or values.shape[-1] != ncomp:
            raise ValueError(f"values must have shape (*sites, {ncomp})")
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
        """Dense (npoints, ncomp) lattice values in ``index_lists`` order."""
        points = np.asarray(points, dtype=float)
        return self.values[tuple(self._sites(points).T)]

    def evaluate(self, x: Sequence[float]) -> Multivector:
        row = self.evaluate_components(as_point(self.signature, x)[None, :])[0]
        return Multivector.from_row(self.signature, self.grade, row)

    def partial_components(self, axis: int, points: np.ndarray) -> np.ndarray:
        """Dense (npoints, ncomp) central differences along one axis; the
        first point whose neighbours leave the lattice raises."""
        if not 0 <= axis < self.signature.dim:
            raise IndexError(f"axis {axis} out of range")
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
        return Multivector.from_row(self.signature, self.grade, row)


# ---------------------------------------------------------------------------
# derivative operators
# ---------------------------------------------------------------------------

EXTERIOR = "exterior"
INTERIOR = "interior"


@lru_cache(maxsize=None)
def _derivative_table(sig: SpacetimeSignature, grade: int, kind: str) -> np.ndarray:
    """``T[i, a, b]``: component b of Delta_ii e_i wedge (exterior) or
    Delta_ii e_i interior (interior) unit blade a, the ``unit_table`` of the
    public ``wedge``/``left_interior``.

    By linearity the derivative of a field with partial rows P_i is
    sum_i P_i @ T[i].  Shape (dim, ncomp(grade), ncomp(grade +- 1)).
    """
    product, out_grade = (wedge, grade + 1) if kind == EXTERIOR else (left_interior, grade - 1)
    bases = [Multivector.blade(sig, (i,), sig.metric(i)) for i in sig.axes()]
    table = np.stack([unit_table(sig, partial(product, basis), grade, out_grade) for basis in bases])
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
    return Multivector.from_row(sig, grade, row)


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


@lru_cache(maxsize=None)
def _derivative_gather(sig: SpacetimeSignature, grade: int, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """``_derivative_table`` as a signed gather: each column of T[i] holds at
    most one entry, so output blade b along axis i is ``sign[i, b]`` times
    input blade ``source[i, b]`` (sign 0 where nothing lands)."""
    table = _derivative_table(sig, grade, kind)
    source = np.abs(table).argmax(axis=1)
    sign = np.take_along_axis(table, source[:, None, :], axis=1)[:, 0, :]
    source.flags.writeable = sign.flags.writeable = False
    return source, sign


def _derivative_field(f: AnalyticField, kind: str) -> AnalyticField:
    """The exterior or interior derivative as a new analytic field.

    Row by row this is sum_i P_i @ T[i] over the tables P_i of the partial
    fields, with T the ``_derivative_table``: the rows of every P_i are
    stacked and each is gathered through its axis's ``_derivative_gather``.
    """
    sig = f.signature
    grade = _derivative_grade(f, kind)
    if grade is None:
        return AnalyticField(sig, 0)
    parts = [f.partial_field(i)._table for i in sig.axes()]
    stacked = _ModeTable.concat(parts)
    source, sign = _derivative_gather(sig, f.grade, kind)
    axis = np.repeat(np.arange(sig.dim), [len(part.data) for part in parts])
    amp, sign = stacked.amp[np.arange(len(axis))[:, None], source[axis]], sign[axis]
    with np.errstate(invalid="ignore"):
        amp = _pruned(np.where(sign != 0, sign * amp, 0))
    return AnalyticField._from_table(sig, grade, _ModeTable(amp, stacked.data))


def exterior_derivative_field(f: AnalyticField) -> AnalyticField:
    """The exterior derivative as a new analytic field (exact mode algebra)."""
    return _derivative_field(f, EXTERIOR)


def interior_derivative_field(f: AnalyticField) -> AnalyticField:
    """The interior derivative as a new analytic field (exact mode algebra)."""
    return _derivative_field(f, INTERIOR)
