"""Multivector fields over (k, n) space-time and the differential operator.

Two backends satisfy the same small protocol: ``signature``, ``grade``, the
batched ``evaluate_components(points)`` giving dense ``(npoints, ncomp)`` rows
in ``index_lists(grade)`` order, ``jet(points)`` giving those rows and the
``(dim, npoints, ncomp)`` partial rows along every axis from one pass, and
the per-point one-row cases ``evaluate`` and ``partial_at``, as multivectors:

* ``AnalyticField`` is a finite sum of modes, each the product of a constant
  multivector amplitude, a monomial, a cosine or complex-exponential waveform
  in the metric pairing xi . x, and an optional Gaussian envelope.  The family
  is closed under partial differentiation, so derivatives are exact.  The
  modes are held as one table of stacked arrays, and derived fields are
  built by array operations on it.
* ``GridField`` samples a field on a rectangular lattice and differentiates
  with second-order central differences.

The exterior and interior derivatives are linear in the partials and come
in two forms: rows over a point array (``*_components``), the jet's partial
rows times a table of ``wedge``/``left_interior`` on unit blades summed over
axes, a slice of the one cached ``algebra._product_table``; and exact
analytic fields (``*_field``), the merged partial table gathered through it.
A derived row whose key cannot collide with another mode's is not grouped:
for modes with no monomial and no envelope the rows merge by source mode.

The wave phase is theta(x) = 2 pi sum_i Delta_ii xi_i x_i + phi, i.e. the
metric dot product of the frequency covector with the position.  This is the
pairing under which a complex-exponential mode turns the interior derivative
into the algebraic contraction j 2 pi xi applied to the amplitude.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .algebra import PRUNE_REL, Multivector, SpacetimeSignature, _product_table
# re-exported: the benchmark tracer wraps every module binding of wedge, this one included
from .algebra import wedge  # noqa: F401

__all__ = [
    "FieldDomainError",
    "GaussianEnvelope",
    "Mode",
    "AnalyticField",
    "GridField",
    "exterior_derivative_components",
    "interior_derivative_components",
    "exterior_derivative_field",
    "interior_derivative_field",
    "plane_wave",
    "polynomial_field",
    "constant_field",
]

WAVE_COS = "cos"
WAVE_EXP = "exp"

# an envelope below this fraction of its peak is treated as zero
ENVELOPE_CUTOFF = 1e-12
_CUTOFF_WIDTHS = math.sqrt(2.0 * math.log(1.0 / ENVELOPE_CUTOFF))


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
        row = _mode_row(dim, self.phase, self.waveform, self.xi, self.poly, self.poly_center, self.envelope)
        self.__dict__.update(xi=row[3:3 + dim], poly=row[3 + dim:3 + 2 * dim],
                             poly_center=row[3 + 2 * dim:3 + 3 * dim])


def _pad(values: Iterable[float], dim: int) -> tuple[float, ...]:
    out = tuple(map(float, values))
    if not out:
        return (0.0,) * dim
    if len(out) != dim:
        raise ValueError(f"expected {dim} entries, got {len(out)}")
    return out


def _mode_row(dim: int, phase: float, waveform: str, xi, poly, poly_center,
              envelope: GaussianEnvelope | None) -> tuple:
    """One row of ``_ModeTable.data`` from a mode's values: xi, monomial
    exponents and monomial centre padded to ``dim`` entries (none given reads
    as zeros, and the centre defaults to the envelope's), after checking them,
    the envelope centre and the waveform in that order."""
    xi = _pad(xi, dim)
    poly = _pad(poly, dim)
    if not all(p.is_integer() and p >= 0 for p in poly):
        raise ValueError(f"monomial exponents must be nonnegative integers, got {poly}")
    if not poly_center and envelope is not None:
        poly_center = envelope.center
    poly_center = _pad(poly_center, dim)
    width, env = (0.0, (0.0,) * dim) if envelope is None else (envelope.width, envelope.center)
    if len(env) != dim:
        raise ValueError(f"expected {dim} entries, got {len(env)}")
    if waveform not in (WAVE_COS, WAVE_EXP):
        raise ValueError(f"unknown waveform {waveform!r}")
    return (phase, waveform == WAVE_EXP, width, *xi, *map(int, poly), *poly_center, *env, width ** 2)


# ---------------------------------------------------------------------------
# the mode table
#
# An analytic field stores its modes as one table of stacked arrays, and
# derives its partial table and exterior and interior derivative fields by
# array operations on it.  The amplitudes are one float or complex array.
# Every operation ends in one merge rule (``_merged``): one stable sort puts
# rows with equal keys together, each group's rows are summed in row order,
# the sums are pruned once by ``algebra._prune``'s relative rule, and the
# groups keep the order of their first rows.  Rows whose keys cannot collide
# are not grouped by key: they are kept, or merged by the mode they came
# from, with the same result.
# Only this module reads the table's columns; other modules build and read
# it through ``AnalyticField._from_rows``, ``_rows`` and ``_plane_waves``.
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

    def column(self, block: int, axis: int) -> int:
        """Index in ``data`` of one axis of a block."""
        return 3 + block * (self.data.shape[1] - 4) // 4 + axis

    def block(self, block: int) -> np.ndarray:
        start = self.column(block, 0)
        return self.data[:, start:start + (self.data.shape[1] - 4) // 4]


_FLOAT_MAX = float(np.finfo(float).max)


def _pruned(amp: np.ndarray) -> np.ndarray:
    """``algebra._prune`` applied in place to every row of fresh arrays: zero
    entries and entries below PRUNE_REL of the row's largest magnitude become
    absent, and no relative cut is made in a row holding a NaN or infinite
    entry (fail closed); magnitudes and sums beyond the float range are
    infinite, without a warning, as ``algebra._magnitudes`` makes them."""
    rows, ncomp = amp.shape
    with np.errstate(over="ignore"):
        mags = np.abs(amp)
    # a reduceat over the flat rows: numpy reduces along short rows slowly
    peak = np.zeros(rows)
    if amp.size:
        peak = np.maximum.reduceat(mags.reshape(-1), np.arange(0, amp.size, ncomp))
    cut = PRUNE_REL * peak
    # a row whose magnitudes do not sum to a finite value gets no cut; no
    # order of summing magnitudes below FLOAT_MAX / (2 ncomp) overflows, so
    # only the other rows are summed
    doubtful = ~(peak < _FLOAT_MAX / (2 * max(ncomp, 1)))
    if doubtful.any():
        with np.errstate(over="ignore"):
            cut[doubtful] = np.where(np.add.reduce(mags[doubtful], axis=1) < np.inf, cut[doubtful], 0.0)
    drop = mags < cut[:, None]
    drop |= amp == 0
    np.copyto(amp, 0, where=drop)
    return amp


def _sorted_runs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A stable lexicographic order of the rows, first column first, where in
    it each run of equal rows starts, and each row's run.  Rows are equal
    when every column compares equal as floats, so 0.0 and -0.0 match and
    NaN matches nothing; with no column all rows are equal.  (Array methods
    and ufuncs: on small tables numpy's Python wrappers cost more.)"""
    order = np.lexsort(keys.T[::-1]) if keys.shape[1] else np.arange(len(keys))
    ordered = keys[order]
    start = np.empty(len(keys), dtype=bool)
    start[:1] = True
    np.logical_or.reduce(ordered[1:] != ordered[:-1], axis=1, out=start[1:])
    run = np.empty(len(keys), dtype=np.intp)
    run[order] = np.add.accumulate(start, dtype=np.intp) - 1
    return order, start.nonzero()[0], run


def _distinct_rows(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows in lexicographic order and each row's index among
    them, as ``np.unique(keys, axis=0, return_inverse=True)`` gives them
    without NaN, from one lexsort (``_sorted_runs``)."""
    order, first, run = _sorted_runs(keys)
    return keys[order[first]], run


def _nonzero_rows(amp: np.ndarray, *aligned: np.ndarray) -> tuple:
    """The amplitude rows that are not all zero, with the same rows of each
    ``aligned`` array; the arrays themselves when every row is kept."""
    nonzero = np.logical_or.reduce(amp != 0, axis=1)
    if np.count_nonzero(nonzero) == len(nonzero):
        return (amp, *aligned)
    return tuple(column[nonzero] for column in (amp, *aligned))


def _merged(table: _ModeTable, part: np.ndarray | None = None,
            source: np.ndarray | None = None) -> tuple[_ModeTable, np.ndarray]:
    """Modes sharing every field but the amplitude merged into their first
    occurrence: each group's amplitudes summed in row order and pruned once;
    modes whose amplitude is or becomes zero are dropped.

    Rows of different ``part`` never merge; the parts of the rows kept are
    returned with the table.  Keys compare as floats (``_sorted_runs``).  A
    caller that knows which rows share a key from how it built them gives
    each row's ``source`` instead, and ``table.data`` then holds one key row
    per source: rows merge when their sources are equal, and no key is
    compared.  The merged table holds one data row per mode either way.

    One stable ``_sorted_runs`` over the part where it varies and the key
    columns that vary, or over the sources, puts each group's rows together
    as a run in row order.  A run's first row leads its group, its r-th row
    after that is added r-th, the sums are pruned once, and the groups are
    written in the order of their lead rows, first occurrence.
    """
    if part is None:
        part = np.zeros(len(table.amp), dtype=np.intp)
    if source is None:
        amp, part, data = _nonzero_rows(table.amp, part, table.data)
        keys = data[:, :-1]
    else:
        amp, part, source = _nonzero_rows(table.amp, part, source)
        data, keys = table.data, source[:, None]
    count = len(part)
    if count > 1:
        keys = keys[:, np.logical_or.reduce(keys != keys[0], axis=0)]
        if np.count_nonzero(part != part[0]):
            keys = np.column_stack([part, keys])
        order, first, group = _sorted_runs(keys)
    if count < 2 or len(first) == count:
        return _ModeTable(amp, data if source is None else data[source]), part
    # each row's rank: its place in its group's run
    rank = np.empty_like(group)
    rank[order] = np.arange(count) - first[group[order]]
    lead = order[first]
    merged = amp[lead]
    with np.errstate(invalid="ignore"):
        for r in range(1, rank.max() + 1):
            # in row order: numpy may keep either NaN of a sum by its place in the array
            members = (rank == r).nonzero()[0]
            merged[group[members]] += amp[members]
    # the groups in the order of their lead rows, first occurrence
    by_lead = lead.argsort()
    lead = lead[by_lead]
    amp, part, lead = _nonzero_rows(_pruned(merged[by_lead]), part[lead], lead)
    return _ModeTable(amp, data[lead] if source is None else data[source[lead]]), part


def _plain_waves(table: _ModeTable) -> bool:
    """Whether no mode has a monomial or an envelope: every exponent is
    +0.0 (an exponent other than +0.0 has a bit set), as the exponent step
    of ``_partial_table`` keeps it, and every width 0.0."""
    return not (table.block(_POLY).view(np.int64).any() or table.data[:, _WIDTH].any())


def _waves_only(table: _ModeTable, exp: np.ndarray) -> bool:
    """Whether the partials of a table cannot share keys across modes: its
    modes are ``_plain_waves``, no key holds a NaN (which matches nothing, so
    its rows never merge), and no two distinct cosine phases round to one
    phase after the pi/2 step.  Rounding is monotone, so only neighbours
    among the sorted phases can meet, as 0.0 and 1e-17 do."""
    data = table.data
    if not _plain_waves(table) or np.isnan(data[:, :-1]).any():
        return False
    phase = np.sort(data[~exp, _PHASE])
    stepped = phase + 0.5 * math.pi
    return not np.count_nonzero((stepped[1:] == stepped[:-1]) & (phase[1:] != phase[:-1]))


def _cosine_field(sig: SpacetimeSignature, grade: int, amp: np.ndarray, xi: np.ndarray,
                  phase: np.ndarray, distinct: bool = False) -> "AnalyticField":
    """The field sum_m amp[m] cos(theta_m), theta_m = 2 pi xi_m . x + phase[m],
    from real (M, ncomp) amplitude rows; zero rows are dropped and equal
    modes merged, as for any field, unless the caller knows the (xi, phase)
    rows ``distinct``: rows whose keys cannot collide are not grouped."""
    table = _ModeTable(amp, np.zeros((len(amp), 4 * sig.dim + 4)))
    table.data[:, _PHASE] = phase
    table.block(_XI)[:] = xi
    table = _ModeTable(*_nonzero_rows(*table)) if distinct else _merged(table)[0]
    return AnalyticField._from_table(sig, grade, table)


# planes x modes x points entries per work array of the mode kernel: small
# enough that its matrix products stay under the sizes at which OpenBLAS
# splits a call over threads, since a split call can wait milliseconds for a
# busy core
_KERNEL_ENTRIES = 4000


class _Kernel(NamedTuple):
    """A field's mode kernel as stacked arrays: the dtype, the (M, ncomp)
    amplitude rows, the (M, dim) phase slopes 2 pi Delta xi, the (M, 1) phases,
    the ``_selection`` of the exponential modes (None for none), one (axis,
    exponent, modes, (k, 1) centres) entry per axis and distinct nonzero
    monomial exponent, and the envelopes' (modes, (dim, E, 1) centres, (E, 1)
    2 w^2) (None for none)."""

    dtype: type
    rows: np.ndarray
    slopes: np.ndarray
    phase: np.ndarray
    exp: np.ndarray | slice | None
    monomials: tuple
    envelope: tuple | None


def _selection(flags: np.ndarray):
    """The modes whose flag is nonzero: None for none, a full slice for all
    (no gather needed), else their indices."""
    count = np.count_nonzero(flags)
    if not count:
        return None
    return slice(None) if count == len(flags) else np.flatnonzero(flags)


def _kernel_jet(kernel: _Kernel, x: np.ndarray, order: int) -> np.ndarray:
    """(1 + order dim, len(x), ncomp) rows at one chunk of points: plane 0 the
    value, plane 1 + a the partial along axis a.  Each plane is (nmodes,
    npoints) factors, one row per mode.  A factor f enters by the product rule:
    every plane times f, then plane 1 + a gains d_a f times the old value plane,
    with d_a f = p (x_a - c)^(p - 1) for a monomial (nothing divides by x_a - c)
    and -f (x_a - e_a) / w^2 for an envelope."""
    coords = x.T
    theta = kernel.slopes @ coords + kernel.phase
    planes = np.cos(theta)[None]
    if order:
        planes = np.concatenate([planes, -np.sin(theta) * kernel.slopes.T[:, :, None]])
    planes = planes.astype(kernel.dtype, copy=False)
    if kernel.exp is not None:
        wave = np.exp(1j * theta[kernel.exp])
        planes[0, kernel.exp] = wave
        if order:
            planes[1:, kernel.exp] = 1j * wave * kernel.slopes[kernel.exp].T[:, :, None]
    for axis, power, hit, centre in kernel.monomials:
        base = coords[axis] - centre
        carrying = planes[:, hit]
        if order:
            lowered = carrying[0] * (power * base ** (power - 1))
        carrying *= base ** power
        if order:
            carrying[1 + axis] += lowered
        planes[:, hit] = carrying
    if kernel.envelope is not None:
        hit, centre, two_w2 = kernel.envelope
        offset = coords[:, None, :] - centre
        dist2 = 0.0
        for along in offset:
            dist2 = dist2 + along ** 2
        carrying = planes[:, hit]
        carrying *= np.exp(-dist2 / two_w2)
        if order:
            carrying[1:] -= carrying[0] * (2.0 * offset / two_w2)
        planes[:, hit] = carrying
    return planes.transpose(0, 2, 1) @ kernel.rows


def _cis(angle: np.ndarray) -> np.ndarray:
    """exp(j angle) bit for bit, written as cos and sin into a complex array:
    ``np.exp(1j * angle)`` gives a +0.0 imaginary part at -0.0, as the sum
    with 0.0 makes it, and NaN parts at an infinite or NaN angle."""
    out = np.empty(np.shape(angle), dtype=complex)
    np.cos(angle, out=out.real)
    np.sin(angle, out=out.imag)
    out.imag += 0.0
    return out


def _factor_rows(sig: SpacetimeSignature, axis: int, keys: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(len(keys), len(x)) factors exp(j s x) (x - c)^p exp(-(x - e)^2 / 2 w^2)
    along one axis, one row per ``AnalyticField._axis_keys`` row."""
    xi, power, centre, width, env, w2 = keys.T
    out = _cis(np.multiply.outer(2.0 * math.pi * sig.metric(axis) * xi, x))
    for p in np.unique(power[power > 0]).tolist():
        hit = power == p
        out[hit] *= (x - centre[hit, None]) ** int(p)
    has_env = width > 0
    out[has_env] *= np.exp(-(x - env[has_env, None]) ** 2 / (2.0 * w2[has_env, None]))
    return out


class AnalyticField:
    """Fixed-grade multivector field given by a finite list of analytic modes.

    The modes are held as one ``_ModeTable``, of the given modes with a
    nonzero amplitude in the order given; ``modes`` is a tuple of ``Mode``
    objects built from the table on first access.
    """

    __slots__ = ("signature", "grade", "_table", "_modes", "_arrays")

    def __init__(self, signature: SpacetimeSignature, grade: int, modes: Iterable[Mode] = ()):
        def rows():
            for mode in modes:
                amplitude = mode.amplitude
                if amplitude.signature != signature:
                    raise ValueError("mode amplitude signature does not match the field")
                yield amplitude.grade, amplitude.row(), dict(
                    phase=mode.phase, waveform=mode.waveform, xi=mode.xi, poly=mode.poly,
                    poly_center=mode.poly_center, envelope=mode.envelope)

        self._set(signature, grade, AnalyticField._from_rows(signature, grade, rows())._table)

    def _set(self, signature: SpacetimeSignature, grade: int, table: _ModeTable) -> None:
        """Hold an already merged table."""
        self.signature = signature
        self.grade = grade
        self._table = table
        self._modes: tuple[Mode, ...] | None = None
        self._arrays: _Kernel | None = None

    @classmethod
    def _from_table(cls, signature: SpacetimeSignature, grade: int, table: _ModeTable) -> "AnalyticField":
        """The field of an already merged table."""
        field = object.__new__(cls)
        field._set(signature, grade, table)
        return field

    @classmethod
    def _from_rows(cls, signature: SpacetimeSignature, grade: int, modes: Iterable[tuple]) -> "AnalyticField":
        """The field of (amplitude grade, dense amplitude row, ``Mode`` keyword
        values) triples, each mode checked as a ``Mode`` as it comes, then
        every grade; the rows pruned, float unless a kept coefficient has a
        nonzero imaginary part (then complex), and the modes merged.  The one
        builder of a table from mode rows: ``__init__`` and the JSON reader
        both hand their modes to it."""
        grades, amps, data = [], [], []
        for found, row, values in modes:
            data.append(_mode_row(signature.dim, **values))
            grades.append(found)
            amps.append(row)
        for found in grades:
            if found != grade:
                raise ValueError(f"mode amplitude grade {found} != field grade {grade}")
        amp = np.array(amps).reshape(len(amps), math.comb(signature.dim, grade))
        amp = _pruned(amp.astype(complex if np.iscomplexobj(amp) else float, copy=False))
        if amp.dtype == complex and not np.any(amp.imag):
            amp = amp.real.copy()
        data = np.array(data, dtype=float).reshape(len(data), 4 * signature.dim + 4)
        # merge modes sharing every scalar factor; keeps derived fields compact
        return cls._from_table(signature, grade, _merged(_ModeTable(amp, data))[0])

    def _rows(self):
        """Each mode decoded: its amplitude row, pruned as ``Multivector``
        prunes it, xi, phase, waveform, monomial exponents and centre, and
        the envelope's (centre, width) or None, as Python values."""
        dim, t = self.signature.dim, self._table
        for amp, row in zip(_pruned(t.amp.copy()).tolist(), t.data.tolist()):
            yield (amp, row[3:3 + dim], row[_PHASE], WAVE_EXP if row[_EXP] else WAVE_COS,
                   row[3 + dim:3 + 2 * dim], row[3 + 2 * dim:3 + 3 * dim],
                   (row[3 + 3 * dim:-1], row[_WIDTH]) if row[_WIDTH] > 0 else None)

    def _plane_waves(self) -> list[tuple[list, np.ndarray]] | None:
        """Each mode's xi and amplitude row if the modes are ``_plain_waves``."""
        t = self._table
        return list(zip(t.block(_XI).tolist(), t.amp)) if _plain_waves(t) else None

    @property
    def modes(self) -> tuple[Mode, ...]:
        """The modes as ``Mode`` objects, in table order."""
        if self._modes is None:
            sig, grade = self.signature, self.grade
            self._modes = tuple(
                Mode(Multivector.from_row(sig, grade, amp), tuple(xi), phase, waveform, tuple(poly),
                     tuple(centre), None if envelope is None else GaussianEnvelope(tuple(envelope[0]), envelope[1]))
                for amp, xi, phase, waveform, poly, centre, envelope in self._rows())
        return self._modes

    @property
    def mode_count(self) -> int:
        return len(self._table.data)

    def evaluate(self, x: Sequence[float]) -> Multivector:
        row = self.evaluate_components(as_point(self.signature, x)[None, :])[0]
        return Multivector.from_row(self.signature, self.grade, row)

    def _partial_table(self) -> tuple[_ModeTable, np.ndarray, np.ndarray | None]:
        """The partials along every axis as one merged table, axis by axis,
        each row's axis, and each row's source mode where the no-collision
        rule below holds (else None), built from one pass over the table.  Each
        mode gives up to four modes, in this order: its monomial factor
        differentiated (amplitude times the exponent, exponent lowered), its
        waveform (amplitude times the phase slope s, with the phase advanced
        by pi/2 for a cosine and the factor j s for an exponential), and its
        envelope's -(x_a - e_a) / w^2 split over the monomial centre c_a
        (amplitude times -1/w^2 with the exponent raised, and amplitude times
        -(c_a - e_a)/w^2).

        A row whose key cannot collide is not grouped.  With no monomial and
        no envelope a mode's one candidate is its waveform, whose row keeps
        the mode's key but for the cosine's pi/2 step.  Where that step keeps
        distinct keys distinct (``_waves_only``), the rows along one axis are
        as distinct as the modes, so only zero rows are dropped, and the rows
        of one mode along different axes share its key and no other row's:
        the table then holds one data row per mode, ``data[mode]`` keying the
        rows, as ``_merged`` takes them by source."""
        sig, t = self.signature, self._table
        data = t.data
        slope = (2.0 * math.pi * _metric(sig) * t.block(_XI)).T
        exp = data[:, _EXP] != 0
        waves = _waves_only(t, exp)
        # candidates c of mode m along axis a, as valid[a, m, c] and
        # factor[a, m, c]: monomial, waveform, envelope, envelope shift, of
        # the kinds the table has (the waveform alone where ``waves``)
        valid, factor = [slope != 0.0], [slope]
        if np.count_nonzero(exp):
            # an exponential's waveform factor is j s
            factor[0] = slope.astype(complex)
            factor[0][:, exp] *= 1j
        if not waves:
            poly = t.block(_POLY).T
            valid.insert(0, poly != 0)
            factor.insert(0, poly)
            has_env = data[:, _WIDTH] > 0
            if np.count_nonzero(has_env):
                w2 = data[:, -1]
                shift = (t.block(_CENTRE) - t.block(_ENV)).T
                valid += [np.broadcast_to(has_env, shift.shape), has_env & (shift != 0)]
                factor += [np.divide(-1.0, w2, out=np.zeros(shift.shape), where=valid[2]),
                           np.divide(-shift, w2, out=np.zeros(shift.shape), where=valid[3])]
        # axis by axis, then mode by mode, then in candidate order
        along, mode, candidate = np.nonzero(np.stack(valid, axis=2))
        with np.errstate(invalid="ignore"):
            amp = _pruned(t.amp[mode] * np.stack(factor, axis=2)[along, mode, candidate][:, None])
        if waves:
            stepped = data.copy()
            np.add(stepped[:, _PHASE], 0.5 * math.pi, out=stepped[:, _PHASE], where=~exp)
            amp, along, mode = _nonzero_rows(amp, along, mode)
            return _ModeTable(amp, stepped), along, mode
        changed = data[mode]
        rows = np.arange(len(mode))
        changed[rows, t.column(_POLY, 0) + along] += _CANDIDATE_STEP[candidate]
        np.add(changed[:, _PHASE], 0.5 * math.pi, out=changed[:, _PHASE],
               where=(candidate == 1) & ~exp[mode])
        return (*_merged(_ModeTable(amp, changed), along), None)

    def partial_at(self, axis: int, x: Sequence[float]) -> Multivector:
        if not 0 <= axis < self.signature.dim:
            raise IndexError(f"axis {axis} out of range")
        row = self.jet(as_point(self.signature, x)[None, :])[1][axis, 0]
        return Multivector.from_row(self.signature, self.grade, row)

    def is_complex(self) -> bool:
        return bool(self._table.amp.dtype == complex or self._table.data[:, _EXP].any())

    def _mode_arrays(self) -> _Kernel:
        """The mode kernel's stacked arrays, built once per field."""
        if self._arrays is None:
            sig, t = self.signature, self._table
            data = t.data
            dtype = complex if self.is_complex() else float
            poly, centre = t.block(_POLY), t.block(_CENTRE)
            monomials = []
            if np.count_nonzero(poly):
                for axis, column in enumerate(poly.T):
                    for power in sorted(set(column.tolist()) - {0.0}):
                        hit = _selection(column == power)
                        monomials.append((axis, int(power), hit, centre[hit, axis, None]))
            env = _selection(data[:, _WIDTH])
            self._arrays = _Kernel(
                dtype, t.amp.astype(dtype), 2.0 * math.pi * _metric(sig) * t.block(_XI),
                data[:, _PHASE, None].copy(), _selection(data[:, _EXP]), tuple(monomials),
                None if env is None else (env, t.block(_ENV)[env].T[:, :, None], 2.0 * data[env, -1, None]))
        return self._arrays

    def evaluate_components(self, points: np.ndarray) -> np.ndarray:
        """Dense (npoints, ncomp) evaluation in ``index_lists`` order: the value
        plane of the mode kernel, theta = slopes @ points + phase giving cos
        theta (exp(j theta) in exponential modes) times the monomial and
        envelope factors, then factor^T @ amplitude rows."""
        return self._jet(points, 0)[0]

    def jet(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The (npoints, ncomp) rows and the (dim, npoints, ncomp) exact partial
        rows, from one pass of the mode kernel (forward-mode first-order jet):
        theta is shared, and the waveform's derivative is -sin theta, or j
        exp(j theta), times the phase slope."""
        planes = self._jet(points, 1)
        return planes[0], planes[1:]

    def _jet(self, points: np.ndarray, order: int) -> np.ndarray:
        """``_kernel_jet`` in chunks of near ``_KERNEL_ENTRIES`` entries, at
        the points as a float array."""
        points = np.asarray(points, dtype=float)
        kernel = self._mode_arrays()
        nplanes = 1 + order * self.signature.dim
        step = max(1, _KERNEL_ENTRIES // max(1, nplanes * len(kernel.rows)))
        chunks = [_kernel_jet(kernel, points[lo:lo + step], order)
                  for lo in range(0, max(1, len(points)), step)]
        return chunks[0] if len(chunks) == 1 else np.concatenate(chunks, axis=1)

    def _axis_keys(self, axis: int) -> np.ndarray:
        """(nmodes, 6) columns that fix each mode's factor along one axis: xi,
        monomial exponent and centre (0 without a monomial on the axis),
        envelope width (0 without one), envelope centre and w^2."""
        t = self._table
        data = t.data
        power = data[:, t.column(_POLY, axis)]
        centre = np.where(power > 0, data[:, t.column(_CENTRE, axis)], 0.0)
        return np.stack([data[:, t.column(_XI, axis)], power, centre, data[:, _WIDTH],
                         data[:, t.column(_ENV, axis)], data[:, -1]], axis=1)

    def axis_factors(self, fixed: Mapping[int, float], nodes: Mapping[int, np.ndarray]):
        """The mode kernel split over axes, for a tensor-product point set.

        Returns the (nmodes, ncomp) amplitude rows, a per-mode complex
        constant c, and for each axis a in ``nodes`` a pair (E_a, inverse):
        the factor rows E_a[u] = exp(j s x) (x - c)^p exp(-(x - e)^2 / 2 w^2)
        of the axis's distinct ``_axis_keys`` (slope s, monomial, envelope)
        over x = nodes[a], and each mode's row index into E_a.  c folds
        exp(j phi_m) with the same factors at the ``fixed`` coordinates, so
        c_m prod_a E_a[inverse_a[m], i_a] is mode m's exp(j theta) x monomial
        x envelope at the point with coordinates nodes[a][i_a]; for a cosine
        mode the factor is its real part.  Modes sharing an axis key share
        its factor row, which is built once.
        """
        sig, t = self.signature, self._table
        rows = t.amp.astype(complex if self.is_complex() else float)
        const = _cis(t.data[:, _PHASE])
        for axis, value in fixed.items():
            const *= _factor_rows(sig, axis, self._axis_keys(axis), np.array([value], dtype=float))[:, 0]
        factors = {}
        for axis, x in nodes.items():
            keys, inverse = _distinct_rows(self._axis_keys(axis))
            factors[axis] = (_factor_rows(sig, axis, keys, np.asarray(x, dtype=float)), inverse)
        return rows, const, factors

    def _envelope_bounds(self, axis: int) -> dict[int, tuple[float, float]]:
        """Per axis other than ``axis``, the span of every mode's envelope out
        to where it drops below ENVELOPE_CUTOFF, read from the mode table."""
        t = self._table
        width = t.data[:, _WIDTH]
        if not len(width):
            raise ValueError("flux_T_direct of an empty field needs explicit bounds")
        if not np.all(width > 0):
            raise ValueError(
                "flux_T_direct needs a decaying field: every mode must carry a Gaussian "
                "envelope, or explicit bounds must be supplied")
        radius = width * _CUTOFF_WIDTHS
        centres = t.block(_ENV)
        return {a: (float((centres[:, a] - radius).min()), float((centres[:, a] + radius).max()))
                for a in self.signature.axes() if a != axis}

    def __add__(self, other: "AnalyticField") -> "AnalyticField":
        if self.signature != other.signature or self.grade != other.grade:
            raise ValueError("cannot add fields with different signature or grade")
        return AnalyticField._from_table(self.signature, self.grade, _merged(_ModeTable(
            *(np.concatenate(pair) for pair in zip(self._table, other._table))))[0])

    def _with_amplitudes(self, grade: int, amp: np.ndarray) -> "AnalyticField":
        """This field's modes with new amplitude rows: no two keys were equal,
        so none become equal, and only the rows now zero are dropped."""
        table = _ModeTable(*_nonzero_rows(_pruned(amp), self._table.data))
        return AnalyticField._from_table(self.signature, grade, table)

    def __mul__(self, factor: complex) -> "AnalyticField":
        return self._with_amplitudes(self.grade, self._table.amp * factor)

    __rmul__ = __mul__

    def __neg__(self) -> "AnalyticField":
        return self * -1

    def _mapped(self, table: np.ndarray, grade: int) -> "AnalyticField":
        """New field with every mode amplitude passed through a linear map:
        ``table[a, b]`` is component b of the image of unit blade a (a slice
        of ``_product_table``, or a selection of components), so an amplitude
        sum_a c_a e_a maps to sum_a c_a table[a]."""
        with np.errstate(invalid="ignore"):
            # terms only where the image of e_a has one, so an infinite c_a stays in its components
            amp = np.where(table != 0, self._table.amp[:, :, None] * table, 0).sum(axis=1)
        return self._with_amplitudes(grade, amp)


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
        if not np.all(np.isfinite(self.origin)):
            raise ValueError("grid origin must be finite")
        if not np.all((self.spacing > 0) & np.isfinite(self.spacing)):
            raise ValueError("grid spacings must be finite and positive")
        values = np.asarray(values)
        if np.iscomplexobj(values) and np.any(values.imag != 0):
            raise ValueError("grid values must be real; these have a non-zero imaginary part")
        values = np.asarray(values.real, dtype=float)
        ncomp = math.comb(signature.dim, grade)
        if values.ndim != signature.dim + 1 or values.shape[-1] != ncomp:
            raise ValueError(f"values must have shape (*sites, {ncomp})")
        if not np.all(np.isfinite(values)):
            raise ValueError("grid values must be finite")
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
        """Dense (npoints, ncomp) lattice values in ``index_lists`` order: the
        ``_jet`` along no axis."""
        return self._jet(points, ())[0]

    def evaluate(self, x: Sequence[float]) -> Multivector:
        row = self.evaluate_components(as_point(self.signature, x)[None, :])[0]
        return Multivector.from_row(self.signature, self.grade, row)

    def jet(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The (npoints, ncomp) lattice values and the (dim, npoints, ncomp)
        central differences along every axis, from one lattice lookup."""
        return self._jet(points, self.signature.axes())

    def _jet(self, points: np.ndarray, axes: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        """The values and the central differences along ``axes``; the first point
        off the lattice raises, then, axis by axis, the first whose neighbours leave it."""
        sites = self._sites(np.asarray(points, dtype=float))
        rows = self.values[tuple(sites.T)]
        slopes = np.empty((len(axes), *rows.shape))
        for out, axis in zip(slopes, axes):
            bad = (sites[:, axis] < 1) | (sites[:, axis] + 1 >= self.values.shape[axis])
            if bad.any():
                site = tuple(int(s) for s in sites[bad.argmax()])
                raise FieldDomainError(f"axis {axis} neighbours of site {site} fall outside the lattice")
            step = np.eye(len(self.spacing), dtype=int)[axis]
            ahead, behind = self.values[tuple((sites + step).T)], self.values[tuple((sites - step).T)]
            out[:] = (ahead - behind) / (2.0 * self.spacing[axis])
        return rows, slopes

    def partial_at(self, axis: int, x: Sequence[float]) -> Multivector:
        """The central difference along one axis at one point: the ``_jet``
        along that axis alone, so the point's domain is the axis's own."""
        if not 0 <= axis < self.signature.dim:
            raise IndexError(f"axis {axis} out of range")
        row = self._jet(as_point(self.signature, x)[None, :], (axis,))[1][0, 0]
        return Multivector.from_row(self.signature, self.grade, row)


# ---------------------------------------------------------------------------
# derivative operators
# ---------------------------------------------------------------------------

EXTERIOR = "exterior"
INTERIOR = "interior"


@lru_cache(maxsize=None)
def _derivative_table(sig: SpacetimeSignature, grade: int, kind: str) -> np.ndarray:
    """``T[i, a, b]``: component b of Delta_ii e_i wedge (exterior) or
    Delta_ii e_i interior (interior) unit blade a, the metric times the
    ``_product_table`` of the public ``wedge``/``left_interior`` on (e_i, e_a).

    By linearity the derivative of a field with partial rows P_i is
    sum_i P_i @ T[i].  Shape (dim, ncomp(grade), ncomp(grade +- 1)), with
    no columns when the derivative leaves the grade range.
    """
    product = "w" if kind == EXTERIOR else "l"
    table = _metric(sig)[:, None, None] * _product_table(sig, product, 1, grade) + 0.0
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

    The partial rows are the field's ``jet``, unless ``slopes`` supplies them
    already evaluated at the points.  A derivative that leaves the grade range
    has no components: (npoints, 0).
    """
    sig = f.signature
    if _derivative_grade(f, kind) is None:
        return np.zeros((len(points), 0))
    if slopes is None:
        slopes = f.jet(points)[1]
    table = _derivative_table(sig, f.grade, kind)
    total = np.zeros((len(points), table.shape[2]))
    for i in (sig.axes() if axes is None else axes):
        total = total + slopes[i] @ table[i]
    return total


def exterior_derivative_components(f, points: np.ndarray) -> np.ndarray:
    """Grade-raising derivative sum_i Delta_ii e_i wedge (d_i f) as dense
    (npoints, ncomp) rows in ``index_lists(grade + 1)`` order; (npoints, 0)
    for a top-grade field."""
    return _derivative_rows(f, EXTERIOR, np.asarray(points, dtype=float))


def interior_derivative_components(f, points: np.ndarray) -> np.ndarray:
    """Grade-lowering derivative sum_i Delta_ii e_i interior (d_i f) as dense
    (npoints, ncomp) rows in ``index_lists(grade - 1)`` order; (npoints, 0)
    for a scalar field."""
    return _derivative_rows(f, INTERIOR, np.asarray(points, dtype=float))


def _derivative_at(f, kind: str, x: Sequence[float], slopes: Sequence[np.ndarray] | None = None) -> Multivector:
    """The one-row case of ``_derivative_rows`` as a multivector; the zero
    scalar when the derivative leaves the grade range."""
    sig = f.signature
    grade = _derivative_grade(f, kind)
    if grade is None:
        return Multivector.zero(sig, 0)
    row = _derivative_rows(f, kind, as_point(sig, x)[None, :], slopes=slopes)[0]
    return Multivector.from_row(sig, grade, row)


@lru_cache(maxsize=None)
def _derivative_gather(sig: SpacetimeSignature, grade: int, kind: str) -> tuple[tuple[np.ndarray, ...], ...]:
    """``_derivative_table`` as a signed gather, one (source, sign, lands)
    triple per axis i: each column of T[i] holds at most one entry, so output
    blade b is ``sign[b]`` times input blade ``source[b]`` where ``lands[b]``,
    and nothing lands elsewhere (sign 0)."""
    table = _derivative_table(sig, grade, kind)
    source = np.abs(table).argmax(axis=1)
    sign = np.take_along_axis(table, source[:, None, :], axis=1)[:, 0, :]
    lands = sign != 0
    source.flags.writeable = sign.flags.writeable = lands.flags.writeable = False
    return tuple(zip(source, sign, lands))


def _derivative_field(f: AnalyticField, kind: str) -> AnalyticField:
    """The exterior or interior derivative as a new analytic field.

    Row by row this is sum_i P_i @ T[i] over the partial tables P_i, with T
    the ``_derivative_table``: each row of the field's ``_partial_table`` is
    gathered through its axis's ``_derivative_gather`` and signed in place,
    and the rows are merged.  Where the partial table names each row's
    source mode, a mode's rows share its key and no other row's, so they
    merge by source, in axis order and each mode first met along its first
    axis with a nonzero row, with no key sorted; else by key.
    """
    sig = f.signature
    grade = _derivative_grade(f, kind)
    if grade is None:
        return AnalyticField(sig, 0)
    table, along, mode = f._partial_table()
    # the rows come axis by axis; a blade that nothing lands on stays +0.0
    bounds = np.searchsorted(along, np.arange(sig.dim + 1)).tolist()
    amp = np.zeros((len(along), math.comb(sig.dim, grade)), dtype=table.amp.dtype)
    with np.errstate(invalid="ignore"):
        for (source, sign, lands), lo, hi in zip(_derivative_gather(sig, f.grade, kind), bounds, bounds[1:]):
            np.multiply(sign, table.amp[lo:hi].take(source, axis=1), out=amp[lo:hi], where=lands)
        amp = _pruned(amp)
    return AnalyticField._from_table(sig, grade, _merged(_ModeTable(amp, table.data), source=mode)[0])


def exterior_derivative_field(f: AnalyticField) -> AnalyticField:
    """The exterior derivative as a new analytic field (exact mode algebra)."""
    return _derivative_field(f, EXTERIOR)


def interior_derivative_field(f: AnalyticField) -> AnalyticField:
    """The interior derivative as a new analytic field (exact mode algebra)."""
    return _derivative_field(f, INTERIOR)
