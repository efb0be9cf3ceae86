"""Lorentz force, stress-energy-momentum tensor, conservation, and slice fluxes.

The tensor is built by two independent routes: the definition route through
the interior- and exterior-product bitensors, and the explicit component
formulas (signed half-sums of squared field components on the diagonal,
signed products over shared sublists off it).  Their agreement, the trace
law, the structural derivative identities, and the conservation law are the
module's verification surface.

Since the tensor is quadratic in the field, tensor fields contract the
field's dense rows with tables of the two bitensor products on unit blades,
filled by the public ``odot``/``owedge``; the interior derivative is the
bilinear product rule on the field's partial rows, with no finite
differencing of the tensor.

Slice fluxes across a constant-coordinate surface come in two forms: direct
quadrature of the tensor column over the slice, and the frequency-domain
expression integrating the on-cone squared potential amplitude against the
null-completed frequency direction.  Both carry the permutation sign of
moving the fixed axis in front of the remaining ones, exactly as in the
half-space boundary element.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, combinations_with_replacement
from typing import Callable, Mapping, Sequence

import numpy as np

from .algebra import (
    Bitensor,
    GradeError,
    Multivector,
    SpacetimeSignature,
    dot,
    left_interior,
    merge_with_sign,
    odot,
    owedge,
    right_interior,
)
from .fields import (
    AnalyticField,
    Mode,
    as_point,
    exterior_derivative,
    interior_derivative,
)
from .integrate import DEFAULT_POINTS, HypersurfaceBox, gauss_legendre_rule

__all__ = [
    "lorentz_force",
    "stress_tensor_def",
    "stress_tensor_explicit",
    "trace",
    "trace_formula",
    "QuadraticTensorField",
    "StressTensorField",
    "conservation_residual",
    "tensor_identity_check",
    "tensor_divergence_identity",
    "flux_T_direct",
    "flux_T_fourier",
    "synthesize_on_cone_potential",
    "GaugeViolation",
]

CHI_EPS = 1e-8
# modes per row block of the slice-flux Gram accumulation
_GRAM_BLOCK = 16


class GaugeViolation(ValueError):
    """The on-cone amplitude breaks the Lorenz condition beyond tolerance."""


def lorentz_force(f: Multivector, j: Multivector) -> Multivector:
    """Force density: the source contracted into the field from the left."""
    if j.grade != f.grade - 1:
        raise GradeError(f"source grade {j.grade} must be field grade minus one ({f.grade - 1})")
    return left_interior(j, f)


def stress_tensor_def(f: Multivector) -> Bitensor:
    """Definition route: minus the sum of the two quadratic bitensors."""
    return _stress_product(f, f)


@lru_cache(maxsize=None)
def _stress_tables(sig: SpacetimeSignature, grade: int) -> dict:
    """Index tables of the explicit formula, one per component T_ij with i <= j.

    Maps (i, j) to a tuple of (pos_a, pos_b, coef) triples with
    T_ij = sum coef * F[pos_a] * F[pos_b] over F's dense components in
    ``index_lists`` order.  Diagonal: ((-1)^r / 2) Delta_ii (sum over lists
    containing i minus sum over lists not containing i of F_I^2 Delta_II).
    Off-diagonal: minus the signed products of the two components sharing an
    (r-1)-sublist.  Components without a term are left out.
    """
    index = {idx: pos for pos, idx in enumerate(sig.index_lists(grade))}
    half = 0.5 * (-1) ** grade
    tables = {}
    for i in sig.axes():
        tables[(i, i)] = tuple((pos, pos, half * sig.metric(i) * (1 if i in idx else -1)
                                * sig.metric_list(idx)) for idx, pos in index.items())
    for i, j in combinations(sig.axes(), 2):
        triples = []
        for sub in combinations(range(sig.dim), grade - 1) if grade >= 1 else ():
            if i in sub or j in sub:
                continue
            il, sign_li = merge_with_sign(sub, (i,))
            jl, sign_jl = merge_with_sign((j,), sub)
            triples.append((index[il], index[jl], float(-sign_li * sign_jl * sig.metric_list(sub))))
        if triples:
            tables[(i, j)] = tuple(triples)
    return tables


def stress_tensor_explicit(f: Multivector) -> Bitensor:
    """Explicit component route: the ``_stress_tables`` formula applied to F."""
    sig = f.signature
    row = [f.terms.get(idx, 0) for idx in sig.index_lists(f.grade)]
    return Bitensor(sig, {pair: sum(c * row[a] * row[b] for a, b, c in triples)
                          for pair, triples in _stress_tables(sig, f.grade).items()})


def trace(t: Bitensor) -> complex:
    """Metric trace: sum of Delta_ii T_ii."""
    return sum(t.signature.metric(i) * t.get(i, i) for i in t.signature.axes())


def trace_formula(f: Multivector) -> complex:
    """Closed form ((-1)^(r+1) / 2)(k + n - 2r)(F . F)."""
    sig = f.signature
    r = f.grade
    return 0.5 * (-1) ** (r + 1) * (sig.dim - 2 * r) * dot(f, f)


# ---------------------------------------------------------------------------
# tensor fields with exact derivatives
# ---------------------------------------------------------------------------

def _stress_product(f: Multivector, g: Multivector) -> Bitensor:
    return -1 * (odot(f, g) + owedge(f, g))


_PRODUCTS = {"odot": odot, "owedge": owedge, "stress": _stress_product}


@lru_cache(maxsize=None)
def _bitensor_tables(sig: SpacetimeSignature, grade: int, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """Coefficient arrays of one kind's quadratic bitensor, from the public products.

    ``C[p, a, b]`` is component p (pairs i <= j in
    ``combinations_with_replacement`` order) of the product of unit blades a
    and b (``index_lists`` order), so by bilinearity the product of two
    fields with dense rows u and v is sum_ab C[p, a, b] u_a v_b.
    ``D[j, i, a, b]`` is C + C^T over (a, b) at the pair {i, j}: by the
    product rule, sum_jab D[j, i, a, b] (d_j F)_a F_b is the interior
    derivative sum_j d_j T_ij.
    """
    product = _PRODUCTS[kind]
    units = [Multivector.blade(sig, idx) for idx in sig.index_lists(grade)]
    pairs = list(combinations_with_replacement(sig.axes(), 2))
    table = np.zeros((len(pairs), len(units), len(units)))
    for a, unit_a in enumerate(units):
        for b, unit_b in enumerate(units):
            t = product(unit_a, unit_b)
            table[:, a, b] = [t.get(i, j) for i, j in pairs]
    slot = {pair: p for p, pair in enumerate(pairs)}
    sym = table + table.transpose(0, 2, 1)
    div = np.array([[sym[slot[min(i, j), max(i, j)]] for i in sig.axes()] for j in sig.axes()])
    # cached and shared by every caller
    table.flags.writeable = div.flags.writeable = False
    return table, div


@dataclass(frozen=True)
class QuadraticTensorField:
    """Bitensor field quadratic in one multivector field.

    ``kind`` selects the interior product bitensor, the exterior one, or the
    full stress tensor.  Values and the interior derivative contract the
    field's dense rows with the kind's ``_bitensor_tables``, which the public
    ``odot``/``owedge`` fill; the derivative is the bilinear product rule on
    the field's exact (or central-difference) partials.
    """

    field: object
    kind: str = "stress"

    def __post_init__(self):
        if self.kind not in _PRODUCTS:
            raise ValueError(f"unknown tensor kind {self.kind!r}")

    @property
    def signature(self) -> SpacetimeSignature:
        return self.field.signature

    def evaluate_components(self, points: np.ndarray) -> np.ndarray:
        """Dense (npoints, npairs) values, pairs i <= j in
        ``combinations_with_replacement`` order."""
        rows = self.field.evaluate_components(points)
        table, _ = _bitensor_tables(self.signature, self.field.grade, self.kind)
        return np.einsum("pab,na,nb->np", table, rows, rows)

    def divergence_components(self, points: np.ndarray) -> np.ndarray:
        """Dense (npoints, dim) interior derivative sum_j d_j T_ij."""
        return _divergences(self.field, (self.kind,), points)[0]

    def evaluate(self, x: Sequence[float]) -> Bitensor:
        sig = self.signature
        row = self.evaluate_components(as_point(sig, x)[None, :])[0]
        return Bitensor(sig, zip(combinations_with_replacement(sig.axes(), 2), row.tolist()))

    def divergence(self, x: Sequence[float]) -> Multivector:
        sig = self.signature
        row = self.divergence_components(as_point(sig, x)[None, :])[0]
        return Multivector.vector(sig, row.tolist())


def _divergences(field, kinds: Sequence[str], points: np.ndarray) -> list[np.ndarray]:
    """Each kind's (npoints, dim) tensor divergence rows, from one evaluation
    of the field's rows and partial rows at the points."""
    rows = field.evaluate_components(points)
    slopes = np.stack([field.partial_components(j, points) for j in field.signature.axes()])
    return [np.einsum("jiab,jna,nb->ni", _bitensor_tables(field.signature, field.grade, kind)[1],
                      slopes, rows) for kind in kinds]


def StressTensorField(field) -> QuadraticTensorField:
    """The stress-energy-momentum tensor of a multivector field."""
    return QuadraticTensorField(field, "stress")


def conservation_residual(f_field, j_field, x: Sequence[float]) -> Multivector:
    """Lorentz force plus interior derivative of the stress tensor at x.

    Vanishes when the field pair solves the Maxwell system; the source is the
    one supplied, so inconsistent pairs show a nonzero residual.
    """
    force = lorentz_force(f_field.evaluate(x), j_field.evaluate(x))
    div_t = StressTensorField(f_field).divergence(x)
    return force + div_t


def tensor_identity_check(f_field, x: Sequence[float]) -> tuple[Multivector, Multivector]:
    """Residuals of the two split derivative identities for the product bitensors.

    Returns: interior derivative of the interior-product bitensor minus the
    contracted interior derivative of the field, and the same for the
    exterior-product bitensor against the right contraction of the exterior
    derivative.

    Caution: the split identities are exact only for fields whose components
    share a single scalar profile (one analytic mode).  For general fields
    each residual is nonzero; the two deviations are equal and opposite, so
    their sum, exposed as ``tensor_divergence_identity``, vanishes for any
    smooth field.  A two-line counterexample on (0, 2): F with components
    (x_1^2, x_0) has a divergence-free interior derivative, yet the
    interior-product bitensor has nonzero divergence (x_0 x_1, x_1^2 / 2).

    Exact form for any smooth field, with d_j F the partial along axis j:

        A_i = (1/2) Delta_ii sum_j Delta_jj
              dot(left_interior(e_i, d_j F), right_interior(F, e_j))
        B_i = (1/2) Delta_ii sum_j Delta_jj dot(wedge(e_i, d_j F), wedge(F, e_j))

        res_odot   = A - (1/2) left_interior(interior_derivative(F), F)
        res_owedge = B - (1/2) right_interior(exterior_derivative(F), F)

    A single scalar profile makes A and B equal to the subtracted halves, so
    both residuals vanish; in general only their sum does.
    """
    sig = f_field.signature
    value = f_field.evaluate(x)
    div_odot, div_owedge = (Multivector.vector(sig, rows[0].tolist()) for rows in
                            _divergences(f_field, ("odot", "owedge"), as_point(sig, x)[None, :]))
    res_odot = div_odot - left_interior(interior_derivative(f_field, x), value)
    res_owedge = div_owedge - right_interior(exterior_derivative(f_field, x), value)
    return res_odot, res_owedge


def tensor_divergence_identity(f_field, x: Sequence[float]) -> Multivector:
    """Residual of the structural identity behind the conservation law.

    The interior derivative of the full stress tensor plus the interior
    contraction of the field's interior derivative plus the right contraction
    of its exterior derivative vanishes for ANY smooth field, Maxwellian or
    not.  This is the sum of the two split identities and is exact here
    because the tensor derivative uses the bilinear product rule.
    """
    value = f_field.evaluate(x)
    return StressTensorField(f_field).divergence(x) \
        + left_interior(interior_derivative(f_field, x), value) \
        + right_interior(exterior_derivative(f_field, x), value)


# ---------------------------------------------------------------------------
# direct slice flux
# ---------------------------------------------------------------------------

def _axis_sign(sig: SpacetimeSignature, axis: int) -> int:
    comp = tuple(i for i in sig.axes() if i != axis)
    _, sign = merge_with_sign((axis,), comp)
    return sign


def _envelope_bounds(field, axis: int, cutoff: float = 1e-12) -> dict[int, tuple[float, float]]:
    envelopes = []
    for mode in field.modes:
        if mode.envelope is None:
            raise ValueError(
                "flux_T_direct needs a decaying field: every mode must carry a Gaussian "
                "envelope, or explicit bounds must be supplied")
        envelopes.append(mode.envelope)
    if not envelopes:
        raise ValueError("flux_T_direct of an empty field needs explicit bounds")
    bounds = {}
    for a in field.signature.axes():
        if a == axis:
            continue
        lo = min(e.center[a] - e.truncation_radius(cutoff) for e in envelopes)
        hi = max(e.center[a] + e.truncation_radius(cutoff) for e in envelopes)
        bounds[a] = (lo, hi)
    return bounds


def _slice_moments(rows: np.ndarray, const: np.ndarray, axes) -> np.ndarray:
    """Q[p, q] = sum over the slice nodes of w F_p F_q, from per-axis Grams.

    F = sum_m rows[m] Re(c_m prod_a E_a[m]) on the tensor-product rule whose
    per-axis (factors E_a, weights w_a) pairs are ``axes``.  With
    Re(u) Re(v) = Re(u v + u conj(v)) / 2 and the weight a product over axes,
    each pair of modes integrates to
    Re(c_m c_n prod_a G+_a[m, n] + conj(c_m) c_n prod_a conj(G-_a[m, n])) / 2
    with G+_a = (E_a w_a) E_a^T and conj(G-_a) = conj(E_a w_a) E_a^T.  Rows
    of modes are taken ``_GRAM_BLOCK`` at a time, so memory stays at one
    block times the mode count.
    """
    nmodes, ncomp = rows.shape
    moments = np.zeros((ncomp, ncomp))
    for lo in range(0, nmodes, _GRAM_BLOCK):
        blk = slice(lo, lo + _GRAM_BLOCK)
        plus = np.ones((len(const[blk]), nmodes), dtype=complex)
        minus = np.ones_like(plus)
        for factors, weights in axes:
            left = factors[blk] * weights
            plus *= left @ factors.T
            minus *= left.conj() @ factors.T
        pair = 0.5 * (const * (const[blk, None] * plus + const[blk, None].conj() * minus)).real
        moments += rows[blk].T @ (pair @ rows)
    return moments


def flux_T_direct(f_field, axis: int, coordinate: float,
                  bounds: Mapping[int, tuple[float, float]] | None = None,
                  points: int = DEFAULT_POINTS, panels: int = 1) -> Multivector:
    """Stress-tensor flux across the constant-coordinate slice, by quadrature.

    Integrates the tensor column T_(i, axis) over the slice with the
    tensor-product Gauss-Legendre rule and weights it with the permutation
    sign of the fixed axis, the half-space boundary element convention.  The
    column is quadratic in the field, so the rule is applied once to every
    component product, Q[p, q] = sum w F_p F_q, and the ``_stress_tables``
    triples of ``stress_tensor_explicit`` are applied to Q.  Every mode is a
    product of one-axis factors, so Q is a per-axis Gram contraction of the
    field's mode data (``AnalyticField.axis_factors``), not a node-by-node
    evaluation.  The field must be analytic and real (cosine modes, real
    amplitudes).  Bounds default to the envelope truncation radii and must be
    given explicitly for fields without envelopes.
    """
    sig = f_field.signature
    if getattr(f_field, "modes", None) is None:
        raise ValueError("flux_T_direct needs an analytic field with modes; "
                         "grid-backed fields are not supported, with or without bounds")
    if f_field.is_complex():
        raise ValueError("flux_T_direct expects a real field; use cosine modes")
    if bounds is None:
        bounds = _envelope_bounds(f_field, axis)
    slice_box = HypersurfaceBox(sig, intervals=dict(bounds), fixed={axis: coordinate})
    if slice_box.dim != sig.dim - 1:
        raise ValueError("slice bounds must cover every axis except the fixed one")
    rules = {a: gauss_legendre_rule(*slice_box.intervals[a], points, panels)
             for a in slice_box.free_axes}
    rows, const, factors = f_field.axis_factors(slice_box.fixed,
                                                {a: nodes for a, (nodes, _) in rules.items()})
    moments = _slice_moments(rows, const, [(factors[a], rules[a][1]) for a in slice_box.free_axes])
    sign = _axis_sign(sig, axis)
    tables = _stress_tables(sig, f_field.grade)
    out = {}
    for i in sig.axes():
        triples = tables.get((min(i, axis), max(i, axis)))
        if triples is None:
            continue
        pos_a, pos_b, coef = map(np.array, zip(*triples))
        value = sign * float(moments[pos_a, pos_b] @ coef)
        if value != 0.0:
            out[(i,)] = value
    return Multivector(sig, 1, out)


# ---------------------------------------------------------------------------
# frequency-domain slice flux
# ---------------------------------------------------------------------------

def _cone_nodes(sig: SpacetimeSignature, axis: int, region: Mapping[int, tuple[float, float]],
                points: int, panels: int):
    """Quadrature nodes over the transverse frequency box, with the null
    completion on the fixed axis.  Nodes outside the cone region are skipped."""
    free = [a for a in sig.axes() if a != axis]
    if set(region) != set(free):
        raise ValueError("region must bound every axis except the flux axis")
    box = HypersurfaceBox(sig, intervals=dict(region), fixed={axis: 0.0})
    delta_axis = sig.metric(axis)
    for xi_bar, weight in box.quadrature(points, panels):
        xi_sq = sum(sig.metric(a) * xi_bar[a] ** 2 for a in free)
        radicand = -delta_axis * xi_sq
        if radicand < 0:
            continue
        chi = math.sqrt(radicand)
        yield xi_bar, chi, weight


def _xi_plus(sig: SpacetimeSignature, axis: int, xi_bar: np.ndarray, chi: float) -> Multivector:
    comps = {(a,): xi_bar[a] for a in sig.axes() if xi_bar[a] != 0 and a != axis}
    if chi != 0:
        comps[(axis,)] = chi
    return Multivector(sig, 1, comps)


def flux_T_fourier(a_hat: Callable[[Multivector], Multivector], axis: int,
                   region: Mapping[int, tuple[float, float]], sig: SpacetimeSignature,
                   grade: int, points: int = DEFAULT_POINTS, panels: int = 1,
                   gauge_tol: float = 1e-9) -> Multivector:
    """Frequency-domain stress-tensor flux across a constant-coordinate slice.

    Integrates (-1)^r 2 pi^2 sign(axis) (xi_plus / chi) |A_hat(xi_plus)|^2
    over the transverse frequency region, where |A_hat|^2 is the metric dot
    of the amplitude with its conjugate and r = grade of the field the
    potential generates.  The amplitude must satisfy the Lorenz condition on
    the cone and vanish where chi degenerates.
    """
    r = grade
    sign = _axis_sign(sig, axis)
    accum = np.zeros(sig.dim)
    for xi_bar, chi, weight in _cone_nodes(sig, axis, region, points, panels):
        xi_plus = _xi_plus(sig, axis, xi_bar, chi)
        amp = a_hat(xi_plus)
        if amp.grade != r - 1:
            raise GradeError(f"amplitude grade {amp.grade} must be r - 1 = {r - 1}")
        mod2 = dot(amp, amp.conjugate())
        mod2 = mod2.real if isinstance(mod2, complex) else mod2
        if chi < CHI_EPS:
            if amp.max_abs() > 1e-9:
                raise ValueError(
                    f"amplitude must vanish near the chi = 0 degeneracy (chi={chi:.3g})")
            continue
        gauge = left_interior(xi_plus, amp).max_abs()
        if gauge > gauge_tol * max(1.0, amp.max_abs()):
            raise GaugeViolation(
                f"Lorenz condition violated at xi_bar={xi_bar.tolist()}: residual {gauge:.3e}")
        scale = weight * mod2 / chi
        for a in sig.axes():
            accum[a] += scale * (chi if a == axis else xi_bar[a])
    prefactor = (-1) ** r * 2.0 * math.pi ** 2 * sign
    return Multivector(sig, 1, {(a,): prefactor * accum[a] for a in sig.axes() if accum[a] != 0.0})


def synthesize_on_cone_potential(a_hat: Callable[[Multivector], Multivector], axis: int,
                                 region: Mapping[int, tuple[float, float]],
                                 sig: SpacetimeSignature, grade: int,
                                 points: int = DEFAULT_POINTS, panels: int = 1) -> AnalyticField:
    """Real potential synthesized from an on-cone amplitude density.

    Quadrature of the inverse transform restricted to the cone: each node
    contributes cosine modes Re[A_hat(xi_plus) exp(j theta)] / chi, so the
    result pairs with flux_T_fourier over the same region.  Returns a field
    of the potential grade (r - 1).
    """
    modes: list[Mode] = []
    for xi_bar, chi, weight in _cone_nodes(sig, axis, region, points, panels):
        if chi < CHI_EPS:
            continue
        xi_plus = _xi_plus(sig, axis, xi_bar, chi)
        amp = a_hat(xi_plus)
        if not amp:
            continue
        xi_tuple = tuple(chi if a == axis else xi_bar[a] for a in sig.axes())
        real_part = Multivector(sig, amp.grade,
                                {idx: c.real if isinstance(c, complex) else c
                                 for idx, c in amp.terms.items()})
        imag_part = Multivector(sig, amp.grade,
                                {idx: c.imag for idx, c in amp.terms.items()
                                 if isinstance(c, complex)})
        scale = weight / chi
        if real_part:
            modes.append(Mode(amplitude=real_part * scale, xi=xi_tuple, phase=0.0))
        if imag_part:
            modes.append(Mode(amplitude=imag_part * scale, xi=xi_tuple, phase=0.5 * math.pi))
    return AnalyticField(sig, grade - 1, modes)
