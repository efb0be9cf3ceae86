"""Lorentz force, stress-energy-momentum tensor, conservation, and slice fluxes.

The tensor is built by two independent routes: the definition route through
the interior- and exterior-product bitensors, and the explicit component
formulas (signed half-sums of squared field components on the diagonal,
signed products over shared sublists off it).  Their agreement, the trace
law, the structural derivative identities, and the conservation law are the
module's verification surface.

Since the tensor is quadratic in the field, tensor fields contract the
field's dense rows with tables of the two bitensor products on unit blades,
contracted from the ``_product_table``s of the identity-certified products
(the tables ``odot``/``owedge`` read); the interior derivative is the
bilinear product rule on the field's partial rows, with no finite
differencing of the tensor; the conservation residual is batched over
points the same way (one point is a one-row array).

Slice fluxes across a constant-coordinate surface come in two forms: direct
quadrature of the tensor column over the slice, and the frequency-domain
expression integrating the on-cone squared potential amplitude against the
null-completed frequency direction.  Both carry the permutation sign
(-1)^axis of moving the fixed axis in front of the remaining ones, exactly
as in the half-space boundary element.
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
    _product_table,
    _quadratic_table,
    _sign_tables,
    _table_bitensor,
    left_interior,
    right_interior,
)
from .fields import (
    EXTERIOR,
    INTERIOR,
    AnalyticField,
    _cosine_field,
    _derivative_at,
    _derivative_table,
    _pruned,
    as_point,
)
from .integrate import DEFAULT_POINTS, HypersurfaceBox, _composite_rule

__all__ = [
    "lorentz_force",
    "stress_tensor_def",
    "stress_tensor_explicit",
    "stress_tensor_explicit_components",
    "trace",
    "trace_components",
    "trace_formula",
    "trace_formula_components",
    "QuadraticTensorField",
    "StressTensorField",
    "conservation_residual_components",
    "tensor_identity_check",
    "tensor_divergence_identity",
    "flux_T_direct",
    "flux_T_fourier",
    "synthesize_on_cone_potential",
    "GaugeViolation",
]

CHI_EPS = 1e-8
# Lorenz residual of the on-cone amplitude allowed per unit max(1, |A_hat|)
GAUGE_TOL = 1e-9
# modes per row block of the slice-flux Gram accumulation
_GRAM_BLOCK = 16
# cells of the distinct-key grid per mode up to which the slice flux sums
# the modes into that grid
_KRONECKER_CELLS = 4


class GaugeViolation(ValueError):
    """The on-cone amplitude breaks the Lorenz condition beyond tolerance."""


def lorentz_force(f: Multivector, j: Multivector) -> Multivector:
    """Force density: the source contracted into the field from the left."""
    if j.grade != f.grade - 1:
        raise GradeError(f"source grade {j.grade} must be field grade minus one ({f.grade - 1})")
    return left_interior(j, f)


def stress_tensor_def(f: Multivector) -> Bitensor:
    """Definition route: minus the sum of the two quadratic bitensors, the
    one-row case of the ``stress`` table."""
    return _table_bitensor(_bitensor_tables(f.signature, f.grade, "stress")[0], f, f)


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
    wedge_rows = _sign_tables(sig).lookup("w")
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
            il, sign_li = wedge_rows[sub][(i,)]
            jl, sign_jl = wedge_rows[(j,)][sub]
            triples.append((index[il], index[jl], float(-sign_li * sign_jl * sig.metric_list(sub))))
        if triples:
            tables[(i, j)] = tuple(triples)
    return tables


def stress_tensor_explicit(f: Multivector) -> Bitensor:
    """Explicit component route at one value: the one-row case of
    ``stress_tensor_explicit_components``."""
    sig = f.signature
    return Bitensor.from_row(sig, stress_tensor_explicit_components(sig, f.grade, f.row()[None, :])[0])


def stress_tensor_explicit_components(sig: SpacetimeSignature, grade: int, rows: np.ndarray) -> np.ndarray:
    """Explicit component route: the ``_stress_tables`` formula applied to
    dense field rows (npoints, ncomp) in ``index_lists`` order, giving
    (npoints, npairs) tensor rows, pairs i <= j in
    ``combinations_with_replacement`` order."""
    tables = _stress_tables(sig, grade)
    out = np.zeros((len(rows), sig.dim * (sig.dim + 1) // 2), dtype=np.result_type(rows, float))
    for p, pair in enumerate(combinations_with_replacement(sig.axes(), 2)):
        out[:, p] = sum(c * rows[:, a] * rows[:, b] for a, b, c in tables.get(pair, ()))
    return out


def trace(t: Bitensor) -> complex:
    """The metric trace of one bitensor: the one-row case of ``trace_components``."""
    return trace_components(t.signature, t.row()[None, :])[0].item()


def trace_components(sig: SpacetimeSignature, tensor_rows: np.ndarray) -> np.ndarray:
    """Metric trace sum of Delta_ii T_ii of each (npairs,) tensor row, pairs in
    ``combinations_with_replacement`` order."""
    pairs = list(combinations_with_replacement(sig.axes(), 2))
    return sum(sig.metric(i) * tensor_rows[:, pairs.index((i, i))] for i in sig.axes())


def trace_formula(f: Multivector) -> complex:
    """The closed-form trace at one value: the one-row case of
    ``trace_formula_components``."""
    return trace_formula_components(f.signature, f.grade, f.row()[None, :])[0].item()


def trace_formula_components(sig: SpacetimeSignature, grade: int, rows: np.ndarray) -> np.ndarray:
    """Closed form ((-1)^(r+1) / 2)(k + n - 2r)(F . F) of each dense field row
    (npoints, ncomp) in ``index_lists`` order."""
    squares = sum(sig.metric_list(idx) * rows[:, a] * rows[:, a]
                  for a, idx in enumerate(sig.index_lists(grade)))
    return 0.5 * (-1) ** (grade + 1) * (sig.dim - 2 * grade) * squares


# ---------------------------------------------------------------------------
# tensor fields with exact derivatives
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _bitensor_tables(sig: SpacetimeSignature, grade: int, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """Coefficient arrays of one kind's quadratic bitensor.

    ``C[p, a, b]`` is the ``_quadratic_table`` of odot or owedge, or minus
    their sum (zeros +0.0) for the stress tensor: the kind's tensor of dense
    field rows u and v is sum_ab C[p, a, b] u_a v_b.  ``D[j, i, a, b]`` is
    C + C^T over (a, b) at the pair {i, j}: by the product rule,
    sum_jab D[j, i, a, b] (d_j F)_a F_b is the interior derivative
    sum_j d_j T_ij.
    """
    if kind == "stress":
        table = -(_quadratic_table(sig, grade, "odot") + _quadratic_table(sig, grade, "owedge")) + 0.0
    else:
        table = _quadratic_table(sig, grade, kind)
    slot = {pair: p for p, pair in enumerate(combinations_with_replacement(sig.axes(), 2))}
    sym = table + table.transpose(0, 2, 1)
    div = np.array([[sym[slot[min(i, j), max(i, j)]] for i in sig.axes()] for j in sig.axes()])
    # cached and shared by every caller
    table.flags.writeable = div.flags.writeable = False
    return table, div


@dataclass(frozen=True)
class QuadraticTensorField:
    """The stress-energy-momentum tensor field of one multivector field.

    Values and the interior derivative contract the field's dense rows with
    the stress ``_bitensor_tables``, the table ``stress_tensor_def`` reads at
    one value; the derivative is the bilinear product rule on the field's
    exact (or central-difference) partials.
    """

    field: object

    @property
    def signature(self) -> SpacetimeSignature:
        return self.field.signature

    def evaluate_components(self, points: np.ndarray) -> np.ndarray:
        """Dense (npoints, npairs) values, pairs i <= j in
        ``combinations_with_replacement`` order."""
        rows = self.field.evaluate_components(points)
        table, _ = _bitensor_tables(self.signature, self.field.grade, "stress")
        return np.einsum("pab,na,nb->np", table, rows, rows)

    def divergence_components(self, points: np.ndarray) -> np.ndarray:
        """Dense (npoints, dim) interior derivative sum_j d_j T_ij."""
        return _divergence_rows(self.field, "stress", *self.field.jet(points))

    def evaluate(self, x: Sequence[float]) -> Bitensor:
        sig = self.signature
        return Bitensor.from_row(sig, self.evaluate_components(as_point(sig, x)[None, :])[0])

    def divergence(self, x: Sequence[float]) -> Multivector:
        sig = self.signature
        row = self.divergence_components(as_point(sig, x)[None, :])[0]
        return Multivector.vector(sig, row.tolist())


def _divergence_rows(field, kind: str, rows: np.ndarray, slopes: np.ndarray) -> np.ndarray:
    """One kind's (npoints, dim) tensor divergence rows from the field's ``jet``."""
    table = _bitensor_tables(field.signature, field.grade, kind)[1]
    return np.einsum("jiab,jna,nb->ni", table, slopes, rows)


StressTensorField = QuadraticTensorField


def _force_table(sig: SpacetimeSignature, grade: int) -> np.ndarray:
    """``L[a, b, c]``: component c of the Lorentz force of unit source blade a
    (grade - 1) on unit field blade b (grade), the ``_product_table`` of the
    public ``left_interior``; the force of dense rows j and f is
    sum_ab L j_a f_b."""
    return _product_table(sig, "l", grade - 1, grade)


def conservation_residual_components(f_field, j_field, points: np.ndarray) -> np.ndarray:
    """Lorentz force plus interior derivative of the stress tensor, as dense
    (npoints, dim) rows.

    Vanishes when the field pair solves the Maxwell system; the source is the
    one supplied, so inconsistent pairs show a nonzero residual.
    """
    points = np.asarray(points, dtype=float)
    rows, slopes = f_field.jet(points)
    force = np.einsum("abc,na,nb->nc", _force_table(f_field.signature, f_field.grade),
                      j_field.evaluate_components(points), rows)
    return force + _divergence_rows(f_field, "stress", rows, slopes)


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

    Exact form for any smooth field, with d_j F the partial along axis j and
    dF, delta F the exterior and interior derivatives:

        A_i = (1/2) Delta_ii sum_j Delta_jj
              dot(left_interior(e_i, d_j F), right_interior(F, e_j))
        B_i = (1/2) Delta_ii sum_j Delta_jj dot(wedge(e_i, d_j F), wedge(F, e_j))

        res_odot   = A - (1/2) left_interior(delta F, F)
        res_owedge = B - (1/2) right_interior(dF, F)

    A single scalar profile makes A and B equal to the subtracted halves, so
    both residuals vanish; in general only their sum does.
    """
    value, inner, outer, div_odot, div_owedge = _identity_terms(f_field, ("odot", "owedge"), x)
    return div_odot - left_interior(inner, value), div_owedge - right_interior(outer, value)


def tensor_divergence_identity(f_field, x: Sequence[float]) -> Multivector:
    """Residual of the structural identity behind the conservation law.

    The interior derivative of the full stress tensor plus the interior
    contraction of the field's interior derivative plus the right contraction
    of its exterior derivative vanishes for ANY smooth field, Maxwellian or
    not.  This is the sum of the two split identities and is exact here
    because the tensor derivative uses the bilinear product rule.
    """
    value, inner, outer, div_t = _identity_terms(f_field, ("stress",), x)
    return div_t + left_interior(inner, value) + right_interior(outer, value)


def _identity_terms(f_field, kinds: Sequence[str], x: Sequence[float]) -> tuple:
    """F(x), its interior and exterior derivatives at x, and each kind's
    tensor divergence at x, as multivectors, from one evaluation of the
    field's rows and partial rows."""
    sig = f_field.signature
    rows, slopes = f_field.jet(as_point(sig, x)[None, :])
    value = Multivector.from_row(sig, f_field.grade, rows[0])
    return (value, _derivative_at(f_field, INTERIOR, x, slopes=slopes),
            _derivative_at(f_field, EXTERIOR, x, slopes=slopes),
            *(Multivector.vector(sig, _divergence_rows(f_field, kind, rows, slopes)[0].tolist())
              for kind in kinds))


# ---------------------------------------------------------------------------
# direct slice flux
# ---------------------------------------------------------------------------

def _slice_moments(rows: np.ndarray, const: np.ndarray, axes) -> np.ndarray:
    """Q[p, q] = sum over the slice nodes of w F_p F_q, from per-axis factors.

    F = sum_m rows[m] Re(c_m prod_a E_a[inverse_a[m]]) on the tensor-product
    rule whose per-axis distinct factor rows E_a and weights w_a are the
    ``axes`` (E_a, w_a, inverse_a).  With Re(u) Re(v) = Re(u v + u conj(v)) / 2
    and the weight a product over axes, each pair of modes integrates to
    Re(c_m c_n prod_a G+_a[m', n'] + conj(c_m) c_n prod_a conj(G-_a[m', n'])) / 2,
    where m' = inverse_a[m], n' = inverse_a[n] and the Grams are
    ``_axis_grams``: G+_a = (E_a w_a) E_a^T and conj(G-_a) = conj(E_a w_a) E_a^T.

    When the grid of distinct keys has at most ``_KRONECKER_CELLS`` cells per
    mode, the modes are summed into it and the pair sum is the Kronecker
    contraction ``_kronecker_moments``, which takes each axis in node or Gram
    form, whichever is cheaper; otherwise ``_blocked_moments`` sums the pairs
    directly, with every axis's Grams.
    """
    shape = tuple(len(distinct) for distinct, _, _ in axes)
    if math.prod(shape) <= _KRONECKER_CELLS * len(rows):
        return _kronecker_moments(rows, const, axes, shape)
    return _blocked_moments(rows, const, axes)


def _axis_grams(distinct: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """G+ = (E w) E^T and conj(G-) = conj(E w) E^T of one axis's distinct
    factor rows E and rule weights w."""
    left = distinct * weights
    return left @ distinct.T, left.conj() @ distinct.T


def _node_axes(axes, ncomp: int) -> list[int]:
    """The axes ``_kronecker_moments`` takes in node form.

    Taken in turn, axis a is in node form where rest, the product of the
    grid's other current sizes (ncomp included), is below its u_a distinct
    keys: moving the grid to the nodes costs u_a n_a rest, and building the
    Grams u_a^2 n_a.  A node-form axis then counts its n_a nodes.  No size
    is divided by, so an empty grid (a field without modes) is no special
    case: every axis keeps Gram form."""
    sizes = [len(distinct) for distinct, _, _ in axes] + [ncomp]
    node = []
    for i, (distinct, weights, _) in enumerate(axes):
        if math.prod(sizes[:i] + sizes[i + 1:]) < len(distinct):
            sizes[i] = len(weights)
            node.append(i)
    return node


def _kronecker_moments(rows: np.ndarray, const: np.ndarray, axes, shape: tuple) -> np.ndarray:
    """The pair sum over the (u_1 x ... x u_d x ncomp) grid C of c_m rows[m]
    scattered on each mode's distinct keys, Q = Re(C^T (G+ C) + C^H (conj(G-) C)) / 2
    with G+ and conj(G-) the Kronecker products of the axes' Grams.

    Each axis takes one of two exact forms, chosen by ``_node_axes``.  In
    node form E_a^T is applied along its grid axis, which then runs over the
    axis's n_a nodes, and the weights w_a take the place of both Grams, since
    C^T (E w E^T) C = V^T w V and C^H (conj(E) w E^T) C = V^H w V with
    V = E^T C.  In Gram form the axis's two Grams are applied along it.
    """
    ncomp = rows.shape[1]
    cells = np.zeros((math.prod(shape), ncomp), dtype=complex)
    np.add.at(cells, np.ravel_multi_index([inverse for *_, inverse in axes], shape),
              const[:, None] * rows)
    cells = cells.reshape(*shape, ncomp)
    node_axes = _node_axes(axes, ncomp)
    for i in node_axes:
        cells = np.moveaxis(np.tensordot(axes[i][0], cells, axes=(0, i)), 0, i)
    plus = cells
    for i in node_axes:
        plus = plus * np.expand_dims(axes[i][1], [j for j in range(cells.ndim) if j != i])
    minus = plus
    for i, (distinct, weights, _) in enumerate(axes):
        if i not in node_axes:
            gram_plus, gram_minus = _axis_grams(distinct, weights)
            plus = np.moveaxis(np.tensordot(gram_plus, plus, axes=(1, i)), 0, i)
            minus = np.moveaxis(np.tensordot(gram_minus, minus, axes=(1, i)), 0, i)
    cells = cells.reshape(-1, ncomp)
    return 0.5 * (cells.T @ plus.reshape(-1, ncomp) + cells.conj().T @ minus.reshape(-1, ncomp)).real


def _blocked_moments(rows: np.ndarray, const: np.ndarray, axes) -> np.ndarray:
    """The pair sum over every pair of modes, with each axis's Grams gathered
    onto the modes; rows of modes are taken ``_GRAM_BLOCK`` at a time, so
    memory stays at one block times the mode count."""
    nmodes, ncomp = rows.shape
    grams = [(*_axis_grams(distinct, weights), inverse) for distinct, weights, inverse in axes]
    moments = np.zeros((ncomp, ncomp))
    for lo in range(0, nmodes, _GRAM_BLOCK):
        blk = slice(lo, lo + _GRAM_BLOCK)
        plus = np.ones((len(const[blk]), nmodes), dtype=complex)
        minus = np.ones_like(plus)
        for gram_plus, gram_minus, inverse in grams:
            plus *= gram_plus[inverse[blk, None], inverse]
            minus *= gram_minus[inverse[blk, None], inverse]
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
    product of one-axis factors, so Q is a contraction of each axis's
    distinct factor rows (``AnalyticField.axis_factors``), not a
    node-by-node evaluation; when modes share their keys, as synthesized
    modes on a grid of cone nodes do, it is a Kronecker product in which
    each axis takes the cheaper exact form: node form, the factor rows at
    the axis's nodes with its weights, where its distinct keys outnumber the
    grid's other sizes times the component count, and Gram form otherwise
    (``_slice_moments``).  The field must be analytic and real (cosine
    modes, real amplitudes).  Bounds default to the envelope truncation radii
    and must be given explicitly for fields without envelopes.
    """
    sig = f_field.signature
    if not isinstance(f_field, AnalyticField):
        raise ValueError("flux_T_direct needs an analytic field with modes; "
                         "grid-backed fields are not supported, with or without bounds")
    if f_field.is_complex():
        raise ValueError("flux_T_direct expects a real field; use cosine modes")
    if bounds is None:
        bounds = f_field._envelope_bounds(axis)
    slice_box = HypersurfaceBox(sig, intervals=dict(bounds), fixed={axis: coordinate})
    rules = {a: _composite_rule(*slice_box.intervals[a], points, panels)
             for a in slice_box.free_axes}
    rows, const, factors = f_field.axis_factors(slice_box.fixed,
                                                {a: nodes for a, (nodes, _) in rules.items()})
    moments = _slice_moments(rows, const, [(factors[a][0], rules[a][1], factors[a][1])
                                           for a in slice_box.free_axes])
    # the slice sign (-1)^axis, as in flux_T_fourier: integrate._integral's sign of the
    # upper face fixing ``axis`` of a full box
    sign = (-1) ** axis
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
    completion on the fixed axis.

    Returns the (npoints, dim) nodes xi_bar (0 on the fixed axis), the
    null-completed xi_plus (chi on the fixed axis), chi and the weights, in
    ``grid_points`` order; nodes outside the cone region are dropped.
    """
    free = [a for a in sig.axes() if a != axis]
    if set(region) != set(free):
        raise ValueError("region must bound every axis except the flux axis")
    box = HypersurfaceBox(sig, intervals=dict(region), fixed={axis: 0.0})
    nodes, weights = box.grid_points(points, panels)
    xi_sq = 0.0
    for a in free:
        xi_sq = xi_sq + sig.metric(a) * nodes[:, a] ** 2
    radicand = -sig.metric(axis) * xi_sq
    inside = ~(radicand < 0)
    nodes, weights = nodes[inside], weights[inside]
    chi = np.sqrt(radicand[inside]) + 0.0  # + 0.0: sqrt(-0.0) is -0.0
    xi_plus = nodes.copy()
    xi_plus[:, axis] = chi
    return nodes, xi_plus, chi, weights


def _amplitude_rows(a_hat: Callable[[np.ndarray], np.ndarray], xi_plus: np.ndarray,
                    sig: SpacetimeSignature, grade: int) -> np.ndarray:
    """The spectrum's (npoints, ncomp) rows at the cone nodes, with the
    relative prune a ``Multivector`` makes; a wrong shape is a grade error."""
    ncomp = math.comb(sig.dim, grade)
    rows = np.asarray(a_hat(xi_plus))
    if rows.shape != (len(xi_plus), ncomp):
        raise GradeError(f"amplitude rows have shape {rows.shape}; grade r - 1 = {grade} on "
                         f"{len(xi_plus)} nodes needs ({len(xi_plus)}, {ncomp})")
    return _pruned(rows.copy())


def flux_T_fourier(a_hat: Callable[[np.ndarray], np.ndarray], axis: int,
                   region: Mapping[int, tuple[float, float]], sig: SpacetimeSignature,
                   grade: int, points: int = DEFAULT_POINTS, panels: int = 1) -> Multivector:
    """Frequency-domain stress-tensor flux across a constant-coordinate slice.

    Integrates (-1)^r 2 pi^2 sign(axis) (xi_plus / chi) |A_hat(xi_plus)|^2
    over the transverse frequency region, where |A_hat|^2 is the metric dot
    of the amplitude with its conjugate and r = grade of the field the
    potential generates.  The amplitude must satisfy the Lorenz condition on
    the cone and vanish where chi degenerates.

    ``a_hat`` is called once with the (npoints, dim) array of cone nodes
    xi_plus (chi on the flux axis) and returns (npoints, ncomp) amplitude
    rows of grade r - 1 in ``index_lists`` order, real or complex.  Over all
    nodes at once, |A_hat|^2 contracts the rows with the metric of ``dot`` on
    unit blades, and the Lorenz residual xi_plus interior A_hat contracts them
    with the interior ``_derivative_table``.  The first node in grid order
    that breaks a condition raises: ``ValueError`` where chi < CHI_EPS and
    the amplitude is not below 1e-9 (a NaN or infinite amplitude included),
    ``GaugeViolation`` where the Lorenz residual exceeds ``GAUGE_TOL`` times
    max(1, |A_hat|).
    """
    r = grade
    nodes, xi_plus, chi, weights = _cone_nodes(sig, axis, region, points, panels)
    rows = _amplitude_rows(a_hat, xi_plus, sig, r - 1)
    magnitude = np.abs(rows).max(axis=1, initial=0.0)
    degenerate = chi < CHI_EPS
    if r - 1 >= 1:
        table = _derivative_table(sig, r - 1, INTERIOR)
        residual = sum((xi_plus[:, i] * sig.metric(i))[:, None] * (rows @ table[i]) for i in sig.axes())
        gauge = np.abs(residual).max(axis=1)
    else:
        gauge = np.zeros(len(rows))
    bad = np.flatnonzero(np.where(degenerate, ~(magnitude <= 1e-9),
                                  gauge > GAUGE_TOL * np.fmax(1.0, magnitude)))
    if len(bad):
        n = bad[0]
        if degenerate[n]:
            raise ValueError(f"amplitude must vanish near the chi = 0 degeneracy (chi={chi[n]:.3g})")
        raise GaugeViolation(
            f"Lorenz condition violated at xi_bar={nodes[n].tolist()}: residual {gauge[n]:.3e}")
    regular = ~degenerate
    # |A_hat|^2 = sum_a dot(e_a, e_a) |A_a|^2, summed over blades in order
    mod2 = np.zeros(len(rows))
    for a, idx in enumerate(sig.index_lists(r - 1)):
        mod2 = mod2 + (rows[:, a].real ** 2 + rows[:, a].imag ** 2) * sig.metric_list(idx)
    scale = weights[regular] * mod2[regular] / chi[regular]
    # accumulated node by node in grid order
    accum = np.cumsum(scale[:, None] * xi_plus[regular], axis=0)[-1] if regular.any() \
        else np.zeros(sig.dim)
    # the slice sign (-1)^axis, as in flux_T_direct
    prefactor = (-1) ** r * 2.0 * math.pi ** 2 * (-1) ** axis
    return Multivector(sig, 1, {(a,): prefactor * accum[a] for a in sig.axes() if accum[a] != 0.0})


def synthesize_on_cone_potential(a_hat: Callable[[np.ndarray], np.ndarray], axis: int,
                                 region: Mapping[int, tuple[float, float]],
                                 sig: SpacetimeSignature, grade: int,
                                 points: int = DEFAULT_POINTS, panels: int = 1) -> AnalyticField:
    """Real potential synthesized from an on-cone amplitude density.

    Quadrature of the inverse transform restricted to the cone: each node
    contributes cosine modes Re[A_hat(xi_plus) exp(j theta)] / chi, so the
    result pairs with flux_T_fourier over the same region.  ``a_hat`` takes
    the (npoints, dim) cone nodes and returns (npoints, ncomp) rows, as for
    ``flux_T_fourier``.  Node by node in grid order, the mode table holds the
    real part of the rows times weight / chi at phase 0 and, for complex
    rows, the imaginary part at phase pi/2; nodes with chi < CHI_EPS are
    skipped.  Returns a field of the potential grade (r - 1).
    """
    _, xi_plus, chi, weights = _cone_nodes(sig, axis, region, points, panels)
    keep = ~(chi < CHI_EPS)
    xi_plus = xi_plus[keep]
    rows = _amplitude_rows(a_hat, xi_plus, sig, grade - 1)
    scale = (weights[keep] / chi[keep])[:, None]
    # the real part, then the imaginary part, of each node's rows, each pruned
    # as a multivector before and after scaling
    parts = [_pruned(_pruned(part.copy()) * scale) for part in (rows.real, rows.imag)]
    # distinct cone nodes times the phases 0 and pi/2: no two modes share a key
    return _cosine_field(sig, grade - 1, np.stack(parts, axis=1).reshape(-1, rows.shape[1]),
                         np.repeat(xi_plus, 2, axis=0), np.tile([0.0, 0.5 * math.pi], len(xi_plus)),
                         distinct=True)
