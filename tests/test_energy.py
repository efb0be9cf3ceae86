import dataclasses
import json
import math
import re
from itertools import combinations_with_replacement
from pathlib import Path

import numpy as np
import pytest

from extcalc import cli, energy, fields
from extcalc.algebra import (
    GradeError,
    Multivector,
    SpacetimeSignature,
    _product_table,
    dot,
    odot,
    owedge,
)
from extcalc.energy import (
    GaugeViolation,
    _bitensor_tables,
    _cone_nodes,
    _force_table,
    _stress_tables,
    QuadraticTensorField,
    StressTensorField,
    conservation_residual_components,
    flux_T_direct,
    flux_T_fourier,
    lorentz_force,
    stress_tensor_def,
    stress_tensor_explicit,
    stress_tensor_explicit_components,
    synthesize_on_cone_potential,
    tensor_divergence_identity,
    tensor_identity_check,
    trace,
    trace_components,
    trace_formula,
    trace_formula_components,
)
from extcalc.fields import (
    ENVELOPE_CUTOFF,
    EXTERIOR,
    INTERIOR,
    AnalyticField,
    GaussianEnvelope,
    GridField,
    Mode,
    _cosine_field,
    _derivative_at,
    _derivative_table,
    exterior_derivative_field,
    interior_derivative_field,
    plane_wave,
    polynomial_field,
)
from extcalc.integrate import HypersurfaceBox, _composite_rule, bitensor_stokes_check
from extcalc.maxwell import MINKOWSKI, ClassicalFields, classical_pack, null_frequency

from _support import (
    bitensor_table_mismatches,
    merge_with_sign,
    mode_family_fields,
    reference_flux_T_direct,
    reference_flux_T_fourier,
    reference_quadratic_bitensor,
    reference_synthesized_modes,
    reference_tensor_divergence,
    table_bits,
)

EUC3 = SpacetimeSignature(0, 3)
M11 = SpacetimeSignature(1, 1)
M12 = SpacetimeSignature(1, 2)


def random_mv(sig, grade, rng, scale=1.0):
    return Multivector(sig, grade, {idx: scale * float(rng.normal()) for idx in sig.index_lists(grade)})


def random_cos_field(sig, grade, rng, nmodes=2, xi_scale=0.7):
    modes = []
    for _ in range(nmodes):
        modes.append(Mode(amplitude=random_mv(sig, grade, rng),
                          xi=tuple(rng.uniform(-xi_scale, xi_scale, sig.dim)),
                          phase=float(rng.uniform(0, 2 * math.pi))))
    return AnalyticField(sig, grade, modes)


# ---------------------------------------------------------------------------
# Lorentz force
# ---------------------------------------------------------------------------

def test_lorentz_force_zero_source():
    f = random_mv(MINKOWSKI, 2, np.random.default_rng(0))
    assert lorentz_force(f, Multivector.zero(MINKOWSKI, 1)).is_zero()


def test_lorentz_force_grade_check():
    f = random_mv(MINKOWSKI, 2, np.random.default_rng(0))
    with pytest.raises(GradeError):
        lorentz_force(f, random_mv(MINKOWSKI, 2, np.random.default_rng(1)))


def test_lorentz_force_classical_split():
    rng = np.random.default_rng(2)
    for _ in range(10):
        e_vec = rng.normal(size=3)
        b_vec = rng.normal(size=3)
        rho = float(rng.normal())
        j_vec = rng.normal(size=3)
        # pack F and J from constant classical data
        cf = ClassicalFields(
            E=AnalyticField(MINKOWSKI, 1, [Mode(amplitude=Multivector(MINKOWSKI, 1, {(i + 1,): e_vec[i] for i in range(3)}))]),
            B=AnalyticField(MINKOWSKI, 1, [Mode(amplitude=Multivector(MINKOWSKI, 1, {(i + 1,): b_vec[i] for i in range(3)}))]),
            rho=AnalyticField(MINKOWSKI, 0, [Mode(amplitude=Multivector.scalar(MINKOWSKI, rho))]),
            j=AnalyticField(MINKOWSKI, 1, [Mode(amplitude=Multivector(MINKOWSKI, 1, {(i + 1,): j_vec[i] for i in range(3)}))]),
        )
        system = classical_pack(cf)
        x = (0.0, 0.0, 0.0, 0.0)
        force = lorentz_force(system.F.evaluate(x), system.J.evaluate(x))
        # oracle: power density j . E and force density rho E + j x B
        assert force.coeff((0,)) == pytest.approx(float(j_vec @ e_vec), abs=1e-12)
        classical = rho * e_vec + np.cross(j_vec, b_vec)
        for i in range(3):
            assert force.coeff((i + 1,)) == pytest.approx(classical[i], abs=1e-12)


def test_lorentz_force_electrostatic():
    # (0,3), r=1: scalar source times field
    e_field = random_mv(EUC3, 1, np.random.default_rng(3))
    rho = Multivector.scalar(EUC3, 2.5)
    force = lorentz_force(e_field, rho)
    assert (force - 2.5 * e_field).is_zero(1e-14)


# ---------------------------------------------------------------------------
# stress tensor routes
# ---------------------------------------------------------------------------

def all_configs(max_dim):
    for d in range(1, max_dim + 1):
        for k in range(d + 1):
            sig = SpacetimeSignature(k, d - k)
            for r in range(1, d + 1):
                yield sig, r


def test_stress_routes_agree():
    rng = np.random.default_rng(4)
    for sig, r in all_configs(5):
        for _ in range(3):
            f = random_mv(sig, r, rng)
            a = stress_tensor_def(f)
            b = stress_tensor_explicit(f)
            worst = max(abs(a.get(i, j) - b.get(i, j))
                        for i in sig.axes() for j in sig.axes())
            assert worst < 1e-12


def _symmetrised(table):
    return table + table.transpose(0, 2, 1)


def test_stress_table_is_the_explicit_formula():
    # the definition route's bilinear table, the contraction of the public
    # products' unit-blade tables that odot and owedge read, equals the explicit
    # formula's triples as arrays: every coefficient is a multiple of 1/8,
    # so the comparison is exact
    cases = 0
    for d in range(1, 6):
        for k in range(d + 1):
            sig = SpacetimeSignature(k, d - k)
            slot = {pair: p for p, pair in enumerate(combinations_with_replacement(sig.axes(), 2))}
            for r in range(d + 1):
                table, _ = _bitensor_tables(sig, r, "stress")
                explicit = np.zeros_like(table)
                for pair, triples in _stress_tables(sig, r).items():
                    for a, b, c in triples:
                        explicit[slot[pair], a, b] += c
                assert np.array_equal(_symmetrised(table), _symmetrised(explicit)), (k, d - k, r)
                cases += 1
    assert cases == 90


def test_bitensor_tables_are_the_reference_loop_bit_for_bit():
    # values and signs of zeros of the odot, owedge and stress tables on
    # every grade; the seven signatures with k + n = 6 run in CI, at 7 s
    cases = 0
    for d in range(1, 6):
        for k in range(d + 1):
            assert bitensor_table_mismatches(SpacetimeSignature(k, d - k)) == [], (k, d - k)
            cases += 1
    assert cases == 20


def _table_certificates(sig, g, derivative=_derivative_table):
    """The worst residual of each of the paper's identities among the tables on
    grade g, exactly 0.0 where it holds: every entry is a multiple of 1/4, so no
    sum rounds.

    E and I are the exterior and interior ``derivative`` tables.  Partials
    commute, so the second-order identities are symmetrised over the two axes:
    dd = 0, delta delta = 0, and delta d - d delta = (-1)^g box with
    box = sum_i Delta_ii d_i d_i.  At field grade r = g >= 1, the structural
    identity behind conservation, div T + (delta F) _| F + F |_ (dF) = 0, reads
    D[j,i,c,b] + sum_a I[j,c,a] L[a,b,i] + sum_e E[j,c,e] R[e,b,i] = 0 on the
    stress divergence table D, the force table L and the right-interior table R.
    """
    dim, ncomp = sig.dim, math.comb(sig.dim, g)
    ext = {h: derivative(sig, h, EXTERIOR) for h in range(dim + 1)}
    inner = {h: derivative(sig, h, INTERIOR) for h in range(dim + 1)}

    def pair(first, second):
        return np.einsum("iab,jbc->ijac", first, second)

    def symmetrised(residual):
        return float(np.abs(residual + residual.transpose(1, 0, 2, 3)).max(initial=0.0))

    box = np.zeros((dim, dim, ncomp, ncomp))
    if g < dim:
        box += pair(ext[g], inner[g + 1])
    if g > 0:
        box -= pair(inner[g], ext[g - 1])
    metric = np.diag([float(sig.metric(i)) for i in sig.axes()])
    out = {"dd": symmetrised(pair(ext[g], ext[g + 1])) if g < dim else 0.0,
           "delta delta": symmetrised(pair(inner[g], inner[g - 1])) if g > 0 else 0.0,
           "delta d - d delta": symmetrised(box - (-1) ** g * np.einsum("ij,ac->ijac", metric, np.eye(ncomp)))}
    if g > 0:
        structure = _bitensor_tables(sig, g, "stress")[1] \
            + np.einsum("jca,abi->jicb", inner[g], _force_table(sig, g))
        structure = structure + np.einsum("jce,ebi->jicb", ext[g], _product_table(sig, "r", g + 1, g))
        out["structure"] = float(np.abs(structure).max())
    return out


def test_table_certificates_are_exactly_zero():
    cases = [(SpacetimeSignature(k, d - k), g) for d in range(1, 7) for k in range(d + 1) for g in range(d + 1)]
    assert len(cases) == 139
    residuals = {(sig.k, sig.n, g): _table_certificates(sig, g) for sig, g in cases}
    assert {case: res for case, res in residuals.items() if any(res.values())} == {}


@pytest.mark.parametrize("kind", [EXTERIOR, INTERIOR])
def test_table_certificates_catch_a_negated_derivative_entry(kind):
    def negated(sig, grade, which):
        table = _derivative_table(sig, grade, which)
        if (grade, which) == (1, kind):
            table = table.copy()
            a, b = np.argwhere(table[0] != 0)[0]
            table[0, a, b] *= -1
        return table

    sig = SpacetimeSignature(1, 3)
    assert any(any(_table_certificates(sig, g, negated).values()) for g in range(sig.dim + 1))


def test_two_argument_products_match_the_reference_loop():
    # the table sums its products in another order than the loop, so the
    # last bits may differ: 1e-15 of the sum of the magnitudes bounds them
    rng = np.random.default_rng(26)
    cases = 0
    for d in range(1, 6):
        for k in range(d + 1):
            sig = SpacetimeSignature(k, d - k)
            for r in range(d + 1):
                real = [random_mv(sig, r, rng) for _ in range(2)]
                imag = [random_mv(sig, r, rng) for _ in range(2)]
                for f, g in (real, [u + 1j * v for u, v in zip(real, imag)]):
                    scale = np.abs(f.row()).sum() * np.abs(g.row()).sum()
                    for kind, product in (("odot", odot), ("owedge", owedge)):
                        got = product(f, g).row()
                        want = reference_quadratic_bitensor(f, g, kind).row()
                        assert np.abs(got - want).max() <= 1e-15 * scale, (k, d - k, r, kind)
                        cases += 1
    assert cases == 90 * 2 * 2


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_field_gives_non_finite_bitensors(bad):
    f = Multivector(MINKOWSKI, 2, {(0, 1): bad, (2, 3): 1.0})
    for tensor in (stress_tensor_def(f), odot(f, f), owedge(f, f)):
        assert not math.isfinite(tensor.max_abs())


def test_stress_zero_field():
    assert stress_tensor_def(Multivector.zero(MINKOWSKI, 2)).max_abs() == 0
    assert stress_tensor_explicit(Multivector.zero(MINKOWSKI, 2)).max_abs() == 0


def test_energy_density_and_poynting():
    rng = np.random.default_rng(5)
    for _ in range(10):
        e_vec = rng.normal(size=3)
        b_vec = rng.normal(size=3)
        f = Multivector(MINKOWSKI, 2, {(0, i + 1): e_vec[i] for i in range(3)})
        f = f + Multivector(MINKOWSKI, 2, {(2, 3): b_vec[0], (1, 3): -b_vec[1], (1, 2): b_vec[2]})
        t = stress_tensor_explicit(f)
        assert t.get(0, 0) == pytest.approx(0.5 * (e_vec @ e_vec + b_vec @ b_vec), abs=1e-12)
        poynting = np.cross(e_vec, b_vec)
        for i in range(3):
            assert t.get(0, i + 1) == pytest.approx(poynting[i], abs=1e-12)


def test_unit_ex_t00():
    f = Multivector.blade(MINKOWSKI, (0, 1))
    assert stress_tensor_explicit(f).get(0, 0) == pytest.approx(0.5)


def test_trace_law():
    rng = np.random.default_rng(6)
    for sig, r in all_configs(5):
        f = random_mv(sig, r, rng)
        t = stress_tensor_explicit(f)
        assert trace(t) == pytest.approx(trace_formula(f), abs=1e-12)
        if sig.dim == 2 * r:
            assert abs(trace(t)) < 1e-12


def test_batched_explicit_route_and_trace_match_one_row():
    rng = np.random.default_rng(16)
    for sig, r in all_configs(5):
        values = [random_mv(sig, r, rng) for _ in range(3)]
        rows = np.array([[f.coeff(idx) for idx in sig.index_lists(r)] for f in values])
        tensors = stress_tensor_explicit_components(sig, r, rows)
        traces = trace_components(sig, tensors)
        formulas = trace_formula_components(sig, r, rows)
        pairs = list(combinations_with_replacement(sig.axes(), 2))
        for f, tensor, tr, formula in zip(values, tensors, traces, formulas):
            one = stress_tensor_explicit(f)
            assert all(one.get(i, j) == tensor[p] for p, (i, j) in enumerate(pairs))
            assert tr == pytest.approx(trace(one), abs=1e-12)
            assert formula == pytest.approx(trace_formula(f), abs=1e-12)


def test_trace_formula_example():
    # (0,3), r=1, F = e_2 (a unit space direction): (1/2)(3-2)(1) = 1/2
    f = Multivector.blade(EUC3, (2,))
    assert trace_formula(f) == pytest.approx(0.5)
    assert trace(stress_tensor_explicit(f)) == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# derivative identities and conservation
# ---------------------------------------------------------------------------

def test_tensor_identity_constant_field():
    f = AnalyticField(MINKOWSKI, 2, [Mode(amplitude=random_mv(MINKOWSKI, 2, np.random.default_rng(7)))])
    res_odot, res_owedge = tensor_identity_check(f, (0.1, 0.2, 0.3, 0.4))
    assert res_odot.max_abs() < 1e-14
    assert res_owedge.max_abs() < 1e-14


def test_tensor_identity_single_mode_fields():
    # with one shared scalar profile the split identities are exact; this
    # validates both product-bitensor derivative paths independently
    rng = np.random.default_rng(8)
    for sig, r in all_configs(4):
        f = random_cos_field(sig, r, rng, nmodes=1)
        for _ in range(3):
            x = rng.uniform(-1, 1, sig.dim)
            res_odot, res_owedge = tensor_identity_check(f, x)
            assert res_odot.max_abs() < 1e-12
            assert res_owedge.max_abs() < 1e-12


def test_tensor_identity_split_counterexample():
    # hand-computed: F = x_1^2 e_0 + x_0 e_1 on (0,2) has divergence-free
    # interior derivative, but the interior-product bitensor diverges as
    # (x_0 x_1, x_1^2 / 2); the exterior-product residual is the negative
    sig = SpacetimeSignature(0, 2)
    from extcalc.fields import polynomial_field
    f = polynomial_field(Multivector.blade(sig, (0,)), (0, 2)) + \
        polynomial_field(Multivector.blade(sig, (1,)), (1, 0))
    x0, x1 = 0.7, -0.4
    res_odot, res_owedge = tensor_identity_check(f, (x0, x1))
    assert res_odot.coeff((0,)) == pytest.approx(x0 * x1, abs=1e-12)
    assert res_odot.coeff((1,)) == pytest.approx(0.5 * x1 ** 2, abs=1e-12)
    assert (res_odot + res_owedge).max_abs() < 1e-12


def test_tensor_divergence_identity_arbitrary_fields():
    # the summed identity holds for any smooth field, Maxwellian or not
    from extcalc.energy import tensor_divergence_identity
    rng = np.random.default_rng(9)
    for sig, r in all_configs(4):
        f = random_cos_field(sig, r, rng, nmodes=2)
        for _ in range(3):
            x = rng.uniform(-1, 1, sig.dim)
            assert tensor_divergence_identity(f, x).max_abs() < 1e-12


class _CountingField:
    """A field that counts its evaluations: the jet (rows and every partial
    row at once) and the separate value reads."""

    def __init__(self, field):
        self.field, self.signature, self.grade = field, field.signature, field.grade
        self.calls = {"jet": 0, "evaluate": 0}

    def jet(self, points):
        self.calls["jet"] += 1
        return self.field.jet(points)

    def evaluate_components(self, points):
        self.calls["evaluate"] += 1
        return self.field.evaluate_components(points)


def test_identity_checks_evaluate_each_partial_once():
    # one jet holds the value and every partial: each is evaluated once
    f = _CountingField(random_cos_field(MINKOWSKI, 2, np.random.default_rng(17)))
    tensor_identity_check(f, (0.1, 0.2, 0.3, 0.4))
    assert f.calls == {"jet": 1, "evaluate": 0}
    f.calls = {"jet": 0, "evaluate": 0}
    tensor_divergence_identity(f, (0.1, 0.2, 0.3, 0.4))
    assert f.calls == {"jet": 1, "evaluate": 0}


def test_split_residuals_cancel_for_non_maxwellian():
    sig = SpacetimeSignature(2, 2)
    rng = np.random.default_rng(9)
    f = random_cos_field(sig, 2, rng)
    x = rng.uniform(-1, 1, 4)
    assert _derivative_at(f, EXTERIOR, x).max_abs() > 1e-3  # not a solution
    res_odot, res_owedge = tensor_identity_check(f, x)
    assert (res_odot + res_owedge).max_abs() < 1e-12


def vacuum_solution(sig, r, xi, amp_idx):
    """Null plane-wave solution from a transverse potential amplitude."""
    amp = Multivector.blade(sig, amp_idx)
    potential = plane_wave(amp, xi)
    f_field = exterior_derivative_field(potential)
    j_field = interior_derivative_field(f_field)
    return f_field, j_field


@pytest.mark.parametrize("sig,r,xi,amp_idx", [
    (MINKOWSKI, 2, (1.0, 0.0, 0.0, 1.0), (2,)),
    (SpacetimeSignature(2, 2), 2, (1.0, 0.0, 1.0, 0.0), (3,)),
    (M12, 1, (1.0, 1.0, 0.0), ()),
])
def test_conservation_on_vacuum_solutions(sig, r, xi, amp_idx):
    f_field, j_field = vacuum_solution(sig, r, xi, amp_idx)
    rng = np.random.default_rng(10)
    for _ in range(10):
        x = rng.uniform(-1, 1, sig.dim)
        res = conservation_residual_components(f_field, j_field, [x])
        assert np.abs(res).max() < 1e-9


def test_conservation_zero_field():
    f = AnalyticField(MINKOWSKI, 2)
    j = AnalyticField(MINKOWSKI, 1)
    assert not conservation_residual_components(f, j, [(0, 0, 0, 0)]).any()


def test_conservation_detects_non_maxwellian_field():
    # with J := interior derivative of F but nonzero exterior derivative,
    # the residual reduces to the right contraction of the exterior derivative
    rng = np.random.default_rng(13)
    f = random_cos_field(MINKOWSKI, 2, rng)
    j = interior_derivative_field(f)
    from extcalc.algebra import right_interior

    x = rng.uniform(-1, 1, 4)
    hom = _derivative_at(f, EXTERIOR, x)
    assert hom.max_abs() > 1e-3
    res = conservation_residual_components(f, j, [x])[0]
    expect = -1 * right_interior(hom, f.evaluate(x))
    assert np.abs(res).max() > 1e-3
    assert np.abs(res - expect.row()).max() < 1e-12


def test_bitensor_stokes_with_stress_field():
    # cross-module: the stress tensor of a plane wave satisfies the bitensor
    # Stokes identity over a small box
    f_field, _ = vacuum_solution(MINKOWSKI, 2, (1.0, 0.0, 0.0, 1.0), (2,))
    tf = StressTensorField(f_field)
    box = HypersurfaceBox(MINKOWSKI,
                          intervals={0: (0, 0.3), 1: (0, 0.4), 2: (-0.2, 0.2), 3: (0.1, 0.5)},
                          fixed={})
    lhs, rhs, residual = bitensor_stokes_check(tf, box, points=10)
    assert residual < 1e-9 * max(1.0, lhs.max_abs())


# ---------------------------------------------------------------------------
# direct slice flux
# ---------------------------------------------------------------------------

def test_flux_direct_zero_field_with_bounds():
    f = AnalyticField(M11, 1)
    got = flux_T_direct(f, 0, 0.0, bounds={1: (-1.0, 1.0)})
    assert got.is_zero()


def test_flux_direct_requires_envelope_or_bounds():
    f = plane_wave(Multivector.blade(M11, (1,)), (0.0, 1.0))
    with pytest.raises(ValueError):
        flux_T_direct(f, 0, 0.0)


def test_flux_direct_direction_and_scaling():
    env = GaussianEnvelope(center=(0.0, 0.0), width=1.0)
    # rightward packet: F proportional to (e_0 + e_1) cos(2 pi (z - t))
    amp = Multivector(M11, 1, {(0,): 1.0, (1,): 1.0})
    f_right = plane_wave(amp, (1.0, 1.0), envelope=env)
    flux_right = flux_T_direct(f_right, 0, 0.0, points=10, panels=12)
    assert flux_right.coeff((1,)) / flux_right.coeff((0,)) == pytest.approx(1.0, abs=1e-9)

    amp_left = Multivector(M11, 1, {(0,): 1.0, (1,): -1.0})
    f_left = plane_wave(amp_left, (1.0, -1.0), envelope=env)
    flux_left = flux_T_direct(f_left, 0, 0.0, points=10, panels=12)
    assert flux_left.coeff((1,)) / flux_left.coeff((0,)) == pytest.approx(-1.0, abs=1e-9)

    double = flux_T_direct(2.0 * f_right, 0, 0.0, points=10, panels=12)
    assert double.coeff((0,)) == pytest.approx(4.0 * flux_right.coeff((0,)), rel=1e-9)


@pytest.mark.parametrize("k,n", [(1, 2), (1, 3)])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_flux_direct_integrates_the_explicit_tensor(k, n, r):
    # the batched slice flux is the quadrature of stress_tensor_explicit's column
    sig = SpacetimeSignature(k, n)
    rng = np.random.default_rng(40 + 10 * n + r)
    modes = [Mode(amplitude=random_mv(sig, r, rng), xi=tuple(rng.uniform(-0.7, 0.7, sig.dim)),
                  phase=float(rng.uniform(0, 2 * math.pi)), poly=(1,) + (0,) * (sig.dim - 1),
                  envelope=GaussianEnvelope(center=tuple(rng.uniform(-0.2, 0.2, sig.dim)), width=0.8))
             for _ in range(2)]
    f = AnalyticField(sig, r, modes)
    for axis in (0, 1):
        bounds = {a: (-1.0, 1.2) for a in sig.axes() if a != axis}
        got = flux_T_direct(f, axis, 0.3, bounds=bounds, points=4)
        nodes, weights = HypersurfaceBox(sig, intervals=bounds, fixed={axis: 0.3}).grid_points(4)
        _, sign = merge_with_sign((axis,), tuple(a for a in sig.axes() if a != axis))
        want = [sign * sum(w * stress_tensor_explicit(f.evaluate(x)).get(i, axis)
                           for x, w in zip(nodes, weights)) for i in sig.axes()]
        scale = max(map(abs, want))
        assert scale > 0
        for i in sig.axes():
            assert abs(got.coeff((i,)) - want[i]) <= 1e-12 * scale


def random_slice_field(sig, grade, rng, kind, nmodes=3):
    """Real modes of one kind: plain cosines, cosines times a monomial around a
    non-zero centre, enveloped cosines, or all three factors at once."""
    modes = []
    for _ in range(nmodes):
        poly, centre, envelope = (), (), None
        if kind in ("monomial", "mixed"):
            poly = tuple(int(p) for p in rng.integers(0, 3, sig.dim))
            centre = tuple(rng.uniform(-0.5, 0.5, sig.dim))
        if kind in ("envelope", "mixed"):
            envelope = GaussianEnvelope(center=tuple(rng.uniform(-0.3, 0.3, sig.dim)),
                                        width=float(rng.uniform(0.5, 1.0)))
        modes.append(Mode(amplitude=random_mv(sig, grade, rng), xi=tuple(rng.uniform(-0.9, 0.9, sig.dim)),
                          phase=float(rng.uniform(0, 2 * math.pi)), poly=poly, poly_center=centre,
                          envelope=envelope))
    return AnalyticField(sig, grade, modes)


def assert_matches_dense_flux(f, axis, bounds, points, panels, route=None, forms=None):
    """The direct flux against the dense reference at 1e-12 relative (exactly,
    for a field without modes); with ``route``, also that the moments took
    that route ("kronecker" or "blocked"), and with ``forms``, that each free
    axis took that form ("node" or "gram"; the blocked route takes Gram form
    on every axis)."""
    taken, node_axes = [], []
    with pytest.MonkeyPatch.context() as patch:
        for name in ("kronecker", "blocked"):
            inner = getattr(energy, f"_{name}_moments")
            patch.setattr(energy, f"_{name}_moments",
                          lambda *args, inner=inner, name=name: taken.append(name) or inner(*args))
        patch.setattr(energy, "_node_axes", lambda *args, inner=energy._node_axes:
                      node_axes.append(inner(*args)) or node_axes[-1])
        got = flux_T_direct(f, axis, 0.3, bounds=bounds, points=points, panels=panels)
    want = reference_flux_T_direct(f, axis, 0.3, bounds, points=points, panels=panels)
    scale = want.max_abs()
    assert (scale > 0) == (f.mode_count > 0)
    assert (got - want).max_abs() <= 1e-12 * scale
    assert len(taken) == 1 and route in (None, taken[0])
    assert len(node_axes) == (taken[0] == "kronecker")
    node = node_axes[0] if node_axes else []
    taken_forms = tuple("node" if i in node else "gram" for i in range(len(bounds)))
    assert forms in (None, taken_forms)


@pytest.mark.parametrize("kind", ["cos", "monomial", "envelope", "mixed"])
@pytest.mark.parametrize("k,n,r", [(1, 1, 1), (1, 2, 2), (1, 3, 2)])
@pytest.mark.parametrize("axis", [0, 1])
def test_flux_direct_matches_the_dense_reference(kind, k, n, r, axis):
    # 1-, 2- and 3-dimensional slices, composite rules
    sig = SpacetimeSignature(k, n)
    rng = np.random.default_rng([k, n, r, axis, len(kind)])
    f = random_slice_field(sig, r, rng, kind)
    bounds = {a: (-1.0, 1.2) for a in sig.axes() if a != axis}
    assert_matches_dense_flux(f, axis, bounds, points=4, panels=2)


def test_flux_direct_matches_the_dense_reference_across_mode_blocks():
    # 60 modes span four blocks of the Gram accumulation, the last one partial
    rng = np.random.default_rng(61)
    f = random_slice_field(M12, 2, rng, "mixed", nmodes=60)
    assert len(f.modes) == 60
    assert_matches_dense_flux(f, 1, {0: (-1.5, 1.0), 2: (-1.0, 1.2)}, points=5, panels=3,
                              route="blocked")


@pytest.mark.parametrize("k,n,r,forms", [(1, 1, 1, ("node",)), (1, 2, 2, ("gram",) * 2),
                                         (1, 3, 2, ("gram",) * 3)])
def test_flux_direct_matches_the_dense_reference_on_synthesized_fields(k, n, r, forms):
    # modes on the grid of cone nodes share their factor rows: the Kronecker route;
    # on (1,1) the 4 distinct keys outnumber the 2 components, so node form
    sig = SpacetimeSignature(k, n)
    # a spectrum as a config holds it: JSON object keys are strings
    spectrum = {"kind": "scalar" if r == 1 else "spatial-transverse", "width": 0.3,
                "center": {str(a): 1.1 if a == 1 else 0.0 for a in range(1, sig.dim)}}
    a_hat = cli._bump_factory(spectrum, sig, 0, r)
    region = {a: (0.4, 1.8) if a == 1 else (-0.7, 0.7) for a in range(1, sig.dim)}
    potential = synthesize_on_cone_potential(a_hat, 0, region, sig, grade=r, points=4)
    assert potential.mode_count == 4 ** (sig.dim - 1)
    f = exterior_derivative_field(potential)
    assert_matches_dense_flux(f, 0, {a: (-2.0, 2.5) for a in range(1, sig.dim)}, points=4,
                              panels=2, route="kronecker", forms=forms)


def test_flux_direct_takes_node_form_on_one_axis_and_gram_form_on_the_other():
    # 64 distinct xi_1 against 2 xi_2 x 3 components: axis 1 in node form; axis 2's
    # 2 keys against axis 1's 10 nodes x 3 components: Gram form
    rng = np.random.default_rng(28)
    xi = np.zeros((64, 3))
    xi[:, 1] = rng.uniform(-0.9, 0.9, 64)
    xi[:, 2] = np.where(np.arange(64) % 2, 0.4, -0.3)
    f = _cosine_field(M12, 1, rng.normal(size=(64, 3)), xi, rng.uniform(0, 2 * math.pi, 64))
    assert f.mode_count == 64
    assert_matches_dense_flux(f, 0, {1: (-1.0, 1.2), 2: (-0.8, 1.0)}, points=5, panels=2,
                              route="kronecker", forms=("node", "gram"))


@pytest.mark.parametrize("k,n,r", [(1, 1, 1), (1, 2, 2)])
def test_flux_direct_of_a_field_without_modes_is_zero(k, n, r):
    # an empty distinct-key grid: every axis in Gram form, and no division by its size
    sig = SpacetimeSignature(k, n)
    f = AnalyticField(sig, r)
    assert_matches_dense_flux(f, 0, {a: (-1.0, 1.2) for a in range(1, sig.dim)}, points=4,
                              panels=2, route="kronecker", forms=("gram",) * n)


@pytest.mark.parametrize("k,n,route", [(1, 1, "kronecker"), (1, 2, "kronecker"), (1, 3, "blocked")])
def test_flux_direct_takes_the_route_the_distinct_keys_call_for(k, n, route):
    # three generic modes share no keys: d free axes give 3 ** d cells, so the
    # Kronecker grid serves only while that is at most 4 cells per mode
    sig = SpacetimeSignature(k, n)
    f = random_slice_field(sig, 2 if n > 1 else 1, np.random.default_rng([k, n]), "mixed")
    bounds = {a: (-1.0, 1.2) for a in sig.axes() if a != 0}
    assert_matches_dense_flux(f, 0, bounds, points=4, panels=1, route=route)


def test_flux_direct_envelope_bounds_are_the_truncation_radii():
    rng = np.random.default_rng(9)
    f = random_slice_field(M12, 2, rng, "envelope")
    envelopes = [mode.envelope for mode in f.modes]
    # exp(-radius^2 / (2 w^2)) = ENVELOPE_CUTOFF
    radius = [e.width * math.sqrt(2.0 * math.log(1.0 / ENVELOPE_CUTOFF)) for e in envelopes]
    bounds = {a: (min(e.center[a] - r for e, r in zip(envelopes, radius)),
                  max(e.center[a] + r for e, r in zip(envelopes, radius))) for a in (0, 2)}
    assert flux_T_direct(f, 1, 0.3, points=5) == flux_T_direct(f, 1, 0.3, bounds=bounds, points=5)
    with pytest.raises(ValueError, match="empty field needs explicit bounds"):
        flux_T_direct(AnalyticField(M12, 2), 1, 0.3)
    bare = AnalyticField(M12, 2, f.modes + (dataclasses.replace(f.modes[0], envelope=None),))
    with pytest.raises(ValueError, match="every mode must carry a Gaussian envelope"):
        flux_T_direct(bare, 1, 0.3)


def test_flux_direct_rejects_grid_fields():
    source = plane_wave(Multivector.blade(M11, (1,)), (0.0, 1.0))
    grid = GridField.sample(source, origin=(-1.0, -1.0), spacing=(0.5, 0.5), counts=(5, 5))
    for bounds in (None, {1: (-1.0, 1.0)}):
        with pytest.raises(ValueError, match="analytic field with modes"):
            flux_T_direct(grid, 0, 0.0, bounds=bounds)


def test_flux_direct_rejects_complex_field():
    env = GaussianEnvelope(center=(0.0, 0.0), width=1.0)
    f = plane_wave(Multivector.blade(M11, (1,)), (0.0, 1.0), waveform="exp", envelope=env)
    # a complex field is rejected even where its values on the slice are real
    flat = plane_wave(Multivector.blade(M11, (1,)), (0.0, 0.0), waveform="exp", envelope=env)
    for field in (f, flat):
        with pytest.raises(ValueError, match="expects a real field"):
            flux_T_direct(field, 0, 0.0)


# ---------------------------------------------------------------------------
# frequency-domain flux and the (1,1) capstone
# ---------------------------------------------------------------------------

BUMP_CENTER = 1.0
BUMP_WIDTH = 0.15


def scalar_bump_11(xi_plus):
    xi1 = xi_plus[:, 1]
    h = np.exp(-((xi1 - BUMP_CENTER) ** 2) / (2 * BUMP_WIDTH ** 2))
    return h[:, None]


@pytest.mark.parametrize("k,n", [(0, 3), (1, 1), (1, 2), (1, 3), (1, 4), (2, 2)])
def test_cone_nodes_are_the_null_frequency_of_each_node(k, n):
    # the two null completions chi = sqrt(-Delta_ll xi_bar . xi_bar) agree bit for
    # bit, and the cone drops exactly the nodes that null_frequency cannot complete
    sig = SpacetimeSignature(k, n)
    for axis in sig.axes():
        region = {a: (-1.0, 1.0) for a in sig.axes() if a != axis}
        grid, _ = HypersurfaceBox(sig, intervals=region, fixed={axis: 0.0}).grid_points(5, 1)
        nodes, xi_plus, chi, _ = _cone_nodes(sig, axis, region, 5, 1)
        completed = [null_frequency(node.tolist(), axis, sig) for node in grid]
        kept = [c is not None for c in completed]
        assert nodes.tobytes() == grid[kept].tobytes(), axis
        want = np.array([c.row() for c in completed if c is not None], dtype=float).reshape(-1, sig.dim)
        assert xi_plus.tobytes() == want.tobytes() and chi.tobytes() == want[:, axis].tobytes(), axis


def test_fourier_flux_zero_amplitude():
    got = flux_T_fourier(lambda xp: np.zeros((len(xp), 1)), 0, {1: (0.4, 1.6)},
                         M11, grade=1, points=24)
    assert got.is_zero()


def test_capstone_11_direct_vs_fourier_vs_plancherel():
    region = {1: (0.4, 1.6)}
    fourier = flux_T_fourier(scalar_bump_11, 0, region, M11, grade=1, points=32, panels=4)

    # independent oracle: the closed-form value is -2 pi^2 int h^2 dxi (e_0 + e_1)
    nodes, weights = _composite_rule(0.4, 1.6, 32, 4)
    h2 = np.exp(-((nodes - BUMP_CENTER) ** 2) / (BUMP_WIDTH ** 2))
    oracle = -2.0 * math.pi ** 2 * float(weights @ h2)
    assert fourier.coeff((0,)) == pytest.approx(oracle, rel=1e-10)
    assert fourier.coeff((1,)) == pytest.approx(oracle, rel=1e-10)

    potential = synthesize_on_cone_potential(scalar_bump_11, 0, region, M11, grade=1,
                                             points=32, panels=4)
    f_field = exterior_derivative_field(potential)
    z_max = 1.183 / BUMP_WIDTH
    direct = flux_T_direct(f_field, 0, 0.0, bounds={1: (-z_max, z_max)},
                           points=8, panels=40)
    for idx in ((0,), (1,)):
        rel = abs(direct.coeff(idx) - fourier.coeff(idx)) / abs(fourier.coeff(idx))
        assert rel < 0.01


def test_fourier_flux_gauge_violation_detected():
    # a grade-1 amplitude not orthogonal to xi_plus breaks the Lorenz condition
    def bad_amp(xi_plus):
        return np.tile([1.0, 0.0, 0.0], (len(xi_plus), 1))

    with pytest.raises(GaugeViolation):
        flux_T_fourier(bad_amp, 0, {1: (0.5, 1.5), 2: (-0.5, 0.5)}, M12, grade=2, points=8)


def test_synthesized_potential_obeys_lorenz_gauge():
    def amp(xi_plus):
        xi1 = xi_plus[:, 1]
        xi2 = xi_plus[:, 2]
        h = np.exp(-((xi1 - 1.1) ** 2 + xi2 ** 2) / (2 * 0.18 ** 2))
        return np.stack([np.zeros_like(h), -xi2 * h, xi1 * h], axis=1)

    region = {1: (0.4, 1.8), 2: (-0.7, 0.7)}
    potential = synthesize_on_cone_potential(amp, 0, region, M12, grade=2, points=10, panels=2)
    rng = np.random.default_rng(11)
    scale = max(potential.evaluate(rng.uniform(-1, 1, 3)).max_abs(), 1e-6)
    for _ in range(5):
        x = rng.uniform(-2, 2, 3)
        assert _derivative_at(potential, INTERIOR, x).max_abs() < 1e-9 * scale


def _bump(xi_plus, centre, width=0.25):
    return np.exp(-sum((xi_plus[:, a] - c) ** 2 for a, c in centre.items()) / (2 * width ** 2))


def _transverse(xi_plus, h):
    out = np.zeros((len(xi_plus), xi_plus.shape[1]), dtype=h.dtype)
    out[:, 1], out[:, 2] = -xi_plus[:, 2] * h, xi_plus[:, 1] * h
    return out


# (signature, flux axis, field grade, region, points, panels, spectrum)
CONE_CASES = {
    "scalar-11": ((1, 1), 0, 1, {1: (0.4, 1.6)}, 12, 2,
                  lambda xp: _bump(xp, {1: 1.0})[:, None]),
    "vanishing-at-chi-0": ((1, 1), 0, 1, {1: (-0.5, 0.5)}, 7, 1,
                           lambda xp: (xp[:, 1] ** 2 * _bump(xp, {1: 0.2}))[:, None]),
    "space-axis-12": ((1, 2), 1, 1, {0: (0.5, 1.5), 2: (-1.0, 1.0)}, 6, 1,
                      lambda xp: _bump(xp, {0: 1.0, 2: 0.1})[:, None]),
    "transverse-12": ((1, 2), 0, 2, {1: (0.4, 1.8), 2: (-0.7, 0.7)}, 8, 1,
                      lambda xp: _transverse(xp, _bump(xp, {1: 1.1, 2: 0.0}))),
    "complex-12": ((1, 2), 0, 2, {1: (0.4, 1.8), 2: (-0.7, 0.7)}, 6, 2,
                   lambda xp: _transverse(xp, _bump(xp, {1: 1.1}) * np.exp(1j * xp[:, 1]))),
    "transverse-13": ((1, 3), 0, 2, {1: (0.3, 1.5), 2: (-0.6, 0.6), 3: (-0.6, 0.6)}, 4, 1,
                      lambda xp: _transverse(xp, _bump(xp, {1: 0.9}))),
}


@pytest.mark.parametrize("case", sorted(CONE_CASES))
def test_cone_flux_and_synthesis_match_the_per_node_reference(case):
    kn, axis, grade, region, points, panels, a_hat = CONE_CASES[case]
    sig = SpacetimeSignature(*kn)
    got = flux_T_fourier(a_hat, axis, region, sig, grade, points=points, panels=panels)
    want = reference_flux_T_fourier(a_hat, axis, region, sig, grade, points=points, panels=panels)
    assert want.max_abs() > 0
    assert (got - want).max_abs() <= 1e-12 * want.max_abs()
    potential = synthesize_on_cone_potential(a_hat, axis, region, sig, grade, points=points, panels=panels)
    modes = reference_synthesized_modes(a_hat, axis, region, sig, grade, points=points, panels=panels)
    assert potential.mode_count == len(potential.modes) == len(modes)
    scale = max(m.amplitude.max_abs() for m in modes)
    for mode, ref in zip(potential.modes, modes):
        assert mode.phase == ref.phase and mode.waveform == ref.waveform == "cos"
        assert np.allclose(mode.xi, ref.xi, rtol=1e-12, atol=0)
        assert (mode.amplitude - ref.amplitude).max_abs() <= 1e-12 * scale


def assert_no_two_modes_share_a_key(potential):
    # synthesis drops zero rows and groups nothing: a keyed merge finds no pair
    table = potential._table
    count = potential.mode_count
    assert len(fields._sorted_runs(table.data[:, :-1])[1]) == count
    assert table_bits(AnalyticField._from_table(potential.signature, potential.grade,
                                                fields._merged(table)[0])) == table_bits(potential)


@pytest.mark.parametrize("case", sorted(CONE_CASES))
def test_synthesized_modes_share_no_key(case):
    kn, axis, grade, region, points, panels, a_hat = CONE_CASES[case]
    sig = SpacetimeSignature(*kn)
    assert_no_two_modes_share_a_key(synthesize_on_cone_potential(a_hat, axis, region, sig, grade,
                                                                 points=points, panels=panels))


@pytest.mark.parametrize("name", ["flux_compare_11", "flux_compare_12", "flux_compare_13"])
def test_shipped_synthesized_modes_share_no_key(name):
    spec = json.loads((Path(__file__).resolve().parent.parent / "scenarios" / f"{name}.json").read_text())
    sig = SpacetimeSignature(spec["signature"]["k"], spec["signature"]["n"])
    r, axis = spec["r"], spec["axis"]
    region = {int(a): tuple(bounds) for a, bounds in spec["region"].items()}
    a_hat = cli._bump_factory(spec["spectrum"], sig, axis, r)
    assert_no_two_modes_share_a_key(synthesize_on_cone_potential(
        a_hat, axis, region, sig, grade=r, points=spec["freq_points"], panels=spec["freq_panels"]))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_fourier_flux_fails_closed_at_degenerate_nodes(bad):
    # (1,1) with 7 nodes per axis: the middle node is xi_1 = 0, where chi = 0
    def spectrum(xi_plus):
        h = _bump(xi_plus, {1: 0.3})
        return np.where(xi_plus[:, 1] == 0.0, bad, h)[:, None]

    for flux in (flux_T_fourier, reference_flux_T_fourier):
        with pytest.raises(ValueError, match=r"must vanish near the chi = 0 degeneracy \(chi=0\)"):
            flux(spectrum, 0, {1: (-0.5, 0.5)}, M11, 1, points=7)


def test_fourier_flux_names_the_first_offending_node():
    # 5 x 5 nodes, xi_1 slowest: the middle node is xi_bar = 0, where chi = 0
    region = {1: (-0.5, 0.5), 2: (-0.5, 0.5)}

    def spectrum(longitudinal_side):
        def a_hat(xi_plus):
            rows = _transverse(xi_plus, _bump(xi_plus, {1: 0.1}))
            rows[:, 0] = np.where(longitudinal_side * xi_plus[:, 1] > 0.3, 1.0, 0.0)
            return rows + np.where(xi_plus[:, 0] == 0.0, 1.0, 0.0)[:, None]
        return a_hat

    nodes, _ = _composite_rule(-0.5, 0.5, 5, 1)
    for side, error, message in (
            (1, ValueError, r"must vanish near the chi = 0 degeneracy \(chi=0\)"),
            (-1, GaugeViolation, re.escape(f"at xi_bar={[0.0, nodes[0].item(), nodes[0].item()]}: residual "))):
        for flux in (flux_T_fourier, reference_flux_T_fourier):
            with pytest.raises(error, match=message) as raised:
                flux(spectrum(side), 0, region, M12, 2, points=5)
            assert type(raised.value) is error
    # a wrong number of components is a grade error
    with pytest.raises(GradeError, match="grade r - 1 = 1"):
        flux_T_fourier(lambda xp: np.zeros((len(xp), 1)), 0, region, M12, 2, points=4)


def test_stress_field_partial_matches_finite_difference():
    rng = np.random.default_rng(12)
    f = random_cos_field(MINKOWSKI, 2, rng)
    x = rng.uniform(-1, 1, 4)
    h = 1e-6
    slot = {pair: p for p, pair in enumerate(combinations_with_replacement(range(4), 2))}
    for kind in ("odot", "owedge", "stress"):
        tf = QuadraticTensorField(f, kind)
        fd = np.zeros(4)
        for axis in range(4):
            step = h * np.eye(4)[axis]
            ahead, behind = tf.evaluate_components(np.array([x + step, x - step]))
            for i in range(4):
                fd[i] += (ahead - behind)[slot[min(i, axis), max(i, axis)]] / (2 * h)
        exact = tf.divergence_components(x[None, :])[0]
        assert np.abs(fd - exact).max() < 1e-6


def test_divergence_components_match_the_pointwise_reference():
    rng = np.random.default_rng(14)
    cases = 0
    for d in range(1, 5):
        for k in range(d + 1):
            sig = SpacetimeSignature(k, d - k)
            for r in range(d + 1):
                points = rng.uniform(-1, 1, (2, d))
                for name, f in mode_family_fields(sig, r, rng).items():
                    for kind in ("odot", "owedge", "stress"):
                        got = QuadraticTensorField(f, kind).divergence_components(points)
                        want = np.array([reference_tensor_divergence(f, kind, x).vector_components()
                                         for x in points])
                        scale = max(1.0, np.abs(want).max())
                        assert np.abs(got - want).max() < 1e-12 * scale, (k, d - k, r, name, kind)
                        cases += 1
    assert cases == 54 * 5 * 3


def test_conservation_components_match_the_pointwise_reference():
    rng = np.random.default_rng(18)
    cases = 0
    for d in range(1, 5):
        for k in range(d + 1):
            sig = SpacetimeSignature(k, d - k)
            for r in range(1, d + 1):
                points = rng.uniform(-1, 1, (2, d))
                source = mode_family_fields(sig, r - 1, rng)["mixed"]
                for name, f in mode_family_fields(sig, r, rng).items():
                    got = conservation_residual_components(f, source, points)
                    want = np.array([(lorentz_force(f.evaluate(x), source.evaluate(x))
                                      + reference_tensor_divergence(f, "stress", x)).vector_components()
                                     for x in points])
                    scale = max(1.0, np.abs(want).max())
                    assert np.abs(got - want).max() < 1e-12 * scale, (k, d - k, r, name)
                    assert conservation_residual_components(f, source, points[:1])[0].tolist() \
                        == pytest.approx(got[0].tolist(), abs=1e-12 * scale)
                    cases += 1
    assert cases == 40 * 5


def test_nan_amplitude_fails_closed_through_tensor_rows():
    amp = Multivector(MINKOWSKI, 2, {(0, 1): math.nan, (2, 3): 1.0})
    tf = StressTensorField(plane_wave(amp, (1.0, 0.0, 0.0, 1.0)))
    rows = tf.divergence_components(np.array([[0.1, 0.2, 0.3, 0.4], [0.0, 0.0, 0.0, 0.0]]))
    assert np.isnan(rows).all()
    box = HypersurfaceBox(MINKOWSKI, intervals={a: (0.0, 0.2) for a in range(4)}, fixed={})
    _, _, residual = bitensor_stokes_check(tf, box, points=2)
    assert math.isnan(residual)
