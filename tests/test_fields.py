import dataclasses
import math
import re

import numpy as np
import pytest

from extcalc import fields
from extcalc.algebra import Multivector, SpacetimeSignature, dot, inv_hodge
from extcalc.fields import (
    EXTERIOR,
    INTERIOR,
    AnalyticField,
    FieldDomainError,
    GaussianEnvelope,
    GridField,
    Mode,
    constant_field,
    _derivative_at,
    _derivative_table,
    exterior_derivative_components,
    exterior_derivative_field,
    interior_derivative_components,
    interior_derivative_field,
    plane_wave,
    polynomial_field,
)

from _support import (
    ComponentBitensorField,
    axis_partial_field,
    mode_family_fields,
    mode_values,
    product_rule_check,
    reference_dalembertian,
    reference_derivative_field_modes,
    reference_merged,
    reference_merged_modes,
    reference_partial_modes,
    reference_pruned,
    reference_evaluate,
    reference_exterior_derivative,
    reference_interior_derivative,
    reference_keyed_derivative,
    reference_mode_factor,
    reference_mode_kernel,
    table_bits,
)

EUC3 = SpacetimeSignature(0, 3)
MINK = SpacetimeSignature(1, 3)


def random_polynomial_field(sig, grade, rng, max_degree=2):
    modes = []
    for idx in sig.index_lists(grade):
        for _ in range(2):
            exps = tuple(int(rng.integers(0, max_degree + 1)) for _ in range(sig.dim))
            coeff = float(rng.normal())
            modes.append(Mode(amplitude=Multivector.blade(sig, idx, coeff), poly=exps))
    return AnalyticField(sig, grade, modes)


def random_cos_field(sig, grade, rng, nmodes=2):
    modes = []
    for _ in range(nmodes):
        amp = Multivector(sig, grade, {idx: float(rng.normal()) for idx in sig.index_lists(grade)})
        xi = tuple(rng.uniform(-1, 1, sig.dim))
        modes.append(Mode(amplitude=amp, xi=xi, phase=float(rng.uniform(0, 2 * math.pi))))
    return AnalyticField(sig, grade, modes)


# ---------------------------------------------------------------------------
# partial derivatives
# ---------------------------------------------------------------------------

def test_partial_of_constant_is_zero():
    f = constant_field(Multivector.blade(EUC3, (0, 1), 2.5))
    for axis in range(3):
        assert f.partial_at(axis, (0.3, -0.2, 1.0)).is_zero()


def test_partial_cos_mode_examples():
    # cos(2 pi x_1) carried by e_2 (space axis, metric +1)
    f = plane_wave(Multivector.blade(EUC3, (2,)), xi=(0.0, 1.0, 0.0))
    at_peak = f.partial_at(1, (0.0, 0.0, 0.0))
    assert at_peak.is_zero(1e-15)
    at_quarter = f.partial_at(1, (0.0, 0.25, 0.0))
    assert at_quarter.coeff((2,)) == pytest.approx(-2.0 * math.pi, abs=1e-12)


def test_metric_pairing_in_phase():
    # on a time axis the phase gradient carries the metric sign
    f = plane_wave(Multivector.blade(MINK, (1,)), xi=(1.0, 0.0, 0.0, 0.0))
    d0 = f.partial_at(0, (0.25, 0.0, 0.0, 0.0))
    # theta = -2 pi t, derivative of cos at theta = -pi/2 is -sin * (-2 pi) = -2 pi... sign check:
    # d/dt cos(-2 pi t) = 2 pi sin(-2 pi t); at t = 0.25 this is 2 pi sin(-pi/2) = -2 pi
    assert d0.coeff((1,)) == pytest.approx(-2.0 * math.pi, abs=1e-12)


def test_partial_matches_finite_difference_for_envelope():
    rng = np.random.default_rng(3)
    env = GaussianEnvelope(center=(0.3, -0.1, 0.2), width=0.9)
    mode = Mode(amplitude=Multivector.blade(EUC3, (0,), 1.3), xi=(0.4, -0.7, 0.2),
                phase=0.3, poly=(1, 0, 2), poly_center=(0.0, 0.0, 0.0), envelope=env)
    f = AnalyticField(EUC3, 1, [mode])
    for _ in range(5):
        x = rng.uniform(-0.5, 0.5, 3)
        for axis in range(3):
            h = 1e-6
            xp, xm = x.copy(), x.copy()
            xp[axis] += h
            xm[axis] -= h
            fd = (f.evaluate(xp).coeff((0,)) - f.evaluate(xm).coeff((0,))) / (2 * h)
            exact = f.partial_at(axis, x).coeff((0,))
            assert exact == pytest.approx(fd, abs=5e-7)


def test_evaluate_components_matches_pointwise():
    rng = np.random.default_rng(5)
    f = random_cos_field(MINK, 2, rng)
    points = rng.uniform(-1, 1, size=(11, 4))
    dense = f.evaluate_components(points)
    lists = list(MINK.index_lists(2))
    for p, x in enumerate(points):
        mv = f.evaluate(x)
        for pos, idx in enumerate(lists):
            assert dense[p, pos] == pytest.approx(mv.coeff(idx), abs=1e-12)
    # both backends take a list of points as they take the array
    assert f.evaluate_components(points.tolist()).tobytes() == dense.tobytes()
    grid = GridField.sample(f, origin=(-0.2,) * 4, spacing=(0.1,) * 4, counts=(3, 3, 3, 3))
    sites = [[-0.2, -0.1, 0.0, 0.0], [0.0, 0.0, -0.2, -0.1]]
    assert grid.evaluate_components(sites).tobytes() == grid.evaluate_components(np.array(sites)).tobytes()


def mixed_mode_field(sig, grade, rng):
    """Cos and exp modes, monomials around a non-zero centre, and envelopes."""
    modes = []
    for m in range(4):
        amp = Multivector(sig, grade, {idx: complex(rng.normal(), rng.normal()) if m == 3
                                       else float(rng.normal()) for idx in sig.index_lists(grade)})
        poly = tuple(int(p) for p in rng.integers(0, 3, sig.dim)) if m % 2 else ()
        center = tuple(rng.uniform(-0.5, 0.5, sig.dim)) if m % 2 else ()
        env = GaussianEnvelope(center=tuple(rng.uniform(-0.3, 0.3, sig.dim)),
                               width=float(rng.uniform(0.6, 1.2))) if m >= 2 else None
        modes.append(Mode(amplitude=amp, xi=tuple(rng.uniform(-1, 1, sig.dim)),
                          phase=float(rng.uniform(0, 2 * math.pi)),
                          waveform="exp" if m in (1, 2) else "cos",
                          poly=poly, poly_center=center, envelope=env))
    return AnalyticField(sig, grade, modes)


@pytest.mark.parametrize("k,n", [(0, 3), (1, 3), (2, 2)])
@pytest.mark.parametrize("grade", [1, 2])
def test_mode_kernel_matches_reference(k, n, grade):
    # evaluate and evaluate_components (and the fields of each axis's rows of
    # the partial table, whose modes mix every factor) against the per-point
    # formula in _support
    sig = SpacetimeSignature(k, n)
    rng = np.random.default_rng(100 * k + 10 * n + grade)
    f = mixed_mode_field(sig, grade, rng)
    assert {m.waveform for m in f.modes} == {"cos", "exp"}
    points = rng.uniform(-1, 1, size=(7, sig.dim))
    lists = list(sig.index_lists(grade))
    for field in [f] + [axis_partial_field(f, axis) for axis in sig.axes()]:
        dense = field.evaluate_components(points)
        for p, x in enumerate(points):
            want = reference_evaluate(field, x)
            got = field.evaluate(x)
            scale = max(1.0, want.max_abs())
            assert (got - want).max_abs() <= 1e-12 * scale
            for pos, idx in enumerate(lists):
                assert abs(dense[p, pos] - want.coeff(idx)) <= 1e-12 * scale


def kernel_fields(sig, grade, rng):
    """One field per waveform, monomial and envelope mix, each of five modes,
    the mixed field and its partials."""
    def field(waveforms, monomial, envelope):
        modes = []
        for m in range(5):
            amp = Multivector(sig, grade, {idx: float(rng.normal()) for idx in sig.index_lists(grade)})
            modes.append(Mode(
                amplitude=amp, xi=tuple(rng.uniform(-1, 1, sig.dim)), phase=float(rng.uniform(0, 6)),
                waveform=waveforms[m % len(waveforms)],
                poly=tuple(int(p) for p in rng.integers(0, 4, sig.dim)) if monomial else (),
                poly_center=tuple(rng.uniform(-0.5, 0.5, sig.dim)) if monomial else (),
                envelope=GaussianEnvelope(center=tuple(rng.uniform(-0.3, 0.3, sig.dim)),
                                          width=float(rng.uniform(0.6, 1.2)))
                if envelope and m % 2 == 0 else None))
        return AnalyticField(sig, grade, modes)

    out = {f"{'+'.join(waves)}-{monomial}-{envelope}": field(waves, monomial, envelope)
           for waves in (("cos",), ("exp",), ("cos", "exp"))
           for monomial in (False, True) for envelope in (False, True)}
    mixed = mixed_mode_field(sig, grade, rng)
    out.update({"mixed": mixed}, **{f"mixed-d{a}": axis_partial_field(mixed, a) for a in sig.axes()})
    return out


@pytest.mark.parametrize("k,n,grade", [(1, 1, 1), (0, 3, 2), (1, 3, 2)])
def test_stacked_mode_kernel_matches_the_per_mode_loop(k, n, grade):
    sig = SpacetimeSignature(k, n)
    rng = np.random.default_rng([k, n, grade])
    points = rng.uniform(-1, 1, size=(13, sig.dim))
    for name, field in kernel_fields(sig, grade, rng).items():
        got = field.evaluate_components(points)
        want = reference_mode_kernel(field, points)
        assert got.shape == want.shape and got.dtype == want.dtype, name
        assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max()), name


def test_stacked_mode_kernel_of_the_empty_field():
    for field in (AnalyticField(MINK, 2), AnalyticField(MINK, 2, [Mode(amplitude=Multivector.zero(MINK, 2))])):
        assert field.mode_count == 0
        for npoints in (0, 3):
            got = field.evaluate_components(np.zeros((npoints, 4)))
            assert got.shape == (npoints, 6) and not got.any()
            rows, slopes = field.jet(np.zeros((npoints, 4)))
            assert rows.shape == (npoints, 6) and slopes.shape == (4, npoints, 6)
            assert not rows.any() and not slopes.any()


def test_stacked_mode_kernel_across_chunk_boundaries(monkeypatch):
    # 40 modes and a bound of 100 entries: chunks of 2 points, the last one partial
    rng = np.random.default_rng(7)
    field = sum((mixed_mode_field(MINK, 2, rng) for _ in range(10)), AnalyticField(MINK, 2))
    assert field.mode_count == 40
    points = rng.uniform(-1, 1, size=(9, 4))
    whole = field.evaluate_components(points)
    whole_jet = field.jet(points)
    monkeypatch.setattr(fields, "_KERNEL_ENTRIES", 100)
    chunked = field.evaluate_components(points)
    want = reference_mode_kernel(field, points)
    for got in (whole, chunked):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    # the jet's 5 planes of 40 modes take one point a chunk
    for got, want in zip(field.jet(points), whole_jet):
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_stacked_mode_kernel_fails_closed_on_nan():
    # a NaN amplitude or point gives NaN rows, not zeros or a dropped mode
    rng = np.random.default_rng(11)
    field = mixed_mode_field(MINK, 1, rng)
    points = rng.uniform(-1, 1, size=(5, 4))
    points[2, 1] = math.nan
    got = field.evaluate_components(points)
    assert np.isnan(got[2]).all() and not np.isnan(np.delete(got, 2, axis=0)).any()
    bad = Mode(amplitude=Multivector(MINK, 1, {(0,): math.nan, (3,): 1.0}), xi=(0.1, 0.2, 0.0, 0.0))
    nan_field = field + AnalyticField(MINK, 1, [bad])
    got = nan_field.evaluate_components(np.delete(points, 2, axis=0))
    assert np.isnan(got[:, 0]).all() and not np.isnan(got[:, 1:]).any()
    # the jet likewise, in every plane: the NaN amplitude reaches its
    # component's partials also along the axes its mode does not vary on
    rows, slopes = field.jet(points)
    assert np.isnan(rows[2]).all() and np.isnan(slopes[:, 2]).all()
    assert not np.isnan(np.delete(slopes, 2, axis=1)).any()
    rows, slopes = nan_field.jet(np.delete(points, 2, axis=0))
    assert np.isnan(slopes[:, :, 0]).all() and not np.isnan(slopes[:, :, 1:]).any()


def centred_field(sig, grade, rng, waveforms):
    """Six modes with monomial exponents 1, 2 and 3 around one centre c, and
    the centre c itself; modes 0 and 3 carry an envelope at c (no shift),
    modes 1 and 4 one at e (shifted), returned as the third value."""
    centre = tuple(rng.uniform(-0.5, 0.5, sig.dim))
    shifted = tuple(rng.uniform(-0.3, 0.3, sig.dim))
    modes = []
    for m in range(6):
        poly = [0] * sig.dim
        poly[m % sig.dim] = 1 + m % 3
        poly[(m + 1) % sig.dim] += 1
        env = (None, GaussianEnvelope(centre, 0.8), GaussianEnvelope(shifted, 0.7))[(m + 1) % 3]
        modes.append(Mode(
            amplitude=Multivector(sig, grade, {idx: float(rng.normal()) for idx in sig.index_lists(grade)}),
            xi=tuple(rng.uniform(-1, 1, sig.dim)), phase=float(rng.uniform(0, 6)),
            waveform=waveforms[m % len(waveforms)], poly=tuple(poly), poly_center=centre, envelope=env))
    return AnalyticField(sig, grade, modes), centre, shifted


@pytest.mark.parametrize("k,n,grade", [(1, 1, 1), (0, 3, 2), (1, 3, 2), (2, 2, 2)])
def test_jet_matches_the_partial_fields(k, n, grade):
    # the one-pass jet against each axis's partial table rows, on every waveform,
    # monomial and envelope mix, at sample points on a monomial and an envelope centre
    sig = SpacetimeSignature(k, n)
    rng = np.random.default_rng([k, n, grade, 17])
    cases = kernel_fields(sig, grade, rng)
    points = [rng.uniform(-1, 1, size=(11, sig.dim))]
    for waves in (("cos",), ("exp",), ("cos", "exp")):
        cases["centred-" + "+".join(waves)], centre, shifted = centred_field(sig, grade, rng, waves)
        points.append(np.array([centre, shifted]))
    points = np.vstack(points)
    for name, field in cases.items():
        rows, slopes = field.jet(points)
        values = field.evaluate_components(points)
        assert rows.shape == values.shape and slopes.shape == (sig.dim, *values.shape), name
        assert np.abs(rows - values).max() <= 1e-12 * np.abs(values).max(), name
        for axis in sig.axes():
            want = axis_partial_field(field, axis).evaluate_components(points)
            scale = np.abs(want).max(axis=1, keepdims=True)
            assert np.all(np.abs(slopes[axis] - want) <= 1e-12 * scale), (name, axis)


def test_axis_factors_rebuild_each_mode_factor():
    # c_m prod_a E_a[inverse_a[m], i_a] is the mode's complex factor at the node
    rng = np.random.default_rng(3)
    field = mixed_mode_field(MINK, 2, rng)
    nodes = {1: np.array([-0.4, 0.1]), 3: np.array([0.3, 0.7, -0.2])}
    rows, const, factors = field.axis_factors({0: 0.25, 2: -0.6}, nodes)
    assert np.array_equal(rows, field._table.amp)
    for m, mode in enumerate(field.modes):
        for i, x1 in enumerate(nodes[1]):
            for j, x3 in enumerate(nodes[3]):
                got = const[m] * factors[1][0][factors[1][1][m], i] * factors[3][0][factors[3][1][m], j]
                want = reference_mode_factor(mode, (0.25, x1, -0.6, x3))
                if mode.waveform == "cos":
                    got = got.real
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_distinct_rows_match_numpy_unique():
    # the lexsort route against np.unique(axis=0) on repeated rows, 0.0 beside
    # -0.0 (equal as floats), one row and all rows equal
    rng = np.random.default_rng(20)
    tables = [np.array([[0.5, 1.0, 0.0, 0.0, 0.0, 2.0]]), np.tile([0.25, 0.0, -0.0, 1.0, 0.5, 3.0], (7, 1))]
    for _ in range(300):
        pool = rng.choice([-1.5, -0.0, 0.0, 0.25, 2.0], size=(rng.integers(1, 8), 6))
        tables.append(pool[rng.integers(len(pool), size=rng.integers(1, 60))])
    for keys in tables:
        got, inverse = fields._distinct_rows(keys)
        want, want_inverse = np.unique(keys, axis=0, return_inverse=True)
        assert np.array_equal(got, want) and np.array_equal(inverse, want_inverse.reshape(-1))
    # a row holding NaN is distinct from every row, itself included
    keys = np.array([[np.nan, 1.0], [0.0, 1.0], [np.nan, 1.0], [-0.0, 1.0]])
    got, inverse = fields._distinct_rows(keys)
    assert len(got) == 3 and np.array_equal(got[inverse], keys, equal_nan=True)


def test_axis_factors_share_a_row_exactly_when_the_axis_keys_agree():
    # axis 1 is free and axes 0 and 2 fixed; each variant of the base mode changes one thing
    sig = SpacetimeSignature(1, 2)
    env = GaussianEnvelope(center=(0.1, -0.2, 0.3), width=0.8)
    base = Mode(amplitude=Multivector.blade(sig, (1,)), xi=(0.5, 0.7, -0.3), phase=0.2,
                poly=(1, 2, 0), poly_center=(0.1, 0.4, -0.1), envelope=env)

    def shared(mode=base, **changes):
        field = AnalyticField(sig, 1, [mode, dataclasses.replace(mode, **changes)])
        assert field.mode_count == 2
        distinct, inverse = field.axis_factors({0: 0.4, 2: -0.1}, {1: np.array([-0.5, 0.5])})[2][1]
        return len(distinct) == 1 and inverse.tolist() == [0, 0]

    def moved(values, axis, by=0.25):
        return tuple(v + by if a == axis else v for a, v in enumerate(values))

    for changes in ({"xi": moved(base.xi, 1)}, {"poly": moved(base.poly, 1, 1)},
                    {"poly_center": moved(base.poly_center, 1)},
                    {"envelope": GaussianEnvelope(moved(env.center, 1), env.width)},
                    {"envelope": GaussianEnvelope(env.center, 0.9)}, {"envelope": None}):
        assert not shared(**changes), changes
    for changes in ({"phase": 1.1}, {"phase": 1.1, "amplitude": 3 * base.amplitude},
                    {"xi": moved(base.xi, 0)}, {"xi": moved(base.xi, 2)},
                    {"poly": moved(base.poly, 0, 1)}, {"poly_center": moved(base.poly_center, 0)},
                    {"envelope": GaussianEnvelope(moved(env.center, 0), env.width)}):
        assert shared(**changes), changes
    # with no monomial on the axis, the monomial centre there does not matter
    flat = dataclasses.replace(base, poly=(1, 0, 0))
    assert shared(flat, poly_center=moved(flat.poly_center, 1))


# ---------------------------------------------------------------------------
# exterior and interior derivatives
# ---------------------------------------------------------------------------

def test_gradient_of_coordinate():
    omega = polynomial_field(Multivector.scalar(EUC3, 1.0), (0, 1, 0))
    grad = _derivative_at(omega, EXTERIOR, (0.7, 0.1, -0.4))
    assert grad == Multivector.blade(EUC3, (1,), 1.0)


def test_exterior_derivative_matches_classical_curl():
    rng = np.random.default_rng(11)
    v = random_polynomial_field(EUC3, 1, rng)
    for _ in range(5):
        x = rng.uniform(-1, 1, 3)
        dv = {(i, j): v.partial_at(i, x).coeff((j,)) for i in range(3) for j in range(3)}
        curl = (dv[(1, 2)] - dv[(2, 1)], dv[(2, 0)] - dv[(0, 2)], dv[(0, 1)] - dv[(1, 0)])
        got = inv_hodge(_derivative_at(v, EXTERIOR, x)).vector_components()
        assert max(abs(g - c) for g, c in zip(got, curl)) < 1e-10


def test_interior_derivative_matches_classical_divergence():
    rng = np.random.default_rng(12)
    v = random_polynomial_field(EUC3, 1, rng)
    for _ in range(5):
        x = rng.uniform(-1, 1, 3)
        div = sum(v.partial_at(i, x).coeff((i,)) for i in range(3))
        got = _derivative_at(v, INTERIOR, x).scalar_value()
        assert got == pytest.approx(div, abs=1e-10)


@pytest.mark.parametrize("kn,grade", [((1, 1), 1), ((1, 2), 1), ((2, 2), 2), ((0, 3), 1), ((1, 3), 2)])
def test_nilpotency_pointwise(kn, grade):
    sig = SpacetimeSignature(*kn)
    rng = np.random.default_rng(hash(kn) % 2 ** 32)
    f = random_cos_field(sig, grade, rng) + random_polynomial_field(sig, grade, rng)
    for _ in range(10):
        x = rng.uniform(-1, 1, sig.dim)
        ddf = _derivative_at(exterior_derivative_field(f), EXTERIOR, x)
        assert ddf.max_abs() < 1e-10
        iif = _derivative_at(interior_derivative_field(f), INTERIOR, x)
        assert iif.max_abs() < 1e-10


def test_second_derivative_identity():
    # interior of exterior = (-1)^grade (wave operator) + exterior of interior,
    # the wave operator from twice-derived reference modes
    sig = SpacetimeSignature(2, 2)
    rng = np.random.default_rng(21)
    f = random_cos_field(sig, 2, rng)
    for _ in range(10):
        x = rng.uniform(-1, 1, sig.dim)
        lhs = _derivative_at(exterior_derivative_field(f), INTERIOR, x)
        rhs = ((-1) ** f.grade) * reference_dalembertian(f, x) \
            + _derivative_at(interior_derivative_field(f), EXTERIOR, x)
        assert (lhs - rhs).max_abs() < 1e-10


def test_derivative_field_agrees_with_pointwise():
    rng = np.random.default_rng(31)
    f = random_cos_field(MINK, 2, rng)
    for _ in range(5):
        x = rng.uniform(-1, 1, 4)
        assert (exterior_derivative_field(f).evaluate(x) - _derivative_at(f, EXTERIOR, x)).max_abs() < 1e-12
        assert (interior_derivative_field(f).evaluate(x) - _derivative_at(f, INTERIOR, x)).max_abs() < 1e-12


def test_product_rule_residual():
    rng = np.random.default_rng(41)
    v = random_polynomial_field(MINK, 1, rng)
    w = random_polynomial_field(MINK, 2, rng)
    for _ in range(5):
        x = rng.uniform(-1, 1, 4)
        assert product_rule_check(v, w, x) < 1e-10
    zero_v = AnalyticField(MINK, 1)
    assert product_rule_check(zero_v, w, (0.0, 0.0, 0.0, 0.0)) == 0.0


def test_exterior_derivative_of_top_grade_is_zero():
    sig = SpacetimeSignature(0, 2)
    f = constant_field(Multivector.blade(sig, (0, 1), 3.0))
    scalar = constant_field(Multivector.scalar(sig, 2.0))
    assert _derivative_at(f, EXTERIOR, (0.0, 0.0)).is_zero()
    assert _derivative_at(scalar, INTERIOR, (0.0, 0.0)).is_zero()
    # the batched rows of a derivative out of the grade range have no columns
    points = np.zeros((3, 2))
    assert exterior_derivative_components(f, points).shape == (3, 0)
    assert interior_derivative_components(scalar, points).shape == (3, 0)


def _rows(mv, sig, grade, npoints):
    """A reference multivector as the dense row of the batched derivative."""
    if not 0 <= grade <= sig.dim:
        assert mv.is_zero()
        return np.zeros((npoints, 0))
    return np.array([[mv.coeff(idx) for idx in sig.index_lists(grade)]])


def test_derivative_components_match_the_pointwise_reference():
    rng = np.random.default_rng(15)
    cases = 0
    for d in range(1, 5):
        for k in range(d + 1):
            sig = SpacetimeSignature(k, d - k)
            restrictions = {"all": None, "time": range(k), "space": range(k, d)}
            for r in range(d + 1):
                fields = mode_family_fields(sig, r, rng)
                counts = (9,) * d if d < 4 else (5,) * 4
                fields["grid"] = GridField.sample(fields["cos"], (-1.0,) * d, (2.0 / (counts[0] - 1),) * d,
                                                  counts)
                sites = rng.integers(1, counts[0] - 1, size=(3, d))
                for name, f in fields.items():
                    points = -1.0 + sites * fields["grid"].spacing if name == "grid" \
                        else rng.uniform(-1, 1, (3, d))
                    got = exterior_derivative_components(f, points)
                    want = np.vstack([_rows(reference_exterior_derivative(f, x), sig, r + 1, 1)
                                      for x in points])
                    scale = max(1.0, np.abs(want).max(initial=0.0))
                    assert got.shape == want.shape and np.abs(got - want).max(initial=0.0) <= 1e-12 * scale
                    for label, axes in restrictions.items():
                        got = interior_derivative_components(f, points, axes)
                        want = np.vstack([_rows(reference_interior_derivative(f, x, axes), sig, r - 1, 1)
                                          for x in points])
                        scale = max(1.0, np.abs(want).max(initial=0.0))
                        assert got.shape == want.shape, (k, d - k, r, name, label)
                        assert np.abs(got - want).max(initial=0.0) <= 1e-12 * scale, (k, d - k, r, name, label)
                    cases += 1
    assert cases == 54 * 6


def test_derivative_tables_anticommute():
    # T_i T_j + T_j T_i = 0 for both kinds is d(d f) = 0 and the interior
    # analogue for any field, whose second partials are symmetric in i, j
    pairs = 0
    for d in range(1, 6):
        for k in range(d + 1):
            sig = SpacetimeSignature(k, d - k)
            for kind, step in (("exterior", 1), ("interior", -1)):
                for grade in range(d + 1):
                    if not 0 <= grade + 2 * step <= d:
                        continue
                    first = _derivative_table(sig, grade, kind)
                    second = _derivative_table(sig, grade + step, kind)
                    assert first.any() and second.any()
                    for i in range(d):
                        for j in range(i, d):
                            assert not (first[i] @ second[j] + first[j] @ second[i]).any(), \
                                (k, d - k, kind, grade, i, j)
                    pairs += 1
    assert pairs == 2 * sum((d + 1) * (d - 1) for d in range(2, 6))


@pytest.mark.parametrize("width", [0.0, -1.0, math.nan, math.inf, -math.inf])
def test_envelope_width_must_be_finite_and_positive(width):
    # a NaN width would otherwise read as "no envelope" in the mode table
    with pytest.raises(ValueError, match="envelope width must be finite and positive"):
        GaussianEnvelope(center=(0.0, 0.0, 0.0), width=width)


@pytest.mark.parametrize("poly", [(1.5, 0, 0), (0, -1, 0), (0, 0, math.nan), (math.inf, 0, 0)])
def test_monomial_exponents_must_be_nonnegative_integers(poly):
    with pytest.raises(ValueError, match="monomial exponents must be nonnegative integers"):
        Mode(amplitude=Multivector.blade(EUC3, (0,)), poly=poly)
    # integral floats are exponents
    assert Mode(amplitude=Multivector.blade(EUC3, (0,)), poly=(2.0, 0, 1)).poly == (2, 0, 1)


def test_field_refuses_a_foreign_signature_then_a_wrong_grade():
    vector = Mode(amplitude=Multivector.blade(MINK, (1,)), xi=(0.5, 0.5, 0.0, 0.0))
    foreign = Mode(amplitude=Multivector.blade(SpacetimeSignature(2, 2), (1,)))
    bivector = Mode(amplitude=Multivector.blade(MINK, (0, 1)))
    with pytest.raises(ValueError, match="mode amplitude signature does not match the field"):
        AnalyticField(MINK, 1, [vector, foreign])
    with pytest.raises(ValueError, match=re.escape("mode amplitude grade 2 != field grade 1")):
        AnalyticField(MINK, 1, [vector, bivector])
    # a zero amplitude is checked too
    with pytest.raises(ValueError, match=re.escape("mode amplitude grade 2 != field grade 1")):
        AnalyticField(MINK, 1, [Mode(amplitude=Multivector.zero(MINK, 2))])
    # signatures are checked as the modes come, then grades, as the JSON reader checks them
    with pytest.raises(ValueError, match="mode amplitude signature does not match the field"):
        AnalyticField(MINK, 1, [bivector, foreign])


def test_partial_fields_keep_the_replace_construction():
    rng = np.random.default_rng(16)
    for kn in ((1, 3), (2, 2), (0, 3), (1, 1)):
        sig = SpacetimeSignature(*kn)
        for r in range(sig.dim + 1):
            fields = mode_family_fields(sig, r, rng)
            amp = Multivector(sig, r, {idx: float(rng.normal()) for idx in sig.index_lists(r)})
            shifted = GaussianEnvelope(center=tuple(rng.uniform(-0.5, 0.5, sig.dim)), width=1.2)
            fields["shifted"] = AnalyticField(sig, r, [Mode(
                amplitude=amp, xi=tuple(rng.uniform(-0.7, 0.7, sig.dim)), poly=(1,) * sig.dim,
                poly_center=tuple(rng.uniform(-0.5, 0.5, sig.dim)), envelope=shifted)])
            for f in fields.values():
                for axis in sig.axes():
                    want = reference_partial_modes(f.modes, axis)
                    assert mode_values(axis_partial_field(f, axis).modes) == mode_values(want)


@pytest.mark.parametrize("k,n", [(k, d - k) for d in range(1, 5) for k in range(d + 1)])
def test_derived_fields_match_the_multivector_route(k, n):
    # the mode table's per-axis partial rows, exterior and interior derivative
    # fields, sums, scalings and merges list the same modes in the same order
    # with coefficients equal in value to per-mode multivector products whose
    # equal modes are merged by summing their rows and pruning once
    sig = SpacetimeSignature(k, n)
    rng = np.random.default_rng(10 * k + n)

    def same(field, modes):
        assert mode_values(field.modes) == mode_values(modes)

    for r in range(sig.dim + 1):
        fields = mode_family_fields(sig, r, rng)
        blade = next(iter(sig.index_lists(r)))
        # integer and complex coefficients, repeated and cancelling modes
        extra = [Mode(amplitude=Multivector.blade(sig, blade), poly=(2,) * sig.dim),
                 Mode(amplitude=Multivector.blade(sig, blade, 3), poly=(2,) * sig.dim),
                 Mode(amplitude=Multivector.blade(sig, blade, 0.5j), xi=(0.3,) * sig.dim, waveform="exp")]
        blades = list(sig.index_lists(r))
        if len(blades) > 1:
            # a real sum whose second entry cancels below the relative prune
            # part way, and stays in the sum: the group is pruned once
            pair = [Mode(amplitude=Multivector(sig, r, {blades[0]: 1.0, blades[1]: 0.1 + 1e-16}),
                         poly=(3,) * sig.dim),
                    Mode(amplitude=Multivector(sig, r, {blades[1]: -0.1}), poly=(3,) * sig.dim),
                    Mode(amplitude=Multivector(sig, r, {blades[1]: 0.3}), poly=(3,) * sig.dim)]
            same(AnalyticField(sig, r, pair), reference_merged_modes(pair))
            extra += pair
        modes = [m for f in fields.values() for m in f.modes] + extra
        modes += modes[::2] + [dataclasses.replace(m, amplitude=-1 * m.amplitude) for m in modes[1::3]]
        fields["merged"] = AnalyticField(sig, r, modes)
        same(fields["merged"], reference_merged_modes(modes))
        # a factor of 0 zeroes every row; the table keeps its keys, so no row is regrouped
        for factor in (2, -1, 0.5, 0.25 - 0.5j, 0):
            same(fields["merged"] * factor, reference_merged_modes(
                dataclasses.replace(m, amplitude=m.amplitude * factor) for m in fields["merged"].modes))
        same(fields["cos"] + fields["exp"], reference_merged_modes(fields["cos"].modes + fields["exp"].modes))

        for f in fields.values():
            for axis in sig.axes():
                same(axis_partial_field(f, axis), reference_partial_modes(f.modes, axis))
            same(exterior_derivative_field(f), reference_derivative_field_modes(f, "exterior"))
            same(interior_derivative_field(f), reference_derivative_field_modes(f, "interior"))


def test_merging_opposite_infinities_warns_of_nothing():
    # inf e_0 + -inf e_0 merge into one NaN amplitude, which fails closed;
    # pytest turns a RuntimeWarning from the addition into an error
    sig = SpacetimeSignature(0, 2)
    field = AnalyticField(sig, 1, [Mode(amplitude=Multivector.blade(sig, (0,), c)) for c in (math.inf, -math.inf)])
    assert field.mode_count == 1
    assert np.isnan(field._table.amp).tolist() == [[True, False]]


def adversarial_tables(rng, count):
    """Mode tables whose key rows repeat, mix 0.0 with -0.0 and hold NaN and
    +-inf, with real or complex amplitudes that repeat, cancel or are
    non-finite, one to three parts (or none), and sizes from empty to 150
    rows; the last few are all-equal tables."""
    specials = np.array([0.0, -0.0, 0.5, -1.25, 3.0, math.nan, math.inf, -math.inf])
    odds = np.array([6, 6, 4, 4, 4, 1, 1, 1], dtype=float)
    for i in range(count):
        dim = int(rng.integers(1, 4))
        ncomp = int(rng.integers(1, 4))
        rows = int(rng.choice([0, 1, 2, 3, 5, 8, 20, 32, 33, 40, 64, 150]))
        pool = specials[rng.choice(len(specials), size=(int(rng.integers(1, rows + 2)), 4 * dim + 4),
                                   p=odds / odds.sum())]
        if i >= count - 8:
            # all-equal: one finite key row, repeated
            pool = np.nan_to_num(pool[:1], nan=0.5, posinf=3.0, neginf=-1.25)
        data = pool[rng.integers(len(pool), size=rows)]
        flip = (data == 0) & (rng.random(data.shape) < 0.5)
        data[flip] = -data[flip]
        amp = rng.choice([0.0, -0.0, 1.0, -1.0, 2.0, 0.25, math.nan, math.inf, -math.inf],
                         size=(rows, ncomp), p=[0.2, 0.1, 0.2, 0.2, 0.1, 0.1, 0.04, 0.03, 0.03])
        if rng.random() < 0.4:
            amp = amp.astype(complex)
            amp.imag = rng.choice([0.0, 1.0, -1.0, math.inf], size=amp.shape, p=[0.4, 0.3, 0.27, 0.03])
        nparts = int(rng.integers(0, 4))
        part = rng.integers(nparts, size=rows).astype(np.intp) if nparts else None
        yield fields._ModeTable(amp, data), part


def test_merge_matches_the_dict_of_key_tuples():
    # bit for bit the dict route: amplitudes with their dtype, data, parts
    # and order
    rng = np.random.default_rng(18)
    for table, part in adversarial_tables(rng, 1500):
        copy = None if part is None else part.copy()
        # the merge itself adds inf and -inf without a warning
        got, got_part = fields._merged(table, part)
        with np.errstate(invalid="ignore"):
            want, want_part = reference_merged(table, copy)
        assert got.amp.dtype == want.amp.dtype and got.amp.shape == want.amp.shape
        assert got.amp.tobytes() == want.amp.tobytes()
        assert got.data.shape == want.data.shape and got.data.tobytes() == want.data.tobytes()
        assert got_part.dtype == want_part.dtype and got_part.tobytes() == want_part.tobytes()


def test_a_group_is_summed_whole_then_pruned_once():
    # (0.1 + 1e-16) - 0.1 is below the relative prune beside 1.0, yet it stays
    # in the sum: the entry is the group's whole sum, not 0.3
    amp = np.array([[1.0, 0.1 + 1e-16], [0.0, -0.1], [0.0, 0.3]])
    merged = fields._merged(fields._ModeTable(amp, np.zeros((3, 8))))[0]
    assert merged.amp.tolist() == [[1.0, ((0.1 + 1e-16) - 0.1) + 0.3]]
    assert ((0.1 + 1e-16) - 0.1) + 0.3 != 0.3


def test_prune_matches_the_row_reductions_bit_for_bit():
    # the peak by reduceat and the sum only where the peak could overflow it:
    # the bytes of the row reductions, on rows near the float range, with
    # NaN, +-inf, -0.0 and complex parts beyond the range, and empty arrays
    rng = np.random.default_rng(36)
    big = np.finfo(float).max
    specials = np.array([0.0, -0.0, math.nan, math.inf, -math.inf, big, -big, big / 2, big / 3, 1e300, 1e-300,
                         5e-324, 1.0, -2.5, 1e-15, 1e-14, 3e-13])
    for _ in range(3000):
        rows, ncomp = int(rng.integers(0, 40)), int(rng.integers(0, 21))
        amp = rng.normal(size=(rows, ncomp)) * 10.0 ** rng.integers(-30, 30, size=(rows, ncomp))
        pick = rng.random(amp.shape) < rng.choice([0.0, 0.1, 0.5])
        amp[pick] = rng.choice(specials, size=np.count_nonzero(pick))
        # rows at the overflow bound of the peak
        edge = rng.random(rows) < 0.2
        amp[edge] = np.nextafter(big / (2 * max(ncomp, 1)), rng.choice([0.0, math.inf]))
        if rng.random() < 0.4:
            amp = amp.astype(complex)
            amp.imag = np.where(rng.random(amp.shape) < 0.3, rng.choice(specials, size=amp.shape), 0.0)
        want = reference_pruned(amp.copy())
        got = fields._pruned(amp.copy())
        assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def test_merge_by_source_matches_the_keyed_merge():
    # rows whose key is their source's data row merge as the keyed grouping
    # (the dict of key tuples) merges them: amplitudes, data, parts and order
    rng = np.random.default_rng(34)
    for table, part in adversarial_tables(rng, 600):
        # no NaN, which matches nothing, and the last column, which is no key, zero
        data = np.nan_to_num(table.data, nan=7.0)
        data[:, -1] = 0.0
        keys, source = fields._distinct_rows(data)
        copy = None if part is None else part.copy()
        with np.errstate(invalid="ignore"):
            got, got_part = fields._merged(fields._ModeTable(table.amp, keys), part, source=source)
            want, want_part = reference_merged(fields._ModeTable(table.amp, keys[source]), copy)
        assert table_bits(AnalyticField._from_table(EUC3, 0, got)) \
            == table_bits(AnalyticField._from_table(EUC3, 0, want))
        assert got_part.tobytes() == want_part.tobytes()


def test_merge_by_source_does_not_depend_on_the_labels():
    # the fold orders groups by their first row, not by label: the sources
    # relabelled by a permutation (their key rows moved with them) give the
    # same bytes in the same order
    rng = np.random.default_rng(18)
    for table, part in adversarial_tables(rng, 1500):
        keys, source = fields._distinct_rows(np.nan_to_num(table.data, nan=7.0))
        label = rng.permutation(len(keys))
        relabelled = np.empty_like(keys)
        relabelled[label] = keys
        with np.errstate(invalid="ignore"):
            got, got_part = fields._merged(fields._ModeTable(table.amp, relabelled), part, source=label[source])
            want, want_part = fields._merged(fields._ModeTable(table.amp, keys), part, source=source)
        assert got.amp.dtype == want.amp.dtype and got.amp.tobytes() == want.amp.tobytes()
        assert got.data.shape == want.data.shape and got.data.tobytes() == want.data.tobytes()
        assert got_part.tobytes() == want_part.tobytes()


WAVE_SIGNATURES = [(0, 3), (1, 1), (1, 2), (1, 3), (1, 4), (2, 2), (2, 3)]


def random_wave_field(sig, grade, rng, nmodes):
    """Modes with no monomial and no envelope, cosine or exponential: normal
    amplitudes, complex in some fields, xi from three rows (so modes repeat
    them) with about a third of the entries zero, and phases from five
    values, 0.0 and -0.0 among them."""
    complex_amplitudes = rng.random() < 0.4
    xis = np.where(rng.random((3, sig.dim)) < 0.3, 0.0, rng.uniform(-1.0, 1.0, (3, sig.dim)))
    phases = [0.0, -0.0, 0.5 * math.pi, 3.0, float(rng.uniform(0.0, 2.0 * math.pi))]
    modes = []
    for _ in range(nmodes):
        terms = {idx: complex(rng.normal(), rng.normal()) if complex_amplitudes else float(rng.normal())
                 for idx in sig.index_lists(grade) if rng.random() < 0.8}
        modes.append(Mode(Multivector(sig, grade, terms), tuple(xis[rng.integers(3)]),
                          phases[rng.integers(len(phases))], "exp" if rng.random() < 0.3 else "cos"))
    return AnalyticField(sig, grade, modes)


def assert_derivatives_match_the_keyed_grouping(f):
    for kind in (EXTERIOR, INTERIOR):
        got = fields._derivative_field(f, kind)
        want = reference_keyed_derivative(f, kind)
        assert got.grade == want.grade and table_bits(got) == table_bits(want)


@pytest.mark.parametrize("k,n", WAVE_SIGNATURES)
def test_wave_field_derivatives_match_the_keyed_grouping(k, n):
    # no monomial and no envelope: the rows merge by source mode, with the
    # bytes and order of the keyed grouping, on tables of 1 to 40 modes
    sig = SpacetimeSignature(k, n)
    rng = np.random.default_rng([k, n, 32])
    for grade in range(sig.dim):
        for nmodes in (1, 3, 12, 40):
            f = random_wave_field(sig, grade, rng, nmodes)
            assert f._partial_table()[2] is not None
            assert_derivatives_match_the_keyed_grouping(f)


def test_phases_meeting_after_the_step_take_the_keyed_grouping():
    # 0.0 and 1e-17 are distinct keys that both step to pi/2, so their
    # partials share a key: one mode, as the keyed grouping merges them
    amplitude = Multivector.blade(MINK, (1,), 1.0)
    f = AnalyticField(MINK, 1, [Mode(amplitude, (0.3, 0.2, 0.0, 0.1), phase) for phase in (0.0, 1e-17)])
    assert f.mode_count == 2 and f._partial_table()[2] is None
    for kind in (EXTERIOR, INTERIOR):
        assert fields._derivative_field(f, kind).mode_count == 1
    assert_derivatives_match_the_keyed_grouping(f)


def test_monomial_envelope_and_nan_keys_take_the_keyed_grouping():
    # one such mode among plain ones sends the whole table the keyed way
    rng = np.random.default_rng(33)
    for k, n in WAVE_SIGNATURES:
        sig = SpacetimeSignature(k, n)
        dim = sig.dim
        for grade in range(dim):
            waves = random_wave_field(sig, grade, rng, 8).modes
            amplitude = Multivector.blade(sig, tuple(range(grade)), 1.5)
            xi = tuple(rng.uniform(-1.0, 1.0, dim))
            for extra in (Mode(amplitude, xi, 0.2, poly=(1,) + (0,) * (dim - 1)),
                          Mode(amplitude, xi, 0.2, envelope=GaussianEnvelope((0.1,) * dim, 0.8)),
                          Mode(amplitude, (math.nan,) + xi[1:], 0.2)):
                f = AnalyticField(sig, grade, [*waves, extra])
                assert f._partial_table()[2] is None
                with np.errstate(invalid="ignore"):
                    assert_derivatives_match_the_keyed_grouping(f)
            # an exponent of -0.0, which the exponent step turns into +0.0
            table = AnalyticField(sig, grade, waves)._table
            table.data[0, table.column(fields._POLY, 0)] = -0.0
            f = AnalyticField._from_table(sig, grade, table)
            assert f._partial_table()[2] is None
            assert_derivatives_match_the_keyed_grouping(f)


def test_cis_is_exp_of_j_angle_bit_for_bit():
    # cos and sin written into a complex array: the bytes of np.exp(1j * x),
    # -0.0 and huge angles included; both are NaN at an infinite or NaN angle
    rng = np.random.default_rng(35)
    powers = 2.0 ** rng.integers(-1074, 1023, 500) * rng.choice([-1.0, 1.0], 500)
    angle = np.concatenate([rng.normal(size=4000) * 10.0, rng.normal(size=2000) * 1e8,
                            rng.uniform(-1e300, 1e300, 500), powers,
                            [0.0, -0.0, 5e-324, -5e-324, 1e-17, math.pi, -math.pi, 1e22, 2.0 ** 1023,
                             math.inf, -math.inf, math.nan]])
    for x in (angle, np.multiply.outer(rng.normal(size=64) * 5.0, rng.normal(size=100))):
        with np.errstate(invalid="ignore"):
            want, got = np.exp(1j * x), fields._cis(x)
        finite = np.isfinite(x)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got[finite].tobytes() == want[finite].tobytes()
        for z in (got[~finite], want[~finite]):
            assert np.isnan(z.real).all() and np.isnan(z.imag).all()
    assert np.signbit(fields._cis(np.array([-0.0])).imag).tolist() == [False]


# ---------------------------------------------------------------------------
# grid backend
# ---------------------------------------------------------------------------

def smooth_source():
    modes = [Mode(amplitude=Multivector.blade(EUC3, (0,), 1.0), xi=(0.3, 0.2, -0.1)),
             Mode(amplitude=Multivector.blade(EUC3, (1,), 0.5), xi=(-0.2, 0.4, 0.1), phase=0.7)]
    return AnalyticField(EUC3, 1, modes)


def test_grid_evaluate_and_errors():
    source = smooth_source()
    grid = GridField.sample(source, origin=(-0.5, -0.5, -0.5), spacing=(0.25, 0.25, 0.25), counts=(5, 5, 5))
    x = (-0.25, 0.0, 0.25)
    assert (grid.evaluate(x) - source.evaluate(x)).max_abs() < 1e-12
    with pytest.raises(FieldDomainError):
        grid.evaluate((0.1, 0.0, 0.0))  # off lattice
    with pytest.raises(FieldDomainError):
        grid.evaluate((2.0, 0.0, 0.0))  # outside
    with pytest.raises(FieldDomainError):
        grid.partial_at(0, (-0.5, 0.0, 0.0))  # boundary site has no lower neighbour
    # the batched partial raises the same message for the first edge site
    with pytest.raises(FieldDomainError,
                       match=r"axis 0 neighbours of site \(0, 2, 2\) fall outside the lattice"):
        grid.jet(np.array([x, (-0.5, 0.0, 0.0), (0.5, 0.0, 0.0)]))
    # batched lattice reads: row by row equal to evaluate, in index_lists order
    lists = [(0,), (1,), (2,)]
    sites = np.array([[-0.5, -0.5, -0.5], [0.5, 0.25, -0.25], x, [0.0, 0.5, 0.0]])
    rows = grid.evaluate_components(sites)
    assert rows.shape == (4, 3)
    for point, row in zip(sites, rows):
        assert row.tolist() == [grid.evaluate(point).coeff(idx) for idx in lists]
    # batched central differences: row by row equal to partial_at on interior sites
    inner = np.array([x, [0.25, -0.25, 0.0], [0.0, 0.25, 0.25]])
    for axis, slopes in enumerate(grid.jet(inner)[1]):
        assert slopes.shape == (3, 3)
        for point, row in zip(inner, slopes):
            assert row.tolist() == [grid.partial_at(axis, point).coeff(idx) for idx in lists]
    # the first bad point raises, off the lattice or out of range
    with pytest.raises(FieldDomainError, match=r"\[0\.1, 0\.0, 0\.0\] is not on the sampling lattice"):
        grid.evaluate_components(np.array([x, (0.1, 0.0, 0.0), (2.0, 0.0, 0.0)]))
    with pytest.raises(FieldDomainError, match=r"\[2\.0, 0\.0, 0\.0\] lies outside the sampled lattice"):
        grid.evaluate_components(np.array([x, (2.0, 0.0, 0.0), (0.1, 0.0, 0.0)]))
    # a non-finite origin, spacing or value is refused, whether a stencil would read it or not
    for origin, spacing in (((math.nan, -0.5, -0.5), grid.spacing), (grid.origin, (0.25, math.nan, 0.25)),
                            (grid.origin, (0.25, 0.25, math.inf))):
        with pytest.raises(ValueError, match="must be finite"):
            GridField(grid.signature, grid.grade, origin, spacing, grid.values)
    for value in (math.nan, math.inf, -math.inf):
        values = grid.values.copy()
        values[0, 0, 0, 0] = value
        with pytest.raises(ValueError, match="grid values must be finite"):
            GridField(grid.signature, grid.grade, grid.origin, grid.spacing, values)


def test_grid_rejects_imaginary_parts():
    sig = SpacetimeSignature(0, 1)
    values = np.zeros((3, 1), dtype=complex)
    values[1, 0] = 1.0 + 0.5j
    with pytest.raises(ValueError, match="imaginary"):
        GridField(sig, 1, (0.0,), (0.5,), values)
    values[1, 0] = 1.0 + 0.0j
    grid = GridField(sig, 1, (0.0,), (0.5,), values)
    assert grid.values.dtype == float and grid.evaluate((0.5,)).coeff((0,)) == 1.0
    # sampling a complex-exponential wave keeps its imaginary part, so it fails
    wave = plane_wave(Multivector.blade(EUC3, (0,)), xi=(0.3, 0.0, 0.0), waveform="exp")
    with pytest.raises(ValueError, match="imaginary"):
        GridField.sample(wave, origin=(0.0, 0.0, 0.0), spacing=(0.25, 0.25, 0.25), counts=(3, 3, 3))


def test_grid_partial_rejects_an_axis_out_of_range():
    # the axis is checked against the dimension, not the component count
    grid = GridField.sample(constant_field(Multivector.blade(MINK, (0, 1))), origin=(0.0,) * 4,
                            spacing=(0.5,) * 4, counts=(3,) * 4)
    x = (0.5, 0.5, 0.5, 0.5)
    assert grid.partial_at(3, x).is_zero()
    for axis in (-1, 4):
        with pytest.raises(IndexError, match=f"axis {axis} out of range"):
            grid.partial_at(axis, x)


def test_grid_jet_is_the_values_and_every_central_difference():
    source = smooth_source()
    grid = GridField.sample(source, origin=(-0.5, -0.5, -0.5), spacing=(0.25, 0.25, 0.25), counts=(5, 5, 5))
    inner = np.array([(-0.25, 0.0, 0.25), (0.25, -0.25, 0.0), (0.0, 0.25, 0.25)])
    rows, slopes = grid.jet(inner)
    assert rows.tobytes() == grid.evaluate_components(inner).tobytes()
    want = np.stack([grid._jet(inner, (axis,))[1][0] for axis in range(3)])
    assert slopes.shape == want.shape and slopes.tobytes() == want.tobytes()
    # the first bad point raises as the values, then the partials axis by axis, would
    for bad in ([(0.1, 0.0, 0.0), (2.0, 0.0, 0.0)], [(0.0, -0.5, 0.0), (0.0, 0.0, 0.5), (-0.5, 0.0, 0.0)],
                [(0.0, 0.0, 0.5), (0.0, 0.5, 0.0)], [(0.0, 0.0, 2.0), (0.0, 0.5, 0.0)]):
        points = np.vstack([inner, bad])
        with pytest.raises(FieldDomainError) as want_error:
            grid.evaluate_components(points)
            for axis in range(3):
                grid._jet(points, (axis,))
        with pytest.raises(FieldDomainError, match=re.escape(str(want_error.value))):
            grid.jet(points)


def test_grid_central_difference_second_order():
    source = smooth_source()
    x = np.array([0.3, 0.1, -0.2])
    exact = source.partial_at(0, x).coeff((0,))
    errors = []
    for h in (0.08, 0.04):
        grid = GridField.sample(source, origin=x - 4 * h, spacing=(h, h, h), counts=(9, 9, 9))
        approx = grid.partial_at(0, x).coeff((0,))
        errors.append(abs(approx - exact))
    ratio = errors[0] / errors[1]
    assert 3.5 <= ratio <= 4.5


# ---------------------------------------------------------------------------
# bitensor fields
# ---------------------------------------------------------------------------

def test_component_bitensor_field_interior_derivative():
    sig = SpacetimeSignature(0, 2)
    # T_00 = x_0, T_01 = x_1, T_11 = 2 x_0: sum_j d_j T_ij:
    # i=0: d_0 T_00 + d_1 T_01 = 1 + 1 = 2 ; i=1: d_0 T_10 + d_1 T_11 = 0
    comps = {
        (0, 0): polynomial_field(Multivector.scalar(sig, 1.0), (1, 0)),
        (0, 1): polynomial_field(Multivector.scalar(sig, 1.0), (0, 1)),
        (1, 1): polynomial_field(Multivector.scalar(sig, 2.0), (1, 0)),
    }
    tf = ComponentBitensorField(sig, comps)
    got = tf.divergence_components(np.array([(0.4, -0.3)]))[0]
    assert got[0] == pytest.approx(2.0)
    assert got[1] == pytest.approx(0.0)
    t = tf.evaluate((0.4, -0.3))
    assert t.get(1, 0) == pytest.approx(-0.3)
