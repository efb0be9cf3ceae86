import dataclasses
import math

import numpy as np
import pytest

from extcalc.algebra import Multivector, SpacetimeSignature, dot, inv_hodge
from extcalc.fields import (
    AnalyticField,
    FieldDomainError,
    GaussianEnvelope,
    GridField,
    Mode,
    constant_field,
    dalembertian,
    _derivative_table,
    exterior_derivative,
    exterior_derivative_components,
    exterior_derivative_field,
    interior_derivative,
    interior_derivative_components,
    interior_derivative_field,
    plane_wave,
    polynomial_field,
)

from _support import (
    ComponentBitensorField,
    mode_family_fields,
    mode_values,
    product_rule_check,
    reference_derivative_field_modes,
    reference_merged_modes,
    reference_partial_modes,
    reference_evaluate,
    reference_exterior_derivative,
    reference_interior_derivative,
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
    # evaluate and evaluate_components (and the derived partial fields, whose
    # modes mix every factor) against the per-point formula in _support
    sig = SpacetimeSignature(k, n)
    rng = np.random.default_rng(100 * k + 10 * n + grade)
    f = mixed_mode_field(sig, grade, rng)
    assert {m.waveform for m in f.modes} == {"cos", "exp"}
    points = rng.uniform(-1, 1, size=(7, sig.dim))
    lists = list(sig.index_lists(grade))
    for field in [f] + [f.partial_field(axis) for axis in sig.axes()]:
        dense = field.evaluate_components(points)
        for p, x in enumerate(points):
            want = reference_evaluate(field, x)
            got = field.evaluate(x)
            scale = max(1.0, want.max_abs())
            assert (got - want).max_abs() <= 1e-12 * scale
            for pos, idx in enumerate(lists):
                assert abs(dense[p, pos] - want.coeff(idx)) <= 1e-12 * scale


# ---------------------------------------------------------------------------
# exterior and interior derivatives
# ---------------------------------------------------------------------------

def test_gradient_of_coordinate():
    omega = polynomial_field(Multivector.scalar(EUC3, 1.0), (0, 1, 0))
    grad = exterior_derivative(omega, (0.7, 0.1, -0.4))
    assert grad == Multivector.blade(EUC3, (1,), 1.0)


def test_exterior_derivative_matches_classical_curl():
    rng = np.random.default_rng(11)
    v = random_polynomial_field(EUC3, 1, rng)
    for _ in range(5):
        x = rng.uniform(-1, 1, 3)
        dv = {(i, j): v.partial_at(i, x).coeff((j,)) for i in range(3) for j in range(3)}
        curl = (dv[(1, 2)] - dv[(2, 1)], dv[(2, 0)] - dv[(0, 2)], dv[(0, 1)] - dv[(1, 0)])
        got = inv_hodge(exterior_derivative(v, x)).vector_components()
        assert max(abs(g - c) for g, c in zip(got, curl)) < 1e-10


def test_interior_derivative_matches_classical_divergence():
    rng = np.random.default_rng(12)
    v = random_polynomial_field(EUC3, 1, rng)
    for _ in range(5):
        x = rng.uniform(-1, 1, 3)
        div = sum(v.partial_at(i, x).coeff((i,)) for i in range(3))
        got = interior_derivative(v, x).scalar_value()
        assert got == pytest.approx(div, abs=1e-10)


@pytest.mark.parametrize("kn,grade", [((1, 1), 1), ((1, 2), 1), ((2, 2), 2), ((0, 3), 1), ((1, 3), 2)])
def test_nilpotency_pointwise(kn, grade):
    sig = SpacetimeSignature(*kn)
    rng = np.random.default_rng(hash(kn) % 2 ** 32)
    f = random_cos_field(sig, grade, rng) + random_polynomial_field(sig, grade, rng)
    for _ in range(10):
        x = rng.uniform(-1, 1, sig.dim)
        ddf = exterior_derivative(exterior_derivative_field(f), x)
        assert ddf.max_abs() < 1e-10
        iif = interior_derivative(interior_derivative_field(f), x)
        assert iif.max_abs() < 1e-10


def test_second_derivative_identity():
    # interior of exterior = (-1)^grade dalembertian + exterior of interior
    sig = SpacetimeSignature(2, 2)
    rng = np.random.default_rng(21)
    f = random_cos_field(sig, 2, rng)
    for _ in range(10):
        x = rng.uniform(-1, 1, sig.dim)
        lhs = interior_derivative(exterior_derivative_field(f), x)
        rhs = ((-1) ** f.grade) * dalembertian(f, x) + exterior_derivative(interior_derivative_field(f), x)
        assert (lhs - rhs).max_abs() < 1e-10


def test_derivative_field_agrees_with_pointwise():
    rng = np.random.default_rng(31)
    f = random_cos_field(MINK, 2, rng)
    for _ in range(5):
        x = rng.uniform(-1, 1, 4)
        assert (exterior_derivative_field(f).evaluate(x) - exterior_derivative(f, x)).max_abs() < 1e-12
        assert (interior_derivative_field(f).evaluate(x) - interior_derivative(f, x)).max_abs() < 1e-12


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
    assert exterior_derivative(f, (0.0, 0.0)).is_zero()
    assert interior_derivative(scalar, (0.0, 0.0)).is_zero()
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
                    assert mode_values(f.partial_field(axis).modes) == mode_values(want)


@pytest.mark.parametrize("k,n", [(k, d - k) for d in range(1, 5) for k in range(d + 1)])
def test_derived_fields_match_the_multivector_route(k, n):
    # the mode table's partial, exterior and interior derivative fields, sums,
    # scalings and merges list the same modes in the same order with
    # coefficients equal in value to per-mode multivector algebra's
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
            # a real sum whose second entry cancels below the relative prune,
            # so the next term lands on an absent entry
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
        for factor in (2, -1, 0.5, 0.25 - 0.5j):
            same(fields["merged"] * factor, reference_merged_modes(
                dataclasses.replace(m, amplitude=m.amplitude * factor) for m in fields["merged"].modes))
        same(fields["cos"] + fields["exp"], reference_merged_modes(fields["cos"].modes + fields["exp"].modes))
        for f in fields.values():
            for axis in sig.axes():
                want = reference_partial_modes(f.modes, axis)
                same(f.partial_field(axis), want)
                same(f.partial_field(axis).partial_field(sig.dim - 1 - axis),
                     reference_partial_modes(want, sig.dim - 1 - axis))
            same(exterior_derivative_field(f), reference_derivative_field_modes(f, "exterior"))
            same(interior_derivative_field(f), reference_derivative_field_modes(f, "interior"))


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
        grid.partial_components(0, np.array([x, (-0.5, 0.0, 0.0), (0.5, 0.0, 0.0)]))
    # batched lattice reads: row by row equal to evaluate, in index_lists order
    lists = [(0,), (1,), (2,)]
    sites = np.array([[-0.5, -0.5, -0.5], [0.5, 0.25, -0.25], x, [0.0, 0.5, 0.0]])
    rows = grid.evaluate_components(sites)
    assert rows.shape == (4, 3)
    for point, row in zip(sites, rows):
        assert row.tolist() == [grid.evaluate(point).coeff(idx) for idx in lists]
    # batched central differences: row by row equal to partial_at on interior sites
    inner = np.array([x, [0.25, -0.25, 0.0], [0.0, 0.25, 0.25]])
    for axis in range(3):
        slopes = grid.partial_components(axis, inner)
        assert slopes.shape == (3, 3)
        for point, row in zip(inner, slopes):
            assert row.tolist() == [grid.partial_at(axis, point).coeff(idx) for idx in lists]
    # the first bad point raises, off the lattice or out of range
    with pytest.raises(FieldDomainError, match=r"\[0\.1, 0\.0, 0\.0\] is not on the sampling lattice"):
        grid.evaluate_components(np.array([x, (0.1, 0.0, 0.0), (2.0, 0.0, 0.0)]))
    with pytest.raises(FieldDomainError, match=r"\[2\.0, 0\.0, 0\.0\] lies outside the sampled lattice"):
        grid.evaluate_components(np.array([x, (2.0, 0.0, 0.0), (0.1, 0.0, 0.0)]))


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
    assert grid.partial_components(3, np.array([x])).shape == (1, 6)
    for axis in (-1, 4):
        with pytest.raises(IndexError, match=f"axis {axis} out of range"):
            grid.partial_components(axis, np.array([x]))
        with pytest.raises(IndexError, match=f"axis {axis} out of range"):
            grid.partial_at(axis, x)


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
