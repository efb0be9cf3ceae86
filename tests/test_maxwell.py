import math

import numpy as np
import pytest

from extcalc.algebra import (
    GradeError,
    Multivector,
    SpacetimeSignature,
    dot,
    hodge,
    left_interior,
    right_interior,
    wedge,
)
from extcalc.fields import (
    EXTERIOR,
    INTERIOR,
    AnalyticField,
    GridField,
    Mode,
    constant_field,
    _derivative_at,
    _derivative_rows,
    exterior_derivative_field,
    interior_derivative_field,
    plane_wave,
    polynomial_field,
)
from extcalc.integrate import HypersurfaceBox
from extcalc.maxwell import (
    MINKOWSKI,
    ClassicalFields,
    MaxwellSystem,
    classical_pack,
    classical_unpack,
    classical_vector_residual_components,
    dof_count,
    fourier_maxwell_residuals,
    integral_maxwell_check,
    maxwell_residual_components,
    maxwell_residuals,
    null_frequency,
    null_support_violation,
    residuals_to_classical,
    wave_equation_residual,
)

from _support import (
    mode_family_fields,
    mode_values,
    reference_classical_vector_residuals,
    reference_dalembertian,
    reference_map_amplitudes,
    reference_unit_table,
)

EUC3 = SpacetimeSignature(0, 3)


def spatial_field(rng, nmodes=2):
    """Random smooth grade-1 field on (1,3) with spatial components only."""
    modes = []
    for _ in range(nmodes):
        amp = Multivector(MINKOWSKI, 1, {(i,): float(rng.normal()) for i in (1, 2, 3)})
        xi = tuple(rng.uniform(-0.7, 0.7, 4))
        modes.append(Mode(amplitude=amp, xi=xi, phase=float(rng.uniform(0, 2 * math.pi))))
    return AnalyticField(MINKOWSKI, 1, modes)


def scalar_field_13(rng, nmodes=2):
    modes = []
    for _ in range(nmodes):
        amp = Multivector.blade(MINKOWSKI, (), float(rng.normal()))
        xi = tuple(rng.uniform(-0.7, 0.7, 4))
        modes.append(Mode(amplitude=amp, xi=xi, phase=float(rng.uniform(0, 2 * math.pi))))
    return AnalyticField(MINKOWSKI, 0, modes)


def random_classical(rng):
    return ClassicalFields(E=spatial_field(rng), B=spatial_field(rng),
                           rho=scalar_field_13(rng), j=spatial_field(rng))


def vacuum_plane_wave():
    """E = e_x cos(2 pi (z - t)), B = e_y cos(2 pi (z - t)), no sources."""
    xi = (1.0, 0.0, 0.0, 1.0)
    e_amp = Multivector.blade(MINKOWSKI, (1,))
    b_amp = Multivector.blade(MINKOWSKI, (2,))
    zero_rho = AnalyticField(MINKOWSKI, 0)
    zero_j = AnalyticField(MINKOWSKI, 1)
    cf = ClassicalFields(E=plane_wave(e_amp, xi), B=plane_wave(b_amp, xi), rho=zero_rho, j=zero_j)
    return classical_pack(cf)


# ---------------------------------------------------------------------------
# differential residuals
# ---------------------------------------------------------------------------

def test_residuals_zero_system():
    system = MaxwellSystem(MINKOWSKI, 2, AnalyticField(MINKOWSKI, 2))
    inhom, hom = maxwell_residuals(system, (0.1, 0.2, 0.3, 0.4))
    assert not inhom and not hom


def test_vacuum_plane_wave_solves_maxwell():
    system = vacuum_plane_wave()
    rng = np.random.default_rng(0)
    for _ in range(10):
        x = rng.uniform(-1, 1, 4)
        inhom, hom = maxwell_residuals(system, x)
        assert inhom.max_abs() < 1e-10
        assert hom.max_abs() < 1e-10


def test_electrostatics_reduction():
    f = constant_field(Multivector.blade(EUC3, (2,), 2.0))
    system = MaxwellSystem(EUC3, 1, f)
    inhom, hom = maxwell_residuals(system, (0.0, 0.0, 0.0))
    assert not inhom and not hom


def test_magnetostatics_reduction():
    # r=2, (0,3): F = hodge(B); residuals reduce to curl B - j and div B
    rng = np.random.default_rng(5)
    modes = []
    for _ in range(2):
        amp = Multivector(EUC3, 1, {(i,): float(rng.normal()) for i in range(3)})
        modes.append(Mode(amplitude=amp, xi=tuple(rng.uniform(-0.5, 0.5, 3))))
    b_field = AnalyticField(EUC3, 1, modes)
    f_field = b_field._mapped(reference_unit_table(EUC3, hodge, 1, 2), 2)
    system = MaxwellSystem(EUC3, 2, f_field)
    for _ in range(5):
        x = rng.uniform(-1, 1, 3)
        inhom, hom = maxwell_residuals(system, x)
        db = {(a, i): b_field.partial_at(a, x).coeff((i,)) for a in range(3) for i in range(3)}
        curl_b = (db[(1, 2)] - db[(2, 1)], db[(2, 0)] - db[(0, 2)], db[(0, 1)] - db[(1, 0)])
        div_b = db[(0, 0)] + db[(1, 1)] + db[(2, 2)]
        got_curl = inhom.row().tolist()
        assert max(abs(g - c) for g, c in zip(got_curl, curl_b)) < 1e-10
        assert abs(hom.coeff((0, 1, 2)) - div_b) < 1e-10


def test_charge_conservation():
    system = vacuum_plane_wave()
    rng = np.random.default_rng(1)
    # J = interior derivative of F is conserved by construction
    from extcalc.fields import interior_derivative_field
    j_field = interior_derivative_field(system.F)
    conserved = MaxwellSystem(MINKOWSKI, 2, system.F, j_field)
    for _ in range(5):
        x = rng.uniform(-1, 1, 4)
        assert _derivative_at(conserved.J, INTERIOR, x).max_abs() < 1e-10

    # J = x_0 e_0 is not conserved: the interior derivative is the constant 1
    # (metric signs cancel, matching the continuity form d_t rho + div j)
    bad_j = polynomial_field(Multivector.blade(MINKOWSKI, (0,)), (1, 0, 0, 0))
    bad = MaxwellSystem(MINKOWSKI, 2, AnalyticField(MINKOWSKI, 2), bad_j)
    res = _derivative_at(bad.J, INTERIOR, (0.3, 0.1, 0.2, -0.4))
    assert res.coeff(()) == pytest.approx(1.0)
    assert abs(res.coeff(())) > 0.5  # detector fires either way


def test_charge_conservation_constant_source():
    j_field = constant_field(Multivector.blade(MINKOWSKI, (2,), 3.0))
    system = MaxwellSystem(MINKOWSKI, 2, AnalyticField(MINKOWSKI, 2), j_field)
    assert not _derivative_at(system.J, INTERIOR, (0.1, 0.2, 0.3, 0.4))


def test_field_from_potential_constant_is_zero():
    potential = constant_field(Multivector.blade(MINKOWSKI, (1,), 2.0))
    f_field = exterior_derivative_field(potential)
    assert not f_field.evaluate((0.3, -0.2, 0.5, 0.1))


def test_charge_conservation_r1_returns_zero():
    f = constant_field(Multivector.blade(EUC3, (0,)))
    system = MaxwellSystem(EUC3, 1, f, constant_field(Multivector.blade(EUC3, (), 1.0)))
    assert not _derivative_at(system.J, INTERIOR, (0, 0, 0))


# ---------------------------------------------------------------------------
# potentials and gauges
# ---------------------------------------------------------------------------

def test_field_from_potential_kills_homogeneous_residual():
    rng = np.random.default_rng(2)
    potential = spatial_field(rng) + plane_wave(
        Multivector.blade(MINKOWSKI, (0,), 0.7), xi=(0.2, 0.5, -0.1, 0.3))
    f_field = exterior_derivative_field(potential)
    for _ in range(10):
        x = rng.uniform(-1, 1, 4)
        assert _derivative_at(f_field, EXTERIOR, x).max_abs() < 1e-10


def test_gauge_invariance_of_field():
    rng = np.random.default_rng(3)
    potential = spatial_field(rng)
    gauge = scalar_field_13(rng)
    shifted = potential + exterior_derivative_field(gauge)
    f1 = exterior_derivative_field(potential)
    f2 = exterior_derivative_field(shifted)
    for _ in range(10):
        x = rng.uniform(-1, 1, 4)
        assert (f1.evaluate(x) - f2.evaluate(x)).max_abs() < 1e-10


def test_static_scalar_potential_gives_minus_gradient():
    # A = phi e_0 with phi = x_1: E component F_01 = -d_1 phi = -1
    potential = polynomial_field(Multivector.blade(MINKOWSKI, (0,)), (0, 1, 0, 0))
    f_field = exterior_derivative_field(potential)
    value = f_field.evaluate((0.0, 0.5, -0.2, 0.1))
    assert value.coeff((0, 1)) == pytest.approx(-1.0)
    assert all(value.coeff(idx) == 0 for idx in MINKOWSKI.index_lists(2) if idx != (0, 1))


def test_lorenz_gauge_and_wave_equation_null_mode():
    # transverse amplitude against a null covector
    xi = (1.0, 0.0, 0.0, 1.0)
    amp = Multivector.blade(MINKOWSKI, (2,), 1.3)
    potential = plane_wave(amp, xi, phase=0.4)
    rng = np.random.default_rng(4)
    for _ in range(5):
        x = rng.uniform(-1, 1, 4)
        assert _derivative_at(potential, INTERIOR, x).max_abs() < 1e-12
        assert wave_equation_residual(potential, None, x).max_abs() < 1e-10


def test_wave_equation_constant_potential():
    potential = constant_field(Multivector.blade(MINKOWSKI, (1,), 2.0))
    assert not wave_equation_residual(potential, None, (0, 0, 0, 0))
    assert not _derivative_at(potential, INTERIOR, (0, 0, 0, 0))
    # a scalar potential's residual keeps grade 0 where it vanishes
    scalar = polynomial_field(Multivector.blade(MINKOWSKI, (), 1.0), (1, 1, 0, 0))
    residual = wave_equation_residual(scalar, None, (0.1, 0.2, 0.3, 0.4))
    assert not residual and residual.grade == 0


@pytest.mark.parametrize("sourced", [False, True])
@pytest.mark.parametrize("k,n", [(0, 3), (1, 1), (1, 2), (1, 3), (1, 4), (2, 2), (2, 3)])
def test_wave_equation_residual_is_the_wave_operator(k, n, sourced):
    # delta d A - d delta A - J against (-1)^g sum_i Delta_ii d_i^2 A - J, the
    # second partials built from reference modes derived twice, on every grade
    # and every kind of mode
    sig = SpacetimeSignature(k, n)
    rng = np.random.default_rng([k, n, 31])
    cases = 0
    for g in range(sig.dim + 1):
        fields = mode_family_fields(sig, g, rng)
        names = list(fields)
        for pos, name in enumerate(names):
            potential = fields[name]
            source = fields[names[pos - 1]] if sourced else None
            for x in rng.uniform(-1, 1, size=(3, sig.dim)):
                want = (-1) ** g * reference_dalembertian(potential, x)
                if source is not None:
                    want = want - source.evaluate(x)
                got = wave_equation_residual(potential, source, x)
                assert got.grade == g, (g, name)
                assert (got - want).max_abs() <= 1e-12 * max(1.0, want.max_abs()), (g, name)
                cases += 1
    assert cases == 15 * (sig.dim + 1)


def test_transverse_gauge_residuals():
    xi = (1.0, 0.0, 0.0, 1.0)
    for amp_idx in ((1,), (2,)):
        potential = plane_wave(Multivector.blade(MINKOWSKI, amp_idx), xi)
        t_res, s_res = (_derivative_rows(potential, INTERIOR, np.array([(0.2, 0.1, -0.3, 0.4)]), axes)
                        for axes in (range(1), range(1, 4)))
        assert np.abs(t_res).max() < 1e-12
        assert np.abs(s_res).max() < 1e-12


def test_harmonic_gauge_residual():
    # harmonic gauge fields keep the Lorenz condition: scalar G with null covector
    gauge = plane_wave(Multivector.blade(MINKOWSKI, (), 1.0), (1.0, 0.0, 0.0, 1.0))
    assert _derivative_at(exterior_derivative_field(gauge), INTERIOR, (0.1, 0.2, 0.3, 0.4)).max_abs() < 1e-10
    bad = plane_wave(Multivector.blade(MINKOWSKI, (), 1.0), (1.0, 0.0, 0.0, 0.0))
    assert _derivative_at(exterior_derivative_field(bad), INTERIOR, (0.3, 0.0, 0.0, 0.0)).max_abs() > 1.0


# ---------------------------------------------------------------------------
# Fourier form
# ---------------------------------------------------------------------------

def test_fourier_residuals_zero_xi():
    f_hat = Multivector.blade(MINKOWSKI, (0, 1), 1.0)
    j_hat = Multivector.blade(MINKOWSKI, (0,), 1.0)
    inhom, hom = fourier_maxwell_residuals((0, 0, 0, 0), f_hat, j_hat)
    assert not hom
    assert not (inhom + j_hat)


def test_fourier_null_mode_solves():
    xi = Multivector.vector(MINKOWSKI, (1.0, 0.0, 0.0, 1.0))
    a_hat = Multivector.blade(MINKOWSKI, (2,))
    f_hat = (2j * math.pi) * wedge(xi, a_hat)
    inhom, hom = fourier_maxwell_residuals(xi, f_hat)
    assert inhom.max_abs() < 1e-12
    assert hom.max_abs() < 1e-12
    assert abs(dot(xi, xi)) < 1e-15


def test_null_support_violation_detected():
    rng = np.random.default_rng(6)
    for _ in range(20):
        xi_vec = rng.uniform(-1, 1, 4)
        xi = Multivector.vector(MINKOWSKI, xi_vec)
        if abs(dot(xi, xi)) < 0.1:
            continue
        f_hat = Multivector(MINKOWSKI, 2,
                            {idx: complex(rng.normal(), rng.normal()) for idx in MINKOWSKI.index_lists(2)})
        report = null_support_violation(xi, f_hat)
        # a non-null covector cannot satisfy both residuals with nonzero field
        assert report["consistent"]
        if report["residuals_satisfied"]:
            assert f_hat.max_abs() < 1e-10


# ---------------------------------------------------------------------------
# null frequency completion
# ---------------------------------------------------------------------------

def test_null_frequency_examples():
    xi_bar = Multivector.vector(MINKOWSKI, (0.0, 0.0, 0.0, 1.0))
    got = null_frequency(xi_bar, axis=0)
    assert got == Multivector.vector(MINKOWSKI, (1.0, 0.0, 0.0, 1.0))
    assert abs(dot(got, got)) < 1e-15

    zero = Multivector.zero(MINKOWSKI, 1)
    assert null_frequency(zero, axis=0) == zero

    xi_bar2 = Multivector.vector(MINKOWSKI, (2.0, 1.0, 0.0, 0.0))
    got2 = null_frequency(xi_bar2, axis=3)
    assert got2.coeff((3,)) == pytest.approx(math.sqrt(3.0))
    assert abs(dot(got2, got2)) < 1e-12

    # spacelike xi_bar against a spatial axis has no real root
    xi_bar3 = Multivector.vector(MINKOWSKI, (0.0, 1.0, 0.0, 0.0))
    assert null_frequency(xi_bar3, axis=3) is None


# ---------------------------------------------------------------------------
# degrees of freedom
# ---------------------------------------------------------------------------

def test_dof_count():
    assert dof_count(2, 1, 3) == 2
    assert dof_count(1, 1, 1) == 1
    assert dof_count(3, 2, 3) == 3
    with pytest.raises(GradeError):
        dof_count(5, 1, 3)
    with pytest.raises(ValueError):
        dof_count(1, 0, 3)


# ---------------------------------------------------------------------------
# classical bridge
# ---------------------------------------------------------------------------

def test_map_amplitudes_match_the_per_mode_route():
    # the tabulated map against fn applied to every whole amplitude, on the
    # maps of classical_pack and classical_unpack and the Hodge map
    rng = np.random.default_rng(23)
    e0 = Multivector.blade(MINKOWSKI, (0,))
    e123 = Multivector.blade(MINKOWSKI, (1, 2, 3))
    maps = {
        0: [(lambda a: Multivector.blade(MINKOWSKI, (0,), a.coeff(())), 1), (hodge, 4)],
        1: [(lambda a: wedge(e0, a), 2), (lambda b: right_interior(e123, b), 2),
            (lambda a: Multivector.blade(MINKOWSKI, (), a.coeff((0,))), 0),
            (lambda a: Multivector(MINKOWSKI, 1, {i: c for i, c in a.terms.items() if 0 not in i}), 1),
            (hodge, 3)],
        2: [(lambda a: left_interior(e0, a), 1), (lambda a: left_interior(a, e123), 1), (hodge, 2)],
    }
    for grade, grade_maps in maps.items():
        fields = mode_family_fields(MINKOWSKI, grade, rng)
        # complex amplitudes on cosine and exponential modes
        fields["complex"] = fields["cos"] * (0.25 - 0.5j) + fields["exp"]
        # one unit-blade mode per blade, so a map that kills a blade zeroes
        # exactly its rows, which are dropped with the table order kept
        fields["blades"] = AnalyticField(MINKOWSKI, grade, [
            Mode(amplitude=Multivector.blade(MINKOWSKI, blade, 1.5), xi=(0.1 * i, 0.2, 0.0, 0.3))
            for i, blade in enumerate(MINKOWSKI.index_lists(grade))])
        for field in fields.values():
            for fn, out in grade_maps:
                got = field._mapped(reference_unit_table(MINKOWSKI, fn, grade, out), out)
                assert got.grade == out
                assert mode_values(got.modes) == mode_values(reference_map_amplitudes(field, fn, out))
    # an infinite coefficient stays in its own components, as in fn(amplitude)
    field = plane_wave(Multivector(MINKOWSKI, 1, {(1,): math.inf, (2,): 1.0}), (0.3, 0.1, 0.0, 0.0))
    for fn, out in maps[1]:
        assert mode_values(field._mapped(reference_unit_table(MINKOWSKI, fn, 1, out), out).modes) == \
            mode_values(reference_map_amplitudes(field, fn, out))


def test_classical_pack_unit_ex():
    cf = ClassicalFields(E=constant_field(Multivector.blade(MINKOWSKI, (1,))),
                         B=AnalyticField(MINKOWSKI, 1),
                         rho=AnalyticField(MINKOWSKI, 0), j=AnalyticField(MINKOWSKI, 1))
    system = classical_pack(cf)
    value = system.F.evaluate((0, 0, 0, 0))
    assert value == Multivector.blade(MINKOWSKI, (0, 1))


def test_classical_round_trip():
    rng = np.random.default_rng(7)
    cf = random_classical(rng)
    back = classical_unpack(classical_pack(cf))
    for _ in range(5):
        x = rng.uniform(-1, 1, 4)
        for name in ("E", "B", "rho", "j"):
            a = getattr(cf, name).evaluate(x)
            b = getattr(back, name).evaluate(x)
            assert (a - b).max_abs() < 1e-12


def test_classical_residual_equivalence():
    rng = np.random.default_rng(8)
    for _ in range(5):
        cf = random_classical(rng)
        system = classical_pack(cf)
        x = rng.uniform(-1, 1, 4)
        inhom, hom = maxwell_residuals(system, x)
        got = residuals_to_classical(inhom, hom)
        want = classical_vector_residual_components(cf, [x])
        assert abs(got["gauss"] - want["gauss"]) < 1e-9
        assert abs(got["monopole"] - want["monopole"]) < 1e-9
        assert np.max(np.abs(got["faraday"] - want["faraday"])) < 1e-9
        assert np.max(np.abs(got["ampere"] - want["ampere"])) < 1e-9


def test_classical_pack_requires_spatial():
    bad_e = constant_field(Multivector.blade(MINKOWSKI, (0,)))
    with pytest.raises(ValueError):
        ClassicalFields(E=bad_e, B=AnalyticField(MINKOWSKI, 1),
                        rho=AnalyticField(MINKOWSKI, 0), j=AnalyticField(MINKOWSKI, 1))


# ---------------------------------------------------------------------------
# integral form
# ---------------------------------------------------------------------------

def test_integral_maxwell_vacuum():
    system = vacuum_plane_wave()
    circ_box = HypersurfaceBox(MINKOWSKI, intervals={0: (0, 0.4), 1: (0, 0.3), 2: (0, 0.5)},
                               fixed={3: 0.2})
    flux_box = HypersurfaceBox(MINKOWSKI, intervals={0: (0, 0.4), 2: (0, 0.5), 3: (-0.2, 0.3)},
                               fixed={1: 0.1})
    circ_res, flux_res = integral_maxwell_check(system, circ_box, flux_box, points=10)
    assert circ_res < 1e-10
    assert flux_res < 1e-10


def test_integral_maxwell_zero_system():
    system = MaxwellSystem(MINKOWSKI, 2, AnalyticField(MINKOWSKI, 2))
    circ_box = HypersurfaceBox(MINKOWSKI, intervals={0: (0, 1), 1: (0, 1), 2: (0, 1)}, fixed={3: 0.0})
    circ_res, flux_res = integral_maxwell_check(system, circ_box, None)
    assert circ_res == 0
    assert flux_res is None


def test_integral_maxwell_flags_nonconserved_source():
    # F solves vacuum equations but J is nonzero: flux residual must fire.
    # The box spans all space at fixed time so the charge component is sampled.
    system = vacuum_plane_wave()
    j_field = constant_field(Multivector.blade(MINKOWSKI, (0,), 1.0))
    bad = MaxwellSystem(MINKOWSKI, 2, system.F, j_field)
    flux_box = HypersurfaceBox(MINKOWSKI, intervals={1: (0, 0.4), 2: (0, 0.5), 3: (-0.2, 0.3)},
                               fixed={0: 0.1})
    _, flux_res = integral_maxwell_check(bad, None, flux_box)
    assert flux_res > 1e-3


def test_integral_maxwell_box_dimension_checks():
    system = vacuum_plane_wave()
    wrong = HypersurfaceBox(MINKOWSKI, intervals={0: (0, 1)}, fixed={1: 0, 2: 0, 3: 0})
    with pytest.raises(GradeError):
        integral_maxwell_check(system, wrong, None)
    with pytest.raises(GradeError):
        integral_maxwell_check(system, None, wrong)


def test_interior_derivative_source_matches_residual():
    # build J := interior derivative of F, then the inhomogeneous residual vanishes
    rng = np.random.default_rng(9)
    f_field = exterior_derivative_field(spatial_field(rng))
    from extcalc.fields import interior_derivative_field
    system = MaxwellSystem(MINKOWSKI, 2, f_field, interior_derivative_field(f_field))
    for _ in range(5):
        x = rng.uniform(-1, 1, 4)
        inhom, hom = maxwell_residuals(system, x)
        assert inhom.max_abs() < 1e-10
        assert hom.max_abs() < 1e-10


def test_maxwell_residual_components_match_one_row():
    # every grade on every signature with k + n <= 4, so r = 1 (a scalar
    # source) and r = k + n (no homogeneous residual) are both included
    rng = np.random.default_rng(10)
    for d in range(1, 5):
        for k in range(d + 1):
            sig = SpacetimeSignature(k, d - k)
            for r in range(1, d + 1):
                fields = mode_family_fields(sig, r, rng)
                f_field, source = fields["mixed"], mode_family_fields(sig, r - 1, rng)["cos"]
                grid = GridField.sample(fields["cos"], (-1.0,) * d, (0.25,) * d,
                                        (9,) * d if d < 4 else (5,) * 4)
                for system, points in (
                        (MaxwellSystem(sig, r, f_field, source), rng.uniform(-1, 1, (3, d))),
                        (MaxwellSystem(sig, r, grid), -1.0 + 0.25 * rng.integers(1, 4, (3, d)))):
                    inhom, hom = maxwell_residual_components(system, points)
                    assert inhom.shape == (3, math.comb(d, r - 1))
                    assert hom.shape == (3, math.comb(d, r + 1) if r < d else 0)
                    for x, inhom_row, hom_row in zip(points, inhom, hom):
                        want_inhom, want_hom = maxwell_residuals(system, x)
                        for row, want in ((inhom_row, want_inhom), (hom_row, want_hom)):
                            scale = max(1.0, want.max_abs())
                            for idx, c in zip(sig.index_lists(want.grade), row):
                                assert abs(c - want.coeff(idx)) <= 1e-12 * scale
                        if r == d:
                            assert not want_hom


def test_classical_vector_residual_components_match_the_pointwise_reference():
    rng = np.random.default_rng(11)
    for _ in range(4):
        cf = random_classical(rng)
        points = rng.uniform(-1, 1, (5, 4))
        got = classical_vector_residual_components(cf, points)
        assert got["gauss"].shape == got["monopole"].shape == (5,)
        assert got["faraday"].shape == got["ampere"].shape == (5, 3)
        for p, x in enumerate(points):
            want = reference_classical_vector_residuals(cf, x)
            for name in ("gauss", "faraday", "monopole", "ampere"):
                scale = max(1.0, np.abs(want[name]).max())
                assert np.abs(got[name][p] - want[name]).max() <= 1e-12 * scale
        # the multivector rows map onto the same four, row by row
        rows = residuals_to_classical(*maxwell_residual_components(classical_pack(cf), points))
        for name in ("gauss", "faraday", "monopole", "ampere"):
            assert np.abs(rows[name] - got[name]).max() < 1e-9
