import itertools
import math

import numpy as np
import pytest

from extcalc.algebra import GradeError, Multivector, SpacetimeSignature, dot, right_interior
from extcalc.fields import (
    AnalyticField,
    GaussianEnvelope,
    Mode,
    constant_field,
    plane_wave,
    polynomial_field,
)
from extcalc.integrate import (
    HypersurfaceBox,
    _legendre_base,
    bitensor_stokes_check,
    circulation,
    flux,
    gauss_legendre_rule,
    stokes_circulation_check,
    stokes_flux_check,
)

from _support import (
    ComponentBitensorField,
    reference_circulation,
    reference_flux,
    reference_grid,
)

EUC2 = SpacetimeSignature(0, 2)
EUC3 = SpacetimeSignature(0, 3)
MINK2 = SpacetimeSignature(1, 1)


def unit_square(sig=EUC2, orientation=1):
    return HypersurfaceBox(sig, intervals={0: (0.0, 1.0), 1: (0.0, 1.0)}, fixed={}, orientation=orientation)


# every set of free axes of (1, 4), the first three as first written
FREE_AXES = [(1,), (0, 2), (0, 1, 3)] + [
    free for count in range(6) for free in itertools.combinations(range(5), count)
    if free not in {(1,), (0, 2), (0, 1, 3)}]


@pytest.mark.parametrize("free", FREE_AXES)
def test_grid_points_match_the_product_reference(free):
    # on every (1, n) that has these axes, with 1 to 3 panels
    for n in range(max((1, *free)), 5):
        sig = SpacetimeSignature(1, n)
        intervals = {a: (-0.3 + 0.1 * a, 0.4 + 0.2 * a) for a in free}
        fixed = {a: 0.05 * a - 0.1 for a in sig.axes() if a not in free}
        box = HypersurfaceBox(sig, intervals=intervals, fixed=fixed, orientation=-1)
        for panels in (1, 2, 3):
            nodes, weights = box.grid_points(points=3, panels=panels)
            ref_nodes, ref_weights = reference_grid(box, points=3, panels=panels)
            assert nodes.shape == ref_nodes.shape == ((3 * panels) ** len(free), sig.dim)
            assert nodes.tobytes() == ref_nodes.tobytes()
            assert weights.tobytes() == ref_weights.tobytes()
            pairs = list(box.quadrature(points=3, panels=panels))
            assert np.array_equal([x for x, _ in pairs], ref_nodes)
            assert np.array_equal([w for _, w in pairs], ref_weights)


def test_gauss_legendre_rule_integrates_polynomials_exactly():
    nodes, weights = gauss_legendre_rule(-1.0, 2.0, points=4, panels=3)
    got = float(np.sum(weights * nodes ** 5))
    assert got == pytest.approx((2.0 ** 6 - 1.0) / 6.0, abs=1e-12)


def test_box_validation():
    with pytest.raises(ValueError):
        HypersurfaceBox(EUC2, intervals={0: (0, 1)}, fixed={})  # axis 1 unspecified
    with pytest.raises(ValueError):
        HypersurfaceBox(EUC2, intervals={0: (1, 1)}, fixed={1: 0.0})  # degenerate
    with pytest.raises(ValueError):
        HypersurfaceBox(EUC2, intervals={0: (0, 1)}, fixed={0: 0.0, 1: 0.0})


# ---------------------------------------------------------------------------
# circulation
# ---------------------------------------------------------------------------

def test_circulation_zero_field():
    f = AnalyticField(EUC2, 1)
    box = HypersurfaceBox(EUC2, intervals={0: (0, 1)}, fixed={1: 0.0})
    assert circulation(f, box) == 0


def test_circulation_dimension_mismatch():
    f = constant_field(Multivector.blade(EUC2, (0,)))
    with pytest.raises(GradeError):
        circulation(f, unit_square())


def test_green_theorem_circulation():
    # f = -x_1 e_0 + x_0 e_1 around the unit square: 2 * area = 2
    f = polynomial_field(Multivector.blade(EUC2, (0,), -1.0), (0, 1)) + \
        polynomial_field(Multivector.blade(EUC2, (1,), 1.0), (1, 0))
    total = sum(circulation(f, face) for face in unit_square().boundary_faces())
    assert total == pytest.approx(2.0, abs=1e-12)


def test_circulation_of_gradient_around_closed_boundary():
    # w = x_0^2 x_1, gradient field circulates to zero around any closed loop
    grad = polynomial_field(Multivector.blade(EUC2, (0,), 2.0), (1, 1)) + \
        polynomial_field(Multivector.blade(EUC2, (1,), 1.0), (2, 0))
    total = sum(circulation(grad, face) for face in unit_square().boundary_faces())
    assert abs(total) < 1e-12


def test_circulation_right_interior_form_agrees():
    # circulation uses dot(e_S, .); on equal grades it is the right interior form
    rng = np.random.default_rng(2)
    amp = Multivector(EUC3, 2, {idx: float(rng.normal()) for idx in EUC3.index_lists(2)})
    box = HypersurfaceBox(EUC3, intervals={0: (0, 1), 2: (-0.5, 0.5)}, fixed={1: 0.25})
    for blade in (box.element_blade(), -1 * box.element_blade()):
        assert dot(blade, amp) == right_interior(blade, amp).scalar_value()


def _mode_fields(sig, grade, rng):
    """One field per waveform family: cos, exp, monomial and envelope."""
    def amp():
        return Multivector(sig, grade, {idx: float(rng.normal()) for idx in sig.index_lists(grade)})

    xi = tuple(rng.uniform(-0.8, 0.8, sig.dim))
    return {
        "cos": plane_wave(amp(), xi, phase=0.3),
        "exp": plane_wave(amp() * (1 - 0.5j), xi, waveform="exp"),
        "monomial": AnalyticField(sig, grade, [Mode(amplitude=amp(), poly=(1, 0, 2, 0)[:sig.dim],
                                                    poly_center=(0.1,) * sig.dim),
                                               Mode(amplitude=amp(), xi=xi, poly=(0, 1, 0, 1)[:sig.dim])]),
        "envelope": plane_wave(amp(), xi, phase=1.1,
                               envelope=GaussianEnvelope(center=(0.2,) * sig.dim, width=0.7)),
    }


@pytest.mark.parametrize("kind", ["cos", "exp", "monomial", "envelope"])
def test_circulation_and_flux_match_per_node_reference(kind):
    sig = SpacetimeSignature(1, 3)
    f = _mode_fields(sig, 2, np.random.default_rng(31))[kind]
    circ_box = HypersurfaceBox(sig, intervals={0: (-0.2, 0.4), 2: (0.1, 0.5)}, fixed={1: 0.3, 3: -0.1})
    flux_box = HypersurfaceBox(sig, intervals={0: (-0.2, 0.4), 1: (-0.5, 0.1), 3: (0.0, 0.3)},
                               fixed={2: 0.2}, orientation=-1)
    got, want = circulation(f, circ_box, points=5, panels=2), reference_circulation(f, circ_box, 5, 2)
    assert want != 0 and abs(got - want) <= 1e-12 * abs(want)
    got, want = flux(f, flux_box, points=5, panels=2), reference_flux(f, flux_box, 5, 2)
    assert got.grade == want.grade == 1 and want.max_abs() > 0
    assert (got - want).max_abs() <= 1e-12 * want.max_abs()


# ---------------------------------------------------------------------------
# flux
# ---------------------------------------------------------------------------

def test_flux_constant_across_unit_square():
    f = constant_field(Multivector.blade(EUC3, (2,)))
    box = HypersurfaceBox(EUC3, intervals={0: (0, 1), 1: (0, 1)}, fixed={2: 0.3})
    got = flux(f, box)
    assert got.grade == 0
    assert got.scalar_value() == pytest.approx(1.0, abs=1e-12)


def test_flux_full_dimension_is_volume_integral():
    f = constant_field(Multivector.blade(EUC2, (1,), 3.0))
    box = HypersurfaceBox(EUC2, intervals={0: (0, 2), 1: (0, 1)}, fixed={})
    got = flux(f, box)
    assert got.grade == 1
    assert got.coeff((1,)) == pytest.approx(6.0, abs=1e-12)
    assert got.coeff((0,)) == 0


def test_flux_low_dimension_returns_zero():
    f = constant_field(Multivector.blade(EUC3, (0,)))
    box = HypersurfaceBox(EUC3, intervals={1: (0, 1)}, fixed={0: 0.0, 2: 0.0})
    got = flux(f, box)  # box dim 1 < 3 - 1
    assert got.is_zero()


def test_flux_zero_field():
    f = AnalyticField(EUC3, 1)
    box = HypersurfaceBox(EUC3, intervals={0: (0, 1), 1: (0, 1)}, fixed={2: 0.0})
    assert flux(f, box).is_zero()


# ---------------------------------------------------------------------------
# Stokes: circulation form
# ---------------------------------------------------------------------------

def test_stokes_circulation_constant_field():
    f = constant_field(Multivector.blade(EUC2, (0,), 1.5))
    lhs, rhs, residual = stokes_circulation_check(f, unit_square())
    assert abs(lhs) < 1e-12 and abs(rhs) < 1e-12 and residual < 1e-12


def test_stokes_circulation_polynomial():
    rng = np.random.default_rng(8)
    sig = EUC3
    modes = []
    for idx in sig.index_lists(1):
        exps = tuple(int(rng.integers(0, 3)) for _ in range(3))
        modes.append(Mode(amplitude=Multivector.blade(sig, idx, float(rng.normal())), poly=exps))
    f = AnalyticField(sig, 1, modes)
    box = HypersurfaceBox(sig, intervals={0: (-0.4, 0.3), 2: (0.1, 0.8)}, fixed={1: 0.2})
    lhs, rhs, residual = stokes_circulation_check(f, box)
    assert residual < 1e-10 * max(1.0, abs(lhs))


def test_stokes_circulation_gradient_field():
    # a gradient field has zero exterior derivative: both sides vanish
    omega = polynomial_field(Multivector.scalar(EUC2, 1.0), (2, 1))
    from extcalc.fields import exterior_derivative_field

    grad = exterior_derivative_field(omega)
    lhs, rhs, residual = stokes_circulation_check(grad, unit_square())
    assert abs(lhs) < 1e-12
    assert abs(rhs) < 1e-12
    assert residual < 1e-12


def test_stokes_circulation_minkowski_wave():
    sig = SpacetimeSignature(1, 2)
    rng = np.random.default_rng(9)
    amp = Multivector(sig, 1, {idx: float(rng.normal()) for idx in sig.index_lists(1)})
    f = plane_wave(amp, xi=(0.4, 0.3, -0.2), phase=0.5)
    box = HypersurfaceBox(sig, intervals={0: (0.0, 0.7), 1: (-0.3, 0.4)}, fixed={2: 0.1})
    lhs, rhs, residual = stokes_circulation_check(f, box, points=12)
    assert residual < 1e-10


# ---------------------------------------------------------------------------
# Stokes: flux form
# ---------------------------------------------------------------------------

def test_stokes_flux_polynomial_bivector():
    sig = EUC3
    rng = np.random.default_rng(10)
    modes = []
    for idx in sig.index_lists(2):
        exps = tuple(int(rng.integers(0, 3)) for _ in range(3))
        modes.append(Mode(amplitude=Multivector.blade(sig, idx, float(rng.normal())), poly=exps))
    f = AnalyticField(sig, 2, modes)
    box = HypersurfaceBox(sig, intervals={0: (0, 0.6), 1: (0, 0.5), 2: (-0.2, 0.4)}, fixed={})
    lhs, rhs, residual = stokes_flux_check(f, box)
    assert residual < 1e-10 * max(1.0, lhs.max_abs())


def test_stokes_flux_enveloped_wave_minkowski():
    sig = MINK2
    amp = Multivector(sig, 1, {(0,): 0.8, (1,): -0.6})
    env = GaussianEnvelope(center=(0.1, -0.1), width=1.4)
    f = plane_wave(amp, xi=(0.9, 0.7), phase=0.2, envelope=env)
    box = HypersurfaceBox(sig, intervals={0: (-0.5, 0.5), 1: (-0.4, 0.6)}, fixed={})
    lhs, rhs, residual = stokes_flux_check(f, box, points=14)
    assert residual < 1e-9 * max(1.0, lhs.max_abs())


def test_stokes_flux_partial_dimension_box():
    # flux Stokes on a 2-box inside (0,3) for a grade-2 field
    sig = EUC3
    rng = np.random.default_rng(13)
    modes = []
    for idx in sig.index_lists(2):
        exps = tuple(int(rng.integers(0, 2)) for _ in range(3))
        modes.append(Mode(amplitude=Multivector.blade(sig, idx, float(rng.normal())), poly=exps))
    f = AnalyticField(sig, 2, modes)
    box = HypersurfaceBox(sig, intervals={0: (0, 0.7), 2: (0, 0.5)}, fixed={1: -0.2})
    lhs, rhs, residual = stokes_flux_check(f, box)
    assert residual < 1e-10 * max(1.0, lhs.max_abs())


# ---------------------------------------------------------------------------
# Stokes: bitensor form
# ---------------------------------------------------------------------------

def test_bitensor_stokes_constant():
    comps = {(i, j): constant_field(Multivector.scalar(EUC2, 1.0)) for i in range(2) for j in range(i, 2)}
    tf = ComponentBitensorField(EUC2, comps)
    box = unit_square()
    lhs, rhs, residual = bitensor_stokes_check(tf, box)
    assert lhs.max_abs() < 1e-12
    assert residual < 1e-12


def test_bitensor_stokes_linear_components():
    sig = SpacetimeSignature(1, 2)
    rng = np.random.default_rng(14)
    comps = {}
    for i in range(3):
        for j in range(i, 3):
            field = polynomial_field(Multivector.scalar(sig, float(rng.normal())), (1, 0, 0)) + \
                polynomial_field(Multivector.scalar(sig, float(rng.normal())), (0, 1, 0)) + \
                polynomial_field(Multivector.scalar(sig, float(rng.normal())), (0, 0, 1)) + \
                constant_field(Multivector.scalar(sig, float(rng.normal())))
            comps[(i, j)] = field
    tf = ComponentBitensorField(sig, comps)
    box = HypersurfaceBox(sig, intervals={0: (0, 0.5), 1: (-0.3, 0.3), 2: (0.1, 0.9)}, fixed={})
    lhs, rhs, residual = bitensor_stokes_check(tf, box)
    assert residual < 1e-10 * max(1.0, lhs.max_abs())


def test_bitensor_stokes_requires_full_dimension():
    comps = {(0, 0): constant_field(Multivector.scalar(EUC2, 1.0))}
    tf = ComponentBitensorField(EUC2, comps)
    box = HypersurfaceBox(EUC2, intervals={0: (0, 1)}, fixed={1: 0.0})
    with pytest.raises(GradeError):
        bitensor_stokes_check(tf, box)


def test_reversed_orientation_flips_signs():
    f = polynomial_field(Multivector.blade(EUC2, (0,), -1.0), (0, 1)) + \
        polynomial_field(Multivector.blade(EUC2, (1,), 1.0), (1, 0))
    plus = sum(circulation(f, face) for face in unit_square(orientation=1).boundary_faces())
    minus = sum(circulation(f, face) for face in unit_square(orientation=-1).boundary_faces())
    assert plus == pytest.approx(-minus, abs=1e-12)


@pytest.mark.parametrize("points,panels", [(1, 1), (5, 1), (8, 3), (24, 2)])
def test_gauss_legendre_rule_reuses_one_read_only_base_rule(points, panels):
    base_nodes, base_weights = np.polynomial.legendre.leggauss(points)
    cached_nodes, cached_weights = _legendre_base(points)
    assert _legendre_base(points)[0] is cached_nodes
    assert cached_nodes.tobytes() == base_nodes.tobytes()
    assert cached_weights.tobytes() == base_weights.tobytes()
    # the composite rule is bit for bit the one built from a fresh leggauss
    nodes, weights = gauss_legendre_rule(-0.3, 1.1, points, panels)
    edges = np.linspace(-0.3, 1.1, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    want_nodes = np.concatenate([h * base_nodes + 0.5 * (hi + lo)
                                 for h, lo, hi in zip(half, edges[:-1], edges[1:])])
    want_weights = np.concatenate([h * base_weights for h in half])
    assert nodes.tobytes() == want_nodes.tobytes() and weights.tobytes() == want_weights.tobytes()
    # callers own what they get back and cannot write to the cache
    nodes[:] = 0.0
    weights[:] = 0.0
    for array in (cached_nodes, cached_weights):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1.0
    assert _legendre_base(points)[0].tobytes() == base_nodes.tobytes()
    assert gauss_legendre_rule(-0.3, 1.1, points, panels)[0].tobytes() == want_nodes.tobytes()

