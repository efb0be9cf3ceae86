import dataclasses
import itertools
import math
import re

import numpy as np
import pytest

from extcalc import integrate
from extcalc.algebra import GradeError, Multivector, SpacetimeSignature, dot, right_interior
from extcalc.energy import QuadraticTensorField, StressTensorField
from extcalc.fields import (
    AnalyticField,
    FieldDomainError,
    GaussianEnvelope,
    GridField,
    Mode,
    constant_field,
    plane_wave,
    polynomial_field,
)
from extcalc.integrate import (
    HypersurfaceBox,
    _composite_rule,
    _integral,
    _legendre_base,
    bitensor_stokes_check,
    circulation,
    flux,
    stokes_circulation_check,
    stokes_flux_check,
)
from extcalc.maxwell import MaxwellSystem, integral_maxwell_check

from _support import (
    ComponentBitensorField,
    PointByPoint,
    boundary_faces,
    element_blade,
    exact_bits,
    mode_family_fields,
    reference_boundary_bitensor,
    reference_boundary_circulation,
    reference_boundary_flux,
    reference_box_circulation,
    reference_box_flux,
    reference_box_vector,
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


def test_composite_rule_integrates_polynomials_exactly():
    nodes, weights = _composite_rule(-1.0, 2.0, 4, 3)
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
    total = sum(circulation(f, face) for face in boundary_faces(unit_square()))
    assert total == pytest.approx(2.0, abs=1e-12)


def test_circulation_of_gradient_around_closed_boundary():
    # w = x_0^2 x_1, gradient field circulates to zero around any closed loop
    grad = polynomial_field(Multivector.blade(EUC2, (0,), 2.0), (1, 1)) + \
        polynomial_field(Multivector.blade(EUC2, (1,), 1.0), (2, 0))
    total = sum(circulation(grad, face) for face in boundary_faces(unit_square()))
    assert abs(total) < 1e-12


def test_circulation_right_interior_form_agrees():
    # circulation uses dot(e_S, .); on equal grades it is the right interior form
    rng = np.random.default_rng(2)
    amp = Multivector(EUC3, 2, {idx: float(rng.normal()) for idx in EUC3.index_lists(2)})
    box = HypersurfaceBox(EUC3, intervals={0: (0, 1), 2: (-0.5, 0.5)}, fixed={1: 0.25})
    for blade in (element_blade(box), -1 * element_blade(box)):
        assert dot(blade, amp) == right_interior(blade, amp).coeff(())


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
    assert got.coeff(()) == pytest.approx(1.0, abs=1e-12)


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
    assert not got


def test_flux_zero_field():
    f = AnalyticField(EUC3, 1)
    box = HypersurfaceBox(EUC3, intervals={0: (0, 1), 1: (0, 1)}, fixed={2: 0.0})
    assert not flux(f, box)


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
    omega = polynomial_field(Multivector.blade(EUC2, (), 1.0), (2, 1))
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
    comps = {(i, j): constant_field(Multivector.blade(EUC2, (), 1.0)) for i in range(2) for j in range(i, 2)}
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
            field = polynomial_field(Multivector.blade(sig, (), float(rng.normal())), (1, 0, 0)) + \
                polynomial_field(Multivector.blade(sig, (), float(rng.normal())), (0, 1, 0)) + \
                polynomial_field(Multivector.blade(sig, (), float(rng.normal())), (0, 0, 1)) + \
                constant_field(Multivector.blade(sig, (), float(rng.normal())))
            comps[(i, j)] = field
    tf = ComponentBitensorField(sig, comps)
    box = HypersurfaceBox(sig, intervals={0: (0, 0.5), 1: (-0.3, 0.3), 2: (0.1, 0.9)}, fixed={})
    lhs, rhs, residual = bitensor_stokes_check(tf, box)
    assert residual < 1e-10 * max(1.0, lhs.max_abs())


def test_bitensor_stokes_requires_full_dimension():
    comps = {(0, 0): constant_field(Multivector.blade(EUC2, (), 1.0))}
    tf = ComponentBitensorField(EUC2, comps)
    box = HypersurfaceBox(EUC2, intervals={0: (0, 1)}, fixed={1: 0.0})
    with pytest.raises(GradeError):
        bitensor_stokes_check(tf, box)


def test_reversed_orientation_flips_signs():
    f = polynomial_field(Multivector.blade(EUC2, (0,), -1.0), (0, 1)) + \
        polynomial_field(Multivector.blade(EUC2, (1,), 1.0), (1, 0))
    plus = sum(circulation(f, face) for face in boundary_faces(unit_square(orientation=1)))
    minus = sum(circulation(f, face) for face in boundary_faces(unit_square(orientation=-1)))
    assert plus == pytest.approx(-minus, abs=1e-12)


@pytest.mark.parametrize("points,panels", [(1, 1), (5, 1), (8, 3), (24, 2)])
def test_composite_rule_reuses_one_read_only_base_rule(points, panels):
    base_nodes, base_weights = np.polynomial.legendre.leggauss(points)
    cached_nodes, cached_weights = _legendre_base(points)
    assert _legendre_base(points)[0] is cached_nodes
    assert cached_nodes.tobytes() == base_nodes.tobytes()
    assert cached_weights.tobytes() == base_weights.tobytes()
    # the composite rule is bit for bit the one built from a fresh leggauss
    nodes, weights = _composite_rule(-0.3, 1.1, points, panels)
    edges = np.linspace(-0.3, 1.1, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    want_nodes = np.concatenate([h * base_nodes + 0.5 * (hi + lo)
                                 for h, lo, hi in zip(half, edges[:-1], edges[1:])])
    want_weights = np.concatenate([h * base_weights for h in half])
    assert nodes.tobytes() == want_nodes.tobytes() and weights.tobytes() == want_weights.tobytes()
    # the rule is cached like its base, and no caller can write to either
    assert _composite_rule(-0.3, 1.1, points, panels)[0] is nodes
    for array in (nodes, weights, cached_nodes, cached_weights):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1.0


# ---------------------------------------------------------------------------
# the boundary step against the face-by-face route
# ---------------------------------------------------------------------------

BOUNDARY_SIGNATURES = [SpacetimeSignature(1, n) for n in range(1, 5)] + [SpacetimeSignature(2, 2)]
# real and complex amplitudes that are not finite; inf * 0 would make a NaN
# of the complex one wherever a dense product multiplied it by a zero entry
POISONS = [math.nan, math.inf, -math.inf, complex(0.3, math.inf), complex(math.nan, -1.0)]


def _poisoned(f, value, rng):
    """f with one amplitude component of its first mode set to ``value``."""
    first, *rest = f.modes
    terms = dict(first.amplitude.terms)
    terms[sorted(terms)[int(rng.integers(len(terms)))]] = value
    amplitude = Multivector(f.signature, f.grade, terms)
    return AnalyticField(f.signature, f.grade, [dataclasses.replace(first, amplitude=amplitude), *rest])


def _random_box(sig, dim, rng):
    """A box with ``dim`` random free axes, random intervals and either orientation."""
    free = sorted(rng.choice(sig.dim, dim, replace=False).tolist())
    centre, half = rng.uniform(-0.4, 0.4, sig.dim), rng.uniform(0.1, 0.3, sig.dim)
    return HypersurfaceBox(sig, {a: (centre[a] - half[a], centre[a] + half[a]) for a in free},
                           {a: centre[a] for a in sig.axes() if a not in free}, int(rng.choice([-1, 1])))


def _rule(face_dim, rng):
    """(points, panels), panels 1 to 3, with at most 27 nodes per face."""
    options = [(p, q) for p in (1, 2, 3) for q in (1, 2, 3) if (p * q) ** face_dim <= 27]
    return options[int(rng.integers(len(options)))]


def _assert_same(got, want):
    assert exact_bits(got) == exact_bits(want), (got, want)


def _boundary(f, box, points, panels, form):
    """The boundary step on a field's ``evaluate_components``."""
    return _integral(f.evaluate_components, box, points, panels, f.grade, form, faces=True)


@pytest.mark.parametrize("sig", BOUNDARY_SIGNATURES, ids=str)
def test_boundary_step_is_the_face_by_face_route_bit_for_bit(sig):
    """Every boundary form, every grade, 1-3 panels, both orientations, finite
    and non-finite real and complex amplitudes: the one stacked evaluation
    with signed gathers gives the bits of a face box, an evaluation and a
    multivector product per face.  The rows go through ``PointByPoint`` so
    both routes integrate the same rows."""
    rng = np.random.default_rng([21, sig.k, sig.n])
    with np.errstate(all="ignore"):
        for grade in range(sig.dim + 1):
            family = mode_family_fields(sig, grade, rng)
            fields = [family["mixed"], family["cos"]]
            fields += [_poisoned(family[("cos", "exp")[i % 2]], value, rng) for i, value in enumerate(POISONS)]
            for f in map(PointByPoint, fields):
                if grade < sig.dim:
                    box = _random_box(sig, grade + 1, rng)
                    points, panels = _rule(grade, rng)
                    _assert_same(_boundary(f, box, points, panels, "circulation"),
                                 reference_boundary_circulation(f, box, points, panels))
                    face = boundary_faces(box)[int(rng.integers(2 * box.dim))]
                    _assert_same(circulation(f, face, points, panels),
                                 reference_box_circulation(f, face, points, panels))
                box = _random_box(sig, int(rng.integers(1, sig.dim + 1)), rng)
                points, panels = _rule(box.dim - 1, rng)
                _assert_same(_boundary(f, box, points, panels, "flux"),
                             reference_boundary_flux(f, box, points, panels))
                _assert_same(flux(f, box, points, panels), reference_box_flux(f, box, points, panels))
                box = _random_box(sig, sig.dim, rng)
                points, panels = _rule(sig.dim - 1, rng)
                tf = PointByPoint(QuadraticTensorField(f.field))
                lhs, rhs, _ = bitensor_stokes_check(tf, box, points, panels)
                _assert_same(lhs, reference_boundary_bitensor(tf, box, points, panels))
                _assert_same(rhs, reference_box_vector(tf, box, points, panels))


def test_gathers_prune_the_integrated_row_as_the_products_do():
    """An integrated component below ``PRUNE_REL`` of the row's largest one is
    dropped before the gather, as ``from_row`` drops it before the product,
    also where the gather keeps only that component."""
    sig = SpacetimeSignature(1, 2)
    tiny = plane_wave(Multivector.blade(sig, (2,), 1e-17), (0.0, 0.1, 0.0))
    f = constant_field(Multivector.blade(sig, (0,))) + tiny
    flux_box = HypersurfaceBox(sig, {0: (0.0, 1.0), 1: (0.0, 1.0)}, {2: 0.0}, orientation=-1)
    line = HypersurfaceBox(sig, {2: (0.0, 1.0)}, {0: 0.0, 1: 0.0})
    for got, want in ((flux(f, flux_box), reference_box_flux(f, flux_box)),
                      (circulation(f, line), reference_box_circulation(f, line))):
        assert not want
        _assert_same(got, want)


def _lattice_box(sig, dim, rng, spacing, panels):
    """A box on the lattice from -1 by ``spacing`` whose faces and one-point
    panel midpoints are sites: each free interval spans 2 steps per panel."""
    free = sorted(rng.choice(sig.dim, dim, replace=False).tolist())
    start = rng.integers(0, 2, sig.dim)
    lo = -1 + spacing * start
    return HypersurfaceBox(sig, {a: (lo[a], lo[a] + 2 * panels * spacing) for a in free},
                           {a: lo[a] for a in sig.axes() if a not in free},
                           int(rng.choice([-1, 1])))


@pytest.mark.parametrize("sig", BOUNDARY_SIGNATURES, ids=str)
def test_boundary_step_on_a_grid_is_the_face_by_face_route_bit_for_bit(sig):
    """The same comparison on the ``GridField`` backend, batched directly:
    one-point panels on lattice-aligned boxes, so every node is a site."""
    rng = np.random.default_rng([22, sig.k, sig.n])
    spacing = 0.25
    for grade in range(sig.dim + 1):
        family = mode_family_fields(sig, grade, rng)
        f = GridField.sample(family["cos"] + family["envelope"], [-1.0] * sig.dim, [spacing] * sig.dim,
                             [8] * sig.dim)
        panels = int(rng.integers(1, 4))
        if grade < sig.dim:
            box = _lattice_box(sig, grade + 1, rng, spacing, panels)
            _assert_same(_boundary(f, box, 1, panels, "circulation"),
                         reference_boundary_circulation(f, box, 1, panels))
        box = _lattice_box(sig, int(rng.integers(1, sig.dim + 1)), rng, spacing, panels)
        _assert_same(_boundary(f, box, 1, panels, "flux"), reference_boundary_flux(f, box, 1, panels))
        box = _lattice_box(sig, sig.dim, rng, spacing, panels)
        tf = PointByPoint(StressTensorField(f))
        _assert_same(bitensor_stokes_check(tf, box, 1, panels)[0],
                     reference_boundary_bitensor(tf, box, 1, panels))


def test_boundary_step_fails_on_the_same_node_as_the_face_by_face_route():
    sig = SpacetimeSignature(1, 2)
    f = GridField.sample(plane_wave(Multivector.blade(sig, (0, 1)), (0.2, 0.1, 0.3)), [-1.0] * 3, [0.25] * 3,
                         [9] * 3)
    box = HypersurfaceBox(sig, {0: (-0.5, 0.5), 1: (-0.5, 0.5), 2: (-0.5, 0.5)}, {})
    with pytest.raises(FieldDomainError) as want:
        reference_boundary_flux(f, box, 3)
    with pytest.raises(FieldDomainError, match=re.escape(str(want.value))):
        _boundary(f, box, 3, 1, "flux")


@pytest.mark.parametrize("sig", BOUNDARY_SIGNATURES, ids=str)
def test_stokes_checks_match_the_face_by_face_route_on_batched_fields(sig):
    """Unwrapped analytic fields: a batched product may round a row by its
    place in the batch, so the public checks agree with the face-by-face
    route to rounding."""
    rng = np.random.default_rng([23, sig.k, sig.n])
    for grade in range(1, sig.dim):
        f = mode_family_fields(sig, grade, rng)["mixed"]
        box = _random_box(sig, grade + 1, rng)
        lhs, rhs, _ = stokes_circulation_check(f, box, 3, 2)
        assert lhs == pytest.approx(reference_boundary_circulation(f, box, 3, 2), rel=1e-13, abs=1e-13)
        box = _random_box(sig, sig.dim, rng)
        lhs, _, _ = stokes_flux_check(f, box, 2, 2)
        want = reference_boundary_flux(f, box, 2, 2)
        assert (lhs - want).max_abs() <= 1e-13 * max(1.0, want.max_abs())


def _counting(monkeypatch, owner, name, calls):
    original = getattr(owner, name)

    def wrapper(self, *args, **kwargs):
        calls.append((name, self))
        return original(self, *args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)


def test_each_boundary_is_one_evaluation_and_no_face_box(monkeypatch):
    sig = SpacetimeSignature(1, 3)
    rng = np.random.default_rng(24)
    f = mode_family_fields(sig, 2, rng)["mixed"]
    tf = StressTensorField(f)
    circ_box, flux_box, full_box = (_random_box(sig, d, rng) for d in (3, 3, 4))
    system = MaxwellSystem(sig, 2, f, mode_family_fields(sig, 1, rng)["cos"])
    calls = []
    for owner, name in ((AnalyticField, "evaluate_components"), (QuadraticTensorField, "evaluate_components"),
                        (QuadraticTensorField, "divergence_components"), (HypersurfaceBox, "__post_init__"),
                        (integrate, "dot"), (integrate, "left_interior"), (integrate, "vec_interior_bitensor")):
        _counting(monkeypatch, owner, name, calls)

    def made(run):
        """The calls ``run`` makes, each with the field it evaluates: F, its
        stress tensor T, the source J or another one; a product's first
        operand, the element, is another one."""
        calls.clear()
        run()
        who = {id(f): "F", id(tf): "T", id(system.J): "J"}
        return [(name, who.get(id(self), "other")) for name, self in calls]

    def products(name, count):
        return [(name, "other")] * count

    # a built box would show as a __post_init__ call; each face, and each box
    # on the right-hand sides, takes one public product of its integrated row
    circ_faces = products("dot", 6)
    flux_faces = products("left_interior", 6)
    assert made(lambda: stokes_flux_check(f, flux_box, 3)) == [
        ("evaluate_components", "F"), *flux_faces, ("evaluate_components", "other"), ("left_interior", "other")]
    assert made(lambda: stokes_circulation_check(f, circ_box, 3)) == [
        ("evaluate_components", "F"), *circ_faces, ("evaluate_components", "other"), ("dot", "other")]
    assert made(lambda: bitensor_stokes_check(tf, full_box, 2)) == [
        ("evaluate_components", "T"), ("evaluate_components", "F"), *products("vec_interior_bitensor", 8),
        ("divergence_components", "T")]
    assert made(lambda: integral_maxwell_check(system, circ_box, flux_box, 3)) == [
        ("evaluate_components", "F"), *circ_faces, ("evaluate_components", "F"), *flux_faces,
        ("evaluate_components", "J"), ("left_interior", "other")]
