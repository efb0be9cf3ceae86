"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criterion 7 certifies the derivative of each quadratic product
bitensor on its own: the bare split identity on single-profile fields, and on
two-mode fields, where the bare split form is false (see the counterexample
in the energy tests), the exact form documented on ``tensor_identity_check``
plus the cancellation of the two residuals.
"""

import math
import time

import numpy as np
import pytest

from extcalc.algebra import (
    Multivector,
    SpacetimeSignature,
    dot,
    hodge,
    inv_hodge,
    left_interior,
    right_interior,
    verify_identities,
    wedge,
)
from extcalc.energy import (
    conservation_residual_components,
    flux_T_direct,
    flux_T_fourier,
    stress_tensor_def,
    stress_tensor_explicit,
    synthesize_on_cone_potential,
    tensor_identity_check,
    trace,
    trace_formula,
    StressTensorField,
)
from extcalc.fields import (
    EXTERIOR,
    INTERIOR,
    AnalyticField,
    GaussianEnvelope,
    Mode,
    _derivative_at,
    _derivative_rows,
    exterior_derivative_field,
    interior_derivative_field,
    plane_wave,
    polynomial_field,
)
from extcalc.integrate import (
    HypersurfaceBox,
    bitensor_stokes_check,
    stokes_circulation_check,
    stokes_flux_check,
)
from extcalc.maxwell import (
    MINKOWSKI,
    ClassicalFields,
    classical_pack,
    classical_vector_residual_components,
    dof_count,
    maxwell_residuals,
    residuals_to_classical,
)


def report(number: int, passed: bool, detail: str):
    print(f"ACCEPTANCE {number:2d}: {'PASS' if passed else 'FAIL'} - {detail}")


def random_mv(sig, grade, rng, scale=1.0):
    return Multivector(sig, grade,
                       {idx: scale * float(rng.normal()) for idx in sig.index_lists(grade)})


def random_cos_field(sig, grade, rng, nmodes=2):
    modes = [Mode(amplitude=random_mv(sig, grade, rng),
                  xi=tuple(rng.uniform(-0.7, 0.7, sig.dim)),
                  phase=float(rng.uniform(0, 2 * math.pi)))
             for _ in range(nmodes)]
    return AnalyticField(sig, grade, modes)


def random_poly_field(sig, grade, rng, max_degree=2):
    modes = []
    for idx in sig.index_lists(grade):
        exps = tuple(int(rng.integers(0, max_degree + 1)) for _ in range(sig.dim))
        modes.append(Mode(amplitude=Multivector.blade(sig, idx, float(rng.normal())), poly=exps))
    return AnalyticField(sig, grade, modes)


def signatures_up_to(max_dim):
    for d in range(1, max_dim + 1):
        for k in range(d + 1):
            yield SpacetimeSignature(k, d - k)


# ---------------------------------------------------------------------------

def test_criterion_01_identity_suite_exact():
    start = time.monotonic()
    worst = 0.0
    count = 0
    for sig in signatures_up_to(6):
        rep = verify_identities(sig)
        worst = max(worst, rep.max_residual)
        count += 1
        assert rep.passed, f"identity failure on ({sig.k},{sig.n}): {rep.residuals}"
    elapsed = time.monotonic() - start
    ok = worst == 0.0 and elapsed < 60.0
    report(1, ok, f"identity suite exact over {count} signatures, "
                  f"max residual {worst:g}, {elapsed:.1f}s")
    assert worst == 0.0
    assert elapsed < 60.0


def test_criterion_02_hodge_round_trip_exact():
    bad = 0
    total = 0
    for sig in signatures_up_to(6):
        for grade in range(sig.dim + 1):
            for idx in sig.index_lists(grade):
                blade = Multivector.blade(sig, idx)
                total += 1
                if inv_hodge(hodge(blade)) != blade:
                    bad += 1
    report(2, bad == 0, f"hodge round trip exact on {total} blades")
    assert bad == 0


def test_criterion_03_derivative_nilpotency():
    rng = np.random.default_rng(100)
    worst = 0.0
    for sig in signatures_up_to(4):
        for r in range(sig.dim + 1):
            field = random_cos_field(sig, r, rng) + random_poly_field(sig, r, rng)
            ext_ext = exterior_derivative_field(exterior_derivative_field(field))
            int_int = interior_derivative_field(interior_derivative_field(field))
            for x in rng.uniform(-1, 1, size=(100, sig.dim)):
                worst = max(worst, ext_ext.evaluate(x).max_abs(), int_int.evaluate(x).max_abs())
    report(3, worst < 1e-10, f"nilpotency residual {worst:.3e} (tol 1e-10)")
    assert worst < 1e-10


def _random_classical(rng):
    def spatial(grade=1):
        modes = []
        for _ in range(2):
            if grade == 0:
                amp = Multivector.blade(MINKOWSKI, (), float(rng.normal()))
            else:
                amp = Multivector(MINKOWSKI, 1, {(i,): float(rng.normal()) for i in (1, 2, 3)})
            modes.append(Mode(amplitude=amp, xi=tuple(rng.uniform(-0.7, 0.7, 4)),
                              phase=float(rng.uniform(0, 2 * math.pi))))
        return AnalyticField(MINKOWSKI, grade, modes)

    return ClassicalFields(E=spatial(), B=spatial(), rho=spatial(0), j=spatial())


def test_criterion_04_classical_reduction():
    start = time.monotonic()
    rng = np.random.default_rng(200)
    worst = 0.0
    for _ in range(20):
        cf = _random_classical(rng)
        system = classical_pack(cf)
        for x in rng.uniform(-1, 1, size=(5, 4)):
            inhom, hom = maxwell_residuals(system, x)
            got = residuals_to_classical(inhom, hom)
            want = classical_vector_residual_components(cf, [x])
            worst = max(worst,
                        float(np.max(np.abs(got["gauss"] - want["gauss"]))),
                        float(np.max(np.abs(got["monopole"] - want["monopole"]))),
                        float(np.max(np.abs(got["faraday"] - want["faraday"]))),
                        float(np.max(np.abs(got["ampere"] - want["ampere"]))))
    elapsed = time.monotonic() - start
    ok = worst < 1e-9 and elapsed < 30.0
    report(4, ok, f"classical reduction mismatch {worst:.3e} (tol 1e-9), {elapsed:.1f}s")
    assert worst < 1e-9
    assert elapsed < 30.0


def _stress_sample(rng):
    for sig in signatures_up_to(5):
        for r in range(1, sig.dim + 1):
            yield sig, r


def test_criterion_05_stress_route_equivalence():
    rng = np.random.default_rng(300)
    configs = list(_stress_sample(rng))
    per_config = max(1, math.ceil(1000 / len(configs)))
    worst = 0.0
    count = 0
    for sig, r in configs:
        for _ in range(per_config):
            f = random_mv(sig, r, rng)
            t_def = stress_tensor_def(f)
            t_exp = stress_tensor_explicit(f)
            diff = max((abs(t_def.get(i, j) - t_exp.get(i, j))
                        for i in sig.axes() for j in sig.axes()), default=0.0)
            worst = max(worst, diff)
            count += 1
    report(5, worst < 1e-12, f"stress routes agree on {count} fields, "
                             f"max componentwise diff {worst:.3e} (tol 1e-12)")
    assert count >= 1000
    assert worst < 1e-12


def test_criterion_06_trace_law():
    rng = np.random.default_rng(400)
    configs = list(_stress_sample(rng))
    per_config = max(1, math.ceil(1000 / len(configs)))
    worst = 0.0
    traceless_worst = 0.0
    for sig, r in configs:
        for _ in range(per_config):
            f = random_mv(sig, r, rng)
            t = stress_tensor_explicit(f)
            got = trace(t)
            want = trace_formula(f)
            worst = max(worst, abs(got - want))
            if sig.dim == 2 * r:
                assert want == 0.0  # the closed form vanishes identically
                traceless_worst = max(traceless_worst, abs(got))
    ok = worst < 1e-12 and traceless_worst < 1e-12
    report(6, ok, f"trace law max diff {worst:.3e}, traceless residual "
                  f"{traceless_worst:.3e} (tol 1e-12)")
    assert worst < 1e-12
    assert traceless_worst < 1e-12


def _expected_split_residuals(field, x):
    """What the two split residuals equal for any smooth field, with dF and
    delta F its exterior and interior derivatives:

    res_odot   = A - (1/2) left_interior(delta F, F)
    res_owedge = B - (1/2) right_interior(dF, F)
    A_i = (1/2) Delta_ii sum_j Delta_jj dot(left_interior(e_i, d_j F), right_interior(F, e_j))
    B_i = (1/2) Delta_ii sum_j Delta_jj dot(wedge(e_i, d_j F), wedge(F, e_j))

    Built from the field's value and partials, one ``jet`` at x, and the public
    products only, never through QuadraticTensorField, so the check does not
    rest on the divergence it certifies.
    """
    sig = field.signature
    rows, slopes = field.jet(np.asarray(x, dtype=float)[None, :])
    value = Multivector.from_row(sig, field.grade, rows[0])
    basis = [Multivector.blade(sig, (i,)) for i in sig.axes()]
    a_terms, b_terms = {}, {}
    for j in sig.axes():
        slope = Multivector.from_row(sig, field.grade, slopes[j, 0])
        value_int = right_interior(value, basis[j])
        value_ext = wedge(value, basis[j])
        for i in sig.axes():
            weight = 0.5 * sig.metric(i) * sig.metric(j)
            a_terms[(i,)] = a_terms.get((i,), 0) + \
                weight * dot(left_interior(basis[i], slope), value_int)
            b_terms[(i,)] = b_terms.get((i,), 0) + \
                weight * dot(wedge(basis[i], slope), value_ext)
    want_odot = Multivector(sig, 1, a_terms) \
        - 0.5 * left_interior(_derivative_at(field, INTERIOR, x, slopes=slopes), value)
    want_owedge = Multivector(sig, 1, b_terms) \
        - 0.5 * right_interior(_derivative_at(field, EXTERIOR, x, slopes=slopes), value)
    return want_odot, want_owedge


def _single_profile_variant(mode, sig, rng):
    """The mode times a random monomial and Gaussian envelope: still one scalar profile."""
    envelope = GaussianEnvelope(center=tuple(rng.uniform(-0.5, 0.5, sig.dim)),
                                width=float(rng.uniform(0.5, 1.5)))
    return Mode(amplitude=mode.amplitude, xi=mode.xi, phase=mode.phase,
                poly=tuple(int(p) for p in rng.integers(0, 3, sig.dim)), envelope=envelope)


def test_criterion_07_split_tensor_identities():
    rng = np.random.default_rng(500)
    # monomial and envelope draws come from their own stream so the seeded
    # two-mode fields and points are the same as drawn from seed 500 alone
    profile_rng = np.random.default_rng(501)
    worst_single = 0.0
    worst_split = 0.0
    worst_odot = 0.0
    worst_owedge = 0.0
    worst_sum = 0.0
    for sig in signatures_up_to(4):
        for r in range(1, sig.dim + 1):
            for _ in range(50):
                field = random_cos_field(sig, r, rng)
                x = rng.uniform(-1, 1, sig.dim)

                # one scalar profile: each split identity holds on its own
                single = AnalyticField(sig, r, [
                    _single_profile_variant(field.modes[0], sig, profile_rng)])
                res_odot, res_owedge = tensor_identity_check(single, x)
                worst_single = max(worst_single, res_odot.max_abs(), res_owedge.max_abs())

                # two profiles: each residual equals its explicit product-rule term
                res_odot, res_owedge = tensor_identity_check(field, x)
                want_odot, want_owedge = _expected_split_residuals(field, x)
                worst_split = max(worst_split, res_odot.max_abs(), res_owedge.max_abs())
                worst_odot = max(worst_odot, (res_odot - want_odot).max_abs())
                worst_owedge = max(worst_owedge, (res_owedge - want_owedge).max_abs())
                worst_sum = max(worst_sum, (res_odot + res_owedge).max_abs())
    worst = max(worst_single, worst_odot, worst_owedge, worst_sum)
    ok = worst < 1e-9
    report(7, ok, f"split residuals {worst_single:.3e} on single-profile fields; on two-mode "
                  f"fields they deviate from zero by up to {worst_split:.3e}, match their "
                  f"explicit terms to {max(worst_odot, worst_owedge):.3e} and cancel to "
                  f"{worst_sum:.3e} (tol 1e-9)")
    assert worst_single < 1e-9, "a split identity fails on a single-profile field"
    assert worst_odot < 1e-9, \
        "interior-product residual differs from A - (1/2) left_interior(delta F, F)"
    assert worst_owedge < 1e-9, \
        "exterior-product residual differs from B - (1/2) right_interior(dF, F)"
    assert worst_sum < 1e-9, "the two split residuals do not cancel"


def _vacuum_solution(sig, xi, amp_idx, scale=1.0, phase=0.0):
    potential = plane_wave(Multivector.blade(sig, amp_idx, scale), xi, phase=phase)
    f_field = exterior_derivative_field(potential)
    j_field = interior_derivative_field(f_field)
    return f_field, j_field


def test_criterion_08_conservation_law():
    rng = np.random.default_rng(600)
    # null covectors with irrational components so cancellations are inexact
    cases = [
        (SpacetimeSignature(1, 3), (math.sqrt(2.0), 1.0, 0.0, 1.0), (2,)),
        (SpacetimeSignature(2, 2), (1.0, math.sqrt(3.0), 0.0, 2.0), (2,)),
        (SpacetimeSignature(1, 2), (math.sqrt(5.0), 1.0, 2.0), ()),
    ]
    worst = 0.0
    for sig, xi, amp_idx in cases:
        f_field, j_field = _vacuum_solution(sig, xi, amp_idx, scale=1.3, phase=0.4)
        for x in rng.uniform(-1, 1, size=(100, sig.dim)):
            worst = max(worst, float(np.abs(conservation_residual_components(f_field, j_field, [x])).max()))
    report(8, worst < 1e-9, f"conservation residual {worst:.3e} over plane-wave vacua (tol 1e-9)")
    assert worst < 1e-9


def test_criterion_09_energy_density_and_poynting():
    rng = np.random.default_rng(700)
    worst = 0.0
    for _ in range(100):
        e_vec = rng.normal(size=3)
        b_vec = rng.normal(size=3)
        f = Multivector(MINKOWSKI, 2, {(0, i + 1): e_vec[i] for i in range(3)})
        f = f + Multivector(MINKOWSKI, 2, {(2, 3): b_vec[0], (1, 3): -b_vec[1], (1, 2): b_vec[2]})
        t = stress_tensor_explicit(f)
        worst = max(worst, abs(t.get(0, 0) - 0.5 * float(e_vec @ e_vec + b_vec @ b_vec)))
        poynting = np.cross(e_vec, b_vec)
        for i in range(3):
            worst = max(worst, abs(t.get(0, i + 1) - poynting[i]))
    report(9, worst < 1e-12, f"energy density / Poynting mismatch {worst:.3e} (tol 1e-12)")
    assert worst < 1e-12


def test_criterion_10_stokes_theorems():
    start = time.monotonic()
    rng = np.random.default_rng(800)
    worst_rel = 0.0

    def rel(residual, *values):
        scale = max([1.0] + [abs(v) if np.isscalar(v) else v.max_abs() for v in values])
        return residual / scale

    # circulation: polynomial grade-1 on (0,3), enveloped wave grade-1 on (1,2)
    f_poly = random_poly_field(SpacetimeSignature(0, 3), 1, rng)
    box = HypersurfaceBox(SpacetimeSignature(0, 3),
                          intervals={0: (-0.4, 0.3), 2: (0.1, 0.8)}, fixed={1: 0.2})
    lhs, rhs, residual = stokes_circulation_check(f_poly, box, points=10)
    worst_rel = max(worst_rel, rel(residual, lhs, rhs))

    sig12 = SpacetimeSignature(1, 2)
    env = GaussianEnvelope(center=(0.0, 0.1, -0.1), width=1.2)
    f_env = plane_wave(random_mv(sig12, 1, rng), (0.8, 0.5, -0.4), phase=0.3, envelope=env)
    box = HypersurfaceBox(sig12, intervals={0: (-0.3, 0.4), 1: (-0.2, 0.5)}, fixed={2: 0.1})
    lhs, rhs, residual = stokes_circulation_check(f_env, box, points=14)
    worst_rel = max(worst_rel, rel(residual, lhs, rhs))

    # flux: polynomial grade-2 on (0,3) full box, enveloped wave grade-1 on (1,1)
    f_poly2 = random_poly_field(SpacetimeSignature(0, 3), 2, rng)
    box = HypersurfaceBox(SpacetimeSignature(0, 3),
                          intervals={0: (0, 0.6), 1: (0, 0.5), 2: (-0.2, 0.4)}, fixed={})
    lhs, rhs, residual = stokes_flux_check(f_poly2, box, points=10)
    worst_rel = max(worst_rel, rel(residual, lhs, rhs))

    sig11 = SpacetimeSignature(1, 1)
    f_env2 = plane_wave(random_mv(sig11, 1, rng), (0.9, 0.7), phase=0.2,
                        envelope=GaussianEnvelope(center=(0.1, -0.1), width=1.4))
    box = HypersurfaceBox(sig11, intervals={0: (-0.5, 0.5), 1: (-0.4, 0.6)}, fixed={})
    lhs, rhs, residual = stokes_flux_check(f_env2, box, points=14)
    worst_rel = max(worst_rel, rel(residual, lhs, rhs))

    # bitensor: stress tensor of a plane wave on (1,3)
    f_field, _ = _vacuum_solution(SpacetimeSignature(1, 3), (1.0, 0.0, 0.0, 1.0), (2,))
    tf = StressTensorField(f_field)
    box = HypersurfaceBox(SpacetimeSignature(1, 3),
                          intervals={0: (0, 0.3), 1: (0, 0.4), 2: (-0.2, 0.2), 3: (0.1, 0.5)},
                          fixed={})
    lhs, rhs, residual = bitensor_stokes_check(tf, box, points=8)
    worst_rel = max(worst_rel, rel(residual, lhs, rhs))

    elapsed = time.monotonic() - start
    ok = worst_rel < 1e-8 and elapsed < 60.0
    report(10, ok, f"Stokes circulation/flux/bitensor relative residual {worst_rel:.3e} "
                   f"(tol 1e-8), {elapsed:.1f}s")
    assert worst_rel < 1e-8
    assert elapsed < 60.0


def test_criterion_11_fourier_flux_capstone():
    start = time.monotonic()
    results = []

    # (1,1), field grade 1: scalar on-cone amplitude
    sig11 = SpacetimeSignature(1, 1)

    def bump11(xi_plus):
        xi1 = xi_plus[:, 1]
        return np.exp(-((xi1 - 1.0) ** 2) / (2 * 0.15 ** 2))[:, None]

    region = {1: (0.4, 1.6)}
    fourier = flux_T_fourier(bump11, 0, region, sig11, grade=1, points=32, panels=4)
    potential = synthesize_on_cone_potential(bump11, 0, region, sig11, grade=1,
                                             points=32, panels=4)
    direct = flux_T_direct(exterior_derivative_field(potential), 0, 0.0,
                           bounds={1: (-7.9, 7.9)}, points=8, panels=40)
    results.append(("(1,1)", (direct - fourier).max_abs() / fourier.max_abs()))

    # (1,2), field grade 2: transverse on-cone amplitude
    sig12 = SpacetimeSignature(1, 2)

    def bump12(xi_plus):
        xi1 = xi_plus[:, 1]
        xi2 = xi_plus[:, 2]
        h = np.exp(-((xi1 - 1.1) ** 2 + xi2 ** 2) / (2 * 0.18 ** 2))
        return np.stack([np.zeros_like(h), -xi2 * h, xi1 * h], axis=1)

    region = {1: (0.4, 1.8), 2: (-0.7, 0.7)}
    fourier = flux_T_fourier(bump12, 0, region, sig12, grade=2, points=18, panels=1)
    potential = synthesize_on_cone_potential(bump12, 0, region, sig12, grade=2,
                                             points=18, panels=1)
    direct = flux_T_direct(exterior_derivative_field(potential), 0, 0.0,
                           bounds={1: (-5.0, 5.0), 2: (-5.0, 5.0)}, points=8, panels=20)
    results.append(("(1,2)", (direct - fourier).max_abs() / fourier.max_abs()))

    elapsed = time.monotonic() - start
    worst = max(err for _, err in results)
    ok = worst < 0.01 and elapsed < 300.0
    detail = ", ".join(f"{name} rel err {err:.2e}" for name, err in results)
    report(11, ok, f"fourier flux capstone: {detail} (tol 1e-2), {elapsed:.1f}s")
    assert worst < 0.01
    assert elapsed < 300.0


def test_criterion_12_degrees_of_freedom():
    assert dof_count(2, 1, 3) == 2
    xi = (1.0, 0.0, 0.0, 1.0)
    basis = [plane_wave(Multivector.blade(MINKOWSKI, (i,)), xi) for i in (1, 2)]
    assert len(basis) == dof_count(2, 1, 3)
    worst = 0.0
    rng = np.random.default_rng(900)
    points = rng.uniform(-1, 1, size=(10, 4))
    for potential in basis:
        for axes in (range(1), range(1, 4)):
            worst = max(worst, np.abs(_derivative_rows(potential, INTERIOR, points, axes)).max())
    ok = worst < 1e-12
    report(12, ok, f"two transverse polarizations, residuals {worst:.3e} (tol 1e-12)")
    assert worst < 1e-12
