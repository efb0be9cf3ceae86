"""Command-line driver: run verification suites and emit JSON reports.

Exit codes: 0 when every computed residual is within tolerance, 1 on a
numerical failure, 2 on usage or configuration errors.  Reports are a single
canonical JSON document on stdout (or --out FILE); short human-readable
summaries go to stderr.  Identical configuration and seed always produce
byte-identical reports.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys

import numpy as np

from .algebra import (
    IDENTITY_DIM_CAP,
    Multivector,
    SpacetimeSignature,
    _sign_tables,
    _worst,
    dot as algebra_dot,  # noqa: F401 - a binding benchmarks/test_benchmark.py checks the tracer wraps
    verify_identities,
)
from .energy import (
    GaugeViolation,
    StressTensorField,
    conservation_residual_components,
    flux_T_direct,
    flux_T_fourier,
    lorentz_force,
    stress_tensor_explicit,
    stress_tensor_explicit_components,
    synthesize_on_cone_potential,
    trace,
    trace_components,
    trace_formula,
    trace_formula_components,
)
from .fields import (
    EXTERIOR,
    INTERIOR,
    AnalyticField,
    FieldDomainError,
    GridField,
    _cosine_field,
    _derivative_rows,
    _pruned,
    exterior_derivative_field,
    interior_derivative_components,
)
from .integrate import HypersurfaceBox
from .maxwell import (
    MINKOWSKI,
    ClassicalFields,
    MaxwellSystem,
    classical_pack,
    classical_vector_residual_components,
    integral_maxwell_check,
    maxwell_residual_components,
    maxwell_residuals,
    null_support_violation,
    residuals_to_classical,
)
from .serialize import (
    Scenario,
    ScenarioError,
    _reading,
    bitensor_to_json,
    canonical_dumps,
    json_axis,
    json_float,
    json_int,
    multivector_to_json,
    scenario_from_json,
    signature_from_json,
    signature_to_json,
)

EXIT_PASS = 0
EXIT_NUMERICAL = 1
EXIT_USAGE = 2

# the report keys stress-energy and flux-compare share, each null in the other's report
STRESS_KEYS = ("T", "trace", "trace_formula", "force", "conservation_residual_max")
FLUX_KEYS = ("flux_direct", "flux_fourier", "flux_rel_err")


def _finish(args, report: dict, detail: str, *notes: str | None) -> int:
    """Write the canonical report to stdout or --out, then to stderr the line
    "<command>: PASS|FAIL<detail>" and each located note; return the exit code.

    A report that cannot be written is a usage error."""
    text = canonical_dumps(report)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
        except OSError as exc:
            raise ScenarioError(f"cannot write the report: {exc}") from exc
    else:
        print(text)
    passed = report["passed"]
    print(f"{report['command']}: {'PASS' if passed else 'FAIL'}{detail}", file=sys.stderr)
    for note in filter(None, notes):
        print(note, file=sys.stderr)
    return EXIT_PASS if passed else EXIT_NUMERICAL


def _load_config(args) -> dict:
    if not args.config:
        raise ScenarioError("--config PATH is required for this command")
    try:
        with open(args.config, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError as exc:
        raise ScenarioError(f"config file not found: {args.config}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"config is not valid JSON: {exc}") from exc


def _sample_points(rng: np.random.Generator, dim: int, count: int) -> np.ndarray:
    return rng.uniform(-1.0, 1.0, size=(count, dim))


def _scenario_run(args) -> tuple[Scenario, MaxwellSystem, np.random.Generator, np.ndarray]:
    """The scenario with its --seed and --tol overrides, its Maxwell system,
    the rng seeded from it and the sample points first drawn from that rng.

    Analytic fields are sampled uniformly; grid-backed fields are sampled on
    interior lattice sites so that central differences stay in range.
    """
    overrides = {flag: getattr(args, flag) for flag in ("seed", "tol") if getattr(args, flag) is not None}
    scenario = dataclasses.replace(scenario_from_json(_load_config(args)), **overrides)
    system = MaxwellSystem(scenario.signature, scenario.r, scenario.F, scenario.J)
    rng = np.random.default_rng(scenario.seed)
    field = scenario.F
    if isinstance(field, GridField):
        shape = field.values.shape[:-1]
        if any(s < 3 for s in shape):
            raise ScenarioError("grid fields need at least 3 sites per axis for derivatives")
    # a count beyond what numpy can shape or allocate is a bad scenario, not a failed check
    with _reading("sample_points"):
        if isinstance(field, GridField):
            sites = np.stack([rng.integers(1, s - 1, size=scenario.sample_points) for s in shape],
                             axis=1)
            points = field.origin + sites * field.spacing
        else:
            points = _sample_points(rng, scenario.signature.dim, scenario.sample_points)
    return scenario, system, rng, points


def _header(command: str, scenario: Scenario) -> dict:
    """The report keys maxwell-check and stress-energy share."""
    return {"command": command, "signature": signature_to_json(scenario.signature),
            "r": scenario.r, "seed": scenario.seed, "tol": scenario.tol}


# ---------------------------------------------------------------------------
# verify-identities
# ---------------------------------------------------------------------------

def _flipped_vector_wedge(sig: SpacetimeSignature):
    """The injected corruption: the signature's sign tables with the wedge
    sign negated on every pair of basis vectors."""
    tables = _sign_tables(sig)
    flipped = tables.Cw.copy()
    flipped[1:sig.dim + 1, 1:sig.dim + 1] *= -1
    return dataclasses.replace(tables, Cw=flipped)


def cmd_verify_identities(args) -> int:
    # default run sweeps every (k, n) with k + n <= the dimension cap; the
    # axis flags restrict the sweep and may not jointly exceed the cap
    if args.kmax is not None and args.nmax is not None \
            and args.kmax + args.nmax > IDENTITY_DIM_CAP:
        raise ScenarioError(f"kmax + nmax = {args.kmax + args.nmax} exceeds the dimension cap "
                            f"{IDENTITY_DIM_CAP}")
    kmax = args.kmax if args.kmax is not None else IDENTITY_DIM_CAP
    nmax = args.nmax if args.nmax is not None else IDENTITY_DIM_CAP
    if kmax < 0 or nmax < 0 or kmax + nmax < 1:
        raise ScenarioError(f"need kmax + nmax >= 1, got ({kmax}, {nmax})")
    # on one axis the only pair of basis vectors is e_0 ^ e_0 = 0: the flip would corrupt nothing
    if args.self_test_corruption and kmax + nmax < 2:
        raise ScenarioError("--self-test-corruption needs a signature with k + n >= 2 in the sweep, "
                            f"got kmax + nmax = {kmax + nmax}")
    tol = args.tol if args.tol is not None else 0.0

    entries = []
    worst = 0.0
    # no signature beyond the cap is swept, however large the flag
    for k in range(min(kmax, IDENTITY_DIM_CAP) + 1):
        for n in range(min(nmax, IDENTITY_DIM_CAP - k) + 1):
            if k + n < 1:
                continue
            sig = SpacetimeSignature(k, n)
            tables = _flipped_vector_wedge(sig) if args.self_test_corruption else None
            report = verify_identities(sig, tol=tol, tables=tables)
            entries.append({
                "k": k,
                "n": n,
                "residuals": report.residuals,
                "checks": report.checks,
                "passed": report.passed,
            })
            worst = _worst([worst, report.max_residual])
    report = {"command": "verify-identities", "kmax": kmax, "nmax": nmax, "tol": tol,
              "signatures": entries, "max_residual": worst,
              "passed": all(e["passed"] for e in entries)}
    return _finish(args, report, f" over {len(entries)} signatures, max residual {worst:g}")


# ---------------------------------------------------------------------------
# maxwell-check
# ---------------------------------------------------------------------------

def _check_differential(system: MaxwellSystem, points: np.ndarray, tol: float) -> tuple[dict, str | None]:
    """The differential residuals over all points and, when they fail, a line
    naming the point of the largest (or first NaN) residual and, from
    ``maxwell_residuals`` there, its worst component."""
    inhom, hom = maxwell_residual_components(system, points)
    block = {"inhom_max": _worst(inhom), "hom_max": _worst(hom),
             "charge_conservation_max": _worst(interior_derivative_components(system.J, points))}
    magnitudes = np.hstack([np.abs(inhom), np.abs(hom)])
    if _worst(list(block.values())) <= tol or _worst(magnitudes) == 0.0:
        return block, None
    x = points[int(np.argmax(magnitudes)) // magnitudes.shape[1]]
    # re-evaluated alone: its J.evaluate(x) is the per-point evaluation behind the traced
    # maxwell-check's fields.point_evals > 0 in benchmarks/test_benchmark.py's tracer test
    terms = [(abs(c), side, idx) for side, mv in zip(("inhom", "hom"), maxwell_residuals(system, x))
             for idx, c in mv.terms.items()]
    if not terms:
        return block, None
    size, side, idx = max(terms, key=lambda t: math.inf if math.isnan(t[0]) else t[0])
    return block, (f"maxwell-check: differential worst residual {size:g} at point "
                   f"[{', '.join(f'{v:.6g}' for v in x)}], component "
                   f"{'e_' + ''.join(map(str, idx)) if idx else '1'} of {side}")


def _random_box(sig: SpacetimeSignature, free_axes, rng: np.random.Generator) -> HypersurfaceBox:
    centers = rng.uniform(-0.3, 0.3, sig.dim)
    halves = rng.uniform(0.15, 0.35, sig.dim)
    intervals = {a: (float(centers[a] - halves[a]), float(centers[a] + halves[a])) for a in free_axes}
    fixed = {a: float(centers[a]) for a in sig.axes() if a not in intervals}
    return HypersurfaceBox(sig, intervals=intervals, fixed=fixed)


def _check_integral(system: MaxwellSystem, rng: np.random.Generator, quad_points: int) -> dict:
    sig = system.signature
    out = {}
    for i, (name, box_dim) in enumerate((("circulation", system.r + 1), ("flux", sig.dim - system.r + 1))):
        if box_dim <= sig.dim:
            box = _random_box(sig, list(rng.permutation(sig.dim))[:box_dim], rng)
            out[f"{name}_residual"] = integral_maxwell_check(system, **{f"{name}_box": box},
                                                             points=quad_points)[i]
    return out


def _check_fourier(system: MaxwellSystem) -> dict:
    f_field = system.F
    if not isinstance(f_field, AnalyticField):
        return {"skipped": "grid-backed fields have no mode data"}
    waves = f_field._plane_waves()
    if waves is None:
        return {"skipped": "plane-wave algebra needs modes without monomial or envelope factors"}
    # a grid-backed source has no modes either, but it is a source
    if not (isinstance(system.J, AnalyticField) and system.J.mode_count == 0):
        return {"skipped": "algebraic source-free check needs a source-free scenario"}
    modes = [null_support_violation(xi, Multivector.from_row(f_field.signature, f_field.grade, amp))
             for xi, amp in waves]
    return {name: _worst([mode[key] for mode in modes]) for name, key in
            (("inhom_max", "inhom_max"), ("hom_max", "hom_max"), ("null_support_violation", "violation"))}


def _check_gauge(scenario: Scenario, system: MaxwellSystem, points: np.ndarray) -> dict:
    if scenario.A is None:
        return {"skipped": "no potential in scenario"}
    sig = scenario.signature
    # A's partial rows, evaluated once for dA and the three interior axis sets
    slopes = scenario.A.jet(points)[1]

    def rows(kind, axes=None):
        return _derivative_rows(scenario.A, kind, points, axes, slopes)

    return {"lorenz_max": _worst(rows(INTERIOR)),
            "transverse_time_max": _worst(rows(INTERIOR, range(sig.k))),
            "transverse_space_max": _worst(rows(INTERIOR, range(sig.k, sig.dim))),
            "potential_consistency_max": _worst(rows(EXTERIOR) - system.F.evaluate_components(points))}


def _rule_shape(points: int, panels: int, names: str) -> None:
    """Refuse, as a bad configuration, a composite rule numpy cannot shape:
    one whose points x panels nodes or panels + 1 edges per axis do not fit
    an index, which would end in an OverflowError or IndexError traceback."""
    if max(points * panels, panels + 1) > np.iinfo(np.intp).max:
        raise ScenarioError(f"{names}: {points} points on {panels} panels per axis "
                            f"are more than numpy can shape")


def cmd_maxwell_check(args) -> int:
    scenario, system, rng, points = _scenario_run(args)
    quad_points = args.points if args.points is not None else 8
    _rule_shape(quad_points, 1, "--points")

    checks: dict = {}
    located = None
    if "differential" in scenario.checks:
        checks["differential"], located = _check_differential(system, points, scenario.tol)
    if "integral" in scenario.checks:
        checks["integral"] = _check_integral(system, rng, quad_points)
    if "fourier" in scenario.checks:
        checks["fourier"] = _check_fourier(system)
    if "gauge" in scenario.checks:
        checks["gauge"] = _check_gauge(scenario, system, points)

    residuals = [value for block in checks.values() for key, value in block.items()
                 if isinstance(value, (int, float))]
    if not residuals:
        # every requested check skipped: nothing was verified, so no verdict
        reasons = "; ".join(f"{name}: {block.get('skipped', 'no residual')}"
                            for name, block in checks.items())
        raise ScenarioError(f"no requested check produced a residual ({reasons})")
    worst = _worst(residuals)
    report = {**_header("maxwell-check", scenario), "sample_points": scenario.sample_points,
              "checks": checks, "max_residual": worst, "passed": worst <= scenario.tol}
    return _finish(args, report, f", max residual {worst:g} (tol {scenario.tol:g})", located)


# ---------------------------------------------------------------------------
# stress-energy
# ---------------------------------------------------------------------------

def cmd_stress_energy(args) -> int:
    scenario, system, _, points = _scenario_run(args)
    if getattr(scenario.F, "is_complex", lambda: False)():
        raise ScenarioError(
            "stress-energy checks need real fields (cosine modes); quadratic expressions "
            "in complex-exponential fields are not the physical quantities")
    sig, r = scenario.signature, scenario.r
    rows = system.F.evaluate_components(points)
    explicit = stress_tensor_explicit_components(sig, r, rows)
    route_max = _worst(StressTensorField(system.F).evaluate_components(points) - explicit)
    trace_max = _worst(trace_components(sig, explicit) - trace_formula_components(sig, r, rows))
    conservation_max = _worst(conservation_residual_components(system.F, system.J, points))

    x0 = points[0]
    value0 = system.F.evaluate(x0)
    tensor0 = stress_tensor_explicit(value0)
    worst = _worst([route_max, trace_max, conservation_max])
    report = {
        **_header("stress-energy", scenario),
        "point": [float(v) for v in x0],
        "T": bitensor_to_json(tensor0),
        "trace": float(trace(tensor0)),
        "trace_formula": float(trace_formula(value0)),
        "force": multivector_to_json(lorentz_force(value0, system.J.evaluate(x0))),
        "conservation_residual_max": conservation_max,
        "route_max_diff": route_max,
        "trace_max_diff": trace_max,
        **dict.fromkeys(FLUX_KEYS),
        "max_residual": worst,
        "passed": worst <= scenario.tol,
    }
    return _finish(args, report, f", max residual {worst:g} (tol {scenario.tol:g})")


# ---------------------------------------------------------------------------
# flux-compare
# ---------------------------------------------------------------------------

def _bump_factory(spec: dict, sig: SpacetimeSignature, axis: int, r: int):
    kind = spec.get("kind", "scalar")
    width = json_float(spec["width"], "spectrum width")
    scale = json_float(spec.get("scale", 1.0), "spectrum scale")
    center = {json_axis(a, "spectrum center"): json_float(c, "spectrum center")
              for a, c in spec["center"].items()}
    # a width that is not positive, a zero scale, or a centre that is empty (a
    # scalar bump) or on an axis the space-time lacks would compare a vanishing
    # or different spectrum
    if not (math.isfinite(width) and width > 0):
        raise ScenarioError(f"spectrum width must be finite and positive, got {width}")
    if not (math.isfinite(scale) and scale != 0):
        raise ScenarioError(f"spectrum scale must be finite and nonzero, got {scale}")
    if not center or any(a not in sig.axes() for a in center) \
            or not all(map(math.isfinite, center.values())):
        raise ScenarioError(f"spectrum center must map one or more axes 0..{sig.dim - 1} to finite values, "
                            f"got {spec['center']}")

    def bump(xi_plus: np.ndarray) -> np.ndarray:
        q = 0.0
        for a, c in center.items():
            q = q + (xi_plus[:, a] - c) ** 2
        return scale * np.exp(-q / (2.0 * width ** 2))

    if kind == "scalar":
        if r != 1:
            raise ScenarioError("scalar spectrum requires field grade 1")

        def a_hat(xi_plus):
            return bump(xi_plus)[:, None]

        return a_hat
    if kind == "spatial-transverse":
        if r != 2 or sig.k != 1 or sig.n < 2 or axis != 0:
            raise ScenarioError("spatial-transverse spectrum requires grade 2 on a (1,n) "
                                "space-time with n >= 2 and axis 0")

        def a_hat(xi_plus):
            # h(xi) (0, -xi_2, xi_1, 0, ...) = h(xi) xi_bar interior (-e_12), so
            # xi_bar interior A_hat = 0: the Lorenz condition holds by construction
            h = bump(xi_plus)
            rows = np.zeros((len(h), sig.dim))
            rows[:, 1] = -xi_plus[:, 2] * h
            rows[:, 2] = xi_plus[:, 1] * h
            return rows

        return a_hat
    raise ScenarioError(f"unknown spectrum kind {kind!r}")


def cmd_flux_compare(args) -> int:
    data = _load_config(args)
    with _reading("flux-compare config"):
        sig = signature_from_json(data["signature"])
        r = json_int(data["r"], "r")
        axis = json_int(data["axis"], "axis")
        coordinate = json_float(data.get("coordinate", 0.0), "coordinate")
        region, slice_bounds = ({json_axis(a, key): (json_float(lo, key), json_float(hi, key))
                                 for a, (lo, hi) in data[key].items()} for key in ("region", "slice_bounds"))
        others = set(sig.axes()) - {axis}
        if axis not in sig.axes() or set(region) != others or set(slice_bounds) != others \
                or any(not lo < hi for lo, hi in (*region.values(), *slice_bounds.values())):
            raise ScenarioError(f"axis must be one of {list(sig.axes())}, and region and "
                                f"slice_bounds must bound every other axis by [lo, hi], lo < hi")
        freq_points, freq_panels, slice_points, slice_panels = (
            json_int(data.get(key, default), key, least=1) for key, default in
            (("freq_points", 24), ("freq_panels", 2), ("slice_points", 8), ("slice_panels", 16)))
        _rule_shape(freq_points, freq_panels, "freq_points and freq_panels")
        _rule_shape(slice_points, slice_panels, "slice_points and slice_panels")
        tol = args.tol if args.tol is not None else json_float(data.get("tol", 0.01), "tol")
        a_hat = _bump_factory(data["spectrum"], sig, axis, r)

    fourier = flux_T_fourier(a_hat, axis, region, sig, grade=r,
                             points=freq_points, panels=freq_panels)
    potential = synthesize_on_cone_potential(a_hat, axis, region, sig, grade=r,
                                             points=freq_points, panels=freq_panels)
    f_field = exterior_derivative_field(potential)
    direct = flux_T_direct(f_field, axis, coordinate, bounds=slice_bounds,
                           points=slice_points, panels=slice_panels)
    scale = fourier.max_abs()
    # a vanishing Fourier flux leaves nothing to compare against: NaN, so FAIL
    rel_err = (direct - fourier).max_abs() / scale if scale > 0 else math.nan
    # pointwise Lorenz residual of the synthesized potential, for the record
    rng = np.random.default_rng(0)
    divergence = interior_derivative_components(potential, rng.uniform(-1.0, 1.0, size=(10, sig.dim)))
    gauge_max = _worst(divergence)
    report = {
        "command": "flux-compare",
        "signature": signature_to_json(sig),
        "r": r,
        "axis": axis,
        "coordinate": coordinate,
        "tol": tol,
        "synth_modes": potential.mode_count,
        **dict.fromkeys(STRESS_KEYS),
        "flux_direct": multivector_to_json(direct),
        "flux_fourier": multivector_to_json(fourier),
        "flux_rel_err": rel_err,
        "lorenz_residual_max": gauge_max,
        "passed": rel_err <= tol,
    }
    return _finish(args, report, f", relative error {rel_err:.3e} (tol {tol:g})")


# ---------------------------------------------------------------------------
# classical
# ---------------------------------------------------------------------------

def _random_spatial_field(rng: np.random.Generator, grade: int = 1, nmodes: int = 2) -> AnalyticField:
    """Cosine modes with normal amplitudes on the spatial blades (the scalar
    for grade 0), each mode's amplitude, then xi, then phase drawn in turn."""
    amp = np.zeros((nmodes, 4 if grade else 1))
    xi, phase = np.empty((nmodes, 4)), np.empty(nmodes)
    for m in range(nmodes):
        amp[m, grade:] = [rng.normal() for _ in range(3 if grade else 1)]
        xi[m] = rng.uniform(-0.7, 0.7, 4)
        phase[m] = rng.uniform(0, 2 * math.pi)
    return _cosine_field(MINKOWSKI, grade, _pruned(amp), xi, phase)


def cmd_classical(args) -> int:
    seed = args.seed if args.seed is not None else 0
    tol = args.tol if args.tol is not None else 1e-9
    rng = np.random.default_rng(seed)

    agreement_max = 0.0
    first_sample = None
    for _ in range(args.configs):
        cf = ClassicalFields(E=_random_spatial_field(rng), B=_random_spatial_field(rng),
                             rho=_random_spatial_field(rng, grade=0), j=_random_spatial_field(rng))
        points = _sample_points(rng, 4, args.samples)
        got = residuals_to_classical(*maxwell_residual_components(classical_pack(cf), points))
        want = classical_vector_residual_components(cf, points)
        agreement_max = _worst([agreement_max, *(_worst(got[name] - want[name]) for name in got)])
        if first_sample is None:
            first_sample = {"point": points[0].tolist(),
                            "vector_form": {name: want[name][0].tolist() for name in want},
                            "multivector_form": {name: got[name][0].tolist() for name in got}}

    # vacuum plane wave: both differential residuals vanish identically
    xi, phase = np.array([[1.0, 0.0, 0.0, 1.0]]), np.zeros(1)
    vacuum = classical_pack(ClassicalFields(
        E=_cosine_field(MINKOWSKI, 1, np.array([[0.0, 1.0, 0.0, 0.0]]), xi, phase),
        B=_cosine_field(MINKOWSKI, 1, np.array([[0.0, 0.0, 1.0, 0.0]]), xi, phase),
        rho=AnalyticField(MINKOWSKI, 0), j=AnalyticField(MINKOWSKI, 1)))
    vacuum_rows = maxwell_residual_components(vacuum, _sample_points(rng, 4, args.samples))
    vacuum_max = _worst(list(map(_worst, vacuum_rows)))

    worst = _worst([agreement_max, vacuum_max])
    report = {"command": "classical", "seed": seed, "tol": tol, "configs": args.configs,
              "samples": args.samples, "agreement_max": agreement_max,
              "vacuum_residual_max": vacuum_max, "first_sample": first_sample,
              "max_residual": worst, "passed": worst <= tol}
    return _finish(args, report, f", reduction agreement {agreement_max:g}, "
                                 f"vacuum residual {vacuum_max:g} (tol {tol:g})")


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="extcalc",
        description="Exterior-algebra Maxwell and stress-energy verification suites.")
    sub = parser.add_subparsers(dest="command", required=True)

    def flags(p, *names):
        """The report flags every command reads, plus the named ones it also reads."""
        if "config" in names:
            p.add_argument("--config", help="scenario JSON path")
        p.add_argument("--out", help="write the JSON report to this file instead of stdout")
        p.add_argument("--tol", type=float, default=None, help="tolerance override")
        if "seed" in names:
            p.add_argument("--seed", type=int, default=None, help="random seed override")
        if "points" in names:
            p.add_argument("--points", type=int, default=None, help="quadrature nodes per axis")

    p = sub.add_parser("verify-identities", help="exhaustive product-identity suite")
    flags(p)
    p.add_argument("--kmax", type=int, default=None,
                   help="largest time-axis count (default: anything within the cap)")
    p.add_argument("--nmax", type=int, default=None,
                   help="largest space-axis count (default: anything within the cap)")
    p.add_argument("--self-test-corruption", action="store_true",
                   help="flip a product sign internally to confirm the suite detects corruption")
    p.set_defaults(func=cmd_verify_identities)

    p = sub.add_parser("maxwell-check", help="differential/integral/fourier/gauge residuals")
    flags(p, "config", "seed", "points")
    p.set_defaults(func=cmd_maxwell_check)

    p = sub.add_parser("stress-energy", help="stress tensor routes, trace, conservation")
    flags(p, "config", "seed")
    p.set_defaults(func=cmd_stress_energy)

    p = sub.add_parser("flux-compare", help="direct versus frequency-domain tensor flux")
    flags(p, "config")
    p.set_defaults(func=cmd_flux_compare)

    p = sub.add_parser("classical", help="classical (E, B, rho, j) reduction demo")
    flags(p, "seed")
    p.add_argument("--configs", type=int, default=3, help="random configurations to test")
    p.add_argument("--samples", type=int, default=5, help="sample points per configuration")
    p.set_defaults(func=cmd_classical)

    return parser


# built once per process: parse_args leaves the parser unchanged and returns a
# fresh namespace, so no flag carries over from one call to the next
_parser = functools.lru_cache(maxsize=None)(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        for flag, least in (("points", 1), ("configs", 1), ("samples", 1), ("seed", 0)):
            value = getattr(args, flag, None)
            if value is not None and value < least:
                raise ScenarioError(f"--{flag} must be at least {least}, got {value}")
        with np.errstate(all="ignore"):  # a NaN or inf reaches the verdict, not a numpy warning
            return args.func(args)
    except (ScenarioError, GaugeViolation, FieldDomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
