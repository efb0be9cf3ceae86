import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from extcalc.algebra import Multivector, SpacetimeSignature
from extcalc import cli
from extcalc.cli import build_parser, main

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
# stdout of the shipped runs, recorded before the pointwise checks were batched
REPORTS = Path(__file__).resolve().parent / "reports"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_identities_pass(capsys):
    code, out, err = run(capsys, "verify-identities", "--kmax", "2", "--nmax", "2")
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert report["max_residual"] == 0
    assert "PASS" in err


def test_verify_identities_minimal_cap(capsys):
    code, out, _ = run(capsys, "verify-identities", "--kmax", "1", "--nmax", "0")
    assert code == 0
    report = json.loads(out)
    assert [(e["k"], e["n"]) for e in report["signatures"]] == [(1, 0)]


def test_verify_identities_cap_exceeded(capsys):
    code, _, err = run(capsys, "verify-identities", "--kmax", "4", "--nmax", "4")
    assert code == 2
    assert "cap" in err


def test_verify_identities_detects_injected_corruption(capsys):
    code, out, _ = run(capsys, "verify-identities", "--kmax", "1", "--nmax", "1",
                       "--self-test-corruption")
    assert code == 1
    assert json.loads(out)["passed"] is False


@pytest.mark.parametrize("kmax,nmax", [("1", "0"), ("0", "1")])
def test_self_test_corruption_refuses_a_one_dimensional_sweep(capsys, kmax, nmax):
    # e_0 ^ e_0 = 0 is the only vector pair on one axis, so the flip corrupts
    # nothing and the self-test would pass
    code, out, err = run(capsys, "verify-identities", "--kmax", kmax, "--nmax", nmax,
                         "--self-test-corruption")
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and "k + n >= 2" in err


def test_verify_identities_sweep_ends_for_a_huge_axis_flag(tmp_path):
    # in a subprocess with a timeout, so that a sweep that never ends fails
    # this test instead of stopping the suite
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    huge = "100000000000000000000"
    done = subprocess.run([sys.executable, "-m", "extcalc.cli", "verify-identities", "--kmax", huge],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert (report["kmax"], report["nmax"]) == (int(huge), 6)
    code = main(["verify-identities", "--out", str(tmp_path / "default.json")])
    assert code == 0
    default = json.loads((tmp_path / "default.json").read_text(encoding="utf-8"))
    assert report["signatures"] == default["signatures"]


def test_maxwell_check_vacuum(capsys):
    code, out, err = run(capsys, "maxwell-check", "--config",
                         str(SCENARIOS / "vacuum_plane_wave.json"))
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    for block in ("differential", "integral", "fourier", "gauge"):
        assert block in report["checks"]
    assert report["checks"]["differential"]["inhom_max"] <= 1e-10


def test_maxwell_check_reports_are_deterministic(capsys, tmp_path):
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    assert main(["maxwell-check", "--config", str(SCENARIOS / "vacuum_plane_wave.json"),
                 "--out", str(out_a)]) == 0
    assert main(["maxwell-check", "--config", str(SCENARIOS / "vacuum_plane_wave.json"),
                 "--out", str(out_b)]) == 0
    capsys.readouterr()
    assert out_a.read_bytes() == out_b.read_bytes()


def test_maxwell_check_flags_nonconserved_source(capsys):
    code, out, err = run(capsys, "maxwell-check", "--config",
                         str(SCENARIOS / "nonconserved_source.json"))
    assert code == 1
    report = json.loads(out)
    assert report["checks"]["differential"]["charge_conservation_max"] > 0.5
    assert "FAIL" in err


def test_maxwell_check_locates_the_worst_residual(capsys):
    code, out, err = run(capsys, "maxwell-check", "--config",
                         str(SCENARIOS / "nonconserved_source.json"))
    assert code == 1
    assert out == (REPORTS / "maxwell-check-nonconserved_source.json").read_text()
    summary, located = err.splitlines()
    assert summary.startswith("maxwell-check: FAIL")
    assert "differential" in located and "at point [" in located and "component e_0" in located
    # a passing run has nothing to locate
    code, _, err = run(capsys, "maxwell-check", "--config", str(SCENARIOS / "vacuum_plane_wave.json"))
    assert code == 0 and len(err.splitlines()) == 1


def test_maxwell_check_locates_a_worst_residual_of_the_hom_side(tmp_path, capsys):
    # a plane wave e_0 cos(2 pi 0.3 x_1) on (0,2) is divergence-free but not
    # closed: the worst residual is the e_01 component of d F, on the hom side
    from extcalc.fields import plane_wave
    from extcalc.serialize import canonical_dumps, field_to_json, signature_to_json

    sig = SpacetimeSignature(0, 2)
    scenario = {"signature": signature_to_json(sig), "r": 1,
                "F": field_to_json(plane_wave(Multivector.blade(sig, (0,)), (0.0, 0.3))),
                "J": None, "A": None, "checks": ["differential"], "sample_points": 7, "seed": 4,
                "tol": 1e-8}
    path = tmp_path / "hom.json"
    path.write_text(canonical_dumps(scenario))
    code, _, err = run(capsys, "maxwell-check", "--config", str(path))
    assert code == 1
    assert err.splitlines()[1] == ("maxwell-check: differential worst residual 1.88487 at point "
                                   "[0.952487, -0.838328], component e_01 of hom")


@pytest.mark.parametrize("name,argv", [
    ("classical-seed-7", ("classical", "--seed", "7")),
    ("maxwell-check-vacuum_plane_wave", ("maxwell-check", "--config",
                                         str(SCENARIOS / "vacuum_plane_wave.json"))),
    ("maxwell-check-nonconserved_source", ("maxwell-check", "--config",
                                           str(SCENARIOS / "nonconserved_source.json"))),
    ("stress-energy-vacuum_plane_wave", ("stress-energy", "--config",
                                         str(SCENARIOS / "vacuum_plane_wave.json"))),
    ("flux-compare-flux_compare_11", ("flux-compare", "--config",
                                      str(SCENARIOS / "flux_compare_11.json"))),
    ("flux-compare-flux_compare_12", ("flux-compare", "--config",
                                      str(SCENARIOS / "flux_compare_12.json"))),
    ("flux-compare-flux_compare_13", ("flux-compare", "--config",
                                      str(SCENARIOS / "flux_compare_13.json"))),
    ("flux-compare-flux_compare_14", ("flux-compare", "--config",
                                      str(SCENARIOS / "flux_compare_14.json"))),
])
def test_shipped_reports_keep_their_recorded_values(capsys, name, argv):
    # every report byte: the runs read the mode tables, their merges and derivatives, the stress
    # and force tables, and the slice-flux moments in node and Gram form
    recorded = (REPORTS / f"{name}.json").read_text()
    code, out, _ = run(capsys, *argv)
    assert code == (0 if json.loads(recorded)["passed"] else 1)
    assert out == recorded


def test_parser_is_built_once_and_keeps_no_flags(capsys):
    # main reuses one parser; each call must read exactly its own flags
    def fresh(*argv):
        args = build_parser().parse_args(list(argv))
        code = args.func(args)
        return code, capsys.readouterr().out

    vacuum = str(SCENARIOS / "vacuum_plane_wave.json")
    calls = [("maxwell-check", "--config", vacuum, "--seed", "3", "--points", "5"),
             ("maxwell-check", "--config", vacuum),
             ("classical", "--seed", "4", "--samples", "2"),
             ("stress-energy", "--config", vacuum)]
    reports = []
    for argv in calls:
        code, out, _ = run(capsys, *argv)
        assert (code, out) == fresh(*argv)
        reports.append(json.loads(out))
    assert reports[0]["seed"] == 3 and reports[1]["seed"] == reports[3]["seed"] != 3
    assert reports[0] != reports[1]
    assert cli._parser() is cli._parser()


def test_maxwell_check_nan_amplitude_fails(capsys, tmp_path):
    def nan_amplitude(data):
        data["F"]["modes"][0]["amplitude"]["terms"][0]["re"] = math.nan

    code, out, err = run(capsys, "maxwell-check", "--config", _edited_vacuum(tmp_path, nan_amplitude))
    assert code == 1
    report = json.loads(out)
    assert report["passed"] is False and math.isnan(report["max_residual"])
    assert math.isnan(report["checks"]["differential"]["inhom_max"])
    assert "FAIL" in err and "worst residual nan" in err


def test_maxwell_check_infinite_amplitude_fails_without_numpy_warnings(capsys, tmp_path):
    # exp waveforms and an infinite amplitude make the integral check's
    # quadrature NaN: it must reach the verdict, and stderr must hold only the
    # summary and the located worst residual
    def infinite_exp(data):
        for name in ("A", "F"):
            for mode in data[name]["modes"]:
                mode["waveform"] = "exp"
        data["F"]["modes"][0]["amplitude"]["terms"][0]["re"] = math.inf

    code, out, err = run(capsys, "maxwell-check", "--config", _edited_vacuum(tmp_path, infinite_exp))
    assert code == 1
    report = json.loads(out)
    assert report["passed"] is False and math.isnan(report["max_residual"])
    assert math.isnan(report["checks"]["integral"]["circulation_residual"])
    summary, located = err.splitlines()
    assert summary == "maxwell-check: FAIL, max residual nan (tol 1e-08)"
    assert located.startswith("maxwell-check: differential worst residual nan at point [")


def test_maxwell_check_complex_amplitude_beyond_the_float_range_fails(capsys, tmp_path):
    # abs() of this coefficient overflows; it must reach the verdict as a
    # numerical failure, not exit 2 as a malformed configuration
    def huge_complex(data):
        data["F"]["modes"][0]["amplitude"]["terms"][0].update(re=1.5e308, im=1.5e308)

    code, out, err = run(capsys, "maxwell-check", "--config", _edited_vacuum(tmp_path, huge_complex))
    assert code == 1
    assert json.loads(out)["passed"] is False
    assert err.startswith("maxwell-check: FAIL")


@pytest.mark.parametrize("signature,r", [((1, 2), 1), ((1, 2), 3), ((0, 2), 2)])
def test_derivatives_out_of_the_grade_range_report_zero(capsys, tmp_path, signature, r):
    # r = 1: the source is a scalar, whose interior derivative (the charge
    # conservation residual) vanishes; r = k + n: F has no exterior derivative
    from extcalc.fields import exterior_derivative_field, interior_derivative_field, polynomial_field
    from extcalc.serialize import canonical_dumps, field_to_json

    sig = SpacetimeSignature(*signature)
    potential = polynomial_field(Multivector.blade(sig, tuple(range(r - 1)), 1.5), (2,) * sig.dim)
    f_field = exterior_derivative_field(potential)
    scenario = {"signature": {"k": sig.k, "n": sig.n}, "r": r, "F": field_to_json(f_field),
                "J": field_to_json(interior_derivative_field(f_field)), "A": None,
                "checks": ["differential"], "sample_points": 4, "seed": 2, "tol": 1e-10}
    path = tmp_path / "edge.json"
    path.write_text(canonical_dumps(scenario))
    code, out, _ = run(capsys, "maxwell-check", "--config", str(path))
    block = json.loads(out)["checks"]["differential"]
    assert code == 0
    assert block["charge_conservation_max" if r == 1 else "hom_max"] == 0.0


def test_maxwell_check_malformed_config(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    code, _, err = run(capsys, "maxwell-check", "--config", str(bad))
    assert code == 2
    assert "error" in err

    code, _, err = run(capsys, "maxwell-check", "--config", str(tmp_path / "missing.json"))
    assert code == 2


def test_maxwell_check_requires_config(capsys):
    code, _, err = run(capsys, "maxwell-check")
    assert code == 2


def test_stress_energy_report_schema(capsys):
    code, out, _ = run(capsys, "stress-energy", "--config",
                       str(SCENARIOS / "vacuum_plane_wave.json"))
    assert code == 0
    report = json.loads(out)
    for key in ("T", "trace", "trace_formula", "force", "conservation_residual_max",
                "flux_direct", "flux_fourier", "flux_rel_err"):
        assert key in report
    assert isinstance(report["T"], list)
    assert report["trace"] == pytest.approx(report["trace_formula"], abs=1e-12)
    # (1,3) with r = 2 is traceless
    assert abs(report["trace"]) < 1e-12


def test_flux_compare_capstone_cli(capsys):
    code, out, _ = run(capsys, "flux-compare", "--config",
                       str(SCENARIOS / "flux_compare_11.json"))
    assert code == 0
    report = json.loads(out)
    assert report["flux_rel_err"] < 0.01
    assert report["flux_direct"]["terms"] and report["flux_fourier"]["terms"]


def test_classical_demo(capsys):
    code, out, err = run(capsys, "classical", "--seed", "7")
    assert code == 0
    report = json.loads(out)
    assert report["agreement_max"] < 1e-9
    assert report["vacuum_residual_max"] < 1e-10
    sample = report["first_sample"]
    for name in ("gauss", "faraday", "monopole", "ampere"):
        assert name in sample["vector_form"]
        assert name in sample["multivector_form"]


def _grid_scenario(tmp_path, edit=None) -> str:
    """A plane-wave vacuum F sampled on a lattice, as a scenario file, edited
    by ``edit`` when it is given."""
    from extcalc.algebra import Multivector, SpacetimeSignature
    from extcalc.fields import GridField, plane_wave
    from extcalc.maxwell import MINKOWSKI
    from extcalc.fields import exterior_derivative_field
    from extcalc.serialize import canonical_dumps, field_to_json, signature_to_json

    potential = plane_wave(Multivector.blade(MINKOWSKI, (2,)), (1.0, 0.0, 0.0, 1.0))
    f_field = exterior_derivative_field(potential)
    h = 0.02
    grid = GridField.sample(f_field, origin=(-5 * h,) * 4, spacing=(h,) * 4, counts=(11,) * 4)
    scenario = {
        "signature": signature_to_json(MINKOWSKI),
        "r": 2,
        "F": field_to_json(grid),
        "J": None,
        "A": None,
        "checks": ["differential"],
        "sample_points": 10,
        "seed": 5,
        "tol": 2e-3,  # central differences at h = 0.02 on a unit-frequency wave
    }
    if edit is not None:
        edit(scenario)
    path = tmp_path / "grid.json"
    path.write_text(canonical_dumps(scenario))
    return str(path)


def test_maxwell_check_grid_backend(capsys, tmp_path):
    # grid-sampled fields are checked on interior lattice sites
    code, out, err = run(capsys, "maxwell-check", "--config", _grid_scenario(tmp_path))
    assert code == 0
    report = json.loads(out)
    assert 0 < report["checks"]["differential"]["hom_max"] < 2e-3
    # a passing check has nothing to locate, however far from zero its residuals
    assert len(err.splitlines()) == 1


def test_stress_energy_grid_backend(capsys, tmp_path):
    # the stress-tensor divergence takes the grid's batched central differences
    code, out, _ = run(capsys, "stress-energy", "--config", _grid_scenario(tmp_path))
    assert code == 0
    report = json.loads(out)
    assert report["conservation_residual_max"] < report["tol"]


def test_classical_deterministic(capsys, tmp_path):
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    assert main(["classical", "--seed", "11", "--out", str(out_a)]) == 0
    assert main(["classical", "--seed", "11", "--out", str(out_b)]) == 0
    capsys.readouterr()
    assert out_a.read_bytes() == out_b.read_bytes()


def test_out_file_holds_the_stdout_report(capsys, tmp_path):
    argv = ("maxwell-check", "--config", str(SCENARIOS / "nonconserved_source.json"))
    code, out, err = run(capsys, *argv)
    path = tmp_path / "r.json"
    assert run(capsys, *argv, "--out", str(path)) == (code, "", err)
    assert path.read_text() == out


def test_unwritable_out_path_exits_2(capsys, tmp_path):
    code, out, err = run(capsys, "classical", "--seed", "7", "--out", str(tmp_path / "no" / "r.json"))
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot write the report: ") and len(err.splitlines()) == 1


def _edited_vacuum(tmp_path, edit, scenario="vacuum_plane_wave") -> str:
    data = json.loads((SCENARIOS / f"{scenario}.json").read_text())
    edit(data)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_stress_energy_nan_amplitude_fails(capsys, tmp_path):
    def nan_amplitude(data):
        data["F"]["modes"][0]["amplitude"]["terms"][0]["re"] = math.nan

    code, out, err = run(capsys, "stress-energy", "--config", _edited_vacuum(tmp_path, nan_amplitude))
    assert code == 1
    assert json.loads(out)["passed"] is False
    assert "FAIL" in err


def assert_usage_error(code, out, err):
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


# a key starting with "--" is a command-line flag, one starting with "grid:" an
# entry of the grid-backed ``_grid_scenario``, any other key a config entry
@pytest.mark.parametrize("command,key,value", [
    ("stress-energy", "sample_points", 0),
    ("stress-energy", "sample_points", -3),
    ("maxwell-check", "r", 1),
    ("maxwell-check", "--points", 0),
    ("maxwell-check", "--points", -2),
    ("flux-compare", "slice_points", 0),
    ("flux-compare", "freq_points", 0),
    ("flux-compare", "slice_panels", 0),
    ("classical", "--samples", 0),
    ("classical", "--configs", 0),
    ("maxwell-check", "seed", -1),
    ("maxwell-check", "--seed", -1),
    ("stress-energy", "--seed", -1),
    ("classical", "--seed", -1),
    ("maxwell-check", "seed", math.inf),
    ("stress-energy", "sample_points", math.inf),
    ("maxwell-check", "r", -math.inf),
    ("flux-compare", "slice_points", math.inf),
    pytest.param("maxwell-check", "checks", [], id="maxwell-check-checks-empty-list"),
    pytest.param("maxwell-check", "checks", "", id="maxwell-check-checks-empty-string"),
    ("maxwell-check", "sample_points", 2.5),
    ("maxwell-check", "r", 2.9),
    ("maxwell-check", "seed", True),
    ("stress-energy", "seed", 1.5),
    ("maxwell-check", "sample_points", "3"),
    # more points than numpy can shape: refused before any allocation
    ("maxwell-check", "sample_points", 1e18),
    ("stress-energy", "sample_points", 1e20),
    # on a lattice the sites are drawn per axis: an array numpy refuses to allocate
    ("maxwell-check", "grid:sample_points", 1e18),
    # quadrature counts from 2 ** 63 up do not fit an index: refused before any allocation
    ("maxwell-check", "--points", 10 ** 20),
    ("maxwell-check", "--points", 2 ** 63),
    ("flux-compare", "slice_points", 1e20),
    ("flux-compare", "freq_points", 1e20),
    ("flux-compare", "slice_panels", 2 ** 63),
    ("flux-compare", "freq_panels", 2 ** 64),
    ("flux-compare", "slice_points", 8.7),
    ("flux-compare", "freq_panels", True),
    ("flux-compare", "r", 1.5),
    ("flux-compare", "axis", 0.5),
    ("flux-compare", "axis", 5),
    ("flux-compare", "axis", 1),
])
def test_bad_scenario_numbers_exit_2(capsys, tmp_path, command, key, value):
    scenario = "flux_compare_11" if command == "flux-compare" else "vacuum_plane_wave"
    if key.startswith("--"):
        argv = [key, str(value)] if command == "classical" else \
            [key, str(value), "--config", str(SCENARIOS / f"{scenario}.json")]
    elif key.startswith("grid:"):
        argv = ["--config", _grid_scenario(tmp_path, lambda data: data.update({key[5:]: value}))]
    else:
        argv = ["--config", _edited_vacuum(tmp_path, lambda data: data.update({key: value}), scenario)]
    assert_usage_error(*run(capsys, command, *argv))


def _set(path, value):
    """An edit setting the entry at a key path such as ("F", "modes", 0, "poly")."""
    def edit(data):
        for key in path[:-1]:
            data = data[key]
        data[path[-1]] = value
    return edit


def _drop(path):
    """An edit deleting the entry at a key path."""
    def edit(data):
        for key in path[:-1]:
            data = data[key]
        del data[path[-1]]
    return edit


# integers nested in the signature and the field objects are validated the same
# way, and so are flux-compare's intervals and spectrum
@pytest.mark.parametrize("command,path,value", [
    ("maxwell-check", ("signature", "k"), 1.5),
    ("maxwell-check", ("F", "grade"), 2.5),
    ("maxwell-check", ("F", "modes", 0, "amplitude", "grade"), 2.5),
    ("maxwell-check", ("F", "modes", 0, "amplitude", "terms", 0, "indices"), [0.5, 2]),
    ("stress-energy", ("F", "modes", 0, "poly"), [0, 0, 0, 0.5]),
    ("flux-compare", ("signature", "k"), 1.5),
    ("flux-compare", ("signature", "n"), True),
    ("flux-compare", ("region", "1"), [1.6, 0.4]),
    ("flux-compare", ("slice_bounds", "1"), [3.0, -3.0]),
    ("flux-compare", ("spectrum", "scale"), 0),
    ("flux-compare", ("spectrum", "width"), 0),
    ("flux-compare", ("spectrum", "width"), -0.15),
    ("flux-compare", ("spectrum", "width"), math.nan),
    ("flux-compare", ("spectrum", "center"), {"5": 1.0}),
    ("flux-compare", ("spectrum", "center"), {"-1": 1.0}),
    ("flux-compare", ("spectrum", "center", "1"), math.inf),
    # values of the wrong JSON type
    ("maxwell-check", ("F", "modes", 0, "envelope"), [1.0]),
    ("flux-compare", ("region",), [0, 1]),
    ("flux-compare", ("slice_bounds",), [0, 1]),
    ("flux-compare", ("spectrum",), "gaussian"),
    ("flux-compare", ("spectrum", "center"), [1.0, 0.0]),
    # an empty centre makes the bump a scalar, not one value per frequency
    ("flux-compare", ("spectrum", "center"), {}),
    # every flux-compare number is a JSON number: strings and bools once read as floats
    ("flux-compare", ("coordinate",), "0.0"),
    ("flux-compare", ("coordinate",), True),
    ("flux-compare", ("region", "1"), ["0.4", 1.6]),
    ("flux-compare", ("slice_bounds", "1"), [-7.9, "7.9"]),
    ("flux-compare", ("tol",), "0.01"),
    ("flux-compare", ("spectrum", "width"), "0.15"),
    ("flux-compare", ("spectrum", "width"), True),
    ("flux-compare", ("spectrum", "scale"), "1.0"),
    ("flux-compare", ("spectrum", "scale"), True),
    ("flux-compare", ("spectrum", "center", "1"), "1.0"),
    ("flux-compare", ("spectrum", "center", "1"), True),
    # an axis key other than "1" that int() reads as axis 1 (all but "1.0"): such runs went on to PASS
    *[("flux-compare", path, {key: value}) for key in ("0_1", " 1 ", "01", "+1", "1.0")
      for path, value in ((("region",), [0.4, 1.6]), (("slice_bounds",), [-7.9, 7.9]),
                          (("spectrum", "center"), 1.0))],
])
def test_bad_nested_config_entries_exit_2(capsys, tmp_path, command, path, value):
    scenario = "flux_compare_11" if command == "flux-compare" else "vacuum_plane_wave"
    config = _edited_vacuum(tmp_path, _set(path, value), scenario)
    assert_usage_error(*run(capsys, command, "--config", config))


@pytest.mark.parametrize("width", [math.nan, math.inf])
def test_non_finite_envelope_width_exits_2(capsys, tmp_path, width):
    # such an envelope used to be dropped, and the check passed without it
    def envelope(data):
        for name in ("F", "A"):
            data[name]["modes"][0]["envelope"] = {"type": "gaussian", "width": width, "center": [0.0] * 4}

    code, out, err = run(capsys, "maxwell-check", "--config", _edited_vacuum(tmp_path, envelope))
    assert_usage_error(code, out, err)
    assert "envelope width must be finite and positive" in err


def test_flux_compare_vanishing_fourier_flux_fails(capsys, tmp_path):
    # a bump centred far outside the region underflows to an exactly zero spectrum
    config = _edited_vacuum(tmp_path, _set(("spectrum", "center", "1"), 1000.0), "flux_compare_11")
    code, out, err = run(capsys, "flux-compare", "--config", config)
    report = json.loads(out)
    assert code == 1
    assert report["flux_fourier"]["terms"] == [] and math.isnan(report["flux_rel_err"])
    assert report["passed"] is False and "FAIL" in err


def test_integral_floats_read_as_integers(capsys, tmp_path):
    def as_floats(data):
        for key in ("r", "sample_points", "seed"):
            data[key] = float(data[key])
        data["signature"] = {"k": 1.0, "n": 3.0}
        data["F"]["grade"] = 2.0

    want = run(capsys, "maxwell-check", "--config", str(SCENARIOS / "vacuum_plane_wave.json"))
    assert want[0] == 0
    assert run(capsys, "maxwell-check", "--config", _edited_vacuum(tmp_path, as_floats)) == want


def test_mismatched_grid_source_exits_2(capsys, tmp_path):
    # J sampled on a 0.3 lattice cannot be read at the F lattice's 0.25 sites
    from extcalc.fields import GridField, interior_derivative_field, plane_wave
    from extcalc.serialize import canonical_dumps, field_to_json

    sig = SpacetimeSignature(0, 2)
    f_field = plane_wave(Multivector.blade(sig, (0, 1)), (0.3, 0.2))
    j_field = interior_derivative_field(f_field)
    scenario = {
        "signature": {"k": 0, "n": 2},
        "r": 2,
        "F": field_to_json(GridField.sample(f_field, (-1.0, -1.0), (0.25, 0.25), (9, 9))),
        "J": field_to_json(GridField.sample(j_field, (-1.2, -1.2), (0.3, 0.3), (9, 9))),
        "A": None,
        "checks": ["differential"],
        "sample_points": 5,
        "seed": 3,
        "tol": 1e-2,
    }
    path = tmp_path / "mismatched.json"
    path.write_text(canonical_dumps(scenario))
    assert_usage_error(*run(capsys, "maxwell-check", "--config", str(path)))


# no stencil reads a corner site such as values[0][0][0][0], so a NaN there once passed
@pytest.mark.parametrize("edit", [
    _set(("F", "grid", "spacing", 0), math.nan),
    _set(("F", "grid", "spacing", 1), math.inf),
    _set(("F", "grid", "origin", 2), -math.inf),
    _set(("F", "grid", "values", 0, 0, 0, 0, 0), math.nan),
    _set(("F", "grid", "values", 10, 0, 0, 0, 5), math.inf),
    _set(("F", "grid", "shape"), [11, 11, 11, 10]),
    _set(("F", "grid", "shape"), [11, 11, 11]),
    _drop(("F", "grid", "shape")),
], ids=["nan-spacing", "inf-spacing", "inf-origin", "nan-corner-value", "inf-corner-value",
        "wrong-shape", "short-shape", "missing-shape"])
def test_non_finite_or_misshapen_grid_exits_2(capsys, tmp_path, edit):
    code, out, err = run(capsys, "maxwell-check", "--config", _grid_scenario(tmp_path, edit))
    assert_usage_error(code, out, err)
    assert err.startswith("error: bad field object: ")


def _with_mode_extras(**extras):
    """An edit giving F's first mode extra entries, such as a monomial or an envelope."""
    def edit(data):
        data["F"]["modes"][0].update(extras)
    return edit


def _grid_values_of(value):
    """An edit setting every grid value of F to ``value``."""
    def leaves(values):
        return [leaves(v) for v in values] if isinstance(values, list) else value

    def edit(data):
        data["F"]["grid"]["values"] = leaves(data["F"]["grid"]["values"])
    return edit


TERM = ("F", "modes", 0, "amplitude", "terms", 0)
ENVELOPE = {"type": "gaussian", "width": 0.5, "center": [0.0] * 4}


# each float a reader takes is a JSON number: a string or a bool where one
# belongs exits 2 (a grid with string spacings used to run to PASS)
@pytest.mark.parametrize("edit,message", [
    (_set(TERM + ("re",), "6.28"), "re must be a number, got '6.28'"),
    (_set(TERM + ("re",), True), "re must be a number, got True"),
    (_set(TERM + ("im",), "1"), "im must be a number, got '1'"),
    (_set(("F", "modes", 0, "xi", 0), "1.0"), "xi must be a number, got '1.0'"),
    (_set(("F", "modes", 0, "xi", 3), False), "xi must be a number, got False"),
    (_set(("F", "modes", 0, "phase"), "0.5"), "phase must be a number, got '0.5'"),
    (_set(("F", "modes", 0, "phase"), True), "phase must be a number, got True"),
    (_with_mode_extras(poly=[1, 0, 0, 0], poly_center=["0.1", 0, 0, 0]), "poly_center must be a number"),
    (_with_mode_extras(envelope={**ENVELOPE, "center": [0.0, True, 0.0, 0.0]}),
     "envelope center must be a number"),
    (_with_mode_extras(envelope={**ENVELOPE, "width": "0.5"}), "envelope width must be a number"),
    (_set(("tol",), "1e-8"), "tol must be a number, got '1e-8'"),
    (_set(("tol",), True), "tol must be a number, got True"),
], ids=["re-str", "re-bool", "im-str", "xi-str", "xi-bool", "phase-str", "phase-bool", "poly-center-str",
        "envelope-center-bool", "envelope-width-str", "tol-str", "tol-bool"])
def test_strings_and_bools_where_numbers_belong_exit_2(capsys, tmp_path, edit, message):
    code, out, err = run(capsys, "maxwell-check", "--config", _edited_vacuum(tmp_path, edit))
    assert_usage_error(code, out, err)
    assert message in err


# a mode entry of the wrong length names the lengths, the envelope centre as
# xi and poly do (a centre of 3 or 5 entries beside a given poly_center once
# exited with numpy's reshape message)
@pytest.mark.parametrize("edit,message", [
    (_set(("F", "modes", 0, "xi"), [1.0, 0.0, 0.0]), "expected 4 entries, got 3"),
    (_with_mode_extras(poly=[1, 0, 0, 0, 0]), "expected 4 entries, got 5"),
    (_with_mode_extras(poly=[1, 0, 0, 0], poly_center=[0.0] * 4, envelope={**ENVELOPE, "center": [0.0] * 3}),
     "expected 4 entries, got 3"),
    (_with_mode_extras(poly=[1, 0, 0, 0], poly_center=[0.0] * 4, envelope={**ENVELOPE, "center": [0.0] * 5}),
     "expected 4 entries, got 5"),
    (_with_mode_extras(envelope={**ENVELOPE, "center": [0.0] * 3}), "expected 4 entries, got 3"),
], ids=["xi-3", "poly-5", "envelope-center-3", "envelope-center-5", "envelope-center-3-implied"])
def test_mode_entries_of_the_wrong_length_exit_2(capsys, tmp_path, edit, message):
    code, out, err = run(capsys, "maxwell-check", "--config", _edited_vacuum(tmp_path, edit))
    assert_usage_error(code, out, err)
    assert err == f"error: bad field object: {message}\n"


def test_foreign_amplitude_signature_exits_2(capsys, tmp_path):
    # the amplitude's stated signature was ignored: a (2,2) one read as (1,3) and passed
    code, out, err = run(capsys, "maxwell-check", "--config",
                         _edited_vacuum(tmp_path, _set(("F", "modes", 0, "amplitude", "signature"),
                                                       {"k": 2, "n": 2})))
    assert_usage_error(code, out, err)
    assert err == "error: amplitude signature (2,2) does not match the field's (1,3)\n"
    # without the key the amplitude is read on the scenario's signature
    want = run(capsys, "maxwell-check", "--config", str(SCENARIOS / "vacuum_plane_wave.json"))
    got = run(capsys, "maxwell-check", "--config",
              _edited_vacuum(tmp_path, lambda data: [mode["amplitude"].pop("signature")
                                                     for name in ("F", "A") for mode in data[name]["modes"]]))
    assert want[0] == 0 and got == want


# sha256 of the classical report (stdout) for each seed, recorded when its
# random fields were built from Mode objects
CLASSICAL_REPORTS = {
    0: "dd36eb616e282fd2e3a8efe1cacd8c99abf2e69cd21ff2550ee8d748b07c40e3",
    1: "b9f8a813e80fa92c2136f1eb970f9b27c780927276ae6634a90546eab369349d",
    2: "2673e8a4329a9dd4d2b0816db0ccbf8a3292c4ed012175e9083b5149df1510bb",
    7: "cb2d0f649926ff24d238fbf72115d596a118da6150e481abf65865b669af41a2",
    11: "9369f3b28223bb52253b5b159e43e9d519bb60e18e070f1ce7b19f1dced72c65",
    12345: "c0ff0b33d1963bdb9219d4ab4fc989257695dc56327935e36e8c0f029d9f09c8",
}


@pytest.mark.parametrize("seed", sorted(CLASSICAL_REPORTS))
def test_classical_reports_keep_their_recorded_bytes(capsys, seed):
    code, out, _ = run(capsys, "classical", "--seed", str(seed))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CLASSICAL_REPORTS[seed]


@pytest.mark.parametrize("edit,message", [
    (_set(("F", "grid", "origin", 1), "-0.1"), "grid origin must be a number, got '-0.1'"),
    (_set(("F", "grid", "spacing"), ["0.02"] * 4), "grid spacing must be a number, got '0.02'"),
    (_set(("F", "grid", "spacing", 2), True), "grid spacing must be a number, got True"),
    (_set(("F", "grid", "values", 0, 0, 0, 0, 0), "0.5"), "grid values must hold only numbers"),
    (_grid_values_of(True), "grid values must hold only numbers, got bool entries"),
    (_set(("F", "grid", "values", 3, 1, 4, 1, 5), True), "grid values must hold only numbers, got bool entries"),
    (_set(("F", "grid", "values", 3, 1, 4, 1, 5), None),
     "grid values must hold only numbers, got NoneType entries"),
    (_drop(("F", "grid", "values", 3, 1, 4, 1, 5)), "grid values must hold only numbers, got list entries"),
], ids=["origin-str", "spacing-strs", "spacing-bool", "value-str", "values-bool", "value-bool-among-floats",
        "value-null", "values-ragged"])
def test_grid_strings_bools_and_nulls_exit_2(capsys, tmp_path, edit, message):
    code, out, err = run(capsys, "maxwell-check", "--config", _grid_scenario(tmp_path, edit))
    assert_usage_error(code, out, err)
    assert message in err


def test_fourier_check_skips_a_grid_backed_source(capsys, tmp_path):
    # a sampled source has no modes, yet it is a source: the source-free
    # algebra does not apply, as for the same source given as modes; with
    # no other check requested nothing is verified, which is a usage error
    from extcalc.fields import GridField, interior_derivative_field, plane_wave
    from extcalc.serialize import canonical_dumps, field_to_json

    sig = SpacetimeSignature(0, 2)
    f_field = plane_wave(Multivector.blade(sig, (0, 1)), (0.3, 0.2))
    j_field = interior_derivative_field(f_field)
    for source in (GridField.sample(j_field, (-1.0, -1.0), (0.25, 0.25), (9, 9)), j_field):
        scenario = {"signature": {"k": 0, "n": 2}, "r": 2, "F": field_to_json(f_field),
                    "J": field_to_json(source), "A": None, "checks": ["fourier"],
                    "sample_points": 5, "seed": 3, "tol": 1e-8}
        path = tmp_path / "fourier.json"
        path.write_text(canonical_dumps(scenario))
        code, out, err = run(capsys, "maxwell-check", "--config", str(path))
        assert_usage_error(code, out, err)
        assert "fourier: algebraic source-free check needs a source-free scenario" in err


def test_fourier_check_skips_a_field_that_is_not_plane_waves(capsys, tmp_path):
    # x_0 times the shipped plane wave is not a plane wave: the per-mode algebra
    # on its wave vector would read 0, while the monomial's product-rule term
    # leaves the differential check a residual of about 6.25
    def polynomial(checks):
        def edit(data):
            data["A"] = None
            data["F"]["modes"][0].update(poly=[1, 0, 0, 0], poly_center=[0, 0, 0, 0])
            data["checks"] = checks
        return edit

    code, out, err = run(capsys, "maxwell-check", "--config",
                         _edited_vacuum(tmp_path, polynomial(["fourier"])))
    assert_usage_error(code, out, err)
    assert "fourier: plane-wave algebra needs modes without monomial or envelope factors" in err
    code, out, _ = run(capsys, "maxwell-check", "--config",
                       _edited_vacuum(tmp_path, polynomial(["fourier", "differential"])))
    report = json.loads(out)
    assert code == 1 and report["checks"]["fourier"] == {
        "skipped": "plane-wave algebra needs modes without monomial or envelope factors"}
    assert report["checks"]["differential"]["hom_max"] > 1


def test_fourier_null_support_follows_the_maxwell_rule(capsys, tmp_path):
    # a (1,3) mode off the null cone, so small that its inhomogeneous residual is
    # within 1e-9 once divided by 2 pi but not before: it counts as a solution,
    # and its |xi . xi| |F_hat| is the reported violation
    from extcalc.maxwell import fourier_maxwell_residuals, null_support_violation
    from extcalc.serialize import multivector_from_json

    def tiny_mode(data):
        mode = json.loads(json.dumps(data["F"]["modes"][0]))
        mode["xi"] = [0.6, 0.8, 0.0, 0.0]
        mode["amplitude"]["terms"] = [{"indices": [0, 1], "re": 5e-10}]
        data["F"]["modes"].append(mode)
        data["checks"] = ["fourier"]

    config = _edited_vacuum(tmp_path, tiny_mode)
    code, out, _ = run(capsys, "maxwell-check", "--config", config)
    modes = [(mode["xi"], multivector_from_json(mode["amplitude"]))
             for mode in json.loads(Path(config).read_text())["F"]["modes"]]
    raw_inhom = fourier_maxwell_residuals(*modes[1])[0].max_abs()
    assert 1e-9 <= raw_inhom < 2 * math.pi * 1e-9
    want = max(null_support_violation(xi, amplitude)["violation"] for xi, amplitude in modes)
    assert want > 0
    assert code == 0 and json.loads(out)["checks"]["fourier"]["null_support_violation"] == want


def test_maxwell_check_with_every_check_skipped_exits_2(capsys, tmp_path):
    # the shipped non-conserved scenario has a source, so its only requested
    # check is skipped; it used to pass with max residual 0
    def fourier_and_gauge(data):
        data["checks"] = ["fourier", "gauge"]

    code, out, err = run(capsys, "maxwell-check", "--config",
                         _edited_vacuum(tmp_path, fourier_and_gauge, "nonconserved_source"))
    assert_usage_error(code, out, err)
    assert err == ("error: no requested check produced a residual (fourier: algebraic "
                   "source-free check needs a source-free scenario; gauge: no potential in "
                   "scenario)\n")


def test_gauge_check_compares_a_grid_backed_potential_with_the_field(capsys, tmp_path):
    # dA - F from A's central differences: 7 times the potential of F fails,
    # and the potential itself leaves only the central-difference error
    from extcalc.fields import GridField, exterior_derivative_field, plane_wave
    from extcalc.serialize import canonical_dumps, field_to_json

    sig = SpacetimeSignature(1, 2)
    potential = plane_wave(Multivector.blade(sig, (2,)), (0.25, 0.25, 0.0))

    def grid(field):
        return field_to_json(GridField.sample(field, (-1.0,) * 3, (0.25,) * 3, (9,) * 3))

    codes, consistency = [], []
    for scale in (7, 1):
        scenario = {"signature": {"k": 1, "n": 2}, "r": 2,
                    "F": grid(exterior_derivative_field(potential)), "J": None,
                    "A": grid(scale * potential), "checks": ["gauge"], "sample_points": 10,
                    "seed": 2, "tol": 1e-2}
        path = tmp_path / "gauge.json"
        path.write_text(canonical_dumps(scenario))
        code, out, _ = run(capsys, "maxwell-check", "--config", str(path))
        report = json.loads(out)
        codes.append(code)
        consistency.append(report["checks"]["gauge"]["potential_consistency_max"])
        assert report["max_residual"] == consistency[-1]
    wrong, right = consistency
    assert codes[0] == 1 and wrong > 5.0 and 0.0 < right < 0.1


def test_grid_field_in_an_integral_check_exits_2(capsys, tmp_path):
    # quadrature nodes are off the lattice, so the batched lattice read fails closed
    from extcalc.fields import GridField, exterior_derivative_field, plane_wave
    from extcalc.serialize import canonical_dumps, field_to_json

    sig = SpacetimeSignature(1, 2)
    f_field = exterior_derivative_field(plane_wave(Multivector.blade(sig, (2,)), (0.5, 0.5, 0.0)))
    scenario = {
        "signature": {"k": 1, "n": 2},
        "r": 2,
        "F": field_to_json(GridField.sample(f_field, (-1.0,) * 3, (0.25,) * 3, (9,) * 3)),
        "J": None,
        "A": None,
        "checks": ["integral"],
        "sample_points": 5,
        "seed": 3,
        "tol": 1e-2,
    }
    path = tmp_path / "grid_integral.json"
    path.write_text(canonical_dumps(scenario))
    assert_usage_error(*run(capsys, "maxwell-check", "--config", str(path)))


# each command declares only the flags it reads; any other flag is a usage error
@pytest.mark.parametrize("command,flag,value", [
    ("verify-identities", "--points", "4"),
    ("verify-identities", "--config", "x.json"),
    ("verify-identities", "--seed", "3"),
    ("stress-energy", "--points", "4"),
    ("flux-compare", "--points", "4"),
    ("flux-compare", "--seed", "3"),
    ("classical", "--points", "4"),
    ("classical", "--config", "x.json"),
])
def test_unread_flags_exit_2(capsys, command, flag, value):
    config = [] if command in ("verify-identities", "classical") else \
        ["--config", str(SCENARIOS / ("flux_compare_11.json" if command == "flux-compare"
                                      else "vacuum_plane_wave.json"))]
    with pytest.raises(SystemExit) as exc:
        main([command, *config, flag, value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and flag in captured.err


VACUUM = json.loads((SCENARIOS / "vacuum_plane_wave.json").read_text())
JSON_LEAVES = (st.none() | st.booleans() | st.integers(-3, 40) | st.floats(-3, 40)
               | st.sampled_from([math.nan, math.inf, -math.inf]) | st.text(max_size=4))
JSON_VALUES = (JSON_LEAVES | st.lists(JSON_LEAVES, max_size=3)
               | st.dictionaries(st.text(max_size=4), JSON_LEAVES, max_size=3))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["maxwell-check", "stress-energy"]), st.sampled_from(sorted(VACUUM)),
       JSON_VALUES)
def test_scenario_fuzz_exits_0_1_or_2(tmp_path_factory, command, key, value):
    path = tmp_path_factory.mktemp("fuzz") / "scenario.json"
    path.write_text(json.dumps({**VACUUM, key: value}))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, "--config", str(path)])
    assert code in (0, 1, 2)
    if code == 2:
        assert_usage_error(code, out.getvalue(), err.getvalue())
