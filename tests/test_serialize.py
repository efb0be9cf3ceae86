import json

import numpy as np
import pytest

from extcalc.algebra import Multivector, SpacetimeSignature
from extcalc.fields import AnalyticField, GaussianEnvelope, GridField, Mode, plane_wave
from extcalc.serialize import (
    Scenario,
    ScenarioError,
    canonical_dumps,
    field_from_json,
    field_to_json,
    multivector_from_json,
    multivector_to_json,
    scenario_from_json,
)

MINK = SpacetimeSignature(1, 3)


def test_multivector_round_trip():
    mv = Multivector(MINK, 2, {(0, 1): 1.5, (2, 3): -0.25})
    data = multivector_to_json(mv)
    back = multivector_from_json(data)
    assert back == mv
    # indices are emitted strictly increasing
    assert all(entry["indices"] == sorted(entry["indices"]) for entry in data["terms"])


def test_multivector_complex_round_trip():
    mv = Multivector(MINK, 1, {(0,): 1 + 2j, (3,): -1.0})
    back = multivector_from_json(multivector_to_json(mv))
    assert back.coeff((0,)) == 1 + 2j
    assert back.coeff((3,)) == -1.0


def test_multivector_im_defaults_to_zero():
    data = {"signature": {"k": 1, "n": 3}, "grade": 1, "terms": [{"indices": [2], "re": 3.0}]}
    mv = multivector_from_json(data)
    assert mv.coeff((2,)) == 3.0


def test_multivector_bad_payload():
    with pytest.raises(ScenarioError):
        multivector_from_json({"grade": 1, "terms": []})  # missing signature
    with pytest.raises(ScenarioError):
        multivector_from_json({"signature": {"k": 1, "n": 3}, "grade": 1,
                               "terms": [{"indices": [9], "re": 1.0}]})


def test_modes_field_round_trip():
    env = GaussianEnvelope(center=(0.1, 0.0, 0.0, -0.2), width=1.5)
    field = AnalyticField(MINK, 2, [
        Mode(amplitude=Multivector.blade(MINK, (0, 1), 2.0), xi=(1, 0, 0, 1), phase=0.3,
             envelope=env),
        Mode(amplitude=Multivector.blade(MINK, (1, 2), -1.0), poly=(1, 0, 2, 0)),
    ])
    back = field_from_json(field_to_json(field), MINK)
    rng = np.random.default_rng(0)
    for _ in range(5):
        x = rng.uniform(-1, 1, 4)
        assert (back.evaluate(x) - field.evaluate(x)).max_abs() < 1e-14
        for axis in range(4):
            assert (back.partial_at(axis, x) - field.partial_at(axis, x)).max_abs() < 1e-13


def test_grid_field_round_trip():
    source = plane_wave(Multivector.blade(MINK, (1,)), (0.2, 0.1, 0.0, -0.3))
    grid = GridField.sample(source, origin=(-0.2,) * 4, spacing=(0.1,) * 4, counts=(5, 5, 5, 5))
    back = field_from_json(field_to_json(grid), MINK)
    x = (0.0, 0.1, -0.1, 0.2)
    assert (back.evaluate(x) - grid.evaluate(x)).max_abs() < 1e-14


def test_scenario_parsing_and_errors():
    field = plane_wave(Multivector.blade(MINK, (0, 1)), (1, 0, 0, 1))
    payload = {
        "signature": {"k": 1, "n": 3},
        "r": 2,
        "F": field_to_json(field),
        "J": None,
        "A": None,
        "checks": ["differential", "fourier"],
        "sample_points": 7,
        "seed": 3,
        "tol": 1e-6,
    }
    scenario = scenario_from_json(payload)
    assert isinstance(scenario, Scenario)
    assert scenario.r == 2 and scenario.seed == 3 and scenario.sample_points == 7
    assert scenario.J is None and scenario.A is None

    bad = dict(payload)
    bad["checks"] = ["differential", "nonsense"]
    with pytest.raises(ScenarioError):
        scenario_from_json(bad)

    with pytest.raises(ScenarioError):
        scenario_from_json({"r": 2})

    # sample counts below one, r out of range, and J or A grades other than r - 1
    for key, value in (("sample_points", 0), ("r", 0), ("r", 3),
                       ("J", field_to_json(field)), ("A", field_to_json(field))):
        with pytest.raises(ScenarioError):
            scenario_from_json({**payload, key: value})


def test_canonical_dumps_is_deterministic():
    payload = {"b": 1.5, "a": [1, 2, {"z": True, "y": np.float64(0.25)}]}
    one = canonical_dumps(payload)
    two = canonical_dumps(json.loads(one))
    assert one == two
    assert '"y": 0.25' in one
