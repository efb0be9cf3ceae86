import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from extcalc.algebra import Multivector, SpacetimeSignature
from extcalc.fields import AnalyticField, GaussianEnvelope, GridField, Mode, plane_wave
from extcalc.serialize import (
    Scenario,
    ScenarioError,
    _jsonify,
    canonical_dumps,
    field_from_json,
    field_to_json,
    json_axis,
    multivector_from_json,
    multivector_to_json,
    scenario_from_json,
)

MINK = SpacetimeSignature(1, 3)
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
REPORTS = Path(__file__).resolve().parent / "reports"


def test_json_axis_reads_only_canonical_decimal_keys():
    assert [json_axis(key, "region") for key in ("0", "7", "12")] == [0, 7, 12]
    # int() reads all but "1.0", "" and the int as integers, the Arabic-Indic digit one included
    for key in ("01", "+1", " 1 ", "1.0", "0_1", "-1", "", "1\n", "\u0661", 1):
        with pytest.raises(ScenarioError, match="region axis"):
            json_axis(key, "region")


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


def _stdlib_dumps(payload):
    return json.dumps(payload, sort_keys=True, indent=2, default=_jsonify)


def _outcome(dumps, payload):
    try:
        return dumps(payload)
    except TypeError:
        return TypeError


_STRINGS = st.one_of(st.text(), st.sampled_from(['"', "\\", "\x00\x1f\x7f", " é", "\U0001f600", ""]))
_INTS = st.one_of(st.integers(), st.sampled_from([2 ** 63, -(2 ** 64), -(10 ** 40), 10 ** 300]))
_FLOATS = st.one_of(st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 2.2e-308]))
_NUMPY = st.one_of(
    _FLOATS.map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(-(2 ** 63), 2 ** 63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
)
_SCALARS = st.one_of(_STRINGS, _INTS, _FLOATS, st.booleans(), st.none(), _NUMPY)


def _containers(children):
    rows = st.lists(st.lists(_FLOATS, max_size=3), min_size=1, max_size=4)
    return st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        # a float first and anything after it, and rows of floats with anything after them
        st.tuples(_FLOATS, st.lists(children, max_size=4)).map(lambda t: [t[0], *t[1]]),
        st.tuples(rows, st.lists(children, max_size=2)).map(lambda t: t[0] + t[1]),
        # each dict's keys are of kinds that sort against each other
        st.dictionaries(_STRINGS, children, max_size=5),
        st.dictionaries(st.one_of(_INTS, _FLOATS, st.booleans()), children, max_size=5),
        st.dictionaries(st.none(), children, max_size=1),
    )


@settings(max_examples=300, deadline=None)
@given(st.recursive(_SCALARS, _containers, max_leaves=30))
def test_canonical_dumps_matches_the_stdlib_encoder(payload):
    assert _outcome(canonical_dumps, payload) == _outcome(_stdlib_dumps, payload)


@pytest.mark.parametrize("path", sorted([*REPORTS.glob("*.json"), *SCENARIOS.glob("*.json")]),
                         ids=lambda path: f"{path.parent.name}/{path.name}")
def test_shipped_json_files_encode_to_their_own_bytes(path):
    text = path.read_text(encoding="utf-8")
    assert canonical_dumps(json.loads(text)) + "\n" == text


@pytest.mark.parametrize("payload", [
    {"grid": np.zeros(2)},
    [1.0, {0.5}],
    [[0.5], np.ones(1)],
    [[0.5], {0.5}],
    {"a": 1, 2: 3},
    {None: 1, "a": 2},
    {np.int64(1): 0},
    {(1, 2): 0},
])
def test_canonical_dumps_rejects_what_json_rejects(payload):
    with pytest.raises(TypeError):
        _stdlib_dumps(payload)
    with pytest.raises(TypeError):
        canonical_dumps(payload)
