import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from extcalc.algebra import Multivector, SpacetimeSignature
from extcalc.fields import (
    AnalyticField,
    GaussianEnvelope,
    GridField,
    Mode,
    _cosine_field,
    exterior_derivative_field,
    interior_derivative_field,
    plane_wave,
)
from extcalc.serialize import (
    Scenario,
    ScenarioError,
    _jsonify,
    _terms_from_json,
    canonical_dumps,
    field_from_json,
    field_to_json,
    json_axis,
    multivector_to_json,
    scenario_from_json,
    signature_from_json,
)

from _support import (mode_family_fields, mode_values, reference_field_from_json, reference_field_to_json,
                      table_bits)

MINK = SpacetimeSignature(1, 3)
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
REPORTS = Path(__file__).resolve().parent / "reports"


def test_json_axis_reads_only_canonical_decimal_keys():
    assert [json_axis(key, "region") for key in ("0", "7", "12")] == [0, 7, 12]
    # int() reads all but "1.0", "" and the int as integers, the Arabic-Indic digit one included
    for key in ("01", "+1", " 1 ", "1.0", "0_1", "-1", "", "1\n", "\u0661", 1):
        with pytest.raises(ScenarioError, match="region axis"):
            json_axis(key, "region")


def _read_amplitude(data: dict) -> Multivector:
    """A multivector object on MINK, read as ``field_from_json`` reads a mode's amplitude."""
    return Multivector(MINK, *_terms_from_json(data, MINK))


def test_multivector_round_trip():
    mv = Multivector(MINK, 2, {(0, 1): 1.5, (2, 3): -0.25})
    data = multivector_to_json(mv)
    back = _read_amplitude(data)
    assert back == mv
    # indices are emitted strictly increasing
    assert all(entry["indices"] == sorted(entry["indices"]) for entry in data["terms"])


def test_multivector_complex_round_trip():
    mv = Multivector(MINK, 1, {(0,): 1 + 2j, (3,): -1.0})
    back = _read_amplitude(multivector_to_json(mv))
    assert back.coeff((0,)) == 1 + 2j
    assert back.coeff((3,)) == -1.0


def test_multivector_im_defaults_to_zero():
    data = {"signature": {"k": 1, "n": 3}, "grade": 1, "terms": [{"indices": [2], "re": 3.0}]}
    mv = _read_amplitude(data)
    assert mv.coeff((2,)) == 3.0


def test_multivector_bad_payload():
    with pytest.raises(ScenarioError):
        _read_amplitude({"signature": {"k": 1, "n": 3}, "grade": 1, "terms": [{"indices": [9], "re": 1.0}]})


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
    # one builder and one dtype rule: a field built from modes is the field read from its JSON, bit for bit
    rng = np.random.default_rng(4)
    built = [field]
    for sig in (MINK, SpacetimeSignature(2, 2)):
        for r in range(sig.dim + 1):
            built += mode_family_fields(sig, r, rng).values()
    coefficients = (1, 1.0, 1 + 0j, 1j)
    built += [plane_wave(Multivector.blade(MINK, (1,), c), (0.5, 0.5, 0.0, 0.0)) for c in coefficients]
    for f in built:
        assert table_bits(field_from_json(field_to_json(f), f.signature)) == table_bits(f)
    # float, or complex only where a kept coefficient has a nonzero imaginary part
    assert [f._table.amp.dtype for f in built[-len(coefficients):]] == [float, float, float, complex]


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


# the signatures and grades the direct mode reader is compared on, bit for bit,
# with the reader through Multivector and Mode objects
READER_CASES = [(k, n, grade) for k, n in ((0, 3), (1, 1), (1, 2), (1, 3), (1, 4), (2, 2))
                for grade in range(k + n + 1)]


def _amplitude_json(sig, grade, rng, special=None, complex_term=False, tiny=False, duplicate=False):
    """A multivector object over a random nonempty subset of the blades: normal
    coefficients, optionally one complex, one below PRUNE_REL of the rest, one
    index list given twice, or one special value (NaN, an infinity, 0.0, -0.0)."""
    blades = list(sig.index_lists(grade))
    picked = [blades[int(i)] for i in sorted(rng.choice(len(blades), size=int(rng.integers(1, len(blades) + 1)),
                                                         replace=False))]
    terms = [{"indices": list(idx), "re": round(float(rng.normal()), 6)} for idx in picked]
    if complex_term:
        terms[-1]["im"] = round(float(rng.normal()), 6)
    if tiny:
        terms.append({"indices": list(picked[0]), "re": 1e-17 * terms[0]["re"]} if len(picked) == 1
                     else {**terms[-1], "re": 3e-15 * terms[0]["re"]})
    if duplicate:
        terms.append({"indices": [float(i) for i in picked[0]], "re": round(float(rng.normal()), 6)})
    if special is not None:
        terms[int(rng.integers(len(terms)))]["re"] = special
    return {"signature": {"k": sig.k, "n": sig.n}, "grade": grade, "terms": terms}


def _field_json(sig, grade, rng, special=None) -> dict:
    """Mode objects of every kind the reader meets: real and complex
    amplitudes, repeated index lists, coefficients below PRUNE_REL, zero and
    empty amplitudes, modes that merge (some to zero), monomials with a given
    or an implied centre, envelopes with and without a centre, and absent
    optional entries."""
    dim = sig.dim

    def xi():
        return [round(float(v), 3) for v in rng.uniform(-0.8, 0.8, dim)]

    def envelope(with_center=True):
        env = {"type": "gaussian", "width": round(float(rng.uniform(0.5, 1.5)), 3)}
        if with_center:
            env["center"] = [round(float(c), 3) for c in rng.uniform(-0.3, 0.3, dim)]
        return env

    poly = [int(p) for p in rng.integers(0, 3, dim)]
    first = {"amplitude": _amplitude_json(sig, grade, rng), "xi": xi(), "phase": 0.25, "waveform": "cos",
             "envelope": None}
    modes = [
        first,
        {"amplitude": _amplitude_json(sig, grade, rng, complex_term=True), "xi": xi(), "waveform": "exp"},
        {"amplitude": _amplitude_json(sig, grade, rng, tiny=True, duplicate=True), "xi": xi(),
         "phase": round(float(rng.uniform(0, 6)), 6)},
        {"amplitude": {"grade": grade, "terms": [{"indices": list(next(sig.index_lists(grade))), "re": -0.0},
                                                 {"indices": list(next(sig.index_lists(grade))), "re": 0.0}]}},
        {"amplitude": {"grade": grade}, "xi": xi()},
        {**first, "amplitude": _amplitude_json(sig, grade, rng)},
        {"amplitude": _amplitude_json(sig, grade, rng), "xi": xi(), "poly": poly,
         "poly_center": [0.1] * dim, "envelope": envelope()},
        {"amplitude": _amplitude_json(sig, grade, rng), "poly": poly, "envelope": envelope(with_center=False)},
        {"amplitude": _amplitude_json(sig, grade, rng, complex_term=True), "poly": poly, "envelope": envelope()},
        {"amplitude": _amplitude_json(sig, grade, rng), "poly": poly, "xi": []},
        {**first, "amplitude": {**first["amplitude"],
                                "terms": [{**t, "re": -t["re"]} for t in first["amplitude"]["terms"]]}},
    ]
    if special is not None:
        modes.append({"amplitude": _amplitude_json(sig, grade, rng, special=special), "xi": xi()})
        modes.append({**modes[-1], "amplitude": _amplitude_json(sig, grade, rng)})
    return {"grade": grade, "backend": "modes", "modes": modes}


@pytest.mark.parametrize("k,n,grade", READER_CASES)
def test_direct_mode_reader_matches_the_mode_route_bit_for_bit(k, n, grade):
    sig = SpacetimeSignature(k, n)
    rng = np.random.default_rng([k, n, grade])
    for special in (None, math.nan, math.inf, -math.inf):
        data = _field_json(sig, grade, rng, special)
        want, given = reference_field_from_json(data, sig)
        got = field_from_json(data, sig)
        assert table_bits(got) == table_bits(want)
        if special is None:
            # the view the Mode route built: its own modes when none merged
            view = given if want.mode_count == len(given) else want.modes
            assert mode_values(got.modes) == mode_values(view)
            unmerged = {**data, "modes": [m for m in data["modes"] if "phase" not in m or m["phase"] != 0.25]}
            want, given = reference_field_from_json(unmerged, sig)
            assert want.mode_count == len(given)
            assert mode_values(field_from_json(unmerged, sig).modes) == mode_values(given)
    # a complex coefficient pruned away leaves the table real, as it leaves a Multivector row real
    blades = [list(idx) for idx in sig.index_lists(grade)]
    if len(blades) > 1:
        data = {"grade": grade, "modes": [{"amplitude": {"grade": grade, "terms": [
            {"indices": blades[0], "re": 1.0}, {"indices": blades[1], "re": 1e-15, "im": 1e-16}]}}]}
        assert table_bits(field_from_json(data, sig)) == table_bits(reference_field_from_json(data, sig)[0])
        # magnitudes summing past the float range make no cut (the 1.0 stays), without a numpy warning
        data["modes"][0]["amplitude"]["terms"] = [{"indices": blades[0], "re": 1e308}, {"indices": blades[1], "re": -1e308},
                                                  *[{"indices": idx, "re": 1.0} for idx in blades[2:3]]]
        assert table_bits(field_from_json(data, sig)) == table_bits(reference_field_from_json(data, sig)[0])
    # enough modes that the merge groups rows by sorting, not through a dict
    data = _field_json(sig, grade, rng)
    data["modes"] = [{**m, "amplitude": _amplitude_json(sig, grade, rng)} if "amplitude" in m else m
                     for _ in range(4) for m in data["modes"]]
    want, given = reference_field_from_json(data, sig)
    assert table_bits(field_from_json(data, sig)) == table_bits(want)
    assert len(given) > 32


def _with(path, value):
    """An edit setting the entry at a key path of a field object, or deleting it for ``...``."""
    def edit(data):
        for key in path[:-1]:
            data = data[key]
        if value is ...:
            del data[path[-1]]
        else:
            data[path[-1]] = value
    return edit


AMP = ("modes", 0, "amplitude")
TERM0 = AMP + ("terms", 0)
ENV = {"type": "gaussian", "width": 0.5, "center": [0.0] * 4}


# each malformed entry the Mode route rejects is rejected by the direct reader
# with the same message; several faults report the one the Mode route meets first
@pytest.mark.parametrize("edits", [
    [_with(AMP + ("grade",), 5)], [_with(AMP + ("grade",), -1)], [_with(AMP + ("grade",), 2.5)],
    [_with(AMP + ("grade",), True)], [_with(AMP + ("grade",), ...)], [_with(AMP, [1.0])],
    [_with(AMP + ("terms",), 3)], [_with(TERM0 + ("indices",), [0, 9])], [_with(TERM0 + ("indices",), [2, 1])],
    [_with(TERM0 + ("indices",), [1])], [_with(TERM0 + ("indices",), [0.5, 2])],
    [_with(TERM0 + ("indices",), [0, True])], [_with(TERM0 + ("indices",), ...)],
    [_with(TERM0 + ("re",), "6.28")], [_with(TERM0 + ("im",), False)],
    [_with(("modes", 0, "xi"), [1.0, 0.0, 0.0])], [_with(("modes", 0, "xi"), [1.0] * 5)],
    [_with(("modes", 0, "xi"), 1.0)], [_with(("modes", 0, "xi", 2), None)],
    [_with(("modes", 0, "phase"), "0.5")], [_with(("modes", 0, "waveform"), "sin")],
    [_with(("modes", 0, "poly"), [-1, 0, 0, 0])], [_with(("modes", 0, "poly"), [0.5, 0, 0, 0])],
    [_with(("modes", 0, "poly"), [1, 0, 0])],
    [_with(("modes", 0, "poly"), [1, 0, 0, 0]), _with(("modes", 0, "poly_center"), [0.0] * 3)],
    [_with(("modes", 0, "envelope"), {**ENV, "type": "lorentz"})],
    [_with(("modes", 0, "envelope"), {**ENV, "width": 0.0})],
    [_with(("modes", 0, "envelope"), {**ENV, "width": math.nan})],
    [_with(("modes", 0, "envelope"), {"type": "gaussian"})],
    [_with(("modes", 0, "envelope"), {**ENV, "center": [0.0, "0", 0.0, 0.0]})],
    [_with(("modes", 0, "envelope"), {**ENV, "center": [0.0] * 3})],
    [_with(("modes", 0, "envelope"), {**ENV, "center": [0.0] * 5}),
     _with(("modes", 0, "poly_center"), [0.0] * 4)],
    [_with(("modes", 0, "envelope"), [1.0])], [_with(("modes", 0, "amplitude"), ...)],
    [_with(("modes", 0), [1.0])], [_with(("modes",), 7)], [_with(("grade",), 1)],
    [_with(AMP + ("grade",), 1), _with(AMP + ("terms",), [{"indices": [1], "re": 1.0}])],
    [_with(AMP + ("grade",), 1), _with(AMP + ("terms",), []), _with(("modes", 1, "xi"), [0.0])],
    [_with(("modes", 1, "xi"), [0.0]), _with(("modes", 0, "waveform"), "sin")],
], ids=lambda edits: None)
def test_direct_mode_reader_keeps_the_mode_route_errors(edits):
    data = json.loads((SCENARIOS / "vacuum_plane_wave.json").read_text())["F"]
    data["modes"].append(json.loads(json.dumps(data["modes"][0])))
    for edit in edits:
        edit(data)
    messages = []
    for read in (lambda: reference_field_from_json(data, MINK), lambda: field_from_json(data, MINK)):
        with pytest.raises(ScenarioError) as info:
            read()
        messages.append(str(info.value))
    assert messages[0] == messages[1]


def test_a_foreign_amplitude_signature_is_an_error():
    data = json.loads((SCENARIOS / "vacuum_plane_wave.json").read_text())["F"]
    amplitude = data["modes"][0]["amplitude"]
    for stated in ({"k": 2, "n": 2}, {"k": 1, "n": 3.0}, {"k": 1, "n": 3, "note": 0}, None):
        amplitude["signature"] = stated
        if stated not in ({"k": 2, "n": 2},):
            assert table_bits(field_from_json(data, MINK)) == table_bits(reference_field_from_json(data, MINK)[0])
    amplitude["signature"] = {"k": 2, "n": 2}
    with pytest.raises(ScenarioError, match=r"amplitude signature \(2,2\) does not match the field's \(1,3\)"):
        field_from_json(data, MINK)
    amplitude["signature"] = {"k": True, "n": 3}
    with pytest.raises(ScenarioError, match="k must be an integer, got True"):
        field_from_json(data, MINK)
    del amplitude["signature"]
    assert field_from_json(data, MINK).mode_count == 1


@pytest.mark.parametrize("k,n,grade", READER_CASES)
def test_field_to_json_writes_the_modes_view_from_the_table(k, n, grade):
    sig = SpacetimeSignature(k, n)
    rng = np.random.default_rng([k, n, grade, 1])
    field = field_from_json(_field_json(sig, grade, rng), sig)
    unpruned = _cosine_field(sig, grade, np.array([[1.0, *[1e-16] * (math.comb(sig.dim, grade) - 1)]]),
                             np.zeros((1, sig.dim)), np.zeros(1))
    # the five families, complex amplitudes, and a NaN amplitude, which no relative cut prunes
    families = mode_family_fields(sig, grade, rng)
    blades = list(sig.index_lists(grade))
    nan = Multivector(sig, grade, {idx: float(rng.normal()) for idx in blades} | {blades[0]: math.nan})
    for f in (field, field * 1j, unpruned, *(exterior_derivative_field(field), interior_derivative_field(field)),
              *families.values(), families["mixed"] * (0.5 - 2j),
              families["cos"] + AnalyticField(sig, grade, [Mode(nan, (0.2,) * sig.dim, 0.7)])):
        assert canonical_dumps(field_to_json(f)) == canonical_dumps(reference_field_to_json(f))
    for path in SCENARIOS.glob("*.json"):
        data = json.loads(path.read_text())
        for name in ("F", "J", "A"):
            if data.get(name) and data[name].get("backend") == "modes":
                sig = signature_from_json(data["signature"])
                assert field_to_json(field_from_json(data[name], sig)) == data[name]
