"""JSON encoding of multivectors, fields, scenarios, and reports.

Formats are stable and canonical: keys are emitted sorted and floats use the
shortest round-trip representation, so identical inputs always serialize to
identical bytes.
"""

from __future__ import annotations

import math
import re
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from json.encoder import encode_basestring_ascii as _escape
from typing import Any, Mapping

import numpy as np

from .algebra import Bitensor, Multivector, SpacetimeSignature
from .fields import WAVE_COS, AnalyticField, GaussianEnvelope, GridField

__all__ = [
    "ScenarioError",
    "Scenario",
    "json_int",
    "json_float",
    "json_axis",
    "signature_to_json",
    "signature_from_json",
    "multivector_to_json",
    "field_to_json",
    "field_from_json",
    "bitensor_to_json",
    "scenario_from_json",
    "canonical_dumps",
]


class ScenarioError(ValueError):
    """Malformed scenario or field description."""


@contextmanager
def _reading(what: str):
    """Reads one JSON object: a ScenarioError from a nested reader passes
    unchanged, and any error a value of the wrong type or shape raises, or an
    allocation numpy refuses for it, becomes ``ScenarioError("bad <what>: ...")``."""
    try:
        yield
    except ScenarioError:
        raise
    except (AttributeError, IndexError, KeyError, MemoryError, OverflowError, TypeError, ValueError) as exc:
        raise ScenarioError(f"bad {what}: {exc}") from exc


def json_int(value, name: str, least: int | None = None) -> int:
    """A JSON integer: an int, or a float with an integral value such as 2.0.

    Bools, other floats (2.5, NaN, infinities) and any other type raise
    ScenarioError, as does a value below ``least`` when it is given.
    """
    if type(value) is not int:
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or isinstance(value, float) and not value.is_integer():
            raise ScenarioError(f"{name} must be an integer, got {value!r}")
        value = int(value)
    if least is not None and value < least:
        raise ScenarioError(f"{name} must be at least {least}, got {value}")
    return value


def json_float(value, name: str) -> float:
    """A JSON number as a float: an int or a float, NaN and infinities
    included.  Bools, strings and any other type raise ScenarioError."""
    if type(value) is float:
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{name} must be a number, got {value!r}")
    return float(value)


def json_axis(key, name: str) -> int:
    """A JSON object key naming an axis, written as the canonical decimal
    text of a non-negative integer: "0" or "12", but not "01", "+1", " 1 ",
    "1.0" or "0_1", which ``int()`` also reads.  Anything else raises
    ScenarioError."""
    if not (isinstance(key, str) and re.fullmatch("0|[1-9][0-9]*", key)):
        raise ScenarioError(f"{name} axis must be a decimal integer such as \"1\", got {key!r}")
    return int(key)


def _jsonify(value):
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _float_text(value: float) -> str:
    if value != value:
        return "NaN"
    if value == math.inf:
        return "Infinity"
    if value == -math.inf:
        return "-Infinity"
    return float.__repr__(value)


def _key_text(key) -> str:
    if not isinstance(key, str):
        if key is not None and not isinstance(key, (int, float)):
            raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")
        key = _encode(key, 0)
    return _escape(key)


def _finite_floats(items, inner: str) -> str | None:
    """The items of a list of finite floats, or of a list of non-empty lists
    of them (the last two levels of grid values), each list in one join, with
    ``inner`` the newline and indent before each item; None for any other list.
    Of the texts float.__repr__ gives, only nan and inf hold an "n"."""
    sep = "," + inner
    first = items[0]
    try:
        if isinstance(first, float):
            text = sep.join(map(float.__repr__, items))
        elif type(first) is list and first and isinstance(first[0], float) \
                and set(map(type, items)) == {list} and all(items):
            deeper = inner + "  "
            rows = map(("," + deeper).join, map(map, repeat(float.__repr__), items))
            text = "[" + deeper + (inner + "]" + sep + "[" + deeper).join(rows) + inner + "]"
        else:
            return None
    except TypeError:
        return None
    return None if "n" in text else text


def _encode(value, level: int) -> str:
    """The text of ``value`` nested ``level`` containers deep."""
    if isinstance(value, str):
        return _escape(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _float_text(value)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = "\n" + "  " * (level + 1)
        text = _finite_floats(value, inner)
        if text is None:
            text = ("," + inner).join([_encode(item, level + 1) for item in value])
        return "[" + inner + text + inner[:-2] + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = "\n" + "  " * (level + 1)
        return "{" + inner + ("," + inner).join(
            [_key_text(key) + ": " + _encode(item, level + 1)
             for key, item in sorted(value.items())]) + inner[:-2] + "}"
    return _encode(_jsonify(value), level)


def canonical_dumps(payload: Any) -> str:
    """The text the stdlib's ``json.dumps`` gives ``payload`` with sorted keys,
    an indent of 2 and ``_jsonify`` as its default, NaN and infinity literals
    included, built with one join per container: with an indent, the stdlib
    encodes in Python chunk by chunk.  A value json rejects raises TypeError."""
    return _encode(payload, 0)


def signature_to_json(sig: SpacetimeSignature) -> dict:
    return {"k": sig.k, "n": sig.n}


def signature_from_json(data: Mapping) -> SpacetimeSignature:
    with _reading("signature object"):
        return SpacetimeSignature(json_int(data["k"], "k"), json_int(data["n"], "n"))


def _term_to_json(indices, c) -> dict:
    entry = {"indices": list(indices), "re": float(c.real)}
    if c.imag:
        entry["im"] = float(c.imag)
    return entry


def multivector_to_json(mv: Multivector) -> dict:
    return {
        "signature": signature_to_json(mv.signature),
        "grade": mv.grade,
        "terms": [_term_to_json(indices, mv.terms[indices]) for indices in sorted(mv.terms)],
    }


@lru_cache(maxsize=None)
def _columns(dim: int, grade: int) -> dict[tuple[int, ...], int]:
    """Each index list of ``grade`` over ``dim`` axes and its column, in
    ``index_lists`` order; none for a grade out of range."""
    lists = SpacetimeSignature(0, dim).index_lists(grade) if 0 <= grade <= dim else ()
    return {indices: column for column, indices in enumerate(lists)}


def _terms_from_json(data: Mapping, sig: SpacetimeSignature) -> tuple[int, dict]:
    """The grade and terms of a multivector object on ``sig``, checked as
    ``Multivector`` checks them: a signature it states (not null) must be
    ``sig``, and a repeated index list keeps its last coefficient."""
    with _reading("multivector object"):
        grade = json_int(data["grade"], "grade")
        # a stated signature must read as sig; one of plain ints equal to sig's passes as it stands
        stated = data.get("signature")
        if stated is not None and not (stated == signature_to_json(sig) and type(stated["k"]) is int
                                       and type(stated["n"]) is int):
            if (found := signature_from_json(stated)) != sig:
                raise ScenarioError(f"amplitude signature ({found.k},{found.n}) does not match the "
                                    f"field's ({sig.k},{sig.n})")
        terms = {}
        for entry in data.get("terms", []):
            indices = tuple(json_int(i, "index") for i in entry["indices"])
            re = json_float(entry.get("re", 0.0), "re")
            im = json_float(entry.get("im", 0.0), "im")
            terms[indices] = complex(re, im) if im else re
        columns = _columns(sig.dim, grade)
        if not columns or not columns.keys() >= terms.keys():
            Multivector(sig, grade, terms)  # raises the constructor's error for the grade or an index list
        return grade, terms


def _envelope_from_json(data, dim: int) -> GaussianEnvelope | None:
    if data is None:
        return None
    if data.get("type") != "gaussian":
        raise ScenarioError(f"unknown envelope type {data.get('type')!r}")
    center = data.get("center", [0.0] * dim)
    return GaussianEnvelope(center=tuple(json_float(c, "envelope center") for c in center),
                            width=json_float(data["width"], "envelope width"))


def field_to_json(field) -> dict:
    if isinstance(field, AnalyticField):
        sig, grade = field.signature, field.grade
        blades = _columns(sig.dim, grade)
        modes = []
        for amp, xi, phase, waveform, poly, centre, envelope in field._rows():
            entry = {
                "xi": xi,
                "phase": phase,
                "waveform": waveform,
                "envelope": None if envelope is None else {"type": "gaussian", "width": envelope[1],
                                                           "center": envelope[0]},
                "amplitude": {"signature": signature_to_json(sig), "grade": grade,
                              "terms": [_term_to_json(indices, c) for indices, c in zip(blades, amp) if c]},
            }
            if any(poly):
                entry["poly"] = list(map(int, poly))
                entry["poly_center"] = centre
            modes.append(entry)
        return {"grade": grade, "backend": "modes", "modes": modes}
    if isinstance(field, GridField):
        return {
            "grade": field.grade,
            "backend": "grid",
            "grid": {
                "origin": list(field.origin),
                "spacing": list(field.spacing),
                "shape": list(field.values.shape[:-1]),
                "values": field.values.tolist(),
            },
        }
    raise ScenarioError(f"cannot serialize field of type {type(field).__name__}")


def _modes_from_json(entries, sig: SpacetimeSignature, grade: int) -> AnalyticField:
    """The field of a list of mode objects, each read as a ``Mode`` of its
    multivector amplitude, as ``AnalyticField._from_rows`` takes them."""
    dim = sig.dim

    def read(entry) -> tuple[int, list, dict]:
        amp_grade, terms = _terms_from_json(entry["amplitude"], sig)
        columns = _columns(dim, amp_grade)
        values = dict(xi=[json_float(v, "xi") for v in entry.get("xi", ())],
                      phase=json_float(entry.get("phase", 0.0), "phase"),
                      waveform=entry.get("waveform", WAVE_COS),
                      poly=[json_int(p, "poly") for p in entry.get("poly", ())],
                      poly_center=[json_float(c, "poly_center") for c in entry.get("poly_center", ())],
                      envelope=_envelope_from_json(entry.get("envelope"), dim))
        row = [0.0] * len(columns)
        for indices, c in terms.items():
            row[columns[indices]] = c
        return amp_grade, row, values

    return AnalyticField._from_rows(sig, grade, map(read, entries))


def field_from_json(data: Mapping, sig: SpacetimeSignature):
    with _reading("field object"):
        grade = json_int(data["grade"], "grade")
        backend = data.get("backend", "modes")
        if backend == "modes":
            return _modes_from_json(data.get("modes", []), sig, grade)
        if backend == "grid":
            grid = data["grid"]
            # json_float's rule on every entry: a bool (even among floats), string, null or ragged row fails
            values = np.array(grid["values"], dtype=object)
            others = set(map(type, values.flat)) - {int, float}
            if others:
                names = ", ".join(sorted(kind.__name__ for kind in others))
                raise ScenarioError(f"grid values must hold only numbers, got {names} entries")
            values = values.astype(float)
            origin, spacing = ([json_float(v, f"grid {key}") for v in grid[key]]
                               for key in ("origin", "spacing"))
            field = GridField(sig, grade, origin, spacing, values)
            shape = [json_int(count, "shape") for count in grid["shape"]]
            if shape != list(values.shape[:-1]):
                raise ValueError(f"grid shape {shape} does not match the {list(values.shape[:-1])} "
                                 "sites of its values")
            return field
        raise ScenarioError(f"unknown field backend {backend!r}")


def bitensor_to_json(t: Bitensor) -> list:
    out = []
    for (i, j) in sorted(t.comps):
        c = t.comps[(i, j)]
        out.append([i, j, float(c.real if isinstance(c, complex) else c)])
    return out


@dataclass(frozen=True)
class Scenario:
    """A verification scenario: the system, optional potential, and run knobs."""

    signature: SpacetimeSignature
    r: int
    F: object
    J: object | None
    A: object | None
    checks: tuple[str, ...]
    sample_points: int
    seed: int
    tol: float


VALID_CHECKS = ("differential", "integral", "fourier", "gauge")


def scenario_from_json(data: Mapping) -> Scenario:
    with _reading("scenario object"):
        sig = signature_from_json(data["signature"])
        r = json_int(data["r"], "r")
        f_field = field_from_json(data["F"], sig)
        j_field = field_from_json(data["J"], sig) if data.get("J") is not None else None
        a_field = field_from_json(data["A"], sig) if data.get("A") is not None else None
        if not 1 <= r <= sig.dim:
            raise ScenarioError(f"field grade r = {r} out of range 1..{sig.dim}")
        for name, fld, grade in (("F", f_field, r), ("J", j_field, r - 1), ("A", a_field, r - 1)):
            if fld is not None and fld.grade != grade:
                raise ScenarioError(f"{name} has grade {fld.grade}; r = {r} needs grade {grade}")
        checks = tuple(data.get("checks", ["differential"]))
        if not checks:
            raise ScenarioError(f"checks must name at least one of {VALID_CHECKS}")
        for check in checks:
            if check not in VALID_CHECKS:
                raise ScenarioError(f"unknown check {check!r}; valid: {VALID_CHECKS}")
        sample_points = json_int(data.get("sample_points", 20), "sample_points", least=1)
        seed = json_int(data.get("seed", 0), "seed", least=0)
        return Scenario(
            signature=sig,
            r=r,
            F=f_field,
            J=j_field,
            A=a_field,
            checks=checks,
            sample_points=sample_points,
            seed=seed,
            tol=json_float(data.get("tol", 1e-8), "tol"),
        )
