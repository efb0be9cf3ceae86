"""Seeded workload generators for the extcalc benchmark.

Each workload is a list of checks.  A check is one verification a user runs:
a CLI command (``argv``) or a public library check (``spec``), with the
verdict known in advance.  Generated scenario files are written to a
directory the caller owns; the program under test receives only those files
and the argv.  The same seed always gives the same checks and the same bytes.
"""

from __future__ import annotations

import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from extcalc.algebra import Multivector, SpacetimeSignature
from extcalc.fields import (
    AnalyticField,
    GaussianEnvelope,
    GridField,
    Mode,
    exterior_derivative_field,
    interior_derivative_field,
)
from extcalc.serialize import canonical_dumps, field_to_json

# signatures the generated field scenarios run on
FIELD_SIGNATURES = ((1, 1), (1, 2), (1, 3), (2, 2), (0, 3))
# signatures with a time and a space axis, so null plane waves exist
VACUUM_SIGNATURES = ((1, 1), (1, 2), (1, 3), (2, 2))
# dyadic null-frequency scales: the null condition holds exactly in floating point
NULL_SCALES = (0.25, 0.5, 0.75, 1.0)
IDENTITY_SIGNATURES = tuple((k, n) for k in range(7) for n in range(7) if 1 <= k + n <= 6)
SOURCE_PERTURBATION = 1e-3
FIELD_TOL = 1e-8
INTEGRAL_TOL = 1e-6


@dataclass(frozen=True)
class Check:
    """One verification with its expected verdict.

    CLI checks carry ``argv`` for ``extcalc.cli.main``; library checks carry a
    plain-data ``spec`` that ``harness.run_library`` turns into one call.
    """

    id: str
    kind: str
    expect_pass: bool
    argv: tuple[str, ...] = ()
    spec: dict = field(default_factory=dict, compare=False, hash=False)
    config_bytes: int = 0


class Writer:
    """Writes scenario files into one directory, numbered in creation order."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.count = 0

    def config(self, name: str, payload: dict) -> tuple[str, int]:
        path = self.out_dir / f"{self.count:04d}-{name}.json"
        self.count += 1
        text = canonical_dumps(payload) + "\n"
        path.write_text(text, encoding="utf-8")
        return str(path), len(text.encode("utf-8"))

    def copy(self, source: Path) -> tuple[str, int]:
        path = self.out_dir / f"{self.count:04d}-{source.name}"
        self.count += 1
        shutil.copyfile(source, path)
        return str(path), path.stat().st_size


# ---------------------------------------------------------------------------
# random fields
#
# Every generated check has a shape fixed by its slot in the workload (its
# signature, grade, mode count, which modes carry monomials or an envelope,
# the quadrature order).  The seed draws the values: amplitudes, frequencies,
# phases, axes, centres and boxes.  So every seed gives the same mix of costs,
# and a run's timings move with the program, not with the draw.
# ---------------------------------------------------------------------------

def _random_amplitude(sig: SpacetimeSignature, grade: int, rng: np.random.Generator,
                      axes=None) -> Multivector:
    blades = [idx for idx in sig.index_lists(grade) if axes is None or set(idx) <= set(axes)]
    picks = rng.choice(len(blades), size=min(len(blades), 2), replace=False)
    return Multivector(sig, grade, {
        blades[int(p)]: round(float(rng.choice((-1, 1)) * rng.uniform(0.2, 1.0)), 6) for p in sorted(picks)})


def random_potential(sig: SpacetimeSignature, grade: int, nmodes: int, rng: np.random.Generator,
                     real_only: bool = False) -> AnalyticField:
    """A potential of ``nmodes`` modes mixing waveforms, monomials and envelopes.

    Mode m has a linear monomial factor on m % 3 axes, an envelope when
    m == 2, and alternates cos and exp waveforms unless ``real_only``."""
    dim = sig.dim
    modes = []
    for m in range(nmodes):
        poly = [0] * dim
        for a in rng.permutation(dim)[:m % 3]:
            poly[int(a)] = 1
        envelope = None
        if m == 2:
            envelope = GaussianEnvelope(center=tuple(round(float(c), 3) for c in rng.uniform(-0.3, 0.3, dim)),
                                        width=round(float(rng.uniform(0.8, 1.5)), 3))
        modes.append(Mode(
            amplitude=_random_amplitude(sig, grade, rng),
            xi=tuple(round(float(v), 3) for v in rng.uniform(-0.8, 0.8, dim)),
            phase=round(float(rng.uniform(0.0, 2.0 * math.pi)), 6),
            waveform="cos" if real_only or m % 2 == 0 else "exp",
            poly=tuple(poly),
            envelope=envelope,
        ))
    return AnalyticField(sig, grade, modes)


def vacuum_potential(sig: SpacetimeSignature, grade: int, nmodes: int, rng: np.random.Generator,
                     real_only: bool = False) -> AnalyticField:
    """Null plane waves with amplitudes transverse to their own two axes.

    Each mode's frequency lies along one time and one space axis with equal
    dyadic weights, so it is exactly null, and its amplitude avoids both
    axes, so the Lorenz and transverse gauges hold exactly and J = 0.
    """
    modes = []
    for m in range(nmodes):
        t = int(rng.integers(0, sig.k))
        s = int(rng.integers(sig.k, sig.dim))
        others = [a for a in sig.axes() if a not in (t, s)]
        scale = NULL_SCALES[int(rng.integers(len(NULL_SCALES)))]
        xi = [0.0] * sig.dim
        xi[t] = scale
        xi[s] = scale * float(rng.choice((-1, 1)))
        modes.append(Mode(
            amplitude=_random_amplitude(sig, grade, rng, axes=others),
            xi=tuple(xi),
            phase=round(float(rng.uniform(0.0, 2.0 * math.pi)), 6),
            waveform="cos" if real_only or m % 2 == 0 else "exp",
        ))
    return AnalyticField(sig, grade, modes)


def polynomial_potential(sig: SpacetimeSignature, grade: int, nmodes: int,
                         rng: np.random.Generator) -> AnalyticField:
    """Monomials of degree 1 to 3, so central differences of F = dA are exact."""
    modes = []
    for m in range(nmodes):
        poly = [0] * sig.dim
        for a in rng.integers(0, sig.dim, m % 3 + 1):
            poly[int(a)] += 1
        modes.append(Mode(amplitude=_random_amplitude(sig, grade, rng), poly=tuple(poly)))
    return AnalyticField(sig, grade, modes)


def _perturbed(j_field: AnalyticField) -> AnalyticField:
    sig = j_field.signature
    blade = next(iter(sig.index_lists(j_field.grade)))
    bump = Mode(amplitude=Multivector.blade(sig, blade, SOURCE_PERTURBATION))
    return AnalyticField(sig, j_field.grade, j_field.modes + (bump,))


def _scenario(sig, r, f_field, j_field, a_field, checks, rng, sample_points, tol) -> dict:
    return {
        "signature": {"k": sig.k, "n": sig.n},
        "r": r,
        "F": field_to_json(f_field),
        "J": None if j_field is None else field_to_json(j_field),
        "A": None if a_field is None else field_to_json(a_field),
        "checks": list(checks),
        "sample_points": sample_points,
        "seed": int(rng.integers(1 << 30)),
        "tol": tol,
    }


def _rotate(options, slot: int):
    return options[slot % len(options)]


def _field_shape(slot: int, quadrature: bool = False):
    """Signature and field grade for one slot, cycling through both."""
    sig = SpacetimeSignature(*_rotate(FIELD_SIGNATURES, slot))
    grades = [r for r in (1, 2) if r <= sig.dim]
    if quadrature:
        # circulation boxes (r + 1) and flux boxes (dim - r + 1) of at most
        # three dimensions bound the node count per box
        grades = [r for r in grades if r + 1 <= min(3, sig.dim) and sig.dim - r + 1 <= 3]
    return sig, _rotate(grades, slot // len(FIELD_SIGNATURES))


# ---------------------------------------------------------------------------
# check builders
# ---------------------------------------------------------------------------

def maxwell_analytic(w: Writer, rng, cid: str, slot: int, perturb: bool) -> Check:
    sig, r = _field_shape(slot)
    potential = random_potential(sig, r - 1, 1 + slot % 4, rng)
    f_field = exterior_derivative_field(potential)
    j_field = interior_derivative_field(f_field)
    if perturb:
        j_field = _perturbed(j_field)
    path, size = w.config("maxwell", _scenario(sig, r, f_field, j_field, potential, ("differential",),
                                               rng, 20, FIELD_TOL))
    return Check(cid, "maxwell-check", not perturb, ("maxwell-check", "--config", path),
                 config_bytes=size)


def maxwell_integral(w: Writer, rng, cid: str, slot: int) -> Check:
    sig, r = _field_shape(slot, quadrature=True)
    potential = random_potential(sig, r - 1, 1 + slot % 2, rng)
    f_field = exterior_derivative_field(potential)
    j_field = interior_derivative_field(f_field)
    path, size = w.config("integral", _scenario(sig, r, f_field, j_field, potential, ("integral",),
                                                rng, 20, INTEGRAL_TOL))
    return Check(cid, "maxwell-integral", True,
                 ("maxwell-check", "--config", path, "--points", str(6 + slot % 5)),
                 config_bytes=size)


def maxwell_vacuum(w: Writer, rng, cid: str, slot: int) -> Check:
    sig = SpacetimeSignature(*_rotate(VACUUM_SIGNATURES, slot))
    r = _rotate([r for r in (1, 2) if r == 1 or sig.dim >= 3], slot // len(VACUUM_SIGNATURES))
    potential = vacuum_potential(sig, r - 1, 1 + slot % 3, rng)
    f_field = exterior_derivative_field(potential)
    path, size = w.config("vacuum", _scenario(sig, r, f_field, None, potential,
                                              ("differential", "fourier", "gauge"),
                                              rng, 20, FIELD_TOL))
    return Check(cid, "maxwell-vacuum", True, ("maxwell-check", "--config", path),
                 config_bytes=size)


GRID_SHAPES = {(1, 1): (21, 21), (1, 2): (11, 11, 11), (0, 3): (11, 11, 11),
               (1, 3): (7, 7, 7, 7), (2, 2): (7, 7, 7, 7)}


def maxwell_grid(w: Writer, rng, cid: str, slot: int, perturb: bool) -> Check:
    sig, r = _field_shape(slot)
    shape = GRID_SHAPES[(sig.k, sig.n)]
    spacing = [2.0 / (c - 1) for c in shape]
    origin = [-1.0] * sig.dim
    potential = polynomial_potential(sig, r - 1, 2 + slot % 3, rng)
    f_field = exterior_derivative_field(potential)
    f_grid = GridField.sample(f_field, origin, spacing, shape)
    j_grid = GridField.sample(interior_derivative_field(f_field), origin, spacing, shape)
    if perturb:
        values = j_grid.values.copy()
        values[..., 0] += SOURCE_PERTURBATION
        j_grid = GridField(sig, r - 1, origin, spacing, values)
    path, size = w.config("grid", _scenario(sig, r, f_grid, j_grid, None, ("differential",),
                                            rng, 20, FIELD_TOL))
    return Check(cid, "maxwell-grid", not perturb, ("maxwell-check", "--config", path),
                 config_bytes=size)


def stress_energy(w: Writer, rng, cid: str, slot: int) -> Check:
    sig, r = _field_shape(slot)
    potential = random_potential(sig, r - 1, 1 + slot % 4, rng, real_only=True)
    f_field = exterior_derivative_field(potential)
    j_field = interior_derivative_field(f_field)
    path, size = w.config("stress", _scenario(sig, r, f_field, j_field, None, ("differential",),
                                              rng, 12, FIELD_TOL))
    return Check(cid, "stress-energy", True, ("stress-energy", "--config", path),
                 config_bytes=size)


def flux_compare(w: Writer, rng, cid: str, shipped: Path, perturb: bool) -> Check:
    """A shipped flux-compare config, or one with its spectrum centre and width moved.

    The centre moves by at most 0.08 along each axis and the width grows by
    at most 10%, which keeps the spectrum negligible at the region edges and
    far from the chi = 0 degeneracy."""
    kind = f"flux-compare-{shipped.stem[-2:]}"
    if not perturb:
        path, size = w.copy(shipped)
        return Check(cid, kind, True, ("flux-compare", "--config", path), config_bytes=size)
    data = json.loads(shipped.read_text(encoding="utf-8"))
    spectrum = data["spectrum"]
    spectrum["center"] = {a: round(c + float(rng.uniform(-0.08, 0.08)), 4)
                          for a, c in spectrum["center"].items()}
    spectrum["width"] = round(spectrum["width"] * float(rng.uniform(1.0, 1.1)), 4)
    path, size = w.config(shipped.stem, data)
    return Check(cid, kind, True, ("flux-compare", "--config", path), config_bytes=size)


def _random_box(sig: SpacetimeSignature, free_axes, rng, half=(0.15, 0.3)) -> dict:
    centers = rng.uniform(-0.3, 0.3, sig.dim)
    halves = rng.uniform(*half, sig.dim)
    return {
        "intervals": {int(a): [round(float(centers[a] - halves[a]), 4),
                               round(float(centers[a] + halves[a]), 4)] for a in free_axes},
        "fixed": {int(a): round(float(centers[a]), 4) for a in sig.axes() if a not in free_axes},
    }


BITENSOR_SIGNATURES = ((1, 2), (1, 3), (2, 2))


def stokes(rng, cid: str, slot: int, form: str) -> Check:
    """Library Stokes check on F = dA over a seeded box, with a relative tolerance.

    The bitensor form runs on the stress tensor of a vacuum solution at 4
    nodes per axis, whose residual is near 1e-5 of the flux; the others run
    at 6 to 8 nodes per axis, where the residual is at rounding level."""
    if form == "bitensor":
        sig = SpacetimeSignature(*_rotate(BITENSOR_SIGNATURES, slot))
        r = 2
        potential = vacuum_potential(sig, r - 1, 1 + slot % 2, rng, real_only=True)
        box = _random_box(sig, list(sig.axes()), rng, half=(0.08, 0.15))
        points, tol = 4, 1e-3
    else:
        sig, r = _field_shape(slot, quadrature=True)
        potential = random_potential(sig, r - 1, 1 + slot % 2, rng)
        box_dim = r + 1 if form == "circulation" else sig.dim - r + 1
        free = sorted(int(a) for a in rng.permutation(sig.dim)[:box_dim])
        box = _random_box(sig, free, rng)
        points, tol = 6 + slot % 3, 1e-8
    spec = {"form": form, "signature": {"k": sig.k, "n": sig.n},
            "A": field_to_json(potential), "box": box, "points": points, "tol": tol}
    return Check(cid, f"stokes-{form}", True, spec=spec)


def _shuffled(block: list[Check], rng) -> list[Check]:
    return [block[int(i)] for i in rng.permutation(len(block))]


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def identities(rng: np.random.Generator, sweeps: int = 80) -> list[list[Check]]:
    """Sweeps: every signature with 1 <= k + n <= 6 once, in a fresh seeded
    order each sweep, with the two identity CLI commands placed among them."""
    cli = [Check("id-cli", "verify-identities-cli", True,
                 ("verify-identities", "--kmax", "1", "--nmax", "3")),
           Check("id-cli-corrupt", "verify-identities-cli", False,
                 ("verify-identities", "--kmax", "1", "--nmax", "3", "--self-test-corruption"))]
    library = [Check(f"id-{k}-{n}", "verify-identities", True, spec={"k": k, "n": n})
               for k, n in IDENTITY_SIGNATURES]
    return [_shuffled(library + cli, rng) for _ in range(sweeps)]


def pointwise(rng: np.random.Generator, w: Writer, scenarios: Path,
              blocks: int = 20) -> list[list[Check]]:
    """Sampled residual checks on generated and shipped scenarios, no quadrature.

    Blocks of thirteen checks, each shuffled on its own.  Twenty blocks of
    distinct checks, each run about twice, so the slowest tenth of a run is
    not just a few checks of one draw."""
    out: list[list[Check]] = []
    shipped_stress, stress_size = w.copy(scenarios / "vacuum_plane_wave.json")
    shipped_fail, fail_size = w.copy(scenarios / "nonconserved_source.json")
    for b in range(blocks):
        c = f"pw{b}-"
        block = [maxwell_analytic(w, rng, c + f"a{j}", 4 * b + j, j == 3) for j in range(4)]
        block += [maxwell_vacuum(w, rng, c + f"v{j}", 2 * b + j) for j in range(2)]
        block += [maxwell_grid(w, rng, c + f"g{j}", 2 * b + j, j == 1 and b % 2 == 1) for j in range(2)]
        block += [stress_energy(w, rng, c + f"s{j}", 2 * b + j + 1) for j in range(2)]
        block.append(Check(c + "c0", "classical", True,
                           ("classical", "--seed", str(int(rng.integers(1 << 30))))))
        block.append(Check(c + "x0", "stress-energy-shipped", True,
                           ("stress-energy", "--config", shipped_stress), config_bytes=stress_size))
        block.append(Check(c + "x1", "maxwell-shipped", False,
                           ("maxwell-check", "--config", shipped_fail), config_bytes=fail_size))
        out.append(_shuffled(block, rng))
    return out


def integral(rng: np.random.Generator, w: Writer, scenarios: Path,
             blocks: int = 10) -> list[list[Check]]:
    """Quadrature checks: integral Maxwell, slice fluxes and the three Stokes forms.

    Blocks of eleven checks, each shuffled on its own.  Two of the eleven
    are the slow flux-compare 12 configs, so the 90th percentile falls inside
    that group rather than on the edge between two groups."""
    out: list[list[Check]] = []
    shipped_vacuum, size = w.copy(scenarios / "vacuum_plane_wave.json")
    for b in range(blocks):
        c = f"in{b}-"
        block = [maxwell_integral(w, rng, c + f"m{j}", 3 * b + j) for j in range(3)]
        block.append(Check(c + "m3", "maxwell-shipped", True,
                           ("maxwell-check", "--config", shipped_vacuum, "--points", str(6 + b % 3)),
                           config_bytes=size))
        block += [stokes(rng, c + f"sc{j}", 2 * b + j, "circulation") for j in range(2)]
        block.append(stokes(rng, c + "sf0", b, "flux"))
        block.append(stokes(rng, c + "sb0", b, "bitensor"))
        block.append(flux_compare(w, rng, c + "f11", scenarios / "flux_compare_11.json", b > 0))
        block += [flux_compare(w, rng, c + f"f12{j}", scenarios / "flux_compare_12.json", b + j > 0)
                  for j in range(2)]
        out.append(_shuffled(block, rng))
    return out


WORKLOADS = {"identities": identities, "pointwise": pointwise, "integral": integral}


def generate(name: str, seed: int, out_dir: Path, scenarios: Path) -> tuple[list[Check], int]:
    """Write the inputs of one workload into ``out_dir``; return its checks
    and the length of its blocks.

    Every block holds the same mix of check kinds, so a run that stops on a
    block boundary measures whole blocks of that mix."""
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(name)])
    if name == "identities":
        blocks = identities(rng)
    else:
        blocks = WORKLOADS[name](rng, Writer(out_dir), scenarios)
    return [check for block in blocks for check in block], len(blocks[0])
