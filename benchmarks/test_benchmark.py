"""Tests of the benchmark's own machinery: gate, generator, tracer, launcher.

    python -m pytest benchmarks
"""

from __future__ import annotations

import dataclasses
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import harness  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

CORRUPT = workloads.Check("corrupt", "verify-identities-cli", False,
                          ("verify-identities", "--kmax", "1", "--nmax", "2",
                           "--self-test-corruption"))
LIBRARY = workloads.Check("id-1-2", "verify-identities", True, spec={"k": 1, "n": 2})


@pytest.mark.parametrize("check", [CORRUPT, LIBRARY], ids=["cli", "library"])
def test_gate_accepts_expected_verdict(check):
    assert harness.gate(check, harness.execute(check), {}) is None


@pytest.mark.parametrize("check", [CORRUPT, LIBRARY], ids=["cli", "library"])
def test_gate_catches_one_flipped_expectation(check):
    flipped = dataclasses.replace(check, expect_pass=not check.expect_pass)
    assert "verdict" in harness.gate(flipped, harness.execute(flipped), {})


def test_flipped_expectation_counts_as_failed_in_the_loop():
    flipped = dataclasses.replace(LIBRARY, id="flipped", expect_pass=False)
    loop = harness.run_loop([LIBRARY, flipped], 0.0, {}, limit=4)
    assert loop.attempted == 4
    assert [check_id for check_id, _ in loop.failures] == ["flipped", "flipped"]


def test_gate_catches_a_report_that_does_not_repeat():
    outcome = harness.execute(LIBRARY)
    first = {LIBRARY.id: outcome.report + " "}
    assert "differs" in harness.gate(LIBRARY, outcome, first)


def test_gate_catches_residual_contradicting_verdict():
    outcome = dataclasses.replace(harness.execute(LIBRARY), residual=1.0)
    assert "contradicts" in harness.gate(LIBRARY, outcome, {})


def test_usage_error_and_raising_check_are_failures():
    usage = workloads.Check("usage", "flux-compare-11", True,
                            ("flux-compare", "--config", str(ROOT / "no-such-file.json")))
    raising = workloads.Check("raising", "stokes-flux", True, spec={"signature": {}})
    loop = harness.run_loop([usage, raising], 0.0, {}, limit=2)
    assert [check_id for check_id, _ in loop.failures] == ["usage", "raising"]
    assert "exit code 2" in loop.failures[0][1] and "raised" in loop.failures[1][1]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_same_inputs(name, tmp_path):
    runs = []
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        checks, block = workloads.generate(name, 7, tmp_path / sub, ROOT / "scenarios")
        files = {p.name: p.read_bytes() for p in (tmp_path / sub).iterdir()}
        runs.append(([(c.id, c.kind, c.expect_pass, c.spec, c.config_bytes) for c in checks], files))
        # every block holds the same mix of kinds
        mixes = {tuple(sorted(c.kind for c in checks[i:i + block])) for i in range(0, len(checks), block)}
        assert len(checks) % block == 0 and len(mixes) == 1
    assert runs[0] == runs[1]


def test_tracer_wraps_every_binding_and_restores_them():
    from extcalc import algebra, cli, fields

    originals = (algebra.wedge, fields.wedge, cli.algebra_dot, algebra.Multivector.__add__)
    tracer = Tracer()
    tracer.install()
    try:
        assert fields.wedge is algebra.wedge and fields.wedge is not originals[1]
        assert cli.algebra_dot.__wrapped__ is originals[2]
        tracer.check = 0
        harness.execute(workloads.Check("vac", "maxwell-check", True,
                                        ("maxwell-check", "--config",
                                         str(ROOT / "scenarios" / "nonconserved_source.json"))))
    finally:
        tracer.uninstall()
    assert (algebra.wedge, fields.wedge, cli.algebra_dot, algebra.Multivector.__add__) == originals
    layers = tracer.layer_totals()
    assert layers["cli"]["calls"] >= 1 and layers["maxwell"]["calls"] >= 1
    assert tracer.counts["algebra.mv_new"] > 0 and tracer.counts["fields.point_evals"] > 0
    # self time never exceeds the span's own duration
    for nid in tracer.calls:
        assert 0 <= tracer.self_ns[nid] <= tracer.total_ns[nid]


def test_launcher_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    result = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", "identities",
                             "--seed", "1", "--seconds", "1", "--trace", "0"],
                            cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert result.returncode != 0
    assert '"metrics"' not in result.stdout
