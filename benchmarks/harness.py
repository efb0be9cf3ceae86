"""Running checks one after another and gating their verdicts.

A check runs as a user runs it: CLI checks go through ``extcalc.cli.main``
in-process with stdout and stderr captured, library checks call the public
function.  The gate compares each outcome with the verdict known in advance
and each repeated execution with the report of the first one.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import time
from dataclasses import dataclass

# calls go through the module attributes, so a tracer that rebinds them sees them
from extcalc import algebra, cli, energy, fields, integrate, serialize

from workloads import Check


@dataclass(frozen=True)
class Outcome:
    """What one execution of a check produced."""

    passed: bool  # the program's verdict: exit code 0, or the library's pass flag
    exit_code: int | None  # None for library checks
    residual: float
    tol: float
    report: str  # bytes that must repeat exactly on a repeated execution


def _exact(value) -> str:
    """Round-trip text of a scalar or multivector result, for repeat comparison."""
    return repr(sorted(value.terms.items())) if isinstance(value, algebra.Multivector) else repr(value)


def run_cli(check: Check) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(check.argv))
    text = out.getvalue()
    report = json.loads(text) if code in (0, 1) else {}
    residual = report.get("max_residual", report.get("flux_rel_err", float("nan")))
    return Outcome(code == 0, code, float(residual), float(report.get("tol", float("nan"))), text)


def run_library(check: Check) -> Outcome:
    spec = check.spec
    if check.kind == "verify-identities":
        result = algebra.verify_identities(algebra.SpacetimeSignature(spec["k"], spec["n"]))
        text = repr((sorted(result.residuals.items()), result.checks, result.passed))
        return Outcome(result.passed, None, result.max_residual, 0.0, text)
    sig = algebra.SpacetimeSignature(spec["signature"]["k"], spec["signature"]["n"])
    f_field = fields.exterior_derivative_field(serialize.field_from_json(spec["A"], sig))
    box = integrate.HypersurfaceBox(
        sig, intervals={int(a): tuple(v) for a, v in spec["box"]["intervals"].items()},
        fixed={int(a): v for a, v in spec["box"]["fixed"].items()})
    form = spec["form"]
    if form == "circulation":
        lhs, rhs, residual = integrate.stokes_circulation_check(f_field, box, spec["points"])
        scale = max(1.0, abs(lhs), abs(rhs))
    else:
        run = integrate.stokes_flux_check if form == "flux" else integrate.bitensor_stokes_check
        target = f_field if form == "flux" else energy.StressTensorField(f_field)
        lhs, rhs, residual = run(target, box, spec["points"])
        scale = max(1.0, lhs.max_abs(), rhs.max_abs())
    relative = residual / scale
    return Outcome(relative <= spec["tol"], None, relative, spec["tol"],
                   repr((_exact(lhs), _exact(rhs), relative)))


def execute(check: Check) -> Outcome:
    return run_cli(check) if check.argv else run_library(check)


def gate(check: Check, outcome: Outcome, first_reports: dict[str, str]) -> str | None:
    """Return why the outcome is wrong, or None when it is as expected."""
    if outcome.exit_code not in (None, 0, 1):
        return f"exit code {outcome.exit_code}"
    if outcome.passed != check.expect_pass:
        return f"verdict {'PASS' if outcome.passed else 'FAIL'}, expected the opposite"
    within = outcome.residual <= outcome.tol
    if within != check.expect_pass:
        return f"residual {outcome.residual!r} against tol {outcome.tol!r} contradicts the verdict"
    first = first_reports.setdefault(check.id, outcome.report)
    if first != outcome.report:
        return "report differs from this check's earlier execution"
    return None


# Host speed drifts by tens of percent over minutes on shared machines, and
# the drift slows all Python code alike.  So a fixed pure-Python workload is
# timed before every check, and each check's time is scaled by the reference
# time of that workload over its local median: times are reported in seconds
# at the reference host speed, the speed at which the workload takes 1.5 ms.
# (CPython 3.11 on a 2-vCPU x86-64 VM takes 0.9 to 1.7 ms, depending on the
# load its neighbours put on the host.)
CALIBRATION_REF_S = 1.5e-3
# checks on each side of a check whose calibrations set its scale
CALIBRATION_WINDOW = 4


def calibration_work():
    """Dict updates under tuple keys and float sums, like the sparse algebra."""
    table = {}
    for i in range(3000):
        key = (i % 7, i % 11, i % 13)
        table[key] = table.get(key, 0) + i * 0.5
    return min(table.items())


def time_calibration() -> float:
    start = time.perf_counter()
    calibration_work()
    return time.perf_counter() - start


def calibrated(durations: list[float], calibrations: list[float]) -> list[float]:
    """Durations at the reference host speed, each scaled by the median
    calibration time of its neighbourhood."""
    out = []
    for i, duration in enumerate(durations):
        local = calibrations[max(0, i - CALIBRATION_WINDOW):i + CALIBRATION_WINDOW + 1]
        out.append(duration * CALIBRATION_REF_S / statistics.median(local))
    return out


@dataclass
class LoopResult:
    durations: list[float]
    calibrations: list[float]
    failures: list[tuple[str, str]]
    wall: float

    @property
    def attempted(self) -> int:
        return len(self.durations)

    def calibrated(self) -> list[float]:
        return calibrated(self.durations, self.calibrations)


def run_loop(sequence: list[Check], seconds: float, first_reports: dict[str, str],
             limit: int | None = None, min_checks: int = 0, block: int = 1,
             on_check=None) -> LoopResult:
    """Closed loop, one caller: each check starts after the previous verdict.

    Cycles through ``sequence`` until ``seconds`` have passed and at least
    ``min_checks`` ran (but never past four times ``seconds``), stopping only
    after a whole number of ``block``-long blocks; or for exactly ``limit``
    checks when a limit is given.  Only the check itself is timed; the
    calibration and the gate run between checks.
    """
    durations: list[float] = []
    calibrations: list[float] = []
    failures: list[tuple[str, str]] = []
    start = time.perf_counter()
    i = 0
    while True:
        elapsed = time.perf_counter() - start
        if limit is not None:
            if i >= limit:
                break
        elif i % block == 0 and elapsed >= seconds and (i >= min_checks or elapsed >= 4 * seconds):
            break
        check = sequence[i % len(sequence)]
        if on_check is not None:
            on_check(i, check)
        i += 1
        calibrations.append(time_calibration())
        t0 = time.perf_counter()
        try:
            outcome = execute(check)
        except Exception as exc:  # a raising check is a failed check, not a crashed run
            durations.append(time.perf_counter() - t0)
            failures.append((check.id, f"raised {type(exc).__name__}: {exc}"))
            continue
        durations.append(time.perf_counter() - t0)
        reason = gate(check, outcome, first_reports)
        if reason is not None:
            failures.append((check.id, reason))
    return LoopResult(durations, calibrations, failures, time.perf_counter() - start)
