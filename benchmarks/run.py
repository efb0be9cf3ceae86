"""extcalc benchmark: time to verdict on seeded workloads of verification checks.

    python3 benchmarks/run.py --workload identities|pointwise|integral \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  The benchmark writes its generated inputs under ``.bench_work/``
in the checkout, runs the workload's checks as a closed loop with one caller
in this process (the next check starts when the previous verdict is in) for
``--seconds``, gates every verdict, and prints one line per metric followed
by a JSON summary as the last line.

``--trace 0`` reports the end-to-end metrics.  Their times are seconds at a
reference host speed: a fixed pure-Python calibration workload is timed
before every check (and around every set-up step), and each time is scaled
by the calibration's reference time over its local median, which cancels
the host's speed drift.  The raw wall-clock figures are printed beside them.

``--trace 1`` wraps the public functions of every extcalc module, runs the
loop traced, re-runs the same checks untraced to state the tracing overhead,
and reports per-layer metrics (times again at the reference host speed); the
spans go to ``.bench_work/trace-<workload>-<seed>.tsv.gz``.

The command exits 1 when any check's verdict, residual or repeated report is
not as expected, and 2 when the checkout has no extcalc sources.
"""

from __future__ import annotations

import os

# one thread for BLAS and OpenMP, set before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gzip
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"
SCENARIOS = ROOT / "scenarios"

# set-up is repeated and the median reported, so one slow start does not show
IMPORT_REPEATS = 9
GENERATE_REPEATS = 3
CALIBRATIONS_PER_STEP = 5
# p90 needs at least ten samples beyond it
MIN_CHECKS = 100

# ROADMAP Baseline figures each traced timing mirrors (hand-timed on (1,3))
BASELINE = {
    "algebra.wedge.us": (46.0, "wedge(vector, bivector) on (1,3)"),
    "algebra.left_interior.us": (52.0, "left_interior on (1,3)"),
    "algebra.verify_identities.s": (0.250, "verify_identities on (3,3)"),
    "fields.evaluate.us": (74.0, "AnalyticField.evaluate, 2 modes, (1,3)"),
    "fields.exterior_derivative.us": (248.0, "exterior_derivative at a point, (1,3)"),
    "energy.stress_tensor_def.us": (1600.0, "stress_tensor_def on (1,3)"),
    "energy.stress_tensor_explicit.us": (112.0, "stress_tensor_explicit on (1,3)"),
    "energy.divergence.us": (1700.0, "stress-tensor divergence per point, (1,3)"),
}

# per-layer metric -> the span name whose mean duration it reports
SPAN_TIMINGS = {
    "algebra.wedge.us": "algebra.wedge",
    "algebra.left_interior.us": "algebra.left_interior",
    "fields.evaluate.us": "fields.AnalyticField.evaluate",
    "fields.exterior_derivative.us": "fields.exterior_derivative",
    "energy.stress_tensor_def.us": "energy.stress_tensor_def",
    "energy.stress_tensor_explicit.us": "energy.stress_tensor_explicit",
    "energy.divergence.us": "energy.QuadraticTensorField.divergence",
}

# per-layer counters, reported per traced check, with their units
PER_CHECK_COUNTS = {
    "algebra.mv_new": "count/check", "fields.point_evals": "count/check",
    "fields.batched_rows": "count/check", "fields.mode_evals": "count/check",
    "integrate.nodes": "count/check", "integrate.boxes": "count/check",
    "energy.synth_modes": "count/check", "serialize.bytes_in": "B/check",
    "serialize.bytes_out": "B/check",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("identities", "pointwise", "integral"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def commit() -> str:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text(encoding="utf-8").strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def environment() -> dict:
    import numpy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "commit": commit(), "nproc": len(os.sched_getaffinity(0))}


def fresh_import_seconds() -> float:
    """Wall time of a new interpreter that imports extcalc and exits."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import extcalc"], cwd=ROOT, env=env, check=True,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def set_up(workload: str, seed: int, run_dir: Path):
    """Time set-up several times, at the reference host speed, and keep the
    inputs of the last generation.  Returns the set-up seconds, the raw
    wall-clock seconds, and the generated checks with their block length."""
    import harness
    import workloads

    def timed(step):
        before = [harness.time_calibration() for _ in range(CALIBRATIONS_PER_STEP)]
        start = time.perf_counter()
        result = step()
        seconds = time.perf_counter() - start
        return seconds, seconds * harness.CALIBRATION_REF_S / statistics.median(before), result

    def generate():
        shutil.rmtree(run_dir, ignore_errors=True)
        run_dir.mkdir(parents=True)
        return workloads.generate(workload, seed, run_dir, SCENARIOS)

    imports = [timed(fresh_import_seconds) for _ in range(IMPORT_REPEATS)]
    generations = [timed(generate) for _ in range(GENERATE_REPEATS)]
    raw = statistics.median(t[0] for t in imports) + statistics.median(t[0] for t in generations)
    scaled = statistics.median(t[1] for t in imports) + statistics.median(t[1] for t in generations)
    return scaled, raw, generations[-1][2]


def warm_up(sequence, first_reports):
    """Run the first check of each kind once, untimed.

    Lazy set-up inside the process finishes here, and each of these checks
    runs again in the timed loop, where its report must repeat byte for byte."""
    import harness

    kinds = {}
    for check in sequence:
        kinds.setdefault(check.kind, check)
    return harness.run_loop(list(kinds.values()), 0.0, first_reports, limit=len(kinds))


def percentile_90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def untraced(args, sequence, block, first_reports):
    """End-to-end metrics at the reference host speed, and the raw wall-clock ones."""
    import harness

    loop = harness.run_loop(sequence, args.seconds, first_reports, min_checks=MIN_CHECKS,
                            block=block)
    metrics, raw = {}, {}
    for out, durations in ((metrics, loop.calibrated()), (raw, loop.durations)):
        out["check_s.p50"] = (statistics.median(durations), "s")
        out["check_s.p90"] = (percentile_90(durations), "s")
        out["checks_per_s"] = (loop.attempted / sum(durations), "1/s")
    return loop, metrics, raw


def traced(args, sequence, block, first_reports):
    import harness
    from tracer import Tracer

    tracer = Tracer(per_check=("algebra.verify_identities",))

    def on_check(i, check):
        tracer.check = i

    tracer.install()
    try:
        loop = harness.run_loop(sequence, args.seconds, first_reports, block=block,
                                on_check=on_check)
    finally:
        tracer.uninstall()
    n = loop.attempted
    bytes_in = sum(sequence[i % len(sequence)].config_bytes for i in range(n))
    tracer.counts["serialize.bytes_in"] += bytes_in
    plain = harness.run_loop(sequence, 0.0, first_reports, limit=n)

    # times at the reference host speed, like the end-to-end ones
    speed = harness.CALIBRATION_REF_S / statistics.median(loop.calibrations)
    metrics = {}
    layers = tracer.layer_totals()
    for layer, totals in layers.items():
        metrics[f"{layer}.self_s"] = (totals["self_s"] * speed / n, "s/check")
    metrics["algebra.calls"] = (layers["algebra"]["calls"] / n, "count/check")
    metrics["maxwell.calls"] = (layers["maxwell"]["calls"] / n, "count/check")
    for name, unit in PER_CHECK_COUNTS.items():
        metrics[name] = (tracer.counts[name] / n, unit)
    rows, points = tracer.counts["fields.batched_rows"], tracer.counts["fields.point_evals"]
    metrics["fields.batched_share"] = (rows / (rows + points) if rows + points else 0.0, "ratio")
    for metric, span in SPAN_TIMINGS.items():
        metrics[metric] = (tracer.mean_us(span) * speed, "us")
    checks_33 = {i for i in range(n) if sequence[i % len(sequence)].id == "id-3-3"}
    metrics["algebra.verify_identities.s"] = (
        tracer.mean_us("algebra.verify_identities", checks_33) * speed / 1e6, "s")
    metrics["trace_overhead_frac"] = (loop.wall / plain.wall - 1.0, "ratio")

    WORK_DIR.mkdir(exist_ok=True)
    trace_path = WORK_DIR / f"trace-{args.workload}-{args.seed}.tsv.gz"
    with gzip.open(trace_path, "wt", encoding="utf-8") as handle:
        tracer.dump(handle, [sequence[i % len(sequence)].id for i in range(n)])
    detail = {"checks_traced": n, "traced_wall_s": loop.wall, "untraced_wall_s": plain.wall,
              "calibration_median_s": statistics.median(loop.calibrations),
              "layer_calls": {layer: totals["calls"] for layer, totals in layers.items()},
              "spans_kept": len(tracer.span_name), "spans_dropped": tracer.dropped,
              "trace_file": str(trace_path.relative_to(ROOT))}
    failures = loop.failures + plain.failures
    return loop.attempted + plain.attempted, failures, metrics, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "extcalc" / "__init__.py").is_file():
        print(f"error: no extcalc sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import extcalc

    if Path(extcalc.__file__).resolve().parent != (SRC / "extcalc").resolve():
        print(f"error: imported extcalc from {extcalc.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import harness

    run_dir = WORK_DIR / f"inputs-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup_s, setup_raw, (sequence, block) = set_up(args.workload, args.seed, run_dir)
        first_reports: dict[str, str] = {}
        warm = warm_up(sequence, first_reports)
        if args.trace:
            attempted, failures, metrics, detail = traced(args, sequence, block, first_reports)
        else:
            loop, metrics, raw = untraced(args, sequence, block, first_reports)
            attempted, failures = loop.attempted, loop.failures
            detail = {"checks_timed": loop.attempted, "timed_wall_s": round(loop.wall, 3),
                      "calibration_median_s": statistics.median(loop.calibrations),
                      "calibration_ref_s": harness.CALIBRATION_REF_S,
                      "wall_clock": {name: round(value, 6) for name, (value, _) in raw.items()}
                      | {"setup_s": round(setup_raw, 6)}}
            metrics["setup_s"] = (setup_s, "s")
            metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted += warm.attempted
    failures = warm.failures + failures
    env = environment()
    print(f"extcalc benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    print("run: " + ", ".join(f"{k}={v}" for k, v in detail.items()))
    for name, (value, unit) in metrics.items():
        line = f"  {name:34s} {value:.6g} {unit}"
        if name.startswith("check_s."):
            line += f"   (over {detail['checks_timed']} timed checks)"
        if name in BASELINE:
            figure, what = BASELINE[name]
            line += f"   (ROADMAP Baseline {figure:g}: {what}; traced)"
        print(line)
    print(f"  {'failed_frac':34s} {len(failures) / attempted:.6g} ratio "
          f"({len(failures)} of {attempted} checks)")
    for check_id, reason in failures[:20]:
        print(f"FAILED {check_id}: {reason}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result, sort_keys=True))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
