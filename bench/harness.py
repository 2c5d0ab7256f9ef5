"""Measuring loop of the `selqa evaluate` benchmark.

Every `evaluate` run is a fresh child process started through launch.py
with the workload's flags and CLI defaults for everything else; in
particular no --jobs is passed, so the default is measured as users get it.
Each run is preceded by a fixed pure-Python calibration loop and brackets
the host's steal time from /proc/stat, so drift of the host between sets can
be told apart from a change of the program. Runs that exit non-zero, time
out or fail an output check count as failed.

Import this module only after `src/` is on `sys.path`.
"""

from __future__ import annotations

import compileall
import contextlib
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads
from workloads import Prepared

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 120
MIN_RUNS = 3

#: End-to-end metric -> unit; a user of `selqa evaluate` sees each of these.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "records_per_s": "records/s",
    "peak_rss_mb": "MiB",
}

#: Per-layer metrics printed in the result of a traced run. Each is measured
#: on every workload; a time that only some workloads produce (per-method
#: scoring, similarity busy time, adapter timings) is printed in the traced
#: run's table but kept out of the result line, so no declared time reads 0.
PER_LAYER = (
    "cli.import_s", "cli.parse_s",
    "io.load_predictions_s", "io.load_gold_s", "io.join_s", "io.emit_s",
    "io.input_mb", "io.records",
    "textnorm.normalize_s", "textnorm.texts", "textnorm.distinct",
    "scoring.busy_s", "scoring.likelihood_s", "scoring.record_p50_us",
    "scoring.record_p99_us",
    "similarity.calls", "similarity.distinct_pairs", "similarity.diag_calls",
    "correctness.verdict_s", "correctness.sim_calls",
    "metrics.build_report_s", "metrics.curve_s", "metrics.points",
    "adapter.round_trips", "adapter.distinct_pairs", "adapter.diag_pairs",
    "host.calib_s", "host.steal_pct", "trace.overhead_s",
)


def layer_unit(name: str) -> str:
    for suffix, unit in (("_us", "us"), ("_s", "s"), ("_mb", "MiB"), ("_pct", "%")):
        if name.endswith(suffix):
            return unit
    return "count"


# ---------------------------------------------------------------------------
# host diagnostics


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop; tracks the host's current speed."""
    start = time.perf_counter()
    total = 0
    for i in range(300_000):
        total += i * i % 7
    return time.perf_counter() - start


def steal_ticks() -> int:
    """Cumulative steal time of all CPUs in clock ticks, 0 where unavailable."""
    try:
        with open("/proc/stat", encoding="ascii") as f:
            fields = f.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return 0


def steal_pct(ticks: int, seconds: float) -> float:
    """Share of all CPUs' time stolen by the hypervisor, in percent."""
    if seconds <= 0:
        return 0.0
    return 100.0 * ticks / os.sysconf("SC_CLK_TCK") / (seconds * (os.cpu_count() or 1))


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# ---------------------------------------------------------------------------
# one child process


@dataclass
class Run:
    """One evaluate run or pipeline pass and what was checked about it."""

    wall_s: float
    calib_s: float
    steal: int
    errors: list[str] = field(default_factory=list)
    digest: dict[str, str] | None = None  # set once the child exited 0
    setup_s: float = 0.0
    rss_mb: float = 0.0
    result: dict = field(default_factory=dict)


def child_env() -> dict[str, str]:
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))


def _spawn(argv: list[str]) -> tuple[int | None, bytes, bytes, float, float, float, int]:
    """Run argv in its own process group: (exit, out, err, start, wall, calib, steal).

    On timeout the whole group, adapter subprocesses included, is killed and
    reaped, and the exit status is None.
    """
    calib = calibrate()
    steal0 = steal_ticks()
    start = monotonic()
    proc = subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=child_env(), cwd=ROOT, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=RUN_TIMEOUT_S)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        code = None
    wall = monotonic() - start
    return code, out, err, start, wall, calib, steal_ticks() - steal0


def _failure(code: int | None, err: bytes) -> str:
    if code is None:
        return f"timed out after {RUN_TIMEOUT_S} s"
    tail = err.decode("utf-8", "replace").strip().splitlines()[-3:]
    return f"exit status {code}: {' | '.join(tail)}"


def run_cli(prep: Prepared, work: Path) -> Run:
    """One `selqa evaluate` run, its timings, and its output checks."""
    curves = work / "curves"
    probe = work / "probe.json"
    shutil.rmtree(curves, ignore_errors=True)
    probe.unlink(missing_ok=True)
    argv = [sys.executable, str(BENCH_DIR / "launch.py"), str(probe),
            *prep.workload.evaluate_argv(prep.predictions, prep.gold, curves)]
    code, out, err, start, wall, calib, steal = _spawn(argv)
    run = Run(wall_s=wall, calib_s=calib, steal=steal)
    if code != 0:
        run.errors.append(_failure(code, err))
        return run
    info = json.loads(probe.read_text())
    run.setup_s = info["ready"] - start
    run.rss_mb = info["peak_rss_kb"] / 1024
    outputs = {"report": out, **{p.name: p.read_bytes() for p in sorted(curves.iterdir())}}
    run.digest = {name: hashlib.sha256(data).hexdigest() for name, data in outputs.items()}
    run.errors += workloads.check_outputs(prep, report_format(prep), outputs)
    return run


def report_format(prep: Prepared) -> str:
    flags = prep.workload.flags
    return flags[flags.index("--format") + 1] if "--format" in flags else "markdown"


def run_pass(prep: Prepared, work: Path, mode: str, expected: dict[str, str] | None) -> Run:
    """One in-process pipeline pass (trace_pass.py) in a fresh process.

    The pass hashes its curves instead of writing them, so the --curves-out
    directory it is given stays unused.
    """
    argv = [sys.executable, str(BENCH_DIR / "trace_pass.py"), mode, str(work),
            *prep.workload.evaluate_argv(prep.predictions, prep.gold, work / "unused")]
    code, out, err, _, wall, calib, steal = _spawn(argv)
    run = Run(wall_s=wall, calib_s=calib, steal=steal)
    if code != 0:
        run.errors.append(_failure(code, err))
        return run
    run.result = json.loads(out.decode("utf-8").strip().splitlines()[-1])
    run.digest = run.result["outputs"]
    if run.digest != expected:
        run.errors.append(f"{mode} pass outputs differ from the CLI's")
    return run


def mark_mismatches(runs: list[Run]) -> None:
    """Every run of a set must write the same report and curve bytes."""
    reference = next((r.digest for r in runs if r.digest is not None), None)
    for i, r in enumerate(runs, start=1):
        if r.digest is not None and r.digest != reference:
            r.errors.append(f"run {i}: outputs differ from the set's first run")


# ---------------------------------------------------------------------------
# measuring and reporting


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    if workload == "all":
        names = list(workloads.WORKLOADS)
    elif workload in workloads.WORKLOADS:
        names = [workload]
    else:
        print(f"unknown workload {workload!r}; expected one of "
              f"{', '.join(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2
    # An installed package is byte-compiled, so compile the checkout's sources
    # once here; otherwise, with PYTHONDONTWRITEBYTECODE set, every run would
    # compile them again inside setup_s.
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    base = ROOT / ".bench_work" / str(os.getpid())
    try:
        preps = {}
        for name in names:
            (base / name).mkdir(parents=True)
            preps[name] = workloads.prepare(workloads.WORKLOADS[name], seed, base / name)
        print(f"seed {seed}  cpu_count {os.cpu_count()}  python {sys.version.split()[0]}")
        if trace:
            results = {n: measure_layers(preps[n], base / n, seconds) for n in names}
        else:
            results = measure_end_to_end(preps, base, seconds)
    finally:
        shutil.rmtree(base, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a concurrent run
            base.parent.rmdir()
    if any(metrics is None for metrics, _ in results.values()):
        print("no run of some workload completed; no result", file=sys.stderr)
        return 1
    all_runs = [r for _, runs in results.values() for r in runs]
    failed = sum(1 for r in all_runs if r.errors)
    metrics = {}
    for name, (values, _) in results.items():
        prefix = "" if len(names) == 1 else f"{name}."
        for metric, (value, unit) in values.items():
            metrics[prefix + metric] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(all_runs),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _print_table(title: str, rows: dict[str, tuple[list[float], str]]) -> None:
    print(f"{title}\n  {'metric':<26}{'median':>14}{'p25':>14}{'p75':>14}{'n':>4}  unit")
    for name, (values, unit) in rows.items():
        p25, _, p75 = _quartiles(values)
        print(f"  {name:<26}{statistics.median(values):>14.6g}{p25:>14.6g}{p75:>14.6g}"
              f"{len(values):>4}  {unit}")


def _print_failures(name: str, runs: list[Run]) -> None:
    for i, r in enumerate(runs, start=1):
        for error in r.errors:
            print(f"  FAILED {name} run {i}: {error}")


def measure_end_to_end(preps: dict[str, Prepared], base: Path, seconds: float):
    """Round-robin evaluate runs over the workloads for `seconds` each."""
    runs: dict[str, list[Run]] = {name: [] for name in preps}
    start = monotonic()
    rounds = 0
    while rounds < MIN_RUNS or monotonic() - start < seconds * len(preps):
        for name, prep in preps.items():
            runs[name].append(run_cli(prep, base / name))
        rounds += 1
    results = {}
    for name, prep in preps.items():
        mark_mismatches(runs[name])
        ok = [r for r in runs[name] if not r.errors]
        failed = len(runs[name]) - len(ok)
        print(f"\n== {name}: {prep.n_records} records, {len(runs[name])} runs, "
              f"error_rate {failed}/{len(runs[name])} (failed/attempted runs)")
        for i, r in enumerate(runs[name], start=1):
            print(f"  run {i:>2}: wall_s {r.wall_s:.4f}  setup_s {r.setup_s:.4f}  "
                  f"rss_mb {r.rss_mb:.1f}  calib_s {r.calib_s:.4f}  "
                  f"steal_pct {steal_pct(r.steal, r.wall_s):.2f}")
        _print_failures(name, runs[name])
        # Runs whose outputs failed a check still timed the program; they
        # stand in only when no run passed, and the result then says so.
        timed = ok or [r for r in runs[name] if r.digest is not None]
        if not timed:
            results[name] = (None, runs[name])
            continue
        samples = {
            "setup_s": [r.setup_s for r in timed],
            "wall_s": [r.wall_s for r in timed],
            "records_per_s": [prep.n_records / (r.wall_s - r.setup_s) for r in timed],
            "peak_rss_mb": [r.rss_mb for r in timed],
        }
        rows = {m: (samples[m], END_TO_END[m]) for m in END_TO_END}
        rows["host.calib_s"] = ([r.calib_s for r in runs[name]], "s")
        rows["host.steal_pct"] = (
            [steal_pct(r.steal, r.wall_s) for r in runs[name]], "%")
        _print_table(f"  end-to-end (median over {len(timed)} "
                     f"{'successful' if ok else 'failed but completed'} runs)", rows)
        values = {m: (statistics.median(samples[m]), END_TO_END[m]) for m in END_TO_END}
        results[name] = (values, runs[name])
    return results


def measure_layers(prep: Prepared, work: Path, seconds: float):
    """A CLI reference run, then plain/traced pipeline pass pairs."""
    name = prep.workload.name
    begin = monotonic()
    reference = run_cli(prep, work)
    runs = [reference]
    plain: list[Run] = []
    traced: list[Run] = []
    start = monotonic()
    while len(traced) < 2 or monotonic() - start < seconds:
        plain.append(run_pass(prep, work, "plain", reference.digest))
        traced.append(run_pass(prep, work, "traced", reference.digest))
    runs += [r for pair in zip(plain, traced) for r in pair]
    elapsed = monotonic() - begin
    print(f"\n== {name} (traced): {prep.n_records} records, {len(traced)} traced and "
          f"{len(plain)} untraced passes, error_rate "
          f"{sum(1 for r in runs if r.errors)}/{len(runs)} (failed/attempted)")
    _print_failures(name, runs)
    ok_traced = [r.result for r in traced if r.result]
    ok_plain = [r.result for r in plain if r.result]
    if not ok_traced or not ok_plain:
        return None, runs
    measured = sorted({k for r in ok_traced for k in r["layers"]} | set(PER_LAYER))
    rows = {}
    for metric in measured:
        rows[metric] = ([r["layers"].get(metric, 0) for r in ok_traced], layer_unit(metric))
    rows["host.calib_s"] = ([r.calib_s for r in runs], "s")
    rows["host.steal_pct"] = ([steal_pct(sum(r.steal for r in runs), elapsed)], "%")
    overhead = (statistics.median(r["total_s"] for r in ok_traced)
                - statistics.median(r["total_s"] for r in ok_plain))
    rows["trace.overhead_s"] = ([overhead], "s")
    rows["pass.plain_s"] = ([r["total_s"] for r in ok_plain], "s")
    rows["pass.traced_s"] = ([r["total_s"] for r in ok_traced], "s")
    _print_table("  per-layer (median over traced passes)", rows)
    values = {}
    for metric in PER_LAYER:
        value = statistics.median(rows[metric][0])
        values[metric] = (int(value) if layer_unit(metric) == "count" else value,
                          layer_unit(metric))
    return values, runs
