"""Self-test of the benchmark harness at tiny input sizes.

Run from the root of a checkout with `python3 -m pytest bench -q`. It
exercises every workload's generator, one CLI run and one traced pass with
their output checks, shows that the checks reject wrong reports, and checks
that BENCHMARK.json declares exactly the metrics the harness prints.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import workloads  # noqa: E402

TINY = {"synth-default": 40, "high-vocab": 40, "load-heavy": 60, "adapter-jaccard": 20}


def tiny(name: str):
    return dataclasses.replace(workloads.WORKLOADS[name], n=TINY[name])


def evaluate_outputs(prep, work: Path) -> dict[str, bytes]:
    """Report and curve bytes of one plain `selqa evaluate` run."""
    curves = work / "cli-curves"
    argv = prep.workload.evaluate_argv(prep.predictions, prep.gold, curves)
    proc = subprocess.run(
        [sys.executable, "-m", "selqa.cli", *argv], capture_output=True, check=True,
        env=harness.child_env(), cwd=ROOT, timeout=120,
    )
    return {"report": proc.stdout, **{p.name: p.read_bytes() for p in sorted(curves.iterdir())}}


def test_benchmark_json_declares_what_the_harness_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == list(harness.PER_LAYER)
    assert all(m["unit"] == harness.layer_unit(m["name"]) for m in spec["per_layer"])
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_runs_and_passes_its_checks(name, tmp_path):
    prep = workloads.prepare(tiny(name), seed=5, out_dir=tmp_path)
    assert prep.n_records == TINY[name]
    cli = harness.run_cli(prep, tmp_path)
    assert cli.errors == []
    assert cli.setup_s > 0 and cli.wall_s > cli.setup_s and cli.rss_mb > 0
    passes = {mode: harness.run_pass(prep, tmp_path, mode, cli.digest)
              for mode in ("plain", "traced")}
    assert [p.errors for p in passes.values()] == [[], []]
    layers = passes["traced"].result["layers"]
    assert layers["io.records"] == TINY[name]
    if prep.workload.adapter:
        assert layers["adapter.round_trips"] == layers["similarity.calls"] > 0
        assert layers["adapter.distinct_pairs"] == layers["similarity.distinct_pairs"]
        assert layers["adapter.diag_pairs"] == layers["similarity.diag_calls"]


def _tamper(name: str, outputs: dict[str, bytes]) -> list[dict[str, bytes]]:
    """Wrong variants of a correct set of outputs, each with one defect."""
    report = outputs["report"]
    curve = next(k for k in outputs if k != "report")
    variants = [{**outputs, curve: outputs[curve].rsplit(b"\n", 2)[0] + b"\n"}]
    if name == "load-heavy":
        payload = json.loads(report)
        payload["n_triggered"] += 1
        variants.append({**outputs, "report": json.dumps(payload).encode()})
        payload = json.loads(report)
        payload["methods"]["likelihood"]["ece"] += 1e-6
        variants.append({**outputs, "report": json.dumps(payload).encode()})
        return variants
    lines = report.decode().splitlines(keepends=True)
    total = lines[0].split("/")[1].split(" ")[0]
    lines_total = [lines[0].replace(f"/{total} ", f"/{int(total) + 1} "), *lines[1:]]
    variants.append({**outputs, "report": "".join(lines_total).encode()})
    if name != "adapter-jaccard":
        i = next(i for i, line in enumerate(lines) if line.startswith("| likelihood |"))
        cells = lines[i].split(" | ")
        cells[1] = f"{float(cells[1]) + 0.001:.4f}"
        variants.append({**outputs, "report": "".join(lines[:i] + [" | ".join(cells)]
                                                     + lines[i + 1:]).encode()})
    return variants


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_output_checks_reject_wrong_reports(name, tmp_path):
    prep = workloads.prepare(tiny(name), seed=6, out_dir=tmp_path)
    fmt = harness.report_format(prep)
    outputs = evaluate_outputs(prep, tmp_path)
    assert workloads.check_outputs(prep, fmt, outputs) == []
    for wrong in _tamper(name, outputs):
        assert workloads.check_outputs(prep, fmt, wrong) != []


def test_high_vocab_changes_strings_but_no_score(tmp_path):
    plain = dataclasses.replace(tiny("synth-default"), n=60)
    mapped = dataclasses.replace(plain, high_vocab=True)
    a = workloads.prepare(plain, seed=7, out_dir=tmp_path / "a")
    b = workloads.prepare(mapped, seed=7, out_dir=tmp_path / "b")
    assert a.predictions.read_bytes() != b.predictions.read_bytes()
    assert harness.run_cli(a, tmp_path / "a").digest == harness.run_cli(b, tmp_path / "b").digest


def test_jaccard_scorer_matches_the_test_suite_scorer(tmp_path):
    requests = [("red apple", "red apple"), ("red apple here", "red apple"),
                ("blue mug", "red apple"), ("a b c", "c d"), ("red apple", "red apple")]
    stdin = "".join(json.dumps({"a": a, "b": b}) + "\n" for a, b in requests)
    ours = subprocess.run(
        [sys.executable, str(workloads.SCORER), str(tmp_path / "counts")],
        input=stdin, capture_output=True, text=True, check=True, timeout=60,
    )
    theirs = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "adapters" / "line_scorer.py"), "jaccard"],
        input=stdin, capture_output=True, text=True, check=True, timeout=60,
    )
    assert ours.stdout == theirs.stdout
    (sidecar,) = tmp_path.glob("counts.*.json")
    counts = json.loads(sidecar.read_text())
    assert (counts["requests"], counts["distinct_pairs"], counts["diag_pairs"]) == (5, 4, 2)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "synth-default", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == b""
