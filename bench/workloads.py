"""Workload inputs and output checks for the `selqa evaluate` benchmark.

Every workload is generated from the benchmark's seed with `selqa.synth`;
the program under test only ever sees the written files. Each workload
carries the ground truth the generator built in (latent confidence u,
abstention, correctness), so a report can be checked against numbers
computed here without any selqa scoring or metrics code. See RATIONALE.md
for why each workload exists and which layer it is meant to stress.

Import this module only after `src/` is on `sys.path`.
"""

from __future__ import annotations

import json
import math
import random
import re
import shlex
import string
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from selqa import io as selqa_io
from selqa import synth
from selqa.records import GoldAnnotation, GoldRecord, PredictionRecord, SampledAnswer
from selqa.scoring import diversity_score, repetition_score

BENCH_DIR = Path(__file__).resolve().parent
SCORER = BENCH_DIR / "jaccard_scorer.py"

ABSTAIN_TEXT = "unanswerable"
ACC_TARGETS = (60.0, 70.0, 80.0)
N_BINS = 10


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: input size, shape and the evaluate flags."""

    name: str
    n: int
    flags: tuple[str, ...] = ()
    high_vocab: bool = False
    adapter: bool = False

    def evaluate_argv(self, predictions: Path, gold: Path, curves: Path) -> list[str]:
        """`selqa evaluate` arguments; everything else stays at CLI defaults."""
        argv = ["evaluate", "--predictions", str(predictions), "--gold", str(gold),
                *self.flags, "--curves-out", str(curves)]
        if self.adapter:
            argv += ["--adapter-cmd", shlex.join([sys.executable, str(SCORER)])]
        return argv


# Sizes keep one evaluate run at roughly 2-4 s on a 2-core VM, so one
# measured run of the benchmark holds several samples per workload.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("synth-default", 2500),
        Workload("high-vocab", 1500, high_vocab=True),
        Workload("load-heavy", 10000, ("--methods", "likelihood", "--format", "json")),
        Workload(
            "adapter-jaccard",
            500,
            ("--adapter-name", "jaccard", "--classifier", "adapter-threshold"),
            adapter=True,
        ),
    )
}


@dataclass(frozen=True)
class Truth:
    """Per-record ground truth as the generator constructed it."""

    question_ids: list[str]
    u: list[float]
    abstain: list[bool]
    correct: list[bool]


@dataclass(frozen=True)
class Prepared:
    """A workload's inputs on disk plus what its report must say."""

    workload: Workload
    predictions: Path
    gold: Path
    truth: Truth

    @property
    def n_records(self) -> int:
        return len(self.truth.question_ids)


def prepare(workload: Workload, seed: int, out_dir: Path) -> Prepared:
    """Generate a workload's dump and gold file into out_dir.

    Every workload uses the README quickstart knobs, K=10 samples per question.
    """
    config = synth.SynthConfig(
        n=workload.n, seed=seed, abstain_rate=0.2, paraphrase_cluster_rate=0.5
    )
    predictions, golds = synth.generate(config)
    truth = ground_truth(predictions, golds)
    if workload.high_vocab:
        mapped, mapped_golds = remap_vocabulary(predictions, golds, seed)
        check_remap_preserves_agreement(predictions, mapped)
        predictions, golds = mapped, mapped_golds
    out_dir.mkdir(parents=True, exist_ok=True)
    pred_path = out_dir / "predictions.jsonl"
    gold_path = out_dir / "gold.json"
    selqa_io.dump_predictions(predictions, str(pred_path))
    selqa_io.dump_gold(golds, str(gold_path))
    return Prepared(workload, pred_path, gold_path, truth)


def ground_truth(predictions: list[PredictionRecord], golds: list[GoldRecord]) -> Truth:
    """Read back what synth built in.

    synth writes the greedy logprobs as (log u, 0.0), the greedy text as the
    abstention marker when the record abstains, and the true answer as the
    first gold annotation; the greedy answer is correct iff it is that text.
    """
    ids, us, abstain, correct = [], [], [], []
    for p, g in zip(predictions, golds, strict=True):
        ids.append(p.question_id)
        us.append(math.exp(p.greedy.logprobs[0]))
        abstain.append(p.greedy.text == ABSTAIN_TEXT)
        correct.append(p.greedy.text == g.annotations[0].answer)
    return Truth(ids, us, abstain, correct)


# ---------------------------------------------------------------------------
# high-vocab: the same records, answers remapped per record


def remap_vocabulary(
    predictions: list[PredictionRecord], golds: list[GoldRecord], seed: int
) -> tuple[list[PredictionRecord], list[GoldRecord]]:
    """Rename every answer word per record onto fresh seed-derived pseudo-words.

    Within a record the word mapping is one-to-one, so every word-level
    equality, and with it every word-BLEU score, exact match and agreement
    count, is unchanged. Across records the words differ, so similarity
    pairs almost never repeat and string caches cannot hide per-pair cost.
    The abstention marker is kept so triggering is unchanged.
    """
    rng = random.Random(f"high-vocab/{seed}")
    out_preds, out_golds = [], []
    for p, g in zip(predictions, golds, strict=True):
        texts = [p.greedy.text, *(s.text for s in p.samples), *(a.answer for a in g.annotations)]
        words = dict.fromkeys(w for t in texts for w in t.split() if w != ABSTAIN_TEXT)
        mapping = dict(zip(words, _pseudo_words(rng, len(words))))

        def rename(text: str) -> str:
            return " ".join(mapping.get(w, w) for w in text.split())

        out_preds.append(PredictionRecord(
            question_id=p.question_id,
            greedy=SampledAnswer(rename(p.greedy.text), p.greedy.logprobs),
            samples=tuple(SampledAnswer(rename(s.text), s.logprobs) for s in p.samples),
            meta=p.meta,
        ))
        out_golds.append(GoldRecord(
            question_id=g.question_id,
            annotations=tuple(
                GoldAnnotation(rename(a.answer), a.answerable, a.answer_confidence)
                for a in g.annotations
            ),
        ))
    return out_preds, out_golds


def _pseudo_words(rng: random.Random, k: int) -> list[str]:
    """k distinct lowercase words that normalization leaves untouched."""
    chosen: dict[str, None] = {}
    while len(chosen) < k:
        word = "".join(rng.choices(string.ascii_lowercase, k=rng.randint(3, 9)))
        if word != "the":  # articles are dropped by normalization
            chosen[word] = None
    return list(chosen)


def check_remap_preserves_agreement(
    original: list[PredictionRecord], mapped: list[PredictionRecord]
) -> None:
    """Every record keeps its repetition and diversity scores exactly."""
    for a, b in zip(original, mapped, strict=True):
        for score in (repetition_score, diversity_score):
            if score(a.samples) != score(b.samples):
                raise RuntimeError(
                    f"high-vocab remap changed {score.__name__} of {a.question_id}"
                )


# ---------------------------------------------------------------------------
# expected report values from the ground truth


def expected_header(truth: Truth) -> dict:
    """n_total, n_triggered, and the accuracy at trigger an em classifier gives."""
    triggered = [c for c, a in zip(truth.correct, truth.abstain) if not a]
    return {
        "n_total": len(truth.abstain),
        "n_triggered": len(triggered),
        "accuracy": 100.0 * sum(triggered) / len(triggered) if triggered else None,
    }


def expected_likelihood_row(truth: Truth) -> dict:
    """AUC, ECE and C@targets of the likelihood score, computed from u.

    Ordering is by descending u with ties broken by ascending question id,
    the report's documented rule; ECE uses equal-count bins with the extra
    points in the most confident bins.
    """
    keep = [i for i, a in enumerate(truth.abstain) if not a]
    u = np.array([truth.u[i] for i in keep], dtype=np.float64)
    correct = np.array([truth.correct[i] for i in keep], dtype=bool)
    ids = np.array([truth.question_ids[i] for i in keep])
    n = len(keep)

    values, inverse = np.unique(u, return_inverse=True)
    pos = np.bincount(inverse, weights=correct, minlength=len(values)).astype(np.int64)
    neg = np.bincount(inverse, minlength=len(values)).astype(np.int64) - pos
    n_pos, n_neg = int(pos.sum()), int(neg.sum())
    if n_pos and n_neg:
        neg_below = np.cumsum(neg) - neg
        twice = int(np.sum(2 * pos * neg_below + pos * neg))
        auc = (twice / 2) / (n_pos * n_neg)
    else:
        auc = None

    order = np.lexsort((ids, -u))
    ranked_u = u[order].tolist()
    ranked_c = correct[order]
    base, extra = divmod(n, N_BINS)
    gaps, start = [], 0
    for b in range(N_BINS):
        size = base + (1 if b < extra else 0)
        if size:
            chunk_c = ranked_c[start:start + size]
            gaps.append(abs(math.fsum(ranked_u[start:start + size]) / size
                            - int(chunk_c.sum()) / size))
            start += size
    ece = math.fsum(gaps) / len(gaps)

    prefix_acc = np.cumsum(ranked_c) / np.arange(1, n + 1)
    coverage = {}
    for t in ACC_TARGETS:
        hits = np.nonzero(prefix_acc >= t / 100.0)[0]
        coverage[t] = 100.0 * (int(hits[-1]) + 1 if len(hits) else 0) / n
    return {"auc": auc, "ece": ece, "coverage_at": coverage}


# ---------------------------------------------------------------------------
# reading the CLI's report back

_MD_HEAD = re.compile(r"acc (\S+) @ trig (\S+)% \((\d+)/(\d+) answered\)")


def parse_report(report: bytes, fmt: str) -> tuple[dict, dict[str, dict]]:
    """(header, rows by method) from a markdown or json report."""
    if fmt == "json":
        payload = json.loads(report)
        header = {
            "n_total": payload["n_total"],
            "n_triggered": payload["n_triggered"],
            "accuracy": payload["accuracy_at_trigger"]["accuracy"],
        }
        rows = {
            name: {
                "auc": row["auc"],
                "ece": row["ece"],
                "coverage_at": {float(k): v for k, v in row["coverage_at"].items()},
            }
            for name, row in payload["methods"].items()
        }
        return header, rows
    lines = report.decode("utf-8").splitlines()
    match = _MD_HEAD.fullmatch(lines[0])
    if match is None:
        raise ValueError(f"unexpected report header {lines[0]!r}")
    acc = match.group(1)
    header = {
        "n_total": int(match.group(4)),
        "n_triggered": int(match.group(3)),
        "accuracy": None if acc == "—" else float(acc.rstrip("%")),
    }
    rows = {}
    for line in lines[4:]:
        cells = [c.strip() for c in line.strip("|").split("|")]
        values = [None if c == "—" else float(c) for c in cells[1:]]
        rows[cells[0]] = {
            "auc": values[0],
            "ece": values[1],
            "coverage_at": dict(zip(ACC_TARGETS, values[2:])),
        }
    return header, rows


def _close(got: float | None, want: float | None, tol: float) -> bool:
    if got is None or want is None:
        return got is None and want is None
    return abs(got - want) <= tol


def check_outputs(prepared: Prepared, fmt: str, outputs: dict[str, bytes]) -> list[str]:
    """Compare one evaluate run's report and curves with the ground truth.

    outputs maps "report" to the report bytes and each curve file name to its
    bytes. Every workload checks the header counts and the curve lengths; the
    exact-match workloads also check accuracy and the likelihood row.
    Markdown rounds to 4 decimals, so it is compared to within that rounding.
    """
    errors = []
    try:
        header, rows = parse_report(outputs["report"], fmt)
    except (ValueError, KeyError, IndexError) as exc:
        return [f"unreadable report: {exc}"]
    want = expected_header(prepared.truth)
    for key in ("n_total", "n_triggered"):
        if header[key] != want[key]:
            errors.append(f"{key} {header[key]} != expected {want[key]}")
    curves = {k: v for k, v in outputs.items() if k != "report"}
    if len(curves) != len(rows):
        errors.append(f"{len(curves)} curve files for {len(rows)} methods")
    for name, data in curves.items():
        if data.count(b"\n") != want["n_triggered"] + 1:
            errors.append(f"curve {name} does not have one row per triggered record")
    if prepared.workload.adapter:
        return errors
    tol = 0.5e-4 + 1e-9 if fmt == "markdown" else 1e-12
    if not _close(header["accuracy"], want["accuracy"], tol):
        errors.append(f"accuracy {header['accuracy']} != expected {want['accuracy']}")
    row = rows.get("likelihood")
    if row is None:
        return errors + ["report has no likelihood row"]
    expected = expected_likelihood_row(prepared.truth)
    for key in ("auc", "ece"):
        if not _close(row[key], expected[key], tol):
            errors.append(f"likelihood {key} {row[key]} != expected {expected[key]}")
    for t in ACC_TARGETS:
        if not _close(row["coverage_at"].get(t), expected["coverage_at"][t], tol):
            errors.append(
                f"likelihood C@{t:g} {row['coverage_at'].get(t)} != "
                f"expected {expected['coverage_at'][t]}"
            )
    return errors
