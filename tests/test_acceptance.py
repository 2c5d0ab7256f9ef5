"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
"""

import contextlib
import json
import random
import time

import pytest
from scipy import integrate

from selqa import (
    BleuSimilarity,
    EvalPoint,
    SampledAnswer,
    answer_similarity,
    bleu,
    build_report,
    score_all,
)
from selqa.cli import main
from selqa.io import join, load_gold, load_predictions
from selqa.metrics import coverage_at_accuracy, ece, risk_coverage_curve, roc_auc
from selqa.scoring import avg_bleu_score, likelihood_score

from conftest import DATA_DIR
from oracles import pairwise_auc, prefix_coverage, prefix_curve, random_points


@contextlib.contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} ({name}): FAIL")
        raise
    print(f"[acceptance] criterion {number} ({name}): PASS")


def test_criterion_1_roc_auc_oracle_equivalence():
    with criterion(1, "ROC-AUC equals the pairwise oracle bitwise"):
        rng = random.Random(1001)
        start = time.perf_counter()
        for _ in range(50):
            points = random_points(rng, max_n=200)
            assert roc_auc(points) == pairwise_auc(points)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_2_coverage_and_curve_oracle_equivalence():
    with criterion(2, "coverage@acc and risk-coverage equal the prefix oracle"):
        rng = random.Random(2002)
        start = time.perf_counter()
        for _ in range(50):
            points = random_points(rng, max_n=200)
            for target in (50.0, 60.0, 70.0, 80.0, 90.0):
                assert coverage_at_accuracy(points, target) == prefix_coverage(points, target)
            got = [(p.coverage, p.accuracy) for p in risk_coverage_curve(points)]
            assert got == prefix_curve(points)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_3_ece_hand_cases():
    with criterion(3, "ECE hand cases and single-bin identity"):
        hand = [
            EvalPoint(0.9, True, "a"),
            EvalPoint(0.8, True, "b"),
            EvalPoint(0.6, False, "c"),
            EvalPoint(0.4, False, "d"),
        ]
        assert abs(ece(hand, n_bins=2) - 0.325) < 1e-12
        confident = [EvalPoint(1.0, True, f"p{i}") for i in range(8)]
        assert ece(confident, n_bins=10) == 0.0
        rng = random.Random(3003)
        for _ in range(20):
            points = random_points(rng, max_n=200)
            mean_score = sum(p.score for p in points) / len(points)
            accuracy = sum(p.correct for p in points) / len(points)
            assert abs(ece(points, 1) - abs(mean_score - accuracy)) < 1e-12


def test_criterion_4_bleu_fixtures():
    with criterion(4, "BLEU hand fixtures and structural properties"):
        assert abs(bleu(["red", "apple"], ["red", "apple", "on", "table"]) - 0.3679) < 1e-4
        assert abs(bleu(["red", "apple"], ["apple"]) - 0.5) < 1e-4
        answers = ["red apple", "apple"]
        matrix = [[answer_similarity(a, b, BleuSimilarity()) for b in answers] for a in answers]
        expected = [[1.0, 0.5], [0.3679, 1.0]]
        for got_row, want_row in zip(matrix, expected):
            for got, want in zip(got_row, want_row):
                assert abs(got - want) < 1e-4
        vocab = "red apple on table cat dog blue car big small".split()
        rng = random.Random(4004)
        for _ in range(1000):
            seq = [rng.choice(vocab) for _ in range(rng.randint(1, 7))]
            assert bleu(seq, seq) == 1.0
            assert bleu([], seq) == 0.0


def test_criterion_5_avg_bleu_reduces_to_likelihood():
    with criterion(5, "avg similarity of unanimous samples reduces to likelihood"):
        vocab = ["red apple", "system restore", "blue car", "cat", "unanswerable"]
        rng = random.Random(5005)
        for _ in range(100):
            text = rng.choice(vocab)
            logprobs = tuple(-rng.uniform(0.0, 1.5) for _ in range(rng.randint(1, 4)))
            samples = [SampledAnswer(text, logprobs)] * rng.randint(1, 10)
            assert abs(avg_bleu_score(samples) - likelihood_score(samples[0])) < 1e-9


def test_criterion_6_statistical_calibration(tmp_path):
    with criterion(6, "synthetic dump is calibrated: ECE and AUC near analytic values"):
        start = time.perf_counter()
        dump = tmp_path / "dump"
        assert main(["synth", "--out", str(dump), "--n", "10000", "--seed", "7",
                     "--miscalibration", "0"]) == 0
        report_path = tmp_path / "report.json"
        assert main(["evaluate",
                     "--predictions", str(dump / "predictions.jsonl"),
                     "--gold", str(dump / "gold.json"),
                     "--methods", "likelihood",
                     "--format", "json", "--out", str(report_path)]) == 0
        row = json.loads(report_path.read_text())["methods"]["likelihood"]
        assert row["ece"] <= 0.02, f"ece {row['ece']}"
        # Oracle: correctness is Bernoulli(u) with u uniform, so the chance a
        # random correct point outscores a random incorrect one is
        # integral of 2(1-v) * P(U > v | correct) dv with P(U > v) = 1 - v^2.
        analytic, _ = integrate.quad(lambda v: 2.0 * (1.0 - v) * (1.0 - v * v), 0.0, 1.0)
        assert abs(row["auc"] - analytic) <= 0.02, f"auc {row['auc']} vs {analytic}"
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_criterion_7_paraphrase_clusters_favor_avg_bleu(tmp_path):
    with criterion(7, "paraphrase clusters: avg similarity outranks diversity"):
        dump = tmp_path / "dump"
        assert main(["synth", "--out", str(dump), "--n", "2000", "--seed", "11",
                     "--cluster-rate", "1.0"]) == 0
        pairs, _ = join(
            load_predictions(str(dump / "predictions.jsonl")),
            load_gold(str(dump / "gold.json")),
        )
        scored = [score_all(p, g, methods=("avg-bleu", "diversity")) for p, g in pairs]
        report = build_report(scored, methods=["avg-bleu", "diversity"])
        avg_auc = report.methods["avg-bleu"].auc
        div_auc = report.methods["diversity"].auc
        assert avg_auc is not None and div_auc is not None
        assert avg_auc > div_auc, f"avg-bleu {avg_auc} vs diversity {div_auc}"


def test_criterion_8_determinism_across_runs(tmp_path):
    with criterion(8, "evaluate output is byte-identical across runs"):
        outputs = []
        for attempt in ("a", "b"):
            report = tmp_path / f"report-{attempt}.md"
            curves = tmp_path / f"curves-{attempt}"
            assert main(["evaluate",
                         "--predictions", str(DATA_DIR / "golden_predictions.jsonl"),
                         "--gold", str(DATA_DIR / "golden_gold.json"),
                         "--out", str(report), "--curves-out", str(curves)]) == 0
            curve_bytes = {p.name: p.read_bytes() for p in sorted(curves.iterdir())}
            outputs.append((report.read_bytes(), curve_bytes))
        assert outputs[0] == outputs[1]
        assert outputs[0][0] == (DATA_DIR / "golden_report.md").read_bytes()


# hand-written verdict table for the curated fixture:
# (triggered, exact-match verdict or None when abstained)
VERDICTS = {
    "t01": (False, None),   # "Unanswerable," - punctuation does not hide the marker
    "t02": (False, None),   # marker as a substring of a longer reply
    "t03": (False, None),   # upper case
    "t04": (True, True),    # "answerable" does not contain "unanswerable"
    "t05": (True, True),    # "A system restore" matches "system restore" (article)
    "t06": (True, True),    # case + trailing period
    "t07": (True, False),   # "a system restore" vs only "system restore message"
    "t08": (True, False),   # no overlap with any gold answer
    "t09": (True, True),    # hyphen splits to match "well known fact"
    "t10": (True, True),    # digits survive, gold-side period stripped
    "t11": (True, True),    # article + case + punctuation on both sides
    "t12": (True, True),    # "un answerable" does not contain the marker
}

ANSWERABLE = {  # OR over per-annotation flags
    "t01": False, "t02": True, "t03": True, "t04": True, "t05": True, "t06": True,
    "t07": True, "t08": True, "t09": True, "t10": True, "t11": True, "t12": True,
}


def test_criterion_9_trigger_and_correctness_rules():
    with criterion(9, "trigger and correctness rules match the hand verdict table"):
        pairs, summary = join(
            load_predictions(str(DATA_DIR / "trigger_predictions.jsonl")),
            load_gold(str(DATA_DIR / "trigger_gold.json")),
        )
        assert summary.clean and len(pairs) == 12
        scored = [score_all(p, g) for p, g in pairs]
        for s in scored:
            want_triggered, want_correct = VERDICTS[s.question_id]
            assert s.triggered is want_triggered, s.question_id
            if want_correct is None:
                assert s.correct == {}, s.question_id
            else:
                assert s.correct["em"] is want_correct, s.question_id
            assert s.answerable is ANSWERABLE[s.question_id], s.question_id
        # all-abstain dump: report exists with undefined metric rows
        abstainers = [s for s in scored if not s.triggered]
        report = build_report(abstainers, methods=["likelihood"])
        assert report.trigger_rate == 0.0 and report.accuracy is None
        row = report.methods["likelihood"]
        assert row.auc is None and row.ece is None
        assert all(v is None for v in row.coverage_at.values())
