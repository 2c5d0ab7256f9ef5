import math

import pytest

from selqa import EvalPoint, score_all
from selqa.metrics import ece
from selqa.records import validate_record
from selqa.scoring import likelihood_score
from selqa.synth import SynthConfig, generate
from selqa.textnorm import normalize_answer


class TestConfig:
    def test_defaults(self):
        config = SynthConfig(n=5, seed=1)
        assert config.samples_per_q == 10

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n=0, seed=1),
            dict(n=5, seed=1, abstain_rate=1.5),
            dict(n=5, seed=1, paraphrase_cluster_rate=-0.1),
            dict(n=5, seed=1, miscalibration_shift=2.0),
            dict(n=5, seed=1, samples_per_q=0),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            SynthConfig(**kwargs)


class TestGenerate:
    def test_deterministic(self):
        config = SynthConfig(n=50, seed=99, abstain_rate=0.3, paraphrase_cluster_rate=0.5)
        assert generate(config) == generate(config)

    def test_different_seeds_differ(self):
        a, _ = generate(SynthConfig(n=30, seed=1))
        b, _ = generate(SynthConfig(n=30, seed=2))
        assert a != b

    def test_forced_abstention(self):
        predictions, gold = generate(SynthConfig(n=1, seed=42, abstain_rate=1.0))
        assert "unanswerable" in predictions[0].greedy.text
        assert gold[0].answerable is False

    def test_records_are_valid(self):
        predictions, gold = generate(
            SynthConfig(n=40, seed=3, abstain_rate=0.2, paraphrase_cluster_rate=0.5)
        )
        for record in predictions:
            assert validate_record(record) == []
        assert [p.question_id for p in predictions] == [g.question_id for g in gold]
        assert all(len(g.annotations) >= 1 for g in gold)

    def test_likelihood_matches_latent_confidence(self):
        # greedy logprobs are built so the sequence probability is the latent u
        predictions, _ = generate(SynthConfig(n=20, seed=8))
        for record in predictions:
            u = likelihood_score(record.greedy)
            assert 0.0 < u < 1.0
            assert likelihood_score(record.greedy) == math.exp(math.fsum(record.greedy.logprobs))

    def test_cluster_rate_one_gives_distinct_texts(self):
        predictions, _ = generate(SynthConfig(n=50, seed=5, paraphrase_cluster_rate=1.0))
        for record in predictions:
            texts = {normalize_answer(s.text) for s in record.samples}
            assert len(texts) > 1

    def test_sample_count_honored(self):
        predictions, _ = generate(SynthConfig(n=5, seed=5, samples_per_q=3))
        assert all(len(r.samples) == 3 for r in predictions)

    def test_duplicate_sample_texts_share_logprobs(self):
        predictions, _ = generate(SynthConfig(n=30, seed=13, paraphrase_cluster_rate=0.5))
        for record in predictions:
            by_text = {}
            for sample in record.samples:
                assert by_text.setdefault(sample.text, sample.logprobs) == sample.logprobs


class TestCalibrationByConstruction:
    def test_zero_shift_is_calibrated(self):
        predictions, gold = generate(SynthConfig(n=4000, seed=7))
        rows = [score_all(p, g, methods=("likelihood",)) for p, g in zip(predictions, gold)]
        points = [
            EvalPoint(r.scores["likelihood"], r.correct["em"], r.question_id)
            for r in rows
            if r.triggered
        ]
        assert ece(points, 10) <= 0.03

    def test_shift_miscalibrates(self):
        predictions, gold = generate(SynthConfig(n=4000, seed=7, miscalibration_shift=-0.3))
        rows = [score_all(p, g, methods=("likelihood",)) for p, g in zip(predictions, gold)]
        points = [
            EvalPoint(r.scores["likelihood"], r.correct["em"], r.question_id)
            for r in rows
            if r.triggered
        ]
        assert ece(points, 10) > 0.15
