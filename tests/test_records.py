import pytest

from selqa import (
    GoldAnnotation,
    GoldRecord,
    PredictionRecord,
    SampledAnswer,
    ScoredPrediction,
)
from selqa.records import validate_record


def make_record(**overrides) -> PredictionRecord:
    fields = dict(
        question_id="q1",
        greedy=SampledAnswer("yes", (-0.1,)),
        samples=tuple(SampledAnswer("yes", (-0.2,)) for _ in range(10)),
        meta={"model": "m", "temperature": "0.7"},
    )
    fields.update(overrides)
    return PredictionRecord(**fields)


class TestValidateRecord:
    def test_well_formed(self):
        assert validate_record(make_record()) == []

    def test_positive_logprob(self):
        record = make_record(greedy=SampledAnswer("yes", (0.3,)))
        violations = validate_record(record)
        assert any("logprob > 0" in v for v in violations)

    def test_empty_id(self):
        violations = validate_record(make_record(question_id=""))
        assert any("empty question_id" in v for v in violations)

    def test_zero_logprob_is_legal(self):
        assert validate_record(make_record(greedy=SampledAnswer("yes", (0.0,)))) == []

    def test_nonfinite_logprob(self):
        record = make_record(samples=(SampledAnswer("x", (float("nan"),)),))
        assert any("not finite" in v for v in validate_record(record))

    def test_text_logprob_consistency(self):
        assert any(
            "non-empty text" in v
            for v in validate_record(make_record(greedy=SampledAnswer("yes", ())))
        )
        assert any(
            "empty text" in v
            for v in validate_record(make_record(greedy=SampledAnswer("", (-1.0,))))
        )

    def test_empty_sample_list_is_valid(self):
        # sampling scorers require samples; the record itself does not
        assert validate_record(make_record(samples=())) == []


class TestGoldRecord:
    def test_answerable_is_or(self):
        flags = [False] * 9 + [True]
        record = GoldRecord("q", tuple(GoldAnnotation("x", f) for f in flags))
        assert record.answerable is True

    def test_all_unanswerable(self):
        record = GoldRecord("q", tuple(GoldAnnotation("x", False) for _ in range(3)))
        assert record.answerable is False

    def test_answerable_monotone(self):
        base = tuple(GoldAnnotation("x", False) for _ in range(3))
        grown = GoldRecord("q", base + (GoldAnnotation("y", True),))
        assert GoldRecord("q", base).answerable is False
        assert grown.answerable is True


class TestScoredPrediction:
    def test_score_range_enforced(self):
        with pytest.raises(ValueError):
            ScoredPrediction("q", True, {"likelihood": 1.5}, {}, True)

    def test_abstained_records_carry_no_verdicts(self):
        with pytest.raises(ValueError):
            ScoredPrediction("q", False, {}, {"em": True}, True)

    def test_immutable(self):
        record = make_record()
        with pytest.raises(AttributeError):
            record.question_id = "other"
