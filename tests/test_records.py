import copy
import inspect
import pickle
import re

import pytest

import selqa
from selqa import (
    BleuSimilarity,
    CalibrationReport,
    CorrectnessClassifier,
    EvalPoint,
    GoldAnnotation,
    GoldRecord,
    MethodMetrics,
    PredictionRecord,
    SampledAnswer,
    ScoredPrediction,
)
from selqa.metrics import RiskCoveragePoint, SweepRow
from selqa.records import validate_record
from selqa.synth import SynthConfig


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


# ---------------------------------------------------------------------------
# value semantics of every public value type

# (class, positional arguments, repr); each repr was generated when the types
# were dataclasses, so the slotted classes are held to the same bytes.
VALUES = [
    (SampledAnswer, ("red apple", [-0.5, 0.0]),
     "SampledAnswer(text='red apple', logprobs=(-0.5, 0.0))"),
    (PredictionRecord,
     ("q1", SampledAnswer("a", (-0.1,)), [SampledAnswer("b", (-0.2,))], {"model": "m"}, 7),
     "PredictionRecord(question_id='q1', greedy=SampledAnswer(text='a', logprobs=(-0.1,)), "
     "samples=(SampledAnswer(text='b', logprobs=(-0.2,)),), meta={'model': 'm'})"),
    (GoldAnnotation, ("unanswerable", False, "yes"),
     "GoldAnnotation(answer='unanswerable', answerable=False, answer_confidence='yes')"),
    (GoldRecord, ("q1", [GoldAnnotation("cat"), GoldAnnotation("dog", False, "maybe")]),
     "GoldRecord(question_id='q1', annotations=(GoldAnnotation(answer='cat', answerable=True, "
     "answer_confidence=None), GoldAnnotation(answer='dog', answerable=False, "
     "answer_confidence='maybe')))"),
    (ScoredPrediction, ("q1", True, {"likelihood": 0.5, "avg-bleu": 1.0}, {"em": True}, False),
     "ScoredPrediction(question_id='q1', triggered=True, scores={'likelihood': 0.5, "
     "'avg-bleu': 1.0}, correct={'em': True}, answerable=False)"),
    (MethodMetrics, (0.75, None, {0.9: 50.0, 0.99: None}),
     "MethodMetrics(auc=0.75, ece=None, coverage_at={0.9: 50.0, 0.99: None})"),
    (CalibrationReport,
     ({"likelihood": MethodMetrics(0.5, 0.125, {0.9: None})}, 0.5, 0.8, 10, 8, {"model": "m"}),
     "CalibrationReport(methods={'likelihood': MethodMetrics(auc=0.5, ece=0.125, "
     "coverage_at={0.9: None})}, accuracy=0.5, trigger_rate=0.8, n_total=10, n_triggered=8, "
     "meta={'model': 'm'})"),
    (EvalPoint, (0.25, True, "q1"), "EvalPoint(score=0.25, correct=True, record_id='q1')"),
    (RiskCoveragePoint, (50.0, 75.0), "RiskCoveragePoint(coverage=50.0, accuracy=75.0)"),
    (SweepRow, (-0.5, 100.0, 33.333333333333336),
     "SweepRow(tau=-0.5, coverage=100.0, accuracy=33.333333333333336)"),
    (CorrectnessClassifier, ("em", 0.75),
     "CorrectnessClassifier(name='em', threshold=0.75, similarity=None)"),
    (SynthConfig, (2500, 3, -0.25, 0.5, 0.2, 4),
     "SynthConfig(n=2500, seed=3, miscalibration_shift=-0.25, paraphrase_cluster_rate=0.5, "
     "abstain_rate=0.2, samples_per_q=4)"),
]

#: Each constructor's parameters, in order.
FIELDS = {
    SampledAnswer: ("text", "logprobs"),
    PredictionRecord: ("question_id", "greedy", "samples", "meta", "line"),
    GoldAnnotation: ("answer", "answerable", "answer_confidence"),
    GoldRecord: ("question_id", "annotations"),
    ScoredPrediction: ("question_id", "triggered", "scores", "correct", "answerable"),
    MethodMetrics: ("auc", "ece", "coverage_at"),
    CalibrationReport: ("methods", "accuracy", "trigger_rate", "n_total", "n_triggered", "meta"),
    EvalPoint: ("score", "correct", "record_id"),
    RiskCoveragePoint: ("coverage", "accuracy"),
    SweepRow: ("tau", "coverage", "accuracy"),
    CorrectnessClassifier: ("name", "threshold", "similarity"),
    SynthConfig: ("n", "seed", "miscalibration_shift", "paraphrase_cluster_rate",
                  "abstain_rate", "samples_per_q"),
}

#: The types whose fields are all hashable in VALUES.
HASHABLE = {SampledAnswer, GoldAnnotation, GoldRecord, EvalPoint, RiskCoveragePoint, SweepRow,
            CorrectnessClassifier, SynthConfig}

_IDS = [cls.__name__ for cls, _, _ in VALUES]


def _keywords(cls, args) -> dict:
    return dict(zip(FIELDS[cls], args))


def _stored(value):
    """A list argument as the value types store it: a tuple."""
    return tuple(value) if isinstance(value, list) else value


def test_every_public_value_type_is_covered():
    public = {getattr(selqa, name) for name in selqa.__all__}
    covered = set(FIELDS)
    assert {cls for cls in public if isinstance(cls, type) and cls.__module__ in (
        "selqa.records", "selqa.metrics", "selqa.correctness")} <= covered
    assert len(VALUES) == len(FIELDS) == len(covered)


class TestValueTypes:
    @pytest.mark.parametrize("cls, args, text", VALUES, ids=_IDS)
    def test_constructor_parameters_keep_their_names_and_order(self, cls, args, text):
        assert tuple(inspect.signature(cls).parameters) == FIELDS[cls]

    @pytest.mark.parametrize("cls, args, text", VALUES, ids=_IDS)
    def test_keyword_and_positional_construction_agree(self, cls, args, text):
        positional, keyword = cls(*args), cls(**_keywords(cls, args))
        assert positional == keyword
        for name, arg in _keywords(cls, args).items():
            assert getattr(positional, name) == getattr(keyword, name) == _stored(arg)

    @pytest.mark.parametrize("cls, args, text", VALUES, ids=_IDS)
    def test_lists_are_stored_as_tuples(self, cls, args, text):
        value = cls(*args)
        for name, arg in _keywords(cls, args).items():
            if isinstance(arg, list):
                assert type(getattr(value, name)) is tuple

    @pytest.mark.parametrize("cls, args, text", VALUES, ids=_IDS)
    def test_equality_and_hash_are_by_value(self, cls, args, text):
        one, two = cls(*args), cls(*copy.deepcopy(args))
        assert one == two and not one != two
        if cls in HASHABLE:
            assert hash(one) == hash(two)
            assert len({one, two}) == 1
        else:
            with pytest.raises(TypeError):
                hash(one)

    @pytest.mark.parametrize("cls, args, text", VALUES, ids=_IDS)
    def test_no_equality_to_a_tuple_or_another_class(self, cls, args, text):
        value = cls(*args)
        other = type("Other", (cls,), {})(*args)
        assert value != tuple(map(_stored, args))
        assert value != other and other != value
        assert value != _keywords(cls, args)

    @pytest.mark.parametrize("cls, args, text", VALUES, ids=_IDS)
    def test_repr_is_unchanged(self, cls, args, text):
        assert repr(cls(*args)) == text

    @pytest.mark.parametrize("cls, args, text", VALUES, ids=_IDS)
    def test_fields_cannot_be_set_or_deleted(self, cls, args, text):
        value = cls(*args)
        for name in FIELDS[cls]:
            with pytest.raises(AttributeError):
                setattr(value, name, None)
            with pytest.raises(AttributeError):
                delattr(value, name)
        assert value == cls(*args)

    def test_a_different_field_makes_values_unequal(self):
        base = SampledAnswer("a", (-0.1,))
        assert base != SampledAnswer("b", (-0.1,))
        assert base != SampledAnswer("a", (-0.2,))
        assert EvalPoint(0.5, True) != EvalPoint(0.5, True, "q1")

    def test_prediction_records_differing_only_in_line_are_equal(self):
        one = make_record(line=1)
        two = make_record(line=2)
        assert one == two
        assert one.line == 1 and two.line == 2
        hashable = make_record(meta=None, line=1)
        assert hash(hashable) == hash(make_record(meta=None, line=None))
        assert "line" not in repr(one)

    def test_defaults(self):
        assert SampledAnswer("x").logprobs == ()
        record = PredictionRecord("q", SampledAnswer("x", (-1.0,)))
        assert (record.samples, record.meta, record.line) == ((), None, None)
        assert GoldAnnotation("x") == GoldAnnotation("x", True, None)
        assert EvalPoint(0.5, True).record_id == ""
        assert CorrectnessClassifier() == CorrectnessClassifier("em", 0.5, None)
        config = SynthConfig(10, 1)
        assert config == SynthConfig(10, 1, 0.0, 0.0, 0.0, 10)

    def test_each_report_gets_its_own_meta(self):
        one, two = CalibrationReport({}, None, 0.0, 0, 0), CalibrationReport({}, None, 0.0, 0, 0)
        assert one.meta == {} and one == two
        one.meta["model"] = "m"
        assert two.meta == {}


class TestValidationErrors:
    def test_gold_record_without_annotations(self):
        with pytest.raises(ValueError, match=re.escape("gold record 'q' has no annotations")):
            GoldRecord("q", [])

    @pytest.mark.parametrize("score", [-0.1, 1.5, float("nan"), float("inf")])
    def test_eval_point_score_out_of_range(self, score):
        with pytest.raises(ValueError, match=re.escape(f"score out of [0, 1]: {score}")):
            EvalPoint(score, True)

    def test_scored_prediction(self):
        with pytest.raises(ValueError, match=re.escape("score 'likelihood' out of [0, 1]: 1.5")):
            ScoredPrediction("q", True, {"likelihood": 1.5}, {}, True)
        with pytest.raises(ValueError, match="abstained records carry no correctness verdicts"):
            ScoredPrediction("q", False, {}, {"em": True}, True)

    def test_correctness_classifier(self):
        with pytest.raises(ValueError, match=re.escape("threshold must lie in [0, 1], got 1.5")):
            CorrectnessClassifier(threshold=1.5)
        with pytest.raises(ValueError, match="classifier 'bleu' needs a similarity function"):
            CorrectnessClassifier(name="bleu")

    @pytest.mark.parametrize("kwargs, message", [
        (dict(n=0, seed=1), "n must be >= 1, got 0"),
        (dict(n=1, seed=-1), "seed must be >= 0, got -1"),
        (dict(n=1, seed=1, samples_per_q=0), "samples_per_q must be >= 1, got 0"),
        (dict(n=1, seed=1, miscalibration_shift=1.5), "miscalibration_shift must lie in [-1, 1]"),
        (dict(n=1, seed=1, paraphrase_cluster_rate=2.0),
         "paraphrase_cluster_rate must lie in [0, 1], got 2.0"),
        (dict(n=1, seed=1, abstain_rate=-0.5), "abstain_rate must lie in [0, 1], got -0.5"),
    ])
    def test_synth_config(self, kwargs, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            SynthConfig(**kwargs)


class TestRoundTrips:
    """Pickle and copy rebuild an equal value of the same class, line included.

    A frozen class with __slots__ alone fails all three: their default
    protocol restores the slots with setattr, which the class refuses.
    """

    COPIES = {
        "pickle": lambda value: pickle.loads(pickle.dumps(value)),
        "copy": copy.copy,
        "deepcopy": copy.deepcopy,
    }

    @pytest.mark.parametrize("how", COPIES)
    @pytest.mark.parametrize("cls, args, text", VALUES, ids=_IDS)
    def test_value_survives(self, cls, args, text, how):
        value = cls(*args)
        twin = self.COPIES[how](value)
        assert type(twin) is cls
        assert twin == value
        assert repr(twin) == repr(value)

    @pytest.mark.parametrize("how", COPIES)
    def test_prediction_record_keeps_its_line(self, how):
        assert self.COPIES[how](make_record(line=42)).line == 42

    @pytest.mark.parametrize("how", COPIES)
    def test_bleu_classifier_keeps_its_similarity(self, how):
        twin = self.COPIES[how](CorrectnessClassifier.bleu_threshold(0.25, mode="char"))
        assert (twin.name, twin.threshold) == ("bleu-threshold", 0.25)
        assert isinstance(twin.similarity, BleuSimilarity) and twin.similarity.mode == "char"

    def test_deepcopy_copies_mutable_fields(self):
        value = ScoredPrediction("q", True, {"likelihood": 0.5}, {"em": True}, True)
        twin = copy.deepcopy(value)
        assert twin.scores is not value.scores and twin.scores == value.scores
