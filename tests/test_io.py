import json
import math

import pytest

from selqa import (
    CalibrationReport,
    GoldAnnotation,
    GoldRecord,
    MethodMetrics,
    ParseError,
    PredictionRecord,
    SampledAnswer,
)
from selqa.errors import DuplicateKeyError
from selqa.io import (
    dump_gold,
    dump_predictions,
    emit_curve,
    emit_report,
    emit_sweep,
    join,
    load_gold,
    load_predictions,
    parse_report,
)
from selqa.metrics import RiskCoveragePoint, SweepRow
from selqa.synth import SynthConfig, generate


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestPredictionDump:
    def test_empty_file(self, tmp_path):
        assert load_predictions(write(tmp_path / "p.jsonl", "")) == []

    def test_round_trip_bytes(self, tmp_path):
        predictions, _ = generate(SynthConfig(n=3, seed=4, abstain_rate=0.4))
        path = tmp_path / "p.jsonl"
        dump_predictions(predictions, str(path))
        first = path.read_bytes()
        loaded = load_predictions(str(path))
        assert loaded == predictions
        dump_predictions(loaded, str(path))
        assert path.read_bytes() == first

    def test_order_preserved(self, tmp_path):
        lines = [
            '{"question_id":"zz","greedy":{"text":"a","logprobs":[-1]},"samples":[]}',
            '{"question_id":"aa","greedy":{"text":"b","logprobs":[-1]},"samples":[]}',
        ]
        loaded = load_predictions(write(tmp_path / "p.jsonl", "\n".join(lines) + "\n"))
        assert [r.question_id for r in loaded] == ["zz", "aa"]

    def test_positive_logprob_rejected_with_line(self, tmp_path):
        lines = [
            '{"question_id":"a","greedy":{"text":"x","logprobs":[-1]},"samples":[]}',
            '{"question_id":"b","greedy":{"text":"x","logprobs":[0.3]},"samples":[]}',
        ]
        with pytest.raises(ParseError) as err:
            load_predictions(write(tmp_path / "p.jsonl", "\n".join(lines) + "\n"))
        assert "line 2" in str(err.value)
        assert "logprob > 0" in str(err.value)

    def test_validation_message_bytes(self, tmp_path):
        good = '{"question_id":"a","greedy":{"text":"x","logprobs":[-1]},"samples":[]}'
        bad = '{"question_id":"b","greedy":{"text":"x","logprobs":[%s]},"samples":[%s]}'
        sample = '{"text":"y","logprobs":[0.5]}'
        path = write(tmp_path / "p.jsonl", "\n".join([good, bad % ("-1", sample)]) + "\n")
        with pytest.raises(ParseError) as err:
            load_predictions(path)
        assert str(err.value) == f"{path}: line 2: samples[0]: logprob > 0 at token 0"
        # every violation of one record is named, in order
        path = write(tmp_path / "p.jsonl", bad % ("0.3", sample) + "\n")
        with pytest.raises(ParseError) as err:
            load_predictions(path)
        assert str(err.value) == (
            f"{path}: line 1: greedy: logprob > 0 at token 0; "
            "samples[0]: logprob > 0 at token 0"
        )

    def test_parse_error_with_line(self, tmp_path):
        with pytest.raises(ParseError, match="line 1"):
            load_predictions(write(tmp_path / "p.jsonl", "{not json\n"))

    def test_missing_field(self, tmp_path):
        with pytest.raises(ParseError, match="greedy"):
            load_predictions(write(tmp_path / "p.jsonl", '{"question_id":"a"}\n'))

    def test_invalid_utf8_names_its_line(self, tmp_path):
        good = '{"question_id":"%s","greedy":{"text":"x","logprobs":[-1]},"samples":[]}\n'
        bad = b'{"question_id":"c","greedy":{"text":"\xff","logprobs":[-1]},"samples":[]}\n'
        path = tmp_path / "p.jsonl"
        path.write_bytes((good % "a" + good % "b").encode() + bad)
        with pytest.raises(ParseError, match=r"p\.jsonl: line 3: invalid UTF-8"):
            load_predictions(str(path))

    def test_blank_lines_skipped(self, tmp_path):
        text = '\n{"question_id":"a","greedy":{"text":"x","logprobs":[-1]},"samples":[]}\n\n'
        assert len(load_predictions(write(tmp_path / "p.jsonl", text))) == 1

    def test_records_keep_their_line(self, tmp_path):
        line = '{"question_id":"q","greedy":{"text":"a","logprobs":[-1]},"samples":[]}'
        loaded = load_predictions(write(tmp_path / "p.jsonl", f"{line}\n\n{line}\n"))
        assert [r.line for r in loaded] == [1, 3]
        # the line is bookkeeping: it is not part of equality or of a dump
        assert loaded[0] == loaded[1]
        dump_predictions(loaded[1:], str(tmp_path / "out.jsonl"))
        assert "line" not in json.loads((tmp_path / "out.jsonl").read_text())

    @pytest.mark.parametrize("bad", ["NaN", "-Infinity", "Infinity"])
    def test_nonfinite_logprobs_rejected(self, tmp_path, bad):
        # json.loads happily parses these literals; validation must not
        line = '{"question_id":"a","greedy":{"text":"x","logprobs":[%s]},"samples":[]}\n' % bad
        with pytest.raises(ParseError):
            load_predictions(write(tmp_path / "p.jsonl", line))

    def test_fixed_key_order(self, tmp_path):
        record = PredictionRecord(
            "q", SampledAnswer("x", (-1.0,)), (SampledAnswer("y", (-2.0,)),), {"m": "v"}
        )
        dump_predictions([record], str(tmp_path / "p.jsonl"))
        obj = json.loads((tmp_path / "p.jsonl").read_text())
        assert list(obj) == ["question_id", "greedy", "samples", "meta"]
        assert list(obj["greedy"]) == ["text", "logprobs"]

    def test_unicode_preserved(self, tmp_path):
        record = PredictionRecord("q", SampledAnswer("café żółć", (-1.0,)), ())
        path = tmp_path / "p.jsonl"
        dump_predictions([record], str(path))
        assert load_predictions(str(path))[0].greedy.text == "café żółć"


class TestGoldFile:
    def test_answerable_derived_by_or(self, tmp_path):
        data = [
            {
                "question_id": "q1",
                "answers": [{"answer": "x", "answerable": False}] * 9
                + [{"answer": "y", "answerable": True}],
            }
        ]
        (record,) = load_gold(write(tmp_path / "g.json", json.dumps(data)))
        assert record.answerable is True

    def test_record_level_flag_inherited(self, tmp_path):
        data = [{"question_id": "q1", "answerable": False, "answers": [{"answer": "x"}]}]
        (record,) = load_gold(write(tmp_path / "g.json", json.dumps(data)))
        assert record.annotations[0].answerable is False
        assert record.answerable is False

    def test_no_flags_defaults_answerable(self, tmp_path):
        data = [{"question_id": "q1", "answers": [{"answer": "x"}]}]
        (record,) = load_gold(write(tmp_path / "g.json", json.dumps(data)))
        assert record.answerable is True

    def test_malformed_json_reports_offset(self, tmp_path):
        with pytest.raises(ParseError, match="byte"):
            load_gold(write(tmp_path / "g.json", '[{"question_id": }]'))

    def test_empty_answers_rejected(self, tmp_path):
        data = [{"question_id": "q1", "answers": []}]
        expected = r"g\.json: record 0: gold record 'q1' has no answers"
        with pytest.raises(ParseError, match=expected):
            load_gold(write(tmp_path / "g.json", json.dumps(data)))

    def test_invalid_utf8_names_byte_offset(self, tmp_path):
        data = b'[\n{"question_id": "q1", "answers": [{"answer": "x"}]},\n"\xff"]\n'
        path = tmp_path / "g.json"
        path.write_bytes(data)
        offset = data.index(b"\xff")
        with pytest.raises(ParseError, match=rf"g\.json: byte {offset}: invalid UTF-8"):
            load_gold(str(path))

    def test_confidence_preserved(self, tmp_path):
        data = [{"question_id": "q1", "answers": [{"answer": "x", "answer_confidence": "maybe"}]}]
        (record,) = load_gold(write(tmp_path / "g.json", json.dumps(data)))
        assert record.annotations[0].answer_confidence == "maybe"

    def test_round_trip(self, tmp_path):
        _, gold = generate(SynthConfig(n=4, seed=9, abstain_rate=0.5))
        path = tmp_path / "g.json"
        dump_gold(gold, str(path))
        assert load_gold(str(path)) == list(gold)


def prediction(qid):
    return PredictionRecord(qid, SampledAnswer("x", (-1.0,)), ())


def gold_record(qid):
    return GoldRecord(qid, (GoldAnnotation("x", True),))


class TestJoin:
    def test_disjoint(self):
        pairs, summary = join([prediction("a")], [gold_record("b")])
        assert pairs == []
        assert summary.n_unmatched_predictions == 1
        assert summary.unmatched_predictions == ["a"]
        assert summary.unmatched_gold == ["b"]

    def test_identical_sets(self):
        pairs, summary = join([prediction("a"), prediction("b")], [gold_record("b"), gold_record("a")])
        assert [p.question_id for p, _ in pairs] == ["a", "b"]  # prediction order
        assert summary.clean

    def test_duplicate_prediction(self):
        with pytest.raises(DuplicateKeyError, match="'a'"):
            join([prediction("a"), prediction("a")], [gold_record("a")])

    def test_duplicate_gold(self):
        with pytest.raises(DuplicateKeyError, match="gold"):
            join([prediction("a")], [gold_record("a"), gold_record("a")])

    def test_summary_caps_listed_ids(self):
        pairs, summary = join([prediction(f"p{i}") for i in range(25)], [])
        assert summary.n_unmatched_predictions == 25
        assert len(summary.unmatched_predictions) == 10


def sample_report():
    return CalibrationReport(
        methods={
            "likelihood": MethodMetrics(auc=0.875, ece=0.325, coverage_at={60.0: 80.0, 70.0: 40.0}),
            "avg-bleu": MethodMetrics(auc=None, ece=0.1, coverage_at={60.0: 0.0, 70.0: None}),
        },
        accuracy=61.0,
        trigger_rate=34.0,
        n_total=100,
        n_triggered=34,
        meta={"classifier": "em", "bins": "10"},
    )


class TestReportEmission:
    def test_json_round_trip(self):
        report = sample_report()
        assert parse_report(emit_report(report, "json")) == report

    def test_json_full_precision_round_trip(self):
        report = CalibrationReport(
            methods={"m": MethodMetrics(auc=1 / 3, ece=math.pi / 10, coverage_at={62.5: 100 / 7})},
            accuracy=200 / 3,
            trigger_rate=1 / 7,
            n_total=7,
            n_triggered=1,
        )
        assert parse_report(emit_report(report, "json")) == report

    def test_json_sorted_keys(self):
        payload = json.loads(emit_report(sample_report(), "json"))
        assert list(payload) == sorted(payload)

    def test_markdown_layout(self):
        text = emit_report(sample_report(), "markdown").decode()
        lines = text.splitlines()
        assert lines[0] == "acc 61.0000% @ trig 34.0000% (34/100 answered)"
        assert "| method | AUC | ECE | C@60 | C@70 |" in lines
        assert "| likelihood | 0.8750 | 0.3250 | 80.0000 | 40.0000 |" in lines
        # undefined cells render as an em dash
        assert "| avg-bleu | — | 0.1000 | 0.0000 | — |" in lines

    def test_markdown_undefined_accuracy(self):
        report = CalibrationReport(
            methods={"likelihood": MethodMetrics(None, None, {60.0: None})},
            accuracy=None,
            trigger_rate=0.0,
            n_total=5,
            n_triggered=0,
        )
        text = emit_report(report, "markdown").decode()
        assert text.splitlines()[0] == "acc — @ trig 0.0000% (0/5 answered)"

    def test_csv_one_row_per_method(self):
        text = emit_report(sample_report(), "csv").decode()
        lines = text.splitlines()
        assert lines[0] == "method,auc,ece,c@60,c@70"
        assert lines[1] == "likelihood,0.8750,0.3250,80.0000,40.0000"
        assert lines[2] == "avg-bleu,,0.1000,0.0000,"
        assert len(lines) == 3

    def test_json_null_for_undefined(self):
        payload = json.loads(emit_report(sample_report(), "json"))
        assert payload["methods"]["avg-bleu"]["auc"] is None

    def test_emission_deterministic(self):
        report = sample_report()
        for fmt in ("json", "csv", "markdown"):
            assert emit_report(report, fmt) == emit_report(report, fmt)

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            emit_report(sample_report(), "yaml")


class TestCurveEmission:
    def test_single_point(self):
        got = emit_curve([RiskCoveragePoint(100.0, 100.0)])
        assert got == b"coverage,accuracy\n100.0000,100.0000\n"

    def test_empty_is_header_only(self):
        assert emit_curve([]) == b"coverage,accuracy\n"

    def test_five_point_golden(self):
        points = [
            RiskCoveragePoint(20.0, 100.0),
            RiskCoveragePoint(40.0, 100.0),
            RiskCoveragePoint(60.0, 66.0 + 2 / 3),
            RiskCoveragePoint(80.0, 75.0),
            RiskCoveragePoint(100.0, 60.0),
        ]
        expected = (
            b"coverage,accuracy\n"
            b"20.0000,100.0000\n"
            b"40.0000,100.0000\n"
            b"60.0000,66.6667\n"
            b"80.0000,75.0000\n"
            b"100.0000,60.0000\n"
        )
        assert emit_curve(points) == expected


class TestSweepEmission:
    def test_csv(self):
        rows = {"likelihood": [SweepRow(tau=0.25, coverage=50.0, accuracy=100.0)]}
        got = emit_sweep(rows).decode()
        assert got == "method,tau,coverage,accuracy\nlikelihood,0.25,50.0000,100.0000\n"

    def test_json(self):
        rows = {"likelihood": [SweepRow(tau=0.25, coverage=50.0, accuracy=100.0)]}
        payload = json.loads(emit_sweep(rows, "json"))
        assert payload["likelihood"][0]["tau"] == 0.25
