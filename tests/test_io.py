import copy
import gc
import json
import math
import sys
import tracemalloc
from typing import NamedTuple
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selqa import (
    CalibrationReport,
    GoldAnnotation,
    GoldRecord,
    MethodMetrics,
    ParseError,
    PredictionRecord,
    SampledAnswer,
)
from selqa import io as selqa_io
from selqa.errors import DataError, DuplicateKeyError
from selqa.io import (
    JoinSummary,
    _accepted_record,
    _prediction_from_obj,
    dump_gold,
    dump_predictions,
    emit_curve,
    emit_report,
    emit_sweep,
    gold_answerable,
    gold_answers,
    gold_entry,
    gold_has,
    iter_predictions,
    join,
    join_stream,
    load_gold,
    load_gold_index,
    load_predictions,
    pack_gold,
    parse_report,
)
from selqa.metrics import RiskCoveragePoint, SweepRow
from selqa.records import validate_record
from selqa.synth import SynthConfig, generate
from selqa.textnorm import distinct_normalized, normalize_answer

from conftest import DATA_DIR
from oracles import seen_join


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

    def test_iter_predictions_reads_lazily(self, tmp_path):
        good = '{"question_id":"a","greedy":{"text":"x","logprobs":[-1]},"samples":[]}'
        records = iter_predictions(write(tmp_path / "p.jsonl", good + "\n{not json\n"))
        assert next(records).question_id == "a"  # line 2 is not parsed yet
        with pytest.raises(ParseError, match="line 2"):
            next(records)

    def test_byte_ranges_read_whole_lines(self, tmp_path):
        line = '{"question_id":"q%d","greedy":{"text":"x","logprobs":[-1]},"samples":[]}\n'
        path = write(tmp_path / "p.jsonl", line % 1 + "\n" + line % 3 + line % 4)
        data = (tmp_path / "p.jsonl").read_bytes()
        whole = [(r.question_id, r.line) for r in iter_predictions(path)]
        assert whole == [("q1", 1), ("q3", 3), ("q4", 4)]
        # at each line start, the lines before it and those from it make the whole
        for cut in [0] + [i + 1 for i, byte in enumerate(data) if byte == ord("\n")]:
            before = list(iter_predictions(path, 0, cut))
            after = iter_predictions(path, cut, None, data.count(b"\n", 0, cut) + 1)
            assert [(r.question_id, r.line) for r in [*before, *after]] == whole

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



def per_field_record(obj, line):
    """The record the per-field path builds from obj, or None where it rejects obj."""
    try:
        record = _prediction_from_obj(obj, line)
    except (KeyError, TypeError, ValueError):
        return None
    return None if validate_record(record) else record


def logprob_types(record):
    return [type(v) for a in (record.greedy, *record.samples) for v in a.logprobs]


@st.composite
def answer_objs(draw):
    """A valid answer object: text with logprobs, or neither."""
    if draw(st.booleans()):
        return {"text": "", "logprobs": []}
    logprobs = st.one_of(st.floats(-50.0, 0.0), st.integers(-50, 0))
    return {"text": draw(st.sampled_from(["a", "b c", "unanswerable"])),
            "logprobs": draw(st.lists(logprobs, min_size=1, max_size=4))}


@st.composite
def record_objs(draw):
    """A valid dump record object; meta and samples may be left out."""
    obj = {"question_id": draw(st.sampled_from(["q", "q1", "żółć"])),
           "greedy": draw(answer_objs())}
    if draw(st.booleans()):
        obj["samples"] = draw(st.lists(answer_objs(), max_size=4))
    if draw(st.booleans()):
        obj["meta"] = draw(st.dictionaries(st.sampled_from(["m", "t"]), st.just("v")))
    return obj


def _answer(obj, data):
    """One of obj's answer objects, drawn; a fresh one if an earlier fault took them all."""
    samples = obj.get("samples")
    answers = [obj.get("greedy"), *(samples if isinstance(samples, list) else [])]
    answers = [a for a in answers if isinstance(a, dict)]
    if not answers:
        return {}
    return answers[data.draw(st.integers(0, len(answers) - 1))]


def _set_logprob(value):
    def fault(obj, data):
        answer = _answer(obj, data)
        answer["text"] = answer.get("text") or "x"
        logprobs = answer.get("logprobs")
        if not isinstance(logprobs, list) or not logprobs:
            logprobs = answer["logprobs"] = [-1.0]
        logprobs[data.draw(st.integers(0, len(logprobs) - 1))] = value
    return fault


def _set_answer(value):
    def fault(obj, data):
        samples = obj.get("samples")
        if data.draw(st.booleans()) or not isinstance(samples, list) or not samples:
            obj["greedy"] = copy.deepcopy(value)
        else:
            samples[data.draw(st.integers(0, len(samples) - 1))] = copy.deepcopy(value)
    return fault


def _set_answer_field(key, value):
    def fault(obj, data):
        _answer(obj, data)[key] = copy.deepcopy(value)
    return fault


def _drop_answer_field(key):
    def fault(obj, data):
        _answer(obj, data).pop(key, None)
    return fault


def _set_field(key, value):
    def fault(obj, data):
        obj[key] = copy.deepcopy(value)
    return fault


def _drop_field(key):
    def fault(obj, data):
        obj.pop(key, None)
    return fault


def _text_without_logprobs(obj, data):
    answer = _answer(obj, data)
    answer["text"], answer["logprobs"] = "x", []


def _logprobs_without_text(obj, data):
    answer = _answer(obj, data)
    answer["text"], answer["logprobs"] = "", [-1.0]


# Each fault kind; a few (a missing logprobs field on an empty answer,
# meta {}, int logprobs) leave the record valid.
FAULTS = {
    "bool-logprob": _set_logprob(True),
    "false-logprob": _set_logprob(False),
    "huge-negative-int": _set_logprob(-(10**400)),
    "huge-positive-int": _set_logprob(10**400),
    "nan": _set_logprob(math.nan),
    "inf": _set_logprob(math.inf),
    "-inf": _set_logprob(-math.inf),
    "positive-float": _set_logprob(0.5),
    "positive-int": _set_logprob(1),
    "zero-int": _set_logprob(0),
    "negative-zero": _set_logprob(-0.0),
    "str-logprob": _set_logprob("-1"),
    "null-logprob": _set_logprob(None),
    "list-logprob": _set_logprob([-1.0]),
    "sum-overflow": _set_answer_field("logprobs", [-1e308, -1e308]),
    "text-without-logprobs": _text_without_logprobs,
    "logprobs-without-text": _logprobs_without_text,
    "str-answer": _set_answer("x"),
    "list-answer": _set_answer([]),
    "null-answer": _set_answer(None),
    "str-logprobs": _set_answer_field("logprobs", "-1"),
    "dict-logprobs": _set_answer_field("logprobs", {}),
    "null-logprobs": _set_answer_field("logprobs", None),
    "number-logprobs": _set_answer_field("logprobs", -1.0),
    "missing-logprobs": _drop_answer_field("logprobs"),
    "missing-text": _drop_answer_field("text"),
    "int-text": _set_answer_field("text", 1),
    "empty-question-id": _set_field("question_id", ""),
    "int-question-id": _set_field("question_id", 1),
    "null-question-id": _set_field("question_id", None),
    "missing-question-id": _drop_field("question_id"),
    "missing-greedy": _drop_field("greedy"),
    "null-samples": _set_field("samples", None),
    "dict-samples": _set_field("samples", {}),
    "str-meta": _set_field("meta", "m"),
    "list-meta": _set_field("meta", []),
    "int-meta-value": _set_field("meta", {"m": 1}),
    "null-meta-value": _set_field("meta", {"m": None}),
    "empty-meta": _set_field("meta", {}),
    "null-meta": _set_field("meta", None),
}


class TestAcceptPass:
    """_accepted_record agrees with _prediction_from_obj plus validate_record."""

    @pytest.mark.parametrize("fault", sorted(FAULTS))
    @settings(max_examples=20, deadline=None)
    @given(obj=record_objs(), more=st.lists(st.sampled_from(sorted(FAULTS)), max_size=2),
           data=st.data())
    def test_agrees_with_the_per_field_path(self, fault, obj, more, data):
        for name in [fault, *more]:
            FAULTS[name](obj, data)
        # exactly the types JSON decoding yields
        obj = json.loads(json.dumps(obj))
        fast, reference = _accepted_record(obj, 7), per_field_record(obj, 7)
        if fast is None:
            # only a finite sum beyond float range is left to the per-field path
            if reference is not None:
                logprobs = [v for a in (reference.greedy, *reference.samples)
                            for v in a.logprobs]
                assert sum(logprobs) == -math.inf
            return
        assert reference is not None
        assert fast == reference
        assert fast.line == reference.line == 7
        assert fast.meta == reference.meta
        assert logprob_types(fast) == logprob_types(reference)
        assert set(logprob_types(fast)) <= {float}
        assert type(fast.samples) is tuple
        assert all(type(a.logprobs) is tuple for a in (fast.greedy, *fast.samples))

    @settings(max_examples=100, deadline=None)
    @given(record_objs())
    def test_valid_records_are_accepted(self, obj):
        obj = json.loads(json.dumps(obj))
        assert _accepted_record(obj, 1) == per_field_record(obj, 1) is not None

    def test_integer_logprobs_load_as_float(self, tmp_path):
        line = ('{"question_id":"q","greedy":{"text":"x","logprobs":[-1,0]},'
                '"samples":[{"text":"y","logprobs":[-2.5,-3]}]}\n')
        [record] = load_predictions(write(tmp_path / "p.jsonl", line))
        assert record.greedy.logprobs == (-1.0, 0.0)
        assert record.samples[0].logprobs == (-2.5, -3.0)
        assert set(logprob_types(record)) == {float}

    def test_overflowing_sum_loads_through_the_per_field_path(self, tmp_path):
        obj = {"question_id": "q", "greedy": {"text": "x", "logprobs": [-1e308, -1e308]}}
        assert _accepted_record(obj, 1) is None
        [record] = load_predictions(write(tmp_path / "p.jsonl", json.dumps(obj) + "\n"))
        assert record.greedy.logprobs == (-1e308, -1e308)

    def test_valid_inputs_never_reach_the_per_field_path(self, tmp_path, monkeypatch):
        # the speed of loading rests on the accept pass taking every valid line
        def refuse(obj, line):
            raise AssertionError(f"line {line} took the per-field path")

        predictions, _ = generate(SynthConfig(n=200, seed=3, abstain_rate=0.2,
                                              paraphrase_cluster_rate=0.5))
        dump_predictions(predictions, str(tmp_path / "synth.jsonl"))
        monkeypatch.setattr(selqa_io, "_prediction_from_obj", refuse)
        paths = [DATA_DIR / "golden_predictions.jsonl", DATA_DIR / "trigger_predictions.jsonl",
                 tmp_path / "synth.jsonl"]
        for path in paths:
            assert load_predictions(str(path))
        assert load_predictions(str(tmp_path / "synth.jsonl")) == predictions

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


def multi_chunk_gold():
    """A gold file of several 64 KiB chunks whose two-byte letters straddle chunk ends."""
    records = [
        {"question_id": f"q{i}", "answerable": i % 3 != 0,
         "answers": [{"answer": "żółć " * (i % 7 + 1)}, {"answer": "x"}]}
        for i in range(2000)
    ]
    data = json.dumps(records, ensure_ascii=False, indent=1).encode()
    assert len(data) > 4 * 2**16
    return records, data


_VALID = '{"question_id": "q1", "answers": [{"answer": "a"}]}'


@pytest.fixture(scope="class")
def gold_path(tmp_path_factory):
    return tmp_path_factory.mktemp("gold") / "g.json"


_gold_arrays = st.lists(
    st.fixed_dictionaries(
        {"question_id": st.text(max_size=6),
         "answers": st.lists(st.fixed_dictionaries(
             {"answer": st.text(max_size=10)},
             optional={"answerable": st.booleans(), "answer_confidence": st.just("yes")},
         ), min_size=1, max_size=3)},
        optional={"answerable": st.booleans()},
    ),
    max_size=5, unique_by=lambda record: record["question_id"],
)
_valid_gold = st.builds(
    lambda records, indent, ascii: json.dumps(records, indent=indent, ensure_ascii=ascii).encode(),
    _gold_arrays, st.sampled_from([None, 0, 2]), st.booleans(),
)
# valid files, each with a few of its bytes replaced, and arbitrary bytes
_gold_bytes = st.one_of(
    _valid_gold,
    st.builds(lambda data, at, new: data[:at % (len(data) + 1)] + new + data[at % (len(data) + 1) + 1:],
              _valid_gold, st.integers(0, 500), st.binary(max_size=2)),
    st.binary(max_size=200),
)


def _read(index):
    """A gold index as each id's (answers, answerable), through selqa.io's readers."""
    return {qid: (gold_answers(entry), gold_answerable(entry)) for qid, entry in index.items()}


def _whole_file_index(records):
    """The gold index of a parsed array, built from the format's rules, as _read gives it."""
    return {
        r["question_id"]: (
            tuple(dict.fromkeys(normalize_answer(a["answer"]) for a in r["answers"])),
            any(a.get("answerable", r.get("answerable", True)) for a in r["answers"]),
        )
        for r in records
    }


class TestGoldStreaming:
    """The gold file is read in chunks; results and errors match a whole-file parse."""

    def test_records_across_chunks(self, tmp_path):
        records, data = multi_chunk_gold()
        path = tmp_path / "g.json"
        path.write_bytes(data)
        loaded = load_gold(str(path))
        assert [g.question_id for g in loaded] == [r["question_id"] for r in records]
        assert [[a.answer for a in g.annotations] for g in loaded] == [
            [a["answer"] for a in r["answers"]] for r in records
        ]
        assert [g.answerable for g in loaded] == [r["answerable"] for r in records]

    @pytest.mark.parametrize("at", [0.3, 0.6, 0.95])
    def test_invalid_utf8_offset_past_the_first_chunk(self, tmp_path, at):
        _, data = multi_chunk_gold()
        cut = data.index(b'"x"', int(len(data) * at)) + 1
        data = data[:cut] + b"\xff" + data[cut + 1:]
        with pytest.raises(UnicodeDecodeError) as whole:
            data.decode("utf-8")
        path = tmp_path / "g.json"
        path.write_bytes(data)
        with pytest.raises(ParseError) as err:
            load_gold(str(path))
        assert str(err.value) == f"{path}: byte {cut}: invalid UTF-8: {whole.value}"

    @pytest.mark.parametrize("at", [0.3, 0.6, 0.95])
    def test_json_error_offset_past_the_first_chunk(self, tmp_path, at):
        _, data = multi_chunk_gold()
        cut = data.index(b"},", int(len(data) * at)) + 1
        data = data[:cut] + b";" + data[cut + 1:]
        text = data.decode("utf-8")
        with pytest.raises(json.JSONDecodeError) as whole:
            json.loads(text)
        offset = len(text[: whole.value.pos].encode("utf-8"))
        path = tmp_path / "g.json"
        path.write_bytes(data)
        with pytest.raises(ParseError) as err:
            load_gold(str(path))
        assert str(err.value) == f"{path}: byte {offset}: invalid JSON: {whole.value.msg}"

    @pytest.mark.parametrize("text", [
        "", "  ", "[", "[}", "\ufeff[]", "[%s %s]" % (_VALID, _VALID), "[%s,]" % _VALID,
        "[%s] x" % _VALID,
    ])
    def test_framing_errors_match_a_whole_file_parse(self, tmp_path, text):
        path = write(tmp_path / "g.json", text)
        with pytest.raises(json.JSONDecodeError) as whole:
            json.loads(text)
        with pytest.raises(ParseError) as err:
            load_gold(path)
        offset = len(text[: whole.value.pos].encode("utf-8"))
        assert str(err.value) == f"{path}: byte {offset}: invalid JSON: {whole.value.msg}"

    def test_not_an_array(self, tmp_path):
        with pytest.raises(ParseError, match=r"g\.json: top level: gold file is not a JSON array"):
            load_gold(write(tmp_path / "g.json", '{"question_id": "q1"}'))

    @pytest.mark.parametrize("bad_tail", [False, True])
    def test_deep_nesting_in_a_record_past_the_first_chunk(self, tmp_path, bad_tail):
        # reported at the record where the stream met it, even when bytes far
        # past it, which the stream never reads, are not UTF-8
        _, data = multi_chunk_gold()
        if bad_tail:
            cut = data.rindex(b'"x"') + 1
            data = data[:cut] + b"\xff" + data[cut + 1:]
        at = data.index(b"\n {", 3 * 2**16) + 2
        deep = b'{"question_id": "d", "answers": %s},' % (b"[" * 100_000 + b"]" * 100_000)
        path = tmp_path / "g.json"
        path.write_bytes(data[:at] + deep + data[at:])
        with pytest.raises(ParseError) as err:
            load_gold(str(path))
        assert str(err.value) == f"{path}: byte {at}: invalid JSON: nested too deeply"

    def test_deep_nesting_at_the_top_level_of_a_non_array(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_bytes(b' {"a": %s}' % (b"[" * 100_000 + b"]" * 100_000))
        with pytest.raises(ParseError) as err:
            load_gold(str(path))
        assert str(err.value) == f"{path}: byte 1: invalid JSON: nested too deeply"

    def test_long_integer_past_the_first_chunk(self, tmp_path):
        # ASCII, so that every chunk ends at the same byte however it is read,
        # and the record's 5,000 digits lie inside one chunk
        records, _ = multi_chunk_gold()
        data = json.dumps(records, indent=1).encode()
        at = data.index(b"\n {", 2 * 2**16 + 1000) + 2
        assert data.index(b"\n {", at) + 5100 < 3 * 2**16
        huge = b'{"question_id": "n", "n": 1%s, "answers": [{"answer": "x"}]},' % (b"0" * 4999)
        path = tmp_path / "g.json"
        path.write_bytes(data[:at] + huge + data[at:])
        with pytest.raises(ValueError) as limit:
            int("1" + "0" * 4999)
        with pytest.raises(ParseError) as err:
            load_gold(str(path))
        assert str(err.value) == f"{path}: byte {at}: invalid JSON: {limit.value}"

    @pytest.mark.parametrize("at,utf8_wins", [(30_000, True), (200_000, False)])
    def test_bad_record_0_and_invalid_utf8(self, tmp_path, at, utf8_wins):
        # invalid UTF-8 in the chunk holding record 0 is met before record 0
        # is checked; in a later chunk it is never reached
        records, _ = multi_chunk_gold()
        records[0]["answers"] = []
        data = json.dumps(records, ensure_ascii=False, indent=1).encode()
        cut = data.index(b'"x"', at) + 1
        data = data[:cut] + b"\xff" + data[cut + 1:]
        with pytest.raises(UnicodeDecodeError) as whole:
            data.decode("utf-8")
        path = tmp_path / "g.json"
        path.write_bytes(data)
        with pytest.raises(ParseError) as err:
            load_gold_index(str(path))
        if utf8_wins:
            assert str(err.value) == f"{path}: byte {cut}: invalid UTF-8: {whole.value}"
        else:
            assert str(err.value) == f"{path}: record 0: gold record 'q0' has no answers"

    def test_index_matches_load_gold(self, tmp_path):
        _, data = multi_chunk_gold()
        path = tmp_path / "g.json"
        path.write_bytes(data)
        index = _read(load_gold_index(str(path)))
        expected = {
            g.question_id: (
                tuple(dict.fromkeys(normalize_answer(a.answer) for a in g.annotations)),
                g.answerable,
            )
            for g in load_gold(str(path))
        }
        assert index == expected
        assert list(index) == list(expected)

    def test_index_rejects_a_duplicate_id(self, tmp_path):
        data = [{"question_id": q, "answers": [{"answer": "x"}]} for q in ("a", "b", "a")]
        path = write(tmp_path / "g.json", json.dumps(data))
        with pytest.raises(DuplicateKeyError) as err:
            load_gold_index(path)
        assert str(err.value) == f"{path}: record 2: duplicate question_id 'a'"

    def test_index_retains_under_200_bytes_an_entry(self, tmp_path):
        # an entry as a tuple of answer strs and a bool retained about 366 bytes
        n = 2000
        _, gold = generate(SynthConfig(n=n, seed=1))  # the gold file of `selqa synth --n 2000`
        path = str(tmp_path / "g.json")
        dump_gold(gold, path)
        load_gold_index(path)  # imports and caches filled on first use are not the index's
        gc.collect()
        tracemalloc.start()
        try:
            index = load_gold_index(path)
            gc.collect()
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(index) == n
        assert retained / n < 200, retained / n

    @pytest.mark.parametrize("load", [load_gold, load_gold_index])
    def test_an_empty_question_id_is_refused(self, tmp_path, load):
        data = [{"question_id": q, "answers": [{"answer": "x"}]} for q in ("a", "", "b")]
        path = write(tmp_path / "g.json", json.dumps(data))
        with pytest.raises(ParseError) as err:
            load(path)
        assert str(err.value) == f"{path}: record 1: empty question_id"

    def test_valid_files_are_never_parsed_whole(self, tmp_path, monkeypatch):
        # the whole-file parse is only for naming an error; a valid file that
        # took it would be held whole in memory
        def refuse(f, path):
            raise AssertionError(f"{path} was parsed whole")

        monkeypatch.setattr(selqa_io, "_whole_file_error", refuse)
        _, data = multi_chunk_gold()
        (tmp_path / "multi.json").write_bytes(data)
        _, gold = generate(SynthConfig(n=2000, seed=3))
        dump_gold(gold, str(tmp_path / "synth.json"))
        for path in (DATA_DIR / "golden_gold.json", DATA_DIR / "trigger_gold.json",
                     tmp_path / "multi.json", tmp_path / "synth.json"):
            assert load_gold(str(path))
            assert load_gold_index(str(path))

    @settings(max_examples=300, deadline=None)
    @given(data=_gold_bytes, chunk=st.integers(1, 64))
    def test_any_bytes_give_an_index_or_a_data_error(self, gold_path, data, chunk):
        # small chunks put a chunk end inside every token of a short file
        gold_path.write_bytes(data)
        with patch.object(selqa_io, "_CHUNK", chunk):
            try:
                index = load_gold_index(str(gold_path))
            except DataError:
                return
        assert _read(index) == _whole_file_index(json.loads(data.decode("utf-8")))

    @settings(max_examples=200, deadline=None)
    @given(data=_valid_gold, chunk=st.integers(1, 64))
    def test_a_valid_array_gives_the_whole_file_index(self, gold_path, data, chunk):
        gold_path.write_bytes(data)
        records = json.loads(data.decode("utf-8"))
        # an empty question_id is the one thing the strategy draws that the format refuses
        empty = next((i for i, r in enumerate(records) if not r["question_id"]), None)
        with patch.object(selqa_io, "_CHUNK", chunk):
            if empty is not None:
                with pytest.raises(ParseError) as err:
                    load_gold_index(str(gold_path))
                assert str(err.value) == f"{gold_path}: record {empty}: empty question_id"
                return
            index = load_gold_index(str(gold_path))
        assert _read(index) == _whole_file_index(records)


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

    def test_pairs_keep_their_gold_records(self):
        gold = [gold_record("b"), GoldRecord("a", (GoldAnnotation("y", False),))]
        pairs, summary = join([prediction("a"), prediction("c"), prediction("b")], gold)
        assert [(p.question_id, g) for p, g in pairs] == [("a", gold[1]), ("b", gold[0])]
        assert summary.describe() == "matched 2; 1 predictions unmatched (c)"


class _Item(NamedTuple):
    question_id: str
    line: int


_IDS = [f"q{i}" for i in range(14)]  # more than JoinSummary.MAX_IDS


class TestJoinStream:
    """The join marks matched entries in place of a set of every id it has seen."""

    @settings(max_examples=300, deadline=None)
    @given(gold_ids=st.lists(st.sampled_from(_IDS), unique=True),
           ids=st.one_of(st.lists(st.sampled_from(_IDS), unique=True),
                         st.lists(st.sampled_from(_IDS), max_size=30)))
    def test_equals_a_seen_set_join(self, gold_ids, ids):
        index = {qid: pack_gold([qid], True) for qid in gold_ids}
        summary = JoinSummary()
        got, error = [], None
        try:
            for item in join_stream(map(_Item, ids, range(1, len(ids) + 1)), index, summary,
                                    "p.jsonl"):
                got.append(item.question_id)
        except DuplicateKeyError as exc:
            error = str(exc)
        matched, fields, expected_error = seen_join(ids, gold_ids, "p.jsonl")
        assert (got, error) == (matched, expected_error)
        if fields is not None:
            assert (summary.n_matched, summary.n_unmatched_predictions, summary.n_unmatched_gold,
                    summary.unmatched_predictions, summary.unmatched_gold) == fields
        # a marked entry reads as it did
        assert all(gold_answers(index[qid]) == (qid,) and gold_answerable(index[qid])
                   for qid in gold_ids)

    def test_a_match_keeps_the_entry_size(self):
        for answers in (["żółć", "x"], ["日本"], ["the"], ["😀 x"]):
            entry = pack_gold(answers, False)
            index = {"q": entry}
            assert list(join_stream([_Item("q", 1)], index, JoinSummary())) == [_Item("q", 1)]
            assert index["q"] != entry
            assert sys.getsizeof(index["q"]) == sys.getsizeof(entry)
            assert (gold_answers(index["q"]), gold_answerable(index["q"])) == (
                distinct_normalized(answers), False)

    def test_a_repeat_without_a_path_names_the_id(self):
        summary = JoinSummary()
        with pytest.raises(DuplicateKeyError) as err:
            list(join_stream([_Item("a", 1), _Item("a", 2)], {}, summary))
        assert str(err.value) == "duplicate question_id in predictions: 'a'"


_RAW_ANSWERS = st.lists(
    st.one_of(
        st.sampled_from(["the", "", " ", "a an", "The Cat", "cat", "cat\u2028dog", "cat dog",
                         "\u3000cat\u3000", "dog.", "x\ny", "x y", "\x1c", "\x85the\u2029"]),
        st.text(alphabet=st.sampled_from("ab \n\t\u2028\u3000\x1c\x85.-"), max_size=6),
        st.text(max_size=8),
    ),
    min_size=1, max_size=8,
)


class TestGoldEntries:
    """A packed entry reads back as the tuple distinct_normalized gives."""

    @settings(max_examples=500, deadline=None)
    @given(raws=_RAW_ANSWERS, answerable=st.booleans(), others=st.lists(st.text(max_size=6)))
    def test_reader_and_exact_match_equal_the_tuple(self, raws, answerable, others):
        golds = distinct_normalized(raws)
        entry = pack_gold(raws, answerable)
        assert gold_answers(entry) == golds
        assert gold_answerable(entry) is answerable
        for raw in [*raws, *others, "", "cat", "cat dog"]:
            prediction = normalize_answer(raw)
            assert gold_has(entry, prediction) is (prediction in golds)

    def test_an_answer_that_normalizes_to_nothing_round_trips(self):
        entry = pack_gold(["the", "cat"], True)
        assert gold_answers(entry) == ("", "cat")
        assert gold_has(entry, "") and gold_has(entry, "cat") and not gold_has(entry, "ca")
        assert not gold_has(pack_gold(["cat"], True), "")

    def test_a_record_packs_as_its_answers(self):
        g = GoldRecord("q", (GoldAnnotation("A cat", False), GoldAnnotation("cat", True),
                             GoldAnnotation("dog", False)))
        assert gold_entry(g) == pack_gold(["A cat", "cat", "dog"], True)


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
