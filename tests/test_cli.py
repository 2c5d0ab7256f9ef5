import gc
import json
import os
import stat
import tempfile
import threading
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import selqa.cli as cli
from selqa import EvalPoint, build_report, metrics, score_all, scoring
from selqa import io as selqa_io
from selqa._columns import Columns
from selqa.cli import main
from selqa.io import emit_report, join, load_gold, load_predictions

from conftest import DATA_DIR, adapter_cmd, logged_requests, run_python


def run(*argv) -> int:
    return main(list(argv))


GOLDEN_PRED = str(DATA_DIR / "golden_predictions.jsonl")
GOLDEN_GOLD = str(DATA_DIR / "golden_gold.json")

# A dump line whose id the golden gold file lacks, so it is never scored.
_LINE_1 = b'{"question_id":"q1","greedy":{"text":"a","logprobs":[-1]}}\n'
# JSON nested far past the decoder's recursion limit.
_DEEP = b"[" * 100_000 + b"]" * 100_000


class TestEvaluate:
    def test_golden_report(self, tmp_path):
        out = tmp_path / "report.md"
        code = run("evaluate", "--predictions", GOLDEN_PRED, "--gold", GOLDEN_GOLD,
                   "--out", str(out))
        assert code == 0
        assert out.read_bytes() == (DATA_DIR / "golden_report.md").read_bytes()

    @pytest.mark.parametrize("flags,golden", [
        (["--format", "csv"], "golden_report.csv"),
        (["--classifier", "bleu-threshold", "--format", "json"], "golden_report_bleu.json"),
    ])
    def test_golden_report_variants(self, tmp_path, flags, golden):
        out = tmp_path / "report"
        assert run("evaluate", "--predictions", GOLDEN_PRED, "--gold", GOLDEN_GOLD, *flags,
                   "--out", str(out)) == 0
        assert out.read_bytes() == (DATA_DIR / golden).read_bytes()

    def test_golden_report_matches_library_composition(self, tmp_path):
        # rebuild the exact report through the library API
        pairs, _ = join(load_predictions(GOLDEN_PRED), load_gold(GOLDEN_GOLD))
        scored = [score_all(p, g) for p, g in pairs]
        report = build_report(
            scored,
            methods=["likelihood", "repetition", "diversity", "avg-bleu"],
            acc_targets=[60.0, 70.0, 80.0],
            meta={"classifier": "em", "bins": "10", "similarity": "bleu"},
        )
        assert emit_report(report, "markdown") == (DATA_DIR / "golden_report.md").read_bytes()
        assert emit_report(report, "json") == (DATA_DIR / "golden_report.json").read_bytes()

    def test_two_runs_identical_output(self, tmp_path):
        outputs = []
        for attempt in ("a", "b"):
            out = tmp_path / f"report-{attempt}.json"
            curves = tmp_path / f"curves-{attempt}"
            assert run("evaluate", "--predictions", GOLDEN_PRED, "--gold", GOLDEN_GOLD,
                       "--format", "json", "--out", str(out),
                       "--curves-out", str(curves)) == 0
            curve_bytes = {p.name: p.read_bytes() for p in sorted(curves.iterdir())}
            outputs.append((out.read_bytes(), curve_bytes))
        assert outputs[0] == outputs[1]
        assert outputs[0][0] == (DATA_DIR / "golden_report.json").read_bytes()

    def test_golden_curves(self, tmp_path):
        curves = tmp_path / "curves"
        assert run("evaluate", "--predictions", GOLDEN_PRED, "--gold", GOLDEN_GOLD,
                   "--out", str(tmp_path / "report.md"), "--curves-out", str(curves)) == 0
        expected = DATA_DIR / "golden_curves"
        got = {p.name: p.read_bytes() for p in sorted(curves.iterdir())}
        assert got == {p.name: p.read_bytes() for p in sorted(expected.iterdir())}
        assert sorted(got) == ["avg-bleu.csv", "diversity.csv", "likelihood.csv",
                               "repetition.csv"]

    def test_leaves_numpy_unimported(self, tmp_path):
        # only synth needs numpy; evaluate must not pay for importing it, nor
        # for pickle or multiprocessing, which forked shards do without
        script = (
            "import sys\n"
            "from selqa.cli import main\n"
            "print(*(m in sys.modules for m in ('pickle', 'multiprocessing')))\n"
            f"code = main(['evaluate', '--predictions', {GOLDEN_PRED!r}, '--gold', "
            f"{GOLDEN_GOLD!r}, '--out', {str(tmp_path / 'report.md')!r}])\n"
            "print(code, 'numpy' in sys.modules)\n"
        )
        proc = run_python(["-c", script], timeout=60)
        assert proc.stdout == "False False\n0 False\n", proc.stderr
        assert (tmp_path / "report.md").read_bytes() == (DATA_DIR / "golden_report.md").read_bytes()

    def test_single_method_projection(self, tmp_path, capsys):
        assert run("evaluate", "--predictions", GOLDEN_PRED, "--gold", GOLDEN_GOLD,
                   "--methods", "likelihood", "--format", "csv") == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("method,")
        assert len(lines) == 2 and lines[1].startswith("likelihood,")

    def test_missing_gold_file_is_data_error(self, tmp_path, capsys):
        code = run("evaluate", "--predictions", GOLDEN_PRED, "--gold",
                   str(tmp_path / "nope.json"))
        assert code == 2
        assert "nope.json" in capsys.readouterr().err

    def test_unknown_method_rejected_before_io(self, tmp_path, capsys):
        # the predictions path does not even exist: validation must come first
        code = run("evaluate", "--predictions", str(tmp_path / "ghost.jsonl"),
                   "--gold", GOLDEN_GOLD, "--methods", "entropy")
        assert code == 1
        assert "unknown scoring method" in capsys.readouterr().err

    @pytest.mark.parametrize("subcommand", ["evaluate", "score", "sweep"])
    @pytest.mark.parametrize("command, reason", [
        ("'unterminated", "--adapter-cmd \"'unterminated\": No closing quotation"),
        ("   ", "--adapter-cmd '   ': the command names no program"),
        ("", "--adapter-cmd '': the command names no program"),
    ])
    def test_adapter_cmd_without_argv_rejected_before_io(
        self, tmp_path, capsys, subcommand, command, reason
    ):
        code = run(subcommand, "--predictions", str(tmp_path / "ghost.jsonl"),
                   "--gold", str(tmp_path / "ghost.json"), "--adapter-cmd", command)
        assert code == 1
        assert capsys.readouterr().err == f"usage error: {reason}\n"

    @pytest.mark.parametrize("subcommand,gold", [
        ("evaluate", True), ("score", True), ("score", False), ("sweep", True),
    ])
    @pytest.mark.parametrize("flags,reason", [
        (["--threshold", "2"], "--threshold must lie in [0, 1]"),
        (["--threshold", "nan", "--classifier", "bleu-threshold"],
         "--threshold must lie in [0, 1]"),
        (["--classifier", "adapter-threshold"],
         "--classifier adapter-threshold requires --adapter-cmd"),
    ], ids=["threshold-2", "threshold-nan", "adapter-threshold-without-adapter"])
    def test_classifier_flags_rejected_before_io(
        self, tmp_path, capsys, subcommand, gold, flags, reason
    ):
        # score checks them without --gold too, where no classifier is built
        inputs = ["--predictions", str(tmp_path / "ghost.jsonl")]
        if gold:
            inputs += ["--gold", str(tmp_path / "ghost.json")]
        assert run(subcommand, *inputs, *flags) == 1
        assert capsys.readouterr().err == f"usage error: {reason}\n"

    @pytest.mark.parametrize("flags,reason", [
        (["--bins", "0"], "--bins must be >= 1"),
        (["--acc-targets", "x"], "bad --acc-targets: 'x'"),
        # both print as c@60: one report key and two columns of that name
        (["--acc-targets", "60,60.00000001"],
         "--acc-targets 60.0 and 60.00000001 share the label '60'"),
    ])
    def test_report_flags_rejected_before_io(self, tmp_path, capsys, flags, reason):
        code = run("evaluate", "--predictions", str(tmp_path / "ghost.jsonl"),
                   "--gold", str(tmp_path / "ghost.json"), *flags)
        assert code == 1
        assert capsys.readouterr().err == f"usage error: {reason}\n"

    @pytest.mark.parametrize("format", ["markdown", "json", "csv"])
    def test_a_repeated_target_is_one_column(self, tmp_path, format):
        reports = []
        for targets in ("60,60", "60"):
            out = tmp_path / f"report-{targets}"
            assert run("evaluate", "--predictions", GOLDEN_PRED, "--gold", GOLDEN_GOLD,
                       "--acc-targets", targets, "--format", format, "--out", str(out)) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("subcommand", ["evaluate", "score", "sweep"])
    @pytest.mark.parametrize("name", ["a,b", "p|q", 'say "x"', "tab\tstop", "new\nline"],
                             ids=["comma", "pipe", "quote", "tab", "newline"])
    def test_adapter_name_that_breaks_a_table_rejected_before_io(
        self, tmp_path, capsys, subcommand, name
    ):
        code = run(subcommand, "--predictions", str(tmp_path / "ghost.jsonl"),
                   "--gold", str(tmp_path / "ghost.json"),
                   "--adapter-cmd", " ".join(adapter_cmd("jaccard")), "--adapter-name", name)
        assert code == 1
        assert capsys.readouterr().err == (
            f"usage error: --adapter-name {name!r}: a name may not hold "
            "',', '\"', '|' or a non-printable character\n"
        )

    def test_bad_targets_rejected(self, capsys):
        code = run("evaluate", "--predictions", GOLDEN_PRED, "--gold", GOLDEN_GOLD,
                   "--acc-targets", "0,60")
        assert code == 1

    def test_no_partial_output_on_failure(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"question_id":"a","greedy":{"text":"x","logprobs":[0.5]},"samples":[]}\n')
        out = tmp_path / "report.md"
        code = run("evaluate", "--predictions", str(bad), "--gold", GOLDEN_GOLD,
                   "--out", str(out))
        assert code == 2
        assert list(tmp_path.iterdir()) == [bad]  # no report and no temp file

    @pytest.mark.parametrize("to_stdout", [False, True])
    def test_failed_write_leaves_no_artifacts(self, tmp_path, capsys, to_stdout):
        # the adapter's method names a curve file too long for the file system,
        # after the report and three curves could have been written
        out, curves = tmp_path / "report.md", tmp_path / "curves"
        name = "x" * 300
        argv = ["evaluate", "--predictions", GOLDEN_PRED, "--gold", GOLDEN_GOLD,
                "--curves-out", str(curves), "--adapter-cmd", " ".join(adapter_cmd("em")),
                "--adapter-name", name]
        code = run(*argv, *([] if to_stdout else ["--out", str(out)]))
        assert code == 2
        assert list(tmp_path.iterdir()) == []  # no file, and no curves directory
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"io error: [Errno 36] File name too long: '{curves / ('avg-' + name)}.csv'\n"
        )

    def test_failed_write_removes_only_the_directories_it_made(self, tmp_path, capsys):
        kept = tmp_path / "kept"
        kept.mkdir()
        out = tmp_path / "nodir" / "x.md"
        code = run("evaluate", "--predictions", GOLDEN_PRED, "--gold", GOLDEN_GOLD,
                   "--out", str(out), "--curves-out", str(kept / "new" / "curves"))
        assert code == 2
        assert capsys.readouterr().err == (
            f"io error: [Errno 2] No such file or directory: '{out}'\n"
        )
        assert list(tmp_path.rglob("*")) == [kept]

    def test_directory_target_fails_before_any_rename(self, tmp_path, capsys, monkeypatch):
        # the curves would be renamed first, and the report last
        monkeypatch.chdir(tmp_path)
        (tmp_path / "results").mkdir()
        code = run("evaluate", "--predictions", GOLDEN_PRED, "--gold", GOLDEN_GOLD,
                   "--out", "results", "--curves-out", "curves")
        assert code == 2
        assert capsys.readouterr().err == "io error: [Errno 21] Is a directory: 'results'\n"
        assert list(tmp_path.rglob("*")) == [tmp_path / "results"]

    def test_output_name_of_255_bytes_is_written(self, tmp_path):
        out = tmp_path / ("x" * 255)
        assert run("score", "--predictions", GOLDEN_PRED, "--out", str(out)) == 0
        assert out.read_bytes() == (DATA_DIR / "golden_score.jsonl").read_bytes()
        assert list(tmp_path.iterdir()) == [out]

    def test_output_name_of_256_bytes_is_refused(self, tmp_path, capsys):
        out = tmp_path / ("x" * 256)
        assert run("score", "--predictions", GOLDEN_PRED, "--out", str(out)) == 2
        assert capsys.readouterr().err == f"io error: [Errno 36] File name too long: '{out}'\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_named_pipe_target_is_written_not_replaced(self, tmp_path):
        fifo = tmp_path / "report.md"
        os.mkfifo(fifo)
        # opened first and without blocking, so the run's open for writing does not wait
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            code = run("evaluate", "--predictions", GOLDEN_PRED, "--gold", GOLDEN_GOLD,
                       "--out", str(fifo))
            data = os.read(reader, 1 << 16)
        finally:
            os.close(reader)
        assert code == 0
        assert data == (DATA_DIR / "golden_report.md").read_bytes()
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert list(tmp_path.iterdir()) == [fifo]

    def test_symlink_target_is_followed(self, tmp_path):
        # staged beside the link's target, in another directory, and renamed over it
        (tmp_path / "links").mkdir()
        (tmp_path / "reports").mkdir()
        link, target = tmp_path / "links" / "report.md", tmp_path / "reports" / "r.md"
        target.write_bytes(b"an older report\n")
        link.symlink_to(target)
        assert run("evaluate", "--predictions", GOLDEN_PRED, "--gold", GOLDEN_GOLD,
                   "--out", str(link)) == 0
        assert link.is_symlink() and link.resolve() == target
        assert target.read_bytes() == (DATA_DIR / "golden_report.md").read_bytes()
        assert sorted(tmp_path.rglob("*")) == [tmp_path / "links", link,
                                               tmp_path / "reports", target]

    @pytest.mark.parametrize("subcommand", ["evaluate", "score", "sweep"])
    def test_io_error_names_the_requested_path(self, tmp_path, capsys, subcommand):
        out = tmp_path / "nodir" / "x.md"
        code = run(subcommand, "--predictions", GOLDEN_PRED, "--gold", GOLDEN_GOLD,
                   "--out", str(out))
        assert code == 2
        assert capsys.readouterr().err == (
            f"io error: [Errno 2] No such file or directory: '{out}'\n"
        )
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("side,data,where,reason", [
        ("predictions", b'{"question_id":"q1","greedy":{"text":"a","logprobs":[-1]}}\n'
         b'{"question_id":"q2","greedy":{"text":"b","logprobs":[-1]}}\n'
         b'{"question_id":"q3","greedy":{"text":"\xff","logprobs":[-1]}}\n', "line 3",
         "invalid UTF-8"),
        ("gold", b'[\n{"question_id":"q1","answers":[{"answer":"a"}]},\n"\xff"]\n', "byte 52",
         "invalid UTF-8"),
        ("gold", b'[{"question_id":"q1","answers":[]}]\n', "record 0", "gold record 'q1'"),
        # the stray "}" is character 54 but byte 58: each letter of "żółć" is two bytes
        ("gold", '[{"question_id": "żółć", "answers": [{"answer": "x"}]}}]\n'.encode(),
         "byte 58", "invalid JSON"),
        ("predictions", _LINE_1 + b'{"question_id":"q2","meta":' + _DEEP + b'}\n', "line 2",
         "invalid JSON: nested too deeply"),
        ("gold", b"[" + _DEEP + b"]\n", "byte 1", "invalid JSON: nested too deeply"),
        # an integer beyond float range is infinite, like the float -1e400
        ("predictions", b'{"question_id":"q1","greedy":{"text":"a","logprobs":[-1%s]}}\n'
         % (b"0" * 400), "line 1", "greedy: logprob not finite at token 0"),
        # past Python's 4300-digit limit an integer does not even parse
        ("predictions", b'{"question_id":"q1","greedy":{"text":"a","logprobs":[-1%s]}}\n'
         % (b"0" * 5000), "line 1", "invalid JSON: Exceeds the limit"),
        ("gold", b'[{"question_id":"q1","answers":[{"answer":"a"}],"n":1%s}]\n' % (b"0" * 5000),
         "byte 1", "invalid JSON: Exceeds the limit"),
        # a lone surrogate escape cannot be written as UTF-8; a valid pair can
        ("predictions", _LINE_1.replace(b'"a"', b'"\\ud83d\\ude00"')
         + b'{"question_id":"q2\\ud800","greedy":{"text":"a","logprobs":[-1]}}\n', "line 2",
         "invalid Unicode: lone surrogate '\\ud800'"),
        ("gold", b'[{"question_id":"q1","answers":[{"answer":"\\ud83d\\ude00"}]},'
         b'{"question_id":"q2","answers":[{"answer":"a\\udc00"}]}]\n', "record 1",
         "invalid Unicode: lone surrogate '\\udc00'"),
        # lines and records the per-field checks refuse
        ("predictions", b"[1]\n", "line 1", "record is not a JSON object"),
        ("predictions", _LINE_1.replace(b"}}", b'},"samples":{}}'), "line 1",
         "samples is not an array"),
        ("predictions", _LINE_1.replace(b'"a"', b"1"), "line 1", "greedy.text is not a string"),
        ("predictions", _LINE_1.replace(b"[-1]", b'"x"'), "line 1",
         "greedy.logprobs is not an array of numbers"),
        ("predictions", _LINE_1.replace(b"}}", b'},"meta":{"m":1}}'), "line 1",
         "meta must map strings to strings"),
        ("predictions", _LINE_1.replace(b'"q1"', b"1"), "line 1", "question_id is not a string"),
        ("gold", b'[{"question_id":"q1","answers":[{"answer":"a"}],"answerable":1}]\n',
         "record 0", "answerable is not a boolean"),
        ("gold", b'[{"question_id":"q1","answers":[{"answer":"a","answerable":"yes"}]}]\n',
         "record 0", "answers[0].answerable is not a boolean"),
        ("gold", b'[{"question_id":"q1","answers":[{"answer":"a","answer_confidence":1}]}]\n',
         "record 0", "answers[0].answer_confidence is not a string"),
    ], ids=["predictions-utf8", "gold-utf8", "gold-no-answers", "gold-json-multibyte",
            "predictions-deep-nesting", "gold-deep-nesting", "predictions-huge-logprob",
            "predictions-long-integer", "gold-long-integer", "predictions-lone-surrogate",
            "gold-lone-surrogate", "predictions-not-an-object", "predictions-samples-object",
            "predictions-int-text", "predictions-str-logprobs", "predictions-int-meta-value",
            "predictions-int-question-id", "gold-int-answerable",
            "gold-str-answer-answerable", "gold-int-answer-confidence"])
    def test_bad_input_is_a_data_error(self, tmp_path, capsys, side, data, where, reason):
        path = tmp_path / "bad"
        path.write_bytes(data)
        inputs = {"predictions": GOLDEN_PRED, "gold": GOLDEN_GOLD, side: str(path)}
        for command in ("evaluate", "score"):
            code = run(command, "--predictions", inputs["predictions"], "--gold", inputs["gold"],
                       "--out", str(tmp_path / "out"))
            assert code == 2
            err = capsys.readouterr().err
            assert err.startswith(f"data error: {path}: {where}: "), err
            assert reason in err
            assert not (tmp_path / "out").exists()

    def test_adapter_backed_methods(self, tmp_path):
        out = tmp_path / "report.json"
        code = run("evaluate", "--predictions", GOLDEN_PRED, "--gold", GOLDEN_GOLD,
                   "--adapter-cmd", " ".join(adapter_cmd("jaccard")),
                   "--adapter-name", "jaccard",
                   "--methods", "likelihood,avg-bleu",
                   "--format", "json", "--out", str(out))
        assert code == 0
        payload = json.loads(out.read_text())
        assert set(payload["methods"]) == {"likelihood", "avg-jaccard"}

    def test_adapter_failure_exit_code(self, capsys):
        code = run("evaluate", "--predictions", GOLDEN_PRED, "--gold", GOLDEN_GOLD,
                   "--adapter-cmd", " ".join(adapter_cmd("error")),
                   "--methods", "avg-bleu")
        assert code == 3
        assert "adapter" in capsys.readouterr().err

    def test_boolean_adapter_score_is_an_adapter_error(self, capsys):
        # a JSON true is not the score 1.0
        code = run("evaluate", "--predictions", GOLDEN_PRED, "--gold", GOLDEN_GOLD,
                   "--adapter-cmd", " ".join(adapter_cmd("json:true")),
                   "--methods", "avg-bleu")
        assert code == 3
        assert "adapter score is not a number: True" in capsys.readouterr().err


def _scorable(qid: str) -> str:
    return ('{"question_id":"%s","greedy":{"text":"red apple","logprobs":[-0.1]},'
            '"samples":[{"text":"red apple","logprobs":[-0.5]},'
            '{"text":"red car","logprobs":[-1.5]}]}' % qid)


@pytest.mark.parametrize("command,line,gold_id,reason", [
    ("evaluate", _scorable("q1"), "q2",
     "no overlapping question ids between predictions and gold"),
    # the greedy answer abstains
    ("sweep", _scorable("q1").replace("red apple", "unanswerable", 1), "q1",
     "nothing triggered; no operating points to sweep"),
], ids=["no-overlap", "nothing-triggered"])
def test_nothing_to_report_is_a_data_error(tmp_path, capsys, command, line, gold_id, reason):
    pred, gold = tmp_path / "p.jsonl", tmp_path / "g.json"
    pred.write_text(line + "\n")
    gold.write_text(json.dumps([{"question_id": gold_id, "answers": [{"answer": "red apple"}]}]))
    assert run(command, "--predictions", str(pred), "--gold", str(gold),
               "--out", str(tmp_path / "out")) == 2
    assert capsys.readouterr().err.endswith(f"data error: {reason}\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("encoding", ["ascii", "latin-1", "utf-16"])
@pytest.mark.parametrize("command", ["evaluate", "score"])
def test_stdout_gets_the_bytes_out_gets(tmp_path, command, encoding):
    # the markdown report's "—" (nothing answered) and the id's "ż" have no ascii or
    # latin-1 form, and utf-16 would encode them, and every other character, apart
    line = _scorable("q-ż").replace("red apple", "unanswerable", 1)
    pred, gold = tmp_path / "p.jsonl", tmp_path / "g.json"
    pred.write_text(line + "\n", encoding="utf-8")
    gold.write_text(json.dumps([{"question_id": "q-ż", "answers": [{"answer": "red apple"}]}]))
    argv = ["-m", "selqa.cli", command, "--predictions", str(pred), "--gold", str(gold)]
    out = tmp_path / "out"
    written = run_python([*argv, "--out", str(out)], text=False, timeout=60)
    assert (written.returncode, written.stdout, written.stderr) == (0, b"", b"")
    printed = run_python(argv, env={"PYTHONIOENCODING": encoding}, text=False, timeout=60)
    assert (printed.returncode, printed.stderr) == (0, b"")
    assert printed.stdout == out.read_bytes()
    assert "—".encode() in printed.stdout if command == "evaluate" else "ż".encode() in printed.stdout


class TestStreamedErrorOrder:
    """The gold file is read first, then the dump line by line: a gold error
    wins, after it the first failing line does, and the join summary is
    printed only once the last line is read."""

    def test_gold_error_precedes_a_bad_dump_line(self, tmp_path, capsys):
        pred = tmp_path / "p.jsonl"
        pred.write_text("{not json\n")
        gold = tmp_path / "g.json"
        gold.write_text('[{"question_id": "q1", "answers": []}]\n')
        assert run("evaluate", "--predictions", str(pred), "--gold", str(gold)) == 2
        assert capsys.readouterr().err == (
            f"data error: {gold}: record 0: gold record 'q1' has no answers\n"
        )

    def test_adapter_error_on_line_1_precedes_a_bad_line_3(self, tmp_path, capsys):
        pred = tmp_path / "p.jsonl"
        pred.write_text(_scorable("q1") + "\n" + _scorable("q2") + "\n{not json\n")
        gold = tmp_path / "g.json"
        gold.write_text(json.dumps(
            [{"question_id": q, "answers": [{"answer": "red apple"}]} for q in ("q1", "q2")]
        ))
        code = run("evaluate", "--predictions", str(pred), "--gold", str(gold),
                   "--adapter-cmd", " ".join(adapter_cmd("error")), "--methods", "avg-bleu")
        assert code == 3
        assert capsys.readouterr().err == (
            f"adapter error: {pred}: line 1: question_id 'q1': adapter reported: scorer exploded\n"
        )

    def test_adapter_error_names_its_line_after_later_lines_were_sent(self, tmp_path, capsys):
        # lines 1 and 2 send 16 and 80 pairs, so request 97 is line 3's first
        log = tmp_path / "requests.jsonl"
        code = run("evaluate", "--predictions", GOLDEN_PRED, "--gold", GOLDEN_GOLD,
                   "--adapter-cmd", " ".join(adapter_cmd("error-after:96", log)),
                   "--methods", "avg-bleu")
        assert code == 3
        assert capsys.readouterr().err == (
            f"adapter error: {GOLDEN_PRED}: line 3: question_id 'q000002': "
            "adapter reported: scorer exploded\n"
        )
        # the 20 lines are one window, and every line's pairs went out
        assert len(logged_requests(log)) == 824

    def test_unscorable_line_in_a_window_sends_no_pairs(self, tmp_path, capsys):
        pred, gold = tmp_path / "p.jsonl", tmp_path / "g.json"
        line_3 = _scorable("q3").replace("red car", "green car")
        pred.write_text("\n".join([_scorable("q1"), UNSCORABLE["p-sum-above-1"], line_3]) + "\n")
        gold.write_text(json.dumps([{"question_id": q, "answers": [{"answer": "red apple"}]}
                                    for q in ("q1", "q-psum", "q3")]))
        log = tmp_path / "requests.jsonl"
        code = run("evaluate", "--predictions", str(pred), "--gold", str(gold),
                   "--adapter-cmd", " ".join(adapter_cmd("jaccard", log)), "--methods", "avg-bleu")
        assert code == 2
        assert capsys.readouterr().err.startswith(
            f"data error: {pred}: line 2: question_id 'q-psum': "
            "distinct-sample probabilities sum above 1"
        )
        answers = {answer for pair in logged_requests(log) for answer in pair}
        assert answers == {"red apple", "red car", "green car"}  # lines 1 and 3 only
        # an adapter error of an earlier line comes first
        code = run("evaluate", "--predictions", str(pred), "--gold", str(gold),
                   "--adapter-cmd", " ".join(adapter_cmd("error")), "--methods", "avg-bleu")
        assert code == 3
        assert capsys.readouterr().err == (
            f"adapter error: {pred}: line 1: question_id 'q1': adapter reported: scorer exploded\n"
        )

    def test_dump_is_read_lazily(self, tmp_path, capsys):
        pred = tmp_path / "p.jsonl"
        pred.write_text(_scorable("q1") + "\n{not json\n")
        gold = tmp_path / "g.json"
        # q9 has no prediction: a finished run would print a join summary
        gold.write_text(json.dumps(
            [{"question_id": q, "answers": [{"answer": "red apple"}]} for q in ("q1", "q9")]
        ))
        log = tmp_path / "requests.jsonl"
        code = run("evaluate", "--predictions", str(pred), "--gold", str(gold),
                   "--adapter-cmd", " ".join(adapter_cmd("jaccard", log)),
                   "--methods", "avg-bleu")
        assert code == 2
        assert capsys.readouterr().err.startswith(f"data error: {pred}: line 2: invalid JSON: ")
        # record 1's two answers went out as 2 x 2 pairs before line 2 was parsed
        requests = [json.loads(line) for line in log.read_text().splitlines()]
        assert sorted((r["a"], r["b"]) for r in requests) == [
            ("red apple", "red apple"), ("red apple", "red car"),
            ("red car", "red apple"), ("red car", "red car"),
        ]


class TestScore:
    @pytest.mark.parametrize("gold,golden", [
        ([], "golden_score.jsonl"), (["--gold", GOLDEN_GOLD], "golden_score_gold.jsonl"),
    ])
    def test_golden_score(self, tmp_path, gold, golden):
        out = tmp_path / "scored.jsonl"
        assert run("score", "--predictions", GOLDEN_PRED, *gold, "--out", str(out)) == 0
        assert out.read_bytes() == (DATA_DIR / golden).read_bytes()

    def test_scores_without_gold(self, tmp_path):
        out = tmp_path / "scored.jsonl"
        assert run("score", "--predictions", GOLDEN_PRED, "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        source = load_predictions(GOLDEN_PRED)
        assert len(lines) == len(source)
        first = json.loads(lines[0])
        assert set(first) == {"question_id", "triggered", "scores"}
        # deterministic ordering = input order
        assert [json.loads(l)["question_id"] for l in lines] == [r.question_id for r in source]

    def test_scores_with_gold_include_verdicts(self, tmp_path):
        out = tmp_path / "scored.jsonl"
        assert run("score", "--predictions", GOLDEN_PRED, "--gold", GOLDEN_GOLD,
                   "--out", str(out)) == 0
        rows = [json.loads(l) for l in out.read_text().splitlines()]
        for row in rows:
            assert set(row) == {"question_id", "triggered", "scores", "correct", "answerable"}
            if row["triggered"]:
                assert "em" in row["correct"]
            else:
                assert row["correct"] == {}

    def test_abstainer_line(self, tmp_path):
        out = tmp_path / "scored.jsonl"
        assert run("score", "--predictions", str(DATA_DIR / "trigger_predictions.jsonl"),
                   "--out", str(out)) == 0
        rows = {json.loads(l)["question_id"]: json.loads(l) for l in out.read_text().splitlines()}
        assert rows["t01"]["triggered"] is False
        assert set(rows["t01"]["scores"]) == {"likelihood", "repetition", "diversity", "avg-bleu"}

    def test_unanimous_samples_repetition_one(self, tmp_path):
        pred = tmp_path / "p.jsonl"
        samples = ",".join(['{"text":"yes","logprobs":[-0.1]}'] * 10)
        pred.write_text(
            '{"question_id":"q","greedy":{"text":"yes","logprobs":[-0.1]},"samples":[%s]}\n' % samples
        )
        out = tmp_path / "s.jsonl"
        assert run("score", "--predictions", str(pred), "--out", str(out)) == 0
        row = json.loads(out.read_text())
        assert row["scores"]["repetition"] == 1.0


class TestSweep:
    def test_golden_sweep(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run("sweep", "--predictions", GOLDEN_PRED, "--gold", GOLDEN_GOLD,
                   "--out", str(out)) == 0
        assert out.read_bytes() == (DATA_DIR / "golden_sweep.csv").read_bytes()

    def test_golden_sweep_json(self, tmp_path):
        out = tmp_path / "sweep.json"
        assert run("sweep", "--predictions", GOLDEN_PRED, "--gold", GOLDEN_GOLD,
                   "--format", "json", "--out", str(out)) == 0
        assert out.read_bytes() == (DATA_DIR / "golden_sweep.json").read_bytes()

    def test_rows_per_method(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run("sweep", "--predictions", GOLDEN_PRED, "--gold", GOLDEN_GOLD,
                   "--methods", "likelihood,diversity", "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "method,tau,coverage,accuracy"
        methods = {l.split(",")[0] for l in lines[1:]}
        assert methods == {"likelihood", "diversity"}

    def test_sweep_consistent_with_report_coverage(self, tmp_path):
        out = tmp_path / "sweep.json"
        assert run("sweep", "--predictions", GOLDEN_PRED, "--gold", GOLDEN_GOLD,
                   "--methods", "likelihood", "--format", "json", "--out", str(out)) == 0
        sweep = json.loads(out.read_text())["likelihood"]
        # every row must be a point of the risk-coverage curve
        pairs, _ = join(load_predictions(GOLDEN_PRED), load_gold(GOLDEN_GOLD))
        scored = [score_all(p, g, methods=("likelihood",)) for p, g in pairs]
        from selqa.metrics import risk_coverage_curve

        points = [
            EvalPoint(s.scores["likelihood"], s.correct["em"], s.question_id)
            for s in scored
            if s.triggered
        ]
        curve = {(p.coverage, p.accuracy) for p in risk_coverage_curve(points)}
        assert all((row["coverage"], row["accuracy"]) in curve for row in sweep)


# Records the loader accepts but a scoring method cannot score.
UNSCORABLE = {
    "empty-greedy": '{"question_id":"q-empty","greedy":{"text":"","logprobs":[]},'
                    '"samples":[{"text":"yes","logprobs":[-0.1]}]}',
    "no-samples": '{"question_id":"q-nosamples","greedy":{"text":"yes","logprobs":[-0.1]},'
                  '"samples":[]}',
    # "cat" and "dog" each claim p=0.9; avg-bleu would score this 0.9
    "p-sum-above-1": '{"question_id":"q-psum","greedy":{"text":"cat","logprobs":[-0.1]},'
                     '"samples":[{"text":"cat","logprobs":[-0.10536051565782628]},'
                     '{"text":"dog","logprobs":[-0.10536051565782628]}]}',
}
SCORABLE = ('{"question_id":"q-good","greedy":{"text":"yes","logprobs":[-0.1]},'
            '"samples":[{"text":"yes","logprobs":[-0.1]}]}')


class TestUnscorableRecords:
    @pytest.mark.parametrize("command,with_gold", [
        ("evaluate", True), ("score", True), ("sweep", True), ("score", False),
    ])
    @pytest.mark.parametrize("case", sorted(UNSCORABLE))
    def test_data_error_names_question(self, tmp_path, capsys, case, command, with_gold):
        line = UNSCORABLE[case]
        qid = json.loads(line)["question_id"]
        pred = tmp_path / "p.jsonl"
        pred.write_text(SCORABLE + "\n\n" + line + "\n")  # the bad record is on line 3
        gold = tmp_path / "g.json"
        gold.write_text(json.dumps(
            [{"question_id": q, "answers": [{"answer": "yes"}]} for q in ("q-good", qid)]
        ))
        out = tmp_path / "out"
        argv = [command, "--predictions", str(pred), "--out", str(out)]
        if with_gold:
            argv += ["--gold", str(gold)]
        assert len(load_predictions(str(pred))) == 2  # the loader accepts it
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {pred}: line 3: question_id {qid!r}: ")
        assert not out.exists()

    @pytest.mark.parametrize("command,with_gold", [
        ("evaluate", True), ("score", True), ("sweep", True), ("score", False),
    ])
    @pytest.mark.parametrize("score", [1.5, float("nan")])
    def test_score_out_of_range_names_question(
        self, tmp_path, capsys, monkeypatch, command, with_gold, score
    ):
        # no built-in method scores outside [0, 1]; a faulty one is still a located data error
        monkeypatch.setattr(scoring, "likelihood_score", lambda answer: score)
        argv = [command, "--predictions", GOLDEN_PRED, "--methods", "likelihood"]
        if with_gold:
            argv += ["--gold", GOLDEN_GOLD]
        assert run(*argv) == 2
        assert capsys.readouterr().err == (
            f"data error: {GOLDEN_PRED}: line 1: question_id 'q000000': "
            f"score 'likelihood' out of [0, 1]: {score}\n"
        )

    @pytest.mark.parametrize("case", sorted(UNSCORABLE))
    def test_line_of_repeated_id_without_gold(self, tmp_path, capsys, case):
        # without gold nothing joins on ids, so they may repeat: the line is
        # that of the failing occurrence, not the first record with the id
        bad = json.loads(UNSCORABLE[case])
        bad["question_id"] = "q-good"
        pred = tmp_path / "p.jsonl"
        pred.write_text(SCORABLE + "\n" + SCORABLE + "\n\n" + json.dumps(bad) + "\n")
        assert run("score", "--predictions", str(pred), "--out", str(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {pred}: line 4: question_id 'q-good': ")

    def test_piped_stdin_names_the_line(self):
        bad = SCORABLE + "\n" + UNSCORABLE["no-samples"] + "\n"
        proc = run_python(["-m", "selqa.cli", "score", "--predictions", "/dev/stdin"],
                          input=bad, timeout=30)
        assert proc.returncode == 2
        assert proc.stderr.startswith(
            "data error: /dev/stdin: line 2: question_id 'q-nosamples': "
        )

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_named_pipe_names_the_line(self, tmp_path):
        # a named pipe can be read only once: the error must not reopen it
        fifo = tmp_path / "p.fifo"
        os.mkfifo(fifo)

        def feed():
            try:
                with open(fifo, "w") as f:
                    f.write(SCORABLE + "\n" + UNSCORABLE["no-samples"] + "\n")
            except BrokenPipeError:
                pass  # the reader went away without reading

        writer = threading.Thread(target=feed, daemon=True)
        writer.start()
        try:
            proc = run_python(["-m", "selqa.cli", "score", "--predictions", str(fifo)],
                              timeout=30)
        finally:
            # unblock the writer if the reader never opened the pipe
            os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))
            writer.join(timeout=30)
        assert not writer.is_alive()
        assert proc.returncode == 2
        assert proc.stderr.startswith(f"data error: {fifo}: line 2: question_id 'q-nosamples': ")


class TestDuplicateIds:
    @pytest.mark.parametrize("command", ["evaluate", "score", "sweep"])
    def test_repeated_dump_id_names_its_line(self, tmp_path, capsys, command):
        # the repeat is reported even when its own line cannot be scored
        unscorable = UNSCORABLE["no-samples"].replace("q-nosamples", "q-good")
        for repeat in (SCORABLE, unscorable):
            pred = tmp_path / "p.jsonl"
            pred.write_text(SCORABLE + "\n\n" + repeat + "\n")  # line 3 repeats line 1
            gold = tmp_path / "g.json"
            gold.write_text(json.dumps([{"question_id": "q-good", "answers": [{"answer": "yes"}]}]))
            out = tmp_path / "out"
            code = run(command, "--predictions", str(pred), "--gold", str(gold), "--out", str(out))
            assert code == 2
            assert capsys.readouterr().err == (
                f"data error: {pred}: line 3: question_id 'q-good': duplicate question_id\n"
            )
            assert not out.exists()

    def test_a_repeated_line_sends_no_verdict_pairs(self, tmp_path, capsys):
        # it is scored, so its avg-similarity pairs go out, but the join rejects it
        # before its verdict is decided
        log = tmp_path / "requests.log"
        repeat = _scorable("q1").replace("red apple", "blue sky").replace("red car", "grey sky")
        pred, gold = tmp_path / "p.jsonl", tmp_path / "g.json"
        pred.write_text(_scorable("q1") + "\n" + repeat + "\n")
        gold.write_text(json.dumps([{"question_id": "q1", "answers": [{"answer": "green tea"}]}]))
        code = run("evaluate", "--predictions", str(pred), "--gold", str(gold),
                   "--adapter-cmd", " ".join(adapter_cmd("jaccard", log)),
                   "--adapter-name", "jaccard", "--classifier", "adapter-threshold")
        assert code == 2
        assert capsys.readouterr().err == (
            f"data error: {pred}: line 2: question_id 'q1': duplicate question_id\n"
        )
        pairs = [set(pair) for pair in logged_requests(log)]
        assert {"red apple", "green tea"} in pairs  # line 1's verdict
        assert {"blue sky", "grey sky"} in pairs  # line 2's avg-jaccard
        assert {"blue sky", "green tea"} not in pairs

    @pytest.mark.parametrize("command", ["evaluate", "score", "sweep"])
    def test_empty_gold_id_names_its_record(self, tmp_path, capsys, command):
        # an empty id could never match, and the join summary printed it as nothing
        pred = tmp_path / "p.jsonl"
        pred.write_text(SCORABLE + "\n")
        gold = tmp_path / "g.json"
        ids = ("q-good", "")
        gold.write_text(json.dumps([{"question_id": q, "answers": [{"answer": "yes"}]} for q in ids]))
        out = tmp_path / "out"
        code = run(command, "--predictions", str(pred), "--gold", str(gold), "--out", str(out))
        assert code == 2
        assert capsys.readouterr().err == f"data error: {gold}: record 1: empty question_id\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["evaluate", "score", "sweep"])
    def test_repeated_gold_id_names_its_record(self, tmp_path, capsys, command):
        pred = tmp_path / "p.jsonl"
        pred.write_text(SCORABLE + "\n")
        gold = tmp_path / "g.json"
        ids = ("q-good", "q2", "q-good")
        gold.write_text(json.dumps([{"question_id": q, "answers": [{"answer": "yes"}]} for q in ids]))
        out = tmp_path / "out"
        code = run(command, "--predictions", str(pred), "--gold", str(gold), "--out", str(out))
        assert code == 2
        assert capsys.readouterr().err == (
            f"data error: {gold}: record 2: duplicate question_id 'q-good'\n"
        )
        assert not out.exists()


class TestGoldFromAPipe:
    def test_valid_gold_streams_from_stdin(self):
        with open(GOLDEN_GOLD, encoding="utf-8") as f:
            gold = f.read()
        proc = run_python(["-m", "selqa.cli", "evaluate", "--predictions", GOLDEN_PRED,
                           "--gold", "/dev/stdin"], input=gold, timeout=30)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == (DATA_DIR / "golden_report.md").read_text(encoding="utf-8")

    def test_malformed_gold_from_stdin_names_the_file(self):
        # what was read from a pipe cannot be read again to locate the error
        proc = run_python(["-m", "selqa.cli", "evaluate", "--predictions", GOLDEN_PRED,
                           "--gold", "/dev/stdin"], input="{not json", timeout=30)
        assert proc.returncode == 2
        assert proc.stderr == (
            "data error: /dev/stdin: top level: invalid JSON; "
            "a pipe cannot be read again to find it\n"
        )


_texts = st.sampled_from(["", "yes", "Yes.", "no", "red apple", "unanswerable"])


@st.composite
def _answers(draw):
    text = draw(_texts)
    n_tokens = draw(st.integers(1, 3)) if text else 0
    logprobs = draw(st.lists(st.floats(-5.0, 0.0), min_size=n_tokens, max_size=n_tokens))
    return {"text": text, "logprobs": logprobs}


@st.composite
def _dumps(draw):
    n = draw(st.integers(1, 4))
    return [
        {"question_id": f"q{i}", "greedy": draw(_answers()),
         "samples": draw(st.lists(_answers(), max_size=3))}
        for i in range(n)
    ]


# gold answers: the dump's texts, their variants and arbitrary short text
_gold_texts = st.one_of(
    _texts, st.sampled_from(["YES!", "the red apple", " ", "-", "an Unanswerable"]),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=6),
)


@st.composite
def _gold_answers(draw):
    answer = {"answer": draw(_gold_texts)}
    flag = draw(st.sampled_from([None, True, False]))
    if flag is not None:
        answer["answerable"] = flag
    return answer


@settings(max_examples=25, deadline=None)
@given(_dumps(), st.sampled_from(["likelihood", "repetition,diversity", "avg-bleu",
                                  "likelihood,repetition,diversity,avg-bleu"]), st.data())
def test_accepted_dumps_score_or_fail_as_data_errors(records, methods, data):
    with tempfile.TemporaryDirectory() as tmp:
        pred = Path(tmp) / "p.jsonl"
        pred.write_text("".join(json.dumps(r) + "\n" for r in records))
        gold = Path(tmp) / "g.json"
        gold.write_text(json.dumps([
            {"question_id": r["question_id"],
             "answers": data.draw(st.lists(_gold_answers(), min_size=1, max_size=4))}
            for r in records
        ]))
        assert len(load_predictions(str(pred))) == len(records)
        # any other exception escapes main() and fails the test with its traceback
        for argv in (["evaluate", "--gold", str(gold)], ["score", "--gold", str(gold)],
                     ["score"], ["sweep", "--gold", str(gold)]):
            code = run(*argv, "--predictions", str(pred), "--methods", methods,
                       "--out", str(Path(tmp) / "out"))
            assert code in (0, 2), argv


@pytest.mark.parametrize("cpus", [1, 2])
def test_scored_records_are_held_in_under_200_bytes_each(tmp_path, monkeypatch, cpus):
    # one ScoredPrediction with its scores and verdicts dicts retains about 500 bytes
    n = 2000
    assert run("synth", "--out", str(tmp_path), "--n", str(n), "--seed", "1") == 0
    monkeypatch.setattr(cli, "_SHARD_MIN_BYTES", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    args = cli.build_parser().parse_args([
        "score", "--predictions", str(tmp_path / "predictions.jsonl"),
        "--gold", str(tmp_path / "gold.json"),
    ])
    methods = cli._parse_methods(args)
    cli._score(args, methods)  # imports and caches filled on first use are not the records'
    gc.collect()
    tracemalloc.start()
    try:
        scored = cli._score(args, methods)
        gc.collect()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(scored[0]) == n
    assert retained / n < 200, retained / n


@pytest.mark.parametrize("cpus", [1, 2])
def test_score_output_is_held_once(tmp_path, monkeypatch, cpus):
    # the JSONL held as a list of lines, a joined str and bytes peaked about 0.45 MiB above _score
    assert run("synth", "--out", str(tmp_path), "--n", "2000", "--seed", "1") == 0
    monkeypatch.setattr(cli, "_SHARD_MIN_BYTES", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    argv = ["score", "--predictions", str(tmp_path / "predictions.jsonl"),
            "--gold", str(tmp_path / "gold.json"), "--out", str(tmp_path / "scores.jsonl")]
    assert main(argv) == 0  # imports and caches filled on first use are not the output's
    score, peaks = cli._score, []

    def traced_score(*args):
        result = score(*args)
        peaks.append(tracemalloc.get_traced_memory()[1])
        return result

    monkeypatch.setattr(cli, "_score", traced_score)
    gc.collect()
    tracemalloc.start()
    try:
        assert main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (tmp_path / "scores.jsonl").stat().st_size > 2000 * 100
    assert peak - peaks[0] <= 0.2 * 2**20, (peak - peaks[0]) / 2**20


def test_a_curve_is_formatted_in_under_64_bytes_a_point():
    # a RiskCoveragePoint per point and a list of line strings peaked about 248 bytes a point
    n = 10_000
    table = Columns(["m"])
    for i in range(n):
        table.append(f"q{i}", (True, i % 3 == 0, True, ((i * 7919 % n) / n,)))
    ranking = metrics.rank_methods(table)["m"]
    selqa_io.format_curve(metrics.curve_pairs(ranking))
    gc.collect()
    tracemalloc.start()
    try:
        data = selqa_io.format_curve(metrics.curve_pairs(ranking))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert data.count(b"\n") == n + 1
    assert peak / n < 64, peak / n


class TestSynth:
    def test_writes_files_and_echoes_config(self, tmp_path, capsys):
        out_dir = tmp_path / "dump"
        assert run("synth", "--out", str(out_dir), "--n", "5", "--seed", "3") == 0
        echo = json.loads(capsys.readouterr().out)
        assert echo["seed"] == 3 and echo["n"] == 5
        assert (out_dir / "predictions.jsonl").exists()
        assert (out_dir / "gold.json").exists()

    def test_same_seed_identical_files(self, tmp_path):
        for name in ("a", "b"):
            assert run("synth", "--out", str(tmp_path / name), "--n", "30", "--seed", "11",
                       "--abstain-rate", "0.2") == 0
        assert (tmp_path / "a/predictions.jsonl").read_bytes() == (tmp_path / "b/predictions.jsonl").read_bytes()
        assert (tmp_path / "a/gold.json").read_bytes() == (tmp_path / "b/gold.json").read_bytes()

    def test_forced_abstention(self, tmp_path):
        out_dir = tmp_path / "dump"
        assert run("synth", "--out", str(out_dir), "--n", "1", "--seed", "1",
                   "--abstain-rate", "1.0") == 0
        line = json.loads((out_dir / "predictions.jsonl").read_text())
        assert "unanswerable" in line["greedy"]["text"]

    def test_invalid_config_is_usage_error(self, tmp_path, capsys):
        for n, seed, message in [("0", "1", "n must be >= 1, got 0"),
                                 ("3", "-1", "seed must be >= 0, got -1")]:
            assert run("synth", "--out", str(tmp_path / "x"), "--n", n, "--seed", seed) == 1
            assert capsys.readouterr().err == f"usage error: {message}\n"
            assert not (tmp_path / "x").exists()


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        assert run("frobnicate") == 1

    def test_missing_required_flag(self, capsys):
        assert run("evaluate", "--gold", GOLDEN_GOLD) == 1

    def test_markdown_not_valid_for_sweep(self, capsys):
        assert run("sweep", "--predictions", GOLDEN_PRED, "--gold", GOLDEN_GOLD,
                   "--format", "markdown") == 1


def test_start_up_imports_neither_dataclasses_nor_inspect():
    # Together they cost about 10 ms of every CLI start (import plus class
    # building); -S keeps site-packages' own imports out of sys.modules.
    result = run_python(["-S", "-c", "import sys, selqa.cli; "
                         "print(*sorted({'dataclasses', 'inspect'} & set(sys.modules)))"])
    assert result.returncode == 0, result.stderr
    assert result.stdout == "\n"
