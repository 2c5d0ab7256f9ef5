import json
import math
import re
import shlex
import sys
from concurrent.futures import ThreadPoolExecutor, wait

import pytest

import selqa.adapter
from selqa import (
    AdapterError, CorrectnessClassifier, GoldAnnotation, GoldRecord, PredictionRecord,
    answer_similarity,
)
import selqa.cli
from selqa.adapter import ExternalSimilarity
from selqa.cli import main
from selqa.io import join, load_gold, load_predictions
from selqa.scoring import BUILTIN_METHODS, score_all

from conftest import ADAPTER_SCRIPT, DATA_DIR, adapter_cmd, ans, logged_requests, run_python


def jaccard(a, b):
    wa, wb = set(a.split()), set(b.split())
    return len(wa & wb) / len(wa | wb) if wa | wb else 0.0


# Replies past what Python reads from JSON as is: an integer too large for a
# float, one past the digit limit of int(), and nesting past the stack; then
# JSON that holds no score.
_UNREADABLE = [
    ('{"score": 1' + "0" * 400 + "}", r"'bad' returned inf, outside the \[0, 1\] contract"),
    ('{"score": ' + "1" * 5001 + "}", r"'bad' returned inf, outside the \[0, 1\] contract"),
    ("[" * 100_000 + "]" * 100_000, r"adapter sent invalid JSON: '\[\[\["),
    ("[0.5]", r"adapter response is not an object: '\[0\.5\]\\n'$"),
    ('{"value": 0.5}', r"""adapter response has no score: '\{"value": 0\.5\}\\n'$"""),
]
_UNREADABLE_IDS = ["401-digits", "5001-digits", "nested-100000", "array", "no-score"]


class TestExternalSimilarity:
    def test_scores_flow_through(self):
        with ExternalSimilarity(adapter_cmd("em"), name="em") as fn:
            assert fn.similarity("red apple", "red apple") == 1.0
            assert fn.similarity("red apple", "blue car") == 0.0

    def test_used_via_answer_similarity(self):
        with ExternalSimilarity(adapter_cmd("jaccard"), name="jac") as fn:
            assert answer_similarity("red apple", "red apple", fn) == 1.0
            assert answer_similarity("red apple", "red car", fn) == pytest.approx(1 / 3)
            # abstention override happens before the adapter sees anything
            assert answer_similarity("unanswerable", "red apple", fn) == 0.0

    def test_out_of_range_score_rejected(self):
        with ExternalSimilarity(adapter_cmd("const:1.5"), name="bad") as fn:
            with pytest.raises(AdapterError, match=r"\[0, 1\]"):
                answer_similarity("a", "b", fn)

    @pytest.mark.parametrize("literal", ["true", "false", '"1"', "null"])
    def test_non_number_score_rejected(self, literal):
        with ExternalSimilarity(adapter_cmd(f"json:{literal}"), name="bad") as fn:
            with pytest.raises(AdapterError, match="not a number"):
                fn.similarity("a", "b")

    @pytest.mark.parametrize("reply, message", _UNREADABLE, ids=_UNREADABLE_IDS)
    def test_unreadable_score_rejected(self, tmp_path, reply, message):
        (tmp_path / "reply").write_text(reply)
        with ExternalSimilarity(adapter_cmd(f"raw:{tmp_path / 'reply'}"), name="bad") as fn:
            with pytest.raises(AdapterError, match=message) as caught:
                answer_similarity("a", "b", fn)
        assert len(str(caught.value)) < 300  # the reply is quoted cut short

    @pytest.mark.parametrize("reply, message", _UNREADABLE, ids=_UNREADABLE_IDS)
    def test_unreadable_score_exits_3_through_the_cli(self, tmp_path, capsys, reply, message):
        (tmp_path / "reply").write_text(reply)
        predictions = DATA_DIR / "golden_predictions.jsonl"
        code = main(["evaluate", "--predictions", str(predictions),
                     "--gold", str(DATA_DIR / "golden_gold.json"),
                     "--adapter-cmd", " ".join(adapter_cmd(f"raw:{tmp_path / 'reply'}")),
                     "--adapter-name", "bad", "--methods", "avg-bleu"])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith(f"adapter error: {predictions}: line 1: question_id 'q000000': ")
        assert re.search(message, err)

    def test_reported_error_surfaces(self):
        with ExternalSimilarity(adapter_cmd("error"), name="boom") as fn:
            with pytest.raises(AdapterError, match="scorer exploded"):
                fn.similarity("a", "b")

    def test_garbage_reply(self):
        with ExternalSimilarity(adapter_cmd("garbage"), name="junk") as fn:
            with pytest.raises(AdapterError, match="invalid JSON"):
                fn.similarity("a", "b")

    def test_dead_process(self):
        with ExternalSimilarity(adapter_cmd("die"), name="dead") as fn:
            with pytest.raises(AdapterError, match="closed its output"):
                fn.similarity("a", "b")

    def test_surplus_reply_fails_the_exchange_that_read_it(self):
        # the fourth request is answered twice in one write, so the fourth
        # exchange reads both replies, and the second answers no request
        with ExternalSimilarity(adapter_cmd("twice-after:3"), name="dup") as fn:
            assert [fn.similarity(f"w{i} x", "x") for i in range(3)] == [0.5] * 3
            with pytest.raises(AdapterError, match=(
                r"""^adapter sent more replies than requests: '\{"score": 0\.5\}\\n'$"""
            )):
                fn.similarity("w3 x", "x")

    def test_surplus_reply_exits_3_through_the_cli(self, tmp_path, capsys):
        # the 20 lines are one window of 824 requests, and the last is answered
        # twice; with no request ids, the surplus names the window's lines
        predictions = DATA_DIR / "golden_predictions.jsonl"
        code = main(["evaluate", "--predictions", str(predictions),
                     "--gold", str(DATA_DIR / "golden_gold.json"),
                     "--adapter-cmd", " ".join(adapter_cmd("twice-after:823")),
                     "--out", str(tmp_path / "report.md"),
                     "--curves-out", str(tmp_path / "curves")])
        assert code == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"adapter error: {predictions}: lines 1-20: "
                              "adapter sent more replies than requests: ")
        assert list(tmp_path.iterdir()) == []

    def test_reply_after_the_last_is_a_surplus_at_close(self):
        fn = ExternalSimilarity(adapter_cmd("trailing"), name="late")
        assert fn.similarity("a b", "b") == 0.5
        with pytest.raises(AdapterError, match=(
            r"""^adapter sent more replies than requests: '\{"score": 0\.0\}\\n'$"""
        )):
            fn.close()
        fn.close()  # closed already: nothing to read

    def test_surplus_at_close_yields_to_the_error_propagating(self):
        with pytest.raises(KeyError, match="raised first"):
            with ExternalSimilarity(adapter_cmd("trailing"), name="late") as fn:
                fn.similarity("a", "b")
                raise KeyError("raised first")

    @pytest.mark.parametrize("mode", ["twice-after:3", "trailing"])
    def test_late_surplus_exits_3_through_the_cli(self, tmp_path, capsys, mode):
        # twice-after:3 shifts every later reply by one, so its surplus is read
        # at the end of the window or when the scorer is closed, whichever
        # sees it; trailing writes its surplus once its input is closed
        predictions = DATA_DIR / "golden_predictions.jsonl"
        code = main(["evaluate", "--predictions", str(predictions),
                     "--gold", str(DATA_DIR / "golden_gold.json"),
                     "--adapter-cmd", " ".join(adapter_cmd(mode)),
                     "--out", str(tmp_path / "report.md"),
                     "--curves-out", str(tmp_path / "curves")])
        assert code == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert re.match(rf"adapter error: {re.escape(str(predictions))}: (lines 1-20: )?"
                        "adapter sent more replies than requests: ", err)
        if mode == "trailing":
            assert err.endswith(": adapter sent more replies than requests: "
                                """'{"score": 0.0}\\n'\n""")
        assert list(tmp_path.iterdir()) == []

    def test_banner_before_the_first_reply_is_invalid_json(self, capsys):
        scorer = [sys.executable, "-c",
                  "import runpy, sys; print('loading model', flush=True); "
                  f"sys.argv[1:] = ['jaccard']; runpy.run_path({str(ADAPTER_SCRIPT)!r}, "
                  "run_name='__main__')"]
        predictions = DATA_DIR / "golden_predictions.jsonl"
        code = main(["evaluate", "--predictions", str(predictions),
                     "--gold", str(DATA_DIR / "golden_gold.json"),
                     "--adapter-cmd", shlex.join(scorer), "--methods", "avg-bleu"])
        assert code == 3
        assert capsys.readouterr().err == (
            f"adapter error: {predictions}: line 1: question_id 'q000000': "
            "adapter sent invalid JSON: 'loading model\\n'\n"
        )

    def test_pairwise_pipelines_past_full_pipes(self):
        # 576 requests of about 4 KiB and replies of 2 KiB: both directions
        # exceed 1 MiB, far past a pipe's capacity, so an exchange that let
        # either pipe block the other would deadlock here.
        answers = [" ".join(f"w{i}x{j}" for j in range(i % 3, 400, 1 + i % 3))
                   for i in range(24)]
        requests = sum(len(json.dumps({"a": a, "b": b})) for a in answers for b in answers)
        assert requests > 2**20 and 2048 * len(answers) ** 2 > 2**20
        fn = ExternalSimilarity(adapter_cmd("pad:2048"), name="pad")
        executor = ThreadPoolExecutor(max_workers=1)
        try:
            future = executor.submit(fn.score_matrix, answers, answers)
            _, pending = wait([future], timeout=60)
        finally:
            fn.close()
            executor.shutdown()
        assert not pending
        assert future.result() == [[jaccard(a, b) for b in answers] for a in answers]

    def test_pair_table_is_cleared_whole_when_full(self, tmp_path, monkeypatch):
        monkeypatch.setattr(selqa.adapter, "_TABLE_CAP", 12)
        log = tmp_path / "requests.jsonl"
        with ExternalSimilarity(adapter_cmd("jaccard", log), name="jac") as fn:
            fn.score_matrix(["a", "b", "c"], ["a", "b", "c"])  # 9 pairs tabled
            fn.score_matrix(["a", "b"], ["a", "b"])  # 9 + 4 > 12: cleared, all 4 sent again
            assert fn.score_matrix(["b", "a"], ["b", "a"]) == [[1.0, 0.0], [0.0, 1.0]]  # known
            # a rectangle: 4 + 2 <= 12, and only (a, c) is new
            assert fn.score_matrix(["a"], ["b", "c"]) == [[0.0, 0.0]]
            fn.score_matrix(["c", "b", "a"], ["a", "b", "c"])  # 5 + 9 > 12: cleared
        assert len(log.read_text().splitlines()) == 9 + 4 + 1 + 9

    @pytest.mark.parametrize("mode, message", [
        ("error-after:4", "adapter reported: scorer exploded"),
        ("garbage-after:4", "adapter sent invalid JSON: 'not json at all"),
        ("die-after:4", r"adapter closed its output \(exit status 7\)"),
    ])
    def test_fault_in_the_middle_of_a_batch(self, mode, message):
        # the first four replies are good; the fifth of nine pairs fails
        with ExternalSimilarity(adapter_cmd(mode), name="bad") as fn:
            answers = ["red apple", "apple", "red car"]
            with pytest.raises(AdapterError, match=message):
                fn.score_matrix(answers, answers)

    def test_closed_output_of_a_running_scorer(self, monkeypatch):
        monkeypatch.setattr(selqa.adapter, "_REAP_WAIT", 0.05)
        # closes its output, then runs until its input closes
        scorer = [sys.executable, "-c", "import os, sys; os.close(1); sys.stdin.read()"]
        with ExternalSimilarity(scorer, name="mute") as fn:
            with pytest.raises(AdapterError, match=r"^adapter closed its output \(still running\)$"):
                fn.score_matrix(["a"], ["b"])

    @pytest.mark.parametrize("mode", ["error-after:2", "garbage-after:2", "die-after:2"])
    def test_fault_in_a_batch_exits_3_through_the_cli(self, mode):
        scorer = " ".join(adapter_cmd(mode))
        predictions = DATA_DIR / "golden_predictions.jsonl"
        proc = run_python(["-X", "dev", "-m", "selqa.cli", "evaluate",
                           "--predictions", str(predictions),
                           "--gold", str(DATA_DIR / "golden_gold.json"),
                           "--adapter-cmd", scorer, "--methods", "avg-bleu"], timeout=60)
        assert proc.returncode == 3
        # the failure names the record being scored, as a data error would
        assert proc.stderr.startswith(
            f"adapter error: {predictions}: line 1: question_id 'q000000': adapter "
        )
        assert "ResourceWarning" not in proc.stderr

    def test_launch_failure(self):
        with pytest.raises(AdapterError, match="failed to launch"):
            ExternalSimilarity(["/nonexistent/scorer-binary"], name="ghost")


class TestRecordExchanges:
    """Under adapter-threshold a record costs at most two exchanges."""

    def test_verdict_row_is_one_exchange_of_unscored_pairs(self, tmp_path):
        log = tmp_path / "requests.jsonl"
        samples = tuple(ans(t, math.log(0.2)) for t in ["Red apple", "apple", "unanswerable"])
        record = PredictionRecord("q", ans("red apple", -0.1), samples)
        golds = ("apple", "red car", "unanswerable", "red apple")
        gold = GoldRecord("q", [GoldAnnotation(a) for a in golds])
        with ExternalSimilarity(adapter_cmd("jaccard", log), name="jaccard") as fn:
            exchanges = []
            send = fn._exchange
            fn._exchange = lambda pairs: exchanges.append(pairs) or send(pairs)
            clf = CorrectnessClassifier.adapter_threshold(fn, 0.9)
            correct = score_all(record, gold, ["avg-bleu"], fn, (clf,)).correct
        proper = ["red apple", "apple"]
        assert exchanges == [
            [(a, b) for a in proper for b in proper],  # the avg-similarity square
            [("red apple", "red car")],  # the verdict row, less the pairs known
        ]
        assert logged_requests(log) == exchanges[0] + exchanges[1]
        assert correct == {clf.name: True}  # ("red apple", "red apple") scores 1

    def test_no_pair_is_sent_twice_in_a_run(self, tmp_path):
        log = tmp_path / "requests.jsonl"
        code = main(["evaluate", "--predictions", str(DATA_DIR / "golden_predictions.jsonl"),
                     "--gold", str(DATA_DIR / "golden_gold.json"),
                     "--adapter-cmd", " ".join(adapter_cmd("jaccard", log)),
                     "--classifier", "adapter-threshold", "--out", str(tmp_path / "report")])
        assert code == 0
        requests = logged_requests(log)
        assert len(requests) == len(set(requests)) > 0


def _golden_run(tmp_path, *flags):
    """Exit code of evaluate on the golden fixtures under the jaccard scorer, which
    logs its requests to tmp_path/requests.jsonl."""
    return main(["evaluate", "--predictions", str(DATA_DIR / "golden_predictions.jsonl"),
                 "--gold", str(DATA_DIR / "golden_gold.json"),
                 "--adapter-cmd", " ".join(adapter_cmd("jaccard", tmp_path / "requests.jsonl")),
                 "--adapter-name", "jaccard", "--classifier", "adapter-threshold",
                 "--out", str(tmp_path / "report.md"), *flags])


def _per_record_requests(tmp_path):
    """The requests of scoring the golden records one at a time, each record's
    avg-similarity square and then its verdict row, as score_all does."""
    log = tmp_path / "per-record.jsonl"
    pairs, _ = join(load_predictions(str(DATA_DIR / "golden_predictions.jsonl")),
                    load_gold(str(DATA_DIR / "golden_gold.json")))
    with ExternalSimilarity(adapter_cmd("jaccard", log), name="jaccard") as fn:
        classifier = CorrectnessClassifier.adapter_threshold(fn)
        for record, gold in pairs:
            score_all(record, gold, BUILTIN_METHODS, fn, (classifier,))
    return logged_requests(log)


class TestWindows:
    """An adapter run sends the pairs of a window of dump records as one exchange."""

    @pytest.mark.parametrize("window", [64, 8, 5])
    def test_one_exchange_per_window_in_per_record_order(self, tmp_path, monkeypatch, window):
        expected = _per_record_requests(tmp_path)
        monkeypatch.setattr(selqa.cli, "_WINDOW", window)
        exchanges = []
        send = ExternalSimilarity._exchange
        monkeypatch.setattr(ExternalSimilarity, "_exchange",
                            lambda self, *args: exchanges.append(args) or send(self, *args))
        assert _golden_run(tmp_path) == 0
        assert len(exchanges) == math.ceil(20 / window)
        assert logged_requests(tmp_path / "requests.jsonl") == expected

    def test_pair_table_is_cleared_only_between_windows(self, tmp_path, monkeypatch):
        (tmp_path / "uncapped").mkdir()
        (tmp_path / "capped").mkdir()
        assert _golden_run(tmp_path / "uncapped") == 0
        monkeypatch.setattr(selqa.cli, "_WINDOW", 5)
        monkeypatch.setattr(selqa.adapter, "_TABLE_CAP", 1)
        exchanges = []
        send = ExternalSimilarity._exchange
        monkeypatch.setattr(ExternalSimilarity, "_exchange",
                            lambda self, *args: exchanges.append(args) or send(self, *args))
        assert _golden_run(tmp_path / "capped") == 0
        # cleared at each window's start, and never while a window is scored,
        # which would take one more exchange per window
        assert len(exchanges) == 4
        requests = logged_requests(tmp_path / "capped" / "requests.jsonl")
        assert len(requests) > len(set(requests))
        report = (tmp_path / "capped" / "report.md").read_bytes()
        assert report == (tmp_path / "uncapped" / "report.md").read_bytes()


class TestAdapterPool:
    def test_parallel_scoring_consistent(self):
        # One scorer process shared by 8 threads. Each request has its own
        # expected score, so a reply read by the wrong thread shows up.
        pairs = [(" ".join(["shared"] + [f"w{j}" for j in range(i % 5)]), "shared")
                 for i in range(40)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        fn = ExternalSimilarity(adapter_cmd("jaccard"), name="jac")
        executor = ThreadPoolExecutor(max_workers=8)
        try:
            futures = [executor.submit(fn.similarity, a, b) for a, b in pairs]
            _, pending = wait(futures, timeout=60)
        finally:
            fn.close()  # a thread still blocked on a reply gets EOF, not a hang
            executor.shutdown()
            sys.setswitchinterval(interval)
        assert not pending
        results = [f.result() for f in futures]
        assert results == [pytest.approx(1 / (1 + i % 5)) for i in range(40)]

    def test_parallel_pairwise_consistent(self):
        # Threads mixing square batches and single pairs on one scorer:
        # each batch must get its own replies, in order.
        batches = [[f"shared w{i % 7}", "shared", f"w{i % 7} other"] for i in range(24)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        fn = ExternalSimilarity(adapter_cmd("jaccard"), name="jac")
        executor = ThreadPoolExecutor(max_workers=8)
        try:
            futures = [executor.submit(fn.score_matrix, b, b) for b in batches]
            futures += [executor.submit(fn.similarity, b[0], b[2]) for b in batches]
            _, pending = wait(futures, timeout=60)
        finally:
            fn.close()
            executor.shutdown()
            sys.setswitchinterval(interval)
        assert not pending
        expected = [[[jaccard(a, c) for c in b] for a in b] for b in batches]
        expected += [jaccard(b[0], b[2]) for b in batches]
        assert [f.result() for f in futures] == expected

    def test_request_bytes_are_those_of_json_dumps(self, tmp_path):
        answers = ['say "hi"', "back\\slash", "tab\tand\nnewline", "café żółć", "\u2028"]
        log = tmp_path / "requests.jsonl"
        with ExternalSimilarity(adapter_cmd("jaccard", log), name="jac") as fn:
            fn.score_matrix(answers, answers)
        expected = [json.dumps({"a": a, "b": b}, ensure_ascii=False)
                    for a in answers for b in answers]
        assert log.read_text(encoding="utf-8").split("\n") == expected + [""]

    def test_unicode_round_trip(self):
        with ExternalSimilarity(adapter_cmd("em"), name="em") as fn:
            assert fn.similarity("café żółć", "café żółć") == 1.0
