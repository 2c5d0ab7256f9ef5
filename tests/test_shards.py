"""Sharded runs: a regular-file dump scored in forked workers, merged in file order.

Every run here is compared with the serial run of the same arguments: exit
code, stdout, stderr and every output byte must be equal at 1, 2 and 3
workers. The shard minimum is patched down so that small dumps are cut, and
os.sched_getaffinity is patched to set the worker count.
"""

import gc
import json
import os
import select
import signal
import struct
import threading
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import selqa.cli as cli
from selqa import AdapterError, DataError, _shards, scoring
from selqa import io as selqa_io
from selqa._columns import Scored

from conftest import DATA_DIR, adapter_cmd, run_python

GOLDEN_PRED = str(DATA_DIR / "golden_predictions.jsonl")
GOLDEN_GOLD = str(DATA_DIR / "golden_gold.json")


def _line(qid: str, width: int = 0) -> str:
    """A scorable dump line, padded through its meta to at least width bytes."""
    line = ('{"question_id":"%s","greedy":{"text":"red apple","logprobs":[-0.1]},'
            '"samples":[{"text":"red apple","logprobs":[-0.5]},'
            '{"text":"red car","logprobs":[-1.5]}],"meta":{"pad":""}}' % qid)
    return line.replace('"pad":""', '"pad":"%s"' % ("x" * (width - len(line))))


# Dump lines that fail: the loader refuses all but the last three, which
# scoring refuses.
MALFORMED = {
    "not-json": "{not json",
    "missing-greedy": '{"question_id":"bad"}',
    "positive-logprob": '{"question_id":"bad","greedy":{"text":"x","logprobs":[0.5]}}',
    "invalid-utf8": b'{"question_id":"bad","greedy":{"text":"\xff","logprobs":[-1]}}',
    "lone-surrogate": '{"question_id":"bad\\ud800","greedy":{"text":"a","logprobs":[-1]}}',
    "long-integer": '{"question_id":"bad","greedy":{"text":"a","logprobs":[-1%s]}}' % ("0" * 5000),
    "deep-nesting": '{"question_id":"bad","meta":%s}' % ("[" * 5000 + "]" * 5000),
    "no-samples": '{"question_id":"bad","greedy":{"text":"yes","logprobs":[-0.1]},"samples":[]}',
    "empty-greedy": '{"question_id":"bad","greedy":{"text":"","logprobs":[]},'
                    '"samples":[{"text":"yes","logprobs":[-0.1]}]}',
    "p-sum-above-1": '{"question_id":"bad","greedy":{"text":"cat","logprobs":[-0.1]},'
                     '"samples":[{"text":"cat","logprobs":[-0.10536051565782628]},'
                     '{"text":"dog","logprobs":[-0.10536051565782628]}]}',
}


@pytest.fixture
def sharded(monkeypatch, capsys):
    """run(n, *argv): main() with n CPUs and a 1-byte shard minimum.

    Returns the exit code, stdout, stderr and the bytes of every file under
    the paths given as --out and --curves-out; run.forks lists the workers
    each run forked.
    """
    monkeypatch.setattr(cli, "_SHARD_MIN_BYTES", 1)
    real_fork = os.fork
    forks = []

    def fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)

    def run(n, *argv):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
        forks.clear()
        capsys.readouterr()
        code = cli.main(list(map(str, argv)))
        out, err = capsys.readouterr()
        written = {}
        for flag in ("--out", "--curves-out"):
            if flag in argv:
                path = Path(argv[argv.index(flag) + 1])
                files = sorted(path.rglob("*")) if path.is_dir() else [path]
                written.update((str(p), p.read_bytes()) for p in files if p.is_file())
                for p in files:
                    if p.is_file():
                        p.unlink()
        # no run leaves a worker behind, whatever its outcome
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        run.forks = list(forks)
        return code, out, err, written

    return run


def _same_at_any_count(run, *argv):
    """The serial outcome of argv, after checking 2 and 3 workers give it too."""
    serial = run(1, *argv)
    assert run.forks == []
    for n in (2, 3):
        assert run(n, *argv) == serial, n
    return serial


def _shard_of(path: str, line: int, n: int, monkeypatch) -> int:
    """The shard that holds a line of path when cut for n workers."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
    args = cli.build_parser().parse_args(["score", "--predictions", path])
    cuts = cli._shard_cuts(args)
    offset = sum(len(raw) for raw in Path(path).read_bytes().splitlines(True)[: line - 1])
    return sum(1 for cut in cuts[1:-1] if cut <= offset)


def _shard_lines(path, n: int, monkeypatch) -> list[list[int]]:
    """The line numbers each shard of path holds when cut for n workers."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
    args = cli.build_parser().parse_args(["score", "--predictions", str(path)])
    cuts = cli._shard_cuts(args)
    shards: list[list[int]] = [[] for _ in cuts[1:]]
    offset = 0
    for line, raw in enumerate(Path(path).read_bytes().splitlines(True), start=1):
        shards[sum(1 for cut in cuts[1:-1] if cut <= offset)].append(line)
        offset += len(raw)
    return shards


@pytest.fixture
def gold_after_scoring(monkeypatch):
    """Hold each run's gold read until every worker has finished scoring its shard.

    A worker writes its frames only after it has closed its end of the ids
    pipe, so the ids reach no worker. Returns a list that counts the
    BrokenPipeErrors the parent's writes of ids met.
    """
    workers = []
    fork_workers = _shards.fork_workers

    def forked(*args):
        workers[:] = fork_workers(*args)
        return workers

    load_gold_index = selqa_io.load_gold_index

    def held(path):
        pipes = [worker.pipe for worker in workers]
        while pipes:
            ready, _, _ = select.select(pipes, [], [], 60)
            assert ready, "a worker did not finish its shard"
            pipes = [pipe for pipe in pipes if pipe not in ready]
        return load_gold_index(path)

    broken = []
    write = os.write

    def counted(fd, data):
        try:
            return write(fd, data)
        except BrokenPipeError:
            broken.append(fd)
            raise

    monkeypatch.setattr(_shards, "fork_workers", forked)
    monkeypatch.setattr(selqa_io, "load_gold_index", held)
    monkeypatch.setattr(os, "write", counted)
    return broken


@pytest.fixture
def ids_at_the_first_frame(monkeypatch):
    """Make each worker wait for the gold ids at its first frame boundary."""
    poll = _shards._GoldIds.poll
    monkeypatch.setattr(_shards._GoldIds, "poll", lambda self, timeout=0.0: poll(self, 60))


@pytest.fixture
def scored_ids(monkeypatch, tmp_path):
    """read(): the ids every process has scored since the last read, in the order logged."""
    log = tmp_path / "scored.log"
    plan_scores = scoring.plan_scores

    def logged(record, methods):
        with open(log, "a", encoding="utf-8") as f:
            f.write(record.question_id + "\n")
        return plan_scores(record, methods)

    monkeypatch.setattr(scoring, "plan_scores", logged)

    def read():
        ids = log.read_text(encoding="utf-8").splitlines() if log.exists() else []
        log.unlink(missing_ok=True)
        return ids

    return read


def _gold_of(ids) -> str:
    return json.dumps([{"question_id": q, "answers": [{"answer": "red apple"}]} for q in ids])


class TestEqualBytes:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("argv,golden", [
        (["evaluate", "--gold", GOLDEN_GOLD], "golden_report.md"),
        (["evaluate", "--gold", GOLDEN_GOLD, "--format", "json"], "golden_report.json"),
        (["evaluate", "--gold", GOLDEN_GOLD, "--format", "csv"], "golden_report.csv"),
        (["evaluate", "--gold", GOLDEN_GOLD, "--classifier", "bleu-threshold",
          "--format", "json"], "golden_report_bleu.json"),
        (["score"], "golden_score.jsonl"),
        (["score", "--gold", GOLDEN_GOLD], "golden_score_gold.jsonl"),
        (["sweep", "--gold", GOLDEN_GOLD], "golden_sweep.csv"),
        (["sweep", "--gold", GOLDEN_GOLD, "--format", "json"], "golden_sweep.json"),
    ], ids=["report-md", "report-json", "report-csv", "report-bleu-threshold", "score",
            "score-gold", "sweep", "sweep-json"])
    def test_golden_fixtures(self, sharded, tmp_path, n, argv, golden):
        out = tmp_path / "out"
        code, stdout, err, written = sharded(n, *argv, "--predictions", GOLDEN_PRED,
                                             "--out", out)
        assert (code, stdout, err) == (0, "", "")
        assert written == {str(out): (DATA_DIR / golden).read_bytes()}
        assert len(sharded.forks) == (n if n > 1 else 0)  # one worker per shard

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_golden_curves(self, sharded, tmp_path, n):
        curves = tmp_path / "curves"
        code, _, _, written = sharded(n, "evaluate", "--predictions", GOLDEN_PRED,
                                      "--gold", GOLDEN_GOLD, "--curves-out", curves)
        assert code == 0
        expected = DATA_DIR / "golden_curves"
        assert written == {str(curves / p.name): p.read_bytes() for p in expected.iterdir()}

    @pytest.fixture(scope="class")
    def synth_dump(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("synth")
        assert cli.main(["synth", "--out", str(out), "--n", "300", "--seed", "1",
                         "--abstain-rate", "0.2", "--cluster-rate", "0.5"]) == 0
        return out / "predictions.jsonl", out / "gold.json"

    @pytest.mark.parametrize("argv", [
        ["evaluate", "--format", "json"],
        ["evaluate", "--classifier", "bleu-threshold", "--methods", "avg-bleu,likelihood"],
        ["evaluate", "--sim-mode", "char", "--format", "csv"],
        ["score"],
        ["sweep", "--format", "json"],
    ], ids=["evaluate", "evaluate-bleu-threshold", "evaluate-char", "score-gold", "sweep"])
    def test_synth_dump(self, sharded, tmp_path, synth_dump, argv):
        pred, gold = synth_dump
        argv = [*argv, "--predictions", pred, "--gold", gold, "--out", tmp_path / "out"]
        if argv[0] == "evaluate":
            argv += ["--curves-out", tmp_path / "curves"]
        code, _, _, written = _same_at_any_count(sharded, *argv)
        assert code == 0 and written
        assert len(sharded.forks) == 3

    def test_synth_dump_without_gold(self, sharded, tmp_path, synth_dump):
        pred, _ = synth_dump
        code, _, _, written = _same_at_any_count(
            sharded, "score", "--predictions", pred, "--out", tmp_path / "out"
        )
        assert code == 0 and len(written[str(tmp_path / "out")].splitlines()) == 300

    def test_logprob_sum_past_the_float_range(self, sharded, tmp_path, monkeypatch):
        # each logprob is finite, but their sum overflows: a probability of 0, not a crash
        lines = [_line(f"q{i}") for i in range(6)]
        lines[1] = lines[1].replace('"logprobs":[-0.1]', '"logprobs":[-1e308,-1e308]')  # greedy
        lines[4] = lines[4].replace('"logprobs":[-0.5]', '"logprobs":[-1e308,-1e308]')  # first sample
        pred = tmp_path / "p.jsonl"
        pred.write_text("".join(line + "\n" for line in lines))
        # in the parent's shard and in a worker's
        assert [_shard_of(str(pred), line, 2, monkeypatch) for line in (2, 5)] == [0, 1]
        gold = tmp_path / "g.json"
        gold.write_text(json.dumps([{"question_id": f"q{i}", "answers": [{"answer": "red apple"}]}
                                    for i in range(6)]))
        out = tmp_path / "out"
        code, _, err, written = _same_at_any_count(sharded, "score", "--predictions", pred,
                                                   "--gold", gold, "--out", out)
        assert (code, err) == (0, "")
        rows = [json.loads(row) for row in written[str(out)].splitlines()]
        assert rows[1]["scores"]["likelihood"] == 0.0
        # the first sample's weight drops to 0
        assert 0.0 < rows[4]["scores"]["avg-bleu"] < rows[0]["scores"]["avg-bleu"]


class TestErrorOrder:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    @pytest.mark.parametrize("with_gold", [True, False])
    def test_first_failing_line_on_either_side_of_a_cut(
        self, sharded, tmp_path, monkeypatch, case, with_gold
    ):
        bad = MALFORMED[case]
        bad = bad if isinstance(bad, bytes) else bad.encode()
        pred = tmp_path / "p.jsonl"
        gold = tmp_path / "g.json"
        ids = [f"q{i}" for i in range(6)] + ["bad"]
        gold.write_text(json.dumps([{"question_id": q, "answers": [{"answer": "red apple"}]}
                                    for q in ids]))
        argv = ["evaluate", "--gold", gold] if with_gold else ["score"]
        shards = {2: set(), 3: set()}
        for at in range(6):
            # lines of one width, so that the cuts fall between lines on both sides
            lines = [_line(q, len(bad)).encode() for q in ids[:6]]
            lines.insert(at, bad)
            # a second failing line after the first: the first must win
            lines.append(b"{also not json")
            pred.write_bytes(b"\n".join(lines) + b"\n")
            code, _, err, written = _same_at_any_count(
                sharded, *argv, "--predictions", pred, "--out", tmp_path / "out"
            )
            assert code == 2 and written == {}
            assert err.startswith(f"data error: {pred}: line {at + 1}: "), err
            for n in shards:
                shards[n].add(_shard_of(str(pred), at + 1, n, monkeypatch))
        # the failing line fell in every shard, the parent's included
        assert shards == {2: {0, 1}, 3: {0, 1, 2}}

    @pytest.mark.parametrize("first,repeat", [(1, 6), (5, 6), (1, 2)])
    def test_duplicate_id(self, sharded, tmp_path, first, repeat):
        pred = tmp_path / "p.jsonl"
        ids = [f"q{i}" for i in range(1, 7)]
        ids[repeat - 1] = ids[first - 1]
        gold = tmp_path / "g.json"
        # q5 is not in the gold file: a repeat counts before the join
        gold.write_text(json.dumps([{"question_id": f"q{i}", "answers": [{"answer": "x"}]}
                                    for i in range(1, 4)]))
        # the repeat is reported even when its own line cannot be scored
        unscorable = MALFORMED["no-samples"].replace('"bad"', json.dumps(ids[first - 1]))
        for repeated in (_line(ids[first - 1]), unscorable):
            lines = [_line(q) for q in ids]
            lines[repeat - 1] = repeated
            pred.write_text("".join(line + "\n" for line in lines) + "{not json\n")
            code, _, err, _ = _same_at_any_count(sharded, "evaluate", "--predictions", pred,
                                                 "--gold", gold)
            assert code == 2
            assert err == (f"data error: {pred}: line {repeat}: question_id {ids[first - 1]!r}: "
                           "duplicate question_id\n")

    def test_unscorable_unmatched_record_in_a_worker(self, sharded, tmp_path, monkeypatch):
        # the join drops it before scoring; the worker must go on past it
        bad = MALFORMED["no-samples"]
        pred = tmp_path / "p.jsonl"
        lines = [_line(f"q{i}", len(bad)) for i in range(9)]
        lines.insert(5, bad)
        pred.write_text("\n".join(lines) + "\n")
        assert [_shard_of(str(pred), 6, n, monkeypatch) for n in (2, 3)] == [1, 1]
        gold = tmp_path / "g.json"
        gold.write_text(json.dumps([{"question_id": f"q{i}", "answers": [{"answer": "x"}]}
                                    for i in range(11)]))
        code, stdout, err, _ = _same_at_any_count(sharded, "evaluate", "--predictions", pred,
                                                  "--gold", gold, "--format", "json")
        assert code == 0 and json.loads(stdout)["n_total"] == 9
        assert err == "join: matched 9; 1 predictions unmatched (bad); 2 gold unmatched (q9, q10)\n"

    @pytest.mark.parametrize("when", ["before", "after"])
    def test_unscorable_unmatched_record_and_the_ids(
        self, sharded, tmp_path, monkeypatch, request, scored_ids, when
    ):
        # the worker scores the line before the ids reach it, and skips it after
        request.getfixturevalue("gold_after_scoring" if when == "before"
                                else "ids_at_the_first_frame")
        ids = [f"q{i:03d}" for i in range(399)]
        lines = [_line(q) for q in ids]
        lines.insert(349, MALFORMED["no-samples"])  # line 350, past a frame in its shard
        pred = tmp_path / "p.jsonl"
        pred.write_text("".join(line + "\n" for line in lines))
        for n in (2, 3):
            shard = next(s for s in _shard_lines(pred, n, monkeypatch) if 350 in s)
            assert shard.index(350) >= _shards._BATCH
        gold = tmp_path / "g.json"
        gold.write_text(_gold_of(ids))
        argv = ["evaluate", "--predictions", pred, "--gold", gold, "--format", "json"]
        serial = sharded(1, *argv)
        assert "bad" not in scored_ids()
        code, stdout, err, _ = serial
        assert code == 0 and json.loads(stdout)["n_total"] == 399
        assert err == "join: matched 399; 1 predictions unmatched (bad)\n"
        for n in (2, 3):
            assert sharded(n, *argv) == serial
            assert ("bad" in scored_ids()) == (when == "before")

    def test_a_worker_done_before_the_ids_leaves_no_trace(
        self, sharded, tmp_path, gold_after_scoring
    ):
        argv = ["evaluate", "--predictions", GOLDEN_PRED, "--gold", GOLDEN_GOLD,
                "--out", tmp_path / "out"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for n in (2, 3):
                gold_after_scoring.clear()
                code, stdout, err, written = sharded(n, *argv)
                assert (code, stdout, err) == (0, "", "")
                assert written == {str(tmp_path / "out"):
                                   (DATA_DIR / "golden_report.md").read_bytes()}
                # each worker had closed its ids pipe, and the parent wrote no more to it
                assert len(set(gold_after_scoring)) == n
            gc.collect()
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []

    def test_gold_error_while_workers_score(self, sharded, tmp_path, monkeypatch):
        # the first shard holds a matched line that cannot be scored, the last a line
        # that does not parse; the gold error still comes first
        gold = tmp_path / "g.json"
        gold.write_text('[{"question_id": "q1", "answers": [{"answer": "x"}]},'
                        ' {"question_id": "q2", "answers": []}]\n')
        unscorable = MALFORMED["no-samples"].replace('"bad"', '"q1"')
        lines = [unscorable] + [_line(f"q{i}", len(unscorable)) for i in range(3, 9)]
        pred = tmp_path / "p.jsonl"
        pred.write_text("".join(line + "\n" for line in lines) + "{not json\n")
        for n in (2, 3):
            shards = _shard_lines(pred, n, monkeypatch)
            assert 1 in shards[0] and 8 in shards[-1]
        for n in (1, 2, 3):
            code, _, err, _ = sharded(n, "evaluate", "--predictions", pred, "--gold", gold)
            assert err == f"data error: {gold}: record 1: gold record 'q2' has no answers\n"
            assert code == 2 and len(sharded.forks) == (n if n > 1 else 0)

    def test_a_worker_with_the_ids_scores_no_record_the_gold_lacks(
        self, sharded, tmp_path, monkeypatch, ids_at_the_first_frame, scored_ids
    ):
        ids = [f"q{i:03d}" for i in range(400)]
        pred = tmp_path / "p.jsonl"
        pred.write_text("".join(_line(q) + "\n" for q in ids))
        gold = tmp_path / "g.json"
        kept = ids[::10]
        gold.write_text(_gold_of(kept))
        argv = ["score", "--predictions", pred, "--gold", gold, "--out", tmp_path / "out"]
        serial = sharded(1, *argv)
        assert scored_ids() == kept
        for n in (2, 3):
            assert sharded(n, *argv) == serial
            scored = scored_ids()
            # a worker scores every record of its first frame, then only the gold's
            first_frames = {ids[line - 1] for shard in _shard_lines(pred, n, monkeypatch)
                            for line in shard[:_shards._BATCH]}
            assert len(scored) == len(set(scored))
            assert set(scored) == set(kept) | first_frames


class TestWorkerFailure:
    @pytest.mark.parametrize("death,how", [
        (lambda: os._exit(7), "exited with status 7 before its end marker"),
        (lambda: os._exit(0), "exited with status 0 before its end marker"),
        (lambda: os.kill(os.getpid(), signal.SIGKILL),
         "was killed by signal 9 (SIGKILL) before its end marker"),
    ], ids=["status", "no-end-marker", "signal"])
    def test_is_an_error_naming_the_lines(self, sharded, tmp_path, monkeypatch, death, how):
        monkeypatch.setattr(_shards, "_frames", lambda *args: death())
        pred = tmp_path / "p.jsonl"
        pred.write_text("".join(_line(f"q{i}") + "\n" for i in range(6)))
        out = tmp_path / "out"
        code, stdout, err, written = sharded(2, "score", "--predictions", pred, "--out", out)
        assert (code, stdout, written) == (2, "", {})
        # every worker dies; the first one's lines are reported
        assert err == f"io error: {pred}: lines 1-3: scoring worker {how}\n"
        assert list(tmp_path.iterdir()) == [pred]

    def test_a_failed_fork_runs_serially(self, sharded, tmp_path, monkeypatch):
        # the second fork fails: the first worker is stopped, and one shard is scored
        fork = os.fork
        calls = []

        def failing_fork():
            calls.append(None)
            if len(calls) == 2:
                raise BlockingIOError(11, "Resource temporarily unavailable")
            return fork()

        monkeypatch.setattr(os, "fork", failing_fork)
        out = tmp_path / "out"
        code, _, err, written = sharded(3, "score", "--predictions", GOLDEN_PRED, "--out", out)
        assert (code, err, len(sharded.forks), len(calls)) == (0, "", 1, 2)
        assert written == {str(out): (DATA_DIR / "golden_score.jsonl").read_bytes()}

    def test_workers_are_stopped_when_the_parent_fails(self, sharded, tmp_path):
        # line 1 fails in the first worker's shard while the others still run
        pred = tmp_path / "p.jsonl"
        pred.write_text("{not json\n" + "".join(_line(f"q{i}") + "\n" for i in range(8)))
        code, _, err, _ = sharded(3, "score", "--predictions", pred)
        assert code == 2 and err.startswith(f"data error: {pred}: line 1: invalid JSON")
        assert len(sharded.forks) == 3

    def test_a_failed_write_leaves_no_worker(self, sharded, tmp_path):
        out = tmp_path / "nodir" / "x.md"
        code, _, err, _ = sharded(2, "evaluate", "--predictions", GOLDEN_PRED,
                                  "--gold", GOLDEN_GOLD, "--out", out)
        assert code == 2 and len(sharded.forks) == 2
        assert err == f"io error: [Errno 2] No such file or directory: '{out}'\n"

    def test_a_worker_writing_frames_is_sent_no_ids(self, tmp_path):
        # The gold read waits until the workers write frames: their frames and the
        # gold ids each overfill a pipe. A worker closes its ids pipe before its
        # frames, so the parent's ids fail at once rather than wait on it.
        ids = [f"q{i:05d}" for i in range(12000)]
        pred = tmp_path / "p.jsonl"
        pred.write_text("".join(_line(q) + "\n" for q in ids[:6000]))
        gold = tmp_path / "g.json"
        gold.write_text(_gold_of(ids))
        script = (
            "import os, select, sys\n"
            "import selqa.cli as cli\n"
            "from selqa import _shards, io\n"
            "cli._SHARD_MIN_BYTES = 1\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "workers = []\n"
            "fork_workers, load_gold_index = _shards.fork_workers, io.load_gold_index\n"
            "_shards.fork_workers = lambda *args: workers.extend(fork_workers(*args)) or workers\n"
            "def held(path):\n"
            "    for worker in workers:\n"
            "        select.select([worker.pipe], [], [])\n"
            "    return load_gold_index(path)\n"
            "io.load_gold_index = held\n"
            f"sys.exit(cli.main(['evaluate', '--predictions', {str(pred)!r}, '--gold', "
            f"{str(gold)!r}, '--methods', 'likelihood', '--format', 'json']))\n"
        )
        proc = run_python(["-c", script], timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == "join: matched 6000; 6000 gold unmatched (%s)\n" % ", ".join(
            ids[6000:6010])
        assert json.loads(proc.stdout)["n_total"] == 6000

    def test_workers_neither_flush_stdio_nor_run_atexit(self, tmp_path):
        # and frames travel without pickle, which the run never imports
        script = (
            "import atexit, os, sys\n"
            "import selqa.cli as cli\n"
            "cli._SHARD_MIN_BYTES = 1\n"
            "os.sched_getaffinity = lambda pid: {0, 1, 2}\n"
            "atexit.register(print, 'atexit')\n"
            "sys.stdout.write('pending ')\n"  # buffered: stdout is a pipe
            f"code = cli.main(['score', '--predictions', {GOLDEN_PRED!r}, "
            f"'--out', {str(tmp_path / 'out')!r}])\n"
            "print(code, 'pickle' in sys.modules)\n"
        )
        proc = run_python(["-c", script], timeout=60)
        assert (proc.stdout, proc.stderr) == ("pending 0 False\natexit\n", "")
        assert (tmp_path / "out").read_bytes() == (DATA_DIR / "golden_score.jsonl").read_bytes()


class TestServesSerially:
    def test_with_an_adapter(self, sharded, tmp_path):
        code, _, _, written = sharded(2, "score", "--predictions", GOLDEN_PRED,
                                      "--adapter-cmd", " ".join(adapter_cmd("jaccard")),
                                      "--out", tmp_path / "out")
        assert code == 0 and written and sharded.forks == []

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_on_a_named_pipe(self, monkeypatch, tmp_path):
        monkeypatch.setattr(cli, "_SHARD_MIN_BYTES", 1)
        fifo = tmp_path / "p.fifo"
        os.mkfifo(fifo)
        args = cli.build_parser().parse_args(["score", "--predictions", str(fifo)])
        assert cli._shard_cuts(args) is None  # decided without opening the pipe
        args.predictions = GOLDEN_PRED
        assert cli._shard_cuts(args) is not None

    def test_on_piped_stdin(self):
        script = (
            "import os, sys\n"
            "import selqa.cli as cli\n"
            "cli._SHARD_MIN_BYTES = 1\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "os.fork = lambda: sys.exit('forked')\n"
            "sys.exit(cli.main(['score', '--predictions', '/dev/stdin']))\n"
        )
        proc = run_python(["-c", script], input=Path(GOLDEN_PRED).read_text(), timeout=60)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == (DATA_DIR / "golden_score.jsonl").read_text()

    def test_below_the_shard_minimum(self, sharded, monkeypatch, tmp_path):
        size = Path(GOLDEN_PRED).stat().st_size
        monkeypatch.setattr(cli, "_SHARD_MIN_BYTES", size // 2 + 1)
        code, _, _, _ = sharded(2, "score", "--predictions", GOLDEN_PRED)
        assert code == 0 and sharded.forks == []
        monkeypatch.setattr(cli, "_SHARD_MIN_BYTES", size // 2)
        code, _, _, _ = sharded(2, "score", "--predictions", GOLDEN_PRED)
        assert code == 0 and len(sharded.forks) == 2

    def test_while_another_thread_runs(self, sharded):
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            code, _, _, _ = sharded(2, "score", "--predictions", GOLDEN_PRED)
        finally:
            release.set()
            thread.join(timeout=30)
        assert not thread.is_alive()
        assert code == 0 and sharded.forks == []


_ERRORS = st.builds(lambda kind, message: kind(message), st.sampled_from(_shards._KINDS),
                    st.text())
_SCORES = st.lists(st.sampled_from([0.0, 5e-324, 1.0]) | st.floats(0.0, 1.0), max_size=4)
_ITEMS = st.lists(st.builds(
    Scored, st.text(), st.integers(1, 2**62),
    st.none() | st.tuples(st.booleans(), st.none() | st.text(), _SCORES),
    st.none() | _ERRORS,
), max_size=8)


def _exact(item: Scored):
    """item with its scores as their bytes and its error as (class, message)."""
    result = item.result
    if result is not None:
        triggered, text, scores = result
        result = (type(triggered), triggered, text, struct.pack(f"<{len(scores)}d", *scores))
    error = None if item.error is None else (type(item.error), str(item.error))
    return item.question_id, item.line, result, error


class TestWireFormat:
    """A frame gives back its items, and a pipe that ends early reads as None."""

    @settings(max_examples=200, deadline=None)
    @given(items=_ITEMS, error=st.none() | _ERRORS)
    @example(items=[], error=None)
    @example(items=[Scored("q", 1, None, AdapterError("scorer died"))],
             error=OSError("read failed"))
    @example(items=[Scored("q", 1, (True, None, [0.0, 5e-324, 1.0]), None),
                    Scored("r", 2, None, None), Scored("s", 3, None, DataError("bad"))],
             error=DataError("line 4 does not parse"))
    def test_a_frame_gives_back_its_items(self, items, error):
        decoded = []
        frames = _shards._decode(_shards._encode(items, error))
        if error is None:
            decoded += frames
        else:
            with pytest.raises(type(error)) as raised:
                decoded += frames  # the error follows the last item
            assert (type(raised.value), str(raised.value)) == (type(error), str(error))
        assert [_exact(item) for item in decoded] == [_exact(item) for item in items]

    def test_read_gives_each_data_then_the_end_marker(self):
        read, write = os.pipe()
        os.write(write, _shards._framed(b"one") + _shards._framed(b"") + _shards._framed(b"x"))
        os.close(write)
        with open(read, "rb") as pipe:
            assert [_shards._read(pipe) for _ in range(4)] == [b"one", b"", b"x", None]

    @pytest.mark.parametrize("cut", [3, 8 + 2], ids=["in-header", "in-payload"])
    def test_read_of_a_pipe_that_ends_early_is_none(self, cut):
        read, write = os.pipe()
        os.write(write, _shards._framed(b"payload")[:cut])
        os.close(write)
        with open(read, "rb") as pipe:
            assert _shards._read(pipe) is None
