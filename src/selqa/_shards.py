"""Forked workers that score shards of a dump, merged back in file order.

cli._score decides when a run is sharded and cuts the dump at line starts;
this module runs the shards after the first, which the parent scores
itself. Only the sharded path imports it.

A worker scores its byte range with the parent's own scoring step, looks
each record up in the gold index it inherited and scores only the matched
ones, as the join does. It keeps every record as a compact tuple, encoded
with marshal in frames of _BATCH records (marshal is built in and already
loaded, where importing pickle alone would add about 0.4 MiB to the
parent's peak), and after its last line writes the frames to its pipe,
each behind an 8-byte length, then a zero length as its end marker. It stops at its first error, which its last frame carries, and it
leaves through os._exit, so it never flushes inherited stdio or runs
atexit handlers.

The parent reads one frame at a time, worker by worker, and yields each
record as a Shipped record, which the join and the scoring loop take in
place of a parsed one: duplicate ids, the join summary and the first error
are decided in file order, as in a serial run. A worker that exits before
its end marker, or with a non-zero status, is an error naming its lines.
"""

from __future__ import annotations

import marshal
import os
import signal
from contextlib import suppress
from typing import Callable, Iterator, Mapping, NoReturn, Sequence

from . import io as selqa_io
from .errors import AdapterError, DataError
from .records import PredictionRecord, ScoredPrediction

#: Records a worker encodes into one frame.
_BATCH = 64
#: Bytes of a frame's length prefix.
_HEADER = 8
#: Bytes read at a time when counting newlines.
_CHUNK = 1 << 20
#: The errors a worker sends, by index: the classes main() maps to exit codes.
_KINDS = (DataError, AdapterError, OSError)
#: The gold entry of every record when a run has no gold file.
_NO_GOLD = ((), False)

#: The parent's scoring step: a record and its gold entry to a scored row.
Score = Callable[[PredictionRecord, tuple[str, ...], bool], ScoredPrediction]


class Shipped:
    """A record a worker has read, as the join and the scoring loop see it.

    row is (triggered, scores in method order, verdicts in classifier
    order), or None for a record the gold index lacks; error is the
    scoring error the record raised.
    """

    __slots__ = ("question_id", "line", "row", "error")

    def __init__(self, question_id: str, line: int, row: tuple | None,
                 error: Exception | None = None) -> None:
        self.question_id = question_id
        self.line = line
        self.row = row
        self.error = error

    def scored(
        self, methods: Sequence[str], classifiers: Sequence[str], answerable: bool
    ) -> ScoredPrediction:
        """The record's scored row, checked again as it is rebuilt."""
        if self.error is not None:
            raise self.error
        triggered, scores, verdicts = self.row
        return ScoredPrediction(
            question_id=self.question_id,
            triggered=triggered,
            scores=dict(zip(methods, scores)),
            correct=dict(zip(classifiers, verdicts)),
            answerable=answerable,
        )


class Worker:
    """A forked worker scoring the dump's bytes [start, end).

    Iterating it yields the worker's records in file order, and reaps the
    worker after its end marker; stop() kills and reaps it at any time.
    """

    def __init__(self, path: str, start: int, end: int, pid: int, fd: int) -> None:
        self.path = path
        self.start = start
        self.end = end
        self.pid: int | None = pid
        self.pipe = open(fd, "rb")

    def __iter__(self) -> Iterator[Shipped]:
        while True:
            header = self.pipe.read(_HEADER)
            size = int.from_bytes(header, "little")
            frame = self.pipe.read(size) if size else b""
            if len(header) < _HEADER or len(frame) < size:
                raise self._reaped(ended=False)
            if not size:
                break
            items, error = marshal.loads(frame)
            for line, question_id, row in items:
                yield Shipped(question_id, line, row)
            if error is not None:
                line, question_id, kind, message = error
                if question_id is None:  # a line that did not parse
                    raise _KINDS[kind](message)
                yield Shipped(question_id, line, None, _KINDS[kind](message))
        failure = self._reaped(ended=True)
        if failure is not None:
            raise failure

    def _reaped(self, ended: bool) -> ChildProcessError | None:
        """Wait for the worker: None if it sent its end marker and exited 0, else the error."""
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        code = os.waitstatus_to_exitcode(status)
        if ended and code == 0:
            return None
        if code < 0:
            how = f"was killed by signal {-code} ({signal.Signals(-code).name})"
        else:
            how = f"exited with status {code}"
        if not ended:
            how += " before its end marker"
        first, last = line_at(self.path, self.start), line_at(self.path, self.end - 1)
        return ChildProcessError(f"{self.path}: lines {first}-{last}: scoring worker {how}")

    def stop(self) -> None:
        """Kill and reap the worker unless it is reaped already, and close its pipe."""
        self.pipe.close()
        if self.pid is not None:
            with suppress(ProcessLookupError):
                os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None


def fork_workers(
    path: str, cuts: Sequence[int], gold: Mapping[str, tuple] | None, score: Score
) -> list[Worker] | None:
    """Fork a worker for each shard but the first; None, with none left, if a fork fails."""
    workers: list[Worker] = []
    try:
        for start, end in zip(cuts[1:], cuts[2:]):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                unused = [read_fd, *(worker.pipe.fileno() for worker in workers)]
                _work(path, start, end, gold, score, write_fd, unused)
            os.close(write_fd)
            workers.append(Worker(path, start, end, pid, read_fd))
    except OSError:
        stop(workers)
        return None
    except BaseException:
        stop(workers)
        raise
    return workers


def stop(workers: Sequence[Worker]) -> None:
    """Kill and reap every worker not reaped yet."""
    for worker in workers:
        worker.stop()


def _work(
    path: str, start: int, end: int, gold: Mapping[str, tuple] | None, score: Score,
    fd: int, unused: Sequence[int],
) -> NoReturn:
    """A worker's life: score its shard, write the frames and the end marker, exit.

    unused are the pipe ends the worker inherited but does not write.
    """
    status = 1
    try:
        for other in unused:
            os.close(other)
        frames = _frames(path, start, end, gold, score)
        with open(fd, "wb") as out:
            for frame in frames:
                out.write(len(frame).to_bytes(_HEADER, "little"))
                out.write(frame)
            out.write(bytes(_HEADER))
        status = 0
    finally:
        os._exit(status)


def _frames(
    path: str, start: int, end: int, gold: Mapping[str, tuple] | None, score: Score
) -> list[bytes]:
    """The shard's records as encoded (items, error) frames; only the last has an error."""
    frames: list[bytes] = []
    items: list[tuple] = []
    error = None
    records = selqa_io.iter_predictions(path, start, end, line_at(path, start))
    try:
        for record in records:
            entry = _NO_GOLD if gold is None else gold.get(record.question_id)
            row = None
            if entry is not None:
                try:
                    scored = score(record, *entry)
                except (DataError, AdapterError) as exc:
                    error = (record.line, record.question_id, _kind(exc), str(exc))
                    break
                row = (scored.triggered, tuple(scored.scores.values()),
                       tuple(scored.correct.values()))
            items.append((record.line, record.question_id, row))
            if len(items) == _BATCH:
                frames.append(marshal.dumps((items, None)))
                items = []
    except (DataError, OSError) as exc:  # a line that does not parse, or a failed read
        error = (None, None, _kind(exc), str(exc))
    finally:
        records.close()
    frames.append(marshal.dumps((items, error)))
    return frames


def _kind(exc: Exception) -> int:
    """The index in _KINDS of the class the parent raises in place of exc."""
    return next(i for i, kind in enumerate(_KINDS) if isinstance(exc, kind))


def line_at(path: str, offset: int) -> int:
    """The number of the line of path that holds byte offset, by a chunked newline count."""
    line = 1
    with open(path, "rb") as f:
        while offset > 0:
            chunk = f.read(min(offset, _CHUNK))
            if not chunk:
                break
            line += chunk.count(b"\n")
            offset -= len(chunk)
    return line
