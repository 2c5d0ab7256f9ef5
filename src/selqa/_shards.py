"""Forked workers that run the scoring step on shards of a dump, merged in file order.

cli._score decides when a run is sharded, cuts the dump at line starts and
hands over its scoring step; this module forks one worker per shard before
the parent reads the gold file, so the gold file is read while the workers
score. Only the sharded path imports it.

Both pipes of a worker carry one framing: each message is a marshal dump
behind its 8-byte length (_framed), and an empty message is the end
marker; _read reads one back. marshal is built in and already loaded,
where importing pickle alone would add about 0.4 MiB to the parent's peak.

A worker runs the CLI's one scoring step over its byte range, a window of
records ahead, as a serial run does. Until the gold ids arrive it scores
every record. Once its gold index is built, the parent sends the ids
down a second pipe per worker (send_ids), _IDS_CHUNK ids a message, then
the end marker. The worker looks for them between frames without waiting,
reads them all once they have begun to arrive, and from then on skips any
record whose id the gold lacks, as a serial run does. A record that fails
to score carries its error on its item and the worker goes on, since the
join drops the error with the record if the gold lacks it. Only a line that
does not parse, or a failed read, ends a worker, and its last frame carries
that error.

A frame holds _BATCH items as plain tuples (_encode): each item's id, line,
result and error, then the error that ended the worker, if any. After its
last line the worker closes its end of the ids pipe, so the parent never
waits to write ids to a worker that is writing frames, and writes its
frames to its frame pipe, then the end marker. It leaves through os._exit,
so it never flushes inherited stdio or runs atexit handlers.

The parent reads one frame at a time, worker by worker, and decodes it back
to the step's own items, so the join and the loop take them as they take a
serial run's: duplicate ids, the join summary and the first error are
decided in file order. A worker that exits before its end marker, or with a
non-zero status, is an error naming its lines.
"""

from __future__ import annotations

import marshal
import os
import signal
from contextlib import suppress
from itertools import islice
from typing import BinaryIO, Callable, Container, Iterable, Iterator, NoReturn, Sequence

from . import io as selqa_io
from ._columns import Scored
from .errors import AdapterError, DataError
from .records import PredictionRecord

#: Items a worker encodes into one frame.
_BATCH = 64
#: Gold ids the parent sends in one chunk.
_IDS_CHUNK = 1024
#: Bytes of a message's length prefix.
_HEADER = 8
#: Bytes read at a time when counting newlines.
_CHUNK = 1 << 20

#: The errors a frame carries, by index: the classes main() maps to exit codes.
_KINDS = (DataError, AdapterError, OSError)

#: The CLI's one scoring step: records to their items, in order, a window
#: of records read ahead. A record whose id the container lacks is passed
#: on unscored; None scores every record. A worker's container is its
#: _GoldIds, which hold ids only: the step reads gold entries only for the
#: verdicts it plans on an adapter run, and an adapter run is never sharded.
Step = Callable[[Iterable[PredictionRecord], Container[str] | None], Iterator[Scored]]


class Worker:
    """A forked worker scoring the dump's bytes [start, end).

    Iterating it yields the worker's records in file order, and reaps the
    worker after its end marker; stop() kills and reaps it at any time.
    """

    def __init__(self, path: str, start: int, end: int, pid: int, fd: int, ids_fd: int) -> None:
        self.path = path
        self.start = start
        self.end = end
        self.pid: int | None = pid
        self.pipe = open(fd, "rb")
        #: The write end of the worker's ids pipe, until it is closed.
        self.ids_fd: int | None = ids_fd

    def __iter__(self) -> Iterator[Scored]:
        while frame := _read(self.pipe):
            yield from _decode(frame)
        failure = self._reaped(ended=frame is not None)
        if failure is not None:
            raise failure

    def send(self, data: bytes) -> None:
        """Write data down the ids pipe; a worker that no longer reads it gets no more."""
        if self.ids_fd is None:
            return
        view = memoryview(data)
        try:
            while view:
                view = view[os.write(self.ids_fd, view):]
        except BrokenPipeError:  # it has finished its shard, or died, which its frames tell
            self.close_ids()

    def close_ids(self) -> None:
        if self.ids_fd is not None:
            os.close(self.ids_fd)
            self.ids_fd = None

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
        """Kill and reap the worker unless it is reaped already, and close its pipes."""
        self.close_ids()
        self.pipe.close()
        if self.pid is not None:
            with suppress(ProcessLookupError):
                os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None


def fork_workers(path: str, cuts: Sequence[int], step: Step, samples: bool) -> list[Worker]:
    """Fork a worker for each shard; [], with no worker left, if a fork fails.

    samples is passed to selqa.io.iter_predictions: False when no method
    reads a record's samples.
    """
    workers: list[Worker] = []
    try:
        for start, end in zip(cuts, cuts[1:]):
            fds: list[int] = []
            try:
                fds += os.pipe()
                fds += os.pipe()
                pid = os.fork()
            except OSError:
                for fd in fds:
                    os.close(fd)
                raise
            frames_read, frames_write, ids_read, ids_write = fds
            if pid == 0:
                unused = [frames_read, ids_write]
                for worker in workers:
                    unused += [worker.pipe.fileno(), worker.ids_fd]
                _work(path, start, end, step, samples, frames_write, ids_read, unused)
            os.close(frames_write)
            os.close(ids_read)
            workers.append(Worker(path, start, end, pid, frames_read, ids_write))
    except OSError:
        stop(workers)
        return []
    except BaseException:
        stop(workers)
        raise
    return workers


def send_ids(workers: Sequence[Worker], ids: Iterable[str] | None) -> None:
    """Send the gold ids to every worker, then the end marker, and close the ids pipes.

    Each chunk is framed once and written to every worker still reading.
    None, for a run without gold, only closes the pipes, and the workers go
    on scoring every record.
    """
    if ids is not None:
        remaining = iter(ids)
        while True:
            chunk = list(islice(remaining, _IDS_CHUNK))
            data = _framed(marshal.dumps(chunk) if chunk else b"")
            for worker in workers:
                worker.send(data)
            if not chunk:
                break
    for worker in workers:
        worker.close_ids()


def stop(workers: Sequence[Worker]) -> None:
    """Kill and reap every worker not reaped yet."""
    for worker in workers:
        worker.stop()


class _GoldIds:
    """The gold file's ids as a worker learns them; until they arrive, it holds every id."""

    def __init__(self, fd: int) -> None:
        self.pipe = open(fd, "rb")
        self.ids: set[str] | None = None

    def __contains__(self, question_id: object) -> bool:
        return self.ids is None or question_id in self.ids

    def poll(self, timeout: float = 0.0) -> None:
        """Read every id if the parent has begun to send them, waiting up to timeout seconds.

        A pipe closed before its end marker (a run without gold, or a parent
        that failed) leaves every id held.
        """
        if self.pipe.closed:
            return
        import select  # here, in the worker, so the parent's peak does not hold the module

        if not select.select([self.pipe], [], [], timeout)[0]:
            return
        ids: set[str] = set()
        while chunk := _read(self.pipe):
            ids.update(marshal.loads(chunk))
        if chunk is not None:
            self.ids = ids
        self.pipe.close()


def _work(
    path: str, start: int, end: int, step: Step, samples: bool, fd: int, ids_fd: int,
    unused: Sequence[int],
) -> NoReturn:
    """A worker's life: run the step on its shard, write the frames and the end marker, exit.

    unused are the pipe ends the worker inherited but does not use.
    """
    status = 1
    try:
        for other in unused:
            os.close(other)
        ids = _GoldIds(ids_fd)
        frames = _frames(path, start, end, step, samples, ids)
        ids.pipe.close()  # from here on the parent's writes of ids fail at once
        with open(fd, "wb") as out:
            for frame in frames:
                out.write(_framed(frame))
            out.write(_framed(b""))
        status = 0
    finally:
        os._exit(status)


def _frames(
    path: str, start: int, end: int, step: Step, samples: bool, ids: _GoldIds
) -> list[bytes]:
    """The shard's items in frames; the last frame may end in a parse or read error."""
    frames: list[bytes] = []
    items: list[Scored] = []
    error = None
    records = selqa_io.iter_predictions(path, start, end, line_at(path, start), samples=samples)
    try:
        for item in step(records, ids):
            items.append(item)
            if len(items) == _BATCH:
                frames.append(_encode(items))
                items = []
                ids.poll()
    except (DataError, OSError) as exc:  # a line that does not parse, or a failed read
        error = exc
    finally:
        records.close()
    frames.append(_encode(items, error))
    return frames


def _encode(items: Sequence[Scored], error: Exception | None = None) -> bytes:
    """items as one frame; error, if given, follows the last item."""
    return marshal.dumps((
        [(item.question_id, item.line, item.result,
          None if item.error is None else _encoded(item.error)) for item in items],
        None if error is None else _encoded(error),
    ))


def _decode(frame: bytes) -> Iterator[Scored]:
    """The items of an _encode frame; an error that follows them is raised after them."""
    items, failure = marshal.loads(frame)
    for question_id, line, result, error in items:
        yield Scored(question_id, line, result, None if error is None else _decoded(error))
    if failure is not None:
        raise _decoded(failure)


def _encoded(error: Exception) -> tuple[int, str]:
    """error as a frame carries it: the index in _KINDS of its class, and its message."""
    return next(i for i, kind in enumerate(_KINDS) if isinstance(error, kind)), str(error)


def _decoded(failure: tuple[int, str]) -> Exception:
    """The error a frame's (kind, message) pair stands for, as the parent raises it."""
    kind, message = failure
    return _KINDS[kind](message)


def _framed(data: bytes) -> bytes:
    """data behind its 8-byte length, as both pipes carry it; empty data is the end marker."""
    return len(data).to_bytes(_HEADER, "little") + data


def _read(pipe: BinaryIO) -> bytes | None:
    """The next _framed data from pipe: b"" at the end marker, None if the pipe ends first."""
    header = pipe.read(_HEADER)
    size = int.from_bytes(header, "little")
    data = pipe.read(size)
    return data if len(header) == _HEADER and len(data) == size else None


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
