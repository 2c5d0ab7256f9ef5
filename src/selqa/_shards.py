"""Forked workers that run the scoring step on shards of a dump, merged in file order.

cli._score decides when a run is sharded, cuts the dump at line starts and
hands over its scoring step; this module forks one worker per shard before
the parent reads the gold file, so the gold file is read while the workers
score. Only the sharded path imports it.

A worker runs the step over its byte range. Until the gold ids arrive it
scores every record. Once its gold index is built, the parent sends the ids
down a second pipe per worker (send_ids), _IDS_CHUNK ids at a time, each
chunk a marshal dump behind an 8-byte length, then a zero length. The
worker looks for them between frames without waiting, reads them all once
they have begun to arrive, and from then on skips any record whose id the
gold lacks, as a serial run does. A record that fails to score carries its
error on its item and the worker goes on, since the join drops the error
with the record if the gold lacks it. Only a line that does not parse, or a
failed read, ends a worker, and its last frame carries that error.

The worker encodes its items in frames of _BATCH items through
selqa._columns, each one marshal dump (marshal is built in and already
loaded, where importing pickle alone would add about 0.4 MiB to the
parent's peak). After its last line it closes its end of the ids pipe, so
the parent never waits to write ids to a worker that is writing frames, and
writes the frames to its frame pipe, each behind an 8-byte length, then a
zero length as its end marker. It leaves through os._exit, so it never
flushes inherited stdio or runs atexit handlers.

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
from typing import Callable, Container, Iterable, Iterator, NoReturn, Sequence

from . import io as selqa_io
from ._columns import Scored, decode_frame, encode_frame
from .errors import DataError
from .records import PredictionRecord

#: Items a worker encodes into one frame.
_BATCH = 64
#: Gold ids the parent sends in one chunk.
_IDS_CHUNK = 1024
#: Bytes of a frame's or an ids chunk's length prefix.
_HEADER = 8
#: Bytes read at a time when counting newlines.
_CHUNK = 1 << 20

#: The CLI's scoring step: records to their items, in order. A record whose
#: id the container lacks is passed on unscored; None scores every record.
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
        while True:
            header = self.pipe.read(_HEADER)
            size = int.from_bytes(header, "little")
            frame = self.pipe.read(size) if size else b""
            if len(header) < _HEADER or len(frame) < size:
                raise self._reaped(ended=False)
            if not size:
                break
            yield from decode_frame(frame)
        failure = self._reaped(ended=True)
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

    Each chunk is encoded once and written to every worker still reading.
    None, for a run without gold, only closes the pipes, and the workers go
    on scoring every record.
    """
    if ids is not None:
        remaining = iter(ids)
        while True:
            chunk = list(islice(remaining, _IDS_CHUNK))
            data = marshal.dumps(chunk) if chunk else b""
            for worker in workers:
                worker.send(len(data).to_bytes(_HEADER, "little") + data)
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
        while True:
            header = self.pipe.read(_HEADER)
            size = int.from_bytes(header, "little")
            data = self.pipe.read(size) if size else b""
            if len(header) < _HEADER or len(data) < size:
                break
            if not size:
                self.ids = ids
                break
            ids.update(marshal.loads(data))
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
                out.write(len(frame).to_bytes(_HEADER, "little"))
                out.write(frame)
            out.write(bytes(_HEADER))
        status = 0
    finally:
        os._exit(status)


def _frames(
    path: str, start: int, end: int, step: Step, samples: bool, ids: _GoldIds
) -> list[bytes]:
    """The shard's items, encoded in frames; the last frame may end in a parse or read error."""
    frames: list[bytes] = []
    items: list[Scored] = []
    error = None
    records = selqa_io.iter_predictions(path, start, end, line_at(path, start), samples=samples)
    try:
        for item in step(records, ids):
            items.append(item)
            if len(items) == _BATCH:
                frames.append(encode_frame(items))
                items = []
                ids.poll()
    except (DataError, OSError) as exc:  # a line that does not parse, or a failed read
        error = exc
    finally:
        records.close()
    frames.append(encode_frame(items, error))
    return frames


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
