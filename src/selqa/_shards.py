"""Forked workers that run the scoring step on shards of a dump, merged in file order.

cli._score decides when a run is sharded, cuts the dump at line starts and
hands over its scoring step; this module runs the step on the shards after
the first, which the parent scores itself. Only the sharded path imports it.

A worker runs the step over its byte range and encodes its items in frames
of _BATCH items through selqa._columns: each frame holds the items' ids,
lines, flag bytes and each method's scores as array bytes, in one marshal
dump (marshal is built in and already loaded, where importing pickle alone
would add about 0.4 MiB to the parent's peak). After its last line it
writes the frames to its pipe, each behind an 8-byte length, then a zero
length as its end marker. It stops at its first error, which its last
frame carries, and it leaves through os._exit, so it never flushes
inherited stdio or runs atexit handlers.

The parent reads one frame at a time, worker by worker, and decodes it back
to the step's own items, so the join and the loop take them as they take
the parent's own: duplicate ids, the join summary and the first error are
decided in file order, as in a serial run. A worker that exits before its
end marker, or with a non-zero status, is an error naming its lines.
"""

from __future__ import annotations

import os
import signal
from contextlib import suppress
from typing import Callable, Iterable, Iterator, NoReturn, Sequence

from . import io as selqa_io
from ._columns import Scored, decode_frame, encode_frame
from .errors import DataError
from .records import PredictionRecord

#: Items a worker encodes into one frame.
_BATCH = 64
#: Bytes of a frame's length prefix.
_HEADER = 8
#: Bytes read at a time when counting newlines.
_CHUNK = 1 << 20

#: The parent's scoring step: records to their items, in order.
Step = Callable[[Iterable[PredictionRecord]], Iterator[Scored]]


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


def fork_workers(path: str, cuts: Sequence[int], step: Step) -> list[Worker]:
    """Fork a worker for each shard but the first; [], with no worker left, if a fork fails."""
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
                _work(path, start, end, step, write_fd, unused)
            os.close(write_fd)
            workers.append(Worker(path, start, end, pid, read_fd))
    except OSError:
        stop(workers)
        return []
    except BaseException:
        stop(workers)
        raise
    return workers


def stop(workers: Sequence[Worker]) -> None:
    """Kill and reap every worker not reaped yet."""
    for worker in workers:
        worker.stop()


def _work(
    path: str, start: int, end: int, step: Step, fd: int, unused: Sequence[int]
) -> NoReturn:
    """A worker's life: run the step on its shard, write the frames and the end marker, exit.

    unused are the pipe ends the worker inherited but does not write.
    """
    status = 1
    try:
        for other in unused:
            os.close(other)
        frames = _frames(path, start, end, step)
        with open(fd, "wb") as out:
            for frame in frames:
                out.write(len(frame).to_bytes(_HEADER, "little"))
                out.write(frame)
            out.write(bytes(_HEADER))
        status = 0
    finally:
        os._exit(status)


def _frames(path: str, start: int, end: int, step: Step) -> list[bytes]:
    """The shard's items, encoded in frames; only the last frame may hold an error."""
    frames: list[bytes] = []
    items: list[Scored] = []
    error = None
    records = selqa_io.iter_predictions(path, start, end, line_at(path, start))
    try:
        for item in step(records):
            items.append(item)
            if item.error is not None:
                break
            if len(items) == _BATCH:
                frames.append(encode_frame(items))
                items = []
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
