"""Subprocess adapter for external answer-similarity scorers.

Wire protocol, one JSON object per line over stdin/stdout:

    request   {"a": "<candidate>", "b": "<reference>"}
    response  {"score": 0.42}            on success
    response  {"error": "<message>"}     on failure

Scores must lie in [0, 1]; anything else is rejected with AdapterError rather
than trusted. ExternalSimilarity owns one scorer process, both of its pipes
and a lock, and holds the lock for each whole exchange, so callers that share
it across threads never read each other's replies.

An exchange is one poll loop that writes its requests as the stdin pipe
takes them and reads replies as they come, so a scorer sees requests
pipelined and must answer each line with exactly one line, in order. A
prefetch is one exchange for a window of records: each record's pairs are
written as soon as the caller has read the record, and the replies are read
once the window is read. A reply that is no score is held as its pair's
error for the first call that asks for the pair, so the CLI names the
record that needs it, though later records of its window may already have
had their pairs sent. Bytes read past an exchange's last reply answer no
request and fail it with AdapterError; as the protocol carries no request
ids, a surplus reply that arrives only after its exchange has all its
replies is read by the next exchange as its first, and one that arrives
after the last exchange fails close, which reads the scorer's output to its
end. ``score_matrix`` and ``prefetch`` keep every score they have received,
for avg-similarity and verdicts alike, in a run-wide table and never send a
pair twice, so a scorer must be a function of (a, b).
"""

from __future__ import annotations

import json
import os
import select
import shlex
import subprocess
import threading
import time
from itertools import chain
from typing import Iterable, Iterator, Sequence

from .errors import AdapterError
from .similarity import SimilarityFn

_quote = json.encoder.encode_basestring
# Reads every JSON number as a float: an integer too long for one reads as
# inf, which the [0, 1] check then rejects, instead of overflowing.
_DECODER = json.JSONDecoder(parse_int=float)

#: Seconds to wait for a scorer that closed its output to exit, so that
#: the error can give its exit status.
_REAP_WAIT = 1.0

#: Seconds close gives a scorer to close its output and exit.
_CLOSE_WAIT = 5.0

#: Most (a, b) scores the pair table holds; it is cleared whole when a call
#: could take it past this, or, once windows are prefetched, when a window
#: starts with the table this full, so a window's own pairs may take it past.
#: Full, it holds about 9 MiB when each record's answers are new ones,
#: strings included.
_TABLE_CAP = 2**17


class ExternalSimilarity(SimilarityFn):
    """A SimilarityFn backed by one scorer subprocess speaking the line protocol.

    similarity sends its one pair, outside the table; score_matrix sends the
    pairs its table lacks as one pipelined exchange, and prefetch sends a
    window's. The [0, 1] range check is left to
    similarity.answer_similarities, which sees every score.
    """

    def __init__(self, command: str | list[str], name: str = "adapter") -> None:
        self.name = name
        argv = shlex.split(command) if isinstance(command, str) else list(command)
        if not argv:
            raise ValueError("the command names no program")
        try:
            self._proc = subprocess.Popen(
                argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, bufsize=0
            )
        except OSError as exc:
            raise AdapterError(f"failed to launch adapter {argv!r}: {exc}") from exc
        # Writes never block, so a full stdin pipe cannot stall the reads.
        os.set_blocking(self._proc.stdin.fileno(), False)
        # stdout stays registered for the scorer's life; each exchange
        # registers stdin while a write waits for room in the pipe.
        self._poller = select.poll()
        self._poller.register(self._proc.stdout, select.POLLIN)
        # One exchange at a time on the shared pipes and the pair table.
        self._lock = threading.Lock()
        self._table: dict[str, dict[str, float]] = {}
        self._tabled = 0
        #: The errors of the pairs a prefetch sent, each held for the first
        #: score_matrix call that asks for its pair.
        self._failed: dict[tuple[str, str], AdapterError] = {}
        #: Set by the first prefetch: from then on the table is cleared only
        #: at the start of a prefetch.
        self._windowed = False

    def similarity(self, candidate: str, reference: str) -> float:
        with self._lock:
            return _scores(*self._exchange([(candidate, reference)]))[0]

    def score_matrix(
        self, candidates: Sequence[str], references: Sequence[str]
    ) -> list[list[float]]:
        with self._lock:
            if (not self._windowed
                    and self._tabled + len(candidates) * len(references) > _TABLE_CAP):
                self._table.clear()
                self._tabled = 0
            rows = [self._table.setdefault(a, {}) for a in candidates]
            missing = {(a, b): None for a, row in zip(candidates, rows)
                       for b in references if b not in row}
            if missing:
                if self._failed:  # a prefetched pair's error, the first in request order
                    for pair in missing:
                        if pair in self._failed:
                            raise self._failed[pair]
                scores = _scores(*self._exchange(list(missing)))
                for (a, b), score in zip(missing, scores):
                    self._table[a][b] = score
                self._tabled += len(missing)
            return [[row[b] for b in references] for row in rows]

    def prefetch(
        self, requests: Iterable[Iterable[tuple[Sequence[str], Sequence[str]]]]
    ) -> AdapterError | None:
        """Table, in one exchange, the scores of every pair the table lacks of a window.

        Each item of requests holds the (candidates, references) matrices
        one record will ask score_matrix for, in order. The item's missing
        pairs, in that order and each pair once a window, are written as
        soon as the item is drawn, so the scorer works while the caller
        reads its next record; the replies are read once requests runs out
        (or the scorer closes its output). Each score joins the table, and
        each failed pair's error is held for the first score_matrix call
        that asks for the pair. The table is cleared whole here when it
        holds _TABLE_CAP scores or more, and from the first prefetch on
        only here, so the window's own score_matrix calls are answered from
        it. Returns the error of reply bytes past the last reply, or None,
        for the caller to raise once it has read the window's scores.
        """
        with self._lock:
            self._windowed = True
            self._failed.clear()
            if self._tabled >= _TABLE_CAP:
                self._table.clear()
                self._tabled = 0
            table = self._table
            # Each pair sent, as its candidate, its table row and its
            # reference; the row holds None for it until its reply is read.
            cands: list[str] = []
            rows: list[dict[str, float]] = []
            refs: list[str] = []

            def batches() -> Iterator[list[tuple[str, str]]]:
                for matrices in requests:
                    batch = []
                    for candidates, references in matrices:
                        for a in candidates:
                            row = table.setdefault(a, {})
                            for b in references:
                                if b not in row:
                                    row[b] = None  # sent once a window
                                    cands.append(a)
                                    rows.append(row)
                                    refs.append(b)
                                    batch.append((a, b))
                    yield batch

            try:
                results, surplus = self._exchange([], batches())
            except BaseException:
                table.clear()  # of the pairs it holds None for
                self._tabled = 0
                raise
            for a, row, b, result in zip(cands, rows, refs, results):
                if isinstance(result, AdapterError):
                    del row[b]
                    self._failed[a, b] = result
                else:
                    row[b] = result
            self._tabled += len(results)
            return surplus

    def _exchange(
        self, pairs: Sequence[tuple[str, str]],
        more: Iterable[Sequence[tuple[str, str]]] = (),
    ) -> tuple[list[float | AdapterError], AdapterError | None]:
        """Send one request per pair, then per pair of each batch of more, and read the replies.

        A batch of more is drawn once the pipe has taken every request
        before it. Returns each pair's score, or the AdapterError that
        stands for it (its reply is no score, or never came as the scorer
        closed its output), in request order, and the error of the bytes
        read past the last reply, or None.
        """
        results: list[float | AdapterError] = []

        def payloads() -> Iterator[tuple[bytes, int]]:
            for batch in chain([pairs], more):
                if not batch:
                    continue
                try:
                    # The bytes of json.dumps({"a": a, "b": b}, ensure_ascii=False),
                    # without building an encoder per request.
                    data = "".join(
                        f'{{"a": {_quote(a)}, "b": {_quote(b)}}}\n' for a, b in batch
                    ).encode("utf-8")
                except UnicodeEncodeError as exc:  # not sent
                    results.extend([AdapterError(f"adapter pipe broke: {exc}")] * len(batch))
                    continue
                results.extend([_UNREAD] * len(batch))
                yield data, len(batch)

        replies, surplus = self._transfer(payloads())
        unanswered = iter(replies)
        closed = None
        for i, result in enumerate(results):
            if result is _UNREAD:
                reply = next(unanswered, None)
                if reply is None:
                    closed = closed or AdapterError(f"adapter closed its output ({self._status()})")
                    reply = closed
                results[i] = reply
        if not surplus:
            return results, None
        text = surplus[:200].decode("utf-8", "replace")
        return results, AdapterError(f"adapter sent more replies than requests: {text!r}")

    def _status(self) -> str:
        """The scorer's exit status, once it exits within _REAP_WAIT seconds."""
        try:
            return f"exit status {self._proc.wait(timeout=_REAP_WAIT)}"
        except subprocess.TimeoutExpired:
            return "still running"

    def _transfer(
        self, payloads: Iterator[tuple[bytes, int]]
    ) -> tuple[list[float | AdapterError], bytes]:
        """Write each payload and read its count of replies, in one poll loop.

        A payload is drawn once the one before it is all written, and is
        written at once as far as the stdin pipe takes it. The loop polls
        stdin while a payload waits for room and stdout throughout, so a
        scorer blocked on a full stdout pipe never stalls the writes, and
        it ends once every payload is written and every reply read. Returns
        each reply line's score or error (_reply), and the bytes read past
        the last line, which answer no request. Fewer replies come back only
        when the scorer closes its output; a trailing line without its
        newline then counts as a reply.
        """
        replies: list[float | AdapterError] = []
        unread = bytearray()  # reply bytes past the last complete line
        count = 0
        pending = memoryview(b"")
        poller = self._poller
        while True:
            while not pending and payloads is not None:
                payload = next(payloads, None)
                if payload is None:
                    payloads = None
                else:
                    count += payload[1]
                    pending = self._write(memoryview(payload[0]))
            if not pending and payloads is None and len(replies) >= count:
                return replies, bytes(unread)
            try:
                stdin, stdout = self._proc.stdin.fileno(), self._proc.stdout.fileno()
                if pending:
                    poller.register(stdin, select.POLLOUT)
                try:
                    events = poller.poll()
                finally:
                    if pending:
                        poller.unregister(stdin)
                for fd, _ in events:
                    if fd == stdin:
                        pending = self._write(pending)
                        continue
                    chunk = os.read(stdout, 1 << 16)
                    if not chunk:
                        if unread and len(replies) < count:
                            replies.append(_reply(bytes(unread)))
                            unread.clear()
                        return replies, bytes(unread)
                    unread += chunk
                    while len(replies) < count and (end := unread.find(b"\n")) >= 0:
                        replies.append(_reply(bytes(unread[:end + 1])))
                        del unread[:end + 1]
            except (OSError, ValueError) as exc:
                raise AdapterError(f"adapter pipe broke: {exc}") from exc

    def _write(self, pending: memoryview) -> memoryview:
        """Write what the stdin pipe takes now and return the rest.

        Nothing is left once the scorer stops reading: its output says why.
        """
        try:
            return pending[os.write(self._proc.stdin.fileno(), pending):]
        except BlockingIOError:
            return pending
        except BrokenPipeError:
            return pending[:0]
        except (OSError, ValueError) as exc:
            raise AdapterError(f"adapter pipe broke: {exc}") from exc

    def close(self) -> None:
        """Close stdin, read stdout to its end and reap the scorer.

        A scorer that has not closed its output within _CLOSE_WAIT seconds
        is killed. A byte it wrote past the last reply read answers no
        request: an AdapterError, raised once the scorer is reaped.
        """
        if self._proc.stdout.closed:
            return
        try:
            self._proc.stdin.close()
        except OSError:
            pass  # a broken pipe: the scorer already exited
        deadline = time.monotonic() + _CLOSE_WAIT
        left = bytearray()
        try:
            while (wait := deadline - time.monotonic()) > 0 and self._poller.poll(wait * 1e3):
                chunk = os.read(self._proc.stdout.fileno(), 1 << 16)
                if not chunk:
                    break
                left += chunk[:200 - len(left)]
        except OSError:
            pass  # what the scorer wrote is lost with the pipe
        try:
            self._proc.wait(timeout=max(deadline - time.monotonic(), 0))
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        finally:
            self._proc.stdout.close()
        if left:
            text = left.decode("utf-8", "replace")
            raise AdapterError(f"adapter sent more replies than requests: {text!r}")

    def __exit__(self, exc_type, *exc_info) -> None:
        try:
            self.close()
        except AdapterError:
            if exc_type is None:
                raise  # no error of its own is propagating


#: A request's place in an exchange's results until its reply is read.
_UNREAD = object()


def _scores(
    results: list[float | AdapterError], surplus: AdapterError | None
) -> list[float]:
    """An exchange's scores; raises its first pair's error, or else its surplus."""
    for result in results:
        if isinstance(result, AdapterError):
            raise result
    if surplus is not None:
        raise surplus
    return results  # type: ignore[return-value]


def _reply(raw: bytes) -> float | AdapterError:
    """The score in one raw reply line, or the AdapterError naming what is wrong."""
    try:
        return _parse_reply(raw.decode("utf-8"))
    except UnicodeDecodeError as exc:
        return AdapterError(f"adapter pipe broke: {exc}")
    except AdapterError as exc:
        return exc


def _parse_reply(line: str) -> float:
    """The score in one reply line, or AdapterError naming what is wrong."""
    try:
        response = _DECODER.decode(line)
    except (ValueError, RecursionError) as exc:
        raise AdapterError(f"adapter sent invalid JSON: {line[:200]!r}") from exc
    if not isinstance(response, dict):
        raise AdapterError(f"adapter response is not an object: {line[:200]!r}")
    if "error" in response:
        raise AdapterError(f"adapter reported: {response['error']}")
    if "score" not in response:
        raise AdapterError(f"adapter response has no score: {line[:200]!r}")
    score = response["score"]
    if not isinstance(score, float):
        raise AdapterError(f"adapter score is not a number: {repr(score)[:200]}")
    return score
