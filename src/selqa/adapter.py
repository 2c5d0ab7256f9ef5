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
pipelined and must answer each line with exactly one line, in order. Bytes
read past an exchange's last reply answer no request and fail it with
AdapterError; as the protocol carries no request ids, a surplus reply that
arrives only after its exchange has all its replies is read by the next
exchange as its first. ``score_matrix`` keeps every score it has received,
for avg-similarity and verdicts alike, in a run-wide table and never sends
a pair twice, so a scorer must be a function of (a, b).
"""

from __future__ import annotations

import json
import os
import select
import shlex
import subprocess
import threading
from typing import Sequence

from .errors import AdapterError
from .similarity import SimilarityFn

_quote = json.encoder.encode_basestring
# Reads every JSON number as a float: an integer too long for one reads as
# inf, which the [0, 1] check then rejects, instead of overflowing.
_DECODER = json.JSONDecoder(parse_int=float)

#: Seconds to wait for a scorer that closed its output to exit, so that
#: the error can give its exit status.
_REAP_WAIT = 1.0

#: Most (a, b) scores the pair table holds; it is cleared whole when a call
#: could take it past this. Full, it holds about 9 MiB when each record's
#: answers are new ones, strings included.
_TABLE_CAP = 2**17


class ExternalSimilarity(SimilarityFn):
    """A SimilarityFn backed by one scorer subprocess speaking the line protocol.

    similarity sends its one pair, outside the table; score_matrix sends the
    pairs its table lacks as one pipelined exchange. The [0, 1] range check
    is left to similarity.answer_similarities, which sees every score.
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
        # registers stdin while it has requests to write.
        self._poller = select.poll()
        self._poller.register(self._proc.stdout, select.POLLIN)
        # One exchange at a time on the shared pipes and the pair table.
        self._lock = threading.Lock()
        self._table: dict[str, dict[str, float]] = {}
        self._tabled = 0

    def similarity(self, candidate: str, reference: str) -> float:
        with self._lock:
            return self._exchange([(candidate, reference)])[0]

    def score_matrix(
        self, candidates: Sequence[str], references: Sequence[str]
    ) -> list[list[float]]:
        with self._lock:
            if self._tabled + len(candidates) * len(references) > _TABLE_CAP:
                self._table.clear()
                self._tabled = 0
            rows = [self._table.setdefault(a, {}) for a in candidates]
            missing = {(a, b): None for a, row in zip(candidates, rows)
                       for b in references if b not in row}
            if missing:
                for (a, b), score in zip(missing, self._exchange(list(missing))):
                    self._table[a][b] = score
                self._tabled += len(missing)
            return [[row[b] for b in references] for row in rows]

    def _exchange(self, pairs: list[tuple[str, str]]) -> list[float]:
        """Send one request per pair and parse the replies, in request order."""
        try:
            # The bytes of json.dumps({"a": a, "b": b}, ensure_ascii=False),
            # without building an encoder per request.
            payload = "".join(
                f'{{"a": {_quote(a)}, "b": {_quote(b)}}}\n' for a, b in pairs
            ).encode("utf-8")
        except UnicodeEncodeError as exc:
            raise AdapterError(f"adapter pipe broke: {exc}") from exc
        lines, surplus = self._transfer(payload, len(pairs))
        scores = []
        for raw in lines:
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise AdapterError(f"adapter pipe broke: {exc}") from exc
            scores.append(_parse_reply(line))
        if len(scores) < len(pairs):
            raise AdapterError(f"adapter closed its output ({self._status()})")
        if surplus:
            text = surplus[:200].decode("utf-8", "replace")
            raise AdapterError(f"adapter sent more replies than requests: {text!r}")
        return scores

    def _status(self) -> str:
        """The scorer's exit status, once it exits within _REAP_WAIT seconds."""
        try:
            return f"exit status {self._proc.wait(timeout=_REAP_WAIT)}"
        except subprocess.TimeoutExpired:
            return "still running"

    def _transfer(self, payload: bytes, count: int) -> tuple[list[bytes], bytes]:
        """Write the payload and read count reply lines in one poll loop.

        stdin is polled while the payload is not all written and stdout
        throughout, so a scorer blocked on a full stdout pipe never stalls
        the writes, and the exchange ends once both are done. Returns the
        reply lines and the bytes read past the count-th line, which answer
        no request. Fewer than count lines come back only when the scorer
        closes its output; a trailing line without its newline then counts
        as a reply.
        """
        lines: list[bytes] = []
        unread = bytearray()  # reply bytes past the last complete line
        pending = memoryview(payload)
        poller = self._poller
        try:
            stdin, stdout = self._proc.stdin.fileno(), self._proc.stdout.fileno()
            poller.register(stdin, select.POLLOUT)
            try:
                while pending or len(lines) < count:
                    for fd, _ in poller.poll():
                        if fd == stdin:
                            pending = self._write(pending)
                            if not pending:
                                poller.unregister(stdin)
                            continue
                        chunk = os.read(stdout, 1 << 16)
                        if not chunk:
                            if unread and len(lines) < count:
                                lines.append(bytes(unread))
                                unread.clear()
                            return lines, bytes(unread)
                        unread += chunk
                        while len(lines) < count and (end := unread.find(b"\n")) >= 0:
                            lines.append(bytes(unread[:end + 1]))
                            del unread[:end + 1]
            finally:
                if pending:
                    poller.unregister(stdin)
        except (OSError, ValueError) as exc:
            raise AdapterError(f"adapter pipe broke: {exc}") from exc
        return lines, bytes(unread)

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

    def close(self) -> None:
        """Close both pipes and reap the scorer, killing it if it lingers."""
        try:
            self._proc.stdin.close()
        except OSError:
            pass  # a broken pipe: the scorer already exited
        try:
            self._proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        finally:
            self._proc.stdout.close()


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
