"""Subprocess adapter for external answer-similarity scorers.

Wire protocol, one JSON object per line over stdin/stdout:

    request   {"a": "<candidate>", "b": "<reference>"}
    response  {"score": 0.42}            on success
    response  {"error": "<message>"}     on failure

Scores must lie in [0, 1]; anything else is rejected with AdapterError rather
than trusted. ExternalSimilarity owns one scorer process, both of its pipes
and a lock, and holds the lock for each whole request/response exchange, so
callers that share it across threads never read each other's replies.
"""

from __future__ import annotations

import json
import shlex
import subprocess
import threading

from .errors import AdapterError
from .similarity import SimilarityFn


class ExternalSimilarity(SimilarityFn):
    """A SimilarityFn backed by one scorer subprocess speaking the line protocol.

    The [0, 1] range check happens in answer_similarity, which sees every
    score the adapter returns.
    """

    def __init__(self, command: str | list[str], name: str = "adapter") -> None:
        self.name = name
        argv = shlex.split(command) if isinstance(command, str) else list(command)
        try:
            self._proc = subprocess.Popen(
                argv,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                text=True,
                encoding="utf-8",
                bufsize=1,  # line buffered
            )
        except OSError as exc:
            raise AdapterError(f"failed to launch adapter {argv!r}: {exc}") from exc
        # One request/response exchange at a time on the shared pipes.
        self._lock = threading.Lock()

    def similarity(self, candidate: str, reference: str) -> float:
        request = json.dumps({"a": candidate, "b": reference}, ensure_ascii=False)
        with self._lock:
            try:
                assert self._proc.stdin is not None and self._proc.stdout is not None
                self._proc.stdin.write(request + "\n")
                self._proc.stdin.flush()
                line = self._proc.stdout.readline()
            except (OSError, ValueError) as exc:
                raise AdapterError(f"adapter pipe broke: {exc}") from exc
            if not line:
                code = self._proc.poll()
                raise AdapterError(f"adapter closed its output (exit status {code})")
        try:
            response = json.loads(line)
        except json.JSONDecodeError as exc:
            raise AdapterError(f"adapter sent invalid JSON: {line!r}") from exc
        if not isinstance(response, dict):
            raise AdapterError(f"adapter response is not an object: {line!r}")
        if "error" in response:
            raise AdapterError(f"adapter reported: {response['error']}")
        if "score" not in response:
            raise AdapterError(f"adapter response has no score: {line!r}")
        score = response["score"]
        if not isinstance(score, (int, float)):
            raise AdapterError(f"adapter score is not a number: {score!r}")
        return float(score)

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
