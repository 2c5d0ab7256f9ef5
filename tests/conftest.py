import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from selqa import BleuSimilarity, SampledAnswer
from selqa.adapter import ExternalSimilarity

DATA_DIR = Path(__file__).parent / "data"
SRC_DIR = Path(__file__).resolve().parent.parent / "src"
ADAPTER_SCRIPT = Path(__file__).parent / "adapters" / "line_scorer.py"


def adapter_cmd(mode: str = "em", *extra: object) -> list[str]:
    """Launch line_scorer.py in a mode; extra arguments (a request log) follow."""
    return [sys.executable, str(ADAPTER_SCRIPT), mode, *map(str, extra)]


def logged_requests(log: Path) -> list[tuple[str, str]]:
    """The (a, b) pairs a line_scorer.py request log holds, in arrival order."""
    return [(r["a"], r["b"]) for r in map(json.loads, log.read_text("utf-8").splitlines())]


def run_python(
    args: list[str], env: dict[str, str] | None = None, **kwargs
) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that imports selqa from this checkout; env adds variables.

    Its output is text unless text=False is given.
    """
    env = {**os.environ, **(env or {})}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
    kwargs.setdefault("text", True)
    return subprocess.run([sys.executable, *args], capture_output=True, env=env, **kwargs)


def ans(text: str, *logprobs: float) -> SampledAnswer:
    """Shorthand for building answers in tests."""
    return SampledAnswer(text=text, logprobs=tuple(logprobs) or (-1.0,))


@pytest.fixture
def golden_paths() -> tuple[Path, Path]:
    return DATA_DIR / "golden_predictions.jsonl", DATA_DIR / "golden_gold.json"


@pytest.fixture(params=["bleu", "jaccard-adapter"])
def similarity_fn(request):
    """Built-in BLEU, then the jaccard line scorer as a subprocess adapter."""
    if request.param == "bleu":
        yield BleuSimilarity()
    else:
        with ExternalSimilarity(adapter_cmd("jaccard"), name="jaccard") as fn:
            yield fn
