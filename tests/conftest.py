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


def adapter_cmd(mode: str = "em") -> list[str]:
    return [sys.executable, str(ADAPTER_SCRIPT), mode]


def run_python(args: list[str], **kwargs) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that imports selqa from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, **kwargs
    )


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
