"""selqa: answer-confidence scoring and calibration evaluation for selective QA.

The pipeline consumes prediction dumps (greedy answer plus sampled answers,
each with token log-probabilities) and gold annotations, scores each record's
confidence with likelihood- and sampling-based methods, decides triggering,
classifies correctness, and reports calibration quality (ROC-AUC, expected
calibration error, coverage at target accuracy).

The package exports the documented library API: the record types, the
scoring and report calls, and the errors. Every other name lives in its
submodule, e.g. ``selqa.io`` for the file formats and ``selqa.metrics``
for the individual calibration metrics.
"""

from .correctness import CorrectnessClassifier
from .errors import AdapterError, DataError, ParseError, SelqaError, UsageError
from .metrics import EvalPoint, build_report
from .records import (
    CalibrationReport,
    GoldAnnotation,
    GoldRecord,
    MethodMetrics,
    PredictionRecord,
    SampledAnswer,
    ScoredPrediction,
)
from .scoring import BUILTIN_METHODS, score_all, score_record
from .similarity import BleuSimilarity, SimilarityFn, answer_similarity, bleu

__version__ = "0.1.0"

__all__ = [
    "AdapterError",
    "BUILTIN_METHODS",
    "BleuSimilarity",
    "CalibrationReport",
    "CorrectnessClassifier",
    "DataError",
    "EvalPoint",
    "GoldAnnotation",
    "GoldRecord",
    "MethodMetrics",
    "ParseError",
    "PredictionRecord",
    "SampledAnswer",
    "ScoredPrediction",
    "SelqaError",
    "SimilarityFn",
    "UsageError",
    "answer_similarity",
    "bleu",
    "build_report",
    "score_all",
    "score_record",
]
