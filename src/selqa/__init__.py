"""selqa: answer-confidence scoring and calibration evaluation for selective QA.

The pipeline consumes prediction dumps (greedy answer plus sampled answers,
each with token log-probabilities) and gold annotations, scores each record's
confidence with likelihood- and sampling-based methods, decides triggering,
classifies correctness, and reports calibration quality (ROC-AUC, expected
calibration error, coverage at target accuracy).
"""

from .correctness import (
    CorrectnessClassifier,
    exact_match_correct,
    similarity_correct,
)
from .errors import (
    AdapterError,
    DataError,
    DuplicateKeyError,
    JoinError,
    ParseError,
    RecordValidationError,
    SelqaError,
    UsageError,
)
from .metrics import (
    EvalPoint,
    RiskCoveragePoint,
    SweepRow,
    accuracy_at_trigger,
    build_report,
    coverage_at_accuracy,
    ece,
    risk_coverage_curve,
    roc_auc,
    threshold_sweep,
)
from .records import (
    ABSTENTION_MARKER,
    CalibrationReport,
    GoldAnnotation,
    GoldRecord,
    MethodMetrics,
    PredictionRecord,
    SampledAnswer,
    ScoredPrediction,
    validate_record,
)
from .scoring import (
    BUILTIN_METHODS,
    avg_bleu_score,
    diversity_score,
    likelihood_score,
    repetition_score,
    resolve_method_names,
    score_all,
    score_record,
    trigger_decision,
)
from .similarity import (
    BleuSimilarity,
    SimilarityFn,
    answer_similarity,
    bleu,
)
from .textnorm import normalize_answer, tokenize

__version__ = "0.1.0"

__all__ = [
    "ABSTENTION_MARKER",
    "AdapterError",
    "BUILTIN_METHODS",
    "BleuSimilarity",
    "CalibrationReport",
    "CorrectnessClassifier",
    "DataError",
    "DuplicateKeyError",
    "EvalPoint",
    "GoldAnnotation",
    "GoldRecord",
    "JoinError",
    "MethodMetrics",
    "ParseError",
    "PredictionRecord",
    "RecordValidationError",
    "RiskCoveragePoint",
    "SampledAnswer",
    "ScoredPrediction",
    "SelqaError",
    "SimilarityFn",
    "SweepRow",
    "UsageError",
    "accuracy_at_trigger",
    "answer_similarity",
    "avg_bleu_score",
    "bleu",
    "build_report",
    "coverage_at_accuracy",
    "diversity_score",
    "ece",
    "exact_match_correct",
    "likelihood_score",
    "normalize_answer",
    "repetition_score",
    "resolve_method_names",
    "risk_coverage_curve",
    "roc_auc",
    "score_all",
    "score_record",
    "similarity_correct",
    "threshold_sweep",
    "tokenize",
    "trigger_decision",
    "validate_record",
]
