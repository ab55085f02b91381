"""Rule- and type-aware answer correctness judging for short-form QA."""

import os

# pedants' matrix products are tiny, so an idle BLAS thread pool only costs
# CPU; this must run before numpy loads, and a value the caller set wins
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .errors import (
    DatasetError,
    DimensionMismatch,
    EmptyCorpus,
    EmptyRecords,
    EmptyReferences,
    InconsistentDimensions,
    MissingAnnotations,
    OutOfRangeScore,
    PedantsError,
    SingleClassCorpus,
    TooFewModels,
)
from .harness import (
    ConfusionCounts,
    RankingInput,
    SweepRow,
    likert_to_binary,
    pairwise_ranking_accuracy,
    threshold_sweep,
)
from .linear import LinearModel, TrainConfig, predict, predict_proba, train
from .metrics import (
    PrfScores,
    Threshold,
    best_reference,
    exact_match,
    threshold_judge,
    token_prf,
)
from .pipeline import (
    Judgment,
    PedantsModel,
    QAExample,
    QuestionType,
    RuleLabel,
    assemble_features,
    judge,
    judge_batch,
    train_pedants,
    train_rule_extractor,
    train_type_extractor,
)
from .textnorm import EM_POLICY, PEDANTS_POLICY, POLICY_PRESETS, NormPolicy, normalize, tokenize
from .vectorizer import SparseVector, TfidfModel, encode_pair, encode_triple

__version__ = "0.1.0"
