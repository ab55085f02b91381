"""Rule- and type-aware answer correctness judging for short-form QA.

``import pedants`` loads no submodule: each exported name binds from its
module on first access, so a command loads only the layers it uses. The
string metrics start without numpy, and judging and training without
``harness``.
"""

import os

# pedants' matrix products are tiny, so an idle BLAS thread pool only costs
# CPU; this must run before numpy loads, and a value the caller set wins
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import importlib

# Each exported name and the submodule that defines it.
_EXPORTS = {
    name: module
    for module, names in {
        "errors": (
            "DatasetError", "EmptyCorpus", "EmptyRecords", "EmptyReferences", "MissingAnnotations",
            "OutOfRangeScore", "PedantsError", "SingleClassCorpus", "TooFewModels",
        ),
        "harness": (
            "ConfusionCounts", "RankingInput", "SweepRow", "likert_to_binary",
            "pairwise_ranking_accuracy", "threshold_sweep",
        ),
        "io": ("QAExample", "QuestionType", "RuleLabel"),
        "metrics": ("PrfScores", "best_reference", "exact_match", "token_prf"),
        "textnorm": ("EM_POLICY", "PEDANTS_POLICY", "POLICY_PRESETS", "NormPolicy", "normalize"),
        "linear": ("LinearModel", "predict_proba"),
        "pipeline": (
            "Judgment", "PedantsModel", "assemble_features", "judge", "judge_batch",
            "train_pedants", "train_rule_extractor", "train_type_extractor",
        ),
        "vectorizer": ("TfidfModel", "encode_pair", "encode_triple"),
    }.items()
    for name in names
}

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name: str):
    """Bind an exported name from its module, importing the module first if
    need be; a module named in ``_EXPORTS`` (``pedants.harness``, say)
    imports that submodule. Any other name is an AttributeError."""
    if name in _EXPORTS.values():
        return importlib.import_module(f".{name}", __name__)
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})

