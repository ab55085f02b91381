import importlib
from pathlib import Path

import pytest

from pedants.io import QAExample, load_seed_corpus
from pedants.pipeline import judge_batch, train_pedants


@pytest.fixture(scope="session")
def seed_corpus():
    return load_seed_corpus()


@pytest.fixture(scope="session")
def seed_model(seed_corpus):
    return train_pedants(seed_corpus)


@pytest.fixture(scope="session")
def seed_bundle_path(seed_model, tmp_path_factory):
    path = tmp_path_factory.mktemp("bundle") / "seed_model.json"
    seed_model.save(path)
    return path


@pytest.fixture(scope="session")
def held_out_judge(seed_corpus):
    """Judge a list aligned with the seed corpus, row i by the bundle trained
    with the default seed on the rows outside fold i mod 5; returns the
    judgments in order. The five bundles are trained once per session."""
    k = 5
    models = [
        train_pedants([ex for i, ex in enumerate(seed_corpus) if i % k != fold])
        for fold in range(k)
    ]

    def judged(examples):
        out = [None] * len(examples)
        for fold, model in enumerate(models):
            held = range(fold, len(examples), k)
            for i, judgment in zip(held, judge_batch([examples[i] for i in held], model)):
                out[i] = judgment
        return out

    return judged


@pytest.fixture(scope="session")
def wide_library():
    """A small bundle over a wide vocabulary and 240 library rows for it,
    whose words are mostly in that vocabulary, from the benchmark's
    generator (it imports no pedants module): (model, rows). Trained once
    per session."""
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        gen = importlib.import_module("gen")
    records, truths = gen.train_wide(11, 400, 600)
    model = train_pedants([QAExample.from_dict(r) for r in records])
    vocab = sorted({w for t in truths for w in t.question[1:] + t.references[t.best]})
    return model, [QAExample.from_dict(r) for r in gen.judge_library(11, 240, vocab)[0]]
