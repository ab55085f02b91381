import pytest

from pedants.io import load_seed_corpus
from pedants.pipeline import train_pedants


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
