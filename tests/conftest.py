from __future__ import annotations

import pytest

from aide.config import ConfigParams
from aide.harness import gen_corpus
from aide.simulator import scripted_scenarios
from aide.space import build_space


@pytest.fixture(scope="session")
def params() -> ConfigParams:
    return ConfigParams()


@pytest.fixture(scope="session")
def corpus(params):
    return gen_corpus(432, params.X, params.a, params.b, seed=7)


@pytest.fixture(scope="session")
def space(corpus, params):
    # Session-wide read-only space; tests that insert must clone() first.
    return build_space(corpus, params, seed=7)


@pytest.fixture()
def worlds():
    return scripted_scenarios()
