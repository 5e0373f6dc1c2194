import warnings

import pytest

from toric_cox.corpus import SMOOTH_COMPLETE, load_fan
from toric_cox.cox import cox_data

# Hypothesis's pytest plugin imports this module to report a failing example.
# Through libcst it imports mypy_extensions, whose TypedDict raises a
# DeprecationWarning at import; under ``-W error`` that would end the session
# with INTERNALERROR at the first failure.  Importing it once here, with only
# that category ignored, makes the plugin's later import a cache hit.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass


@pytest.fixture(scope="session")
def corpus():
    return {name: load_fan(name) for name in SMOOTH_COMPLETE}


@pytest.fixture(scope="session")
def corpus_cox(corpus):
    return {name: cox_data(fan) for name, fan in corpus.items()}


@pytest.fixture(scope="session")
def p2(corpus):
    return corpus["p2"]


@pytest.fixture(scope="session")
def p1(corpus):
    return corpus["p1"]


@pytest.fixture(scope="session")
def p1xp1(corpus):
    return corpus["p1xp1"]


@pytest.fixture(scope="session")
def hirzebruch_1(corpus):
    return corpus["hirzebruch_1"]
