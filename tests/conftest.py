import warnings

import pytest

from toric_cox.corpus import SMOOTH_COMPLETE, load_fan
from toric_cox.cox import cox_data

PATCHING = "hypothesis.extra._patching"


def pytest_runtest_makereport(item, call):
    """When a test fails, import the module Hypothesis reports failures with.

    Hypothesis's plugin imports ``hypothesis.extra._patching`` in its own
    makereport hook, after this one, on the teardown report of a failing
    test.  Through libcst it imports mypy_extensions, whose TypedDict raises
    a DeprecationWarning at import; under ``-W error`` that would end the
    session with INTERNALERROR.  Importing it here first, with only that
    category ignored, makes the plugin's import a cache hit, and a session
    in which nothing fails never imports libcst.
    """
    if call.excinfo is None or call.excinfo.errisinstance(pytest.skip.Exception):
        return
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        try:
            __import__(PATCHING)
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
