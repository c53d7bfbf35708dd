import numpy as np
import pytest

from twinsource import config
from twinsource.phasematch import PhaseMatcher
from twinsource.stack import find_resonance


@pytest.fixture(scope="session")
def paper_stack():
    return config.build_stack(config.default_config())


@pytest.fixture(scope="session")
def matcher(paper_stack):
    """Shared phase matcher; its mode tables grow lazily and are reused."""
    return PhaseMatcher(paper_stack)


@pytest.fixture(scope="session")
def resonance(paper_stack):
    return find_resonance(paper_stack, (740.0, 780.0))


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
