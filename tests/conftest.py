import numpy as np
import pytest

from twinsource import config
from twinsource.phasematch import INTERACTION_1, INTERACTION_2, PhaseMatcher
from twinsource.stack import find_resonance


@pytest.fixture(scope="session")
def paper_stack():
    return config.build_stack(config.default_config())


@pytest.fixture(scope="session")
def matcher(paper_stack):
    """Shared phase matcher; its mode tables grow lazily and are reused."""
    return PhaseMatcher(paper_stack)


@pytest.fixture(scope="session")
def pair_draws():
    """(theta_deg, lambda_p_nm): the README spectrum case, then 24 seeded draws
    from the pair-analysis benchmark's box (-1 to 4 deg, pump 758-762 nm)."""
    rng = np.random.default_rng(1414)
    draws = [(float(rng.uniform(-1.0, 4.0)), float(rng.uniform(758.0, 762.0))) for _ in range(24)]
    return [(3.1, 759.5)] + draws


@pytest.fixture(scope="session")
def box_matcher(paper_stack):
    """A matcher whose tables cover every pair_draws case: solve_pair reserves
    its whole bracket, and solving at the corners of the box reserves them
    all, so no table grows between two answers a test compares."""
    m = PhaseMatcher(paper_stack)
    for lambda_p in (758.0, 762.0):
        for inter in (INTERACTION_1, INTERACTION_2):
            for theta in (-1.0, 4.0):
                m.solve_pair(theta, lambda_p, inter)
    return m


@pytest.fixture(scope="session")
def resonance(paper_stack):
    return find_resonance(paper_stack, (740.0, 780.0))


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
