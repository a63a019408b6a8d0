import time

import pytest
from hypothesis import HealthCheck, settings

from machin.generator import GenerationConfig, generate

settings.register_profile(
    "suite", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("suite")



@pytest.fixture(scope="session")
def deep_q28():
    """generate(28, max_digits=12 * 10^6) and the seconds it took.

    A complete run to an 11.5M-digit term, so the acceptance test and the
    CLI test share one build.
    """
    started = time.perf_counter()
    formula = generate(28, GenerationConfig(max_digits=12_000_000))
    return formula, time.perf_counter() - started


@pytest.fixture(scope="session")
def partial_q100000():
    """generate(100000, partial, max_digits=10^6) and the seconds it took.

    About 7 s on plain ints (31 s before the term picks divided
    recursively), so the acceptance test and the CLI test share one build.
    """
    started = time.perf_counter()
    formula = generate(100000, GenerationConfig(partial=True, max_digits=1_000_000))
    return formula, time.perf_counter() - started
