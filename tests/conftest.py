import pytest

from tracezero.counting import CountEngine
from tracezero.gf import DEFAULT_MAX_ELEMENTS, make_field
from tracezero.numtheory import prime_power_parts


@pytest.fixture(scope="session")
def budget():
    return DEFAULT_MAX_ELEMENTS


@pytest.fixture(scope="session")
def engine():
    """Lazy per-q engine cache shared by the whole session."""
    cache = {}

    def get(q: int) -> CountEngine:
        if q not in cache:
            p, r = prime_power_parts(q)
            cache[q] = CountEngine(make_field(p, r))
        return cache[q]

    return get
