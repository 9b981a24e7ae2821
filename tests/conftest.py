"""Shared fixtures."""

import pytest

from heckeseries import series

#: the cached genus-3 results and the basis they are solved on, bound here so
#: that a test which patches one of these names still clears the real cache
THEOREM_CACHES = (series.p3_in_generators, series.q3_in_generators, series._generator_basis)


@pytest.fixture
def fresh_theorem_caches():
    """Clear the cached genus-3 results before and after a test that corrupts
    one of their inputs, so that no value built from it reaches another test."""
    for cached in THEOREM_CACHES:
        cached.cache_clear()
    yield
    for cached in THEOREM_CACHES:
        cached.cache_clear()
