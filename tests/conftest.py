import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

from argbayes import inference  # noqa: E402

# CI runs the property tests on their fixed derandomized examples
# (--hypothesis-profile=ci); example counts and deadlines stay each test's own
settings.register_profile("ci", derandomize=True)


@pytest.fixture(autouse=True)
def _cold_space_cache():
    """Start each test without a scored space, so that test order cannot
    decide whether a test scores a space or reads it from the cache."""
    inference._scored.cache_clear()
