import pytest

from lsizeta import polylog


@pytest.fixture
def fresh_caches():
    """Empty expansion memos and no cache file, before and after the test."""
    polylog.clear_caches()
    yield
    polylog.clear_caches()
