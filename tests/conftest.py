import pytest

from lsizeta import oracle, polylog


@pytest.fixture
def fresh_caches():
    """Empty expansion and quadrature memos and no cache file, before and after
    the test."""
    polylog.clear_caches()
    oracle._nested_ls_integral.cache_clear()
    yield
    polylog.clear_caches()
    oracle._nested_ls_integral.cache_clear()
