import pytest

from lsizeta import oracle, polylog


@pytest.fixture
def fresh_caches():
    """Empty expansion, quadrature and series memos and no cache file, before
    and after the test."""
    polylog.clear_caches()
    oracle._nested_ls_integral.cache_clear()
    oracle._series.cache_clear()
    yield
    polylog.clear_caches()
    oracle._nested_ls_integral.cache_clear()
    oracle._series.cache_clear()
