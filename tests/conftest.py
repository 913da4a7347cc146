import os
from collections import Counter

import numpy as np
import pytest

from rellaws.census import bulk_vectors
from rellaws.enumeration import iter_code_chunks


def pytest_collection_modifyitems(config, items):
    if os.environ.get("RELLAWS_EXTENDED") == "1":
        return
    skip = pytest.mark.skip(reason="extra-deep check; set RELLAWS_EXTENDED=1")
    for item in items:
        if "extended" in item.keywords:
            item.add_marker(skip)


@pytest.fixture
def no_expansion_tables(monkeypatch):
    """Fail the test if the normal-form expansion tables get built."""
    from rellaws import enumeration

    def fail(n):
        pytest.fail(f"the n = {n} expansion tables were built")
    monkeypatch.setattr(enumeration, "_layout", fail)


@pytest.fixture
def search_memo():
    """Empty the exhaustive search's per-size tables before and after the
    test, so neither its answers nor the work it counts depend on which
    tests ran first."""
    from rellaws import search

    search._table.cache_clear()
    yield search._table
    search._table.cache_clear()


@pytest.fixture(scope="session")
def direct_census():
    """The vector census by brute force: `bulk_vectors` over every code of
    the enumeration, each counted once, the reference for the weighted
    census: codes 0 .. 2^(n*n)-1, or every normal form when pruned."""
    def tally(n, pruned=False):
        counts = Counter()
        for codes in iter_code_chunks(n, pruned):
            values, chunk_counts = np.unique(bulk_vectors(codes, n), return_counts=True)
            counts.update(dict(zip(values.tolist(), chunk_counts.tolist())))
        return dict(counts)
    return tally
