import os

import pytest


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
