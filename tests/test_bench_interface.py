"""The interface the benchmark under bench/ relies on.

The benchmark imports names from the library and, to time the census from
inside, patches two of them in the census module. Removing or renaming one
of those breaks only a benchmark run, so this guards them in the tests.
"""

import importlib
import sys
from collections import Counter
from pathlib import Path

import pytest

from rellaws import census, golden

ROOT = Path(__file__).resolve().parent.parent
BENCH_MODULES = ("workloads", "checks", "oracle", "layers")


@pytest.mark.parametrize("module", BENCH_MODULES)
def test_bench_module_imports(monkeypatch, module):
    # bench/run.py puts bench/ and tests/ (for naive.py) on the path; each
    # module and the bench modules it imports are imported afresh
    monkeypatch.syspath_prepend(str(ROOT / "tests"))
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    for name in BENCH_MODULES + ("spans",):
        monkeypatch.delitem(sys.modules, name, raising=False)
    importlib.import_module(module)


def test_census_looks_up_the_names_the_benchmark_patches(monkeypatch):
    # bench/layers.py swaps these two module attributes to restrict and to
    # time the census, so `vector_census` must read them when it is called
    calls = Counter()

    def counted(name):
        real = getattr(census, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(census, name, wrapper)

    counted("iter_code_chunks")
    counted("bulk_vectors")
    result = census.vector_census(3, pruned=True)
    assert calls == {"iter_code_chunks": 1, "bulk_vectors": 1}
    assert result.total() == golden.PRUNED_COUNTS[3]
