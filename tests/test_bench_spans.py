"""The traced benchmark names symgen functions and caches by attribute.

``bench/spans.py`` patches every attribute in its FUNCTIONS table and reads
``cache_info()`` from every entry of its CACHES table; a rename in symgen
would otherwise only surface when the traced benchmark runs.
"""

import importlib.util
from pathlib import Path

import pytest

import symgen.cli  # noqa: F401  (spans.py resolves owners through sys.modules)

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_resolve(spans):
    for metric, owner, attrs in spans.FUNCTIONS:
        target = spans._resolve(owner)
        for attr in attrs:
            if isinstance(target, type):
                # spans.py patches methods through the class __dict__
                assert attr in vars(target), f"{metric}: {owner}.{attr}"
            else:
                assert callable(getattr(target, attr, None)), f"{metric}: {owner}.{attr}"


def test_traced_caches_resolve(spans):
    for metric, module, attr in spans.CACHES:
        cached = getattr(spans._resolve(module), attr, None)
        assert hasattr(cached, "cache_info"), f"{metric}: {module}.{attr}"
