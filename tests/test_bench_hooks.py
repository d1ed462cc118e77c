"""The benchmark's tracer hooks still resolve.

``perfbench/tracer.py`` wraps module attributes by name and reads
``cache_info()`` of named caches. Wrapping fails soft, so a renamed or
removed entry point would only show as missing layer metrics in a traced
benchmark run; this test catches it without one.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


tracer = load_tracer()


@pytest.mark.parametrize("name, module, attr", tracer.TARGETS)
def test_wrap_target_is_callable(name, module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


@pytest.mark.parametrize("key", sorted(tracer.CACHES))
def test_cache_has_cache_info(key):
    module, attr = tracer.CACHES[key]
    info = getattr(importlib.import_module(module), attr).cache_info()
    assert info.hits >= 0 and info.misses >= 0


def test_every_layer_metric_has_its_hooks():
    hooks = {name for name, _, _ in tracer.TARGETS} | set(tracer.CACHES)
    hooks |= {(module, attr) for _, module, attr in tracer.TARGETS}
    for metric, (_, needs) in tracer.LAYER_METRICS.items():
        assert set(needs) <= hooks, metric
