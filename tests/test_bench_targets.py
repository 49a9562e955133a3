"""The benchmark's tracer looks survmix functions up by name; a rename in
the package must fail here, not only in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


TARGETS = load_targets()


@pytest.mark.parametrize("short", sorted(TARGETS))
def test_every_target_resolves_to_a_callable(short):
    module = importlib.import_module(f"survmix.{short}")
    for name in TARGETS[short]:
        assert callable(getattr(module, name, None)), f"survmix.{short}.{name}"
