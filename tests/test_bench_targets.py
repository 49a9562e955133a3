"""The benchmark's tracer looks survmix functions up by name; a rename in
the package must fail here, not only in a traced benchmark run. It also
binds their arguments by name (net, X, upstream, params, dataset, path),
which only a traced run exercises: the slow test runs the benchmark's own
self-check, every workload at a tiny size, traced and untraced."""

import importlib
import importlib.util
import subprocess
import sys
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


@pytest.mark.slow
def test_bench_self_check_passes():
    done = subprocess.run([sys.executable, str(TRACER.parent / "run.py"), "--self-check"],
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
