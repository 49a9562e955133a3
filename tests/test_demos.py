"""Every demo runs to completion against the package in src/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"

pytestmark = pytest.mark.slow


def run(command, tmp_path, path=None):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    if path is not None:
        env["PATH"] = f"{path}{os.pathsep}{env.get('PATH', '')}"
    done = subprocess.run(command, cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("name", sorted(p.name for p in DEMOS.glob("0*.py")))
def test_python_demo(tmp_path, name):
    run([sys.executable, str(DEMOS / name)], tmp_path)


def test_readme_quickstart(tmp_path):
    # the library example in README.md runs against the package as it is
    code = (ROOT / "README.md").read_text().split("```python\n", 1)[1].split("```", 1)[0]
    run([sys.executable, "-c", code], tmp_path)


def test_cli_pipeline_demo(tmp_path):
    # the demo calls the installed `survmix` script; a shim stands in for it
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    shim = bin_dir / "survmix"
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m survmix.cli "$@"\n')
    shim.chmod(0o755)
    run(["sh", str(DEMOS / "05_cli_pipeline.sh")], tmp_path, path=bin_dir)
