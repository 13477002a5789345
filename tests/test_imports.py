"""Every ``repro`` subpackage imports on its own.

The full suite imports packages in whatever order its collection
happens to use, which hides cycles such as ``repro.sync`` reaching
``repro.workloads`` (whose registry imports ``repro.sync`` back). Each
import here runs in a fresh interpreter, so nothing is preloaded.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGES = sorted(
    ".".join(init.parent.relative_to(SRC).parts)
    for init in (SRC / "repro").rglob("__init__.py")
)


@pytest.mark.parametrize("package", PACKAGES)
def test_subpackage_imports_in_a_fresh_interpreter(package):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", f"import {package}"],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
