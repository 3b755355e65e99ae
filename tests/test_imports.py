"""Importing the package pulls in no graph library."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import repro

PROBE = """
import importlib, pkgutil, sys
import repro
for module in pkgutil.walk_packages(repro.__path__, "repro."):
    if module.ispkg:
        importlib.import_module(module.name)
print(sorted(name for name in sys.modules if name.startswith("repro.")))
assert "networkx" not in sys.modules, "networkx was imported"
"""


def test_no_subpackage_imports_networkx():
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    probe = subprocess.run([sys.executable, "-c", PROBE], env=env,
                           capture_output=True, text=True, timeout=120)
    assert probe.returncode == 0, probe.stderr
    imported = probe.stdout
    for subpackage in ("analysis", "core", "fleet", "lint", "serve",
                       "superset"):
        assert f"'repro.{subpackage}'" in imported
