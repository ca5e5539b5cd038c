"""The package metadata in ``pyproject.toml`` describes the package that ships."""

from __future__ import annotations

import importlib
import re
import tomllib
from pathlib import Path

import repro

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def _project():
    return tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]


def test_name_and_version_match_the_package():
    project = _project()
    assert project["name"] == "repro"
    assert project["version"] == repro.__version__
    # ``Subproblem`` is a ``weakref_slot`` dataclass, new in 3.11.
    assert project["requires-python"] == ">=3.11"


def test_array_stack_is_a_declared_dependency():
    declared = {re.match(r"[\w.-]+", requirement).group() for requirement in _project()["dependencies"]}
    assert {"numpy", "scipy", "networkx"} <= declared


def test_console_script_targets_the_cli():
    target = _project()["scripts"]["repro"]
    assert target == "repro.cli:main"
    module, _, attr = target.partition(":")
    assert callable(getattr(importlib.import_module(module), attr))
