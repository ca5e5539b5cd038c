#!/usr/bin/env python
"""Validate the code references in the documentation suite.

Scans ``docs/PAPER_MAP.md`` (and any other docs passed on the command line)
for backticked code anchors and verifies each one still exists:

* ``repro.module``, ``repro.module.Name`` or ``repro.module.Name.attr`` --
  resolved by importing the longest importable module prefix and walking the
  remaining attributes;
* ``src/...``, ``benchmarks/...``, ``tests/...`` or ``scripts/...`` file
  paths (optionally with a ``:line`` suffix) -- checked against the repo
  tree.

It also takes a **knob census**: every ``REPRO_*`` environment variable
named by a string literal under ``src/`` (the resolvers read them through
such constants) must have a row in ``docs/TUNING.md``, and every such row
must still name a variable ``src/`` knows -- so the knob table can neither
lag behind a new switch nor keep advertising a deleted one.  The same holds,
both ways, for the fields of ``repro.engine.EngineConfig``: each is the
subject (the "Where" column) of exactly one ``docs/TUNING.md`` row, and every
row whose subject is an ``EngineConfig`` attribute names a live field.

Exits non-zero listing every broken reference, so CI fails when a refactor
renames a module or class the docs still point at.  Run locally with::

    PYTHONPATH=src python scripts/check_docs.py
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
import re
import sys
from collections import Counter
from pathlib import Path
from typing import List, Set, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_DOCS = ["docs/PAPER_MAP.md", "docs/TUNING.md", "docs/INVARIANTS.md"]

BACKTICK = re.compile(r"`([^`]+)`")
DOTTED = re.compile(r"^repro(?:\.\w+)+$")
FILEPATH = re.compile(r"^(?:src|benchmarks|tests|scripts|examples|docs)/[\w./-]+$")
KNOB = re.compile(r"^REPRO_[A-Z_]+$")
KNOB_ROW = re.compile(r"^\| `(REPRO_[A-Z_]+)` \|", re.MULTILINE)
KNOB_TABLE = "docs/TUNING.md"
ENGINE_CONFIG_ROW = re.compile(
    r"^\| [^|]+ \| `repro\.engine\.EngineConfig\.(\w+)`", re.MULTILINE
)


def check_dotted(ref: str) -> Tuple[bool, str]:
    """Resolve a ``repro.x.y.Z`` reference by import + getattr walk."""
    parts = ref.split(".")
    module = None
    attr_start = len(parts)
    # Longest importable prefix wins; attributes take over from there.
    for end in range(len(parts), 0, -1):
        try:
            module = importlib.import_module(".".join(parts[:end]))
            attr_start = end
            break
        except ImportError:
            continue
        except Exception as exc:  # pragma: no cover - import-time crash
            return False, f"import error: {exc!r}"
    if module is None:
        return False, "no importable module prefix"
    target = module
    for attr in parts[attr_start:]:
        if not hasattr(target, attr):
            return False, f"{type(target).__name__} {'.'.join(parts[:attr_start])!r} has no attribute chain {'.'.join(parts[attr_start:])!r}"
        target = getattr(target, attr)
    return True, ""


def check_filepath(ref: str) -> Tuple[bool, str]:
    path = ref.split(":", 1)[0]  # tolerate file.py:123 anchors
    if (REPO_ROOT / path).exists():
        return True, ""
    return False, "file does not exist"


def check_document(doc_path: Path) -> List[str]:
    errors: List[str] = []
    seen = set()
    text = doc_path.read_text(encoding="utf-8")
    for line_number, line in enumerate(text.splitlines(), start=1):
        for match in BACKTICK.finditer(line):
            ref = match.group(1).strip()
            if ref in seen:
                continue
            seen.add(ref)
            if DOTTED.match(ref):
                ok, reason = check_dotted(ref)
            elif FILEPATH.match(ref):
                ok, reason = check_filepath(ref)
            else:
                continue  # not a code anchor (env vars, shell snippets, ...)
            if not ok:
                errors.append(f"{doc_path}:{line_number}: `{ref}` -- {reason}")
    return errors


def knobs_in_source() -> Set[str]:
    """Every string literal under ``src/`` that is exactly a ``REPRO_*`` name."""
    knobs: Set[str] = set()
    for path in sorted((REPO_ROOT / "src").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                if KNOB.match(node.value):
                    knobs.add(node.value)
    return knobs


def check_knob_census() -> List[str]:
    in_source = knobs_in_source()
    in_table = set(KNOB_ROW.findall((REPO_ROOT / KNOB_TABLE).read_text(encoding="utf-8")))
    errors = [
        f"{KNOB_TABLE}: `{knob}` is read under src/ but has no row in the knob tables"
        for knob in sorted(in_source - in_table)
    ]
    errors += [
        f"{KNOB_TABLE}: `{knob}` has a row but no longer occurs under src/"
        for knob in sorted(in_table - in_source)
    ]
    return errors


def check_engine_config_census() -> List[str]:
    from repro.engine import EngineConfig

    fields = {field.name for field in dataclasses.fields(EngineConfig)}
    rows = Counter(
        ENGINE_CONFIG_ROW.findall((REPO_ROOT / KNOB_TABLE).read_text(encoding="utf-8"))
    )
    errors = [
        f"{KNOB_TABLE}: `repro.engine.EngineConfig.{name}` is a field but the "
        f"subject of {rows[name]} rows in the knob tables (want exactly 1)"
        for name in sorted(fields)
        if rows[name] != 1
    ]
    errors += [
        f"{KNOB_TABLE}: a row's subject is `repro.engine.EngineConfig.{name}`, "
        "which is not a field"
        for name in sorted(rows.keys() - fields)
    ]
    return errors


def main(argv: List[str]) -> int:
    docs = argv[1:] or DEFAULT_DOCS
    errors: List[str] = []
    checked = 0
    for doc in docs:
        path = REPO_ROOT / doc
        if not path.exists():
            errors.append(f"{doc}: document not found")
            continue
        checked += 1
        errors.extend(check_document(path))
    errors.extend(check_knob_census())
    errors.extend(check_engine_config_census())
    if errors:
        print(f"check_docs: {len(errors)} broken reference(s):", file=sys.stderr)
        for error in errors:
            print(f"  {error}", file=sys.stderr)
        return 1
    print(
        f"check_docs: all code references resolve ({checked} document(s) checked); "
        f"REPRO_* knobs under src/, EngineConfig fields and the {KNOB_TABLE} rows agree"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
