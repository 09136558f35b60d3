"""Every third-party module the package imports is a declared dependency."""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]
#: Modules allowed only through an optional extra: module -> extra name.
OPTIONAL = {"numba": "fast"}


def _third_party_imports() -> dict[str, set[str]]:
    """Top-level imported module -> files under src/repro importing it."""
    found: dict[str, set[str]] = {}
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top != "repro" and top not in sys.stdlib_module_names:
                    found.setdefault(top, set()).add(str(path.relative_to(ROOT)))
    return found


def _names(requirements) -> set[str]:
    """Distribution names of PEP 508 requirement strings, normalized."""
    return {
        re.split(r"[\s<>=!~;\[]", req, maxsplit=1)[0].lower().replace("-", "_")
        for req in requirements
    }


def test_every_third_party_import_is_declared():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text("utf-8"))["project"]
    required = _names(project["dependencies"])
    extras = {
        extra: _names(reqs)
        for extra, reqs in project.get("optional-dependencies", {}).items()
    }
    imports = _third_party_imports()
    assert {"numpy", "scipy"} <= set(imports)  # the scan sees real imports
    undeclared = {
        module: sorted(files)
        for module, files in imports.items()
        if module not in required
        and module not in extras.get(OPTIONAL.get(module, ""), set())
    }
    assert not undeclared, f"imported but not declared in pyproject.toml: {undeclared}"
