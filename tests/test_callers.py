"""Every function, class and method of src/autoheat serves a caller outside the tests.

The callers are read from the syntax trees of src/autoheat, tools/ and
perfbench/: each name and attribute used there counts, and docstrings do
not.  A definition no caller names is still served when it is exported in
autoheat.__all__, or when it overrides a base-class method that the base
calls (argparse calls _Parser.error).
"""

import ast
import importlib
from pathlib import Path

import autoheat

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "autoheat"


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _definitions() -> list[tuple[str, str, str]]:
    """(module, class or "", name) of each non-dunder top-level function and
    class of src/autoheat, and of each method of those classes."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                out.append((path.stem, "", node.name))
            if isinstance(node, ast.ClassDef):
                out.extend((path.stem, node.name, m.name) for m in node.body
                           if isinstance(m, ast.FunctionDef))
    return [d for d in out if not _is_dunder(d[2])]


def _referenced() -> set[str]:
    """Every name and attribute used in src/autoheat, tools/ and perfbench/."""
    names = set()
    for folder in (SRC, ROOT / "tools", ROOT / "perfbench"):
        for path in folder.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
    return names


def _overrides(module: str, cls: str, name: str) -> bool:
    bases = getattr(importlib.import_module(f"autoheat.{module}"), cls).__mro__[1:]
    return any(hasattr(base, name) for base in bases)


def test_every_definition_has_a_caller_outside_the_tests():
    definitions = _definitions()
    assert len(definitions) > 100  # the scan found the package
    referenced = _referenced()
    unused = [f"{module}.{cls + '.' if cls else ''}{name}"
              for module, cls, name in definitions
              if name not in referenced and name not in autoheat.__all__
              and not (cls and _overrides(module, cls, name))]
    assert unused == []

