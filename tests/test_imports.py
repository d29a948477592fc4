"""Every imported name is read: no module under src/ or tests/ imports a
name it never uses."""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(source: str) -> list[str]:
    """The names ``source`` binds by an import and never reads.

    ``import a.b`` binds ``a``; ``from __future__`` imports are compiler
    directives and bind nothing; a name listed in ``__all__`` is a
    re-export, so it counts as read.  Scopes are not told apart: a name
    read anywhere in the module counts as read.
    """
    tree = ast.parse(source)
    bound = []
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names if a.name != "*"]
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            read |= set(ast.literal_eval(node.value))
    return [name for name in bound if name not in read]


def test_scanner_finds_an_unused_import_and_honours_reexports():
    source = ("from __future__ import annotations\n"
              "import os.path, sys\n"
              "from math import gcd, lcm as least\n"
              "from .hbar import Poly\n"
              "__all__ = ['Poly']\n"
              "def f():\n"
              "    import json\n"
              "    return os.sep, gcd\n")
    assert unused_imports(source) == ["sys", "least", "json"]


def test_no_module_imports_a_name_it_never_reads():
    found = {}
    for path in sorted([*ROOT.glob("src/**/*.py"), *ROOT.glob("tests/*.py")]):
        names = unused_imports(path.read_text())
        if names:
            found[str(path.relative_to(ROOT))] = names
    assert found == {}
