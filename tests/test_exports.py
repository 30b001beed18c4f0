"""The public surface stays consistent with the modules behind it."""

from __future__ import annotations

import ast
import importlib
import pkgutil
from pathlib import Path

import sparsemobius


def test_all_lists_resolve_and_package_reexports_are_listed():
    # names the package imports from each of its modules, read from the source
    tree = ast.parse(Path(sparsemobius.__file__).read_text(encoding="utf-8"))
    reexported: dict[str, list[str]] = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            reexported.setdefault(node.module, []).extend(a.name for a in node.names)
    checked = 0
    for info in pkgutil.iter_modules(sparsemobius.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"sparsemobius.{info.name}")
        listed = getattr(module, "__all__", None)
        if listed is None:
            continue
        checked += 1
        unresolved = [name for name in listed if not hasattr(module, name)]
        assert not unresolved, f"{info.name}.__all__ lists missing {unresolved}"
        unlisted = [name for name in reexported.get(info.name, ()) if name not in listed]
        assert not unlisted, f"package imports {unlisted} not in {info.name}.__all__"
    assert checked >= 8
