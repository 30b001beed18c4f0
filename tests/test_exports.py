"""The public surface stays consistent with the modules behind it."""

from __future__ import annotations

import ast
import importlib
import importlib.util
import pkgutil
import re
import shlex
import sys
from pathlib import Path

import sparsemobius
from sparsemobius.cli import build_parser
from sparsemobius.core import BitVector, TestMatrix
from sparsemobius.grouptest import construct_list_disjunct

README = Path(__file__).resolve().parents[1] / "README.md"
TRACING = README.parent / "perfbench" / "tracing.py"
# a backticked span that reads as a name, optionally called
API_SPAN = re.compile(r"^[A-Za-z_][\w.]*(\(.*\))?$")


def _resolves(root: object, dotted: str) -> bool:
    for part in dotted.split("."):
        if not hasattr(root, part):
            return False
        root = getattr(root, part)
    return True


def unresolved_api_names(text: str) -> list[str]:
    """Backticked spans that name API (they hold a '_', '.' or '(', or start
    with a capital) but no attribute of the package or of a submodule."""
    roots = [sparsemobius] + [
        importlib.import_module(f"sparsemobius.{info.name}")
        for info in pkgutil.iter_modules(sparsemobius.__path__)
        if info.name != "__main__"
    ]
    missing = []
    for span in re.findall(r"`([^`\n]+)`", text):
        if not API_SPAN.match(span):
            continue
        if not (set(span) & set("_.(") or span[0].isupper()):
            continue
        name = span.split("(", 1)[0]
        if not any(_resolves(root, name) for root in roots):
            missing.append(span)
    return missing


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


def test_the_package_imports_the_standard_library_alone():
    # the README promises no runtime dependencies outside the standard library
    foreign = []
    for path in sorted(Path(sparsemobius.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            foreign += [
                f"{path.name}: {name}"
                for name in names
                if name.split(".")[0] not in sys.stdlib_module_names | {"sparsemobius"}
            ]
    assert not foreign


def test_readme_api_names_resolve():
    assert unresolved_api_names(README.read_text(encoding="utf-8")) == []
    # plain words are skipped; a deleted or misspelt name is reported
    text = "`tau`, `fasmt_run`, `core.log_query`, `no_such_helper`, `core.nothing(x)`, `Nope`"
    assert unresolved_api_names(text) == ["no_such_helper", "core.nothing(x)", "Nope"]


def test_readme_command_lines_parse():
    # every command in the Command line block parses, so a removed flag
    # cannot stay documented there
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = section.split("```sh", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line, comments=True) for line in block.splitlines()]
    commands = [argv[1:] for argv in commands if argv[:1] == ["sparsemobius"]]
    assert len(commands) == 5
    for argv in commands:
        build_parser().parse_args(argv)


def test_names_the_benchmark_tracer_patches_resolve():
    # perfbench/tracing.py swaps each (module, name) pair of its PATCHES for
    # a timing wrapper and looks it up with getattr, so each must stay a
    # module attribute even where the module itself no longer calls it
    spec = importlib.util.spec_from_file_location("traced_by_the_benchmark", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.PATCHES
    missing = [
        f"{module.__name__}.{name}"
        for module, name, _ in tracing.PATCHES
        if not callable(getattr(module, name, None))
    ]
    assert missing == []


def test_what_the_benchmark_reads_of_the_matrix_types_resolves():
    # the tracer swaps the row_masks property on the class and reads the
    # cached _rows to time only the first build; the benchmark passes a
    # list design's own seed to hybrid_run
    assert "row_masks" in TestMatrix.__dict__
    assert isinstance(TestMatrix.__dict__["row_masks"], property)
    assert "_rows" in TestMatrix.__slots__
    H = TestMatrix(2, [BitVector(2, 0b10)])
    assert H._rows is None
    assert H.row_masks == (0, 1)
    assert H._rows == (0, 1)
    assert construct_list_disjunct(16, 2, seed=5).seed == 5
