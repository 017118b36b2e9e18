"""numpy is the package's only runtime dependency: every module imports only
the standard library, numpy and the package itself."""

import ast
import sys
from pathlib import Path

import pytest

import rarepred

SOURCES = sorted(Path(rarepred.__file__).parent.glob("*.py"))


def imported_packages(path):
    """The top-level package of every import in the module, nested ones too;
    a relative import is the package itself."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "rarepred" if node.level else node.module.partition(".")[0]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_imports_only_the_standard_library_and_numpy(path):
    allowed = sys.stdlib_module_names | {"numpy", "rarepred"}
    assert sorted(set(imported_packages(path)) - allowed) == []


def test_scan_sees_nested_and_dotted_imports(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("import os.path\nfrom . import rng\ndef f():\n    from scipy.stats import norm\n")
    assert list(imported_packages(path)) == ["os", "rarepred", "scipy"]
    assert "rng.py" in {p.name for p in SOURCES}
