"""numpy is the package's only runtime dependency: every module imports only
the standard library, numpy and the package itself. Every name the package
exports, in an ``__all__`` or as the console script, resolves."""

import ast
import importlib
import sys
from pathlib import Path

import pytest

import rarepred
from rarepred import cli

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


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_all_names_exist_once(path):
    module = importlib.import_module(f"rarepred.{path.stem}".removesuffix(".__init__"))
    names = list(getattr(module, "__all__", ()))
    assert [name for name in names if not hasattr(module, name)] == []
    assert len(set(names)) == len(names)


def test_console_script_is_cli_main(capsys):
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(rarepred.__file__).parents[2] / "pyproject.toml"
    if not pyproject.is_file():
        pytest.skip("rarepred is not imported from its source tree")
    target = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]["rarepred"]
    module, _, attr = target.partition(":")
    entry = getattr(importlib.import_module(module), attr)
    assert entry is cli.main
    assert entry([]) == 1
    assert "usage error" in capsys.readouterr().err
