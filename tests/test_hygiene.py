"""Source hygiene: no module under src/ or tests/ imports a name it never
uses, and every exception recurlab defines maps to a CLI exit code."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import recurlab
from recurlab import cli

ROOT = Path(__file__).resolve().parents[1]


def unused_imports(source: str) -> list:
    """Names an import binds that the module never reads.  Names listed in
    ``__all__`` count as read, and ``from __future__`` imports are skipped."""
    tree = ast.parse(source)
    imported = {}
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_scan_flags_only_unread_imports():
    source = ("from __future__ import annotations\n"
              "import os\nimport os.path as osp\nimport numpy as np\n"
              "from json import dumps, loads\n"
              "__all__ = ['dumps']\n"
              "x = np.zeros(1)\n")
    assert unused_imports(source) == [(2, "os"), (3, "osp"), (5, "loads")]


def test_no_unused_imports():
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path in sorted([*ROOT.glob("src/**/*.py"), *ROOT.glob("tests/**/*.py")])
             for line, name in unused_imports(path.read_text())]
    assert not found, "imported but never used:\n" + "\n".join(found)


def test_every_exception_maps_to_an_exit_code():
    """``cli._guard`` turns each exception class defined under recurlab into
    exit 2, 3 or 4 with one JSON line, so none ends a command in a traceback."""
    covered = cli._NETWORK + cli._RUNTIME + cli._VALIDATION + (cli.LLMEvalError,)
    modules = [importlib.import_module(info.name)
               for info in pkgutil.walk_packages(recurlab.__path__, "recurlab.")]
    defined = {cls for module in modules for _, cls in inspect.getmembers(module, inspect.isclass)
               if issubclass(cls, Exception) and cls.__module__.startswith("recurlab.")}
    unmapped = sorted(f"{cls.__module__}.{cls.__qualname__}" for cls in defined
                      if not issubclass(cls, covered))
    assert len(defined) > 10 and not unmapped, f"no exit code for {unmapped}"
