"""Source hygiene: no module under src/ or tests/ imports a name it never
uses, every module-level definition under src/recurlab is used somewhere,
and every exception recurlab defines maps to a CLI exit code."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import numpy as np

import recurlab
from recurlab import cli
from recurlab import tensor as T
from recurlab.models import ARCHS, ModelConfig, init_params, model_forward
from recurlab.tasks import TaskId
from test_profiler import OP_COSTS
from test_tensor import CHAIN_CASES

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


def names_read(source: str) -> set:
    """Every name ``source`` reads, as a bare name, an attribute, an imported
    name or a string holding just that name (as ``getattr`` tables do)."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.alias):
            read.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            read.add(node.value)
    return read


def _is_command(node) -> bool:
    """Decorated with ``@main.command`` (bare or called): click registers it."""
    return any(ast.unparse(d.func if isinstance(d, ast.Call) else d) == "main.command"
               for d in node.decorator_list)


def test_scan_reads_names_attributes_imports_and_name_strings():
    source = ("from m import a, b as c\nimport p.q\nx = d.e(f)\ny = getattr(x, 'g')\n"
              "def h():\n    'mentions h'\n")
    assert names_read(source) >= {"a", "b", "q", "d", "e", "f", "g", "getattr"}
    assert "h" not in names_read(source)


def test_no_unused_definitions():
    """Every module-level function and class under src/recurlab is named in
    src/, tests/ or bench/ outside its own definition; click commands are
    reached through ``main`` and are exempt."""
    paths = sorted([*ROOT.glob("src/**/*.py"), *ROOT.glob("tests/**/*.py"),
                    *ROOT.glob("bench/*.py")])
    read = set().union(*(names_read(path.read_text()) for path in paths))
    unused = [f"{path.relative_to(ROOT)}:{node.lineno}: {node.name}"
              for path in sorted(ROOT.glob("src/recurlab/**/*.py"))
              for node in ast.parse(path.read_text()).body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and node.name not in read and not _is_command(node)]
    assert not unused, "defined but never used:\n" + "\n".join(unused)


def test_every_exception_maps_to_an_exit_code():
    """``cli._guard`` turns each exception class defined under recurlab into
    exit 2, 3 or 4 with one JSON line, so none ends a command in a traceback."""
    covered = cli._NETWORK + cli._RUNTIME + cli._VALIDATION
    modules = [importlib.import_module(info.name)
               for info in pkgutil.walk_packages(recurlab.__path__, "recurlab.")]
    defined = {cls for module in modules for _, cls in inspect.getmembers(module, inspect.isclass)
               if issubclass(cls, Exception) and cls.__module__.startswith("recurlab.")}
    unmapped = sorted(f"{cls.__module__}.{cls.__qualname__}" for cls in defined
                      if not issubclass(cls, covered))
    assert len(defined) > 10 and not unmapped, f"no exit code for {unmapped}"


def test_only_the_architecture_table_names_an_architecture():
    """``models/config.py``'s ``ARCH_TABLE`` is the one place that says what
    an architecture is, so no other module under src/recurlab holds a string
    constant equal to an arch name; the profiler's block-size fit for the
    block-recurrent Transformer is its growth-law policy and the one
    exception.  Docstrings and messages only mention names, so never match."""
    found = [(str(path.relative_to(ROOT)), node.value, node.lineno)
             for path in sorted(ROOT.glob("src/recurlab/**/*.py"))
             if path != ROOT / "src/recurlab/models/config.py"
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Constant) and node.value in ARCHS]
    assert [(path, name) for path, name, _ in found] == [
        ("src/recurlab/profiler.py", "block-recurrent-transformer")], found


def test_only_the_task_table_names_a_task():
    """``tasks.TASK_TABLE`` is the one place that says what a task is, so no
    module under src/recurlab names a ``TaskId`` member or holds a string
    constant equal to a task key outside that table and the ``TaskId``
    declaration it is keyed by."""
    keys, members = {t.key for t in TaskId}, {t.name for t in TaskId}
    found = []
    for path in sorted(ROOT.glob("src/recurlab/**/*.py")):
        tree = ast.parse(path.read_text())
        table = [node for node in tree.body
                 if isinstance(node, ast.ClassDef) and node.name == "TaskId"
                 or isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "TASK_TABLE"]
        allowed = {id(n) for node in table for n in ast.walk(node)}
        found += [f"{path.relative_to(ROOT)}:{node.lineno}: {ast.unparse(node)}"
                  for node in ast.walk(tree) if id(node) not in allowed
                  and (isinstance(node, ast.Constant) and node.value in keys
                       or isinstance(node, ast.Attribute) and node.attr in members
                       and ast.unparse(node.value).endswith("TaskId"))]
    assert not found, "a task named outside the task table:\n" + "\n".join(found)


def graph_op_kinds() -> set:
    """The op kind of every node of each architecture's forward and backward
    graph, in both modes."""
    kinds = set()
    for arch in ARCHS:
        cfg = ModelConfig(arch=arch, vocab_size=7, d_model=16, n_layers=2, n_heads=2)
        params = init_params(cfg)
        for mode in ("parallel", "recurrent"):
            res = model_forward(cfg, params, np.zeros((2, 3), dtype=int), mode=mode)
            loss = T.concat([lg.sum(axis=-1) for lg in res.logits], axis=0).sum()
            T.backward(loss)
            kinds |= {v.op_kind for v in T.topo_nodes(loss)}
    return kinds


def test_profiler_names_no_op_kind():
    """Each op kind is declared once, with its cost, as a ``tensor.Op``; the
    profiler reads the cost from a node's ``Op``, so it holds no string
    constant equal to an op kind."""
    kinds = graph_op_kinds()
    assert {"input", "parameter", "matmul", "layer_norm", "slice"} <= kinds
    source = (ROOT / "src/recurlab/profiler.py").read_text()
    found = [f"profiler.py:{node.lineno}: {node.value!r}" for node in ast.walk(ast.parse(source))
             if isinstance(node, ast.Constant) and node.value in kinds]
    assert not found, "an op kind named in the profiler:\n" + "\n".join(found)


def declared_ops() -> list:
    """Every ``Op`` that ``tensor`` declares, alone or in a table of them."""
    return [op for value in vars(T).values()
            for op in (value.values() if isinstance(value, dict) else (value,))
            if isinstance(op, T.Op)]


def test_every_op_kind_has_a_profile_cost_case():
    """Each declared ``Op`` is the root of at least one ``OP_COSTS`` graph,
    so no op kind, fused or not, ships without a pinned cost."""
    covered = {id(build().op) for build, _ in OP_COSTS.values()}
    missing = [op for op in declared_ops() if id(op) not in covered]
    assert not missing, "op kinds without an OP_COSTS case: " + ", ".join(
        f"{op.name} ({op.backward and op.backward.__name__})" for op in missing)
    assert {"matmul", "affine", "lstm_h", "cross_entropy"} <= {op.name for op in declared_ops()}


def test_every_fused_op_has_a_chain_case(monkeypatch):
    """Each declared ``Op`` with ``chains`` (a fused kind) is differentiated
    by the fused side of at least one ``test_tensor.CHAIN_CASES`` run, so no
    fused kind ships without a byte-equality check against its chain."""
    fused = [op for op in declared_ops() if op.chains is not None]
    seen = set()
    for op in fused:
        def recording(node, op=op, backward=op.backward):
            seen.add(id(op))
            backward(node)
        monkeypatch.setattr(op, "backward", recording)
    for run, side, _ in CHAIN_CASES.values():
        run(side)
    missing = [op.name for op in fused if id(op) not in seen]
    assert not missing, "fused kinds without a CHAIN_CASES case: " + ", ".join(missing)
    assert {"attention", "split_row", "key_sum", "ffn_sublayer"} <= {op.name for op in fused}


def pending_list_users(source: str) -> set:
    """The functions of ``source``, a method as ``Class.method``, that name
    ``_pending`` or ``_check_pending``."""
    tree = ast.parse(source)
    functions = [(node.name, node) for node in tree.body if isinstance(node, ast.FunctionDef)]
    functions += [(f"{cls.name}.{node.name}", node) for cls in tree.body
                  if isinstance(cls, ast.ClassDef)
                  for node in cls.body if isinstance(node, ast.FunctionDef)]
    return {name for name, fn in functions for node in ast.walk(fn)
            if isinstance(node, ast.Name) and node.id in ("_pending", "_check_pending")}


def test_only_the_flush_points_touch_the_pending_list():
    """``tensor``'s pending list is flushed when it fills (``Value.__init__``),
    at a scope boundary (``graph_scope``) and before a node is reported
    (``_overflow``); no op function checks or reads it by hand."""
    users = pending_list_users((ROOT / "src/recurlab/tensor.py").read_text())
    assert users == {"Value.__init__", "graph_scope", "_overflow", "_check_pending"}, users
