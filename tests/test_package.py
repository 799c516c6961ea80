"""Package-level checks: the public name list, the annotations of every module, the
names that the command line takes from the harness and the shape of its records."""

import ast
import importlib
import inspect
import pkgutil
import typing
from pathlib import Path

import morreylab
from morreylab import harness


def _modules():
    for info in pkgutil.iter_modules(morreylab.__path__):
        if info.name != "__main__":  # importing it runs the CLI
            yield importlib.import_module(f"morreylab.{info.name}")


def _annotated(module):
    """Every function, class and method the module defines, with a qualified name."""
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            yield name, obj
            for attr, member in vars(obj).items():
                if isinstance(member, (staticmethod, classmethod)):
                    member = member.__func__
                elif isinstance(member, property):
                    member = member.fget
                if inspect.isfunction(member):
                    yield f"{name}.{attr}", member


def test_all_is_unique_and_resolves():
    names = morreylab.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(morreylab, n)] == []
    star: dict = {}
    exec("from morreylab import *", star)
    assert set(names) <= set(star)


def test_every_annotation_resolves():
    broken = []
    for module in _modules():
        for name, obj in _annotated(module):
            try:
                typing.get_type_hints(obj)
            except Exception as exc:  # collect every failure, not just the first
                broken.append(f"{module.__name__}.{name}: {exc!r}")
    assert broken == []


def test_cli_imports_no_private_harness_name():
    # the commands reach the experiment records through public harness functions only
    tree = ast.parse(Path(inspect.getfile(morreylab)).with_name("cli.py").read_text("utf-8"))
    imports = [node for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "harness"]
    assert imports
    assert [a.name for node in imports for a in node.names if a.name.startswith("_")] == []


def test_run_experiment_holds_the_only_chunk_loop():
    # every record has one contract, a side that returns (chunks, evaluate), so no loop of the
    # harness but run_experiment's walks a stage's chunks, and none calls _stage_chunks itself
    tree = ast.parse(Path(inspect.getfile(morreylab)).with_name("harness.py").read_text("utf-8"))
    loops = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.For)
             and isinstance(node.iter, ast.Call) and isinstance(node.iter.func, ast.Name)
             and node.iter.func.id == "_stage_chunks"]
    assert loops == []
    assert harness._Experiment._fields == ("keys", "side", "kind")


def test_harness_imports_no_private_library_name():
    # each lattice rule has its one owner in dyadic, field or czd, which the harness reaches
    # through public names only (dunder names such as __version__ aside)
    tree = ast.parse(Path(inspect.getfile(morreylab)).with_name("harness.py").read_text("utf-8"))
    imports = [node for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert {node.module for node in imports} >= {"dyadic", "field", "czd"}
    names = [a.name for node in imports for a in node.names]
    assert [n for n in names if n.startswith("_") and not n.endswith("__")] == []


def test_czd_lays_every_cell_set_on_one_cube():
    # D_k, E0, the E_j^k and the recheck's coverage array lie on Q0's cells or a stopping
    # cube's, so the stopping-time path takes no window cell slice and no window-shaped array.
    # necessity_pair is exempt: it builds T27's input pair, a function on the whole window.
    tree = ast.parse(Path(inspect.getfile(morreylab)).with_name("czd.py").read_text("utf-8"))
    path = [node for node in tree.body if getattr(node, "name", None) != "necessity_pair"]
    assert len(path) == len(tree.body) - 1
    nodes = [node for top in path for node in ast.walk(top) if isinstance(node, ast.Attribute)]
    assert [node.lineno for node in nodes if node.attr == "cell_offsets_of_cube"] == []
    assert [node.lineno for node in nodes if node.attr == "shape"
            and isinstance(node.value, ast.Name) and node.value.id == "window"] == []
