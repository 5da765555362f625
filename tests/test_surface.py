"""The package exports only what it runs: every name a module lists in
`__all__` is read, as an AST Name or Attribute, somewhere in the package
outside `__init__.py`, or is exempt for a named file outside the package
that reads it.  Those lists are the package surface: `fracrec` holds
exactly the names of the four layers' `__all__`, and serves exactly
`experiments.__all__` on first use.  `ucp` and `forward` are independent
layers over `grid`, so `ucp` imports no module above `grid`."""

import ast
import importlib
import pathlib
import re
import types

import pytest

import fracrec
from fracrec import experiments

SRC = pathlib.Path(fracrec.__file__).parent
TREES = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}

REPO = pathlib.Path(__file__).resolve().parent.parent

# exported names with no reader in the package, each mapped to the file
# outside it that reads it: the benchmark builds the operator's SVD with
# ucp_svd and checks the certificates of the two one-alpha solves
EXEMPT = {
    "ucp_svd": "bench/workloads.py",
    "tikhonov_reconstruct": "bench/workloads.py",
    "minimal_l2_reconstruct": "bench/workloads.py",
}


def _exports(tree: ast.Module) -> list:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return []


def _read_names(tree: ast.Module) -> set:
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | {
        n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)
    }


READ = set().union(*(_read_names(t) for mod, t in TREES.items() if mod != "__init__"))
EXPORTS = [(mod, name) for mod, t in TREES.items() if mod != "__init__" for name in _exports(t)]


@pytest.mark.parametrize("module", [mod for mod in TREES if mod != "__init__"])
def test_every_export_has_a_reader_in_the_package(module):
    unread = [name for name in _exports(TREES[module])
              if name not in READ and name not in EXEMPT]
    assert not unread, f"fracrec.{module} exports names nothing in src/ reads: {unread}"


def test_exemptions_are_still_exported():
    assert set(EXEMPT) <= {name for _, name in EXPORTS}


@pytest.mark.parametrize("name", sorted(EXEMPT))
def test_exemptions_are_read_by_their_file(name):
    reader = REPO / EXEMPT[name]
    assert reader.is_file(), f"{name}'s reader {EXEMPT[name]} is gone"
    assert re.search(rf"\b{name}\b", reader.read_text(encoding="utf-8")), (
        f"{EXEMPT[name]} no longer reads {name}")


def test_ucp_imports_no_layer_above_grid():
    parts = set()
    for node in ast.walk(TREES["ucp"]):
        if isinstance(node, ast.ImportFrom):  # also `from . import forward`
            parts |= set((node.module or "").split(".")) | {a.name for a in node.names}
        elif isinstance(node, ast.Import):
            parts |= {part for a in node.names for part in a.name.split(".")}
    assert not parts & {"forward", "reconstruct", "experiments", "cli"}


def test_package_names_are_the_layers_exports():
    lists = [importlib.import_module(f"fracrec.{mod}").__all__
             for mod in ("grid", "forward", "ucp", "reconstruct")]
    assert sum(map(len, lists)) == len(set().union(*lists)), "two layers export one name"
    public = {name for name, val in vars(fracrec).items() if not name.startswith("_")
              and not (isinstance(val, types.ModuleType) and val.__name__.startswith("fracrec."))}
    assert sorted(public ^ set().union(*lists)) == []


def test_package_serves_exactly_the_experiments_exports():
    def served(name):
        try:
            return fracrec.__getattr__(name) is getattr(experiments, name)
        except AttributeError:
            return False

    candidates = {name for name in vars(experiments) if not name.startswith("_")}
    assert sorted({name for name in candidates if served(name)} ^ set(experiments.__all__)) == []
