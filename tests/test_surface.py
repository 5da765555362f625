"""The package exports only what it runs: every name a module lists in
`__all__` is read, as an AST Name or Attribute, somewhere in the package
outside `__init__.py` (whose imports re-export it and so do not count)."""

import ast
import pathlib

import pytest

import fracrec

SRC = pathlib.Path(fracrec.__file__).parent
TREES = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}

# exported names with no reader in the package, each kept for a reader outside it
EXEMPT = {
    "ucp_svd": "bench/workloads.py builds the operator's SVD with it",
    "tikhonov_reconstruct": "bench/workloads.py reads its gradient certificate",
    "minimal_l2_reconstruct": "bench/workloads.py reads its residual certificate",
    "runge_approximate": "the paper's Runge approximation, checked by acceptance 10",
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
