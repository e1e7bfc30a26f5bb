"""Source-tree rules that no single module can check for itself."""

from __future__ import annotations

import ast
import pathlib

import polarsim
from polarsim import verify

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "polarsim"


def test_every_public_function_has_a_caller_in_src():
    # a public module-level function that no src code names and __all__ does
    # not export, or a public method or property of a src class that no src
    # code reads as an attribute, serves only the tests: delete it and assert
    # with numpy there; a dataclass field that no src code reads is carried
    # only for the tests too.  A local variable of the same name, or a numpy
    # attribute (np.linalg.norm), does not count as a read of a member.
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    named, read, exported = set(), set(), set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
                base = node.value
                while isinstance(base, ast.Attribute):
                    base = base.value
                on_numpy = isinstance(base, ast.Name) and base.id == "np"
                if isinstance(node.ctx, ast.Load) and not on_numpy:
                    read.add(node.attr)
            elif isinstance(node, ast.Assign) and "__all__" in {
                getattr(t, "id", None) for t in node.targets
            }:
                exported |= {elt.value for elt in node.value.elts}
    defs = (ast.FunctionDef, ast.ClassDef)
    defined = [
        (f"{module}.{node.name}", node)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, defs)
    ]
    members = [
        (f"{name}.{member.name}", member)
        for name, node in defined
        if isinstance(node, ast.ClassDef)
        for member in node.body
        if isinstance(member, defs)
    ]
    unused = [
        name
        for name, node in defined
        if isinstance(node, ast.FunctionDef)
        and not node.name.startswith("_")
        and node.name not in named | exported
    ]
    unused += [
        name
        for name, node in members
        if isinstance(node, ast.FunctionDef)
        and not node.name.startswith("_")
        and node.name not in read
    ]
    unused += [
        f"{name}.{field.target.id}"
        for name, node in defined
        if isinstance(node, ast.ClassDef)
        and any("dataclass" in ast.unparse(d) for d in node.decorator_list)
        for field in node.body
        if isinstance(field, ast.AnnAssign) and field.target.id not in read
    ]
    assert unused == []


def test_every_exported_name_resolves():
    # a name in __all__ that the package does not define breaks star imports
    assert [name for name in polarsim.__all__ if not hasattr(polarsim, name)] == []


def test_routes_meet_their_oracles_only_in_graded_run():
    # a route's output graded by hand against sign_expected or
    # evolution_expected is a second pairing to keep in step with the first:
    # in src only verify.graded_run names either oracle
    oracles = {"sign_expected", "evolution_expected"}
    naming = set()
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if getattr(node, "id", None) in oracles or getattr(node, "attr", None) in oracles:
                    naming.add(f"{path.stem}.{getattr(top, 'name', '<module>')}")
    assert naming == {"verify.graded_run"}


def test_only_verify_tables_the_function_names():
    # the names a --function accepts, and the route each one runs, live in
    # verify's one table; a tuple, list, set or dict of them elsewhere is a copy
    names = set(verify.FUNCTIONS)
    copies = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "verify":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            entries = node.keys if isinstance(node, ast.Dict) else getattr(node, "elts", [])
            if any(isinstance(e, ast.Constant) and e.value in names for e in entries):
                copies.append(f"{path.stem}.py:{node.lineno}")
    assert copies == []
