"""Source-tree rules that no single module can check for itself."""

from __future__ import annotations

import ast
import pathlib

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
