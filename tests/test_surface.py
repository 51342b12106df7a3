"""Dead-surface guard: every module-level function and class of the package
is used by the package itself.

A definition counts as used when an ``ast.Name`` or ``ast.Attribute`` node
outside its own body names it.  Re-exports in ``__init__.py``, docstrings
and tests do not count, so code that only tests reach fails here.
"""

import ast
import pathlib

PKG = pathlib.Path(__file__).resolve().parent.parent / "src" / "backwave"


def _referenced_names(tree: ast.AST, skip: ast.AST = None) -> set:
    names, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return names


def test_every_module_level_definition_is_referenced():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PKG.glob("*.py")) if path.name != "__init__.py"}
    assert trees, f"no modules under {PKG}"
    elsewhere = {mod: set().union(*(_referenced_names(t) for m, t in trees.items() if m != mod))
                 for mod in trees}
    unused = []
    for mod, tree in trees.items():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name not in elsewhere[mod]
                    and node.name not in _referenced_names(tree, skip=node)):
                unused.append(f"{mod}.{node.name}")
    assert not unused, f"defined but never used by the package: {unused}"
