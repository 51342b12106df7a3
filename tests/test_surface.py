"""Dead-surface guard: every module-level function and class of the package
is used by the package itself, and every defaulted parameter of its
functions and methods is set by some call in the package.

A definition counts as used when an ``ast.Name`` or ``ast.Attribute`` node
outside its own body names it.  A parameter counts as set when a package
call to a function or method of that name passes it by keyword or by
position; a ``**kwargs`` forward passes the keywords its own callers pass.
Re-exports in ``__init__.py``, docstrings and tests do not count, so code
and knobs that only tests reach fail here.  Constructors are left out: the
fields of config-filled dataclasses and profile parameters are set from
config documents, not by calls.
"""

import ast
import math
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


# defaulted parameters kept for a test oracle, with the test that reads them
ORACLE_PARAMETERS = {
    "norm_Z_weighted.return_parts": "test_norm_Z_dt_component_oracle checks the d_t part",
}


def _calls(tree: ast.AST):
    """(callee name, positional count, keyword names, forwarding function) of
    every call; the forwarding function is the enclosing function whose
    ``**kwargs`` the call passes on, else None."""
    out, stack = [], [(tree, None)]
    while stack:
        node, func = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            n_pos = (math.inf if any(isinstance(a, ast.Starred) for a in node.args)
                     else len(node.args))
            forward = next((func.name for k in node.keywords
                            if k.arg is None and func is not None and func.args.kwarg
                            and isinstance(k.value, ast.Name)
                            and k.value.id == func.args.kwarg.arg), None)
            out.append((name, n_pos, {k.arg for k in node.keywords if k.arg}, forward))
        stack.extend((child, func) for child in ast.iter_child_nodes(node))
    return out


def _defaulted_parameters(tree: ast.AST):
    """(function name, parameter, position or None) of every defaulted
    parameter of a function or method other than a constructor; the position
    counts after ``self``/``cls`` and is None for keyword-only parameters."""
    stack = [(tree, False)]
    while stack:
        node, in_class = stack.pop()
        for child in ast.iter_child_nodes(node):
            stack.append((child, isinstance(node, ast.ClassDef)))
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) or node.name == "__init__":
            continue
        params = node.args.posonlyargs + node.args.args
        static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
        if in_class and not static:
            params = params[1:]
        for i, a in enumerate(params[len(params) - len(node.args.defaults):],
                              start=len(params) - len(node.args.defaults)):
            yield node.name, a.arg, i
        for a, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
            if default is not None:
                yield node.name, a.arg, None


def test_every_defaulted_parameter_is_set_by_the_package():
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PKG.glob("*.py"))]
    calls = [c for tree in trees for c in _calls(tree)]
    keywords, positions = {}, {}
    for name, n_pos, kws, _fwd in calls:
        keywords.setdefault(name, set()).update(kws)
        positions[name] = max(positions.get(name, 0), n_pos)
    changed = True
    while changed:                      # keywords flow through **kwargs forwards
        changed = False
        for name, _n, _kws, forward in calls:
            if forward and not keywords.get(forward, set()) <= keywords.setdefault(name, set()):
                keywords[name] |= keywords[forward]
                changed = True
    unset = [f"{func}.{param}" for tree in trees
             for func, param, pos in _defaulted_parameters(tree)
             if param not in keywords.get(func, set())
             and (pos is None or positions.get(func, 0) <= pos)
             and f"{func}.{param}" not in ORACLE_PARAMETERS]
    assert not unset, f"defaulted parameters no package call sets: {sorted(unset)}"
