"""Every parameter of every function in floodnet is read by its body."""

import ast
from pathlib import Path

import floodnet

ALLOWED = {
    # a leaf has no parents to pass a gradient to, but every rule is
    # called as bwd(g, grads)
    ("autodiff", "Graph.param.bwd", "grads"),
    # _Layout stands in for ParamStore during registration, so it takes
    # the init keywords that it records no value for
    ("model", "_Layout.add", "init"),
}


def _unused(tree: ast.AST, module: str, prefix: str = ""):
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qualname = prefix + node.name
            a = node.args
            params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
            params += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
            read = {n.id for stmt in node.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            yield from ((module, qualname, p) for p in params if p not in read)
            yield from _unused(node, module, qualname + ".")
        elif isinstance(node, ast.ClassDef):
            yield from _unused(node, module, prefix + node.name + ".")
        else:
            yield from _unused(node, module, prefix)


def test_no_function_parameter_is_unused():
    found = set()
    for path in sorted(Path(floodnet.__file__).parent.glob("*.py")):
        found |= set(_unused(ast.parse(path.read_text()), path.stem))
    assert sorted(found - ALLOWED) == []
    assert ALLOWED <= found, "an allowed parameter is now read: drop it from ALLOWED"
