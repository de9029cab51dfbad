"""Every parameter of every function in floodnet is read by its body,
every default of one is overridden at some call site, and every name a
module of floodnet or its tests imports is read there."""

import ast
from pathlib import Path

import floodnet

PACKAGE = Path(floodnet.__file__).parent
# the trees whose calls count as overriding a default
CALLERS = [PACKAGE.parents[1] / top for top in ("src", "tests", "perfbench")]

ALLOWED = {
    # a leaf has no parents to pass a gradient to, but every rule is
    # called as bwd(g, grads)
    ("autodiff", "Graph.param.bwd", "grads"),
    # ParamStore.get adds a parameter on its first read through `add`, which
    # _Layout overrides with a zero view that has no init to draw
    ("model", "_Layout.add", "init"),
}

ALLOWED_DEFAULTS = set()


def _functions(tree: ast.AST, module: str, prefix: str = "", in_class: bool = False):
    """(module, qualname, def node, defined in a class body) of every function."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield module, prefix + node.name, node, in_class
            yield from _functions(node, module, prefix + node.name + ".")
        elif isinstance(node, ast.ClassDef):
            yield from _functions(node, module, prefix + node.name + ".", True)
        else:
            yield from _functions(node, module, prefix, in_class)


def _package_functions():
    for path in sorted(PACKAGE.glob("*.py")):
        yield from _functions(ast.parse(path.read_text()), path.stem)


def _unused(module, qualname, node):
    a = node.args
    params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
    params += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
    read = {n.id for stmt in node.body for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return {(module, qualname, p) for p in params if p not in read}


def _defaulted(node, method: bool):
    """(name, position in a call, None if keyword-only) of each parameter
    with a default; a method's position does not count self."""
    a = node.args
    positional = a.posonlyargs + a.args
    first = len(positional) - len(a.defaults)
    for i, p in enumerate(positional[first:], first - method):
        yield p.arg, i
    for p, d in zip(a.kwonlyargs, a.kw_defaults):
        if d is not None:
            yield p.arg, None


def _calls():
    """callee name -> [keywords passed, most positional arguments, whether
    some call spreads *args or **kwargs]; a constructor's name is its class."""
    calls = {}
    for top in CALLERS:
        for path in sorted(top.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                keywords = {k.arg for k in node.keywords}  # None for **kwargs
                seen = calls.setdefault(name, [set(), 0, False])
                seen[0] |= keywords
                seen[1] = max(seen[1], len(node.args))
                seen[2] |= None in keywords or any(isinstance(x, ast.Starred) for x in node.args)
    return calls


def test_no_function_parameter_is_unused():
    found = set()
    for module, qualname, node, _ in _package_functions():
        found |= _unused(module, qualname, node)
    assert sorted(found - ALLOWED) == []
    assert ALLOWED <= found, "an allowed parameter is now read: drop it from ALLOWED"


def test_every_default_is_overridden_somewhere():
    """A default no caller overrides is a constant in disguise."""
    calls = _calls()
    found = set()
    for module, qualname, node, in_class in _package_functions():
        method = in_class and not any(getattr(d, "id", None) == "staticmethod"
                                      for d in node.decorator_list)
        owner, _, name = qualname.rpartition(".")
        callee = owner.rpartition(".")[2] if name == "__init__" else name
        keywords, n_positional, spread = calls.get(callee, [set(), 0, False])
        for param, position in _defaulted(node, method):
            passed = param in keywords or spread or (position is not None and position < n_positional)
            if not passed:
                found.add((module, qualname, param))
    assert sorted(found - ALLOWED_DEFAULTS) == []
    assert ALLOWED_DEFAULTS <= found, "an allowed default is now passed: drop it from ALLOWED_DEFAULTS"


def _read_names(tree: ast.AST) -> set:
    """Names a module loads, those in its string annotations and in its
    __all__ list included."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        returns = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        annotation = getattr(node, "returns" if returns else "annotation", None)
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            read |= _read_names(ast.parse(annotation.value, mode="eval"))
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            read |= {elt.value for elt in node.value.elts}
    return read


def test_every_imported_name_is_read():
    found = []
    for path in sorted(PACKAGE.glob("*.py")) + sorted((PACKAGE.parents[1] / "tests").glob("*.py")):
        tree = ast.parse(path.read_text())
        read = _read_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.partition(".")[0]
                    if name not in read:
                        found.append(f"{path.parent.name}/{path.name}:{node.lineno} {name}")
    assert found == []
