"""The engine's per-op path calls no numpy helper that costs several times
the work it does on a small map.  Each name below has a cheaper
equivalent with the same bytes:

- `as_strided`: `np.ndarray(shape, dtype, buffer, offset, strides)`
  (`autodiff._view`), which also checks that the view fits its buffer;
- `np.tile`: `repeat` along a new axis, then `reshape`;
- `np.atleast_1d`: a tuple of the axes;
- `np.swapaxes`: the ndarray method of the same name;
- `itertools.accumulate`: a running sum in the rule that reads it."""

import ast
from pathlib import Path

import numpy as np
import pytest

import floodnet
from floodnet.autodiff import _view

AUTODIFF = Path(floodnet.__file__).parent / "autodiff.py"
# module alias -> helpers of that module the engine must not name
FORBIDDEN = {
    "np": {"tile", "atleast_1d", "swapaxes", "as_strided"},
    "itertools": {"accumulate"},
}
FORBIDDEN_NAMES = {"as_strided"}


def _forbidden_uses(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.attr in FORBIDDEN.get(node.value.id, ())):
            found.append(f"line {node.lineno}: {node.value.id}.{node.attr}")
        elif isinstance(node, ast.Name) and node.id in FORBIDDEN_NAMES:
            found.append(f"line {node.lineno}: {node.id}")
        elif isinstance(node, ast.ImportFrom):
            found += [f"line {node.lineno}: import {a.name}" for a in node.names if a.name in FORBIDDEN_NAMES]
    return found


def test_the_engine_names_no_slow_numpy_helper():
    assert _forbidden_uses(ast.parse(AUTODIFF.read_text())) == []


def test_the_guard_sees_each_helper():
    source = ("from numpy.lib.stride_tricks import as_strided\n"
              "a = as_strided(x, (2,), (8,))\n"
              "b = np.tile(x, 2) + np.atleast_1d(0) + np.swapaxes(x, 0, 1)\n"
              "c = list(itertools.accumulate([1, 2]))\n"
              "d = x.swapaxes(0, 1)  # the method is fine\n")
    assert len(_forbidden_uses(ast.parse(source))) == 6


def test_record_builds_no_generator():
    """Graph._record runs once per node; its activity rule is a plain loop."""
    tree = ast.parse(AUTODIFF.read_text())
    graph = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "Graph")
    record = next(n for n in graph.body if isinstance(n, ast.FunctionDef) and n.name == "_record")
    kinds = (ast.GeneratorExp, ast.ListComp, ast.SetComp, ast.DictComp, ast.Lambda)
    assert not any(isinstance(n, kinds) for n in ast.walk(record))


def test_a_window_view_is_read_only_and_stays_inside_its_buffer():
    buf = np.arange(20.0).reshape(4, 5)
    view = _view(buf, (3, 2, 2), (40, 8, 8))  # rows 0-2, overlapping column pairs 0-1 and 1-2
    assert not view.flags.writeable and np.shares_memory(view, buf)
    np.testing.assert_array_equal(view[2, 1], buf[2, 1:3])
    _view(buf, (4, 4, 2), (40, 8, 8))  # ends at buf's last byte
    with pytest.raises(ValueError):
        _view(buf, (4, 5, 2), (40, 8, 8))  # would read one value past it
