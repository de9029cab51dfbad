"""Central-difference gradient verification against the reverse sweep."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .autodiff import Graph, Node
from .params import ParamStore

STEP = 1e-5
TOL = 1e-4


@dataclass
class CoordResult:
    name: str
    index: tuple[int, ...]
    analytic: float
    numeric: float
    rel_err: float


def check_gradients(
    build: Callable[[Graph], Node],
    store: ParamStore,
    names: list[str] | None = None,
    n_coords: int = 20,
    seed: int = 0,
) -> tuple[list[CoordResult], float]:
    """Compares reverse-sweep gradients of the scalar `build` output with
    central finite differences, step STEP * max(1, |x|) at a coordinate x,
    at n_coords sampled parameter coordinates, over `names` or else every
    parameter of the store after the first build.

    Returns per-coordinate results and the max relative error; raises
    AssertionError if any coordinate exceeds TOL, and ValueError before any
    build when n_coords < 1.
    """
    if n_coords < 1:
        raise ValueError(f"n_coords must be >= 1, got {n_coords}")
    store.zero_grad()
    g = Graph()
    loss = build(g)  # adds the parameters an empty store lacks
    base = float(loss.value.reshape(()))
    g.backward(loss)
    if names is None:
        names = store.names()
    analytic = {n: store.entries[n].grad.copy() for n in names}

    rng = np.random.default_rng([seed, 0x6C])
    sizes = np.array([store.entries[n].value.size for n in names], dtype=np.float64)
    results = []
    for _ in range(n_coords):
        name = names[int(rng.choice(len(names), p=sizes / sizes.sum()))]
        entry = store.entries[name]
        flat = int(rng.integers(entry.value.size))
        idx = np.unravel_index(flat, entry.value.shape)
        orig = entry.value[idx]
        step = STEP * max(1.0, abs(orig))
        entry.value[idx] = orig + step
        # the perturbed forwards need no gradient, so their graphs have no sources
        up = float(build(Graph(param_grads=False)).value.reshape(()))
        entry.value[idx] = orig - step
        down = float(build(Graph(param_grads=False)).value.reshape(()))
        entry.value[idx] = orig
        numeric = (up - down) / (2 * step)
        a = float(analytic[name][idx])
        rel_err = abs(a - numeric) / max(abs(a) + abs(numeric), 1e-6)
        results.append(CoordResult(name, idx, a, numeric, rel_err))
    max_err = max(r.rel_err for r in results)
    bad = [r for r in results if r.rel_err > TOL]
    if bad:
        worst = max(bad, key=lambda r: r.rel_err)
        raise AssertionError(
            f"gradient mismatch at {worst.name}{worst.index}: "
            f"analytic {worst.analytic:.6e} vs numeric {worst.numeric:.6e} "
            f"(rel err {worst.rel_err:.3e}, base loss {base:.6e})"
        )
    return results, max_err
