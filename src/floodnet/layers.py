"""Composite layers built from autodiff primitives.

Every layer reads its axes from the end, so it takes one sample or a batch
stacked on a leading axis alike.
"""

from __future__ import annotations

import numpy as np

from .autodiff import NORM_EPS, Graph, Node, mean_var

BN_MOMENTUM = 0.9


def layer_norm(g: Graph, x: Node) -> Node:
    """Zero-mean unit-variance normalization along the last axis, no affine."""
    return g.standardize(x, -1)


def attention(g: Graph, q_in: Node, kv_in: Node, heads) -> Node:
    """Scaled dot-product attention of q_in's rows over kv_in's rows.

    heads holds one (wq, wk, wv) triple per head; each head's scores
    q k^T are scaled by 1/sqrt(head width) before the softmax, and the head
    outputs are concatenated along the last axis.  Each projection's
    per-head weights sit side by side, so the heads share three matmuls
    and one `Graph.attention` node."""
    wq, wk, wv = (ws[0] if len(ws) == 1 else g.concat(ws, axis=-1) for ws in zip(*heads))
    q, k, v = g.matmul(q_in, wq), g.matmul(kv_in, wk), g.matmul(kv_in, wv)
    return g.attention(q, k, v, len(heads))


def linear(g: Graph, store, prefix: str, x: Node, d_out: int) -> Node:
    """x @ w + b over x's last axis, w (d_in, d_out) read as {prefix}.w and
    the zero-initialized b as {prefix}.b."""
    w = g.param(store, f"{prefix}.w", (x.shape[-1], d_out))
    return g.add(g.matmul(x, w), g.param(store, f"{prefix}.b", (d_out,), "zeros"))


def self_attention(g: Graph, store, prefix: str, x: Node, heads: int) -> Node:
    """Multi-head attention of x's rows over themselves, heads concatenated,
    then W^O.  Each head maps the width d to d // heads; W^O is (d, d)."""
    d = x.shape[-1]
    triples = [tuple(g.param(store, f"{prefix}.head{head}.{proj}", (d, d // heads))
                     for proj in ("wq", "wk", "wv"))
               for head in range(heads)]
    return g.matmul(attention(g, x, x, triples), g.param(store, f"{prefix}.wo", (d, d)))


def mlp(g: Graph, store, prefix: str, x: Node, d_hidden: int, d_out: int) -> Node:
    """Two-layer perceptron relu(x @ w1 + b1) @ w2 + b2."""
    w1 = g.param(store, f"{prefix}.w1", (x.shape[-1], d_hidden))
    b1 = g.param(store, f"{prefix}.b1", (d_hidden,), "zeros")
    w2 = g.param(store, f"{prefix}.w2", (d_hidden, d_out))
    b2 = g.param(store, f"{prefix}.b2", (d_out,), "zeros")
    return g.add(g.matmul(g.relu(g.add(g.matmul(x, w1), b1)), w2), b2)


def batch_norm_state(g: Graph, store, name: str, C: int):
    """The batch norm `name`'s (gamma, beta) parameter leaves and its
    (running_mean, running_var) buffers, each (C,), read in that order."""
    gamma = g.param(store, name + ".gamma", (C,), "ones")
    beta = g.param(store, name + ".beta", (C,), "zeros")
    return (gamma, beta), (store.buffer(name + ".running_mean", np.zeros(C)),
                           store.buffer(name + ".running_var", np.ones(C)))


def fold_running_stats(store, name: str, mean: np.ndarray, var: np.ndarray) -> None:
    """Folds each map's moments, (..., C) arrays, into the batch norm
    `name`'s running buffers at BN_MOMENTUM, one map at a time in batch
    order."""
    C = mean.shape[-1]
    rm, rv = store.buffers[name + ".running_mean"], store.buffers[name + ".running_var"]
    for m, v in zip(mean.reshape(-1, C), var.reshape(-1, C)):
        rm = BN_MOMENTUM * rm + (1 - BN_MOMENTUM) * m
        rv = BN_MOMENTUM * rv + (1 - BN_MOMENTUM) * v
    store.buffers[name + ".running_mean"] = rm
    store.buffers[name + ".running_var"] = rv


def batch_norm(
    g: Graph,
    x: Node,
    store,
    name: str,
    train: bool,
) -> Node:
    """Per-channel batch norm over the spatial axes of each (H,W,C) map.

    Train mode is one `standardize` node with the affine: each map is
    normalized by its own statistics, and the same moments are folded into
    the running buffers (`fold_running_stats`).  Eval mode uses the buffers
    (init 0 mean / 1 var).
    """
    (gamma, beta), (rm, rv) = batch_norm_state(g, store, name, x.shape[-1])
    if train:
        moments = mean_var(x.value, (-3, -2))
        fold_running_stats(store, name, *moments)
        return g.standardize(x, (-3, -2), (gamma, beta), moments)
    norm = g.mul(g.sub(x, g.constant(rm)), g.constant(1.0 / np.sqrt(rv + NORM_EPS)))
    return g.add(g.mul(norm, gamma), beta)


def sinusoidal_positions(n: int, d: int) -> np.ndarray:
    """Fixed sinusoidal positional table, (n, d)."""
    pos = np.arange(n)[:, None]
    i = np.arange(d)[None, :]
    angle = pos / np.power(10000.0, (2 * (i // 2)) / d)
    table = np.where(i % 2 == 0, np.sin(angle), np.cos(angle))
    return table
