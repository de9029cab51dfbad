"""Composite layers built from autodiff primitives.

Every layer reads its axes from the end, so it takes one sample or a batch
stacked on a leading axis alike.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Graph, Node

LN_EPS = 1e-5
BN_EPS = 1e-5
BN_MOMENTUM = 0.9


def dense(g: Graph, x: Node, w: Node, b: Node | None = None) -> Node:
    """x @ w (+ b). Rank-1 x is treated as a single row; higher ranks are rows
    over the last axis."""
    squeeze = x.value.ndim == 1
    if squeeze:
        x = g.reshape(x, (1, x.shape[0]))
    out = g.matmul(x, w)
    if b is not None:
        out = g.add(out, b)
    if squeeze:
        out = g.reshape(out, (out.shape[1],))
    return out


def layer_norm(g: Graph, x: Node, eps: float = LN_EPS) -> Node:
    """Zero-mean unit-variance normalization along the last axis, no affine."""
    return g.standardize(x, -1, eps)


def attention(g: Graph, q_in: Node, kv_in: Node, heads) -> Node:
    """Scaled dot-product attention of q_in's rows over kv_in's rows.

    heads holds one (wq, wk, wv) triple per head; each head's scores
    q k^T are scaled by 1/sqrt(head width) before the softmax, and the head
    outputs are concatenated along the last axis."""
    outs = []
    for wq, wk, wv in heads:
        q, k, v = g.matmul(q_in, wq), g.matmul(kv_in, wk), g.matmul(kv_in, wv)
        scores = g.scale(g.matmul(q, g.transpose(k)), 1.0 / np.sqrt(wq.shape[-1]))
        weights = g.softmax_last(scores)
        outs.append(g.matmul(weights, v))
    return outs[0] if len(outs) == 1 else g.concat(outs, axis=-1)


def register_bn(store, name: str, channels: int) -> None:
    store.add(name + ".gamma", (channels,), init="ones")
    store.add(name + ".beta", (channels,), init="zeros")
    store.add_buffer(name + ".running_mean", np.zeros(channels))
    store.add_buffer(name + ".running_var", np.ones(channels))


def batch_norm(
    g: Graph,
    x: Node,
    store,
    name: str,
    train: bool,
    eps: float = BN_EPS,
    momentum: float = BN_MOMENTUM,
) -> Node:
    """Per-channel batch norm over the spatial axes of each (H,W,C) map.

    Train mode normalizes each map by its own statistics and folds them
    into the running buffers one map at a time, in batch order; eval mode
    uses the buffers (init 0 mean / 1 var).
    """
    gamma = g.param(store, name + ".gamma")
    beta = g.param(store, name + ".beta")
    if train:
        norm = g.standardize(x, (-3, -2), eps)
        C = x.shape[-1]
        means = x.value.mean(axis=(-3, -2)).reshape(-1, C)
        variances = x.value.var(axis=(-3, -2)).reshape(-1, C)
        for m, v in zip(means, variances):
            store.buffers[name + ".running_mean"] = (
                momentum * store.buffers[name + ".running_mean"] + (1 - momentum) * m
            )
            store.buffers[name + ".running_var"] = (
                momentum * store.buffers[name + ".running_var"] + (1 - momentum) * v
            )
    else:
        rm = store.buffers[name + ".running_mean"]
        rv = store.buffers[name + ".running_var"]
        norm = g.mul(g.sub(x, g.constant(rm)), g.constant(1.0 / np.sqrt(rv + eps)))
    return g.add(g.mul(norm, gamma), beta)


def global_avg_pool(g: Graph, x: Node) -> Node:
    """(..., H, W, C) -> (..., 1, 1, C) spatial mean."""
    return g.reduce_mean(x, axes=(-3, -2), keepdims=True)


def sinusoidal_positions(n: int, d: int) -> np.ndarray:
    """Fixed sinusoidal positional table, (n, d)."""
    pos = np.arange(n)[:, None]
    i = np.arange(d)[None, :]
    angle = pos / np.power(10000.0, (2 * (i // 2)) / d)
    table = np.where(i % 2 == 0, np.sin(angle), np.cos(angle))
    return table
