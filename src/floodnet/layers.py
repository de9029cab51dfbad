"""Composite layers built from autodiff primitives.

Every layer reads its axes from the end, so it takes one sample or a batch
stacked on a leading axis alike.
"""

from __future__ import annotations

import math

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
    mu = g.reduce_mean(x, axes=-1, keepdims=True)
    centered = g.sub(x, mu)
    var = g.reduce_mean(g.mul(centered, centered), axes=-1, keepdims=True)
    return g.mul(centered, g.powc(g.shift(var, eps), -0.5))


def layer_norm_flat(g: Graph, x: Node, eps: float = LN_EPS) -> Node:
    """Layer norm over all entries of each (H, W, C) map in x, shape preserved."""
    flat = g.reshape(x, x.shape[:-3] + (math.prod(x.shape[-3:]),))
    return g.reshape(layer_norm(g, flat, eps), x.shape)


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
    C = x.shape[-1]
    if name + ".gamma" not in store.entries:
        register_bn(store, name, C)
    gamma = g.param(store, name + ".gamma")
    beta = g.param(store, name + ".beta")
    if train:
        mu = g.reduce_mean(x, axes=(-3, -2), keepdims=True)
        centered = g.sub(x, mu)
        var = g.reduce_mean(g.mul(centered, centered), axes=(-3, -2), keepdims=True)
        for m, v in zip(mu.value.reshape(-1, C), var.value.reshape(-1, C)):
            store.buffers[name + ".running_mean"] = (
                momentum * store.buffers[name + ".running_mean"] + (1 - momentum) * m
            )
            store.buffers[name + ".running_var"] = (
                momentum * store.buffers[name + ".running_var"] + (1 - momentum) * v
            )
        norm = g.mul(centered, g.powc(g.shift(var, eps), -0.5))
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
