"""Cascading convolutional transformer feature refinement.

Gated-conv downsampling encoder, a small pre-LN transformer over flattened
patches, a cascading decoder whose stage outputs are channel-concatenated,
and a gated subtraction/scaling harmonizer against adapted image features.
Maps are (H, W, C), or (B, H, W, C) for a batch.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .autodiff import Graph, Node
from .config import ModelConfig
from .layers import (batch_norm, batch_norm_state, fold_running_stats, layer_norm, mlp, self_attention,
                     sinusoidal_positions)
from .params import ParamStore


class DropoutMasks:
    """The inverted-dropout masks of one forward pass's gated blocks: each
    is the bool u >= rate, one byte an entry, and the activation it keeps
    is scaled by `scale`, 1 / (1 - rate).  The uniforms u of one sample are
    drawn as one row of n, n being what one sample's blocks use, into a
    reused float64 row and compared at once into one read-only (..., n)
    bool block; each mask is a view of its next slice, so every sample of
    a batch gets the masks it gets when run alone."""

    def __init__(self, rng: np.random.Generator, rate: float, shape: tuple):
        row, self.keep = np.empty(shape[-1]), np.empty(shape, dtype=bool)
        for i in np.ndindex(shape[:-1]):
            np.greater_equal(rng.random(out=row), rate, out=self.keep[i])
        self.keep.flags.writeable = False
        self.rate = rate
        self.scale = 1.0 / (1.0 - rate)
        self.used = 0

    def take(self, shape: tuple) -> np.ndarray:
        """The bool mask of the next block's activation, of this shape."""
        n = math.prod(shape[self.keep.ndim - 1:])
        mask = self.keep[..., self.used:self.used + n].reshape(shape)
        self.used += n
        return mask


def _gated_conv_sizes(cfg: ModelConfig, h: int, w: int) -> int:
    """Per-sample entries of the gated blocks' conv outputs: the encoder
    halves the extents, every decoder stage's conv doubles them."""
    n = 0
    for c in cfg.encoder_plan:
        n += h * w * c
        h, w = h // 2, w // 2
    return n + sum(4 * h * w * c for c in cfg.decoder_plan)


def gated_downsample_block(
    g: Graph,
    store: ParamStore,
    name: str,
    x: Node,
    c_out: int,
    train: bool,
    masks: DropoutMasks | None,
    conv: Callable | None = None,
) -> Node:
    """3x3 conv to c_out channels -> relu(G * sigmoid(G)), times the next
    dropout mask and its scale when masks are given -> batch norm ->
    maxpool, the last three as one gated_norm_pool node.  Train mode
    normalizes each map by its own moments and folds them into the running
    buffers; eval mode normalizes by the buffers.  conv is the Graph op
    that convolves, g.conv2d when None."""
    conv = (conv or g.conv2d)(x, g.param(store, f"{name}.kernel", (3, 3, x.shape[-1], c_out)))
    affine, running = batch_norm_state(g, store, f"{name}.bn", c_out)
    mask, scale = (None, 1.0) if masks is None else (masks.take(conv.shape), masks.scale)
    pooled, moments = g.gated_norm_pool(conv, affine, mask, scale, None if train else running)
    if train:
        fold_running_stats(store, f"{name}.bn", *moments)
    return pooled


def encoder(
    g: Graph,
    store: ParamStore,
    cfg: ModelConfig,
    x_img: Node,
    train: bool,
    masks: DropoutMasks | None,
    taps: dict | None = None,
) -> Node:
    out = x_img
    for i, c_out in enumerate(cfg.encoder_plan):
        name = f"cctfrm.enc{i}"
        out = gated_downsample_block(g, store, name, out, c_out, train, masks)
        if taps is not None:
            taps[f"enc{i}"] = out
    return out


def transformer_encoder(g: Graph, store: ParamStore, cfg: ModelConfig, patches: Node) -> Node:
    """Pre-LN transformer stack with fixed sinusoidal positions at entry."""
    n_p, d = patches.shape[-2:]
    x = g.add(patches, g.constant(sinusoidal_positions(n_p, d)))
    for layer in range(cfg.transformer_depth):
        prefix = f"cctfrm.tr{layer}"
        x = g.add(x, self_attention(g, store, prefix, layer_norm(g, x), cfg.transformer_heads))
        x = g.add(x, mlp(g, store, f"{prefix}.ff", layer_norm(g, x), 2 * d, d))
    return x


def decoder_cascade(
    g: Graph,
    store: ParamStore,
    cfg: ModelConfig,
    x: Node,
    train: bool,
    masks: DropoutMasks | None,
) -> Node:
    """Each stage upsamples x2 and runs a gated block, so its net spatial
    extent is preserved; the upsampling and the block's conv are one
    upsample_conv2d node, which convolves on the stage input's own grid.
    Returns the last stage, or every stage concatenated on channels."""
    outs = []
    cur = x
    for i, c_out in enumerate(cfg.decoder_plan):
        cur = gated_downsample_block(g, store, f"cctfrm.dec{i}", cur, c_out, train, masks, g.upsample_conv2d)
        outs.append(cur)
    return outs[0] if len(outs) == 1 else g.concat(outs, axis=-1)


def reverse_feature_harmonization(
    g: Graph, store: ParamStore, y_cascade: Node, x_img: Node, train: bool
) -> Node:
    """Gated subtraction and adaptive scaling of the cascade output against
    batch-normalized adapted image features; result is flattened.  The
    adapter is a 3x3 same-padded conv of the image kept at the cascade's grid."""
    *lead, H_t, W_t, C_t = y_cascade.shape
    H, W, C = x_img.shape[-3:]
    # the 3x3 windows about every (H / H_t)-th row and column, zero past the
    # image's edges, ordered (i, j, c) as the kernel's rows
    rows, cols = (n // m * np.arange(m)[:, None] + np.arange(3) - 1 for n, m in ((H, H_t), (W, W_t)))
    windows = x_img.value[..., rows.clip(0, H - 1)[:, :, None, None], cols.clip(0, W - 1), :]
    windows *= (((rows >= 0) & (rows < H))[:, :, None, None] & ((cols >= 0) & (cols < W)))[..., None]
    windows = windows.swapaxes(-4, -3).reshape(tuple(lead) + (H_t, W_t, 9 * C))
    kernel = g.param(store, "cctfrm.adapter.kernel", (3, 3, C, C_t))
    adapted = g.matmul(windows, g.reshape(kernel, (9 * C, C_t)))
    x_n = batch_norm(g, adapted, store, "cctfrm.harm.bn_img", train)
    y_n = batch_norm(g, y_cascade, store, "cctfrm.harm.bn_cascade", train)

    def gain(name: str) -> Node:
        return g.param(store, f"cctfrm.harm.{name}", (1,), "ones")

    y_sub = g.sub(g.mul(gain("beta"), x_n), g.sigmoid(y_n))
    gate = g.sigmoid(g.add(g.mul(gain("g_cascade"), y_n), g.mul(gain("g_image"), x_n)))
    o_final = g.mul(gate, g.add(g.mul(gain("alpha_cascade"), y_n),
                                g.mul(gain("alpha_sub"), y_sub)))
    return g.reshape(o_final, tuple(lead) + (H_t * W_t * C_t,))


def cctfrm_forward(
    g: Graph,
    store: ParamStore,
    cfg: ModelConfig,
    raw_image: np.ndarray,
    train: bool,
    dropout_rng: np.random.Generator | None,
    taps: dict | None = None,
) -> Node:
    """Full module forward; returns the flattened harmonized vector.

    raw_image is (H, W, 3) or (B, H, W, 3).  In train mode with dropout the
    masks of all gated blocks come from one draw of uniforms per sample."""
    x_img = g.constant(raw_image)
    *lead, H, W, _ = x_img.shape
    lead = tuple(lead)
    masks = (DropoutMasks(dropout_rng, cfg.dropout, lead + (_gated_conv_sizes(cfg, H, W),))
             if train and cfg.dropout > 0.0 else None)
    enc = encoder(g, store, cfg, x_img, train, masks, taps)
    hh, ww, d = enc.shape[-3:]
    tokens = g.reshape(enc, lead + (hh * ww, d))
    transformed = transformer_encoder(g, store, cfg, tokens)
    grid = g.reshape(transformed, lead + (hh, ww, d))
    cascade = decoder_cascade(g, store, cfg, grid, train, masks)
    return reverse_feature_harmonization(g, store, cascade, x_img, train)
