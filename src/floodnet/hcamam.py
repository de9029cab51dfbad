"""Heterogeneous convolutional adaptive multi-scale attention.

Pipeline: residual group/point convolution extraction, frequency-enhanced
channel attention, frequency-modulated spatial attention, and fusion of
both attention outputs with the global feature vector.
"""

from __future__ import annotations

import math

import numpy as np

from .autodiff import Graph, Node
from .config import ModelConfig
from .layers import LN_EPS, batch_norm, dense, layer_norm, register_bn
from .params import ParamStore

FNORM_EPS = 1e-5


def register_params(store: ParamStore, cfg: ModelConfig) -> None:
    d_i, C, G, K = cfg.d_i, cfg.hren_channels, cfg.hren_groups, cfg.hren_kernel
    store.add("hcamam.hren.group_kernel", (K, K, d_i // G, C))
    store.add("hcamam.hren.pre_point", (1, 1, d_i, C))
    store.add("hcamam.hren.point_kernel", (1, 1, C, C))
    if d_i != C:
        store.add("hcamam.hren.residual", (1, 1, d_i, C))
    register_bn(store, "hcamam.hren.bn", C)

    store.add("hcamam.feeca.conv1d.w", (3,))
    store.add("hcamam.feeca.conv1d.b", (1,), init="zeros")
    store.add("hcamam.feeca.proj.w", (C, C))
    store.add("hcamam.feeca.proj.b", (C,), init="zeros")
    store.add("hcamam.feeca.scale", (1, 1, C), init="ones")

    for k in (3, 5, 7):
        store.add(f"hcamam.fmsa.k{k}", (k, k, C, 1))
    store.add("hcamam.fmsa.proj.w", (C, C))
    store.add("hcamam.fmsa.spatial", (7, 7, 1, C))
    store.add("hcamam.fmsa.reduce.w", (C, C // 4))
    store.add("hcamam.fmsa.expand.w", (C // 4, C))
    store.add("hcamam.fmsa.w_att", (1,), init="ones")
    store.add("hcamam.fmsa.w_refined", (1,), init="ones")

    d_in = cfg.d_prime + cfg.d_t + cfg.d_i
    store.add("hcamam.fusion.w", (d_in, cfg.d_fused))
    store.add("hcamam.fusion.b", (cfg.d_fused,), init="zeros")


def hren_forward(g: Graph, store: ParamStore, cfg: ModelConfig, x: Node, train: bool) -> Node:
    """Groupwise conv + pointwise conv over a normalized pointwise-pre map,
    plus a residual path (1x1 projection when channel counts differ)."""
    grouped = g.conv2d(x, g.param(store, "hcamam.hren.group_kernel"), groups=cfg.hren_groups)
    pre = g.conv2d(x, g.param(store, "hcamam.hren.pre_point"))
    pointed = g.conv2d(batch_norm(g, pre, store, "hcamam.hren.bn", train),
                       g.param(store, "hcamam.hren.point_kernel"))
    agp = g.add(grouped, pointed)
    if cfg.d_i != cfg.hren_channels:
        res = g.conv2d(x, g.param(store, "hcamam.hren.residual"))
    else:
        res = x
    return g.add(agp, res)


def _channel_conv1d(g: Graph, store: ParamStore, gap: Node) -> Node:
    """Same-padded length-3 convolution along the channel axis of a (..., C) vector,
    run as a 3x3 conv over a 1 x C map whose zero kernel rows meet only padding."""
    zeros = g.constant(np.zeros(3))
    kernel = g.concat([zeros, g.param(store, "hcamam.feeca.conv1d.w"), zeros], axis=0)
    row = g.reshape(gap, gap.shape[:-1] + (1, gap.shape[-1], 1))
    out = g.conv2d(row, g.reshape(kernel, (3, 3, 1, 1)))
    return g.add(g.reshape(out, gap.shape), g.param(store, "hcamam.feeca.conv1d.b"))


def feeca_forward(g: Graph, store: ParamStore, x: Node) -> Node:
    """Frequency-enhanced channel attention over an (..., H, W, C) map."""
    C = x.shape[-1]
    gap = g.reduce_mean(x, axes=(-3, -2))
    attn = _channel_conv1d(g, store, gap)
    y_proj = dense(g, attn, g.param(store, "hcamam.feeca.proj.w"),
                   g.param(store, "hcamam.feeca.proj.b"))
    x_freq = g.fft2d_magnitude(x)
    sff = g.mul(g.param(store, "hcamam.feeca.scale"), x_freq)
    weighted = g.mul(sff, g.reshape(y_proj, x.shape[:-3] + (1, 1, C)))
    y_att = g.sigmoid(g.reduce_sum(weighted, axes=-1, keepdims=True))
    # the gate is standardized over each whole map, x over its channels
    return g.mul(g.standardize(y_att, (-3, -2, -1), LN_EPS), layer_norm(g, x))


def fmsa_forward(g: Graph, store: ParamStore, x: Node) -> Node:
    """Frequency-modulated spatial attention over an (..., H, W, C) map."""
    C = x.shape[-1]
    z_sum = None
    for k in (3, 5, 7):
        z = g.conv2d(x, g.param(store, f"hcamam.fmsa.k{k}"))
        z_sum = z if z_sum is None else g.add(z_sum, z)
    a_spatial = g.sigmoid(z_sum)
    f_freq = g.fft2d_magnitude(x)
    a_agg = g.mul(a_spatial, f_freq)
    f_norm = g.standardize(f_freq, (-3, -2), FNORM_EPS)  # per channel
    # the channel mixes below treat every pixel as a row
    a_proj = g.matmul(g.mul(a_agg, f_norm), g.param(store, "hcamam.fmsa.proj.w"))
    local = g.conv2d(a_proj, g.param(store, "hcamam.fmsa.spatial"), groups=C)
    reduced = g.relu(g.matmul(local, g.param(store, "hcamam.fmsa.reduce.w")))
    a_refined = g.sigmoid(g.matmul(reduced, g.param(store, "hcamam.fmsa.expand.w")))
    gain = g.mul(g.mul(g.param(store, "hcamam.fmsa.w_att"), a_proj),
                 g.mul(g.param(store, "hcamam.fmsa.w_refined"), a_refined))
    return g.mul(x, gain)


def attention_fusion(g: Graph, store: ParamStore, y_mca: Node, y_msa: Node, gl: np.ndarray) -> Node:
    """Channel-concat the two attention maps, flatten, append the
    (..., d_t + d_i) global features, and project through the global
    contextual dense layer."""
    y_concat = g.concat([y_mca, y_msa], axis=-1)
    flat = g.reshape(y_concat, y_concat.shape[:-3] + (math.prod(y_concat.shape[-3:]),))
    y_final = g.concat([flat, g.constant(gl)], axis=-1)
    return g.relu(dense(g, y_final, g.param(store, "hcamam.fusion.w"),
                        g.param(store, "hcamam.fusion.b")))


def hcamam_forward(
    g: Graph, store: ParamStore, cfg: ModelConfig, grid: np.ndarray, gl: np.ndarray, train: bool
) -> Node:
    """Full module over the (..., H, W, d_i) region grid and the
    (..., d_t + d_i) global features: residual extraction, both
    attentions, fusion vector."""
    x = g.constant(grid)
    x_f = hren_forward(g, store, cfg, x, train)
    y_mca = feeca_forward(g, store, x_f) if cfg.use_feeca else x_f
    y_msa = fmsa_forward(g, store, x_f) if cfg.use_fmsa else x_f
    return attention_fusion(g, store, y_mca, y_msa, gl)
