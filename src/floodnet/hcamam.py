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
from .layers import batch_norm, layer_norm, linear
from .params import ParamStore


def hren_forward(g: Graph, store: ParamStore, cfg: ModelConfig, x: Node, train: bool) -> Node:
    """Groupwise conv + pointwise conv over a normalized pointwise-pre map,
    plus a residual path (1x1 projection when channel counts differ)."""
    d_i, C, G, K = x.shape[-1], cfg.hren_channels, cfg.hren_groups, cfg.hren_kernel
    group_kernel = g.param(store, "hcamam.hren.group_kernel", (K, K, d_i // G, C))
    grouped = g.conv2d(x, group_kernel, groups=G)
    pre = g.conv2d(x, g.param(store, "hcamam.hren.pre_point", (1, 1, d_i, C)))
    pointed = g.conv2d(batch_norm(g, pre, store, "hcamam.hren.bn", train),
                       g.param(store, "hcamam.hren.point_kernel", (1, 1, C, C)))
    agp = g.add(grouped, pointed)
    if d_i != C:
        res = g.conv2d(x, g.param(store, "hcamam.hren.residual", (1, 1, d_i, C)))
    else:
        res = x
    return g.add(agp, res)


def _channel_band(g: Graph, store: ParamStore, C: int) -> Node:
    """The (C, C) matrix of a same-padded length-3 convolution along the
    channel axis, gap @ band: band[p, q] = w[p - q + 1], the three taps
    times constant shift matrices."""
    shifts = np.stack([np.eye(C, k=1 - j) for j in range(3)]).reshape(3, C * C)
    return g.reshape(g.matmul(g.param(store, "hcamam.feeca.conv1d.w", (3,)), shifts), (C, C))


def feeca_forward(g: Graph, store: ParamStore, x: Node, x_freq: Node) -> Node:
    """Frequency-enhanced channel attention over an (..., H, W, C) map and
    its spectrum x_freq = g.fft2d_magnitude(x)."""
    C = x.shape[-1]
    gap = g.reduce_mean(x, axes=(-3, -2))
    attn = g.add(g.matmul(gap, _channel_band(g, store, C)),
                 g.param(store, "hcamam.feeca.conv1d.b", (1,), "zeros"))
    y_proj = linear(g, store, "hcamam.feeca.proj", attn, C)
    sff = g.mul(g.param(store, "hcamam.feeca.scale", (1, 1, C), "ones"), x_freq)
    weighted = g.mul(sff, g.reshape(y_proj, x.shape[:-3] + (1, 1, C)))
    y_att = g.sigmoid(g.reduce_sum(weighted, axes=-1, keepdims=True))
    # the gate is standardized over each whole map, x over its channels
    return g.mul(g.standardize(y_att, (-3, -2, -1)), layer_norm(g, x))


def fmsa_forward(g: Graph, store: ParamStore, x: Node, f_freq: Node) -> Node:
    """Frequency-modulated spatial attention over an (..., H, W, C) map and
    its spectrum f_freq = g.fft2d_magnitude(x)."""
    C = x.shape[-1]
    z_sum = None
    for k in (3, 5, 7):
        z = g.conv2d(x, g.param(store, f"hcamam.fmsa.k{k}", (k, k, C, 1)))
        z_sum = z if z_sum is None else g.add(z_sum, z)
    a_spatial = g.sigmoid(z_sum)
    a_agg = g.mul(a_spatial, f_freq)
    f_norm = g.standardize(f_freq, (-3, -2))  # per channel
    # the channel mixes below treat every pixel as a row
    a_proj = g.matmul(g.mul(a_agg, f_norm), g.param(store, "hcamam.fmsa.proj.w", (C, C)))
    local = g.conv2d(a_proj, g.param(store, "hcamam.fmsa.spatial", (7, 7, 1, C)), groups=C)
    reduced = g.relu(g.matmul(local, g.param(store, "hcamam.fmsa.reduce.w", (C, C // 4))))
    a_refined = g.sigmoid(g.matmul(reduced, g.param(store, "hcamam.fmsa.expand.w", (C // 4, C))))
    gain = g.mul(g.mul(g.param(store, "hcamam.fmsa.w_att", (1,), "ones"), a_proj),
                 g.mul(g.param(store, "hcamam.fmsa.w_refined", (1,), "ones"), a_refined))
    return g.mul(x, gain)


def attention_fusion(
    g: Graph, store: ParamStore, y_mca: Node, y_msa: Node, gl: np.ndarray, d_fused: int
) -> Node:
    """Channel-concat the two attention maps, flatten, append the
    (..., d_t + d_i) global features, and project through the global
    contextual dense layer."""
    y_concat = g.concat([y_mca, y_msa], axis=-1)
    flat = g.reshape(y_concat, y_concat.shape[:-3] + (math.prod(y_concat.shape[-3:]),))
    y_final = g.concat([flat, g.constant(gl)], axis=-1)
    return g.relu(linear(g, store, "hcamam.fusion", y_final, d_fused))


def hcamam_forward(
    g: Graph, store: ParamStore, cfg: ModelConfig, grid: np.ndarray, gl: np.ndarray, train: bool
) -> Node:
    """Full module over the (..., H, W, d_i) region grid and the
    (..., d_t + d_i) global features: residual extraction, both
    attentions, which read one spectrum of the extracted map, fusion vector."""
    x = g.constant(grid)
    x_f = hren_forward(g, store, cfg, x, train)
    spectrum = g.fft2d_magnitude(x_f) if cfg.use_feeca or cfg.use_fmsa else None
    y_mca = feeca_forward(g, store, x_f, spectrum) if cfg.use_feeca else x_f
    y_msa = fmsa_forward(g, store, x_f, spectrum) if cfg.use_fmsa else x_f
    return attention_fusion(g, store, y_mca, y_msa, gl, cfg.d_fused)
