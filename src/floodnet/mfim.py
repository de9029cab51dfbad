"""Multimodal feature interaction: stub encoders, feature projection,
self-gating, coarse/medium/fine self-attention, contextual gating,
bidirectional cross-modal attention and joint fusion.

Features may carry leading batch axes; every step works on the trailing
(tokens or regions, channels) axes.
"""

from __future__ import annotations

import functools

import numpy as np

from .autodiff import Graph, Node
from .config import ModelConfig
from .layers import attention, layer_norm, linear, mlp, self_attention
from .params import ParamStore


class InputError(ValueError):
    pass


TEXT_VOCAB = 64
MAX_TOKENS = 512  # the most token ids one sample may hold


def level_heads(h: int) -> dict[str, int]:
    """Head count of each attention level, in the order the levels run."""
    return {"coarse": h // 2, "medium": h, "fine": 2 * h}


# ---------------------------------------------------------------------
# stub encoders (deterministic stand-ins for pretrained encoders)
# ---------------------------------------------------------------------

def _seeded_table(seed: int, key: int, shape: tuple) -> np.ndarray:
    """A read-only standard normal array of `shape` drawn from (seed, key)."""
    table = np.random.default_rng([seed, key]).standard_normal(shape)
    table.flags.writeable = False
    return table


@functools.lru_cache(maxsize=16)
def _token_table(d_t: int, seed: int) -> np.ndarray:
    """The stub text encoder's (TEXT_VOCAB, d_t) embedding table, built
    once per (d_t, seed) and read-only."""
    return _seeded_table(seed, 0x7E47, (TEXT_VOCAB, d_t))


@functools.lru_cache(maxsize=16)
def _image_projection(d_i: int, seed: int) -> np.ndarray:
    """The stub image encoder's (3, d_i) map, built once per (d_i, seed)
    and read-only."""
    return _seeded_table(seed, 0x1147, (3, d_i))


def stub_text_encoder(token_ids, d_t: int, seed: int) -> np.ndarray:
    """Token id k, in [0, TEXT_VOCAB), maps to row k of a seeded random
    embedding table.  token_ids is (n_t,), or (..., n_t) for a batch;
    returns (..., n_t, d_t).  A whole-valued float id is accepted; a bool
    or a fractional id raises."""
    ids = np.asarray(token_ids)
    if ids.size == 0:
        raise InputError("token list must be non-empty")
    if ids.shape[-1] > MAX_TOKENS:
        raise InputError(f"at most {MAX_TOKENS} tokens supported, got {ids.shape[-1]}")
    if ids.dtype.kind not in "iu" or not isinstance(token_ids, np.ndarray):
        # numpy casts a bool among ints to 0 or 1, so each id is checked as given
        for t in np.asarray(token_ids, dtype=object).flat:
            if isinstance(t, (bool, np.bool_)) or not float(t).is_integer():
                raise InputError(f"token id {t!r} is not an integer")
    outside = ids[(ids < 0) | (ids >= TEXT_VOCAB)]
    if outside.size:
        raise InputError(f"token id {outside[0]} is outside the vocabulary [0, {TEXT_VOCAB})")
    return _token_table(d_t, seed)[ids.astype(np.int64)]


def stub_image_encoder(raw_image, grid: tuple[int, int], d_i: int, seed: int) -> np.ndarray:
    """Patch-average the image, then one fixed seeded linear map 3 -> d_i.
    raw_image is (H_img, W_img, 3), or (..., H_img, W_img, 3) for a batch;
    returns the (..., H, W, d_i) region grid."""
    img = np.asarray(raw_image, dtype=np.float64)
    H, W = grid
    if img.ndim < 3 or img.shape[-1] != 3:
        raise InputError(f"raw image must be (H,W,3), got {img.shape}")
    *lead, h_img, w_img, _ = img.shape
    if h_img % H or w_img % W:
        raise InputError(f"image extents {(h_img, w_img)} not divisible by grid {grid}")
    ph, pw = h_img // H, w_img // W
    # two single-axis sums: numpy's mean over both axes at once is several times slower
    patches = img.reshape(tuple(lead) + (H, ph, W, pw, 3)).sum(axis=-4).sum(axis=-2) / (ph * pw)
    return patches @ _image_projection(d_i, seed)


def extract_global_features(tokens: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Token mean concatenated with spatial mean over grid regions:
    (..., n_t, d_t) and (..., H, W, d_i) give (..., d_t + d_i)."""
    return np.concatenate([tokens.mean(axis=-2), grid.mean(axis=(-3, -2))], axis=-1)


def _channel_split(d_se: int) -> tuple[int, int, int]:
    """Split d_se into three near-equal channel groups."""
    base = d_se // 3
    rem = d_se - 3 * base
    return (base + (rem > 0), base + (rem > 1), base)


# ---------------------------------------------------------------------
# forward pieces
# ---------------------------------------------------------------------

def _lstm_direction(g: Graph, store: ParamStore, prefix: str, x: Node, hid: int, reverse: bool) -> Node:
    """One LSTM direction over the rows of x (..., n, d): {prefix}.w
    (d, 4*hid), u (hid, 4*hid) and b (4*hid,) hold gates i, f, g, o side by
    side, each weight's gate blocks drawn as {prefix}.wi, ..., uo would be
    drawn alone; x @ w for every row in one matmul, and the recurrence in
    one `Graph.lstm` node."""
    def gates(kind: str) -> tuple[str, ...]:
        return tuple(f"{prefix}.{kind}{gate}" for gate in "ifgo")

    w = g.param(store, f"{prefix}.w", (x.shape[-1], 4 * hid), blocks=gates("w"))
    u = g.param(store, f"{prefix}.u", (hid, 4 * hid), blocks=gates("u"))
    b = g.param(store, f"{prefix}.b", (4 * hid,), "zeros")
    return g.lstm(g.matmul(x, w), u, b, reverse)


def prepare_local_features(
    g: Graph, store: ParamStore, cfg: ModelConfig, tokens: np.ndarray, grid: np.ndarray
) -> tuple[Node, Node]:
    """Project both modalities into the shared space and enrich them.

    tokens is (..., n_t, d_t) and grid (..., H, W, d_i), as the stub
    encoders return them.  Text: linear d_t -> d_se, then a single-layer
    BiLSTM (hidden d_se/2 per direction, concatenated).  Image: linear
    d_i -> d_se per region, convs of size 3/5/7 concatenated channelwise,
    mixed back to d_se, flattened to (H * W, d_se).
    """
    d_se = cfg.d_se
    hid = d_se // 2
    ht = linear(g, store, "mfim.text_proj", g.constant(tokens), d_se)
    ht_basis = g.concat([_lstm_direction(g, store, f"mfim.bilstm.{d}", ht, hid, d == "bwd")
                         for d in ("fwd", "bwd")], axis=-1)

    *lead, H, W, d_i = grid.shape
    lead = tuple(lead)
    flat = linear(g, store, "mfim.img_proj", g.constant(grid.reshape(lead + (H * W, d_i))), d_se)
    regions = g.reshape(flat, lead + (H, W, d_se))
    scales = [g.conv2d(regions, g.param(store, f"mfim.ms.k{k}", (k, k, d_se, c)))
              for k, c in zip((3, 5, 7), _channel_split(d_se))]
    mixed = g.concat(scales, axis=-1)
    mixed = linear(g, store, "mfim.ms.mix", g.reshape(mixed, lead + (H * W, d_se)), d_se)
    return ht_basis, mixed


def self_gate(g: Graph, store: ParamStore, prefix: str, x: Node) -> Node:
    """x * sigmoid(x @ w + b), w and b the square linear layer {prefix}."""
    return g.mul(x, g.sigmoid(linear(g, store, prefix, x, x.shape[-1])))


def attention_pipeline(
    g: Graph, store: ParamStore, cfg: ModelConfig, modality: str, x: Node
) -> Node:
    """Coarse -> medium -> fine, each level consuming the previous output."""
    out = x
    for level, heads in level_heads(cfg.h).items():
        out = self_attention(g, store, f"mfim.att.{modality}.{level}", out, heads)
    return out


def contextual_gating(g: Graph, store: ParamStore, prefix: str, att: Node, h_raw: Node) -> Node:
    """sigmoid(layer_norm(h_raw @ w + b)) * att, w and b the square linear
    layer {prefix}."""
    return g.mul(g.sigmoid(layer_norm(g, linear(g, store, prefix, h_raw, h_raw.shape[-1]))), att)


def cross_modal_attention(g: Graph, store: ParamStore, gt: Node, gi: Node) -> tuple[Node, Node]:
    """Single-head bidirectional cross-attention, scale 1/sqrt(d_se)."""
    d = gt.shape[-1]
    t, i = ({proj: g.param(store, f"mfim.cross.{m}.{proj}", (d, d)) for proj in ("wq", "wk", "wv")}
            for m in "ti")
    att_t2i = attention(g, gt, gi, t["wq"], i["wk"], i["wv"], 1)
    att_i2t = attention(g, gi, gt, i["wq"], t["wk"], t["wv"], 1)
    return att_t2i, att_i2t


def joint_fusion(g: Graph, store: ParamStore, att_t2i: Node, att_i2t: Node) -> Node:
    """Concat rows, self-sigmoid refinement, mean-pool, 2-layer perceptron."""
    a = g.concat([att_t2i, att_i2t], axis=-2)
    refined = g.mul(a, g.sigmoid(a))
    d = a.shape[-1]
    return mlp(g, store, "mfim.mln", g.reduce_mean(refined, axes=-2), d, d)


def mfim_forward(
    g: Graph, store: ParamStore, cfg: ModelConfig, tokens: np.ndarray, grid: np.ndarray
) -> Node:
    """Full module forward over the encoded (..., n_t, d_t) tokens and
    (..., H, W, d_i) region grid; returns the fused d_se feature vector."""
    ht, hi = prepare_local_features(g, store, cfg, tokens, grid)
    if cfg.use_hcgam:
        ht_g = self_gate(g, store, "mfim.gate.t", ht)
        hi_g = self_gate(g, store, "mfim.gate.i", hi)
        att_t = attention_pipeline(g, store, cfg, "t", ht_g)
        att_i = attention_pipeline(g, store, cfg, "i", hi_g)
        gt = contextual_gating(g, store, "mfim.ctx.t", att_t, ht)
        gi = contextual_gating(g, store, "mfim.ctx.i", att_i, hi)
    else:
        gt, gi = ht, hi
    att_t2i, att_i2t = cross_modal_attention(g, store, gt, gi)
    return joint_fusion(g, store, att_t2i, att_i2t)
