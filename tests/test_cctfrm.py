import copy
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from floodnet import autodiff, cctfrm
from floodnet.autodiff import ContractError, Graph
from floodnet.cctfrm import (
    DropoutMasks,
    cctfrm_forward,
    decoder_cascade,
    encoder,
    gated_downsample_block,
    reverse_feature_harmonization,
    transformer_encoder,
)
from floodnet.config import ConfigError, ModelConfig
from floodnet.data import generate_synthetic_dataset
from floodnet.gradcheck import check_gradients
from floodnet.layers import batch_norm, sinusoidal_positions
from floodnet.model import FloodNet
from floodnet.params import ParamStore

from conftest import make_tiny_config
from oracles import conv2d_loops, gated_block_chain, layer_norm_ref, maxpool2_scan, softmax_rows


def _store(cfg, seed=0):
    return FloodNet(cfg, ParamStore(seed)).store


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


# ---- gated block -----------------------------------------------------


def test_gated_block_zero_kernel_collapses():
    cfg = make_tiny_config(dropout=0.0)
    store = _store(cfg)
    store.entries["cctfrm.enc0.kernel"].value[:] = 0.0
    rng = np.random.default_rng(0)
    g = Graph()
    out = gated_downsample_block(
        g, store, "cctfrm.enc0", g.constant(rng.standard_normal((4, 4, 3))), 4, True, None
    )
    np.testing.assert_allclose(out.value, np.zeros((2, 2, 4)), atol=1e-12)


def test_gated_block_matches_scripted_oracle():
    cfg = make_tiny_config(dropout=0.0)
    store = _store(cfg, seed=2)
    kernel = np.random.default_rng(2).standard_normal((3, 3, 2, 4))
    store2 = ParamStore(2)
    store2.add("blk.kernel", (3, 3, 2, 4), init="zeros")
    store2.entries["blk.kernel"].value[:] = kernel
    x = np.random.default_rng(3).standard_normal((4, 4, 2))
    g = Graph()
    out = gated_downsample_block(g, store2, "blk", g.constant(x), 4, True, None)
    G = conv2d_loops(x, kernel)
    act = np.maximum(G * _sigmoid(G), 0.0)
    mu, var = act.mean(axis=(0, 1)), act.var(axis=(0, 1))
    bn = (act - mu) / np.sqrt(var + 1e-5)
    assert np.abs(out.value - maxpool2_scan(bn)).max() < 1e-10


def _gated_block_run(block, store, x, train, mask):
    """block's output, and the gradients of x, the kernel, gamma and beta
    through tanh and fixed weights; ParamStore grads start from zero."""
    store.zero_grad()
    g = Graph()
    xn = g.watch(g.constant(x))
    out = block(g, store, "blk", xn, 8, train, mask)
    weights = np.random.default_rng(4).standard_normal(out.shape)
    g.backward(g.reduce_sum(g.mul(g.tanh(out), g.constant(weights))))
    grads = {name: e.grad.copy() for name, e in store.entries.items()}
    return out.value, xn.grad, grads


@pytest.mark.parametrize("train, with_mask", [(True, False), (True, True), (False, False)])
def test_gated_block_equals_the_chain_of_single_ops(train, with_mask):
    """The fused block (one gated_conv_pool node) gives the chain's values and gradients of x, kernel, gamma and beta to
    1e-12 relative, and the same running buffers; in eval mode its forward
    is the chain's bit for bit."""
    rng = np.random.default_rng(6)
    x = rng.standard_normal((3, 8, 8, 4)) + np.array([0.0, 1.0, -1.0, 2.0])
    store = ParamStore(6)
    g = Graph(param_grads=False)
    gated_downsample_block(g, store, "blk", g.constant(x), 8, False, None)
    store.entries["blk.bn.gamma"].value[:] = rng.uniform(0.5, 1.5, 8)
    store.entries["blk.bn.beta"].value[:] = rng.standard_normal(8)
    store.buffers["blk.bn.running_mean"] = rng.standard_normal(8)
    store.buffers["blk.bn.running_var"] = rng.uniform(0.5, 2.0, 8)
    chain_store = copy.deepcopy(store)

    def masks():
        return DropoutMasks(np.random.default_rng(7), 0.3, (3, 8 * 8 * 8)) if with_mask else None

    out, dx, grads = _gated_block_run(gated_downsample_block, store, x, train, masks())
    # the chain multiplies by the float mask: the bool mask times its scale
    mask = masks().take((3, 8, 8, 8)) * masks().scale if with_mask else None
    c_out, c_dx, c_grads = _gated_block_run(gated_block_chain, chain_store, x, train, mask)
    if not train:
        np.testing.assert_array_equal(out, c_out)
    assert set(grads) == {"blk.kernel", "blk.bn.gamma", "blk.bn.beta"}
    for got, want in [(out, c_out), (dx, c_dx)] + [(grads[n], c_grads[n]) for n in grads]:
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    for name, buf in chain_store.buffers.items():
        np.testing.assert_allclose(store.buffers[name], buf, rtol=1e-12, atol=0)


def test_a_training_gated_block_records_conv_gate_normalization_and_pool():
    """Apart from its parameter leaves, a train-mode gated block with a
    dropout mask records exactly one node: the conv, the gate, the
    normalization and the pool as one gated_conv_pool."""
    store = ParamStore(0)
    masks = DropoutMasks(np.random.default_rng(0), 0.5, (2, 8 * 8 * 4))
    g = Graph()
    gated_downsample_block(g, store, "blk", g.constant(np.ones((2, 8, 8, 3))), 4, True, masks)
    tags = [n.tag for n in g.nodes[1:]]
    assert [t for t in tags if not t.startswith("param:")] == ["gated_conv_pool"]
    assert sorted(t for t in tags if t.startswith("param:")) == [
        "param:blk.bn.beta", "param:blk.bn.gamma", "param:blk.kernel"]


def test_a_training_gated_block_holds_neither_the_gated_nor_the_pre_pool_map():
    """After a train-mode block's forward, the tape holds what
    gated_conv_pool's rule reads: the gate's derivative, the normalized
    map, and the pooled map with its uint8 index; no bool map and not the
    conv output.  The conv output, the gated map or the pre-pool map would
    add a whole f64 map.  Forward plus backward peaks within that, the
    input gradient of the gate and one chunk budget for the conv's rule,
    which runs after the gate's rule has freed its chunk scratch."""
    B, H, W, C = 8, 64, 64, 8
    x = np.random.default_rng(14).standard_normal((B, H, W, 3))
    store = ParamStore(0)

    def run():
        masks = DropoutMasks(np.random.default_rng(1), 0.3, (B, H * W * C))
        g = Graph()
        xn = g.constant(x)
        tracemalloc.start()
        try:
            out = gated_downsample_block(g, store, "blk", xn, C, True, masks)
            held, _ = tracemalloc.get_traced_memory()
            g.backward(g.reduce_sum(out))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return held, peak

    run()  # adds the parameters and buffers
    held, peak = run()
    f64_map, pooled = B * H * W * C * 8, B * H * W * C * 8 // 4
    tape = 2 * f64_map + pooled + pooled // 8
    assert tape <= held <= tape + 2**16 < tape + f64_map, (held, tape)
    assert peak <= held + f64_map + autodiff.IM2COL_CHUNK_BYTES, (peak, held)


def test_an_inactive_gated_block_holds_only_the_pooled_map():
    """An eval block in a graph without sources records no rule, so after
    its forward the tape holds the pooled map alone, and the pooled map
    is, bit for bit, that of an active eval block.  The gate and
    normalization work in chunk-sized scratch beside the conv output,
    which the block lets go: the forward never holds two whole f64 maps
    and the pooled one."""
    B, H, W, C = 8, 64, 64, 8
    x = np.random.default_rng(15).standard_normal((B, H, W, 3))
    store = ParamStore(0)
    store.buffers["blk.bn.running_mean"] = np.random.default_rng(16).standard_normal(C)
    active = Graph()
    want = gated_downsample_block(active, store, "blk", active.constant(x), C, False, None)
    assert active.nodes[-1].bwd is not None
    g = Graph(param_grads=False)
    xn = g.constant(x)
    tracemalloc.start()
    try:
        out = gated_downsample_block(g, store, "blk", xn, C, False, None)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(n.bwd is None for n in g.nodes)
    f64_map = B * H * W * C * 8
    pooled = f64_map // 4
    assert pooled <= held <= pooled + 2**16, (held, pooled)
    assert peak < 2 * f64_map + pooled, peak
    assert out.value.tobytes() == want.value.tobytes()


# ---- encoder ---------------------------------------------------------


def test_encoder_large_plan_shape():
    cfg = ModelConfig(encoder_plan=(64, 128, 256, 512), transformer_depth=1)
    cfg.validate()
    store = ParamStore(0)
    g = Graph()
    out = encoder(g, store, cfg, g.constant(np.random.default_rng(4).random((64, 64, 3))),
                  train=False, masks=None)
    assert out.shape == (4, 4, 512)


@given(st.lists(st.sampled_from([2, 4]), min_size=1, max_size=3),
       st.lists(st.sampled_from([2, 4]), min_size=1, max_size=3),
       st.integers(1, 3), st.integers(1, 3))
def test_every_accepted_config_pools_even_maps(encoder_plan, decoder_plan, mh, mw):
    """validate accepts an image extent iff 2^len(encoder_plan) divides it,
    so every map the encoder pools is even: FloodNet(cfg) builds, and its
    blank forward pools each of them."""
    f = 2 ** len(encoder_plan)
    plans = dict(encoder_plan=tuple(encoder_plan), decoder_plan=tuple(decoder_plan))
    with pytest.raises(ConfigError):
        make_tiny_config(image_size=(f * mh + f // 2, f * mw), **plans)
    FloodNet(make_tiny_config(image_size=(f * mh, f * mw), **plans))


def test_encoder_single_block_shape():
    cfg = make_tiny_config(image_size=(4, 4), encoder_plan=(8,), decoder_plan=(8,),
                           transformer_heads=2)
    store = _store(cfg, seed=5)
    g = Graph()
    out = encoder(g, store, cfg, g.constant(np.random.default_rng(5).random((4, 4, 3))),
                  train=False, masks=None)
    assert out.shape == (2, 2, 8)


def test_encoder_equals_manual_chaining():
    cfg = make_tiny_config(dropout=0.0)
    store = _store(cfg, seed=6)
    x = np.random.default_rng(6).random((16, 16, 3))
    g = Graph()
    out = encoder(g, store, cfg, g.constant(x), train=False, masks=None)
    g2 = Graph()
    cur = g2.constant(x)
    for i, c_out in enumerate(cfg.encoder_plan):
        cur = gated_downsample_block(g2, store, f"cctfrm.enc{i}", cur, c_out, False, None)
    np.testing.assert_array_equal(out.value, cur.value)


# ---- transformer -----------------------------------------------------


def test_transformer_zero_weights_is_residual_only():
    cfg = make_tiny_config()
    store = _store(cfg, seed=7)
    for name in store.names():
        if name.startswith("cctfrm.tr"):
            store.entries[name].value[:] = 0.0
    d = cfg.d_model
    g = Graph()
    out = transformer_encoder(g, store, cfg, g.constant(np.zeros((4, d))))
    np.testing.assert_allclose(out.value, sinusoidal_positions(4, d), atol=1e-12)


def test_transformer_attention_rows_sum_to_one():
    """Each head's weights over the transformer's tokens sum to one: with v
    all ones, every output entry of Graph.attention is a row sum."""
    cfg = make_tiny_config()
    hh, ww = cfg.encoder_out_spatial()
    n, d = hh * ww, cfg.d_model
    q, k = np.random.default_rng(8).standard_normal((2, 3, n, d)) * 3.0
    out = Graph().attention(q, k, np.ones((3, n, d)), cfg.transformer_heads)
    assert out.shape == (3, n, d)
    assert np.abs(out.value - 1.0).max() < 1e-9


def test_transformer_depth_one_matches_layer_oracle():
    cfg = make_tiny_config(transformer_depth=1)
    store = _store(cfg, seed=9)
    d = cfg.d_model
    heads = cfg.transformer_heads
    x0 = np.random.default_rng(9).standard_normal((2, d))
    g = Graph()
    out = transformer_encoder(g, store, cfg, g.constant(x0))

    x = x0 + sinusoidal_positions(2, d)
    normed = layer_norm_ref(x)
    scale = 1.0 / np.sqrt(d / heads)
    outs = []
    # head h's projections are the h-th column blocks of the fused weights
    wq, wk, wv = (np.split(store.entries[f"cctfrm.tr0.{proj}"].value, heads, axis=-1)
                  for proj in ("wq", "wk", "wv"))
    for head in range(heads):
        q, k, v = normed @ wq[head], normed @ wk[head], normed @ wv[head]
        outs.append(softmax_rows(q @ k.T * scale) @ v)
    x = x + np.concatenate(outs, axis=1) @ store.entries["cctfrm.tr0.wo"].value
    normed = layer_norm_ref(x)
    hidden = np.maximum(
        normed @ store.entries["cctfrm.tr0.ff.w1"].value + store.entries["cctfrm.tr0.ff.b1"].value,
        0.0,
    )
    expected = x + hidden @ store.entries["cctfrm.tr0.ff.w2"].value + store.entries[
        "cctfrm.tr0.ff.b2"
    ].value
    assert np.abs(out.value - expected).max() < 1e-9


# ---- decoder cascade -------------------------------------------------


def test_cascade_single_stage_is_stage_output():
    cfg = make_tiny_config(decoder_plan=(4,), dropout=0.0)
    store = _store(cfg, seed=10)
    x = np.random.default_rng(10).standard_normal((4, 4, cfg.d_model))
    g = Graph()
    out = decoder_cascade(g, store, cfg, g.constant(x), False, None)
    g2 = Graph()
    stage = gated_downsample_block(g2, store, "cctfrm.dec0", g2.constant(x), 4, False, None, upsample=True)
    np.testing.assert_array_equal(out.value, stage.value)


def test_cascade_channel_count_default_plans():
    cfg = ModelConfig()
    assert cfg.cascade_channels() == 64 + 32 + 16 + 8 == 120


def test_cascade_matches_manual_composition():
    cfg = make_tiny_config(dropout=0.0)
    store = _store(cfg, seed=11)
    x = np.random.default_rng(11).standard_normal((4, 4, cfg.d_model))
    g = Graph()
    out = decoder_cascade(g, store, cfg, g.constant(x), False, None)
    g2 = Graph()
    cur = g2.constant(x)
    stages = []
    for i, c_out in enumerate(cfg.decoder_plan):
        cur = gated_downsample_block(g2, store, f"cctfrm.dec{i}", cur, c_out, False, None, upsample=True)
        stages.append(cur.value)
    np.testing.assert_array_equal(out.value, np.concatenate(stages, axis=2))


def test_feature_enhancement_preserves_spatial_extents():
    cfg = make_tiny_config(dropout=0.0)
    store = _store(cfg, seed=12)
    x = np.random.default_rng(12).standard_normal((4, 4, cfg.d_model))
    g = Graph()
    out = gated_downsample_block(g, store, "cctfrm.dec0", g.constant(x), cfg.decoder_plan[0],
                                 False, None, upsample=True)
    assert out.shape == (4, 4, cfg.decoder_plan[0])


# ---- harmonizer ------------------------------------------------------


def test_harmonizer_zero_input_algebra():
    cfg = make_tiny_config()
    store = _store(cfg, seed=13)
    c_t = cfg.cascade_channels()
    hh, ww = cfg.encoder_out_spatial()
    g = Graph()
    out = reverse_feature_harmonization(
        g, store, g.constant(np.zeros((hh, ww, c_t))),
        g.constant(np.zeros((16, 16, 3))), train=True,
    )
    # Y_sub = -sigmoid(0) = -0.5, gate = 0.5, alphas are 1 -> all -0.25
    np.testing.assert_allclose(out.value, np.full(cfg.d_r, -0.25), atol=1e-12)


def test_harmonizer_switch_off_case():
    cfg = make_tiny_config()
    store = _store(cfg, seed=14)
    store.entries["cctfrm.harm.alpha_sub"].value[:] = 0.0
    rng = np.random.default_rng(14)
    hh, ww = cfg.encoder_out_spatial()
    c_t = cfg.cascade_channels()
    y = rng.standard_normal((hh, ww, c_t))
    img = rng.random((16, 16, 3))
    g = Graph()
    out = reverse_feature_harmonization(g, store, g.constant(y), g.constant(img), train=True)
    # recompute gate and normalized cascade directly
    adapted = conv2d_loops(img, store.entries["cctfrm.adapter.kernel"].value)[::4, ::4]
    x_n = (adapted - adapted.mean(axis=(0, 1))) / np.sqrt(adapted.var(axis=(0, 1)) + 1e-5)
    y_n = (y - y.mean(axis=(0, 1))) / np.sqrt(y.var(axis=(0, 1)) + 1e-5)
    gate = _sigmoid(y_n + x_n)
    np.testing.assert_allclose(out.value, (gate * y_n).reshape(-1), atol=1e-10)


def test_harmonizer_matches_scripted_oracle():
    cfg = make_tiny_config()
    store = _store(cfg, seed=15)
    for name, v in (("beta", 0.7), ("g_cascade", 1.3), ("g_image", -0.4),
                    ("alpha_cascade", 0.9), ("alpha_sub", 1.1)):
        store.entries[f"cctfrm.harm.{name}"].value[:] = v
    rng = np.random.default_rng(15)
    hh, ww = cfg.encoder_out_spatial()
    c_t = cfg.cascade_channels()
    y = rng.standard_normal((hh, ww, c_t))
    img = rng.random((16, 16, 3))
    g = Graph()
    out = reverse_feature_harmonization(g, store, g.constant(y), g.constant(img), train=True)
    adapted = conv2d_loops(img, store.entries["cctfrm.adapter.kernel"].value)[::4, ::4]
    x_n = (adapted - adapted.mean(axis=(0, 1))) / np.sqrt(adapted.var(axis=(0, 1)) + 1e-5)
    y_n = (y - y.mean(axis=(0, 1))) / np.sqrt(y.var(axis=(0, 1)) + 1e-5)
    y_sub = 0.7 * x_n - _sigmoid(y_n)
    gate = _sigmoid(1.3 * y_n + (-0.4) * x_n)
    expected = gate * (0.9 * y_n + 1.1 * y_sub)
    assert np.abs(out.value - expected.reshape(-1)).max() < 1e-10


@pytest.mark.parametrize("factor, image_shape", [(16, (2, 64, 64, 3)), (2, (2, 8, 12, 3)), (1, (5, 7, 3))],
                         ids=["default", "non_square", "unbatched"])
def test_harmonizer_adapts_the_image_by_a_conv_kept_at_its_grid(factor, image_shape, monkeypatch):
    """The adapted features that the harmonizer normalizes are the 3x3
    same-padded conv of the image kept at every factor-th row and column,
    16 being the default config's; the windows at the image's edges
    included.  check_gradients passes on the adapter's kernel."""
    rng = np.random.default_rng(factor)
    H, W = image_shape[-3:-1]
    image = rng.random(image_shape)
    y = rng.standard_normal(image_shape[:-3] + (H // factor, W // factor, 4))
    weights = rng.standard_normal(y.shape).reshape(y.shape[:-3] + (-1,))  # the output is flattened
    store = ParamStore(factor)
    adapted = []

    def recording_batch_norm(g, x, store, name, train):
        if name == "cctfrm.harm.bn_img":
            adapted.append(x.value)
        return batch_norm(g, x, store, name, train)

    monkeypatch.setattr(cctfrm, "batch_norm", recording_batch_norm)

    def build(g):
        out = reverse_feature_harmonization(g, store, g.constant(y), g.constant(image), train=True)
        return g.reduce_sum(g.mul(g.tanh(out), g.constant(weights)))

    build(Graph())
    kernel = store.entries["cctfrm.adapter.kernel"].value
    want = [conv2d_loops(im, kernel)[::factor, ::factor] for im in image.reshape(-1, H, W, 3)]
    assert adapted[0].shape == y.shape
    assert np.abs(adapted[0] - np.reshape(want, y.shape)).max() <= 1e-12
    check_gradients(build, store, names=["cctfrm.adapter.kernel"], n_coords=8)


def test_cctfrm_forward_shape_and_gate_range(tiny_config):
    store = _store(tiny_config, seed=16)
    img = np.random.default_rng(16).random((16, 16, 3))
    g = Graph()
    out = cctfrm_forward(g, store, tiny_config, img, train=False, dropout_rng=None)
    assert out.shape == (tiny_config.d_r,)
    assert np.all(np.isfinite(out.value))


# ---- dropout masks ---------------------------------------------------


def _samples(cfg, n, seed=0):
    return generate_synthetic_dataset(n, seed, image_size=cfg.image_size, n_tokens=cfg.n_t)


def test_eval_forward_ignores_the_dropout_generator():
    """Eval mode draws no masks: cctfrm_forward and FloodNet.forward give the
    same values with any generator or none."""
    cfg = make_tiny_config(dropout=0.5)
    model = FloodNet(cfg, ParamStore(1))
    sample = _samples(cfg, 1, seed=1)[0]
    outs, probs = [], []
    for rng in (None, np.random.default_rng(0), np.random.default_rng(1)):
        outs.append(cctfrm_forward(Graph(), model.store, cfg, sample.image, False, rng).value)
        probs.append(model.forward(Graph(), sample, train=False, dropout_rng=rng)[0].value)
    for out, prob in zip(outs[1:], probs[1:]):
        np.testing.assert_array_equal(out, outs[0])
        np.testing.assert_array_equal(prob, probs[0])


def test_dropout_masks_are_the_next_slices_of_one_uniform_block(monkeypatch):
    """Each mask is the bool u >= rate for the next slice u of one (B, n)
    uniform block, or of one (n,) row for an unbatched sample, in block
    order enc0 .. dec_last, and its scale is 1 / (1 - rate); row b serves
    sample b.  The masks are views of one read-only bool block."""
    cfg = make_tiny_config(dropout=0.5)
    model = FloodNet(cfg)
    blocks, handed = [], []
    real_block = cctfrm.gated_downsample_block

    def block(g, store, name, *rest, **kw):
        blocks.append(name)
        return real_block(g, store, name, *rest, **kw)

    class Recording(DropoutMasks):
        def take(self, shape):
            mask = super().take(shape)
            handed.append((blocks[-1], mask, self.scale, self.keep))
            return mask

    monkeypatch.setattr(cctfrm, "gated_downsample_block", block)
    monkeypatch.setattr(cctfrm, "DropoutMasks", Recording)
    # the activation of each gated block of the tiny config, per sample
    shapes = {"cctfrm.enc0": (16, 16, 4), "cctfrm.enc1": (8, 8, 8),
              "cctfrm.dec0": (8, 8, 8), "cctfrm.dec1": (8, 8, 4)}
    for lead, sample in (((2,), _samples(cfg, 2)), ((), _samples(cfg, 1)[0])):
        handed.clear()
        model.forward(Graph(), sample, train=True, dropout_rng=np.random.default_rng(9))
        assert [name for name, *_ in handed] == list(shapes)
        u = np.random.default_rng(9).random(lead + (sum(np.prod(s) for s in shapes.values()),))
        used = 0
        for name, mask, scale, keep in handed:
            size = np.prod(shapes[name])
            assert mask.shape == lead + shapes[name]
            assert mask.dtype == bool and scale == 1.0 / 0.5
            assert keep is handed[0][3] and not keep.flags.writeable and not mask.flags.writeable
            assert np.shares_memory(mask, keep)
            for b in np.ndindex(lead):
                want = (u[b][used:used + size].reshape(shapes[name]) >= 0.5) / 0.5
                np.testing.assert_array_equal(mask[b] * scale, want)
            used += size
        assert used == u.shape[-1]


def test_a_training_forward_hands_swish_gate_bool_masks(monkeypatch):
    """Every gated block's dropout mask, which gated_conv_pool applies
    after the swish gate, is one byte an entry, of the conv output's
    shape, with the scale 1 / (1 - rate)."""
    cfg = make_tiny_config(dropout=0.5)
    model = FloodNet(cfg)  # before the patch: building runs an eval forward
    handed = []
    real_op = Graph.gated_conv_pool

    def gated_conv_pool(self, x, kernel, affine, mask=None, scale=1.0, stats=None, upsample=False):
        node, moments = real_op(self, x, kernel, affine, mask, scale, stats, upsample)
        *lead, H, W, C = node.shape  # the conv output's extents are twice the pooled
        handed.append((tuple(lead) + (2 * H, 2 * W, C), mask, scale))
        return node, moments

    monkeypatch.setattr(Graph, "gated_conv_pool", gated_conv_pool)
    model.forward(Graph(), _samples(cfg, 2), train=True, dropout_rng=np.random.default_rng(3))
    assert len(handed) == len(cfg.encoder_plan) + len(cfg.decoder_plan)
    for shape, mask, scale in handed:
        assert mask.dtype == bool and mask.shape == shape and scale == 1.0 / 0.5


def test_a_mask_past_the_drawn_row_raises_contract_error():
    """take refuses a mask longer than what is left of each sample's row,
    a program fault, not numpy's reshape error, and uses none of it."""
    masks = DropoutMasks(np.random.default_rng(0), 0.5, (2, 10))
    masks.take((2, 2, 2, 2))
    with pytest.raises(ContractError, match="overruns"):
        masks.take((2, 1, 1, 3))
    assert masks.used == 8
    assert masks.take((2, 1, 1, 2)).shape == (2, 1, 1, 2)


@pytest.mark.parametrize("extra, match", [(1, "used 2304 of 2305"), (-1, "overruns")])
def test_a_draw_that_the_gated_blocks_do_not_match_raises_contract_error(extra, match, monkeypatch):
    """A training forward whose draw is longer than its gated blocks'
    masks raises once the last block has run; one that is shorter raises
    at the block that overruns it."""
    cfg = make_tiny_config(dropout=0.5)
    model = FloodNet(cfg)
    sizes = cctfrm._gated_conv_sizes
    monkeypatch.setattr(cctfrm, "_gated_conv_sizes", lambda *a: sizes(*a) + extra)
    with pytest.raises(ContractError, match=match):
        model.forward(Graph(), _samples(cfg, 2), train=True, dropout_rng=np.random.default_rng(0))


def test_a_training_forward_without_its_generator_raises_before_recording():
    cfg = make_tiny_config(dropout=0.2)
    model = FloodNet(cfg)
    store = model.store
    values = {name: e.value.tobytes() for name, e in store.entries.items()}
    buffers = {name: b.tobytes() for name, b in store.buffers.items()}
    sample = _samples(cfg, 1)[0]
    g = Graph()
    with pytest.raises(ContractError, match="dropout_rng") as err:
        model.forward(g, sample, train=True)
    assert "\n" not in str(err.value)
    assert g.nodes == []
    assert {name: e.value.tobytes() for name, e in store.entries.items()} == values
    assert {name: b.tobytes() for name, b in store.buffers.items()} == buffers
    for overrides in ({"dropout": 0.0}, {"use_cctfrm": False}):
        other = FloodNet(make_tiny_config(**{"dropout": 0.2, **overrides}))
        p, _ = other.forward(Graph(), sample, train=True)
        assert np.all(np.isfinite(p.value))
