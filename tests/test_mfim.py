import numpy as np
import pytest

from floodnet.autodiff import Graph
from floodnet.config import ModelConfig
from floodnet.layers import self_attention
from floodnet.mfim import (
    InputError,
    _lstm_direction,
    _token_table,
    contextual_gating,
    cross_modal_attention,
    extract_global_features,
    joint_fusion,
    level_heads,
    mfim_forward,
    prepare_local_features,
    self_gate,
    stub_image_encoder,
    stub_text_encoder,
)
from floodnet.model import FloodNet, _Layout
from floodnet.params import ParamStore

from conftest import make_tiny_config
from oracles import attention_loops, layer_norm_ref, lstm_unrolled


# ---- stub encoders ---------------------------------------------------


def test_text_encoder_deterministic():
    a = stub_text_encoder([3, 1, 4], d_t=6, seed=9)
    b = stub_text_encoder([3, 1, 4], d_t=6, seed=9)
    np.testing.assert_array_equal(a, b)


def test_text_encoder_distinct_ids_differ():
    a = stub_text_encoder([0], d_t=6, seed=9)
    b = stub_text_encoder([1], d_t=6, seed=9)
    assert np.abs(a - b).max() > 0


def test_text_encoder_matches_table_row():
    k = 17
    out = stub_text_encoder([k], d_t=6, seed=5)
    np.testing.assert_array_equal(out[0], _token_table(6, 5)[k])


def test_text_encoder_rejects_empty_and_oversized():
    with pytest.raises(InputError):
        stub_text_encoder([], d_t=4, seed=0)
    with pytest.raises(InputError):
        stub_text_encoder(np.zeros(513, dtype=int), d_t=4, seed=0)


@pytest.mark.parametrize("ids,needle", [
    ([3.7, 5], "token id 3.7 is not an integer"),
    ([True, 5], "token id True is not an integer"),
    (np.array([2.0, 0.5]), "token id 0.5 is not an integer"),
])
def test_text_encoder_rejects_fractional_and_boolean_ids(ids, needle):
    with pytest.raises(InputError, match=needle):
        stub_text_encoder(ids, d_t=4, seed=0)


def test_text_encoder_accepts_whole_valued_floats():
    np.testing.assert_array_equal(stub_text_encoder(np.array([3.0, 5.0]), d_t=4, seed=0),
                                  stub_text_encoder([3, 5], d_t=4, seed=0))


def test_image_encoder_constant_image_uniform_grid():
    img = np.full((8, 8, 3), 0.4)
    out = stub_image_encoder(img, grid=(2, 2), d_i=4, seed=0)
    rows = out.reshape(4, 4)
    assert np.abs(rows - rows[0]).max() < 1e-12


def test_image_encoder_matches_loop_oracle():
    rng = np.random.default_rng(0)
    img = rng.random((8, 12, 3))
    out = stub_image_encoder(img, grid=(2, 3), d_i=5, seed=7)
    proj = np.random.default_rng([7, 0x1147]).standard_normal((3, 5))
    expected = np.zeros((2, 3, 5))
    for gi in range(2):
        for gj in range(3):
            patch = img[gi * 4 : (gi + 1) * 4, gj * 4 : (gj + 1) * 4]
            expected[gi, gj] = patch.mean(axis=(0, 1)) @ proj
    assert np.abs(out - expected).max() < 1e-12


def test_global_features_singleton_verbatim():
    t = np.array([[1.0, 2.0]])
    i = np.array([[[3.0, 4.0]]])
    np.testing.assert_array_equal(extract_global_features(t, i), [1.0, 2.0, 3.0, 4.0])


def test_global_features_matches_mean_oracle():
    rng = np.random.default_rng(1)
    t = rng.standard_normal((5, 3))
    i = rng.standard_normal((2, 2, 4))
    out = extract_global_features(t, i)
    expected = np.concatenate([t.mean(axis=0), i.mean(axis=(0, 1))])
    assert np.abs(out - expected).max() < 1e-12


# ---- BiLSTM ----------------------------------------------------------


def _lstm_store(cfg, seed=0):
    return FloodNet(cfg, ParamStore(seed)).store


def _gate_dicts(store, prefix):
    w = {k: store.entries[f"{prefix}.w{k}"].value for k in "ifgo"}
    u = {k: store.entries[f"{prefix}.u{k}"].value for k in "ifgo"}
    b = {k: store.entries[f"{prefix}.b{k}"].value for k in "ifgo"}
    return w, u, b


def test_lstm_zero_inputs_zero_weights():
    cfg = make_tiny_config()
    store = _lstm_store(cfg)
    for name in store.names():
        if name.startswith("mfim.bilstm"):
            store.entries[name].value[:] = 0.0
    g = Graph()
    out = _lstm_direction(g, store, "mfim.bilstm.fwd", g.constant(np.zeros((3, cfg.d_se))), cfg.d_se // 2, False)
    np.testing.assert_array_equal(out.value, np.zeros((3, cfg.d_se // 2)))


def test_lstm_length_one_equals_single_step():
    cfg = make_tiny_config()
    store = _lstm_store(cfg, seed=3)
    hid = cfg.d_se // 2
    rng = np.random.default_rng(2)
    x = rng.standard_normal((1, cfg.d_se))
    g = Graph()
    out = _lstm_direction(g, store, "mfim.bilstm.fwd", g.constant(x), hid, False)
    w, u, b = _gate_dicts(store, "mfim.bilstm.fwd")
    expected = lstm_unrolled([x[0]], w, u, b, hid)[0]
    assert np.abs(out.value[0] - expected).max() < 1e-10


def test_lstm_length_three_matches_unrolled_oracle():
    """The backward direction runs from the last row to the first and hands
    its states back in input order."""
    cfg = make_tiny_config()
    store = _lstm_store(cfg, seed=4)
    hid = cfg.d_se // 2
    rng = np.random.default_rng(3)
    xs = rng.standard_normal((3, cfg.d_se))
    g = Graph()
    out = _lstm_direction(g, store, "mfim.bilstm.bwd", g.constant(xs), hid, True)
    w, u, b = _gate_dicts(store, "mfim.bilstm.bwd")
    expected = lstm_unrolled(list(xs[::-1]), w, u, b, hid)[::-1]
    for got, exp in zip(out.value, expected):
        assert np.abs(got - exp).max() < 1e-10


def test_bilstm_reads_the_tokens_forwards_and_backwards():
    """The text rows are each token's forward state beside its backward
    state, the backward direction starting from the last token."""
    cfg = make_tiny_config()
    store = _lstm_store(cfg, seed=17)
    hid = cfg.d_se // 2
    rng = np.random.default_rng(17)
    tokens = rng.standard_normal((cfg.n_t, cfg.d_t))
    g = Graph()
    ht, _ = prepare_local_features(g, store, cfg, tokens, rng.standard_normal(cfg.grid + (cfg.d_i,)))
    x = tokens @ store.entries["mfim.text_proj.w"].value + store.entries["mfim.text_proj.b"].value
    fwd = lstm_unrolled(list(x), *_gate_dicts(store, "mfim.bilstm.fwd"), hid)
    bwd = lstm_unrolled(list(x[::-1]), *_gate_dicts(store, "mfim.bilstm.bwd"), hid)[::-1]
    assert np.abs(ht.value - np.concatenate([fwd, bwd], axis=-1)).max() < 1e-10


@pytest.mark.parametrize("batch", [(), (2,)])
def test_mfim_records_one_lstm_node_per_direction_whatever_the_token_count(batch):
    """The BiLSTM records no node per token: one `lstm` node per direction,
    no `narrow`, and as many nodes for 3 tokens as for 6."""
    counts = []
    for n_t in (3, 6):
        cfg = make_tiny_config(n_t=n_t)
        store = _lstm_store(cfg, seed=16)
        rng = np.random.default_rng(16)
        g = Graph()
        mfim_forward(g, store, cfg, rng.standard_normal(batch + (n_t, cfg.d_t)),
                     rng.standard_normal(batch + cfg.grid + (cfg.d_i,)))
        tags = [node.tag for node in g.nodes]
        assert tags.count("lstm") == 2 and "narrow" not in tags
        counts.append(len(tags))
    assert counts[0] == counts[1]


# ---- gating ----------------------------------------------------------


def _gate_store(w, b):
    """A store whose square linear layer "gate" holds w and b."""
    store = ParamStore(0)
    for name, value in (("gate.w", w), ("gate.b", b)):
        store.add(name, value.shape, "zeros")
        store.entries[name].value[:] = value
    return store


def test_self_gate_zero_input():
    g = Graph()
    out = self_gate(g, _gate_store(np.ones((3, 3)), np.zeros(3)), "gate",
                    g.constant(np.zeros((2, 3))))
    np.testing.assert_array_equal(out.value, np.zeros((2, 3)))


def test_self_gate_neutral_weights():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((3, 4))
    g = Graph()
    out = self_gate(g, _gate_store(np.zeros((4, 4)), np.zeros(4)), "gate", g.constant(x))
    np.testing.assert_allclose(out.value, 0.5 * x, atol=1e-15)


def test_self_gate_matches_formula_oracle():
    rng = np.random.default_rng(5)
    x, w, b = rng.standard_normal((3, 4)), rng.standard_normal((4, 4)), rng.standard_normal(4)
    g = Graph()
    out = self_gate(g, _gate_store(w, b), "gate", g.constant(x))
    expected = x / (1.0 + np.exp(-(x @ w + b)))
    assert np.abs(out.value - expected).max() < 1e-12


def test_contextual_gating_neutral_and_zero_cases():
    rng = np.random.default_rng(6)
    att = rng.standard_normal((3, 4))
    h_raw = rng.standard_normal((3, 4))
    g = Graph()
    out = contextual_gating(g, _gate_store(np.zeros((4, 4)), np.zeros(4)), "gate",
                            g.constant(att), g.constant(h_raw))
    np.testing.assert_allclose(out.value, 0.5 * att, atol=1e-12)
    out0 = contextual_gating(g, _gate_store(rng.standard_normal((4, 4)), np.zeros(4)), "gate",
                             g.constant(np.zeros((3, 4))), g.constant(h_raw))
    np.testing.assert_array_equal(out0.value, np.zeros((3, 4)))


def test_contextual_gating_matches_formula_oracle():
    rng = np.random.default_rng(7)
    att, h_raw = rng.standard_normal((3, 4)), rng.standard_normal((3, 4))
    w, b = rng.standard_normal((4, 4)), rng.standard_normal(4)
    g = Graph()
    out = contextual_gating(g, _gate_store(w, b), "gate", g.constant(att), g.constant(h_raw))
    gate = 1.0 / (1.0 + np.exp(-layer_norm_ref(h_raw @ w + b)))
    assert np.abs(out.value - gate * att).max() < 1e-12


# ---- attention levels ------------------------------------------------


def test_head_dimension_arithmetic_large_scale():
    assert level_heads(8) == {"coarse": 4, "medium": 8, "fine": 16}
    layout = FloodNet(ModelConfig(d_se=512, h=8), _Layout(0)).store
    for level, width in (("coarse", 128), ("medium", 64), ("fine", 32)):
        assert layout.entries[f"mfim.att.t.{level}.head0.wq"].value.shape == (512, width)


def test_attention_singleton_sequence():
    cfg = make_tiny_config(d_se=4)
    store = _lstm_store(cfg, seed=8)
    rng = np.random.default_rng(8)
    x = rng.standard_normal((1, 4))
    g = Graph()
    out = self_attention(g, store, "mfim.att.t.coarse", g.constant(x), level_heads(cfg.h)["coarse"])
    v = x @ store.entries["mfim.att.t.coarse.head0.wv"].value
    expected = v @ store.entries["mfim.att.t.coarse.wo"].value
    assert np.abs(out.value - expected).max() < 1e-12


@pytest.mark.parametrize("level,scale", [("coarse", 2.0), ("medium", np.sqrt(2.0)), ("fine", 1.0)])
def test_attention_matches_loop_oracle(level, scale):
    # d_se=4, h=2: coarse scale sqrt(2*4/2)=2, medium sqrt(4/2), fine sqrt(4/4)
    cfg = make_tiny_config(d_se=4)
    store = _lstm_store(cfg, seed=9)
    rng = np.random.default_rng(9)
    x = rng.standard_normal((3, 4))
    n_heads = level_heads(cfg.h)[level]
    g = Graph()
    out = self_attention(g, store, f"mfim.att.i.{level}", g.constant(x), n_heads)
    heads = []
    for head in range(n_heads):
        hp = f"mfim.att.i.{level}.head{head}"
        heads.append(attention_loops(
            x,
            store.entries[f"{hp}.wq"].value,
            store.entries[f"{hp}.wk"].value,
            store.entries[f"{hp}.wv"].value,
            1.0 / scale,
        ))
    expected = np.concatenate(heads, axis=1) @ store.entries[f"mfim.att.i.{level}.wo"].value
    assert np.abs(out.value - expected).max() < 1e-10


# ---- cross-modal attention ------------------------------------------


def test_cross_modal_singletons_return_other_value_row():
    cfg = make_tiny_config()
    store = _lstm_store(cfg, seed=10)
    rng = np.random.default_rng(10)
    gt = rng.standard_normal((1, cfg.d_se))
    gi = rng.standard_normal((1, cfg.d_se))
    g = Graph()
    t2i, i2t = cross_modal_attention(g, store, g.constant(gt), g.constant(gi))
    np.testing.assert_allclose(
        t2i.value, gi @ store.entries["mfim.cross.i.wv"].value, atol=1e-12
    )
    np.testing.assert_allclose(
        i2t.value, gt @ store.entries["mfim.cross.t.wv"].value, atol=1e-12
    )


def test_cross_modal_identical_queries_give_identical_rows():
    cfg = make_tiny_config()
    store = _lstm_store(cfg, seed=11)
    rng = np.random.default_rng(11)
    row = rng.standard_normal(cfg.d_se)
    gt = np.tile(row, (3, 1))
    gi = rng.standard_normal((4, cfg.d_se))
    g = Graph()
    t2i, _ = cross_modal_attention(g, store, g.constant(gt), g.constant(gi))
    assert np.abs(t2i.value - t2i.value[0]).max() < 1e-12


def test_cross_modal_matches_loop_oracle():
    cfg = make_tiny_config()
    store = _lstm_store(cfg, seed=12)
    rng = np.random.default_rng(12)
    gt = rng.standard_normal((2, cfg.d_se))
    gi = rng.standard_normal((3, cfg.d_se))
    g = Graph()
    t2i, _ = cross_modal_attention(g, store, g.constant(gt), g.constant(gi))
    scale = 1.0 / np.sqrt(cfg.d_se)
    q = gt @ store.entries["mfim.cross.t.wq"].value
    k = gi @ store.entries["mfim.cross.i.wk"].value
    v = gi @ store.entries["mfim.cross.i.wv"].value
    expected = np.zeros_like(t2i.value)
    for i in range(2):
        logits = np.array([q[i] @ k[j] * scale for j in range(3)])
        w = np.exp(logits - logits.max())
        w /= w.sum()
        for j in range(3):
            expected[i] += w[j] * v[j]
    assert np.abs(t2i.value - expected).max() < 1e-10


# ---- joint fusion ----------------------------------------------------


def test_joint_fusion_zero_inputs_zero_biases():
    cfg = make_tiny_config()
    store = _lstm_store(cfg, seed=13)
    g = Graph()
    z = g.constant(np.zeros((2, cfg.d_se)))
    out = joint_fusion(g, store, z, z)
    np.testing.assert_array_equal(out.value, np.zeros(cfg.d_se))


def test_joint_fusion_matches_composition_oracle():
    cfg = make_tiny_config()
    store = _lstm_store(cfg, seed=14)
    rng = np.random.default_rng(14)
    a = rng.standard_normal((2, cfg.d_se))
    b = rng.standard_normal((3, cfg.d_se))
    g = Graph()
    out = joint_fusion(g, store, g.constant(a), g.constant(b))
    stacked = np.concatenate([a, b], axis=0)
    refined = stacked / (1.0 + np.exp(-stacked))
    pooled = refined.mean(axis=0)
    hidden = np.maximum(
        pooled @ store.entries["mfim.mln.w1"].value + store.entries["mfim.mln.b1"].value, 0.0
    )
    expected = hidden @ store.entries["mfim.mln.w2"].value + store.entries["mfim.mln.b2"].value
    assert np.abs(out.value - expected).max() < 1e-12


def test_mfim_forward_shape_and_determinism(tiny_config):
    store = _lstm_store(tiny_config, seed=15)
    t = stub_text_encoder([1, 2, 3, 4], tiny_config.d_t, tiny_config.seed)
    img = stub_image_encoder(
        np.random.default_rng(0).random((16, 16, 3)), tiny_config.grid,
        tiny_config.d_i, tiny_config.seed,
    )
    a = mfim_forward(Graph(), store, tiny_config, t, img)
    b = mfim_forward(Graph(), store, tiny_config, t, img)
    assert a.shape == (tiny_config.d_se,)
    np.testing.assert_array_equal(a.value, b.value)
