"""Acceptance gate: one test per release criterion, tolerances pinned."""

import itertools
import time

import numpy as np
import pytest

from floodnet.autodiff import Graph
from floodnet.checkpoint import load_checkpoint, save_checkpoint
from floodnet.config import ModelConfig
from floodnet.data import generate_synthetic_dataset, split_dataset
from floodnet.gradcheck import TOL, check_gradients
from floodnet.hcamam import hcamam_forward
from floodnet.cctfrm import cctfrm_forward
from floodnet.metrics import compute_metrics, log_loss, mcnemar_test
from floodnet.layers import self_attention
from floodnet.mfim import (
    extract_global_features,
    level_heads,
    mfim_forward,
    stub_image_encoder,
    stub_text_encoder,
)
from floodnet.model import FloodNet, _Layout
from floodnet.params import AdamWConfig, ParamStore, adamw_step
from floodnet.training import bce_loss, evaluate, train

from conftest import make_tiny_config
from oracles import (
    adamw_reference,
    attention_loops,
    binom_two_sided,
    conv2d_loops,
    dft2_magnitude_quadratic,
    lstm_unrolled,
    matmul_loops,
    maxpool2_scan,
    softmax_rows,
)

GRAD_TOL = 1e-4
GRAD_COORDS = 20


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def _sample_inputs(cfg, seed=0):
    sample = generate_synthetic_dataset(2, seed, 0.0, cfg.image_size, cfg.n_t)[0]
    text = stub_text_encoder(sample.tokens, cfg.d_t, cfg.seed)
    img = stub_image_encoder(sample.image, cfg.grid, cfg.d_i, cfg.seed)
    return sample, text, img


def test_criterion_1_gradient_suite():
    start = time.time()
    assert TOL == GRAD_TOL  # every check_gradients call below gates on it
    cfg = make_tiny_config(dropout=0.0)
    sample, text, img = _sample_inputs(cfg)
    gl = extract_global_features(text, img)

    store = ParamStore(101)
    check_gradients(
        lambda g: g.reduce_sum(g.tanh(mfim_forward(g, store, cfg, text, img))),
        store, n_coords=GRAD_COORDS, seed=1,
    )

    store = ParamStore(102)
    check_gradients(
        lambda g: g.reduce_sum(g.tanh(hcamam_forward(g, store, cfg, img, gl, False))),
        store, n_coords=GRAD_COORDS, seed=2,
    )

    store = ParamStore(103)
    check_gradients(
        lambda g: g.reduce_sum(
            g.tanh(cctfrm_forward(g, store, cfg, sample.image, False, None))
        ),
        store, n_coords=GRAD_COORDS, seed=3,
    )

    model = FloodNet(cfg, store=ParamStore(104))

    def build_full(g):
        _, logit = model.forward(g, sample, train=False)
        return bce_loss(g, logit, sample.label)

    check_gradients(build_full, model.store, n_coords=GRAD_COORDS, seed=4)
    assert time.time() - start < 300.0


def test_criterion_2_oracle_suite():
    rng = np.random.default_rng(200)

    a, b = rng.standard_normal((5, 7)), rng.standard_normal((7, 3))
    g = Graph()
    assert np.abs(g.matmul(g.constant(a), g.constant(b)).value - matmul_loops(a, b)).max() < 1e-12

    x = rng.standard_normal((6, 6, 4))
    k = rng.standard_normal((3, 3, 2, 4))
    g = Graph()
    got = g.conv2d(g.constant(x), g.constant(k), groups=2).value
    assert np.abs(got - conv2d_loops(x, k, groups=2)).max() < 1e-10

    x = rng.standard_normal((5, 7, 2))
    g = Graph()
    got = g.fft2d_magnitude(g.constant(x)).value
    assert np.abs(got - dft2_magnitude_quadratic(x)).max() < 1e-9

    x = rng.standard_normal((8, 8, 3))
    g = Graph()
    np.testing.assert_array_equal(g.maxpool2(g.constant(x)).value, maxpool2_scan(x))

    # BiLSTM direction against the unrolled per-gate oracle
    from floodnet.mfim import _lstm_direction

    cfg = make_tiny_config()
    store = ParamStore(201)
    hid = cfg.d_se // 2
    xs = rng.standard_normal((3, cfg.d_se))
    g = Graph()
    out = _lstm_direction(g, store, "mfim.bilstm.fwd", g.constant(xs), hid, False)
    w = {c: store.entries[f"mfim.bilstm.fwd.w{c}"].value for c in "ifgo"}
    u = {c: store.entries[f"mfim.bilstm.fwd.u{c}"].value for c in "ifgo"}
    bb = {c: store.entries[f"mfim.bilstm.fwd.b{c}"].value for c in "ifgo"}
    for got_h, exp_h in zip(out.value, lstm_unrolled(list(xs), w, u, bb, hid)):
        assert np.abs(got_h - exp_h).max() < 1e-10

    # each attention level against explicit QK^T/softmax/V loops
    for level, scale in (("coarse", np.sqrt(2.0 * cfg.d_se / cfg.h)),
                         ("medium", np.sqrt(cfg.d_se / cfg.h)),
                         ("fine", np.sqrt(cfg.d_se / (2.0 * cfg.h)))):
        n_heads = level_heads(cfg.h)[level]
        x = rng.standard_normal((3, cfg.d_se))
        g = Graph()
        got = self_attention(g, store, f"mfim.att.t.{level}", g.constant(x), n_heads).value
        heads = []
        for head in range(n_heads):
            hp = f"mfim.att.t.{level}.head{head}"
            heads.append(attention_loops(
                x, store.entries[f"{hp}.wq"].value, store.entries[f"{hp}.wk"].value,
                store.entries[f"{hp}.wv"].value, 1.0 / scale,
            ))
        expected = np.concatenate(heads, axis=1) @ store.entries[
            f"mfim.att.t.{level}.wo"
        ].value
        assert np.abs(got - expected).max() < 1e-10

    # frequency channel/spatial attention and the harmonizer, scripted
    from test_hcamam import _feeca_oracle, _fmsa_oracle
    from floodnet.hcamam import feeca_forward, fmsa_forward
    from floodnet.cctfrm import reverse_feature_harmonization

    store_h = ParamStore(202)
    x = rng.standard_normal((4, 4, cfg.hren_channels))
    g = Graph()
    xn = g.constant(x)
    assert np.abs(feeca_forward(g, store_h, xn, g.fft2d_magnitude(xn)).value
                  - _feeca_oracle(x, store_h)).max() < 1e-9
    g = Graph()
    xn = g.constant(x)
    assert np.abs(fmsa_forward(g, store_h, xn, g.fft2d_magnitude(xn)).value
                  - _fmsa_oracle(x, store_h)).max() < 1e-9

    store_c = ParamStore(203)
    hh, ww = cfg.encoder_out_spatial()
    y = rng.standard_normal((hh, ww, cfg.cascade_channels()))
    img = rng.random((cfg.image_size[0], cfg.image_size[1], 3))
    g = Graph()
    got = reverse_feature_harmonization(
        g, store_c, g.constant(y), g.constant(img), train=True
    ).value
    factor = cfg.image_size[0] // hh
    adapted = conv2d_loops(img, store_c.entries["cctfrm.adapter.kernel"].value)[
        ::factor, ::factor
    ]
    x_n = (adapted - adapted.mean(axis=(0, 1))) / np.sqrt(adapted.var(axis=(0, 1)) + 1e-5)
    y_n = (y - y.mean(axis=(0, 1))) / np.sqrt(y.var(axis=(0, 1)) + 1e-5)
    y_sub = x_n - _sigmoid(y_n)  # beta initialized to 1
    expected = _sigmoid(y_n + x_n) * (y_n + y_sub)
    assert np.abs(got - expected.reshape(-1)).max() < 1e-10

    # BCE, AdamW, metrics
    p, y = 0.73, 1
    g = Graph()
    assert abs(bce_loss(g, g.constant([np.log(p / (1 - p))]), y).value[0] + np.log(p)) < 1e-12

    opt = AdamWConfig(learning_rate=0.01, weight_decay=0.02)
    store = ParamStore(0)
    store.add("w", (1,), init="zeros")
    store.entries["w"].value[:] = 1.0
    grads = []
    for _ in range(10):
        gval = store.entries["w"].value[0]
        grads.append(gval)
        store.entries["w"].grad[:] = gval
        adamw_step(store, opt)
    expected = adamw_reference(1.0, grads, 0.01, opt.beta1, opt.beta2, opt.epsilon, 0.02)
    assert abs(store.entries["w"].value[0] - expected) < 1e-10

    y_true = rng.integers(0, 2, 30)
    y_pred = rng.integers(0, 2, 30)
    r = compute_metrics(y_true, y_pred)
    tp = np.sum((y_true == 1) & (y_pred == 1))
    fp = np.sum((y_true == 0) & (y_pred == 1))
    fn = np.sum((y_true == 1) & (y_pred == 0))
    assert abs(r.precision - tp / (tp + fp)) < 1e-12
    assert abs(r.recall - tp / (tp + fn)) < 1e-12


def test_criterion_3_shape_and_normalization_invariants():
    rng = np.random.default_rng(300)
    g = Graph()
    # one head whose values are the identity returns the attention weights
    q, k = rng.standard_normal((6, 9)), rng.standard_normal((9, 9))
    rows = g.attention(q, k, np.eye(9), 1).value
    assert np.abs(rows - softmax_rows(q @ k.T / 3.0)).max() <= 1e-12
    assert np.abs(rows.sum(axis=1) - 1.0).max() <= 1e-9

    gates = g.sigmoid(g.constant(rng.standard_normal((4, 4, 3)) * 10)).value
    assert np.all((gates > 0.0) & (gates < 1.0))

    cfg = make_tiny_config(dropout=0.0)
    from floodnet.cctfrm import gated_downsample_block

    store = ParamStore(301)
    x = rng.standard_normal((4, 4, cfg.d_model))
    g = Graph()
    out = gated_downsample_block(g, store, "cctfrm.dec0", g.constant(x), cfg.decoder_plan[0],
                                 False, None, g.upsample_conv2d)
    assert out.shape[:2] == (4, 4)

    assert level_heads(8) == {"coarse": 4, "medium": 8, "fine": 16}
    layout = FloodNet(ModelConfig(d_se=512, h=8), _Layout(0)).store
    for level, width in (("coarse", 128), ("medium", 64), ("fine", 32)):
        assert layout.entries[f"mfim.att.t.{level}.head0.wq"].value.shape == (512, width)


@pytest.mark.slow
def test_criterion_4_learning_smoke_test():
    start = time.time()
    cfg = ModelConfig()  # n=200, seed 42, d_se=64, encoder plan (8,16,32,64)
    samples = generate_synthetic_dataset(
        cfg.n_samples, cfg.seed, cfg.difficulty, cfg.image_size, cfg.n_t
    )
    train_set, val_set = split_dataset(samples, cfg.val_fraction, cfg.seed)
    model = FloodNet(cfg)
    history = train(
        model, train_set, val_set, epochs=50,
        stop_fn=lambda r: r["train_accuracy"] >= 0.95 and r["val"]["accuracy"] >= 0.90,
    )
    final = history[-1]
    assert final["train_accuracy"] >= 0.95
    assert final["val"]["accuracy"] >= 0.90
    assert len(history) <= 50
    assert time.time() - start < 900.0

    # overfit a single sample
    cfg1 = ModelConfig(n_samples=2, batch_size=1)
    one = generate_synthetic_dataset(2, cfg1.seed, 0.0, cfg1.image_size, cfg1.n_t)[:1]
    model1 = FloodNet(cfg1)
    hist1 = train(model1, one, [], epochs=200, stop_fn=lambda r: r["train_loss"] < 0.01)
    assert hist1[-1]["train_loss"] < 0.01
    assert len(hist1) <= 200


TOGGLES = ("use_mfim", "use_hcamam", "use_cctfrm", "use_hcgam", "use_feeca", "use_fmsa")


def _ablation_accuracy(seed, epochs=3, n=40, **overrides):
    cfg = make_tiny_config(n_samples=n, difficulty=0.5, seed=seed, **overrides)
    samples = generate_synthetic_dataset(
        cfg.n_samples, cfg.seed, cfg.difficulty, cfg.image_size, cfg.n_t
    )
    train_set, val_set = split_dataset(samples, cfg.val_fraction, cfg.seed)
    model = FloodNet(cfg)
    history = train(model, train_set, val_set, epochs=epochs)
    return history[-1]["val"]["accuracy"]


@pytest.mark.slow
def test_criterion_5_ablation_structural_and_directional():
    # structural: every single and pairwise toggle trains one epoch and evaluates
    for off in list(itertools.combinations(TOGGLES, 1)) + list(
        itertools.combinations(TOGGLES, 2)
    ):
        acc = _ablation_accuracy(0, epochs=1, n=8, **{t: False for t in off})
        assert 0.0 <= acc <= 1.0

    # directional: full model mean accuracy over 3 seeds is >= the ablated
    # variant's for at least 4 of the 6 single ablations (ties count)
    seeds = (0, 1, 2)
    full = np.mean([_ablation_accuracy(s) for s in seeds])
    wins = 0
    for toggle in TOGGLES:
        ablated = np.mean([_ablation_accuracy(s, **{toggle: False}) for s in seeds])
        wins += full >= ablated - 1e-12
    assert wins >= 4


def test_criterion_6_determinism_and_persistence(tmp_path):
    cfg = make_tiny_config(n_samples=10)

    def run():
        samples = generate_synthetic_dataset(
            cfg.n_samples, cfg.seed, cfg.difficulty, cfg.image_size, cfg.n_t
        )
        train_set, val_set = split_dataset(samples, cfg.val_fraction, cfg.seed)
        model = FloodNet(cfg, store=ParamStore(cfg.seed))
        history = train(model, train_set, val_set, epochs=2)
        return model, val_set, history

    model_a, _, hist_a = run()
    model_b, val_set, hist_b = run()
    assert hist_a == hist_b  # identical eval traces for identical (config, seed)

    path = str(tmp_path / "model.ckpt")
    save_checkpoint(path, model_b.store)
    loaded = load_checkpoint(path)
    for name in model_b.store.names():
        np.testing.assert_array_equal(loaded.entries[name].value,
                                      model_b.store.entries[name].value)
    for name in model_b.store.buffers:
        np.testing.assert_array_equal(loaded.buffers[name], model_b.store.buffers[name])

    restored = FloodNet(cfg, store=loaded)
    _, report = evaluate(restored, val_set)
    assert report.to_dict() == hist_b[-1]["val"]


def test_criterion_7_statistics_closed_forms():
    y = np.zeros(10, dtype=int)
    stat, p = mcnemar_test(y, np.ones(10, dtype=int), np.zeros(10, dtype=int))
    assert stat == 0
    assert abs(p - 2 * 0.5**10) < 1e-15
    assert abs(p - 0.001953125) < 1e-12
    assert binom_two_sided(0, 10) == p

    # TP=3 FP=1 FN=2 TN=4 hand formulas
    y_true = np.array([1, 1, 1, 1, 1, 0, 0, 0, 0, 0])
    y_pred = np.array([1, 1, 1, 0, 0, 1, 0, 0, 0, 0])
    r = compute_metrics(y_true, y_pred)
    assert abs(r.mcc - (3 * 4 - 1 * 2) / np.sqrt(4 * 5 * 5 * 6)) < 1e-12
    pe = (4 * 5 + 6 * 5) / 100
    assert abs(r.kappa - (0.7 - pe) / (1 - pe)) < 1e-12
    probs = np.array([0.9, 0.8, 0.7, 0.4, 0.3, 0.6, 0.2, 0.2, 0.1, 0.1])
    expected = -np.mean(
        y_true * np.log(probs) + (1 - y_true) * np.log(1 - probs)
    )
    assert abs(log_loss(y_true, probs) - expected) < 1e-12
