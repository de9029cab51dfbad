import numpy as np

from floodnet.autodiff import Graph
from floodnet.hcamam import (
    attention_fusion,
    feeca_forward,
    fmsa_forward,
    hcamam_forward,
    hren_forward,
)
from floodnet.model import FloodNet
from floodnet.params import ParamStore

from conftest import make_tiny_config
from oracles import conv2d_loops, layer_norm_ref


def _store(cfg, seed=0):
    return FloodNet(cfg, ParamStore(seed)).store


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


# ---- HREN ------------------------------------------------------------


def test_hren_zero_kernels_identity_residual():
    cfg = make_tiny_config()  # d_i == hren_channels == 4, residual is x itself
    store = _store(cfg)
    for name in ("group_kernel", "pre_point", "point_kernel"):
        store.entries[f"hcamam.hren.{name}"].value[:] = 0.0
    rng = np.random.default_rng(0)
    x = rng.standard_normal((3, 3, 4))
    g = Graph()
    out = hren_forward(g, store, cfg, g.constant(x), train=True)
    np.testing.assert_allclose(out.value, x, atol=1e-12)


def test_hren_zero_input_zero_shift():
    cfg = make_tiny_config()
    store = _store(cfg, seed=1)
    g = Graph()
    out = hren_forward(g, store, cfg, g.constant(np.zeros((3, 3, 4))), train=True)
    np.testing.assert_allclose(out.value, np.zeros((3, 3, 4)), atol=1e-12)


def test_hren_matches_composed_conv_oracle():
    cfg = make_tiny_config()
    store = _store(cfg, seed=2)
    rng = np.random.default_rng(2)
    x = rng.standard_normal((4, 4, 4))
    g = Graph()
    out = hren_forward(g, store, cfg, g.constant(x), train=True)
    grouped = conv2d_loops(x, store.entries["hcamam.hren.group_kernel"].value, groups=2)
    pre = conv2d_loops(x, store.entries["hcamam.hren.pre_point"].value)
    mu = pre.mean(axis=(0, 1))
    var = pre.var(axis=(0, 1))
    bn = (pre - mu) / np.sqrt(var + 1e-5)
    pointed = conv2d_loops(bn, store.entries["hcamam.hren.point_kernel"].value)
    assert np.abs(out.value - (grouped + pointed + x)).max() < 1e-10


# ---- FEECA -----------------------------------------------------------


def _feeca_oracle(x, store):
    C = x.shape[2]
    gap = x.mean(axis=(0, 1))
    w = store.entries["hcamam.feeca.conv1d.w"].value
    b = store.entries["hcamam.feeca.conv1d.b"].value
    z = np.concatenate([[0.0], gap, [0.0]])
    attn = w[0] * z[:C] + w[1] * z[1 : C + 1] + w[2] * z[2 : C + 2] + b
    y_proj = attn @ store.entries["hcamam.feeca.proj.w"].value + store.entries[
        "hcamam.feeca.proj.b"
    ].value
    x_freq = np.abs(np.fft.fft2(x, axes=(0, 1)))
    sff = store.entries["hcamam.feeca.scale"].value * x_freq
    y_att = _sigmoid((sff * y_proj[None, None, :]).sum(axis=2, keepdims=True))
    gate = layer_norm_ref(y_att.reshape(-1)).reshape(y_att.shape)
    return gate * layer_norm_ref(x)


def test_feeca_zero_scale_collapses_gate():
    cfg = make_tiny_config()
    store = _store(cfg, seed=3)
    store.entries["hcamam.feeca.scale"].value[:] = 0.0
    rng = np.random.default_rng(3)
    x = rng.standard_normal((4, 4, 4))
    g = Graph()
    xn = g.constant(x)
    out = feeca_forward(g, store, xn, g.fft2d_magnitude(xn))
    np.testing.assert_allclose(out.value, np.zeros((4, 4, 4)), atol=1e-12)


def test_feeca_zero_input():
    cfg = make_tiny_config()
    store = _store(cfg, seed=4)
    g = Graph()
    xn = g.constant(np.zeros((4, 4, 4)))
    out = feeca_forward(g, store, xn, g.fft2d_magnitude(xn))
    np.testing.assert_allclose(out.value, np.zeros((4, 4, 4)), atol=1e-12)


def test_feeca_matches_scripted_oracle():
    cfg = make_tiny_config()
    store = _store(cfg, seed=5)
    rng = np.random.default_rng(5)
    x = rng.standard_normal((4, 4, 4))
    g = Graph()
    xn = g.constant(x)
    out = feeca_forward(g, store, xn, g.fft2d_magnitude(xn))
    assert np.abs(out.value - _feeca_oracle(x, store)).max() < 1e-9


# ---- FMSA ------------------------------------------------------------


def _fmsa_oracle(x, store, a_spatial=None):
    H, W, C = x.shape
    if a_spatial is None:
        z = sum(conv2d_loops(x, store.entries[f"hcamam.fmsa.k{k}"].value) for k in (3, 5, 7))
        a_spatial = _sigmoid(z)
    f_freq = np.abs(np.fft.fft2(x, axes=(0, 1)))
    a_agg = a_spatial * f_freq
    mu = f_freq.mean(axis=(0, 1))
    var = ((f_freq - mu) ** 2).mean(axis=(0, 1))
    f_norm = (f_freq - mu) / np.sqrt(var + 1e-5)
    a_proj = ((a_agg * f_norm).reshape(H * W, C) @ store.entries["hcamam.fmsa.proj.w"].value
              ).reshape(H, W, C)
    local = conv2d_loops(a_proj, store.entries["hcamam.fmsa.spatial"].value, groups=C)
    reduced = np.maximum(local.reshape(H * W, C) @ store.entries["hcamam.fmsa.reduce.w"].value, 0.0)
    a_refined = _sigmoid(reduced @ store.entries["hcamam.fmsa.expand.w"].value).reshape(H, W, C)
    gain = (store.entries["hcamam.fmsa.w_att"].value * a_proj) * (
        store.entries["hcamam.fmsa.w_refined"].value * a_refined
    )
    return x * gain


def test_fmsa_zero_kernels_give_half_spatial_gate():
    cfg = make_tiny_config()
    store = _store(cfg, seed=6)
    for k in (3, 5, 7):
        store.entries[f"hcamam.fmsa.k{k}"].value[:] = 0.0
    rng = np.random.default_rng(6)
    x = rng.standard_normal((4, 4, 4))
    g = Graph()
    xn = g.constant(x)
    out = fmsa_forward(g, store, xn, g.fft2d_magnitude(xn))
    expected = _fmsa_oracle(x, store, a_spatial=np.full((4, 4, 1), 0.5))
    assert np.abs(out.value - expected).max() < 1e-9


def test_fmsa_zero_input():
    cfg = make_tiny_config()
    store = _store(cfg, seed=7)
    g = Graph()
    xn = g.constant(np.zeros((4, 4, 4)))
    out = fmsa_forward(g, store, xn, g.fft2d_magnitude(xn))
    np.testing.assert_allclose(out.value, np.zeros((4, 4, 4)), atol=1e-12)


def test_fmsa_matches_scripted_oracle():
    cfg = make_tiny_config()
    store = _store(cfg, seed=8)
    rng = np.random.default_rng(8)
    x = rng.standard_normal((4, 4, 4))
    g = Graph()
    xn = g.constant(x)
    out = fmsa_forward(g, store, xn, g.fft2d_magnitude(xn))
    assert np.abs(out.value - _fmsa_oracle(x, store)).max() < 1e-9


# ---- fusion ----------------------------------------------------------


def test_fusion_concatenation_order():
    store = ParamStore(0)
    store.add("hcamam.fusion.w", (4, 4), init="zeros")
    store.entries["hcamam.fusion.w"].value[:] = np.eye(4)
    store.add("hcamam.fusion.b", (4,), init="zeros")
    a, b, c, d = 0.3, 0.7, 0.2, 0.9
    g = Graph()
    out = attention_fusion(
        g, store,
        g.constant(np.full((1, 1, 1), a)), g.constant(np.full((1, 1, 1), b)),
        np.array([c, d]), 4,
    )
    np.testing.assert_allclose(out.value, [a, b, c, d], atol=1e-15)


def test_fusion_zero_inputs_zero_bias():
    cfg = make_tiny_config()
    store = _store(cfg, seed=9)
    g = Graph()
    z = g.constant(np.zeros((2, 2, 4)))
    gl = np.zeros(cfg.d_t + cfg.d_i)
    out = attention_fusion(g, store, z, z, gl, cfg.d_fused)
    np.testing.assert_array_equal(out.value, np.zeros(cfg.d_fused))


def test_fusion_matches_concat_matmul_oracle():
    cfg = make_tiny_config()
    store = _store(cfg, seed=10)
    rng = np.random.default_rng(10)
    y_mca = rng.standard_normal((2, 2, 4))
    y_msa = rng.standard_normal((2, 2, 4))
    gl = rng.standard_normal(cfg.d_t + cfg.d_i)
    g = Graph()
    out = attention_fusion(g, store, g.constant(y_mca), g.constant(y_msa), gl, cfg.d_fused)
    flat = np.concatenate([np.concatenate([y_mca, y_msa], axis=2).reshape(-1), gl])
    expected = np.maximum(
        flat @ store.entries["hcamam.fusion.w"].value + store.entries["hcamam.fusion.b"].value, 0.0
    )
    assert np.abs(out.value - expected).max() < 1e-12


def test_hcamam_forward_shape(tiny_config):
    store = _store(tiny_config, seed=11)
    rng = np.random.default_rng(11)
    grid = rng.standard_normal((2, 2, tiny_config.d_i))
    gl = rng.standard_normal(tiny_config.d_t + tiny_config.d_i)
    g = Graph()
    out = hcamam_forward(g, store, tiny_config, grid, gl, train=False)
    assert out.shape == (tiny_config.d_fused,)


def test_hcamam_forward_takes_one_spectrum():
    """FEECA and FMSA read one fft2d_mag node of the extracted map, and a
    forward with neither takes no spectrum."""
    rng = np.random.default_rng(12)
    cfg = make_tiny_config()
    grid = rng.standard_normal((2, 2, 2, cfg.d_i))
    gl = rng.standard_normal((2, cfg.d_t + cfg.d_i))
    for feeca, fmsa, spectra in ((True, True, 1), (True, False, 1), (False, True, 1), (False, False, 0)):
        cfg = make_tiny_config(use_feeca=feeca, use_fmsa=fmsa)
        g = Graph()
        hcamam_forward(g, _store(cfg, seed=12), cfg, grid, gl, train=True)
        assert [node.tag for node in g.nodes].count("fft2d_mag") == spectra
