import json

import numpy as np
import pytest

from floodnet.autodiff import Graph
from floodnet.data import generate_synthetic_dataset
from floodnet.gradcam import grad_cam, heatmap_from_activation, write_pgm, write_sidecar
from floodnet.model import FloodNet

from conftest import make_tiny_config


def test_zero_gradient_gives_all_zero_heatmap():
    activation = np.ones((4, 4, 3))
    heat = heatmap_from_activation(activation, np.zeros_like(activation))
    np.testing.assert_array_equal(heat, np.zeros((4, 4)))


def test_heatmap_values_normalized():
    rng = np.random.default_rng(0)
    heat = heatmap_from_activation(rng.standard_normal((5, 5, 4)),
                                   rng.standard_normal((5, 5, 4)))
    assert heat.min() >= 0.0 and heat.max() <= 1.0


def test_single_pixel_positive_gradient_peaks_there():
    activation = np.zeros((4, 4, 1))
    activation[2, 1, 0] = 3.0
    gradient = np.full((4, 4, 1), 1.0)
    # weight = mean gradient = 1; cam = relu(activation); peak at (2, 1)
    heat = heatmap_from_activation(activation, gradient)
    assert heat[2, 1] == 1.0
    assert heat.sum() == 1.0


def test_grad_cam_on_model_layers():
    cfg = make_tiny_config()
    model = FloodNet(cfg)
    sample = generate_synthetic_dataset(1, 0, 0.0, cfg.image_size, cfg.n_t)[0]
    heat = grad_cam(model, sample, "enc0")
    assert heat.shape == (8, 8)
    assert heat.min() >= 0.0 and heat.max() <= 1.0
    with pytest.raises(KeyError):
        grad_cam(model, sample, "enc9")


@pytest.mark.parametrize("overrides,layer,have", [
    ({}, "bogus", "enc0, enc1"),
    ({"use_cctfrm": False}, "enc0", "none, as use_cctfrm is false"),
])
def test_grad_cam_rejects_an_unknown_layer_before_the_forward(monkeypatch, overrides, layer, have):
    cfg = make_tiny_config(**overrides)
    model = FloodNet(cfg)
    sample = generate_synthetic_dataset(1, 0, 0.0, cfg.image_size, cfg.n_t)[0]

    def no_forward(*args, **kwargs):
        raise AssertionError("grad_cam ran the forward")

    monkeypatch.setattr(FloodNet, "forward", no_forward)
    with pytest.raises(KeyError, match=f"unknown target layer '{layer}'; the taps are {have}"):
        grad_cam(model, sample, layer)


def test_grad_cam_leaves_every_param_grad_as_it_found_it():
    cfg = make_tiny_config()
    model = FloodNet(cfg)
    samples = generate_synthetic_dataset(3, 1, 0.3, cfg.image_size, cfg.n_t)
    rng = np.random.default_rng(5)
    for e in model.store.entries.values():
        e.grad[...] = rng.standard_normal(e.grad.shape)
    before = {n: e.grad.copy() for n, e in model.store.entries.items()}
    for s in samples:
        for layer in ("enc0", "enc1"):
            grad_cam(model, s, layer)
    for name, grad in before.items():
        np.testing.assert_array_equal(model.store.entries[name].grad, grad, err_msg=name)


@pytest.mark.parametrize("layer", ["enc0", "enc1"])
def test_grad_cam_equals_the_heatmap_of_a_full_sweep(layer):
    """The sweep over the tap's descendants gives the tap the grad that a
    sweep over the whole tape, parameters included, keeps for it."""
    cfg = make_tiny_config(seed=0)
    model = FloodNet(cfg)
    for s in generate_synthetic_dataset(3, 2, 0.3, cfg.image_size, cfg.n_t):
        taps: dict = {}
        g = Graph()
        _, logit = model.forward(g, s, train=False, taps=taps)
        g.backward(logit, keep=(taps[layer],))
        expected = heatmap_from_activation(taps[layer].value, taps[layer].grad)
        assert expected.max() == 1.0
        np.testing.assert_array_equal(grad_cam(model, s, layer), expected)


def test_grad_cam_parameter_randomization_sanity_check():
    """Adebayo et al. 2018 (arXiv:1810.03292): a saliency map that explains
    the model must change when the weights it depends on are re-drawn.  Here
    the CCTFRM encoder kernels are re-drawn from their init distribution with
    another seed; writing back their own values changes nothing."""
    cfg = make_tiny_config(seed=0)  # at the default seed every enc0 map is all zero
    model = FloodNet(cfg)
    redrawn = FloodNet(make_tiny_config(seed=cfg.seed + 1)).store
    kernels = [n for n in model.store.names() if n.startswith("cctfrm.enc") and n.endswith(".kernel")]
    assert len(kernels) == len(cfg.encoder_plan)
    samples = generate_synthetic_dataset(6, 0, 0.0, cfg.image_size, cfg.n_t)
    before = [grad_cam(model, s, "enc0") for s in samples]
    for name in kernels:
        model.store.entries[name].value = model.store.entries[name].value.copy()
    for s, heat in zip(samples, before):
        np.testing.assert_array_equal(grad_cam(model, s, "enc0"), heat)
    for name in kernels:
        model.store.entries[name].value = redrawn.entries[name].value
    for s, heat in zip(samples, before):
        after = grad_cam(model, s, "enc0")
        assert heat.max() == after.max() == 1.0
        assert np.abs(after - heat).mean() > 0.1
        assert np.corrcoef(after.ravel(), heat.ravel())[0, 1] < 0.5


def test_pgm_and_sidecar_export(tmp_path):
    heat = np.linspace(0.0, 1.0, 12).reshape(3, 4)
    pgm = tmp_path / "h.pgm"
    write_pgm(str(pgm), heat)
    blob = pgm.read_bytes()
    assert blob.startswith(b"P5\n4 3\n255\n")
    pixels = np.frombuffer(blob.split(b"255\n", 1)[1], dtype=np.uint8)
    assert pixels[0] == 0 and pixels[-1] == 255

    sidecar = tmp_path / "h.json"
    write_sidecar(str(sidecar), heat, "enc0")
    data = json.loads(sidecar.read_text())
    assert data["target_layer"] == "enc0"
    assert data["height"] == 3 and data["width"] == 4
    np.testing.assert_allclose(np.array(data["values"]), heat, atol=1e-12)
