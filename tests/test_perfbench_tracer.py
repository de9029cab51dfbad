"""The traced benchmark wraps floodnet functions by name; a refactor that
drops or renames one of them must fail here, not in the benchmark run."""

import importlib.util
from pathlib import Path

import numpy as np

from floodnet import gradcam
from floodnet.autodiff import Graph
from floodnet.data import generate_synthetic_dataset
from floodnet.model import FloodNet
from floodnet.training import bce_loss

from conftest import make_tiny_config

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _lookup(owner, attr):
    return vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_tracer_patches_and_restores_every_wrapped_name():
    tracer = _load_tracer()
    originals = [(owner, attr, _lookup(owner, attr)) for _, owner, attr in tracer._SPANS]
    graph_ops = dict(vars(Graph))
    cfg = make_tiny_config()
    model = FloodNet(cfg)
    sample = generate_synthetic_dataset(2, cfg.seed, cfg.difficulty, cfg.image_size, cfg.n_t)[0]
    t = tracer.Tracer()
    with t.patched():
        g = Graph()
        _, logit = model.forward(g, sample, train=True, dropout_rng=np.random.default_rng(0))
        g.backward(bce_loss(g, logit, sample.label))
    names = {span[0] for span in t.spans}
    assert {"training.forward", "training.backward", "mfim", "mfim.attention", "hcamam.feeca",
            "cctfrm.transformer", "layers.batch_norm", "layers.layer_norm"} <= names
    for owner, attr, fn in originals:
        assert _lookup(owner, attr) is fn, f"{attr} left wrapped"
    assert dict(vars(Graph)) == graph_ops


def test_traced_grad_cam_and_parameter_grads_match_untraced():
    """Grad-CAM's tap reaches Graph.backward as `keep` through the span
    wrapper, and the tracer's timed backward rules, the parameters' own
    included, still sink every gradient."""
    tracer = _load_tracer()
    cfg = make_tiny_config()
    model = FloodNet(cfg)
    sample = generate_synthetic_dataset(2, cfg.seed, cfg.difficulty, cfg.image_size, cfg.n_t)[0]

    def run():
        model.store.zero_grad()
        g = Graph()
        _, logit = model.forward(g, sample, train=False)
        g.backward(bce_loss(g, logit, sample.label))
        grads = {n: e.grad.copy() for n, e in model.store.entries.items()}
        return gradcam.grad_cam(model, sample, "enc1"), grads

    cam, grads = run()
    t = tracer.Tracer()
    with t.patched():
        traced_cam, traced_grads = run()
    assert {"gradcam", "gradcam.backward"} <= {span[0] for span in t.spans}
    assert cam.max() == 1.0
    np.testing.assert_array_equal(traced_cam, cam)
    for name, grad in grads.items():
        np.testing.assert_array_equal(traced_grads[name], grad, err_msg=name)
