"""Parameters are declared where a forward reads them: the store of a fresh
model holds exactly what one training forward reads, for every ablation."""

import ast
from pathlib import Path

import numpy as np
import pytest

import floodnet
from floodnet import cctfrm, layers
from floodnet.autodiff import Graph
from floodnet.config import ConfigError
from floodnet.data import generate_synthetic_dataset
from floodnet.layers import batch_norm_state
from floodnet.model import FloodNet

from conftest import make_tiny_config

PACKAGE = Path(floodnet.__file__).parent
TOGGLES = ("use_mfim", "use_hcamam", "use_cctfrm", "use_hcgam", "use_feeca", "use_fmsa")


@pytest.mark.parametrize("off", (None,) + TOGGLES)
def test_store_holds_exactly_what_a_training_forward_reads(monkeypatch, off):
    cfg = make_tiny_config(**({off: False} if off else {}))
    model = FloodNet(cfg)
    bn_names = []

    def recording_batch_norm_state(g, store, name, C):
        bn_names.append(name)
        return batch_norm_state(g, store, name, C)

    # batch_norm reads its state through layers, the gated blocks through cctfrm
    for module in (layers, cctfrm):
        monkeypatch.setattr(module, "batch_norm_state", recording_batch_norm_state)
    batch = generate_synthetic_dataset(2, 0, 0.0, cfg.image_size, cfg.n_t)
    g = Graph()
    model.forward(g, batch, train=True, dropout_rng=np.random.default_rng(0))
    read = {n.tag.removeprefix("param:") for n in g.nodes if n.tag.startswith("param:")}
    assert sorted(model.store.entries) == sorted(read)
    assert sorted(model.store.buffers) == sorted(
        f"{name}.{stat}" for name in bn_names for stat in ("running_mean", "running_var"))


def test_a_store_with_parameters_the_config_does_not_read_is_refused():
    # the full model's store holds the gating parameters that use_hcgam=False never reads
    full = FloodNet(make_tiny_config()).store
    with pytest.raises(ConfigError, match="the store holds parameter 'mfim.att.i.coarse.head0.wk', "
                                          "which the config does not use"):
        FloodNet(make_tiny_config(use_hcgam=False), full)


def test_a_read_at_another_shape_raises():
    model = FloodNet(make_tiny_config())
    g = Graph()
    with pytest.raises(ValueError, match="'uffm.b2' has shape"):
        g.param(model.store, "uffm.b2", (2,), "zeros")


def test_only_the_store_and_the_checkpoint_loader_add_entries():
    """Elsewhere a parameter is declared by reading it.  Graph ops are
    called on `g`, so any other receiver of `.add(` is a store."""
    calls = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name in ("params.py", "checkpoint.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("add", "add_buffer")
                    and getattr(node.func.value, "id", None) != "g"):
                calls.append(f"{path.name}:{node.lineno} {ast.unparse(node.func)}")
    assert calls == []