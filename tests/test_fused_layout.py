"""Fused attention and LSTM weights draw what their per-head and per-gate
blocks drew as separate parameters, and the seeded tables built once per
key cannot be written through."""

import zlib

import numpy as np
import pytest

from floodnet.autodiff import Graph
from floodnet.config import ModelConfig
from floodnet.data import generate_synthetic_dataset
from floodnet.hcamam import _shift_matrices
from floodnet.layers import sinusoidal_positions
from floodnet.mfim import _image_projection, _token_table, level_heads, stub_image_encoder, stub_text_encoder
from floodnet.model import FloodNet


def _fused_weights(cfg: ModelConfig) -> dict[str, list[str]]:
    """Fused weight name -> the names its column blocks are drawn under."""
    fused = {}
    prefixes = [(f"mfim.att.{m}.{level}", heads) for m in "ti" for level, heads in level_heads(cfg.h).items()]
    prefixes += [(f"cctfrm.tr{layer}", cfg.transformer_heads) for layer in range(cfg.transformer_depth)]
    for prefix, heads in prefixes:
        for proj in ("wq", "wk", "wv"):
            fused[f"{prefix}.{proj}"] = [f"{prefix}.head{head}.{proj}" for head in range(heads)]
    for direction in ("fwd", "bwd"):
        for kind in "wu":
            prefix = f"mfim.bilstm.{direction}"
            fused[f"{prefix}.{kind}"] = [f"{prefix}.{kind}{gate}" for gate in "ifgo"]
    return fused


@pytest.mark.parametrize("seed", [0, 42])
def test_each_block_of_a_fused_weight_is_its_old_names_draw(seed):
    cfg = ModelConfig(seed=seed)
    store = FloodNet(cfg).store
    fused = _fused_weights(cfg)
    assert len(fused) == 3 * (6 + cfg.transformer_depth) + 4
    for name, blocks in fused.items():
        value = store.entries[name].value
        bound = np.sqrt(6.0 / value.shape[0])
        for block, part in zip(blocks, np.split(value, len(blocks), axis=-1)):
            rng = np.random.default_rng([seed, zlib.crc32(block.encode())])
            np.testing.assert_array_equal(part, rng.uniform(-bound, bound, part.shape), err_msg=block)


@pytest.mark.parametrize("use_cctfrm,leaves,values", [(True, 140, 629_516), (False, 82, 440_967)])
def test_default_store_counts(use_cctfrm, leaves, values):
    store = FloodNet(ModelConfig(use_cctfrm=use_cctfrm)).store
    assert len(store.entries) == leaves
    assert sum(e.value.size for e in store.entries.values()) == values


def test_a_batch_one_eval_forward_records_373_nodes():
    """Each of the eight gated blocks is one node from its conv to its pool."""
    cfg = ModelConfig()
    model = FloodNet(cfg)
    sample = generate_synthetic_dataset(1, 0, cfg.difficulty, cfg.image_size, cfg.n_t)[0]
    g = Graph(param_grads=False)
    model.forward(g, sample)
    assert len(g.nodes) == 373
    assert not any(n.tag == "concat" and all(p.tag.startswith("param:") for p in n.parents)
                   for n in g.nodes)


@pytest.mark.parametrize("table,key", [
    (_token_table, (6, 3)), (_image_projection, (4, 3)), (sinusoidal_positions, (5, 8)), (_shift_matrices, (4,)),
], ids=["token_table", "image_projection", "sinusoidal_positions", "shift_matrices"])
def test_a_seeded_table_is_built_once_and_read_only(table, key):
    built = table(*key)
    assert table(*key) is built
    assert not built.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        built[0] = 1.0


def test_the_stub_encoders_return_fresh_writable_arrays():
    tokens = np.array([0, 3, 3, 1])
    image = np.random.default_rng(1).random((16, 16, 3))
    text = stub_text_encoder(tokens, 6, 7)
    grid = stub_image_encoder(image, (2, 2), 4, 7)
    expected_text, expected_grid = text.copy(), grid.copy()
    assert text.flags.writeable and grid.flags.writeable
    text[:] = 9.0
    grid[:] = 9.0
    np.testing.assert_array_equal(stub_text_encoder(tokens, 6, 7), expected_text)
    np.testing.assert_array_equal(stub_image_encoder(image, (2, 2), 4, 7), expected_grid)
    np.testing.assert_array_equal(_token_table(6, 7)[tokens], expected_text)
