"""Full model assembly: the three feature modules feeding the unified
fusion head, with ablation toggles replacing disabled branches by zeros.
"""

from __future__ import annotations

import numpy as np

from .autodiff import ContractError, Graph, Node
from .cctfrm import cctfrm_forward
from .config import ConfigError, ModelConfig
from .data import SyntheticSample
from .hcamam import hcamam_forward
from .layers import mlp
from .mfim import (
    InputError,
    extract_global_features,
    mfim_forward,
    stub_image_encoder,
    stub_text_encoder,
)
from .params import ParamEntry, ParamStore


class FloodNet:
    """Binary flood classifier over (token ids, raw image) samples."""

    def __init__(self, cfg: ModelConfig, store: ParamStore | None = None):
        """An empty store is filled by one forward of a blank sample.  A
        filled store, such as a loaded checkpoint, must hold exactly the
        parameters and buffers that forward reads, at the same shapes."""
        cfg.validate()
        self.cfg = cfg
        store = store if store is not None else ParamStore(cfg.seed)
        # a filled store is checked against what a forward reads from zero views
        self.store = _Layout(0) if store.entries else store
        blank = SyntheticSample(np.zeros(cfg.n_t, dtype=np.int64), np.zeros(cfg.image_size + (3,)),
                                label=0)
        self.forward(Graph(param_grads=False), blank)
        if self.store is store:
            return
        want, have = _shapes(self.store), _shapes(store)
        self.store = store
        for kind, name in sorted(have.keys() | want.keys()):
            if (kind, name) not in have:
                raise ConfigError(f"the config needs {kind} {name!r}, which the store lacks")
            if (kind, name) not in want:
                raise ConfigError(f"the store holds {kind} {name!r}, which the config does not use")
            if have[kind, name] != want[kind, name]:
                raise ConfigError(f"{kind} {name!r} has shape {have[kind, name]} in the store, "
                                  f"the config needs {want[kind, name]}")

    def forward(
        self,
        g: Graph,
        sample,
        train: bool = False,
        dropout_rng: np.random.Generator | None = None,
        taps: dict | None = None,
    ) -> tuple[Node, Node]:
        """Returns (probability node, pre-sigmoid logit node).

        For one sample both have shape (1,).  A list of samples runs as one
        batch stacked on a leading axis, and both have shape (B, 1).
        A training forward whose CCTFRM branch drops out draws its masks
        from dropout_rng, and raises ContractError before recording
        anything when it is None.
        """
        cfg, store = self.cfg, self.store
        if train and cfg.use_cctfrm and cfg.dropout > 0.0 and dropout_rng is None:
            raise ContractError("a training forward with dropout needs a dropout_rng Generator")
        tokens, image = _stack(sample) if isinstance(sample, list) else (sample.tokens, sample.image)
        text = stub_text_encoder(tokens, cfg.d_t, cfg.seed)
        grid = stub_image_encoder(image, cfg.grid, cfg.d_i, cfg.seed)
        gl = extract_global_features(text, grid)
        lead = grid.shape[:-3]
        if cfg.use_mfim:
            mfim_vec = mfim_forward(g, store, cfg, text, grid)
        else:
            mfim_vec = g.constant(np.zeros(lead + (cfg.d_se,)))
        if cfg.use_hcamam:
            y_final = hcamam_forward(g, store, cfg, grid, gl, train)
        else:
            y_final = g.constant(np.zeros(lead + (cfg.d_fused,)))
        if cfg.use_cctfrm:
            o_final = cctfrm_forward(g, store, cfg, image, train, dropout_rng, taps)
        else:
            o_final = g.constant(np.zeros(lead + (cfg.d_r,)))
        return self.head(g, y_final, mfim_vec, o_final)

    def head(self, g: Graph, y_final: Node, mfim_vec: Node, o_final: Node) -> tuple[Node, Node]:
        joint = g.concat([y_final, mfim_vec, o_final], axis=-1)
        logit = mlp(g, self.store, "uffm", joint, self.cfg.d_fused, 1)
        return g.sigmoid(logit), logit


class _Layout(ParamStore):
    """A store whose parameters are zero views: a forward run on it records
    the names and shapes it reads without drawing or allocating values, so
    its seed goes unused."""

    def add(self, name: str, shape, init: str = "fanin", blocks: tuple[str, ...] = ()) -> None:
        self.entries[name] = ParamEntry(np.broadcast_to(0.0, tuple(shape)))


def _shapes(store: ParamStore) -> dict:
    """(kind, name) -> shape of every parameter and buffer in store."""
    shapes = {("parameter", name): e.value.shape for name, e in store.entries.items()}
    shapes.update((("buffer", name), value.shape) for name, value in store.buffers.items())
    return shapes


def _stack(samples: list) -> tuple[np.ndarray, np.ndarray]:
    """Token ids (B, n_t) and images (B, H, W, 3) of a batch."""
    lengths = sorted({len(s.tokens) for s in samples})
    if len(lengths) > 1:
        raise InputError(f"a batch needs one token count, got {lengths[0]} and {lengths[-1]}")
    return np.stack([s.tokens for s in samples]), np.stack([s.image for s in samples])


def predict(prob: float) -> int:
    """Decision threshold 0.5; the exact tie maps to class 1."""
    return 1 if prob >= 0.5 else 0
