"""Full model assembly: the three feature modules feeding the unified
fusion head, with ablation toggles replacing disabled branches by zeros.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Graph, Node
from .cctfrm import cctfrm_forward
from .cctfrm import register_params as register_cctfrm
from .config import ConfigError, ModelConfig
from .hcamam import hcamam_forward
from .hcamam import register_params as register_hcamam
from .layers import mlp, register_mlp
from .mfim import (
    InputError,
    extract_global_features,
    mfim_forward,
    register_params as register_mfim,
    stub_image_encoder,
    stub_text_encoder,
)
from .params import ParamStore


class FloodNet:
    """Binary flood classifier over (token ids, raw image) samples."""

    def __init__(self, cfg: ModelConfig, store: ParamStore | None = None):
        """A filled store, such as a loaded checkpoint, must hold exactly the
        parameters and buffers that `cfg` registers, at the same shapes."""
        cfg.validate()
        self.cfg = cfg
        self.store = store if store is not None else ParamStore(cfg.seed)
        if not self.store.entries:
            self._register(self.store)
            return
        want = _Layout()
        self._register(want)
        have = _Layout.of(self.store)
        for kind, name in sorted(have.keys() | want.keys()):
            if (kind, name) not in have:
                raise ConfigError(f"the config needs {kind} {name!r}, which the store lacks")
            if (kind, name) not in want:
                raise ConfigError(f"the store holds {kind} {name!r}, which the config does not use")
            if have[kind, name] != want[kind, name]:
                raise ConfigError(f"{kind} {name!r} has shape {have[kind, name]} in the store, "
                                  f"the config needs {want[kind, name]}")

    def _register(self, store) -> None:
        """Adds every parameter and buffer of the config to store, a
        ParamStore or a _Layout."""
        cfg = self.cfg
        if cfg.use_mfim:
            register_mfim(store, cfg)
        if cfg.use_hcamam:
            register_hcamam(store, cfg)
        if cfg.use_cctfrm:
            register_cctfrm(store, cfg)
        register_mlp(store, "uffm", cfg.d_fused + cfg.d_se + cfg.d_r, cfg.d_fused, 1)

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
        """
        cfg, store = self.cfg, self.store
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
        logit = mlp(g, self.store, "uffm", g.concat([y_final, mfim_vec, o_final], axis=-1))
        return g.sigmoid(logit), logit


class _Layout(dict):
    """(kind, name) -> shape of the parameters and buffers a registration
    adds, recorded without allocating or drawing their values."""

    def add(self, name: str, shape, **init) -> None:
        self["parameter", name] = tuple(shape)

    def add_buffer(self, name: str, value) -> None:
        self["buffer", name] = np.shape(value)

    @classmethod
    def of(cls, store: ParamStore) -> "_Layout":
        layout = cls()
        for name, entry in store.entries.items():
            layout.add(name, entry.value.shape)
        for name, value in store.buffers.items():
            layout.add_buffer(name, value)
        return layout


def _stack(samples: list) -> tuple[np.ndarray, np.ndarray]:
    """Token ids (B, n_t) and images (B, H, W, 3) of a batch."""
    lengths = sorted({len(s.tokens) for s in samples})
    if len(lengths) > 1:
        raise InputError(f"a batch needs one token count, got {lengths[0]} and {lengths[-1]}")
    return np.stack([s.tokens for s in samples]), np.stack([s.image for s in samples])


def predict(prob: float) -> int:
    """Decision threshold 0.5; the exact tie maps to class 1."""
    return 1 if prob >= 0.5 else 0
