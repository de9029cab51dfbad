"""Gradient-weighted class activation heatmaps and their file export."""

from __future__ import annotations

import json

import numpy as np

from .autodiff import Graph
from .model import FloodNet


def heatmap_from_activation(activation: np.ndarray, gradient: np.ndarray) -> np.ndarray:
    """Weighted channel sum with spatially pooled gradient weights, then
    ReLU and [0,1] normalization (all-zero map stays all zero)."""
    weights = gradient.mean(axis=(0, 1))
    cam = np.maximum((activation * weights[None, None, :]).sum(axis=2), 0.0)
    peak = cam.max()
    return cam / peak if peak > 0 else cam


class _WatchedTaps(dict):
    """Taps of one forward that watch the target layer's node as it is
    stored, before any op reads it."""

    def __init__(self, g: Graph, target_layer: str):
        super().__init__()
        self.g = g
        self.target_layer = target_layer

    def __setitem__(self, name, node):
        super().__setitem__(name, node)
        if name == self.target_layer:
            self.g.watch(node)


def grad_cam(model: FloodNet, sample, target_layer: str = "enc0") -> np.ndarray:
    """Heatmap of the pre-sigmoid logit's sensitivity at an encoder block.

    The parameters are not sources and the tap is watched, so the sweep
    covers only the tap's descendants and no ParamStore grad changes.
    An unknown layer raises KeyError before the forward runs."""
    cfg = model.cfg
    layers = [f"enc{i}" for i in range(len(cfg.encoder_plan))] if cfg.use_cctfrm else []
    if target_layer not in layers:
        have = ", ".join(layers) if layers else "none, as use_cctfrm is false"
        raise KeyError(f"unknown target layer {target_layer!r}; the taps are {have}")
    g = Graph(param_grads=False)
    taps = _WatchedTaps(g, target_layer)
    _, logit = model.forward(g, sample, train=False, taps=taps)
    node = taps[target_layer]
    g.backward(logit, keep=(node,))
    return heatmap_from_activation(node.value, node.grad)


def write_pgm(path: str, heatmap: np.ndarray) -> None:
    """Binary 8-bit grayscale (P5) image of a [0,1] heatmap."""
    h, w = heatmap.shape
    data = np.clip(np.round(heatmap * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(data.tobytes())


def write_sidecar(path: str, heatmap: np.ndarray, target_layer: str) -> None:
    """JSON sidecar carrying the raw normalized floats and provenance."""
    h, w = heatmap.shape
    payload = {
        "target_layer": target_layer,
        "height": h,
        "width": w,
        "values": [[float(v) for v in row] for row in heatmap],
    }
    with open(path, "w") as f:
        json.dump(payload, f)
