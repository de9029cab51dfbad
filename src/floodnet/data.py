"""Deterministic synthetic two-class dataset; its images are read-only.

Class 1 pairs a bright low-frequency blob image with token ids drawn from
the low id band; class 0 pairs a dim high-frequency texture with ids from
a disjoint band. A difficulty knob in [0, 1] injects noise and band
leakage; at 0 the classes are separable by mean image brightness alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FLOOD_BAND = (0, 16)
NEUTRAL_BAND = (16, 32)
SHARED_BAND = (32, 64)


@dataclass
class SyntheticSample:
    tokens: np.ndarray  # (n_tokens,) int ids
    image: np.ndarray  # (H, W, 3) float64 in [0, 1]; a grey one views one (H, W) plane
    label: int


def _blob_image(rng: np.random.Generator, size: tuple[int, int]) -> np.ndarray:
    H, W = size
    cy = rng.uniform(0.3 * H, 0.7 * H)
    cx = rng.uniform(0.3 * W, 0.7 * W)
    sigma = 0.25 * min(H, W)
    yy, xx = np.ogrid[0:H, 0:W]
    blob = np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * sigma**2))
    return 0.62 + 0.3 * blob


def _texture_image(rng: np.random.Generator, size: tuple[int, int]) -> np.ndarray:
    H, W = size
    yy, xx = np.ogrid[0:H, 0:W]
    lo_y, lo_x = max(2, H // 4), max(2, W // 4)
    fy = rng.integers(lo_y, max(lo_y + 1, H // 2))
    fx = rng.integers(lo_x, max(lo_x + 1, W // 2))
    phase = rng.uniform(0, 2 * np.pi)
    tex = np.sin(2 * np.pi * fy * yy / H + phase) * np.sin(2 * np.pi * fx * xx / W)
    return 0.22 + 0.1 * tex


def _tokens(rng: np.random.Generator, n: int, label: int, difficulty: float) -> np.ndarray:
    band = FLOOD_BAND if label == 1 else NEUTRAL_BAND
    ids = np.empty(n, dtype=np.int64)
    for j in range(n):
        if rng.uniform() < difficulty * 0.5:
            ids[j] = rng.integers(*SHARED_BAND)
        else:
            ids[j] = rng.integers(*band)
    return ids


def generate_synthetic_dataset(
    n: int,
    seed: int,
    difficulty: float = 0.0,
    image_size: tuple[int, int] = (64, 64),
    n_tokens: int = 6,
) -> list[SyntheticSample]:
    """Balanced dataset of n samples; class 1 gets the extra one when n is odd.

    Labels alternate 1, 0, 1, 0, ... and everything is a pure function of
    (n, seed, difficulty) and the shape arguments.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if not 0.0 <= difficulty <= 1.0:
        raise ValueError("difficulty must lie in [0, 1]")
    rng = np.random.default_rng([seed, 0xDA7A])
    samples = []
    for i in range(n):
        label = 1 - (i % 2)
        plane = _blob_image(rng, image_size) if label == 1 else _texture_image(rng, image_size)
        img = plane[:, :, None]
        if difficulty > 0.0:
            img = img + difficulty * 0.25 * rng.normal(size=plane.shape + (3,))
        img = np.broadcast_to(np.clip(img, 0.0, 1.0), plane.shape + (3,))
        samples.append(SyntheticSample(_tokens(rng, n_tokens, label, difficulty), img, label))
    return samples


def split_dataset(
    samples: list[SyntheticSample], val_fraction: float, seed: int
) -> tuple[list[SyntheticSample], list[SyntheticSample]]:
    """Deterministic shuffled split; validation gets round(n * val_fraction)."""
    order = np.random.default_rng([seed, 0x5911]).permutation(len(samples))
    n_val = int(round(len(samples) * val_fraction))
    val_idx = set(order[:n_val].tolist())
    train = [s for i, s in enumerate(samples) if i not in val_idx]
    val = [samples[i] for i in order[:n_val]]
    return train, val
