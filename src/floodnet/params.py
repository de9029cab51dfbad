"""Named trainable tensors with per-parameter AdamW state.

A parameter is added where a forward first reads it (`get`), and its
initialization is a pure function of the store seed and the parameter name,
or the names of its column blocks, so two stores of the same seed that read
the same names are bit-identical regardless of reading order.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import asdict, dataclass

import numpy as np


@dataclass
class AdamWConfig:
    learning_rate: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    weight_decay: float = 1e-4

    def validate(self) -> None:
        for name, value in asdict(self).items():
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not 0.0 < self.beta1 < 1.0:
            raise ValueError(f"beta1 must be in (0,1), got {self.beta1}")
        if not 0.0 < self.beta2 < 1.0:
            raise ValueError(f"beta2 must be in (0,1), got {self.beta2}")
        if self.learning_rate < 0.0:
            raise ValueError(f"learning_rate must be non-negative, got {self.learning_rate}")
        if self.weight_decay < 0.0:
            raise ValueError(f"weight_decay must be non-negative, got {self.weight_decay}")
        if self.epsilon <= 0.0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")


@dataclass
class ParamEntry:
    value: np.ndarray
    grad: np.ndarray
    m: np.ndarray
    v: np.ndarray
    step: int = 0


class ParamStore:
    """Map from hierarchical name to trainable tensor plus optimizer state.

    A `fanin` value is drawn from a generator keyed by (seed, name).  A
    fused weight, such as the per-head projections of an attention or the
    gates of an LSTM side by side, names its equal column blocks instead:
    each block is drawn as that name would be drawn alone, so the fused
    value equals the blocks' separate values concatenated on the last axis.
    `buffers` holds non-trainable state (batch-norm running statistics).
    Iteration is sorted by name for determinism.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self.entries: dict[str, ParamEntry] = {}
        self.buffers: dict[str, np.ndarray] = {}

    def _rng(self, name: str) -> np.random.Generator:
        return np.random.default_rng([self.seed, zlib.crc32(name.encode())])

    def add(self, name: str, shape, init: str = "fanin", blocks: tuple[str, ...] = ()) -> None:
        """Adds `name` at `shape`.  A `fanin` value with `blocks` is that
        many equal column blocks, each drawn under its block name."""
        if name in self.entries:
            raise KeyError(f"duplicate parameter {name!r}")
        shape = tuple(shape)
        if init == "zeros":
            value = np.zeros(shape)
        elif init == "ones":
            value = np.ones(shape)
        elif init == "fanin":
            names = blocks or (name,)
            block = shape[:-1] + (shape[-1] // len(names),)
            fan_in = int(np.prod(block[:-1])) if len(block) > 1 else block[0]
            bound = np.sqrt(6.0 / fan_in)
            parts = [self._rng(n).uniform(-bound, bound, size=block) for n in names]
            value = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=-1)
        else:
            raise ValueError(f"unknown init {init!r}")
        self.entries[name] = ParamEntry(
            value=value, grad=np.zeros(shape), m=np.zeros(shape), v=np.zeros(shape)
        )

    def add_buffer(self, name: str, value: np.ndarray) -> None:
        if name in self.buffers:
            raise KeyError(f"duplicate buffer {name!r}")
        self.buffers[name] = np.asarray(value, dtype=np.float64)

    def get(self, name: str, shape, init: str, blocks: tuple[str, ...] = ()) -> ParamEntry:
        """The entry `name`, added with `init` (and `blocks`, see `add`) on
        its first read; a read at another shape raises."""
        shape = tuple(shape)
        if name not in self.entries:
            self.add(name, shape, init, blocks)
        entry = self.entries[name]
        if entry.value.shape != shape:
            raise ValueError(f"parameter {name!r} has shape {entry.value.shape}, read as {shape}")
        return entry

    def buffer(self, name: str, size: int, fill: float) -> np.ndarray:
        """The buffer `name`, added as `size` copies of `fill` on its first
        read; a later read builds no array."""
        if name not in self.buffers:
            self.add_buffer(name, np.full(size, fill))
        return self.buffers[name]

    def names(self) -> list[str]:
        return sorted(self.entries)

    def zero_grad(self) -> None:
        for e in self.entries.values():
            e.grad.fill(0.0)


def adamw_step(store: ParamStore, config: AdamWConfig) -> None:
    """One decoupled-weight-decay Adam update; zeroes gradients afterwards.

    value * (1 - lr*wd) - lr * m_hat / (sqrt(v_hat) + eps), with
    m = b1*m + (1-b1)*g and v = b2*v + (1-b2)*g*g, each in that order.
    Moments and gradients are updated in place.  The value is a new array,
    so a tape recorded before the step keeps the values it read; allocated
    while the step's tape is still alive, the new arrays also keep the
    allocator from handing the tape's memory back between steps, which
    the next forward would fault in again."""
    lr, b1, b2, eps, wd = (
        config.learning_rate,
        config.beta1,
        config.beta2,
        config.epsilon,
        config.weight_decay,
    )
    for name in store.names():
        e = store.entries[name]
        e.step += 1
        # decay decoupled from the adaptive update
        value = e.value * (1.0 - lr * wd)
        u = e.grad * (1.0 - b1)
        e.m *= b1
        e.m += u
        np.multiply(e.grad, 1.0 - b2, out=u)
        u *= e.grad
        e.v *= b2
        e.v += u
        # u = lr * m_hat, then over sqrt(v_hat) + eps
        np.divide(e.m, 1.0 - b1 ** e.step, out=u)
        u *= lr
        denom = e.v / (1.0 - b2 ** e.step)
        np.sqrt(denom, out=denom)
        denom += eps
        u /= denom
        value -= u
        e.value = value
        e.grad.fill(0.0)
