"""Named trainable tensors with per-parameter AdamW state.

A parameter is added where a forward first reads it (`get`), and its
initialization is a pure function of the store seed and the parameter name,
or the names of its column blocks, so two stores of the same seed that read
the same names are bit-identical regardless of reading order.

A store holds values alone until something trains it: an entry's gradient
and AdamW moments are allocated on first read, and `zero_grad` allocates
them for every entry at once, so an evaluated, explained or loaded model
never holds them.
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


def _state(slot: str) -> property:
    """An AdamW state array of a ParamEntry, kept in `slot`: zeros of the
    value's shape, allocated on its first read, so that a store which never
    trains holds its values alone."""

    def read(entry):
        arr = getattr(entry, slot)
        if arr is None:
            arr = np.zeros(entry.value.shape)
            setattr(entry, slot, arr)
        return arr

    return property(read, lambda entry, arr: setattr(entry, slot, arr))


class ParamEntry:
    """A parameter's value, its gradient accumulator and its AdamW moments
    `m` and `v`, plus the count of AdamW steps taken.  `grad`, `m` and `v`
    are allocated when first read (`_state`), or by `ParamStore.zero_grad`
    for a whole store at once; `holds_state` says whether any of them is."""

    __slots__ = ("value", "step", "_grad", "_m", "_v")
    grad = _state("_grad")
    m = _state("_m")
    v = _state("_v")

    def __init__(self, value: np.ndarray):
        self.value = value
        self.step = 0
        self._grad = self._m = self._v = None

    @property
    def holds_state(self) -> bool:
        return not (self._grad is None and self._m is None and self._v is None)


class ParamStore:
    """Map from hierarchical name to trainable tensor plus optimizer state.
    The state is allocated on first read, or for every entry at once by
    `zero_grad`, so a store that never trains holds its values alone.

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
        self.put(name, value)

    def put(self, name: str, value: np.ndarray) -> None:
        """Adds `name` holding `value` as it is, such as a loaded one."""
        if name in self.entries:
            raise KeyError(f"duplicate parameter {name!r}")
        self.entries[name] = ParamEntry(value)

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
        """Zeroes every gradient.  The entries that hold no AdamW state yet
        first get it, as views of one zeroed block per kind (`grad`, `m`,
        `v`), so a training step that starts here allocates none of it
        above its tape."""
        bare = [e for e in self.entries.values() if not e.holds_state]
        if bare:
            ends = np.cumsum([e.value.size for e in bare])
            for kind in ("grad", "m", "v"):
                block = np.zeros(ends[-1])
                for e, end in zip(bare, ends):
                    setattr(e, kind, block[end - e.value.size:end].reshape(e.value.shape))
        for e in self.entries.values():
            e.grad.fill(0.0)


def adamw_step(store: ParamStore, config: AdamWConfig) -> None:
    """One decoupled-weight-decay Adam update; zeroes gradients afterwards.
    An entry without moments reads them as zeros (see `ParamEntry`).

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
        grad, m, v = e.grad, e.m, e.v
        e.step += 1
        # decay decoupled from the adaptive update
        value = e.value * (1.0 - lr * wd)
        u = grad * (1.0 - b1)
        m *= b1
        m += u
        np.multiply(grad, 1.0 - b2, out=u)
        u *= grad
        v *= b2
        v += u
        # u = lr * m_hat, then over sqrt(v_hat) + eps
        np.divide(m, 1.0 - b1 ** e.step, out=u)
        u *= lr
        denom = v / (1.0 - b2 ** e.step)
        np.sqrt(denom, out=denom)
        denom += eps
        u /= denom
        value -= u
        e.value = value
        grad.fill(0.0)
