"""Model/training configuration with load-time validation.

The JSON config file mirrors ModelConfig field names exactly; the
`optimizer` key holds a nested object mirroring AdamWConfig.
"""

from __future__ import annotations

import json
import typing
from dataclasses import asdict, dataclass, field, is_dataclass

from .params import AdamWConfig


class ConfigError(ValueError):
    """Raised for invalid or inconsistent configuration, naming the field."""


def _fits(value, hint) -> bool:
    """Whether a JSON value can fill a field annotated hint: only a bool
    fills a bool, an int an int, any number a float, and a non-empty list
    of such items a tuple, of the tuple's length when that is fixed."""
    items = typing.get_args(hint)  # (int, int) or (int, ...) for a tuple
    if items:
        n = None if items[-1] is Ellipsis else len(items)
        return isinstance(value, list) and 0 < len(value) == (n or len(value)) and all(
            _fits(v, items[0]) for v in value)
    return isinstance(value, bool) == (hint is bool) and isinstance(value, (int, hint))


def _from_json(cls, data, where: str):
    """cls(**data) for a dataclass cls and a JSON object data, each list
    made a tuple.  A ConfigError names the first key of data that is not a
    field of cls or whose value does not fit its field."""
    if not isinstance(data, dict):
        raise ConfigError(f"{where} must be a JSON object")
    hints = typing.get_type_hints(cls)
    unknown = set(data) - set(hints)
    if unknown:
        raise ConfigError(f"unknown {where} keys: {sorted(unknown)}")
    kwargs = {}
    for key, value in data.items():
        if is_dataclass(hints[key]):
            value = _from_json(hints[key], value, key)
        elif not _fits(value, hints[key]):
            want = cls.__dataclass_fields__[key].type
            raise ConfigError(f"{where}.{key} must be {want}, got {json.dumps(value)}")
        kwargs[key] = tuple(value) if isinstance(value, list) else value
    return cls(**kwargs)


@dataclass
class ModelConfig:
    # feature dimensions
    d_t: int = 12
    d_i: int = 8
    d_se: int = 64
    h: int = 2
    n_t: int = 6
    grid: tuple[int, int] = (4, 4)
    image_size: tuple[int, int] = (64, 64)
    # heterogeneous conv attention
    hren_channels: int = 8
    hren_groups: int = 2
    hren_kernel: int = 3
    # cascading conv transformer
    encoder_plan: tuple[int, ...] = (8, 16, 32, 64)
    decoder_plan: tuple[int, ...] = (64, 32, 16, 8)
    transformer_depth: int = 3
    transformer_heads: int = 4
    # fusion / head
    d_fused: int = 64
    dropout: float = 0.2
    # training
    optimizer: AdamWConfig = field(default_factory=AdamWConfig)
    epochs: int = 100
    batch_size: int = 32
    seed: int = 42
    n_samples: int = 200
    difficulty: float = 0.0
    val_fraction: float = 0.2
    # ablation toggles
    use_mfim: bool = True
    use_hcamam: bool = True
    use_cctfrm: bool = True
    use_hcgam: bool = True
    use_feeca: bool = True
    use_fmsa: bool = True

    # derived helpers -------------------------------------------------

    @property
    def d_model(self) -> int:
        return self.encoder_plan[-1]

    def encoder_out_spatial(self) -> tuple[int, int]:
        f = 2 ** len(self.encoder_plan)
        return (self.image_size[0] // f, self.image_size[1] // f)

    def cascade_channels(self) -> int:
        return sum(self.decoder_plan)

    @property
    def d_r(self) -> int:
        hh, ww = self.encoder_out_spatial()
        return hh * ww * self.cascade_channels()

    def validate(self) -> None:
        from .mfim import MAX_TOKENS  # mfim imports this module

        if self.h < 2 or self.h % 2:
            raise ConfigError(f"h must be even and >= 2, got h={self.h}")
        if self.d_se % 2:
            raise ConfigError(f"d_se must be divisible by 2 (BiLSTM halves), got d_se={self.d_se}")
        if self.d_se % (2 * self.h):
            raise ConfigError(f"d_se must be divisible by 2*h={2 * self.h}, got d_se={self.d_se}")
        if self.n_t < 1 or self.n_t > MAX_TOKENS:
            raise ConfigError(f"n_t must be in [1, {MAX_TOKENS}], got n_t={self.n_t}")
        # every extent, and the divisors below
        extents = [(name, getattr(self, name)) for name in (
            "d_t", "d_i", "d_se", "hren_channels", "hren_groups", "hren_kernel",
            "transformer_heads", "d_fused")]
        for name in ("grid", "image_size", "encoder_plan", "decoder_plan"):
            extents += [(f"{name}[{i}]", v) for i, v in enumerate(getattr(self, name))]
        for name, value in extents:
            if value < 1:
                raise ConfigError(f"{name} must be >= 1, got {name}={value}")
        if self.transformer_depth < 0:
            raise ConfigError("transformer_depth must be >= 0, "
                              f"got transformer_depth={self.transformer_depth}")
        for name, (img, cell) in (
            ("image_size[0]/grid[0]", (self.image_size[0], self.grid[0])),
            ("image_size[1]/grid[1]", (self.image_size[1], self.grid[1])),
        ):
            if img % cell:
                raise ConfigError(f"{name}: {img} not divisible by {cell}")
        if self.d_i % self.hren_groups or self.hren_channels % self.hren_groups:
            raise ConfigError(
                f"hren_groups={self.hren_groups} must divide d_i={self.d_i} "
                f"and hren_channels={self.hren_channels}"
            )
        if self.hren_kernel % 2 == 0:
            raise ConfigError(f"hren_kernel must be odd, got {self.hren_kernel}")
        if self.hren_channels % 4:
            raise ConfigError(f"hren_channels must be divisible by 4, got {self.hren_channels}")
        f = 2 ** len(self.encoder_plan)
        if self.image_size[0] % f or self.image_size[1] % f:
            raise ConfigError(
                f"image_size={self.image_size} not divisible by 2^len(encoder_plan)={f}"
            )
        if self.d_model % self.transformer_heads:
            raise ConfigError(
                f"transformer_heads={self.transformer_heads} must divide "
                f"encoder_plan[-1]={self.d_model}"
            )
        if len(self.decoder_plan) < 1:
            raise ConfigError("decoder_plan must have at least one stage")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0,1), got {self.dropout}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got seed={self.seed}")
        if self.n_samples < 2:
            raise ConfigError(f"n_samples must be >= 2, got {self.n_samples}")
        if not 0.0 <= self.difficulty <= 1.0:
            raise ConfigError(f"difficulty must be in [0,1], got {self.difficulty}")
        if not 0.0 < self.val_fraction < 1.0:
            raise ConfigError(f"val_fraction must be in (0,1), got {self.val_fraction}")
        if int(round(self.n_samples * self.val_fraction)) >= self.n_samples:
            raise ConfigError(
                f"val_fraction={self.val_fraction} leaves no training samples "
                f"out of n_samples={self.n_samples}"
            )
        try:
            self.optimizer.validate()
        except ValueError as exc:
            raise ConfigError(f"optimizer: {exc}") from exc

    # serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data) -> "ModelConfig":
        cfg = _from_json(cls, data, "config")
        cfg.validate()
        return cfg

    @classmethod
    def load(cls, path) -> "ModelConfig":
        with open(path, encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except ValueError as exc:  # not JSON, or not UTF-8
                raise ConfigError(f"{path}: not a UTF-8 JSON file: {exc}") from exc
        return cls.from_dict(data)

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")
