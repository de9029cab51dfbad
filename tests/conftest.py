import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# property tests draw the same examples on every run and write no database
settings.register_profile("floodnet", derandomize=True, max_examples=25, deadline=None, database=None)
settings.load_profile("floodnet")

from floodnet.config import ModelConfig


def make_tiny_config(**overrides) -> ModelConfig:
    """Smallest configuration that satisfies every divisibility rule."""
    base = dict(
        d_t=6,
        d_i=4,
        d_se=8,
        h=2,
        n_t=4,
        grid=(2, 2),
        image_size=(16, 16),
        hren_channels=4,
        hren_groups=2,
        encoder_plan=(4, 8),
        decoder_plan=(8, 4),
        transformer_depth=1,
        transformer_heads=2,
        d_fused=8,
        n_samples=8,
        batch_size=4,
    )
    base.update(overrides)
    cfg = ModelConfig(**base)
    cfg.validate()
    return cfg


@pytest.fixture
def tiny_config() -> ModelConfig:
    return make_tiny_config()
