import hashlib
import re
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from floodnet.checkpoint import (
    BUFFER_PREFIX,
    VERSION,
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)
from floodnet.config import ConfigError, ModelConfig
from floodnet.data import generate_synthetic_dataset, split_dataset
from floodnet.mfim import TEXT_VOCAB, InputError, stub_text_encoder
from floodnet.params import AdamWConfig, ParamStore


# ---- synthetic dataset -----------------------------------------------


def test_dataset_is_deterministic():
    a = generate_synthetic_dataset(10, seed=3, difficulty=0.4)
    b = generate_synthetic_dataset(10, seed=3, difficulty=0.4)
    for sa, sb in zip(a, b):
        np.testing.assert_array_equal(sa.tokens, sb.tokens)
        np.testing.assert_array_equal(sa.image, sb.image)
        assert sa.label == sb.label


def test_dataset_is_balanced():
    for n in (7, 8, 20):
        labels = [s.label for s in generate_synthetic_dataset(n, seed=0)]
        assert abs(labels.count(1) - labels.count(0)) <= 1


def test_dataset_brightness_threshold_separates_easy_classes():
    samples = generate_synthetic_dataset(60, seed=1, difficulty=0.0)
    means = np.array([s.image.mean() for s in samples])
    labels = np.array([s.label for s in samples])
    threshold = 0.45
    assert np.array_equal((means > threshold).astype(int), labels)


def test_dataset_token_bands_disjoint_at_zero_difficulty():
    samples = generate_synthetic_dataset(20, seed=2, difficulty=0.0)
    for s in samples:
        if s.label == 1:
            assert np.all(s.tokens < 16)
        else:
            assert np.all((s.tokens >= 16) & (s.tokens < 32))


@pytest.mark.parametrize("bad", [-1, TEXT_VOCAB, 70])
def test_token_ids_outside_the_vocabulary_are_refused(bad):
    ids = np.concatenate([s.tokens for s in generate_synthetic_dataset(20, seed=1, difficulty=1.0)])
    assert 0 <= ids.min() and ids.max() < TEXT_VOCAB
    with pytest.raises(InputError, match=f"token id {bad} is outside the vocabulary"):
        stub_text_encoder([5, bad, 6], d_t=4, seed=0)


def test_dataset_rejects_bad_arguments():
    with pytest.raises(ValueError):
        generate_synthetic_dataset(0, seed=0)
    with pytest.raises(ValueError):
        generate_synthetic_dataset(4, seed=0, difficulty=1.5)


def test_split_is_deterministic_and_disjoint():
    samples = generate_synthetic_dataset(20, seed=4)
    tr1, va1 = split_dataset(samples, 0.2, seed=7)
    tr2, va2 = split_dataset(samples, 0.2, seed=7)
    assert len(va1) == 4 and len(tr1) == 16
    assert [id(s) for s in tr1] == [id(s) for s in tr2]
    assert [id(s) for s in va1] == [id(s) for s in va2]
    assert not set(id(s) for s in tr1) & set(id(s) for s in va1)


# sha256 over the stacked tokens, images and labels of every dataset in
# _DATASET_GRID, measured when each grey image still held three copies of
# its plane; storing the plane once must not move a byte.
_DATASET_SHA256 = "0710081b6093bae659c804f7176f64499d1f78b5ff353ff7a53d76947d73aa9c"
_DATASET_GRID = [
    (seed, difficulty, size)
    for seed in (0, 1, 5)
    for difficulty in (0.0, 0.3, 1.0)
    for size in ((64, 64), (16, 16), (32, 8), (48, 80))
]


def test_dataset_bytes_are_pinned():
    digest = hashlib.sha256()
    for seed, difficulty, size in _DATASET_GRID:
        samples = generate_synthetic_dataset(5, seed, difficulty, size)
        for arr in (np.stack([s.tokens for s in samples]), np.stack([s.image for s in samples]),
                    np.array([s.label for s in samples])):
            digest.update(arr.tobytes())
    assert digest.hexdigest() == _DATASET_SHA256


@pytest.mark.parametrize("difficulty", [0.0, 0.3])
def test_images_are_read_only_and_grey_ones_share_one_plane(difficulty):
    for s in generate_synthetic_dataset(6, seed=2, difficulty=difficulty, image_size=(16, 8)):
        assert s.image.shape == (16, 8, 3) and s.image.dtype == np.float64
        assert not s.image.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            s.image[0, 0, 0] = 0.5
        assert (s.image.strides[-1] == 0) == (difficulty == 0.0)


def test_grey_dataset_holds_one_plane_per_image():
    n, (H, W) = 200, (64, 64)
    tracemalloc.start()
    try:
        samples = generate_synthetic_dataset(n, seed=0, image_size=(H, W))
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(samples) == n
    assert held <= n * H * W * 8 + 2**19


def test_every_small_extent_generates():
    for H in range(2, 9):
        for W in range(2, 9):
            for s in generate_synthetic_dataset(4, seed=H * 10 + W, image_size=(H, W)):
                assert s.image.shape == (H, W, 3)
                assert np.all((s.image >= 0.0) & (s.image <= 1.0))


# ---- checkpoint ------------------------------------------------------


def _populated_store():
    store = ParamStore(5)
    store.add("alpha.w", (3, 4))
    store.add("beta.b", (2,), init="zeros")
    store.entries["beta.b"].value[:] = [1.5, -2.5]
    store.add_buffer("bn.running_mean", np.array([0.1, 0.2]))
    return store


def test_checkpoint_round_trip_bit_exact(tmp_path):
    store = _populated_store()
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(path, store)
    loaded = load_checkpoint(path)
    assert sorted(loaded.entries) == sorted(store.entries)
    for name in store.entries:
        np.testing.assert_array_equal(loaded.entries[name].value, store.entries[name].value)
    np.testing.assert_array_equal(
        loaded.buffers["bn.running_mean"], store.buffers["bn.running_mean"]
    )


def test_checkpoint_corrupted_magic_names_offset_zero(tmp_path):
    store = _populated_store()
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(path, store)
    blob = bytearray(Path(path).read_bytes())
    blob[:4] = b"NOPE"
    Path(path).write_bytes(bytes(blob))
    with pytest.raises(CheckpointError) as err:
        load_checkpoint(path)
    assert err.value.offset == 0


def test_checkpoint_truncation_detected(tmp_path):
    store = _populated_store()
    path = str(tmp_path / "model.ckpt")
    size = save_checkpoint(path, store)
    Path(path).write_bytes(Path(path).read_bytes()[: size - 5])
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_checkpoint_every_truncation_names_its_field(tmp_path):
    store = _populated_store()
    path = str(tmp_path / "model.ckpt")
    size = save_checkpoint(path, store)
    blob = Path(path).read_bytes()
    # (offset, size, message) of every field after the header, from the
    # layout in the module docstring
    fields = []
    off = 9
    names = sorted(store.entries) + [BUFFER_PREFIX + n for n in sorted(store.buffers)]
    arrays = [store.entries[n].value for n in sorted(store.entries)] + [
        store.buffers[n] for n in sorted(store.buffers)
    ]
    for name, arr in zip(names, arrays):
        for n, what in ((2, "truncated name length"), (len(name.encode()), "truncated name"),
                        (1, "truncated rank"), (8 * arr.ndim, "truncated extents"),
                        (8 * arr.size, "truncated data")):
            fields.append((off, n, what))
            off += n
    assert off == size
    for cut in range(size):
        Path(path).write_bytes(blob[:cut])
        if cut < 9:
            want = (0, "file shorter than header")
        else:
            want = next((o, what) for o, n, what in fields if cut < o + n)
        with pytest.raises(CheckpointError) as err:
            load_checkpoint(path)
        assert (err.value.offset, str(err.value)) == (want[0], f"byte {want[0]}: {want[1]}"), cut


def _write_entries(path, entries):
    """A checkpoint of (name bytes, float array) entries, laid out as the
    module docstring says, whatever the names and values."""
    blob = b"XFLD" + struct.pack("<BI", VERSION, len(entries))
    for name, arr in entries:
        blob += struct.pack("<H", len(name)) + name
        blob += struct.pack(f"<B{arr.ndim}Q", arr.ndim, *arr.shape) + arr.astype("<f8").tobytes()
    path.write_bytes(blob)


@pytest.mark.parametrize("name,kind", [(b"x", "parameter"), (b"buffer.x", "buffer")])
def test_checkpoint_duplicate_name_names_its_offset(tmp_path, name, kind):
    path = tmp_path / "dup.ckpt"
    _write_entries(path, [(name, np.ones(2)), (name, np.ones(2))])
    # header 9, first entry 2 + len(name) + 1 + 8 + 16, second name length 2
    off = 9 + (2 + len(name) + 1 + 8 + 16) + 2
    with pytest.raises(CheckpointError) as err:
        load_checkpoint(str(path))
    assert str(err.value) == f"byte {off}: duplicate {kind} 'x'"


def test_checkpoint_name_that_is_not_utf8_names_its_offset(tmp_path):
    path = tmp_path / "name.ckpt"
    _write_entries(path, [(b"a\xffb", np.ones(2))])
    with pytest.raises(CheckpointError) as err:
        load_checkpoint(str(path))
    assert str(err.value) == "byte 11: name is not valid utf-8"  # header 9, name length 2


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_checkpoint_non_finite_value_names_its_offset(tmp_path, bad):
    path = tmp_path / "nan.ckpt"
    _write_entries(path, [(b"x", np.array([[1.0, 2.0], [3.0, bad]]))])
    with pytest.raises(CheckpointError) as err:
        load_checkpoint(str(path))
    # header 9, name length 2, "x" 1, rank 1, extents 16
    assert str(err.value) == "byte 29: 'x' holds a non-finite value"


def test_checkpoint_size_accounting(tmp_path):
    store = _populated_store()
    path = str(tmp_path / "model.ckpt")
    size = save_checkpoint(path, store)
    names = sorted(store.entries) + [BUFFER_PREFIX + n for n in sorted(store.buffers)]
    arrays = [store.entries[n].value for n in sorted(store.entries)] + [
        store.buffers[n] for n in sorted(store.buffers)
    ]
    expected = 4 + 1 + 4  # magic + version + count
    for name, arr in zip(names, arrays):
        expected += 2 + len(name.encode()) + 1 + 8 * arr.ndim + 8 * arr.size
    assert size == expected
    import os

    assert os.path.getsize(path) == expected


# ---- config ----------------------------------------------------------


def test_config_round_trip(tmp_path):
    cfg = ModelConfig(d_se=32, h=4, epochs=7)
    path = tmp_path / "cfg.json"
    cfg.save(path)
    loaded = ModelConfig.load(path)
    assert loaded == cfg


def test_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"d_se": 16, "bogus": 1}')
    with pytest.raises(ConfigError, match="bogus"):
        ModelConfig.load(path)


def test_config_rejects_invalid_json(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        ModelConfig.load(path)


@pytest.mark.parametrize(
    "field,value",
    [
        ("h", 3),
        ("d_se", 10),
        ("dropout", 1.0),
        ("val_fraction", 0.0),
        ("hren_kernel", 4),
        ("image_size", (60, 64)),
        ("val_fraction", 0.999),
        ("d_se", 0),
        ("d_i", 0),
        ("d_t", 0),
        ("d_fused", 0),
        ("hren_channels", 0),
        ("image_size", (0, 0)),
        ("decoder_plan", (0,)),
        ("d_t", -3),
        ("transformer_depth", -1),
        ("optimizer", AdamWConfig(learning_rate=float("nan"))),
        ("optimizer", AdamWConfig(learning_rate=float("inf"))),
        ("optimizer", AdamWConfig(weight_decay=float("inf"))),
        ("optimizer", AdamWConfig(epsilon=0.0)),
        ("seed", -3),
    ],
)
def test_config_validation_names_field(field, value):
    cfg = ModelConfig(**{field: value})
    with pytest.raises(ConfigError, match=re.escape(field)):
        cfg.validate()


def test_config_optimizer_nested_object(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"optimizer": {"learning_rate": 0.001}}')
    cfg = ModelConfig.load(path)
    assert cfg.optimizer.learning_rate == 0.001
    path.write_text('{"optimizer": {"lr": 0.001}}')
    with pytest.raises(ConfigError):
        ModelConfig.load(path)
