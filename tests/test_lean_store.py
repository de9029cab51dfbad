"""A store that never trains holds its values alone: AdamW state is
allocated on first read, or by `zero_grad` for a whole store before a
training step's forward, and checkpoints stream entry by entry."""

import hashlib
import os
import threading
import tracemalloc

import numpy as np
import pytest

from floodnet import training
from floodnet.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from floodnet.config import ModelConfig
from floodnet.data import generate_synthetic_dataset
from floodnet.gradcam import grad_cam
from floodnet.model import FloodNet
from floodnet.params import ParamStore
from floodnet.training import evaluate

from conftest import make_tiny_config

# The sha256 of the tiny config's checkpoint as initialized, from the tree
# whose ParamStore still allocated grad, m and v in `add`.  Its values come
# from the seeded generator alone, so the figure holds on any host.
TINY_CHECKPOINT_SHA256 = "faa0edb96c1ecf42c58327407e5c3cc4b018edc767deea999c764c807922543f"


def _holds_no_state(store: ParamStore) -> bool:
    return not any(e.holds_state for e in store.entries.values())


def _sha256(path) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def test_an_entry_allocates_zeros_of_its_shape_on_first_read():
    store = ParamStore(0)
    store.add("w", (2, 3))
    e = store.entries["w"]
    assert not e.holds_state
    grad = e.grad
    assert grad.shape == (2, 3) and grad.dtype == np.float64 and not grad.any()
    assert e.holds_state and e.grad is grad
    grad[:] = 1.0  # a write on a fresh store lands in the entry's own array
    assert (store.entries["w"].grad == 1.0).all()


def test_zero_grad_gives_each_bare_entry_views_of_one_block_per_kind():
    store = ParamStore(0)
    store.add("a", (2, 3))
    store.add("b", (4,))
    store.add("c", (3,), init="ones")
    own = store.entries["c"].grad
    own[:] = 5.0
    store.zero_grad()
    a, b, c = (store.entries[n] for n in "abc")
    for kind in ("grad", "m", "v"):
        va, vb = getattr(a, kind), getattr(b, kind)
        assert va.base is vb.base and va.base.shape == (10,), kind
        assert va.shape == (2, 3) and vb.shape == (4,) and not va.any() and not vb.any()
    assert len({id(getattr(a, kind).base) for kind in ("grad", "m", "v")}) == 3
    assert c.grad is own and not own.any()  # an entry with state keeps its own arrays
    state = lambda: [getattr(e, kind) for e in (a, b, c) for kind in ("grad", "m", "v")]
    before = state()
    store.zero_grad()  # allocates nothing once every entry holds state
    assert all(x is y for x, y in zip(before, state()))


def test_a_training_step_allocates_the_state_before_its_forward(tiny_config, monkeypatch):
    model = FloodNet(tiny_config)
    assert _holds_no_state(model.store)
    samples = generate_synthetic_dataset(4, 0, 0.0, tiny_config.image_size, tiny_config.n_t)
    seen = []
    forward = FloodNet.forward

    def watched(self, g, sample, train=False, **kwargs):
        seen.append(all(e.holds_state for e in self.store.entries.values()))
        return forward(self, g, sample, train, **kwargs)

    monkeypatch.setattr(FloodNet, "forward", watched)
    training._train_step(model, samples, np.random.default_rng(0), "step 0")
    assert seen == [True]
    blocks = {id(e.grad.base) for e in model.store.entries.values()}
    assert len(blocks) == 1


@pytest.mark.parametrize("loaded", [False, True], ids=["fresh", "loaded"])
def test_evaluate_and_grad_cam_hold_no_optimizer_state(tmp_path, tiny_config, loaded):
    model = FloodNet(tiny_config)
    if loaded:
        path = tmp_path / "model.ckpt"
        save_checkpoint(str(path), model.store)
        store = load_checkpoint(str(path))
        assert _holds_no_state(store)
        model = FloodNet(tiny_config, store=store)
    assert _holds_no_state(model.store)
    samples = generate_synthetic_dataset(4, 1, 0.0, tiny_config.image_size, tiny_config.n_t)
    evaluate(model, samples)
    grad_cam(model, samples[0], "enc0")
    assert _holds_no_state(model.store)


def test_the_checkpoint_bytes_match_the_eager_store(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(str(path), FloodNet(make_tiny_config()).store)
    assert _sha256(path) == TINY_CHECKPOINT_SHA256


def test_training_on_zero_grads_blocks_matches_training_on_own_arrays():
    """Four steps of a store whose entries each hold their own grad, m and
    v, as every store did when `add` allocated them, and of one that gets
    them from `zero_grad`'s blocks give the same losses and values."""
    cfg = make_tiny_config()
    samples = generate_synthetic_dataset(cfg.n_samples, cfg.seed, cfg.difficulty, cfg.image_size, cfg.n_t)
    runs = []
    for own in (True, False):
        model = FloodNet(cfg)
        if own:
            for e in model.store.entries.values():
                e.grad, e.m, e.v  # allocated on read, one array each
        rng = np.random.default_rng([cfg.seed, 0xD0])
        losses = [training._train_step(model, samples[(step % 2) * 4:(step % 2) * 4 + 4], rng, f"step {step}")[0]
                  for step in range(4)]
        values = {n: e.value.tobytes() for n, e in model.store.entries.items()}
        runs.append((losses, values))
    assert runs[0][0] == runs[1][0]
    assert runs[0][1] == runs[1][1]


def test_checkpoint_io_of_the_default_config_holds_one_entry_beyond_the_values(tmp_path):
    """Saving allocates at most one entry's copy; loading, the values it
    returns plus one entry.  Holding the whole file, or copying each entry
    out of it, takes about twice the values' bytes."""
    store = FloodNet(ModelConfig()).store
    values = sum(e.value.nbytes for e in store.entries.values())
    values += sum(b.nbytes for b in store.buffers.values())
    largest = max(e.value.nbytes for e in store.entries.values())
    slack = 256 << 10
    path = str(tmp_path / "model.ckpt")
    tracemalloc.start()
    try:
        save_checkpoint(path, store)
        save_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        loaded = load_checkpoint(path)
        load_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert save_peak <= largest + slack, (save_peak, largest)
    assert load_peak <= values + largest + slack, (load_peak, values, largest)
    for name, e in store.entries.items():
        assert loaded.entries[name].value.tobytes() == e.value.tobytes(), name
        assert loaded.entries[name].value.flags.aligned


def test_extents_past_the_end_of_the_file_are_refused_before_allocating(tmp_path):
    """An entry whose extents claim 2**40 values in a 37-byte file names
    its data offset; no array of that size is built."""
    path = tmp_path / "huge.ckpt"
    path.write_bytes(b"XFLD\x02\x01\x00\x00\x00" + b"\x01\x00x\x01" + (2**40).to_bytes(8, "little")
                     + np.ones(2).tobytes())
    with pytest.raises(CheckpointError) as err:
        load_checkpoint(str(path))
    assert str(err.value) == "byte 21: truncated data"


def test_a_checkpoint_loads_from_a_pipe(tmp_path):
    """A pipe's size reads 0, so its fields are checked by the bytes read:
    the whole file loads, one cut inside a value names the value's offset,
    and a byte past the last entry is refused."""
    store = FloodNet(make_tiny_config()).store
    path = tmp_path / "model.ckpt"
    save_checkpoint(str(path), store)
    data = path.read_bytes()
    first = sorted(store.entries)[0]
    data_off = 9 + 2 + len(first) + 1 + 8 * store.entries[first].value.ndim

    def load_through_pipe(blob):
        r, w = os.pipe()

        def write():
            with open(w, "wb") as f:
                f.write(blob)

        writer = threading.Thread(target=write)
        writer.start()
        try:
            return load_checkpoint(f"/dev/fd/{r}")
        finally:
            os.close(r)  # a writer still blocked on a full pipe then fails and ends
            writer.join()

    loaded = load_through_pipe(data)
    assert sorted(loaded.entries) == sorted(store.entries)
    for name, e in store.entries.items():
        assert loaded.entries[name].value.tobytes() == e.value.tobytes(), name
    with pytest.raises(CheckpointError) as err:
        load_through_pipe(data[:data_off + 8])
    assert str(err.value) == f"byte {data_off}: truncated data"
    with pytest.raises(CheckpointError) as err:
        load_through_pipe(data + b"\0")
    assert str(err.value) == f"byte {len(data)}: trailing bytes after last entry"
