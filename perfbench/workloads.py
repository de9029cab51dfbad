"""The three benchmark workloads: inputs made from the seed, one operation
at a time, and the checks every output must pass.

Every call into floodnet goes through a module attribute (``data.``,
``training.``, ``gradcam.``, ``checkpoint.``) so that the tracer can wrap
those entry points from outside the program.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from floodnet import checkpoint, data, gradcam, training
from floodnet.autodiff import Graph
from floodnet.config import ModelConfig
from floodnet.model import FloodNet

WORKLOADS = ("train_full", "train_no_cctfrm", "infer_explain")
REFS_DIR = Path(__file__).resolve().parent / "refs"

# Reference tolerance: |x - ref| <= REF_RTOL * max(|ref|, 1e-12), for training
# losses, eval probabilities and heatmap sums.  The conv oracle suite pins a
# single op at 1e-10; these outputs sit behind a whole forward pass and, for
# losses, up to four AdamW steps.  Replacing the conv's einsums by im2col
# and matmul, which reorders every conv sum, moved the compared outputs by
# at most 4e-11 relative (probabilities and heatmap sums on seeds 0-15,
# losses on seeds 0-7), so the bound leaves four decades of margin.
REF_RTOL = 1e-6
# Training is chaotic: under that same reordering the drift in the loss
# grew 30-200x per step from about the sixth step on, reaching 8e-4 by step
# 11 of train_full and 1.2 (relative) within 48 steps of train_no_cctfrm.
# So only the first steps' losses are compared: the warm-up step and four
# timed ones, whose drift stayed below 4e-11.
LOSS_REF_STEPS = 5
# A heatmap is the ReLU of a channel sum divided by its peak.  Where the
# peak is within this share of the largest per-pixel sum of the terms'
# magnitudes, rounding decides which pixels survive and whether the map is
# all zero, so its sum is not compared with the reference (the range and
# shape checks still run).  refs/ stores the share per sample as
# "heatmap_margins".
HEATMAP_MIN_MARGIN = 1e-6

EXPLAIN_LAYER = "enc0"  # the `floodnet explain` default tap
EXPLAIN_EVERY = 2  # every second request also gets a Grad-CAM heatmap


class CheckFailed(Exception):
    """An output failed a correctness check."""


def make_config(workload: str, seed: int, smoke: bool) -> ModelConfig:
    """Default ModelConfig for the workload; `smoke` shrinks every extent."""
    kwargs: dict = {"seed": seed}
    if smoke:
        kwargs.update(
            image_size=(16, 16), encoder_plan=(4, 8), decoder_plan=(8, 4),
            transformer_depth=1, transformer_heads=2, d_se=8, d_fused=8,
            hren_channels=4, batch_size=4, n_samples=12,
        )
    if workload == "train_no_cctfrm":
        kwargs["use_cctfrm"] = False
    cfg = ModelConfig(**kwargs)
    cfg.validate()
    return cfg


def load_refs(workload: str, seed: int) -> dict | None:
    path = REFS_DIR / f"{workload}.json"
    if not path.is_file():
        return None
    with open(path) as fh:
        return json.load(fh).get(str(seed))


def _check_close(what: str, value: float, ref: float) -> None:
    if abs(value - ref) > REF_RTOL * max(abs(ref), 1e-12):
        raise CheckFailed(f"{what} = {value!r} differs from reference {ref!r}")


def _check_finite(what: str, value) -> None:
    if not np.all(np.isfinite(value)):
        raise CheckFailed(f"{what} is not finite")


def checkpoint_round_trip(store, path: str):
    """Saves and reloads `store` through XFLD; every parameter and buffer
    must come back bit for bit.  Returns the loaded store."""
    checkpoint.save_checkpoint(path, store)
    try:
        loaded = checkpoint.load_checkpoint(path)
    finally:
        os.remove(path)
    for kind, before, after in (
        ("parameter", {n: e.value for n, e in store.entries.items()},
         {n: e.value for n, e in loaded.entries.items()}),
        ("buffer", store.buffers, loaded.buffers),
    ):
        if sorted(before) != sorted(after):
            raise CheckFailed(f"XFLD round trip changed the {kind} names")
        for name, a in before.items():
            b = after[name]
            if a.shape != b.shape or a.dtype != b.dtype or a.tobytes() != b.tobytes():
                raise CheckFailed(f"XFLD round trip changed {kind} {name!r}")
    return loaded


class Workload:
    """Closed loop with one client: `request` runs one operation (plus,
    for inference, an optional explanation) and returns its timings."""

    kinds: tuple[str, ...] = ()
    batch = 1  # samples per timed operation

    def __init__(self, name: str, seed: int, smoke: bool, scratch: str):
        self.seed = seed
        self.cfg = make_config(name, seed, smoke)
        self.refs = None if smoke else load_refs(name, seed)
        self.ckpt_path = os.path.join(scratch, f"{name}-{os.getpid()}.ckpt")
        self.n_requests = 0
        self.ref_checked = 0
        self.ref_skipped = 0  # ill-conditioned heatmaps not compared

    def _samples(self):
        cfg = self.cfg
        samples = data.generate_synthetic_dataset(
            cfg.n_samples, cfg.seed, cfg.difficulty, cfg.image_size, cfg.n_t
        )
        return data.split_dataset(samples, cfg.val_fraction, cfg.seed)

    def _ref(self, key: str, index: int):
        if self.refs is None or index >= len(self.refs[key]):
            return None
        self.ref_checked += 1
        return self.refs[key][index]

    def at_boundary(self) -> bool:
        """True where the loop may stop without skewing the request mix."""
        return True

    def _timed(self, kind: str, label: str, call, check) -> tuple[str, float, str | None]:
        """Times `call` alone; a raise, or a CheckFailed from `check` on
        its result, fails the operation."""
        t0 = time.perf_counter()
        try:
            result = call()
        except Exception as exc:  # any raise is a failed operation
            return (kind, time.perf_counter() - t0, f"{label}: {type(exc).__name__}: {exc}")
        dt = time.perf_counter() - t0
        try:
            check(result)
        except CheckFailed as exc:
            return (kind, dt, str(exc))
        return (kind, dt, None)


class TrainWorkload(Workload):
    """One operation = one AdamW step on a batch through `training.train`."""

    kinds = ("step",)

    def setup(self) -> list[tuple[str, float, str | None]]:
        self.train_set, _ = self._samples()
        self.model = FloodNet(self.cfg)
        self.batch = self.cfg.batch_size
        self.losses: list[float] = []
        # Batches are class-balanced: the loss adds a different number of
        # tape nodes per label, and equal mixes give every step the same tape.
        self._order_rng = np.random.default_rng([self.seed, 0xBA7C])
        self._by_class = [[i for i, s in enumerate(self.train_set) if s.label == c] for c in (0, 1)]
        self._queues: list[list[int]] = [[], []]
        return self.request()  # warm-up step

    def _next_batch(self) -> list:
        picked = []
        for c, want in enumerate((self.batch // 2, self.batch - self.batch // 2)):
            queue = self._queues[c]
            while len(queue) < want:
                queue.extend(self._order_rng.permutation(self._by_class[c]).tolist())
            picked += queue[:want]
            del queue[:want]
        return [self.train_set[i] for i in picked]

    def request(self) -> list[tuple[str, float, str | None]]:
        step = self.n_requests
        self.n_requests += 1
        batch = self._next_batch()
        return [self._timed("step", f"step {step}",
                            lambda: training.train(self.model, batch, [], epochs=1),
                            lambda history: self._check_loss(step, history[0]["train_loss"]))]

    def _check_loss(self, step: int, loss: float) -> None:
        self.losses.append(loss)
        _check_finite(f"step {step} loss", loss)
        ref = self._ref("losses", step)
        if ref is not None:
            _check_close(f"step {step} loss", loss, ref)

    def teardown(self) -> str | None:
        """Round-trips the trained model, as `floodnet train` saves it;
        returns the failed check, if any."""
        try:
            checkpoint_round_trip(self.model.store, self.ckpt_path)
        except CheckFailed as exc:
            return str(exc)
        return None


class InferWorkload(Workload):
    """One request = classify one held-out sample forward-only, as
    `floodnet eval` does; every EXPLAIN_EVERY-th request also computes a
    Grad-CAM heatmap at EXPLAIN_LAYER, as `floodnet explain` does."""

    kinds = ("classify", "explain")

    def setup(self) -> list[tuple[str, float, str | None]]:
        _, self.held_out = self._samples()
        fresh = FloodNet(self.cfg)
        store = checkpoint_round_trip(fresh.store, self.ckpt_path)
        self.model = FloodNet(self.cfg, store=store)
        taps: dict = {}
        self.model.forward(Graph(), self.held_out[0], train=False, taps=taps)
        self.tap_shape = taps[EXPLAIN_LAYER].value.shape[:2]
        self._walk_rng = np.random.default_rng([self.seed, 0x1A1C])
        self._walk: list[int] = []
        return self.request(explain=True)  # warm-up request

    def at_boundary(self) -> bool:
        return self.n_requests % EXPLAIN_EVERY == 1

    def classify(self, sample) -> float:
        probs, _ = training.evaluate(self.model, [sample])
        return float(probs[0])

    def explain(self, sample) -> np.ndarray:
        return gradcam.grad_cam(self.model, sample, EXPLAIN_LAYER)

    def cam_margin(self, sample) -> float:
        """Peak of the pre-ReLU map that `grad_cam` normalizes, over the
        largest per-pixel sum of its terms' magnitudes."""
        taps: dict = {}
        g = Graph()
        _, logit = self.model.forward(g, sample, train=False, taps=taps)
        g.backward(logit)
        node = taps[EXPLAIN_LAYER]
        if node.grad is None:
            return 0.0
        terms = node.value * node.grad.mean(axis=(0, 1))[None, None, :]
        scale = np.abs(terms).sum(axis=2).max()
        return float(terms.sum(axis=2).max() / scale) if scale > 0 else 0.0

    def request(self, explain: bool | None = None) -> list[tuple[str, float, str | None]]:
        i = self.n_requests
        self.n_requests += 1
        if explain is None:
            explain = i % EXPLAIN_EVERY == 0
        if not self._walk:
            self._walk = self._walk_rng.permutation(len(self.held_out)).tolist()
        j = self._walk.pop()
        sample = self.held_out[j]
        out = [self._timed("classify", f"classify sample {j}", lambda: self.classify(sample),
                           lambda prob: self._check_prob(j, prob))]
        if explain:
            out.append(self._timed("explain", f"explain sample {j}", lambda: self.explain(sample),
                                   lambda heatmap: self._check_heatmap(j, heatmap)))
        return out

    def _check_prob(self, j: int, prob: float) -> None:
        _check_finite(f"sample {j} probability", prob)
        if not 0.0 <= prob <= 1.0:
            raise CheckFailed(f"sample {j} probability {prob!r} outside [0, 1]")
        ref = self._ref("probs", j)
        if ref is not None:
            _check_close(f"sample {j} probability", prob, ref)

    def _check_heatmap(self, j: int, heatmap: np.ndarray) -> None:
        _check_finite(f"sample {j} heatmap", heatmap)
        if heatmap.shape != self.tap_shape:
            raise CheckFailed(f"sample {j} heatmap shape {heatmap.shape} != tap {self.tap_shape}")
        if heatmap.size and (heatmap.min() < 0.0 or heatmap.max() > 1.0):
            raise CheckFailed(f"sample {j} heatmap leaves [0, 1]")
        if self.refs is not None and abs(self.refs["heatmap_margins"][j]) < HEATMAP_MIN_MARGIN:
            self.ref_skipped += 1
            return
        ref = self._ref("heatmap_sums", j)
        if ref is not None:
            _check_close(f"sample {j} heatmap sum", float(heatmap.sum()), ref)

    def teardown(self) -> str | None:
        return None  # the round trip ran in set-up


def make_workload(name: str, seed: int, smoke: bool, scratch: str) -> Workload:
    cls = InferWorkload if name == "infer_explain" else TrainWorkload
    return cls(name, seed, smoke, scratch)
