"""Mini-batch training with AdamW and per-epoch validation metrics."""

from __future__ import annotations

import json
from typing import Callable, TextIO

import numpy as np

from .autodiff import Graph, Node
from .data import SyntheticSample
from .metrics import MetricsReport, compute_metrics
from .model import FloodNet, predict
from .params import adamw_step


class TrainingError(RuntimeError):
    pass


def bce_loss(g: Graph, logit: Node, label) -> Node:
    """Mean binary cross entropy of sigmoid(logit): a (1,) node with an int
    label, or a (B, 1) node with B labels.  softplus(-z) for label 1 and
    softplus(z) for label 0, so nothing overflows or cancels at any logit."""
    y = np.asarray(label, dtype=np.float64).reshape(logit.shape)
    return g.reduce_mean(g.softplus(g.mul(logit, g.constant(1.0 - 2.0 * y))))


def evaluate(
    model: FloodNet, samples: list[SyntheticSample]
) -> tuple[np.ndarray, MetricsReport]:
    """Eval-mode pass over samples, one graph per batch_size chunk; returns
    probabilities and metrics.  The graphs have no sources, so they record
    no backward rules."""
    probs = np.empty(len(samples))
    step = model.cfg.batch_size
    for start in range(0, len(samples), step):
        chunk = samples[start:start + step]
        # no name holds the chunk's tape, so it dies before the next forward
        probs[start:start + len(chunk)] = model.forward(
            Graph(param_grads=False), chunk, train=False
        )[0].value.reshape(-1)
    y_true = np.array([s.label for s in samples])
    y_pred = np.array([predict(p) for p in probs])
    return probs, compute_metrics(y_true, y_pred, probs)


def _train_step(model: FloodNet, batch: list, dropout_rng, where: str) -> tuple[float, int]:
    """Forward, loss, backward and AdamW update on one batch's graph, which dies on return."""
    g = Graph()
    p, logit = model.forward(g, batch, train=True, dropout_rng=dropout_rng)
    n_right = sum(predict(pi) == s.label for pi, s in zip(p.value.reshape(-1), batch))
    loss = bce_loss(g, logit, [s.label for s in batch])
    if not np.isfinite(loss.value[0]):
        raise TrainingError(f"non-finite loss at {where}")
    model.store.zero_grad()
    g.backward(loss)
    adamw_step(model.store, model.cfg.optimizer)
    return float(loss.value[0]), n_right


def train(
    model: FloodNet,
    train_set: list[SyntheticSample],
    val_set: list[SyntheticSample],
    epochs: int | None = None,
    trace_file: TextIO | None = None,
    stop_fn: Callable[[dict], bool] | None = None,
) -> list[dict]:
    """Runs up to `epochs` epochs (default from the config) and returns the
    per-epoch history. Each record carries train loss/accuracy and the full
    validation metrics. A non-finite batch loss aborts with TrainingError.

    stop_fn, when given, sees each epoch record and can end training early.
    """
    if not train_set:
        raise ValueError("train_set is empty")
    cfg = model.cfg
    if epochs is None:
        epochs = cfg.epochs
    shuffle_rng = np.random.default_rng([cfg.seed, 0x3AFF])
    dropout_rng = np.random.default_rng([cfg.seed, 0xD0])
    history: list[dict] = []
    for epoch in range(epochs):
        order = shuffle_rng.permutation(len(train_set))
        epoch_loss = 0.0
        n_right = 0
        for bi, start in enumerate(range(0, len(order), cfg.batch_size)):
            batch = [train_set[i] for i in order[start : start + cfg.batch_size]]
            loss, right = _train_step(model, batch, dropout_rng, f"epoch {epoch} batch {bi}")
            n_right += right
            epoch_loss += loss * len(batch)
        _, val_report = evaluate(model, val_set) if val_set else (None, None)
        record = {
            "epoch": epoch,
            "train_loss": epoch_loss / len(train_set),
            "train_accuracy": n_right / len(train_set),
            "val": val_report.to_dict() if val_report else None,
        }
        history.append(record)
        if trace_file is not None:
            trace_file.write(json.dumps(record) + "\n")
            trace_file.flush()
        if stop_fn is not None and stop_fn(record):
            break
    return history
