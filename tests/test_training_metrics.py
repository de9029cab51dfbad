import gc
import math
import weakref

import numpy as np
import pytest

from floodnet.autodiff import Graph
from floodnet.data import generate_synthetic_dataset, split_dataset
from floodnet.metrics import compute_metrics, log_loss, mcnemar_test
from floodnet.mfim import InputError
from floodnet.model import FloodNet, predict
from floodnet.params import AdamWConfig
from floodnet.training import bce_loss, evaluate, train

from conftest import make_tiny_config
from oracles import binom_two_sided


# ---- prediction head -------------------------------------------------


def test_head_zero_weights_gives_half():
    cfg = make_tiny_config()
    model = FloodNet(cfg)
    for name in ("uffm.w1", "uffm.b1", "uffm.w2", "uffm.b2"):
        model.store.entries[name].value[:] = 0.0
    g = Graph()
    d = cfg.d_fused + cfg.d_se + cfg.d_r
    rng = np.random.default_rng(0)
    prob, _ = model.head(
        g,
        g.constant(rng.standard_normal(cfg.d_fused)),
        g.constant(rng.standard_normal(cfg.d_se)),
        g.constant(rng.standard_normal(cfg.d_r)),
    )
    assert prob.value[0] == 0.5
    assert d == cfg.d_fused + cfg.d_se + cfg.d_r


def test_head_final_bias_monotonicity():
    cfg = make_tiny_config()
    model = FloodNet(cfg)
    rng = np.random.default_rng(1)
    parts = [rng.standard_normal(cfg.d_fused), rng.standard_normal(cfg.d_se),
             rng.standard_normal(cfg.d_r)]
    probs = []
    for bias in (-1.0, 0.0, 1.0):
        model.store.entries["uffm.b2"].value[:] = bias
        g = Graph()
        p, _ = model.head(g, *(g.constant(v) for v in parts))
        probs.append(p.value[0])
    assert probs[0] < probs[1] < probs[2]


def test_head_matches_matmul_sigmoid_oracle():
    cfg = make_tiny_config()
    model = FloodNet(cfg)
    rng = np.random.default_rng(2)
    parts = [rng.standard_normal(cfg.d_fused), rng.standard_normal(cfg.d_se),
             rng.standard_normal(cfg.d_r)]
    g = Graph()
    p, logit = model.head(g, *(g.constant(v) for v in parts))
    flat = np.concatenate(parts)
    e = model.store.entries
    hidden = np.maximum(flat @ e["uffm.w1"].value + e["uffm.b1"].value, 0.0)
    z = hidden @ e["uffm.w2"].value + e["uffm.b2"].value
    assert abs(logit.value[0] - z[0]) < 1e-12
    assert abs(p.value[0] - 1.0 / (1.0 + np.exp(-z[0]))) < 1e-12


def test_predict_threshold_and_tie_break():
    assert predict(0.51) == 1
    assert predict(0.49) == 0
    assert predict(0.5) == 1


# ---- BCE -------------------------------------------------------------


def test_bce_perfect_prediction_is_near_zero():
    g = Graph()
    loss = bce_loss(g, g.constant([40.0]), 1)
    assert 0.0 <= loss.value[0] < 1.1e-7


def test_bce_maximal_uncertainty():
    g = Graph()
    for label in (0, 1):
        loss = bce_loss(g, g.constant([0.0]), label)
        assert abs(loss.value[0] - np.log(2.0)) < 1e-12


def test_bce_batch_matches_summation_oracle():
    rng = np.random.default_rng(3)
    probs = rng.uniform(0.05, 0.95, size=8)
    labels = rng.integers(0, 2, size=8)
    g = Graph()
    total = None
    for p, y in zip(probs, labels):
        term = bce_loss(g, g.constant([np.log(p / (1 - p))]), int(y))
        total = term if total is None else g.add(total, term)
    mean = g.mul(total, 1.0 / 8)
    expected = -np.mean(labels * np.log(probs) + (1 - labels) * np.log(1 - probs))
    assert abs(mean.value[0] - expected) < 1e-12


@pytest.mark.parametrize("z,label", [(40.0, 0), (-40.0, 1)])
def test_bce_wrong_label_saturated_logit_keeps_unit_gradient(z, label):
    # sigmoid(z) rounds to exactly 0 or 1 here, so a loss built from the
    # probability would stall; from the logit it is |z| with slope sigmoid(z) - y
    g = Graph()
    logit = g.constant([z])
    g.watch(logit)
    loss = bce_loss(g, logit, label)
    g.backward(loss)
    assert loss.value[0] == 40.0
    assert logit.grad[0] == np.sign(z)


def test_bce_matches_stable_reference_over_logit_grid():
    for z in np.linspace(-40.0, 40.0, 4001):
        for y in (0, 1):
            g = Graph()
            logit = g.constant([z])
            g.watch(logit)
            loss = bce_loss(g, logit, y)
            g.backward(loss)
            expected = max(z, 0.0) - y * z + np.log1p(np.exp(-abs(z)))
            assert abs(loss.value[0] - expected) <= 1e-15 * expected, (z, y)
            # sigmoid(z) - y, each form free of cancellation
            slope = 1.0 / (1.0 + np.exp(-z)) if y == 0 else -1.0 / (1.0 + np.exp(z))
            assert abs(logit.grad[0] - slope) <= 1e-15 * abs(slope), (z, y)


# ---- training loop ---------------------------------------------------


def _tiny_run(cfg, epochs):
    samples = generate_synthetic_dataset(cfg.n_samples, cfg.seed, cfg.difficulty,
                                         cfg.image_size, cfg.n_t)
    train_set, val_set = split_dataset(samples, cfg.val_fraction, cfg.seed)
    model = FloodNet(cfg)
    history = train(model, train_set, val_set, epochs=epochs)
    return model, history


def test_zero_learning_rate_freezes_eval_loss():
    # batch-norm-free variant: running buffers would otherwise keep folding
    # batch statistics even with a frozen optimizer
    cfg = make_tiny_config(optimizer=AdamWConfig(learning_rate=0.0), dropout=0.0,
                           use_cctfrm=False, use_hcamam=False)
    _, history = _tiny_run(cfg, epochs=3)
    losses = [h["val"]["log_loss"] for h in history]
    assert losses[0] == losses[1] == losses[2]


def test_same_seed_gives_identical_traces():
    cfg_a = make_tiny_config()
    cfg_b = make_tiny_config()
    _, ha = _tiny_run(cfg_a, epochs=2)
    _, hb = _tiny_run(cfg_b, epochs=2)
    assert ha == hb


def test_training_reduces_loss():
    cfg = make_tiny_config(optimizer=AdamWConfig(learning_rate=1e-3), dropout=0.0)
    _, history = _tiny_run(cfg, epochs=5)
    assert history[-1]["train_loss"] < history[0]["train_loss"]


def test_evaluate_returns_probabilities_in_range():
    cfg = make_tiny_config()
    model = FloodNet(cfg)
    samples = generate_synthetic_dataset(4, 0, 0.0, cfg.image_size, cfg.n_t)
    probs, report = evaluate(model, samples)
    assert np.all((probs > 0) & (probs < 1))
    assert report.tp + report.tn + report.fp + report.fn == 4


def _train_step(model, batch, batched):
    """One forward, loss and backward with a fresh dropout generator: either
    as one batched graph or per sample on one graph, as training once ran."""
    rng = np.random.default_rng(7)
    model.store.zero_grad()
    g = Graph()
    if batched:
        _, logit = model.forward(g, batch, train=True, dropout_rng=rng)
        loss = bce_loss(g, logit, [s.label for s in batch])
    else:
        total = None
        for s in batch:
            _, logit = model.forward(g, s, train=True, dropout_rng=rng)
            term = bce_loss(g, logit, s.label)
            total = term if total is None else g.add(total, term)
        loss = g.mul(total, 1.0 / len(batch))
    g.backward(loss)
    grads = {n: e.grad.copy() for n, e in model.store.entries.items()}
    return float(loss.value[0]), grads, dict(model.store.buffers)


def test_batched_step_matches_per_sample_step():
    cfg = make_tiny_config(dropout=0.5)
    batch = generate_synthetic_dataset(4, 3, 0.3, cfg.image_size, cfg.n_t)
    assert sorted(s.label for s in batch) == [0, 0, 1, 1]
    loss_ref, grads_ref, bufs_ref = _train_step(FloodNet(cfg), batch, batched=False)
    loss, grads, bufs = _train_step(FloodNet(cfg), batch, batched=True)
    assert abs(loss - loss_ref) <= 1e-12 * abs(loss_ref)
    top = max(np.abs(v).max() for v in grads_ref.values())
    for name, ref in grads_ref.items():
        assert np.abs(grads[name] - ref).max() <= 1e-9 * top, name
    assert sorted(bufs) == sorted(bufs_ref)
    for name, ref in bufs_ref.items():
        np.testing.assert_array_equal(bufs[name], ref)


def test_evaluate_chunks_match_per_sample_forwards():
    cfg = make_tiny_config()
    model = FloodNet(cfg)
    samples = generate_synthetic_dataset(5, 4, 0.3, cfg.image_size, cfg.n_t)
    probs, _ = evaluate(model, samples)  # chunks of 4 and 1
    ref = [model.forward(Graph(), s)[0].value[0] for s in samples]
    assert np.abs(probs - ref).max() <= 1e-12
    assert probs[4] == ref[4]  # the lone chunk is a batch of one, bit for bit the unbatched forward


@pytest.mark.xfail(strict=True, reason=(
    "eval-mode batch norm subtracts running buffers where training normalizes "
    "each map by its own statistics; the fix moves evaluate's probabilities, "
    "so it waits for a regeneration of the benchmark references"))
def test_evaluate_matches_a_train_mode_forward_after_training():
    cfg = make_tiny_config(dropout=0.0, seed=5, n_samples=16, epochs=3)
    samples = generate_synthetic_dataset(cfg.n_samples, cfg.seed, cfg.difficulty, cfg.image_size, cfg.n_t)
    model = FloodNet(cfg)
    train(model, *split_dataset(samples, cfg.val_fraction, cfg.seed))
    probs, _ = evaluate(model, samples)  # first: a train-mode forward folds the buffers
    prob, _ = model.forward(Graph(param_grads=False), samples, train=True)
    assert np.abs(prob.value.reshape(-1) - probs).max() <= 1e-9


def test_evaluate_records_no_backward_rules(monkeypatch):
    """evaluate's graphs have no sources: every node is inactive and
    carries no rule, and the parameters' grads stay as they were."""
    cfg = make_tiny_config()
    model = FloodNet(cfg)
    samples = generate_synthetic_dataset(5, 4, 0.3, cfg.image_size, cfg.n_t)
    forward, graphs = FloodNet.forward, []

    def spy(self, g, *args, **kwargs):
        graphs.append(g)
        return forward(self, g, *args, **kwargs)

    monkeypatch.setattr(FloodNet, "forward", spy)
    for e in model.store.entries.values():
        e.grad[...] = 3.0
    evaluate(model, samples)  # chunks of 4 and 1
    assert len(graphs) == 2
    for g in graphs:
        assert g.nodes and all(not n.active and n.bwd is None for n in g.nodes)
    assert all((e.grad == 3.0).all() for e in model.store.entries.values())


def test_each_batch_tape_dies_before_the_next_forward(monkeypatch):
    """With the cycle collector off, every value a forward returned is dead
    when the next forward starts, in train and in evaluate alike."""
    cfg = make_tiny_config()
    model = FloodNet(cfg)
    samples = generate_synthetic_dataset(8, cfg.seed, cfg.difficulty, cfg.image_size, cfg.n_t)
    forward, previous, alive = FloodNet.forward, [], []

    def watched(self, *args, **kwargs):
        alive.append(sum(ref() is not None for ref in previous))
        prob, logit = forward(self, *args, **kwargs)
        previous[:] = [weakref.ref(prob.value), weakref.ref(logit.value)]
        return prob, logit

    monkeypatch.setattr(FloodNet, "forward", watched)
    gc.disable()
    try:
        train(model, samples, [], epochs=1)  # two batches of 4
        evaluate(model, samples[:7])  # chunks of 4 and 3
    finally:
        gc.enable()
    assert alive == [0, 0, 0, 0]


def test_evaluate_rejects_mixed_token_counts():
    cfg = make_tiny_config()
    samples = generate_synthetic_dataset(2, 0, 0.0, cfg.image_size, cfg.n_t)
    samples[1].tokens = np.append(samples[1].tokens, 3)
    with pytest.raises(InputError, match=r"\b4\b.*\b5\b"):
        evaluate(FloodNet(cfg), samples)


def test_train_rejects_empty_training_set():
    cfg = make_tiny_config()
    with pytest.raises(ValueError, match="empty"):
        train(FloodNet(cfg), [], [], epochs=1)


# ---- metrics ---------------------------------------------------------


def test_metrics_perfect_predictions():
    y = np.array([0, 1, 0, 1, 1])
    r = compute_metrics(y, y)
    assert (r.accuracy, r.precision, r.recall, r.f1) == (1.0, 1.0, 1.0, 1.0)
    assert (r.mcc, r.kappa) == (1.0, 1.0)


def test_metrics_degenerate_all_positive():
    y = np.ones(6, dtype=int)
    r = compute_metrics(y, y)
    assert r.kappa == 1.0
    assert r.mcc == 0.0  # zero marginals convention


def test_metrics_hand_confusion_matrix():
    # TP=3, FP=1, FN=2, TN=4
    y_true = np.array([1, 1, 1, 1, 1, 0, 0, 0, 0, 0])
    y_pred = np.array([1, 1, 1, 0, 0, 1, 0, 0, 0, 0])
    r = compute_metrics(y_true, y_pred)
    assert (r.tp, r.fp, r.fn, r.tn) == (3, 1, 2, 4)
    assert abs(r.accuracy - 0.7) < 1e-12
    assert abs(r.precision - 3 / 4) < 1e-12
    assert abs(r.recall - 3 / 5) < 1e-12
    assert abs(r.f1 - 2 * (3 / 4) * (3 / 5) / (3 / 4 + 3 / 5)) < 1e-12
    mcc = (3 * 4 - 1 * 2) / np.sqrt((3 + 1) * (3 + 2) * (4 + 1) * (4 + 2))
    assert abs(r.mcc - mcc) < 1e-12
    pe = ((3 + 1) * (3 + 2) + (4 + 2) * (4 + 1)) / 100
    assert abs(r.kappa - (0.7 - pe) / (1 - pe)) < 1e-12


def test_metrics_permutation_invariance():
    rng = np.random.default_rng(4)
    y_true = rng.integers(0, 2, 20)
    y_pred = rng.integers(0, 2, 20)
    perm = rng.permutation(20)
    assert compute_metrics(y_true, y_pred) == compute_metrics(y_true[perm], y_pred[perm])


def test_f1_is_harmonic_mean():
    y_true = np.array([1, 1, 0, 0, 1])
    y_pred = np.array([1, 0, 1, 0, 1])
    r = compute_metrics(y_true, y_pred)
    assert abs(r.f1 - 2 * r.precision * r.recall / (r.precision + r.recall)) < 1e-12


def test_log_loss_cases():
    assert abs(log_loss([1], [0.5]) - np.log(2.0)) < 1e-12
    assert log_loss([1], [1.0]) < 1.1e-7
    rng = np.random.default_rng(5)
    y = rng.integers(0, 2, 10)
    p = rng.uniform(0.1, 0.9, 10)
    expected = -np.mean(y * np.log(p) + (1 - y) * np.log(1 - p))
    assert abs(log_loss(y, p) - expected) < 1e-12


# ---- McNemar ---------------------------------------------------------


def test_mcnemar_identical_predictions():
    y = np.array([0, 1, 1, 0])
    pred = np.array([0, 1, 0, 0])
    stat, p = mcnemar_test(y, pred, pred)
    assert (stat, p) == (0, 1.0)


def test_mcnemar_closed_form_b0_c10():
    y = np.zeros(10, dtype=int)
    pred_a = np.ones(10, dtype=int)  # all wrong
    pred_b = np.zeros(10, dtype=int)  # all right
    stat, p = mcnemar_test(y, pred_a, pred_b)
    assert stat == 0
    assert abs(p - 2 * 0.5**10) < 1e-15


def test_mcnemar_matches_binomial_sum_oracle():
    rng = np.random.default_rng(6)
    y = rng.integers(0, 2, 40)
    pred_a = rng.integers(0, 2, 40)
    pred_b = rng.integers(0, 2, 40)
    right_a = pred_a == y
    right_b = pred_b == y
    b = int(np.sum(right_a & ~right_b))
    c = int(np.sum(~right_a & right_b))
    _, p = mcnemar_test(y, pred_a, pred_b)
    assert abs(p - binom_two_sided(b, c)) < 1e-12


def _discordant(b, c):
    """Labels and predictions with b a-right/b-wrong and c a-wrong/b-right pairs."""
    pred_a = np.r_[np.zeros(b, dtype=int), np.ones(c, dtype=int)]
    return np.zeros(b + c, dtype=int), pred_a, 1 - pred_a


def test_mcnemar_small_n_hand_value():
    # b=1, c=4: 2 * (C(5,0) + C(5,1)) / 2**5 = 12/32
    assert mcnemar_test(*_discordant(1, 4)) == (1, 0.375)


def test_mcnemar_large_balanced_discordant_counts():
    assert mcnemar_test(*_discordant(550, 550)) == (550, 1.0)


def test_mcnemar_large_unbalanced_matches_log_space_tail():
    b, c = 400, 700
    n = b + c
    terms = [math.lgamma(n + 1) - math.lgamma(i + 1) - math.lgamma(n - i + 1) - n * math.log(2)
             for i in range(b + 1)]
    top = max(terms)
    expected = 2.0 * math.exp(top) * sum(math.exp(t - top) for t in terms)
    stat, p = mcnemar_test(*_discordant(b, c))
    assert stat == b
    assert 0.0 < p and abs(p - expected) <= 1e-9 * expected
