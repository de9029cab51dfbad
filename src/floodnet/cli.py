"""Command-line harness: data generation, training, evaluation, gradient
checking, heatmap export, and metrics reporting."""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .autodiff import ContractError, ShapeError
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .config import ConfigError, ModelConfig
from .data import SyntheticSample, generate_synthetic_dataset, split_dataset
from .gradcam import grad_cam, write_pgm, write_sidecar
from .gradcheck import check_gradients
from .metrics import check_labels, compute_metrics, mcnemar_test
from .mfim import InputError
from .model import FloodNet
from .training import TrainingError, bce_loss, evaluate, train


def _load_config(args) -> ModelConfig:
    cfg = ModelConfig.load(args.config) if args.config else ModelConfig()
    if args.seed is not None:
        cfg.seed = args.seed
    return cfg


def _out_dir(args) -> str:
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    return out


def _dataset(cfg: ModelConfig, path: str | None) -> list[SyntheticSample]:
    if path:
        with np.load(path) as z:
            tokens, images, labels = z["tokens"], z["images"], z["labels"]
        if labels.ndim != 1:
            raise InputError(f"{path}: labels has shape {labels.shape}, expected (N,)")
        n = len(labels)
        if tokens.ndim != 2 or len(tokens) != n:
            raise InputError(f"{path}: tokens has shape {tokens.shape}, expected ({n}, n_tokens)")
        if images.shape != (n, *cfg.image_size, 3):
            raise InputError(f"{path}: images has shape {images.shape}, "
                             f"expected {(n, *cfg.image_size, 3)}")
        for name, arr in (("tokens", tokens), ("images", images), ("labels", labels)):
            if not np.isfinite(arr).all():
                raise InputError(f"{path}: {name} holds a non-finite value")
        bad = np.flatnonzero((labels != 0) & (labels != 1))
        if bad.size:
            raise InputError(f"{path}: labels[{bad[0]}] is {labels[bad[0]]}, not 0 or 1")
        bad = np.argwhere((tokens < 0) | (tokens != np.floor(tokens)))
        if bad.size:
            i, j = bad[0]
            raise InputError(f"{path}: tokens[{i}, {j}] is {tokens[i, j]}, not a whole number >= 0")
        return [SyntheticSample(tokens[i], images[i], int(labels[i])) for i in range(n)]
    return generate_synthetic_dataset(
        cfg.n_samples, cfg.seed, cfg.difficulty, cfg.image_size, cfg.n_t
    )


def cmd_gen_data(args) -> int:
    cfg = _load_config(args)
    samples = _dataset(cfg, None)
    path = os.path.join(_out_dir(args), "dataset.npz")
    np.savez(
        path,
        tokens=np.stack([s.tokens for s in samples]),
        images=np.stack([s.image for s in samples]),
        labels=np.array([s.label for s in samples]),
    )
    print(json.dumps({"path": path, "n": len(samples)}))
    return 0


def cmd_train(args) -> int:
    if not args.config:
        print(build_parser().format_usage(), file=sys.stderr)
        print("error: train requires --config", file=sys.stderr)
        return 1
    cfg = _load_config(args)
    epochs = cfg.epochs if args.epochs is None else args.epochs
    if epochs < 1:
        raise ConfigError(f"epochs must be >= 1, got {epochs}")
    out = _out_dir(args)
    samples = _dataset(cfg, args.data)
    train_set, val_set = split_dataset(samples, cfg.val_fraction, cfg.seed)
    if not train_set:
        raise ConfigError(
            f"val_fraction={cfg.val_fraction} leaves no training samples out of {len(samples)}"
        )
    model = FloodNet(cfg)
    with open(os.path.join(out, "trace.ndjson"), "w") as trace:
        history = train(model, train_set, val_set, epochs=epochs, trace_file=trace)
    ckpt = os.path.join(out, "model.ckpt")
    save_checkpoint(ckpt, model.store)
    cfg.save(os.path.join(out, "config.json"))
    print(json.dumps({"checkpoint": ckpt, "epochs": len(history), "final": history[-1]}))
    return 0


def cmd_eval(args) -> int:
    cfg = _load_config(args)
    samples = _dataset(cfg, args.data)
    _, val_set = split_dataset(samples, cfg.val_fraction, cfg.seed)
    if not val_set:
        raise ConfigError(
            f"val_fraction={cfg.val_fraction} leaves no validation samples out of {len(samples)}"
        )
    store = load_checkpoint(args.checkpoint)
    model = FloodNet(cfg, store=store)
    _, report = evaluate(model, val_set)
    print(json.dumps(report.to_dict()))
    return 0


def cmd_gradcheck(args) -> int:
    cfg = _load_config(args)
    model = FloodNet(cfg)
    sample = _dataset(cfg, None)[0]

    def build(g):
        _, logit = model.forward(g, sample, train=False)
        return bce_loss(g, logit, sample.label)

    results, max_err = check_gradients(
        build, model.store, n_coords=args.coords, seed=cfg.seed
    )
    print(json.dumps({"coords": len(results), "max_rel_err": max_err}))
    return 0


def cmd_explain(args) -> int:
    cfg = _load_config(args)
    samples = _dataset(cfg, args.data)
    if not 0 <= args.index < len(samples):
        raise ConfigError(f"sample index {args.index} out of range")
    store = load_checkpoint(args.checkpoint) if args.checkpoint else None
    model = FloodNet(cfg, store=store)
    heatmap = grad_cam(model, samples[args.index], args.layer)
    out = _out_dir(args)
    pgm = os.path.join(out, f"heatmap_{args.index}_{args.layer}.pgm")
    write_pgm(pgm, heatmap)
    write_sidecar(pgm + ".json", heatmap, args.layer)
    print(json.dumps({"pgm": pgm, "sidecar": pgm + ".json"}))
    return 0


def cmd_metrics(args) -> int:
    with open(args.predictions) as f:
        data = json.load(f)
    probs = data.get("probs")
    if not data["y_true"]:
        raise InputError(f"{args.predictions} holds no labels")
    if probs is not None and not np.isfinite(np.asarray(probs, dtype=np.float64)).all():
        raise InputError(f"{args.predictions} holds a non-finite probability")
    report = compute_metrics(np.array(data["y_true"]), np.array(data["y_pred"]), probs)
    out = report.to_dict()
    if args.compare:
        with open(args.compare) as f:
            other = json.load(f)
        y_true, other_pred = np.array(data["y_true"]), np.array(other["y_pred"])
        check_labels(f"{args.compare}: y_pred", other_pred, y_true.shape)
        stat, p = mcnemar_test(y_true, np.array(data["y_pred"]), other_pred)
        out["mcnemar_statistic"] = stat
        out["mcnemar_p"] = p
    print(json.dumps(out))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="floodnet")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config path")
        p.add_argument("--seed", type=int, help="overrides the config seed")
        p.add_argument("--out", help="output directory")

    p = sub.add_parser("gen-data", help="write a synthetic dataset npz")
    common(p)
    p.set_defaults(fn=cmd_gen_data)

    p = sub.add_parser("train", help="train and checkpoint a model")
    common(p)
    p.add_argument("--data", help="dataset npz (default: generate)")
    p.add_argument("--epochs", type=int, help="overrides the config epoch count")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on the validation split")
    common(p)
    p.add_argument("--data", help="dataset npz (default: generate)")
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    common(p)
    p.add_argument("--coords", type=int, default=20)
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("explain", help="export an activation heatmap")
    common(p)
    p.add_argument("--data", help="dataset npz (default: generate)")
    p.add_argument("--checkpoint")
    p.add_argument("--index", type=int, default=0)
    p.add_argument("--layer", default="enc0")
    p.set_defaults(fn=cmd_explain)

    p = sub.add_parser("metrics", help="metrics report from a predictions JSON")
    common(p)
    p.add_argument("predictions", help="JSON with y_true, y_pred, optional probs")
    p.add_argument("--compare", help="second predictions JSON for a paired test")
    p.set_defaults(fn=cmd_metrics)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, InputError, CheckpointError, ValueError, AssertionError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (TrainingError, ContractError, ShapeError, OSError, KeyError) as e:
        print(f"runtime error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
