"""Command-line harness: data generation, training, evaluation, gradient
checking, heatmap export, and metrics reporting."""

from __future__ import annotations

import argparse
import json
import os
import sys
import zipfile

import numpy as np

from .autodiff import ContractError, ShapeError
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .config import ConfigError, ModelConfig
from .data import SyntheticSample, generate_synthetic_dataset, split_dataset
from .gradcam import grad_cam, write_pgm, write_sidecar
from .gradcheck import check_gradients
from .metrics import check_labels, compute_metrics, mcnemar_test
from .mfim import MAX_TOKENS, TEXT_VOCAB, InputError
from .model import FloodNet
from .training import TrainingError, bce_loss, evaluate, train


def _load_config(args) -> ModelConfig:
    cfg = ModelConfig.load(args.config) if args.config else ModelConfig()
    if args.seed is not None:
        cfg.seed = args.seed
    cfg.validate()  # the --seed too, before gen-data draws from it
    return cfg


def _out_dir(args) -> str:
    os.makedirs(args.out, exist_ok=True)
    return args.out


def _dataset(cfg: ModelConfig, path: str | None) -> list[SyntheticSample]:
    if path:
        arrays = {}
        with open(path, "rb") as fh:
            try:
                z = np.load(fh)
            except EOFError:
                raise InputError(f"{path}: not an npz archive: the file is empty") from None
            except zipfile.BadZipFile as e:
                raise InputError(f"{path}: not an npz archive: {e}") from None
            except ValueError:  # numpy's message advises unpickling the file
                raise InputError(f"{path}: not an npz archive") from None
            if not isinstance(z, np.lib.npyio.NpzFile):
                raise InputError(f"{path}: not an npz archive")
            for name in ("tokens", "images", "labels"):
                if name not in z.files:
                    raise InputError(f"{path}: lacks the array {name!r}")
                try:
                    arrays[name] = z[name]
                except (ValueError, zipfile.BadZipFile) as e:  # such as an object array
                    raise InputError(f"{path}: {name} cannot be read: {e}") from None
        tokens, images, labels = arrays["tokens"], arrays["images"], arrays["labels"]
        if labels.ndim != 1:
            raise InputError(f"{path}: labels has shape {labels.shape}, expected (N,)")
        n = len(labels)
        if tokens.ndim != 2 or len(tokens) != n:
            raise InputError(f"{path}: tokens has shape {tokens.shape}, expected ({n}, n_tokens)")
        if not 1 <= tokens.shape[1] <= MAX_TOKENS:
            raise InputError(f"{path}: tokens holds {tokens.shape[1]} per sample, expected 1 to {MAX_TOKENS}")
        if images.shape != (n, *cfg.image_size, 3):
            raise InputError(f"{path}: images has shape {images.shape}, "
                             f"expected {(n, *cfg.image_size, 3)}")
        for name, arr in (("tokens", tokens), ("images", images), ("labels", labels)):
            if arr.dtype.kind not in "biuf":
                raise InputError(f"{path}: {name} has dtype {arr.dtype}, not a real number type")
            if not np.isfinite(arr).all():
                raise InputError(f"{path}: {name} holds a non-finite value")
        check_labels(f"{path}: labels", labels, labels.shape)
        bad = np.argwhere((tokens < 0) | (tokens >= TEXT_VOCAB) | (tokens != np.floor(tokens)))
        if bad.size:
            i, j = bad[0]
            raise InputError(f"{path}: tokens[{i}, {j}] is {tokens[i, j]}, "
                             f"not a whole number >= 0 and < {TEXT_VOCAB}")
        return [SyntheticSample(tokens[i], images[i], int(labels[i])) for i in range(n)]
    return generate_synthetic_dataset(
        cfg.n_samples, cfg.seed, cfg.difficulty, cfg.image_size, cfg.n_t
    )


def _model(cfg: ModelConfig, checkpoint: str | None) -> FloodNet:
    """A fresh model, or one on the checkpoint's store.  An error in the
    file, or a store that does not fit cfg, is prefixed with the path."""
    if not checkpoint:
        return FloodNet(cfg)
    try:
        return FloodNet(cfg, store=load_checkpoint(checkpoint))
    except (CheckpointError, ConfigError) as e:
        raise InputError(f"{checkpoint}: {e}") from None


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
        raise ConfigError("train requires --config")
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
    model = _model(cfg, args.checkpoint)
    _, report = evaluate(model, val_set)
    print(json.dumps(report.to_dict()))
    return 0


def cmd_gradcheck(args) -> int:
    if args.coords < 1:
        raise ConfigError(f"--coords must be >= 1, got {args.coords}")
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
    model = _model(cfg, args.checkpoint)
    try:
        heatmap = grad_cam(model, samples[args.index], args.layer)
    except KeyError as e:  # the layer is not one of the model's taps
        raise ConfigError(e.args[0]) from None
    out = _out_dir(args)
    pgm = os.path.join(out, f"heatmap_{args.index}_{args.layer}.pgm")
    write_pgm(pgm, heatmap)
    write_sidecar(pgm + ".json", heatmap, args.layer)
    print(json.dumps({"pgm": pgm, "sidecar": pgm + ".json", "all_zero": not heatmap.any()}))
    return 0


def _predictions(path: str, keys: tuple[str, ...]) -> dict:
    """The JSON object in the file at path, which must hold keys."""
    with open(path, encoding="utf-8") as f:
        try:
            data = json.load(f)
        except ValueError as e:  # not JSON, or not UTF-8
            raise InputError(f"{path}: not a UTF-8 JSON file: {e}") from None
    missing = [key for key in keys if not isinstance(data, dict) or key not in data]
    if missing:
        raise InputError(f"{path}: not a JSON object holding {missing[0]!r}")
    return data


def cmd_metrics(args) -> int:
    data = _predictions(args.predictions, ("y_true", "y_pred"))
    try:
        report = compute_metrics(np.array(data["y_true"]), np.array(data["y_pred"]), data.get("probs"))
    except ValueError as e:
        raise InputError(f"{args.predictions}: {e}") from None
    out = report.to_dict()
    if args.compare:
        other = _predictions(args.compare, ("y_pred",))
        y_true, other_pred = np.array(data["y_true"]), np.array(other["y_pred"])
        check_labels(f"{args.compare}: y_pred", other_pred, y_true.shape)
        stat, p = mcnemar_test(y_true, np.array(data["y_pred"]), other_pred)
        out["mcnemar_statistic"] = stat
        out["mcnemar_p"] = p
    print(json.dumps(out))
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1 with one line, as other bad input does; every
    subcommand parser is of this class too."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="floodnet")
    sub = parser.add_subparsers(dest="command", required=True)

    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", help="JSON config path")
    config.add_argument("--seed", type=int, help="overrides the config seed")
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=".", help="output directory")
    data = argparse.ArgumentParser(add_help=False)
    data.add_argument("--data", help="dataset npz (default: generate)")

    p = sub.add_parser("gen-data", parents=[config, out], help="write a synthetic dataset npz")
    p.set_defaults(fn=cmd_gen_data)

    p = sub.add_parser("train", parents=[config, out, data], help="train and checkpoint a model")
    p.add_argument("--epochs", type=int, help="overrides the config epoch count")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", parents=[config, data],
                       help="evaluate a checkpoint on the validation split")
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("gradcheck", parents=[config],
                       help="finite-difference gradient verification")
    p.add_argument("--coords", type=int, default=20)
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("explain", parents=[config, out, data], help="export an activation heatmap")
    p.add_argument("--checkpoint")
    p.add_argument("--index", type=int, default=0)
    p.add_argument("--layer", default="enc0")
    p.set_defaults(fn=cmd_explain)

    p = sub.add_parser("metrics", help="metrics report from a predictions JSON")
    p.add_argument("predictions", help="JSON with y_true, y_pred, optional probs")
    p.add_argument("--compare", help="second predictions JSON for a paired test")
    p.set_defaults(fn=cmd_metrics)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    # a ShapeError is a ValueError, so the program faults are caught first
    except (TrainingError, ContractError, ShapeError, OSError, KeyError) as e:
        print(f"runtime error: {e}", file=sys.stderr)
        return 2
    except (ValueError, AssertionError) as e:  # ConfigError, InputError, CheckpointError too
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
