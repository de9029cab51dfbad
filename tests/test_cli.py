import argparse
import ast
import inspect
import json

import numpy as np
import pytest

from floodnet import cli
from floodnet.autodiff import ShapeError
from floodnet.checkpoint import save_checkpoint
from floodnet.cli import main
from floodnet.model import FloodNet

from conftest import make_tiny_config


def _write_tiny_config(tmp_path, **overrides):
    cfg = make_tiny_config(**overrides)
    path = tmp_path / "cfg.json"
    cfg.save(path)
    return cfg, str(path)


def test_gen_data_writes_npz(tmp_path, capsys):
    _, cfg_path = _write_tiny_config(tmp_path)
    assert main(["gen-data", "--config", cfg_path, "--out", str(tmp_path)]) == 0
    out = json.loads(capsys.readouterr().out)
    with np.load(out["path"]) as z:
        assert z["images"].shape == (8, 16, 16, 3)
        assert z["tokens"].shape == (8, 4)
        assert sorted(set(z["labels"].tolist())) == [0, 1]


def test_train_without_config_exits_one(capsys):
    assert main(["train"]) == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and "--config" in err


def test_train_zero_epochs_exits_one(tmp_path, capsys):
    _, cfg_path = _write_tiny_config(tmp_path)
    code = main(["train", "--config", cfg_path, "--out", str(tmp_path), "--epochs", "0"])
    assert code == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and "epochs" in err


def test_train_split_without_training_samples_exits_one(tmp_path, capsys):
    data = make_tiny_config().to_dict()
    data.update(n_samples=2, val_fraction=0.9)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    assert main(["train", "--config", str(path), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and "val_fraction" in err


def test_train_data_file_without_training_samples_exits_one(tmp_path, capsys):
    _, cfg_path = _write_tiny_config(tmp_path, val_fraction=0.6)
    data = tmp_path / "one.npz"
    np.savez(data, tokens=np.zeros((1, 4), dtype=np.int64), images=np.zeros((1, 16, 16, 3)),
             labels=np.array([1]))
    code = main(["train", "--config", cfg_path, "--data", str(data), "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert "val_fraction=0.6" in err and "out of 1" in err


def test_a_shape_error_exits_two(tmp_path, capsys, monkeypatch):
    """A ShapeError is a program fault, though it is also a ValueError."""
    def fail(args):
        raise ShapeError("matmul got (2, 3) @ (4, 5)")

    monkeypatch.setattr(cli, "cmd_gen_data", fail)
    _, cfg_path = _write_tiny_config(tmp_path)
    assert main(["gen-data", "--config", cfg_path, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err.strip()
    assert err == "runtime error: matmul got (2, 3) @ (4, 5)"


@pytest.mark.parametrize("text,needle", [
    pytest.param('{"h": 3}', "h must be even", id="h_odd"),
    pytest.param('{"d_se": "64"}', 'config.d_se must be int, got "64"', id="d_se_string"),
    pytest.param('{"grid": 4}', "config.grid must be tuple[int, int], got 4", id="grid_number"),
    pytest.param("5", "config must be a JSON object", id="top_level_number"),
    pytest.param('{"optimizer": {"learning_rate": "x"}}',
                 'optimizer.learning_rate must be float, got "x"', id="learning_rate_string"),
    pytest.param('{"grid": [0, 4]}', "grid[0] must be >= 1, got grid[0]=0", id="grid_zero"),
    pytest.param('{"hren_groups": 0}', "hren_groups must be >= 1, got hren_groups=0", id="hren_groups_zero"),
    pytest.param('{"transformer_heads": 0}', "transformer_heads must be >= 1, got transformer_heads=0",
                 id="transformer_heads_zero"),
    # extents that ended in a ZeroDivisionError or numpy's message, and a depth that ran as 0
    *(pytest.param(f'{{"{name}": 0}}', f"{name} must be >= 1, got {name}=0", id=f"{name}_zero")
      for name in ("d_se", "d_i", "d_t", "d_fused", "hren_channels")),
    pytest.param('{"d_t": -3}', "d_t must be >= 1, got d_t=-3", id="d_t_negative"),
    pytest.param('{"image_size": [0, 0]}', "image_size[0] must be >= 1", id="image_size_zero"),
    pytest.param('{"decoder_plan": [0]}', "decoder_plan[0] must be >= 1", id="decoder_plan_zero"),
    pytest.param('{"transformer_depth": -1}', "transformer_depth must be >= 0, got transformer_depth=-1",
                 id="transformer_depth_negative"),
    pytest.param('{"seed": -3}', "seed must be >= 0, got seed=-3", id="seed_negative"),
    # optimizer values that passed and poisoned training
    pytest.param('{"optimizer": {"learning_rate": NaN}}', "optimizer: learning_rate must be finite, got nan",
                 id="learning_rate_nan"),
    pytest.param('{"optimizer": {"learning_rate": 1e400}}', "optimizer: learning_rate must be finite, got inf",
                 id="learning_rate_overflow"),
    pytest.param('{"optimizer": {"weight_decay": Infinity}}', "optimizer: weight_decay must be finite, got inf",
                 id="weight_decay_infinity"),
    pytest.param('{"optimizer": {"epsilon": 0.0}}', "optimizer: epsilon must be positive, got 0.0",
                 id="epsilon_zero"),
    # files that cannot be read as JSON name themselves
    pytest.param(b"\xff{}", "bad.json: not a UTF-8 JSON file: 'utf-8' codec can't decode byte 0xff",
                 id="not_utf8"),
    pytest.param("{nope", "bad.json: not a UTF-8 JSON file: Expecting property name", id="not_json"),
])
def test_invalid_config_exits_one(tmp_path, capsys, text, needle):
    path = tmp_path / "bad.json"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    assert main(["gen-data", "--config", str(path), "--out", str(tmp_path)]) == 1
    _assert_one_line_error(capsys, needle)


def test_gradcheck_command(tmp_path, capsys):
    _, cfg_path = _write_tiny_config(tmp_path)
    assert main(["gradcheck", "--config", cfg_path, "--coords", "10"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["max_rel_err"] <= 1e-4


@pytest.mark.parametrize("coords", ["0", "-2"])
def test_gradcheck_with_no_coordinates_exits_one_before_building(tmp_path, capsys, monkeypatch, coords):
    _, cfg_path = _write_tiny_config(tmp_path)
    monkeypatch.setattr(cli, "FloodNet", None)  # building a model would raise TypeError
    assert main(["gradcheck", "--config", cfg_path, "--coords", coords]) == 1
    _assert_one_line_error(capsys, f"--coords must be >= 1, got {coords}")


def test_train_eval_explain_round_trip(tmp_path, capsys):
    _, cfg_path = _write_tiny_config(tmp_path, n_samples=10)
    out_dir = tmp_path / "run"
    assert main(["train", "--config", cfg_path, "--out", str(out_dir), "--epochs", "2"]) == 0
    summary = json.loads(capsys.readouterr().out)
    final_val = summary["final"]["val"]

    trace_lines = (out_dir / "trace.ndjson").read_text().strip().splitlines()
    assert len(trace_lines) == 2
    assert json.loads(trace_lines[-1])["val"] == final_val

    ckpt = summary["checkpoint"]
    assert main(["eval", "--config", cfg_path, "--checkpoint", ckpt]) == 0
    eval_report = json.loads(capsys.readouterr().out)
    assert eval_report == final_val

    assert main([
        "explain", "--config", cfg_path, "--checkpoint", ckpt,
        "--index", "0", "--layer", "enc1", "--out", str(out_dir),
    ]) == 0
    paths = json.loads(capsys.readouterr().out)
    assert (out_dir / "heatmap_0_enc1.pgm").exists()
    assert (out_dir / "heatmap_0_enc1.pgm.json").exists()
    assert paths["pgm"].endswith(".pgm")


def _out_args(command, tmp_path):
    """eval writes no file, so it takes no --out."""
    return [] if command == "eval" else ["--out", str(tmp_path)]


def _assert_one_line_error(capsys, *needles):
    captured = capsys.readouterr()
    err = captured.err.strip()
    assert captured.out == "" and len(err.splitlines()) == 1
    assert all(n in err for n in needles), err


def test_eval_split_without_validation_samples_exits_one(tmp_path, capsys):
    _, cfg_path = _write_tiny_config(tmp_path, n_samples=2, val_fraction=0.2)
    assert main(["train", "--config", cfg_path, "--out", str(tmp_path), "--epochs", "1"]) == 0
    ckpt = json.loads(capsys.readouterr().out)["checkpoint"]
    assert main(["eval", "--config", cfg_path, "--checkpoint", ckpt]) == 1
    _assert_one_line_error(capsys, "val_fraction=0.2", "out of 2")


@pytest.mark.parametrize("command", ["train", "eval", "explain"])
def test_non_finite_data_file_exits_one(tmp_path, capsys, command):
    cfg, cfg_path = _write_tiny_config(tmp_path)
    assert main(["gen-data", "--config", cfg_path, "--out", str(tmp_path)]) == 0
    path = json.loads(capsys.readouterr().out)["path"]
    with np.load(path) as z:
        arrays = dict(z)
    arrays["images"][:, 0, 0, 0] = np.nan
    np.savez(path, **arrays)
    ckpt = str(tmp_path / "fresh.ckpt")
    save_checkpoint(ckpt, FloodNet(cfg).store)
    args = [command, "--config", cfg_path, "--data", path, *_out_args(command, tmp_path)]
    if command != "train":
        args += ["--checkpoint", ckpt]
    assert main(args) == 1
    _assert_one_line_error(capsys, "images", "non-finite")


@pytest.mark.parametrize("command", ["train", "eval", "explain"])
@pytest.mark.parametrize("edit,needles", [
    pytest.param(lambda a: {**a, "labels": a["labels"] * 2}, ("labels[0] is 2", "not 0 or 1"),
                 id="labels_x2"),
    pytest.param(lambda a: {**a, "labels": a["labels"][:, None]},
                 ("labels has shape (8, 1)", "expected (N,)"), id="labels_2d"),
    pytest.param(lambda a: {**a, "tokens": a["tokens"][:3]},
                 ("tokens has shape (3, 4)", "expected (8, n_tokens)"), id="tokens_3_rows"),
    pytest.param(lambda a: {**a, "images": a["images"][:, :8, :8]},
                 ("images has shape (8, 8, 8, 3)", "expected (8, 16, 16, 3)"), id="images_8x8"),
    pytest.param(lambda a: {"images": a["images"], "labels": a["labels"]},
                 ("dataset.npz: lacks the array 'tokens'",), id="no_tokens"),
    pytest.param(lambda a: a["images"], ("dataset.npz: not an npz archive",), id="npy"),
    pytest.param(lambda a: b"PK\x03\x04 cut short", ("dataset.npz: not an npz archive", "not a zip file"),
                 id="not_a_zip"),
    pytest.param(lambda a: {**a, "tokens": a["tokens"].astype(str)},
                 ("tokens has dtype <U", "not a real number type"), id="str_tokens"),
    pytest.param(lambda a: {**a, "images": a["images"] + 0.5j},
                 ("images has dtype complex128", "not a real number type"), id="complex_images"),
    pytest.param(lambda a: b"", ("dataset.npz: not an npz archive", "empty"), id="empty"),
    pytest.param(lambda a: b"hello\n", ("dataset.npz: not an npz archive",), id="text"),
    pytest.param(lambda a: {**a, "labels": a["labels"].astype(object)},
                 ("dataset.npz: labels cannot be read",), id="object_labels"),
    # token counts that failed in the forward, without the path
    pytest.param(lambda a: {**a, "tokens": a["tokens"][:, :0]},
                 ("dataset.npz: tokens holds 0 per sample, expected 1 to 512",), id="no_tokens_per_sample"),
    pytest.param(lambda a: {**a, "tokens": np.zeros((8, 513), dtype=np.int64)},
                 ("dataset.npz: tokens holds 513 per sample, expected 1 to 512",), id="513_tokens"),
])
def test_malformed_data_file_exits_one(tmp_path, capsys, command, edit, needles):
    """edit maps the arrays of a good file to what the --data file holds
    instead: arrays for an npz, one array written as .npy, or raw bytes."""
    cfg, cfg_path = _write_tiny_config(tmp_path)
    assert main(["gen-data", "--config", cfg_path, "--out", str(tmp_path)]) == 0
    path = json.loads(capsys.readouterr().out)["path"]
    with np.load(path) as z:
        saved = edit(dict(z))
    with open(path, "wb") as f:
        if isinstance(saved, bytes):
            f.write(saved)
        else:
            np.savez(f, **saved) if isinstance(saved, dict) else np.save(f, saved)
    ckpt = str(tmp_path / "fresh.ckpt")
    save_checkpoint(ckpt, FloodNet(cfg).store)
    args = [command, "--config", cfg_path, "--data", path, *_out_args(command, tmp_path)]
    args += ["--epochs", "1"] if command == "train" else ["--checkpoint", ckpt]
    assert main(args) == 1
    _assert_one_line_error(capsys, *needles)


@pytest.mark.parametrize("command", ["eval", "explain"])
@pytest.mark.parametrize("overrides,needles", [
    ({"d_fused": 10}, ("'hcamam.fusion.b' has shape (10,)", "needs (8,)")),
    ({"use_hcamam": False}, ("needs buffer 'hcamam.", "the store lacks")),
])
def test_checkpoint_of_another_config_exits_one(tmp_path, capsys, command, overrides, needles):
    other = tmp_path / "other"
    other.mkdir()
    _, other_cfg = _write_tiny_config(other, **overrides)
    assert main(["train", "--config", other_cfg, "--out", str(other), "--epochs", "1"]) == 0
    ckpt = json.loads(capsys.readouterr().out)["checkpoint"]
    _, cfg_path = _write_tiny_config(tmp_path)
    argv = [command, "--config", cfg_path, "--checkpoint", ckpt, *_out_args(command, tmp_path)]
    assert main(argv) == 1
    _assert_one_line_error(capsys, f"error: {ckpt}: ", *needles)


def test_eval_missing_checkpoint_exits_nonzero(tmp_path, capsys):
    _, cfg_path = _write_tiny_config(tmp_path)
    code = main(["eval", "--config", cfg_path, "--checkpoint", str(tmp_path / "none.ckpt")])
    assert code == 2


def test_metrics_command(tmp_path, capsys):
    preds = tmp_path / "preds.json"
    preds.write_text(json.dumps({
        "y_true": [1, 1, 0, 0], "y_pred": [1, 0, 0, 0], "probs": [0.9, 0.4, 0.2, 0.1],
    }))
    other = tmp_path / "other.json"
    other.write_text(json.dumps({"y_true": [1, 1, 0, 0], "y_pred": [1, 1, 0, 0]}))
    assert main(["metrics", str(preds), "--compare", str(other)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["accuracy"] == 0.75
    assert out["mcnemar_p"] == 1.0


@pytest.mark.parametrize("data", [
    {"y_true": [], "y_pred": [], "probs": []},
    {"y_true": [1, 0], "y_pred": [1, 0], "probs": [float("nan"), 0.2]},
])
def test_metrics_rejects_empty_or_non_finite_input(tmp_path, capsys, data):
    preds = tmp_path / "preds.json"
    preds.write_text(json.dumps(data))
    assert main(["metrics", str(preds)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1


@pytest.mark.parametrize("data,needle", [
    ({"y_true": [2, 0, 1], "y_pred": [1, 0, 1], "probs": [0.9, 0.1, 0.8]}, "y_true[0] is 2"),
    ({"y_true": [1, 0, 1], "y_pred": [1, 0, -1]}, "y_pred[2] is -1"),
    ({"y_true": [1, 0, 1], "y_pred": [1, 0, 1], "probs": [0.9]}, "probs has shape (1,), the labels (3,)"),
    ([1, 0, 1], "preds.json: not a JSON object holding 'y_true'"),
    ({"y_pred": [1, 0, 1]}, "preds.json: not a JSON object holding 'y_true'"),
    ({"y_true": [1, 0], "y_pred": [1, 0], "probs": [[0.2, 0.3]]}, "probs has shape (1, 2), the labels (2,)"),
    ({"y_true": [1, 0], "y_pred": [1, 0], "probs": {"a": 1}}, "preds.json: probs has shape (), the labels (2,)"),
    ({"y_true": [1, 0], "y_pred": [1, 0], "probs": [1.5, 0.2]}, "preds.json: probs[0] is 1.5, not in [0, 1]"),
    ({"y_true": [1, 0], "y_pred": [1, 0], "probs": [0.5, -0.2]}, "preds.json: probs[1] is -0.2, not in [0, 1]"),
    ({"y_true": [1, 0], "y_pred": [1, 0], "probs": [0.5, "x"]}, "preds.json: probs has <U32 entries, not numbers"),
    ({"y_true": 1, "y_pred": 1}, "preds.json: y_true has shape (), not a flat list of labels"),
    ({"y_true": [[1, 0]], "y_pred": [[1, 0]]}, "preds.json: y_true has shape (1, 2), not a flat list of labels"),
    (b"y_true: [1]", "preds.json: not a UTF-8 JSON file: Expecting value"),
    (b'{"y_true": [1], "y_pred": [1], "note": "\xff"}', "preds.json: not a UTF-8 JSON file: 'utf-8' codec"),
])
def test_metrics_rejects_bad_labels_or_probs(tmp_path, capsys, data, needle):
    preds = tmp_path / "preds.json"
    preds.write_bytes(data if isinstance(data, bytes) else json.dumps(data).encode())
    assert main(["metrics", str(preds)]) == 1
    _assert_one_line_error(capsys, needle)


@pytest.mark.parametrize("other_pred,needle", [
    ([1], "y_pred has shape (1,), the labels (4,)"),
    ([7, 7, 7, 7], "y_pred[0] is 7, not 0 or 1"),
])
def test_metrics_compare_rejects_bad_second_predictions(tmp_path, capsys, other_pred, needle):
    preds = tmp_path / "preds.json"
    preds.write_text(json.dumps({"y_true": [1, 1, 0, 0], "y_pred": [1, 0, 0, 0]}))
    other = tmp_path / "other.json"
    other.write_text(json.dumps({"y_true": [1, 1, 0, 0], "y_pred": other_pred}))
    assert main(["metrics", str(preds), "--compare", str(other)]) == 1
    _assert_one_line_error(capsys, "other.json", needle)


@pytest.mark.parametrize("command", ["train", "eval", "explain"])
@pytest.mark.parametrize("value,needle", [
    (3.7, "tokens[2, 1] is 3.7, not a whole number >= 0"),
    (-1, "tokens[2, 1] is -1, not a whole number >= 0"),
])
def test_token_ids_that_are_not_whole_numbers_exit_one(tmp_path, capsys, command, value, needle):
    cfg, cfg_path = _write_tiny_config(tmp_path)
    assert main(["gen-data", "--config", cfg_path, "--out", str(tmp_path)]) == 0
    path = json.loads(capsys.readouterr().out)["path"]
    with np.load(path) as z:
        arrays = dict(z)
    arrays["tokens"] = arrays["tokens"].astype(type(value))
    arrays["tokens"][2, 1] = value
    np.savez(path, **arrays)
    ckpt = str(tmp_path / "fresh.ckpt")
    save_checkpoint(ckpt, FloodNet(cfg).store)
    args = [command, "--config", cfg_path, "--data", path, *_out_args(command, tmp_path)]
    args += ["--epochs", "1"] if command == "train" else ["--checkpoint", ckpt]
    assert main(args) == 1
    _assert_one_line_error(capsys, needle)


@pytest.mark.parametrize("command", ["train", "eval", "explain"])
@pytest.mark.parametrize("value", [64, 70])
def test_token_ids_outside_the_vocabulary_exit_one(tmp_path, capsys, command, value):
    cfg, cfg_path = _write_tiny_config(tmp_path)
    assert main(["gen-data", "--config", cfg_path, "--out", str(tmp_path)]) == 0
    path = json.loads(capsys.readouterr().out)["path"]
    with np.load(path) as z:
        arrays = dict(z)
    arrays["tokens"][2, 1] = value
    np.savez(path, **arrays)
    ckpt = str(tmp_path / "fresh.ckpt")
    save_checkpoint(ckpt, FloodNet(cfg).store)
    args = [command, "--config", cfg_path, "--data", path, *_out_args(command, tmp_path)]
    args += ["--epochs", "1"] if command == "train" else ["--checkpoint", ckpt]
    assert main(args) == 1
    _assert_one_line_error(capsys, f"tokens[2, 1] is {value}, not a whole number >= 0 and < 64")


@pytest.mark.parametrize("overrides,layer,needles", [
    ({}, "bogus", ("'bogus'", "the taps are enc0, enc1")),
    ({"use_cctfrm": False}, "enc0", ("'enc0'", "the taps are none")),
])
def test_explain_unknown_layer_exits_one(tmp_path, capsys, overrides, layer, needles):
    _, cfg_path = _write_tiny_config(tmp_path, **overrides)
    assert main(["explain", "--config", cfg_path, "--layer", layer, "--out", str(tmp_path)]) == 1
    _assert_one_line_error(capsys, *needles)


@pytest.mark.parametrize("layer,all_zero", [("enc0", True), ("enc1", False)])
def test_explain_reports_an_all_zero_heatmap(tmp_path, capsys, layer, all_zero):
    # a fresh tiny model at seed 42 gives an empty map at enc0, not at enc1
    _, cfg_path = _write_tiny_config(tmp_path)
    assert main(["explain", "--config", cfg_path, "--layer", layer, "--out", str(tmp_path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["all_zero"] is all_zero
    values = json.loads((tmp_path / f"heatmap_0_{layer}.pgm.json").read_text())["values"]
    assert (max(map(max, values)) == 0.0) is all_zero


@pytest.mark.parametrize("argv,needle", [
    pytest.param(["frobnicate"], "floodnet: argument command: invalid choice: 'frobnicate'",
                 id="unknown_subcommand"),
    pytest.param(["eval"], "floodnet eval: the following arguments are required: --checkpoint",
                 id="eval_without_checkpoint"),
    pytest.param(["metrics", "p.json", "--config", "c.json"],
                 "floodnet: unrecognized arguments: --config c.json", id="metrics_config"),
    pytest.param(["metrics", "p.json", "--seed", "1"], "floodnet: unrecognized arguments: --seed 1",
                 id="metrics_seed"),
    pytest.param(["metrics", "p.json", "--out", "d"], "floodnet: unrecognized arguments: --out d",
                 id="metrics_out"),
    pytest.param(["eval", "--checkpoint", "m.ckpt", "--out", "d"],
                 "floodnet: unrecognized arguments: --out d", id="eval_out"),
    pytest.param(["gradcheck", "--out", "d"], "floodnet: unrecognized arguments: --out d",
                 id="gradcheck_out"),
])
def test_a_usage_error_exits_one(capsys, argv, needle):
    """An unknown subcommand, a missing required flag, or a flag that the
    subcommand does not read."""
    assert main(argv) == 1
    _assert_one_line_error(capsys, "error: " + needle)


def _args_read(fn) -> set:
    """Attributes that a cli function reads off `args`, itself or in the cli
    functions that it passes `args` to."""
    read = set()
    for node in ast.walk(ast.parse(inspect.getsource(fn))):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "args":
            read.add(node.attr)
        elif isinstance(node, ast.Call) and "args" in [getattr(a, "id", None) for a in node.args]:
            callee = getattr(cli, getattr(node.func, "id", ""), None)
            assert inspect.isfunction(callee), (
                f"{fn.__name__} passes args to {ast.unparse(node.func)}, which is not a cli function"
            )
            read |= _args_read(callee)
    return read


def test_every_cli_flag_is_read_by_its_handler():
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    unread = []
    for command, p in sub.choices.items():
        read = _args_read(p.get_default("fn"))
        unread += [f"{command} {a.dest}" for a in p._actions
                   if not isinstance(a, argparse._HelpAction) and a.dest not in read]
    assert unread == []


def test_eval_of_a_checkpoint_holding_a_nan_exits_one(tmp_path, capsys):
    cfg, cfg_path = _write_tiny_config(tmp_path)
    store = FloodNet(cfg).store
    store.entries[store.names()[0]].value.flat[3] = np.nan
    ckpt = str(tmp_path / "nan.ckpt")
    save_checkpoint(ckpt, store)
    assert main(["eval", "--config", cfg_path, "--checkpoint", ckpt]) == 1
    _assert_one_line_error(capsys, f"'{store.names()[0]}' holds a non-finite value")


@pytest.mark.parametrize("command", ["eval", "explain"])
@pytest.mark.parametrize("edit,needle", [
    pytest.param(lambda blob: b'{"im' + blob[4:], "byte 0: bad magic b'{\"im'", id="bad_magic"),
    pytest.param(lambda blob: blob[:len(blob) // 2], ": truncated", id="truncated"),
])
def test_a_bad_checkpoint_file_exits_one_naming_it(tmp_path, capsys, command, edit, needle):
    cfg, cfg_path = _write_tiny_config(tmp_path)
    ckpt = tmp_path / "bad.ckpt"
    save_checkpoint(str(ckpt), FloodNet(cfg).store)
    ckpt.write_bytes(edit(ckpt.read_bytes()))
    assert main([command, "--config", cfg_path, "--checkpoint", str(ckpt), *_out_args(command, tmp_path)]) == 1
    _assert_one_line_error(capsys, f"error: {ckpt}: byte ", needle)


@pytest.mark.parametrize("command,seed", [("gen-data", -1), ("train", -3), ("gradcheck", -2), ("explain", -5)])
def test_a_negative_seed_flag_exits_one_naming_the_field(tmp_path, capsys, command, seed):
    _, cfg_path = _write_tiny_config(tmp_path)
    out = [] if command == "gradcheck" else ["--out", str(tmp_path)]
    assert main([command, "--config", cfg_path, "--seed", str(seed), *out]) == 1
    _assert_one_line_error(capsys, f"seed must be >= 0, got seed={seed}")

