import json

import numpy as np
import pytest

from floodnet.checkpoint import save_checkpoint
from floodnet.cli import main
from floodnet.config import ModelConfig
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
    assert "usage" in capsys.readouterr().err


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


def test_unknown_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


def test_invalid_config_exits_one(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"h": 3}')
    assert main(["gen-data", "--config", str(path), "--out", str(tmp_path)]) == 1


def test_gradcheck_command(tmp_path, capsys):
    _, cfg_path = _write_tiny_config(tmp_path)
    assert main(["gradcheck", "--config", cfg_path, "--coords", "10"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["max_rel_err"] <= 1e-4


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
    args = [command, "--config", cfg_path, "--data", path, "--out", str(tmp_path)]
    if command != "train":
        args += ["--checkpoint", ckpt]
    assert main(args) == 1
    _assert_one_line_error(capsys, "images", "non-finite")


@pytest.mark.parametrize("command", ["train", "eval", "explain"])
@pytest.mark.parametrize("name,edit,needles", [
    pytest.param("labels", lambda a: a * 2, ("labels[0] is 2", "not 0 or 1"), id="labels_x2"),
    pytest.param("labels", lambda a: a[:, None], ("labels has shape (8, 1)", "expected (N,)"),
                 id="labels_2d"),
    pytest.param("tokens", lambda a: a[:3], ("tokens has shape (3, 4)", "expected (8, n_tokens)"),
                 id="tokens_3_rows"),
    pytest.param("images", lambda a: a[:, :8, :8],
                 ("images has shape (8, 8, 8, 3)", "expected (8, 16, 16, 3)"), id="images_8x8"),
])
def test_malformed_data_file_exits_one(tmp_path, capsys, command, name, edit, needles):
    cfg, cfg_path = _write_tiny_config(tmp_path)
    assert main(["gen-data", "--config", cfg_path, "--out", str(tmp_path)]) == 0
    path = json.loads(capsys.readouterr().out)["path"]
    with np.load(path) as z:
        arrays = dict(z)
    arrays[name] = edit(arrays[name])
    np.savez(path, **arrays)
    ckpt = str(tmp_path / "fresh.ckpt")
    save_checkpoint(ckpt, FloodNet(cfg).store)
    args = [command, "--config", cfg_path, "--data", path, "--out", str(tmp_path)]
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
    assert main([command, "--config", cfg_path, "--checkpoint", ckpt, "--out", str(tmp_path)]) == 1
    _assert_one_line_error(capsys, *needles)


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
    ({"y_true": [1, 0, 1], "y_pred": [1, 0, 1], "probs": [0.9]}, "1 probs for 3 labels"),
])
def test_metrics_rejects_bad_labels_or_probs(tmp_path, capsys, data, needle):
    preds = tmp_path / "preds.json"
    preds.write_text(json.dumps(data))
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
    args = [command, "--config", cfg_path, "--data", path, "--out", str(tmp_path)]
    args += ["--epochs", "1"] if command == "train" else ["--checkpoint", ckpt]
    assert main(args) == 1
    _assert_one_line_error(capsys, needle)
