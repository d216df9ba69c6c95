import json

import numpy as np
import pytest

from mpsl.checkpoint import load_checkpoint, save_checkpoint
from mpsl.cli import main
from mpsl.metrics import read_metrics, strip_wall_clock


def write_config(tmp_path, **overrides):
    cfg = {
        "dataset": "synthetic-blobs",
        "layer_sizes": [32, 48, 4],
        "blobs": {"n_per_class": 40, "test_n_per_class": 20, "classes": 4, "dim": 32,
                  "sigma": 0.05},
        "t_steps": 8,
        "epochs": 2,
        "batch_size": 16,
        "lr": 0.001,
        "seed": 3,
        "lambda_mode": "learnable",
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """One shared blobs training run for the read-only commands."""
    tmp_path = tmp_path_factory.mktemp("trained")
    config = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["train", "--config", str(config), "--out-dir", str(out)]) == 0
    return {"config": config, "out": out, "checkpoint": out / "model.ckpt"}


def test_train_writes_metrics_and_checkpoint(trained):
    header, rows = read_metrics(trained["out"] / "metrics.csv")
    assert header == "# mpsl-metrics v1"
    train_rows = [r for r in rows if r["split"] == "train"]
    test_rows = [r for r in rows if r["split"] == "test"]
    assert len(train_rows) == 2 and len(test_rows) == 2
    assert trained["checkpoint"].exists()
    for row in rows:
        assert all(row[col] != "" for col in row)


def test_missing_config_exits_2_and_names_path(tmp_path, capsys):
    code = main(["train", "--config", str(tmp_path / "nope.json")])
    assert code == 2
    assert "nope.json" in capsys.readouterr().err


def test_unknown_config_key_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"learning_rate": 0.1}))
    assert main(["train", "--config", str(path)]) == 2
    assert "learning_rate" in capsys.readouterr().err


def test_empty_blobs_split_exits_2(tmp_path, capsys):
    config = write_config(tmp_path, blobs={"n_per_class": 0})
    assert main(["train", "--config", str(config)]) == 2
    assert "blobs.n_per_class" in capsys.readouterr().err


def test_malformed_json_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["train", "--config", str(path)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_train_determinism_excluding_wall_clock(tmp_path):
    config = write_config(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["train", "--config", str(config), "--out-dir", str(out_a)]) == 0
    assert main(["train", "--config", str(config), "--out-dir", str(out_b)]) == 0
    assert strip_wall_clock(out_a / "metrics.csv") == strip_wall_clock(out_b / "metrics.csv")
    assert (out_a / "model.ckpt").read_bytes() == (out_b / "model.ckpt").read_bytes()


def test_eval_merged_and_unmerged(trained, capsys):
    assert main(["eval", "--checkpoint", str(trained["checkpoint"])]) == 0
    merged_line = capsys.readouterr().out
    assert "merged test accuracy" in merged_line
    assert main(["eval", "--checkpoint", str(trained["checkpoint"]), "--unmerged"]) == 0
    unmerged_line = capsys.readouterr().out
    assert "unmerged test accuracy" in unmerged_line
    # the linear merge cannot change predicted labels
    acc_merged = float(merged_line.split("accuracy")[1].split(",")[0])
    acc_unmerged = float(unmerged_line.split("accuracy")[1].split(",")[0])
    assert acc_merged == acc_unmerged


def test_eval_checkpoint_lacking_an_entry_exits_2(trained, tmp_path, capsys):
    ckpt = load_checkpoint(trained["checkpoint"])
    del ckpt.entries["lambda_p"]
    path = tmp_path / "partial.ckpt"
    save_checkpoint(path, ckpt.config_json, ckpt.epoch, ckpt.rng_state, ckpt.entries)
    assert main(["eval", "--checkpoint", str(path)]) == 2
    assert "lambda_p" in capsys.readouterr().err


def test_eval_checkpoint_with_a_misshaped_entry_exits_2(trained, tmp_path, capsys):
    ckpt = load_checkpoint(trained["checkpoint"])
    ckpt.entries["layers.0.w2"] = np.zeros((3, 5))
    path = tmp_path / "misshaped.ckpt"
    save_checkpoint(path, ckpt.config_json, ckpt.epoch, ckpt.rng_state, ckpt.entries)
    assert main(["eval", "--checkpoint", str(path)]) == 2
    assert "layers.0.w2" in capsys.readouterr().err


def test_eval_missing_checkpoint_exits_2(tmp_path, capsys):
    assert main(["eval", "--checkpoint", str(tmp_path / "no.ckpt")]) == 2
    assert "not found" in capsys.readouterr().err


def test_robustness_sweep_contract(trained, tmp_path):
    out = tmp_path / "rob"
    code = main([
        "robustness", "--checkpoint", str(trained["checkpoint"]),
        "--kinds", "gaussian", "--levels", "0.2,0.0,0.1",
        "--out-dir", str(out), "--seed", "11",
    ])
    assert code == 0
    _header, rows = read_metrics(out / "robustness.csv")
    assert [r["epoch_or_level"] for r in rows] == ["0.0", "0.1", "0.2"]  # ascending
    assert all(r["variant"] == "gaussian" for r in rows)
    # sigma=0 equals clean accuracy exactly, with zero spread
    from mpsl.trainer import evaluate, load_datasets, network_from_checkpoint

    net, cfg, _ = network_from_checkpoint(trained["checkpoint"])
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(cfg.seed).spawn(2)[0]))
    _train_ds, test_ds = load_datasets(cfg, rng)
    clean_acc, _ = evaluate(net, test_ds, cfg.t_steps, merged=True)
    assert float(rows[0]["accuracy"]) == clean_acc
    assert float(rows[0]["accuracy_sd"]) == 0.0


def test_robustness_unknown_kind_exits_2(trained, capsys):
    code = main([
        "robustness", "--checkpoint", str(trained["checkpoint"]), "--kinds", "poisson",
    ])
    assert code == 2
    assert "poisson" in capsys.readouterr().err


def test_robustness_empty_levels_exits_2(trained, capsys):
    code = main([
        "robustness", "--checkpoint", str(trained["checkpoint"]),
        "--kinds", "gaussian", "--levels", ",",
    ])
    assert code == 2


def test_gradcheck_passes_and_detects_corruption(capsys):
    assert main(["gradcheck", "--trials", "3", "--seed", "77"]) == 0
    assert "worst relative error" in capsys.readouterr().out
    assert main(["gradcheck", "--trials", "3", "--seed", "77",
                 "--corrupt-surrogate", "1.5"]) == 1
    assert "FAILED" in capsys.readouterr().out


def test_gradcheck_zero_trials_exits_2(capsys):
    assert main(["gradcheck", "--trials", "0"]) == 2


def test_export_features_shape_and_determinism(trained, tmp_path, capsys):
    out_a = tmp_path / "feat_a.csv"
    out_b = tmp_path / "feat_b.csv"
    assert main(["export-features", "--checkpoint", str(trained["checkpoint"]),
                 "--n-samples", "10", "--out", str(out_a)]) == 0
    assert main(["export-features", "--checkpoint", str(trained["checkpoint"]),
                 "--n-samples", "10", "--out", str(out_b)]) == 0
    lines = out_a.read_text().splitlines()
    assert len(lines) == 11
    header = lines[0].split(",")
    assert header[0] == "label" and len(header) == 1 + 48  # penultimate width
    assert header[1] == "u000"
    assert out_a.read_bytes() == out_b.read_bytes()


def test_export_features_clamps_with_warning(trained, tmp_path, capsys):
    out = tmp_path / "feat.csv"
    assert main(["export-features", "--checkpoint", str(trained["checkpoint"]),
                 "--n-samples", "100000", "--out", str(out)]) == 0
    assert "clamping" in capsys.readouterr().err
    assert len(out.read_text().splitlines()) == 1 + 80  # full test split


def test_ablate_emits_complete_curves(tmp_path, capsys):
    config = write_config(tmp_path, epochs=1,
                          blobs={"n_per_class": 20, "test_n_per_class": 10,
                                 "classes": 4, "dim": 32, "sigma": 0.05})
    out = tmp_path / "ab"
    assert main(["ablate", "--config", str(config), "--seeds", "1,2",
                 "--out-dir", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "learnable >= fixed:" in printed
    _header, rows = read_metrics(out / "ablate.csv")
    assert len(rows) == 3 * 2 * 1  # modes x seeds x epochs
    assert {r["variant"] for r in rows} == {"fixed", "learnable", "frozen-learned"}


def test_numeric_abort_exits_3(tmp_path, capsys):
    # frozen-learned from a checkpoint whose lambda entries are poisoned
    from mpsl.checkpoint import save_checkpoint
    from mpsl.numerics import make_rng
    from mpsl.trainer import TrainConfig, checkpoint_entries, network_from_config

    base = write_config(tmp_path)
    cfg = TrainConfig.from_dict(json.loads(base.read_text()))
    net = network_from_config(cfg)
    for layer in net.layers:
        layer.lam = np.full(3, np.nan)
    poisoned = tmp_path / "poisoned.ckpt"
    save_checkpoint(poisoned, cfg.canonical_json(), 0,
                    make_rng(0).bit_generator.state, checkpoint_entries(net, None))
    config = write_config(tmp_path, lambda_mode="frozen-learned",
                          frozen_source=str(poisoned))
    code = main(["train", "--config", str(config), "--out-dir", str(tmp_path / "x")])
    assert code == 3
    err = capsys.readouterr().err
    assert "numeric abort" in err
    assert "batch index: 0" in err
    assert "|layers.0.w1|" in err
