import json
import struct

import numpy as np
import pytest

from mpsl.checkpoint import load_checkpoint, save_checkpoint
from mpsl.cli import main
from mpsl.metrics import read_metrics

from helpers import strip_wall_clock


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


def final_test_accuracy(out):
    _header, rows = read_metrics(out / "metrics.csv")
    return float([r for r in rows if r["split"] == "test"][-1]["accuracy"])


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """One shared blobs training run for the read-only commands, on a seed
    whose network learns."""
    tmp_path = tmp_path_factory.mktemp("trained")
    config = write_config(tmp_path, seed=6)
    out = tmp_path / "out"
    assert main(["train", "--config", str(config), "--out-dir", str(out)]) == 0
    assert final_test_accuracy(out) >= 2 / 4  # twice chance over 4 classes
    return {"config": config, "out": out, "checkpoint": out / "model.ckpt"}


@pytest.mark.xfail(raises=AssertionError, strict=True, reason="ROADMAP item 3")
def test_blobs_seed_3_learns(tmp_path):
    # at seed 3 the blobs run collapses below chance (test accuracy 0.0125)
    config = write_config(tmp_path, seed=3)
    out = tmp_path / "out"
    assert main(["train", "--config", str(config), "--out-dir", str(out)]) == 0
    assert final_test_accuracy(out) >= 2 / 4


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


def test_removed_feedback_increment_switch_exits_2(tmp_path, capsys):
    # the feedback rule has one increment, W2_new - W2_old; a config that
    # still selects one by the old sbp key is refused, whichever value it holds
    for value in (True, False):
        config = write_config(tmp_path, sbp={"tau_w": 40.0, "delta_includes_decay": value})
        assert main(["train", "--config", str(config)]) == 2
        assert "delta_includes_decay" in capsys.readouterr().err


def test_empty_blobs_split_exits_2(tmp_path, capsys):
    config = write_config(tmp_path, blobs={"n_per_class": 0})
    assert main(["train", "--config", str(config)]) == 2
    assert "blobs.n_per_class" in capsys.readouterr().err


def test_empty_idx_split_exits_2(tmp_path, capsys):
    for split, n in (("train", 0), ("t10k", 2)):
        (tmp_path / f"{split}-images-idx3-ubyte").write_bytes(
            struct.pack(">IIII", 0x803, n, 28, 28) + bytes(n * 784))
        (tmp_path / f"{split}-labels-idx1-ubyte").write_bytes(
            struct.pack(">II", 0x801, n) + bytes(n))
    images = tmp_path / "train-images-idx3-ubyte"
    config = write_config(tmp_path, dataset="mnist", data_dir=str(tmp_path),
                          layer_sizes=[784, 16, 10])
    assert main(["train", "--config", str(config)]) == 2
    assert str(images) in capsys.readouterr().err


def test_missing_idx_file_exits_2_naming_the_path(tmp_path, capsys):
    config = write_config(tmp_path, dataset="mnist", data_dir=str(tmp_path),
                          layer_sizes=[784, 16, 10])
    assert main(["train", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert str(tmp_path / "train-images-idx3-ubyte") in err and "not found" in err


def test_config_path_that_is_a_directory_exits_2_naming_it(tmp_path, capsys):
    assert main(["train", "--config", str(tmp_path)]) == 2
    assert str(tmp_path) in capsys.readouterr().err


def test_idx_path_that_is_a_directory_exits_2_naming_it(tmp_path, capsys):
    images = tmp_path / "train-images-idx3-ubyte"
    images.mkdir()
    config = write_config(tmp_path, dataset="mnist", data_dir=str(tmp_path),
                          layer_sizes=[784, 16, 10])
    assert main(["train", "--config", str(config)]) == 2
    assert str(images) in capsys.readouterr().err


def write_idx_split(root, split, rng, n):
    """An IDX image/label pair of n random 28x28 items, named as in MNIST."""
    pixels = rng.integers(256, size=n * 784, dtype=np.uint8).tobytes()
    labels = rng.integers(10, size=n, dtype=np.uint8).tobytes()
    header = struct.pack(">IIII", 0x803, n, 28, 28)
    (root / f"{split}-images-idx3-ubyte").write_bytes(header + pixels)
    (root / f"{split}-labels-idx1-ubyte").write_bytes(struct.pack(">II", 0x801, n) + labels)


def test_read_only_commands_need_only_the_test_split(tmp_path):
    # eval, robustness and export-features read a run's test split alone:
    # without the train IDX files they write what they write with them
    data = tmp_path / "data"
    data.mkdir()
    rng = np.random.default_rng(5)
    write_idx_split(data, "train", rng, 20)
    write_idx_split(data, "t10k", rng, 12)
    config = write_config(tmp_path, dataset="mnist", data_dir=str(data),
                          layer_sizes=[784, 8, 10], t_steps=2, epochs=1, batch_size=10)
    ckpt = tmp_path / "run" / "model.ckpt"
    assert main(["train", "--config", str(config), "--out-dir", str(ckpt.parent)]) == 0

    def read_only(out):
        assert main(["eval", "--checkpoint", str(ckpt), "--out-dir", str(out)]) == 0
        assert main(["robustness", "--checkpoint", str(ckpt), "--kinds", "gaussian",
                     "--levels", "0.1", "--out-dir", str(out)]) == 0
        assert main(["export-features", "--checkpoint", str(ckpt), "--n-samples", "12",
                     "--out", str(out / "features.csv")]) == 0
        return [strip_wall_clock(out / "eval.csv"), strip_wall_clock(out / "robustness.csv"),
                (out / "features.csv").read_bytes()]

    with_train = read_only(tmp_path / "with")
    for name in ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"):
        (data / name).unlink()
    assert read_only(tmp_path / "without") == with_train


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


def test_eval_checkpoint_storing_the_removed_switch_exits_2(trained, tmp_path, capsys):
    ckpt = load_checkpoint(trained["checkpoint"])
    config = ckpt.config
    config["sbp"]["delta_includes_decay"] = True
    path = tmp_path / "old-config.ckpt"
    save_checkpoint(path, json.dumps(config), ckpt.epoch, ckpt.rng_state, ckpt.entries)
    assert main(["eval", "--checkpoint", str(path)]) == 2
    assert "delta_includes_decay" in capsys.readouterr().err


def test_eval_missing_checkpoint_exits_2(tmp_path, capsys):
    assert main(["eval", "--checkpoint", str(tmp_path / "no.ckpt")]) == 2
    assert "not found" in capsys.readouterr().err


def test_eval_checkpoint_that_is_a_directory_exits_2_naming_it(tmp_path, capsys):
    path = tmp_path / "model.ckpt"
    path.mkdir()
    assert main(["eval", "--checkpoint", str(path)]) == 2
    assert str(path) in capsys.readouterr().err


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
    from mpsl.trainer import evaluate, load_datasets, network_from_checkpoint, run_rngs

    net, cfg, _ = network_from_checkpoint(trained["checkpoint"])
    data_rng, _shuffle_rng = run_rngs(cfg.seed)
    _train_ds, test_ds = load_datasets(cfg, data_rng)
    clean_acc, _ = evaluate(net, test_ds, cfg.t_steps, merged=True)
    assert float(rows[0]["accuracy"]) == clean_acc
    assert float(rows[0]["accuracy_sd"]) == 0.0


def test_center_crop_row_equals_five_evaluations(trained, tmp_path, monkeypatch):
    # the crop draws nothing, so its one evaluation must write the row that
    # one evaluation per robustness seed writes, byte for byte
    from mpsl import cli
    from mpsl.cli import N_ROBUSTNESS_SEEDS
    from mpsl.data import PerturbationSpec, perturb_dataset
    from mpsl.trainer import evaluate, load_datasets, network_from_checkpoint, run_rngs

    calls = []
    monkeypatch.setattr(cli, "evaluate", lambda *a, **k: calls.append(1) or evaluate(*a, **k))
    assert main([
        "robustness", "--checkpoint", str(trained["checkpoint"]), "--kinds", "center-crop",
        "--levels", "1", "--out-dir", str(tmp_path), "--seed", "7",
    ]) == 0
    assert len(calls) == 1
    _header, rows = read_metrics(tmp_path / "robustness.csv")
    net, cfg, _ = network_from_checkpoint(trained["checkpoint"])
    _train_ds, test_ds = load_datasets(cfg, run_rngs(cfg.seed)[0])
    spec = PerturbationSpec("center-crop", 1)
    results = [evaluate(net, perturb_dataset(test_ds, spec, seed=7 + i), cfg.t_steps, merged=True)
               for i in range(N_ROBUSTNESS_SEEDS)]
    accs = [acc for acc, _loss in results]
    losses = [loss for _acc, loss in results]
    assert len(rows) == 1
    assert rows[0]["accuracy"] == repr(float(np.mean(accs)))
    assert rows[0]["loss"] == repr(float(np.mean(losses)))
    assert rows[0]["accuracy_sd"] == repr(float(np.std(accs)))


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


def test_robustness_empty_kinds_exits_2(trained, capsys):
    for kinds in ("", " , "):
        code = main([
            "robustness", "--checkpoint", str(trained["checkpoint"]), "--kinds", kinds,
        ])
        assert code == 2
        assert "--kinds: need at least one kind" in capsys.readouterr().err


def test_robustness_non_finite_level_exits_2_naming_kind_and_level(trained, tmp_path, capsys):
    for kind, level in (("gaussian", "nan"), ("gaussian", "inf"), ("center-crop", "nan")):
        code = main([
            "robustness", "--checkpoint", str(trained["checkpoint"]),
            "--kinds", kind, "--levels", level, "--out-dir", str(tmp_path),
        ])
        assert code == 2
        assert f"{kind} level must be finite, got {level}" in capsys.readouterr().err
    assert not (tmp_path / "robustness.csv").exists()


def test_robustness_bad_level_exits_2_before_any_evaluation(trained, tmp_path, monkeypatch,
                                                            capsys):
    from mpsl import cli
    from mpsl.trainer import evaluate

    calls = []
    monkeypatch.setattr(cli, "evaluate", lambda *a, **k: calls.append(1) or evaluate(*a, **k))
    code = main([
        "robustness", "--checkpoint", str(trained["checkpoint"]),
        "--kinds", "gaussian,salt-pepper,center-crop", "--levels", "0.2",
        "--out-dir", str(tmp_path),
    ])
    assert code == 2
    assert "crop side must be an integer" in capsys.readouterr().err
    assert calls == []
    assert not (tmp_path / "robustness.csv").exists()


def test_robustness_negative_zero_is_the_zero_level(trained, tmp_path):
    code = main([
        "robustness", "--checkpoint", str(trained["checkpoint"]),
        "--kinds", "gaussian,salt-pepper", "--levels=-0.0", "--out-dir", str(tmp_path),
    ])
    assert code == 0
    _header, rows = read_metrics(tmp_path / "robustness.csv")
    assert [r["epoch_or_level"] for r in rows] == ["0.0", "0.0"]
    assert rows[0]["accuracy"] == rows[1]["accuracy"]  # both kinds leave the images as they are


def test_negative_seed_exits_2_naming_the_field(trained, tmp_path, capsys):
    config = write_config(tmp_path, seed=-1)
    assert main(["train", "--config", str(config), "--out-dir", str(tmp_path / "a")]) == 2
    assert "field 'seed'" in capsys.readouterr().err
    config = write_config(tmp_path)
    assert main(["train", "--config", str(config), "--seed", "-3",
                 "--out-dir", str(tmp_path / "b")]) == 2
    assert "field 'seed'" in capsys.readouterr().err
    assert main(["robustness", "--checkpoint", str(trained["checkpoint"]),
                 "--seed", "-1", "--out-dir", str(tmp_path / "c")]) == 2
    assert "--seed: must be >= 0" in capsys.readouterr().err
    assert main(["gradcheck", "--trials", "1", "--seed", "-1"]) == 2
    assert "--seed: must be >= 0" in capsys.readouterr().err


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


def test_frozen_source_lambda_of_the_wrong_shape_exits_2(tmp_path, capsys):
    from mpsl.numerics import make_rng
    from mpsl.trainer import TrainConfig, checkpoint_entries, network_from_config

    base = write_config(tmp_path)
    cfg = TrainConfig.from_dict(json.loads(base.read_text()))
    entries = checkpoint_entries(network_from_config(cfg), None)
    entries["layers.0.lam"] = np.full(2, 0.5)
    source = tmp_path / "short-lambda.ckpt"
    save_checkpoint(source, cfg.canonical_json(), 0, make_rng(0).bit_generator.state, entries)
    config = write_config(tmp_path, lambda_mode="frozen-learned", frozen_source=str(source))
    code = main(["train", "--config", str(config), "--out-dir", str(tmp_path / "x")])
    assert code == 2
    err = capsys.readouterr().err
    assert "'layers.0.lam' has shape (2,), expected (3,)" in err


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
