"""Acceptance gate: one test per criterion, each printing a PASS line
(run with -s to see them; pytest's own PASS/FAIL report mirrors them).

The desk-scale accuracy gate needs the four MNIST IDX files; point
MPSL_MNIST_DIR at a directory holding them (plain or .gz). Without the
files that criterion is reported as SKIPPED, not passed, and the
robustness-harness contract runs against a synthetic-blobs model instead.
"""

import json
import math
import os
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from helpers import canonical_batch_events, strip_wall_clock, zero_network
from oracles import window_oracle

from mpsl.cli import main
from mpsl.data import Dataset, synthetic_blobs
from mpsl.metrics import read_metrics
from mpsl.network import forward_inference, init_network
from mpsl.neuron import LifConfig
from mpsl.numerics import make_rng
from mpsl.plasticity import SbpParams
from mpsl.trainer import (
    Adam,
    TrainConfig,
    evaluate,
    load_datasets,
    network_from_checkpoint,
    network_from_config,
    run_ablation,
    run_rngs,
    train_epoch,
)

MNIST_NAMES = (
    "train-images-idx3-ubyte",
    "train-labels-idx1-ubyte",
    "t10k-images-idx3-ubyte",
    "t10k-labels-idx1-ubyte",
)


def _report(criterion: int, text: str) -> None:
    print(f"[criterion {criterion}] PASS: {text}", flush=True)


def _mnist_dir() -> Path | None:
    root = Path(os.environ.get("MPSL_MNIST_DIR", Path(__file__).parent.parent / "data" / "mnist"))
    if all((root / n).exists() or (root / (n + ".gz")).exists() for n in MNIST_NAMES):
        return root
    return None


@pytest.fixture(scope="session")
def mnist_dir():
    return _mnist_dir()


@pytest.fixture(scope="session")
def desk_model(mnist_dir, tmp_path_factory):
    """Table-1 desk-scale MNIST run (T=8, batch 100, v_th 0.3, tau_w 40,
    784-256-10, 5 epochs). Trains once per session when the data exists."""
    if mnist_dir is None:
        return None
    tmp = tmp_path_factory.mktemp("desk")
    config = {
        "dataset": "mnist",
        "data_dir": str(mnist_dir),
        "layer_sizes": [784, 256, 10],
        "t_steps": 8,
        "epochs": 5,
        "batch_size": 100,
        "lr": 0.001,
        "seed": 42,
        "lambda_mode": "learnable",
        "lif": {"v_th": 0.3},
        "sbp": {"tau_w": 40.0},
    }
    config_path = tmp / "mnist.json"
    config_path.write_text(json.dumps(config))
    out = tmp / "out"
    t0 = time.perf_counter()
    code = main(["train", "--config", str(config_path), "--out-dir", str(out)])
    seconds = time.perf_counter() - t0
    assert code == 0
    _header, rows = read_metrics(out / "metrics.csv")
    final_acc = float([r for r in rows if r["split"] == "test"][-1]["accuracy"])
    return {"out": out, "checkpoint": out / "model.ckpt", "seconds": seconds,
            "final_acc": final_acc}


def blobs_cli_config(tmp_path, name="config.json", **overrides):
    cfg = {
        "dataset": "synthetic-blobs",
        "layer_sizes": [40, 64, 10],
        "blobs": {"n_per_class": 120, "test_n_per_class": 40, "classes": 10,
                  "dim": 40, "sigma": 0.05},
        "t_steps": 8,
        "epochs": 6,
        "batch_size": 32,
        "lr": 0.001,
        "seed": 3,
        "lambda_mode": "learnable",
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


@pytest.fixture(scope="session")
def fallback_model(tmp_path_factory):
    """Synthetic stand-in fixture for the harness-contract checks when the
    MNIST files are absent."""
    tmp = tmp_path_factory.mktemp("fallback")
    config = blobs_cli_config(tmp)
    out = tmp / "out"
    assert main(["train", "--config", str(config), "--out-dir", str(out)]) == 0
    return {"out": out, "checkpoint": out / "model.ckpt"}


# --- criterion 1: the training window's plasticity matches the oracle ---------


def _window_start(net):
    """The plain-list state a training window starts from."""
    return {
        "layers": [{"w1": layer.w1.tolist(), "w2": layer.w2.tolist(), "w3": layer.w3.tolist(),
                    "lam": layer.lam.tolist(), "eta": float(layer.eta),
                    "beta": float(layer.beta)} for layer in net.layers],
        "lif": {"v_th": net.lif.v_th, "rho_m": net.lif.rho_m, "dt": net.lif.dt},
        "lambda_f": float(net.lambda_f), "lambda_p": float(net.lambda_p),
        "tau_w": net.sbp.tau_w,
    }


def _oracle_windows(start, batches, t_steps, includes_decay, coverage=None):
    """W2/W3 after running the windows of `batches` in turn, each window
    continuing the previous one's W2/W3 (the sequential schedule)."""
    layers = start["layers"]
    for xs in batches:
        w2, w3 = window_oracle(layers, xs, t_steps, start["lif"], start["lambda_f"],
                               start["lambda_p"], start["tau_w"], includes_decay, coverage)
        layers = [dict(layer, w2=a, w3=b) for layer, a, b in zip(layers, w2, w3)]
    return layers


def _max_error(net, layers):
    """Largest |window - oracle| over every W2/W3 entry; inf if any is NaN."""
    diffs = np.array([np.abs(getattr(layer, name) - np.array(ref[name])).max()
                      for layer, ref in zip(net.layers, layers) for name in ("w2", "w3")])
    return math.inf if np.isnan(diffs).any() else float(diffs.max())


def test_criterion_1_plasticity_oracle_equality():
    rng = make_rng(101)
    t0 = time.perf_counter()
    worst = flipped_worst = 0.0
    coverage = Counter()
    for trial in range(150):
        # depth 1-3: at depth 1 the input layer is also the top layer
        sizes = [int(v) for v in rng.integers(1, 8, size=int(rng.integers(2, 5)))]
        t_steps = int(rng.integers(1, 5))
        batch = int(rng.integers(1, 5))
        sequential = bool(rng.integers(2))
        sbp = SbpParams(tau_w=float(rng.uniform(5.0, 200.0)))
        lif = LifConfig(v_th=0.3, rho_m=float(rng.uniform(0.2, 1.0)))
        net = init_network(sizes, seed=trial, lif=lif, sbp=sbp)
        # zeroed local pathways let whole column totals vanish exactly
        zero_plastic = rng.uniform() < 0.3
        for layer in net.layers:
            if zero_plastic:
                layer.w2 = np.zeros_like(layer.w2)
                layer.w3 = np.zeros_like(layer.w3)
            layer.lam = rng.uniform(0.1, 0.9, size=3)
            layer.eta = np.asarray(rng.uniform(0.001, 0.1))
            layer.beta = np.asarray(rng.uniform(-0.6, 0.6))
        net.lambda_f = np.asarray(rng.uniform(0.1, 1.0))
        net.lambda_p = np.asarray(rng.uniform(0.1, 1.0))
        x = (rng.uniform(size=(batch, sizes[0])) < 0.6).astype(np.float64)
        labels = rng.integers(sizes[-1], size=batch)
        data = Dataset(x, labels, sizes[0], 1, sizes[-1])
        cfg = TrainConfig(layer_sizes=sizes, t_steps=t_steps, batch_size=batch,
                          sequential_plasticity=sequential)

        start = _window_start(net)
        order = make_rng(trial).permutation(batch)
        batches = [[x[i].tolist()] for i in order] if sequential else [x[order].tolist()]
        train_epoch(net, data, cfg, Adam(cfg.lr), make_rng(trial))

        trial_coverage = Counter()
        expected = _oracle_windows(start, batches, t_steps, True, trial_coverage)
        worst = max(worst, _max_error(net, expected))
        # negative control: the feedback rule handed the bare Hebbian increment
        flipped = _oracle_windows(start, batches, t_steps, False)
        flipped_worst = max(flipped_worst, _max_error(net, flipped))
        coverage.update({k: 1 for k in trial_coverage})
        coverage["batch > 1"] += batch > 1
        coverage["depth 1"] += len(sizes) == 2
        coverage["sequential"] += sequential
        coverage["sequential over >= 3 items, non-zero input"] += (
            sequential and batch >= 3 and bool(x.any()))
    seconds = time.perf_counter() - t0
    assert worst <= 1e-12
    assert flipped_worst > 1e-12, "oracle with the bare increment still agrees"
    for case in ("top layer", "degenerate normalization", "batch > 1", "sequential",
                 "sequential over >= 3 items, non-zero input", "depth 1"):
        assert coverage[case] >= 1, f"no trial covered: {case}"
    assert seconds < 5.0
    _report(1, f"150 train_epoch windows, max abs error {worst:.2e} "
               f"(bare-increment oracle: {flipped_worst:.2e}) in {seconds:.2f}s; "
               f"trials per case {dict(sorted(coverage.items()))}")


# --- criterion 2: gradients match the independent oracle --------------------


def test_criterion_2_gradient_correctness(capsys):
    t0 = time.perf_counter()
    code = main(["gradcheck", "--trials", "50", "--seed", "20240501"])
    seconds = time.perf_counter() - t0
    out = capsys.readouterr().out
    assert code == 0, out
    assert seconds < 60.0
    with capsys.disabled():
        _report(2, f"50 trials within 1e-6 in {seconds:.1f}s ({out.splitlines()[0]})")


# --- criterion 3: merge equivalence ------------------------------------------


def test_criterion_3_merge_equivalence():
    rng = make_rng(303)
    agree = 0
    worst = 0.0
    for net_seed in range(20):
        net = init_network([30, 24, 10], seed=net_seed, lif=LifConfig(), sbp=SbpParams())
        for layer in net.layers:
            layer.w2 = rng.normal(scale=0.3, size=layer.w2.shape)
            layer.w3 = rng.normal(scale=0.3, size=layer.w3.shape)
            layer.lam = rng.uniform(0.1, 0.6, size=3)
        x = rng.uniform(size=(50, 30))
        merged_counts, _ = forward_inference(net, x, 8, merged=True)
        plain_counts, _ = forward_inference(net, x, 8, merged=False)
        worst = max(worst, float(np.abs(merged_counts - plain_counts).max()))
        agree += int((np.argmax(merged_counts, 1) == np.argmax(plain_counts, 1)).sum())
    assert agree == 20 * 50
    assert worst <= 1e-9
    _report(3, f"1000/1000 label agreements over 20 networks, max logit diff {worst:.2e}")


# --- criterion 4: desk-scale accuracy proxy ----------------------------------


def test_criterion_4_desk_scale_mnist_accuracy(desk_model):
    if desk_model is None:
        pytest.skip(
            "MNIST IDX files not available (set MPSL_MNIST_DIR to a directory with "
            "train-images-idx3-ubyte, train-labels-idx1-ubyte, t10k-images-idx3-ubyte, "
            "t10k-labels-idx1-ubyte); the desk-scale accuracy gate cannot run offline"
        )
    assert desk_model["seconds"] < 1200.0, "desk-scale run exceeded the 20 min budget"
    assert desk_model["final_acc"] >= 0.95
    _report(4, f"MNIST 784-256-10 reached {desk_model['final_acc']:.4f} "
               f"in {desk_model['seconds']:.0f}s")


# --- criterion 5: update ordering matches the canonical schedule -------------


def test_criterion_5_update_ordering():
    cfg = TrainConfig()
    cfg.layer_sizes = [32, 24, 4]
    cfg.blobs.dim = 32
    cfg.blobs.n_per_class = 4
    cfg.blobs.test_n_per_class = 2
    cfg.batch_size = 16
    cfg.validate()
    data = synthetic_blobs(make_rng(1), 4, 4, 32, 0.05)
    net = network_from_config(cfg)
    events: list = []
    train_epoch(net, data, cfg, Adam(cfg.lr), make_rng(2), events=events)
    expected = canonical_batch_events(cfg.t_steps, len(net.layers), 1)
    assert events == expected
    # a per-item step over the same 16 items runs the schedule once per item
    item_events: list = []
    item_cfg = replace(cfg, sequential_plasticity=True)
    train_epoch(network_from_config(item_cfg), data, item_cfg, Adam(cfg.lr), make_rng(2),
                events=item_events)
    assert item_events == canonical_batch_events(cfg.t_steps, len(net.layers), len(data))
    _report(5, f"one-batch event log matches the canonical {len(expected)}-event schedule, "
               f"and a per-item batch the {len(item_events)}-event one")


# --- criterion 6: robustness harness contract ---------------------------------


def test_criterion_6_robustness_monotone_degradation(desk_model, fallback_model, tmp_path):
    model = desk_model if desk_model is not None else fallback_model
    fixture_name = "desk-scale MNIST model" if desk_model is not None else \
        "synthetic-blobs stand-in (MNIST files unavailable)"
    out = tmp_path / "rob"
    code = main([
        "robustness", "--checkpoint", str(model["checkpoint"]),
        "--kinds", "gaussian", "--levels", "0.0,0.1,0.2,0.3,0.4",
        "--out-dir", str(out), "--seed", "202",
    ])
    assert code == 0
    _header, rows = read_metrics(out / "robustness.csv")
    assert [r["epoch_or_level"] for r in rows] == ["0.0", "0.1", "0.2", "0.3", "0.4"]
    accs = [float(r["accuracy"]) for r in rows]
    for i in range(len(accs) - 1):
        assert accs[i + 1] <= accs[i] + 0.005, f"accuracy rose at level {i + 1}: {accs}"

    net, cfg, _ = network_from_checkpoint(model["checkpoint"])
    data_rng, _shuffle_rng = run_rngs(cfg.seed)
    _train_ds, test_ds = load_datasets(cfg, data_rng)
    clean_acc, _ = evaluate(net, test_ds, cfg.t_steps, merged=True)
    assert float(rows[0]["accuracy"]) == clean_acc
    assert float(rows[0]["accuracy_sd"]) == 0.0
    _report(6, f"gaussian sweep on the {fixture_name}: "
               f"{[round(a, 4) for a in accs]} non-increasing, sigma=0 equals clean")


# --- criterion 7: ablation contract -------------------------------------------


def test_criterion_7_ablation_contract(tmp_path):
    cfg = TrainConfig()
    cfg.layer_sizes = [40, 64, 10]
    cfg.blobs.dim = 40
    cfg.blobs.classes = 10
    cfg.blobs.n_per_class = 60
    cfg.blobs.test_n_per_class = 20
    cfg.epochs = 3
    cfg.batch_size = 32
    cfg.validate()
    report = run_ablation(cfg, tmp_path, seeds=[1, 2, 3])
    assert len(report.rows) == 3 * 3 * cfg.epochs
    for mode in ("fixed", "learnable", "frozen-learned"):
        assert len(report.final_accuracy[mode]) == 3
    for row in report.rows:
        assert row.variant in ("fixed", "learnable", "frozen-learned")
        assert row.split == "train"
    means = {m: float(np.mean(v)) for m, v in report.final_accuracy.items()}
    _report(7, f"3 seeds x 3 modes complete; final means {means}; "
               f"learnable >= fixed: {report.learnable_beats_fixed} (logged, not gated)")


# --- criterion 8: determinism --------------------------------------------------


def test_criterion_8_byte_identical_reruns(tmp_path):
    config = blobs_cli_config(tmp_path, epochs=2,
                              blobs={"n_per_class": 40, "test_n_per_class": 20,
                                     "classes": 10, "dim": 40, "sigma": 0.05})
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["train", "--config", str(config), "--out-dir", str(out_a)]) == 0
    assert main(["train", "--config", str(config), "--out-dir", str(out_b)]) == 0
    assert strip_wall_clock(out_a / "metrics.csv") == strip_wall_clock(out_b / "metrics.csv")
    assert (out_a / "model.ckpt").read_bytes() == (out_b / "model.ckpt").read_bytes()

    rob_a, rob_b = tmp_path / "ra", tmp_path / "rb"
    for rob in (rob_a, rob_b):
        assert main(["robustness", "--checkpoint", str(out_a / "model.ckpt"),
                     "--kinds", "salt-pepper", "--levels", "0.1,0.2",
                     "--out-dir", str(rob), "--seed", "7"]) == 0
    assert strip_wall_clock(rob_a / "robustness.csv") == strip_wall_clock(rob_b / "robustness.csv")

    feat_a, feat_b = tmp_path / "fa.csv", tmp_path / "fb.csv"
    for feat in (feat_a, feat_b):
        assert main(["export-features", "--checkpoint", str(out_a / "model.ckpt"),
                     "--n-samples", "50", "--out", str(feat)]) == 0
    assert feat_a.read_bytes() == feat_b.read_bytes()
    _report(8, "train, robustness and export-features re-runs byte-identical "
               "(wall-clock column excluded)")


# --- criterion 9: loss sanity ---------------------------------------------------


def test_criterion_9_first_batch_loss_equals_log_classes():
    cfg = TrainConfig()
    cfg.layer_sizes = [20, 16, 10]
    cfg.batch_size = 8
    cfg.validate()
    data = Dataset(images=np.zeros((8, 20)), labels=np.arange(8, dtype=np.int64) % 10,
                   width=20, height=1, num_classes=10)
    net = zero_network(cfg.layer_sizes, cfg.lif, cfg.sbp)
    metrics = train_epoch(net, data, cfg, Adam(cfg.lr), make_rng(1))
    err = abs(metrics.batch_losses[0] - math.log(10))
    assert err <= 1e-9
    _report(9, f"zero-initialized first-batch loss ln(10) within {err:.1e}")
