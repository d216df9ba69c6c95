import math

import numpy as np
import numpy.testing as npt
import pytest

from mpsl.data import Dataset, synthetic_blobs
from mpsl.network import forward_inference, init_network
from mpsl.neuron import LifConfig
from mpsl.numerics import make_rng
from mpsl.plasticity import SbpParams
from mpsl.trainer import (
    Adam,
    ConfigError,
    NumericAbortError,
    TrainConfig,
    canonical_batch_events,
    evaluate,
    network_from_config,
    run_ablation,
    run_training,
    train_epoch,
)


def blobs_config(classes=4, dim=32, hidden=64, epochs=2, seed=1, batch=16, lr=1e-3):
    cfg = TrainConfig()
    cfg.blobs.classes = classes
    cfg.blobs.dim = dim
    cfg.blobs.n_per_class = 60
    cfg.blobs.test_n_per_class = 20
    cfg.layer_sizes = [dim, hidden, classes]
    cfg.epochs = epochs
    cfg.seed = seed
    cfg.batch_size = batch
    cfg.lr = lr
    cfg.validate()
    return cfg


def zero_input_dataset(n=8, dim=20, classes=10):
    rng = make_rng(0)
    return Dataset(
        images=np.zeros((n, dim)),
        labels=rng.integers(0, classes, size=n).astype(np.int64),
        width=dim, height=1, num_classes=classes,
    )


# --- config parsing ---------------------------------------------------------


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown config keys.*typo_key"):
        TrainConfig.from_dict({"typo_key": 1})
    with pytest.raises(ConfigError, match="unknown keys in 'lif'"):
        TrainConfig.from_dict({"lif": {"vth": 0.3}})


def test_config_field_level_messages():
    with pytest.raises(ConfigError, match="field 'lr'"):
        TrainConfig.from_dict({"lr": -1})
    with pytest.raises(ConfigError, match="field 't_steps'"):
        TrainConfig.from_dict({"t_steps": 0})
    with pytest.raises(ConfigError, match="field 'lambda_mode'"):
        TrainConfig.from_dict({"lambda_mode": "sometimes"})
    with pytest.raises(ConfigError, match="field 'frozen_source'"):
        TrainConfig.from_dict({"lambda_mode": "frozen-learned"})
    with pytest.raises(ConfigError, match="field 'epochs': expected an integer"):
        TrainConfig.from_dict({"epochs": 2.5})
    with pytest.raises(ConfigError, match="field 'blobs.n_per_class'"):
        TrainConfig.from_dict({"blobs": {"n_per_class": 0}})
    with pytest.raises(ConfigError, match="field 'blobs.test_n_per_class'"):
        TrainConfig.from_dict({"blobs": {"test_n_per_class": 0}})
    with pytest.raises(ConfigError, match="field 'blobs.sigma'"):
        TrainConfig.from_dict({"blobs": {"sigma": -1}})


def test_config_accepts_reference_mnist_settings_verbatim():
    cfg = TrainConfig.from_dict({
        "dataset": "mnist", "data_dir": "/data/mnist",
        "layer_sizes": [784, 256, 10],
        "t_steps": 8, "batch_size": 100,
        "lif": {"v_th": 0.3}, "sbp": {"tau_w": 40.0},
    })
    assert cfg.t_steps == 8 and cfg.batch_size == 100
    assert cfg.lif.v_th == 0.3 and cfg.sbp.tau_w == 40.0


def test_config_round_trips_through_json():
    cfg = blobs_config()
    again = TrainConfig.from_dict(cfg.to_dict())
    assert again.canonical_json() == cfg.canonical_json()


# --- loss sanity ------------------------------------------------------------


def test_first_batch_loss_is_log_num_classes_for_zero_init():
    data = zero_input_dataset(n=8, dim=20, classes=10)
    cfg = TrainConfig()
    cfg.layer_sizes = [20, 16, 10]
    cfg.batch_size = 8
    cfg.validate()
    net = init_network(cfg.layer_sizes, seed=0, lif=cfg.lif, sbp=cfg.sbp, zero_weights=True)
    metrics = train_epoch(net, data, cfg, Adam(cfg.lr), make_rng(1))
    assert abs(metrics.batch_losses[0] - math.log(10)) <= 1e-9


# --- lambda modes -----------------------------------------------------------


def test_fixed_mode_keeps_lambda_constant():
    cfg = blobs_config(epochs=1)
    cfg.lambda_mode = "fixed"
    result = run_training(cfg)
    for layer in result.net.layers:
        npt.assert_array_equal(layer.lam, np.full(3, 1 / 3))


def test_learnable_mode_moves_lambda():
    cfg = blobs_config(epochs=1)
    cfg.lambda_mode = "learnable"
    result = run_training(cfg)
    moved = any(
        not np.array_equal(layer.lam, np.full(3, 1 / 3)) for layer in result.net.layers
    )
    assert moved


def test_frozen_learned_mode_uses_source_lambdas(tmp_path):
    cfg = blobs_config(epochs=1)
    cfg.lambda_mode = "learnable"
    source = run_training(cfg, tmp_path / "src")
    source_lams = [layer.lam.copy() for layer in source.net.layers]

    frozen_cfg = blobs_config(epochs=1)
    frozen_cfg.lambda_mode = "frozen-learned"
    frozen_cfg.frozen_source = str(source.checkpoint_path)
    frozen_cfg.validate()
    result = run_training(frozen_cfg)
    for layer, src in zip(result.net.layers, source_lams):
        npt.assert_array_equal(layer.lam, src)


def test_fraction_factors_stay_projected():
    cfg = blobs_config(epochs=2, lr=0.05)  # aggressive steps
    result = run_training(cfg)
    assert 0.1 <= float(result.net.lambda_f) <= 1.0
    assert 0.1 <= float(result.net.lambda_p) <= 1.0


# --- determinism ------------------------------------------------------------


def test_training_is_deterministic():
    cfg = blobs_config(epochs=2)
    a = run_training(cfg)
    b = run_training(cfg)
    for ra, rb in zip(a.rows, b.rows):
        assert (ra.loss, ra.accuracy, ra.lambda_values) == (rb.loss, rb.accuracy, rb.lambda_values)
    for la, lb in zip(a.net.layers, b.net.layers):
        npt.assert_array_equal(la.w1, lb.w1)
        npt.assert_array_equal(la.w2, lb.w2)
        npt.assert_array_equal(la.w3, lb.w3)


def test_sequential_mode_matches_batched_at_batch_size_one():
    cfg = blobs_config(epochs=1, batch=1)
    cfg.blobs.n_per_class = 8
    cfg.blobs.test_n_per_class = 4
    a = run_training(cfg)
    cfg2 = blobs_config(epochs=1, batch=1)
    cfg2.blobs.n_per_class = 8
    cfg2.blobs.test_n_per_class = 4
    cfg2.sequential_plasticity = True
    b = run_training(cfg2)
    for la, lb in zip(a.net.layers, b.net.layers):
        npt.assert_array_equal(la.w1, lb.w1)
        npt.assert_array_equal(la.w2, lb.w2)
        npt.assert_array_equal(la.w3, lb.w3)


def test_sequential_mode_differs_from_batched_for_larger_batches():
    cfg = blobs_config(epochs=1, batch=8)
    a = run_training(cfg)
    cfg2 = blobs_config(epochs=1, batch=8)
    cfg2.sequential_plasticity = True
    b = run_training(cfg2)
    assert not np.array_equal(a.net.layers[0].w2, b.net.layers[0].w2)


def test_checkpoint_round_trip_reproduces_trajectory(tmp_path):
    from mpsl.checkpoint import load_checkpoint, save_checkpoint
    from mpsl.trainer import checkpoint_entries, load_datasets, restore_adam, restore_network

    cfg = blobs_config(epochs=3, seed=5)
    seqs = np.random.SeedSequence(cfg.seed).spawn(2)

    def fresh():
        data_rng = np.random.Generator(np.random.PCG64(seqs[0]))
        train, test = load_datasets(cfg, data_rng)
        net = network_from_config(cfg)
        opt = Adam(cfg.lr)
        rng = np.random.Generator(np.random.PCG64(seqs[1]))
        return train, net, opt, rng

    # uninterrupted: three epochs straight through
    train, net_a, opt_a, rng_a = fresh()
    for epoch in range(3):
        train_epoch(net_a, train, cfg, opt_a, rng_a, epoch)

    # interrupted: two epochs, checkpoint, restore, one more epoch
    train, net_b, opt_b, rng_b = fresh()
    for epoch in range(2):
        train_epoch(net_b, train, cfg, opt_b, rng_b, epoch)
    path = tmp_path / "mid.ckpt"
    save_checkpoint(path, cfg.canonical_json(), epoch=2,
                    rng_state=rng_b.bit_generator.state,
                    entries=checkpoint_entries(net_b, opt_b))
    ckpt = load_checkpoint(path)
    net_c = restore_network(cfg, ckpt)
    opt_c = restore_adam(cfg, ckpt)
    rng_c = np.random.Generator(np.random.PCG64(0))
    rng_c.bit_generator.state = ckpt.rng_state
    train_epoch(net_c, train, cfg, opt_c, rng_c, 2)

    for la, lc in zip(net_a.layers, net_c.layers):
        npt.assert_array_equal(la.w1, lc.w1)
        npt.assert_array_equal(la.w2, lc.w2)
        npt.assert_array_equal(la.w3, lc.w3)
        npt.assert_array_equal(la.lam, lc.lam)
    npt.assert_array_equal(net_a.lambda_f, net_c.lambda_f)


# --- evaluation -------------------------------------------------------------


def test_merged_and_three_path_inference_agree_on_labels():
    rng = make_rng(77)
    total = 0
    for net_seed in range(10):
        net = init_network([12, 10, 6], seed=net_seed, lif=LifConfig(), sbp=SbpParams())
        for layer in net.layers:
            layer.w2 = rng.normal(scale=0.4, size=layer.w2.shape)
            layer.w3 = rng.normal(scale=0.4, size=layer.w3.shape)
            layer.lam = rng.uniform(0.1, 0.6, size=3)
        x = rng.uniform(size=(100, 12))
        merged_counts, _ = forward_inference(net, x, 8, merged=True)
        plain_counts, _ = forward_inference(net, x, 8, merged=False)
        assert np.abs(merged_counts - plain_counts).max() <= 1e-9
        total += int((np.argmax(merged_counts, 1) == np.argmax(plain_counts, 1)).sum())
    assert total == 1000


def test_untrained_network_sits_at_chance_level():
    ds = synthetic_blobs(make_rng(4), 200, 10, 40, 0.05)
    cfg = TrainConfig()
    cfg.layer_sizes = [40, 64, 10]
    accs = []
    for seed in range(1, 21):
        cfg.seed = seed
        net = network_from_config(cfg)
        acc, _ = evaluate(net, ds, cfg.t_steps, merged=True)
        accs.append(acc)
    assert abs(float(np.mean(accs)) - 0.10) <= 0.03


def test_single_sample_overfit():
    ds = synthetic_blobs(make_rng(3), 5, 4, 16, 0.05)
    one = Dataset(images=ds.images[7:8], labels=ds.labels[7:8], width=ds.width,
                  height=ds.height, num_classes=ds.num_classes)
    cfg = TrainConfig()
    cfg.layer_sizes = [16, 32, 4]
    cfg.batch_size = 1
    cfg.lr = 5e-3
    cfg.seed = 2
    cfg.validate()
    net = network_from_config(cfg)
    opt = Adam(cfg.lr)
    rng = make_rng(0)
    for step in range(200):
        train_epoch(net, one, cfg, opt, rng, step)
    acc, _ = evaluate(net, one, cfg.t_steps, merged=True)
    assert acc == 1.0


# --- schedule and guards ----------------------------------------------------


def test_event_log_matches_canonical_sequence():
    cfg = blobs_config()
    cfg.blobs.n_per_class = 4  # one batch of 16
    cfg.blobs.test_n_per_class = 2
    cfg.batch_size = 16
    data = synthetic_blobs(make_rng(1), 4, 4, 32, 0.05)
    net = network_from_config(cfg)
    events: list = []
    train_epoch(net, data, cfg, Adam(cfg.lr), make_rng(2), events=events)
    assert events == canonical_batch_events(cfg.t_steps, len(net.layers))


def test_nan_state_aborts_with_diagnostics():
    cfg = blobs_config(epochs=1)
    data = synthetic_blobs(make_rng(1), 10, 4, 32, 0.05)
    net = network_from_config(cfg)
    net.layers[0].w1[0, 0] = np.nan
    with pytest.raises(NumericAbortError) as excinfo:
        train_epoch(net, data, cfg, Adam(cfg.lr), make_rng(2))
    err = excinfo.value
    assert err.batch_index == 0
    assert "layers.0.w1" in err.norms


# --- ablation ---------------------------------------------------------------


def test_ablation_report_structure(tmp_path):
    cfg = blobs_config(classes=4, dim=32, hidden=48, epochs=2)
    report = run_ablation(cfg, tmp_path, seeds=[1, 2])
    # 3 modes x 2 seeds x epochs train rows
    assert len(report.rows) == 3 * 2 * cfg.epochs
    fixed_rows = [row for row in report.rows if row.variant == "fixed"]
    third = repr(1 / 3)
    for row in fixed_rows:
        for group in row.lambda_values.split(";"):
            assert group == "|".join([third] * 3)
    assert isinstance(report.learnable_beats_fixed, bool)
    for mode in ("fixed", "learnable", "frozen-learned"):
        assert len(report.final_accuracy[mode]) == 2


def test_ablation_frozen_rows_carry_source_lambdas(tmp_path):
    cfg = blobs_config(classes=4, dim=32, hidden=48, epochs=2)
    report = run_ablation(cfg, tmp_path, seeds=[3])
    learnable_rows = [r for r in report.rows if r.variant == "learnable"]
    frozen_rows = [r for r in report.rows if r.variant == "frozen-learned"]
    final_learned = learnable_rows[-1].lambda_values
    for row in frozen_rows:
        assert row.lambda_values == final_learned
