import copy
import json
import math
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

from mpsl.data import Dataset, synthetic_blobs
from mpsl.network import forward_inference, init_network
from mpsl.neuron import LifConfig, fused_input, membrane_step, spike
from mpsl.numerics import make_rng
from mpsl.plasticity import SbpParams, merge_weights
from mpsl import network as network_module
from mpsl import trainer as trainer_module
from mpsl.window import backward, record_forward
from mpsl.trainer import (
    Adam,
    ConfigError,
    NumericAbortError,
    TrainConfig,
    evaluate,
    make_run_id,
    network_from_config,
    run_ablation,
    run_training,
    step_gradients,
    train_epoch,
)

from helpers import zero_network


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
    with pytest.raises(ConfigError, match="field 'blobs.classes'"):
        TrainConfig.from_dict({"blobs": {"classes": 1}})
    with pytest.raises(ConfigError, match="field 'blobs.dim'"):
        TrainConfig.from_dict({"blobs": {"classes": 4, "dim": 3}})
    with pytest.raises(ConfigError, match="field 'seed'"):
        TrainConfig.from_dict({"seed": -1})
    # integers are never truncated, and null is allowed only where a field is optional
    with pytest.raises(ConfigError, match="field 'layer_sizes': expected an integer"):
        TrainConfig.from_dict({"layer_sizes": [784, 256.7, 10]})
    with pytest.raises(ConfigError, match="field 'blobs.n_per_class': expected an integer"):
        TrainConfig.from_dict({"blobs": {"n_per_class": 2.5}})
    with pytest.raises(ConfigError, match="field 'blobs.classes': expected an integer"):
        TrainConfig.from_dict({"blobs": {"classes": 4.9}})
    with pytest.raises(ConfigError, match="field 't_steps': expected an integer, got None"):
        TrainConfig.from_dict({"t_steps": None})
    with pytest.raises(ConfigError, match="field 'lif.v_th': expected a number, got None"):
        TrainConfig.from_dict({"lif": {"v_th": None}})
    # JSON's NaN and Infinity pass every range check, so they are refused first
    with pytest.raises(ConfigError, match="field 'lr': must be finite, got nan"):
        TrainConfig.from_dict(json.loads('{"lr": NaN}'))
    with pytest.raises(ConfigError, match="field 'lif.v_th': must be finite, got inf"):
        TrainConfig.from_dict(json.loads('{"lif": {"v_th": Infinity}}'))
    with pytest.raises(ConfigError, match="field 'blobs.sigma': must be finite, got nan"):
        TrainConfig.from_dict(json.loads('{"blobs": {"sigma": NaN}}'))
    # no decay is tau_w = 1e300 (decay exactly 1.0), not Infinity
    with pytest.raises(ConfigError, match="field 'sbp.tau_w': must be finite, got inf"):
        TrainConfig.from_dict(json.loads('{"sbp": {"tau_w": Infinity}}'))
    assert TrainConfig.from_dict({"sbp": {"tau_w": 1e300}}).sbp.decay(1.0) == 1.0
    with pytest.raises(ConfigError, match="field 'lambda_init': must be finite, got -inf"):
        TrainConfig.from_dict(json.loads('{"lambda_init": [1, 0, -Infinity]}'))
    assert TrainConfig.from_dict({"data_dir": None, "frozen_source": None}) == TrainConfig()


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


def test_run_ids_are_pinned():
    # a change to the config's serialization moves every run id and
    # checkpoint config hash. These were computed when the sbp section lost
    # its feedback-increment switch, which dropped a key from every config;
    # the MNIST case keeps its lif and sbp sections, so the id of a config
    # whose nested sections were read from JSON stays pinned too
    assert make_run_id(TrainConfig(), "train") == "370889b11e50"
    cfg = TrainConfig.from_dict({
        "dataset": "mnist", "data_dir": "/data/mnist", "layer_sizes": [784, 256, 10],
        "t_steps": 8, "batch_size": 100, "lif": {"v_th": 0.3}, "sbp": {"tau_w": 40.0},
    })
    assert make_run_id(cfg, "train") == "e1ac8e271bd7"


# --- loss sanity ------------------------------------------------------------


def test_first_batch_loss_is_log_num_classes_for_zero_init():
    data = zero_input_dataset(n=8, dim=20, classes=10)
    cfg = TrainConfig()
    cfg.layer_sizes = [20, 16, 10]
    cfg.batch_size = 8
    cfg.validate()
    net = zero_network(cfg.layer_sizes, cfg.lif, cfg.sbp)
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


def test_adam_step_is_byte_identical_to_the_expression_form():
    # the scratch-array step must keep every bit of the textbook expressions
    rng = make_rng(17)
    shapes = {"w": (7, 5), "lam": (3,), "eta": ()}
    params = {name: rng.normal(size=shape) for name, shape in shapes.items()}
    want = {name: p.copy() for name, p in params.items()}
    opt = Adam(lr=3e-3)
    m = {name: np.zeros(shape) for name, shape in shapes.items()}
    v = {name: np.zeros(shape) for name, shape in shapes.items()}
    for k in range(1, 6):
        grads = {name: rng.normal(size=shape) for name, shape in shapes.items()}
        opt.step(params, grads)
        bias1, bias2 = 1.0 - 0.9**k, 1.0 - 0.999**k
        for name, g in grads.items():
            m[name] = 0.9 * m[name] + (1.0 - 0.9) * g
            v[name] = 0.999 * v[name] + (1.0 - 0.999) * g * g
            want[name] = want[name] - 3e-3 * (m[name] / bias1) / (np.sqrt(v[name] / bias2) + 1e-8)
        for name in shapes:
            assert params[name].tobytes() == want[name].tobytes(), (k, name)
            assert opt.m[name].tobytes() == m[name].tobytes(), (k, name)
            assert opt.v[name].tobytes() == v[name].tobytes(), (k, name)


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


class GradRecorder:
    """Stands in for Adam: records each step's gradients, changes nothing."""

    def __init__(self):
        self.grads = []

    def step(self, params, grads, skip=frozenset()):
        self.grads.append({name: np.array(g, copy=True) for name, g in grads.items()})


def test_sequential_mode_matches_batched_steps_at_batch_size_one():
    # one sequential step over 4 items is 4 batched steps at batch 1 over the
    # same items with the parameters held still: same mean loss, same mean
    # gradient, same W2/W3 handed on
    cfg = blobs_config(batch=4)
    data = synthetic_blobs(make_rng(11), 1, 4, cfg.blobs.dim)
    net = network_from_config(cfg)
    outcomes = []
    for step_cfg in (replace(cfg, sequential_plasticity=True), replace(cfg, batch_size=1)):
        step_net = copy.deepcopy(net)
        recorder = GradRecorder()
        metrics = train_epoch(step_net, data, step_cfg, recorder, make_rng(12))
        grads = {name: np.mean([g[name] for g in recorder.grads], axis=0)
                 for name in recorder.grads[0]}
        plastic = [w for layer in step_net.layers for w in (layer.w2, layer.w3)]
        outcomes.append((len(recorder.grads), np.mean(metrics.batch_losses), grads, plastic))
    (n_seq, loss, grads, plastic), (n_batched, ref_loss, ref_grads, ref_plastic) = outcomes
    assert (n_seq, n_batched) == (1, 4)
    assert loss == pytest.approx(ref_loss, rel=0, abs=1e-12)
    for name in ref_grads:
        npt.assert_allclose(grads[name], ref_grads[name], rtol=0, atol=1e-12, err_msg=name)
    for w, ref in zip(plastic, ref_plastic):
        npt.assert_allclose(w, ref, rtol=0, atol=1e-12)


def test_per_item_w1_gradient_is_the_mean_of_per_item_products():
    # a per-item step records its 10 items in one window, carrying layer 1's
    # W2/W3 from item to item through the step's Gram matrix, and reverses
    # them at once; every gradient must be the mean of 10 batch-1 windows,
    # each handed the previous one's W2/W3, and the W2/W3 it leaves theirs
    rng = make_rng(23)
    x = (rng.uniform(size=(10, 784)) < 0.2) * rng.uniform(size=(10, 784))
    labels = rng.integers(10, size=10)
    net = init_network([784, 256, 10], seed=2, lif=LifConfig(), sbp=SbpParams())
    for layer in net.layers:  # W2/W3 as a later step finds them
        layer.w2 = rng.normal(scale=0.01, size=layer.w2.shape)
        layer.w3 = rng.normal(scale=0.01, size=layer.w3.shape)
    item_net = copy.deepcopy(net)
    loss, grads, _counts = step_gradients(net, x, labels, 8, per_item=True)
    item_losses, item_grads = [], []
    for i in range(10):
        window, _ = record_forward(item_net, x[i], labels[i], 8)
        (one,), w1_grads = backward(window)
        item_grads.append({**one, **w1_grads})
        item_losses.append(window.loss_value)
        for layer, w2, w3 in zip(item_net.layers, window.final_w2, window.final_w3):
            layer.w2, layer.w3 = w2, w3
    assert loss == pytest.approx(np.mean(item_losses), rel=0, abs=1e-12)
    assert grads.keys() == item_grads[0].keys()
    for name in grads:
        want = np.mean([g[name] for g in item_grads], axis=0)
        assert np.abs(want).max() > 1e-6, name
        npt.assert_allclose(grads[name], want, rtol=0, atol=1e-12, err_msg=name)
    for layer, item_layer in zip(net.layers, item_net.layers):
        npt.assert_allclose(layer.w2, item_layer.w2, rtol=0, atol=1e-12)
        npt.assert_allclose(layer.w3, item_layer.w3, rtol=0, atol=1e-12)


def test_per_item_step_records_one_window(monkeypatch):
    # the items of a per-item step share one recorded window and one reverse
    calls = {"record_forward": 0, "backward": 0}

    def counted(name):
        inner = getattr(trainer_module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(trainer_module, name, counted(name))
    rng = make_rng(31)
    net = init_network([784, 256, 10], seed=4, lif=LifConfig(), sbp=SbpParams())
    x = (rng.uniform(size=(10, 784)) < 0.2) * rng.uniform(size=(10, 784))
    step_gradients(net, x, rng.integers(10, size=10), 8, per_item=True)
    assert calls == {"record_forward": 1, "backward": 1}


def test_sequential_mode_differs_from_batched_for_larger_batches():
    cfg = blobs_config(epochs=1, batch=8)
    a = run_training(cfg)
    cfg2 = blobs_config(epochs=1, batch=8)
    cfg2.sequential_plasticity = True
    b = run_training(cfg2)
    assert not np.array_equal(a.net.layers[0].w2, b.net.layers[0].w2)


def test_checkpoint_round_trip_reproduces_trajectory(tmp_path):
    from mpsl.checkpoint import load_checkpoint, save_checkpoint
    from mpsl.trainer import (
        checkpoint_entries, load_datasets, restore_adam, restore_network, run_rngs,
    )

    cfg = blobs_config(epochs=3, seed=5)

    def fresh():
        data_rng, rng = run_rngs(cfg.seed)
        train, test = load_datasets(cfg, data_rng)
        net = network_from_config(cfg)
        opt = Adam(cfg.lr)
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


def recomputed_inference(net, x, t_steps, merged):
    """forward_inference with every drive, layer 1's included, recomputed
    at every step through merge_weights or fused_input."""
    u = [np.zeros((len(x), layer.fan_out)) for layer in net.layers]
    s = [np.zeros((len(x), layer.fan_out)) for layer in net.layers]
    counts = np.zeros((len(x), net.num_classes))
    for _t in range(t_steps):
        s_in = x
        for idx, layer in enumerate(net.layers):
            i_in = s_in @ merge_weights(layer).T if merged else fused_input(layer, s_in)
            u[idx] = membrane_step(u[idx], s[idx], i_in, net.lif)
            s[idx] = spike(u[idx], net.lif)
            s_in = s[idx]
        counts += s[-1]
    return counts, u[-2] if len(net.layers) >= 2 else u[-1]


def random_inference_nets(rng, trials=60):
    """(trial, sizes, net) of depth 2-4 and widths 2-8, whose local
    pathways are large enough to make the layers above layer 1 fire."""
    for trial in range(trials):
        sizes = [int(n) for n in rng.integers(2, 9, size=int(rng.integers(2, 5)))]
        net = init_network(sizes, seed=trial, lif=LifConfig(), sbp=SbpParams())
        for layer in net.layers:
            layer.w2 = rng.normal(scale=0.4, size=layer.w2.shape)
            layer.w3 = rng.normal(scale=0.4, size=layer.w3.shape)
            layer.lam = rng.uniform(0.1, 0.6, size=3)
        yield trial, sizes, net


def test_inference_is_byte_identical_to_per_step_recomputation():
    rng = make_rng(78)
    spikes = 0
    for trial, sizes, net in random_inference_nets(rng):
        batch, t_steps = int(rng.integers(1, 5)), int(rng.integers(1, 6))
        x = np.zeros((batch, sizes[0])) if trial % 10 == 0 else rng.uniform(size=(batch, sizes[0]))
        for merged in (True, False):
            counts, u_pen = forward_inference(net, x, t_steps, merged)
            want_counts, want_u = recomputed_inference(net, x, t_steps, merged)
            assert counts.tobytes() == want_counts.tobytes(), (trial, merged)
            assert u_pen.tobytes() == want_u.tobytes(), (trial, merged)
            spikes += int(counts.sum())
    assert spikes > 0


def test_blocked_inference_is_byte_identical_to_whole_batch_recomputation():
    # 300 and 700 rows run as 2 and 5 blocks; the recomputation forms every
    # product over all rows at once
    rng = make_rng(79)
    spikes = 0
    for trial, sizes, net in random_inference_nets(rng):
        t_steps = int(rng.integers(1, 6))
        for rows in (300, 700):
            x = rng.uniform(size=(rows, sizes[0]))
            for merged in (True, False):
                counts, u_pen = forward_inference(net, x, t_steps, merged)
                want_counts, want_u = recomputed_inference(net, x, t_steps, merged)
                assert counts.tobytes() == want_counts.tobytes(), (trial, rows, merged)
                assert u_pen.tobytes() == want_u.tobytes(), (trial, rows, merged)
                spikes += int(counts.sum())
    assert spikes > 0


@pytest.mark.parametrize("n", [1, 127, 128, 255, 256, 1000])
def test_inference_steps_the_lif_loop_in_row_blocks(monkeypatch, n):
    # each membrane_step sees all n rows below 128 and a block of 128-255
    # rows otherwise; per layer and step the blocks cover every row once
    rows_seen = {}

    def spy(u_prev, s_prev, i_in, cfg, out=None):
        rows_seen.setdefault(u_prev.shape[1], []).append(u_prev.shape[0])
        return membrane_step(u_prev, s_prev, i_in, cfg, out=out)

    monkeypatch.setattr(network_module, "membrane_step", spy)
    net = init_network([6, 5, 4], seed=1, lif=LifConfig(), sbp=SbpParams())
    t_steps = 3
    forward_inference(net, make_rng(n).uniform(size=(n, 6)), t_steps, merged=True)
    assert sorted(rows_seen) == [4, 5]
    for rows in rows_seen.values():
        assert all(r == n for r in rows) if n < 128 else all(128 <= r <= 255 for r in rows)
        assert sum(rows) == n * t_steps


def test_inference_of_an_empty_input():
    net = init_network([6, 5, 4], seed=1, lif=LifConfig(), sbp=SbpParams())
    for merged in (True, False):
        counts, u_pen = forward_inference(net, np.zeros((0, 6)), 3, merged)
        assert counts.shape == (0, 4) and u_pen.shape == (0, 5)


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
