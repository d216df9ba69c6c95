import struct
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from mpsl import trainer
from mpsl.checkpoint import (
    CheckpointError,
    config_hash_bytes,
    load_checkpoint,
    save_checkpoint,
)
from mpsl.numerics import make_rng
from mpsl.trainer import (
    Adam,
    TrainConfig,
    checkpoint_entries,
    network_from_config,
    restore_adam,
    restore_network,
)


def sample_entries():
    rng = make_rng(5)
    return {
        "matrix": rng.normal(size=(3, 7)),
        "vector": rng.normal(size=4),
        "scalar": np.asarray(2.5),
        "tiny": np.asarray([1e-300, -1e300, 0.0, np.pi]),
    }


def test_round_trip_is_bit_exact(tmp_path):
    path = tmp_path / "state.ckpt"
    entries = sample_entries()
    rng_state = make_rng(9).bit_generator.state
    save_checkpoint(path, '{"x":1}', epoch=7, rng_state=rng_state, entries=entries)
    ckpt = load_checkpoint(path)
    assert ckpt.epoch == 7
    assert ckpt.config_json == '{"x":1}'
    assert ckpt.rng_state == rng_state
    assert set(ckpt.entries) == set(entries)
    for name, arr in entries.items():
        assert ckpt.entries[name].shape == np.asarray(arr).shape
        npt.assert_array_equal(ckpt.entries[name], arr)
        assert ckpt.entries[name].flags.writeable  # its own array, not a view of the file


def test_scalar_entries_keep_zero_dim_shape(tmp_path):
    path = tmp_path / "s.ckpt"
    save_checkpoint(path, "{}", 0, make_rng(0).bit_generator.state,
                    {"s": np.asarray(1.25)})
    ckpt = load_checkpoint(path)
    assert ckpt.entries["s"].shape == ()
    assert float(ckpt.entries["s"]) == 1.25


def test_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(CheckpointError, match="bad magic"):
        load_checkpoint(path)


def test_rejects_truncation(tmp_path):
    path = tmp_path / "t.ckpt"
    save_checkpoint(path, "{}", 0, make_rng(0).bit_generator.state, sample_entries())
    data = path.read_bytes()
    path.write_bytes(data[:-9])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(path)


def test_rejects_config_hash_tampering(tmp_path):
    path = tmp_path / "h.ckpt"
    save_checkpoint(path, '{"lr":0.001}', 0, make_rng(0).bit_generator.state, {})
    data = bytearray(path.read_bytes())
    # flip a config byte after the header without updating the stored hash
    idx = data.find(b'"lr"')
    data[idx + 1] = ord("x")
    path.write_bytes(bytes(data))
    with pytest.raises(CheckpointError, match="hash mismatch"):
        load_checkpoint(path)


def test_declared_payload_larger_than_the_file_is_refused_before_allocating(tmp_path):
    path = tmp_path / "huge.ckpt"
    save_checkpoint(path, "{}", 0, make_rng(0).bit_generator.state, {"big": np.zeros(1)})
    data = path.read_bytes()
    dims = b"big" + struct.pack("<IQ", 1, 1)
    assert data.count(dims) == 1
    path.write_bytes(data.replace(dims, b"big" + struct.pack("<IQ", 1, 2**40)))
    tracemalloc.start()
    try:
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_missing_file(tmp_path):
    with pytest.raises(CheckpointError, match="not found"):
        load_checkpoint(tmp_path / "absent.ckpt")


def test_config_hash_is_sha256():
    assert len(config_hash_bytes("{}")) == 32


def test_network_and_optimizer_state_round_trip(tmp_path):
    cfg = TrainConfig()
    cfg.layer_sizes = [32, 16, 4]
    cfg.blobs.dim = 32
    cfg.validate()
    net = network_from_config(cfg)
    opt = Adam(cfg.lr)
    # give the optimizer some state
    params = net.named_parameters()
    grads = {name: np.ones_like(arr) * 0.01 for name, arr in params.items()}
    opt.step(params, grads)
    opt.step(params, grads)

    path = tmp_path / "net.ckpt"
    save_checkpoint(path, cfg.canonical_json(), 3, make_rng(1).bit_generator.state,
                    checkpoint_entries(net, opt))
    ckpt = load_checkpoint(path)
    net2 = restore_network(cfg, ckpt)
    opt2 = restore_adam(cfg, ckpt)
    assert opt2.step_count == 2
    for (n1, a1), (n2, a2) in zip(
        sorted(net.named_parameters().items()), sorted(net2.named_parameters().items())
    ):
        assert n1 == n2
        npt.assert_array_equal(a1, a2)
    for name in opt.m:
        npt.assert_array_equal(opt.m[name], opt2.m[name])
        npt.assert_array_equal(opt.v[name], opt2.v[name])
    for l1, l2 in zip(net.layers, net2.layers):
        npt.assert_array_equal(l1.w2, l2.w2)
        npt.assert_array_equal(l1.w3, l2.w3)


def test_restore_copies_every_state_entry(tmp_path):
    # every array of named_state() moves away from its fresh-init value, so
    # an entry that restore_network skipped would keep the init value
    cfg = TrainConfig()
    cfg.layer_sizes = [32, 16, 4]
    cfg.blobs.dim = 32
    cfg.validate()
    net = network_from_config(cfg)
    rng = make_rng(3)
    for arr in net.named_state().values():
        arr += rng.uniform(0.1, 0.2, size=arr.shape)
    path = tmp_path / "state.ckpt"
    save_checkpoint(path, cfg.canonical_json(), 1, make_rng(1).bit_generator.state,
                    checkpoint_entries(net, None))
    ckpt = load_checkpoint(path)
    restored = restore_network(cfg, ckpt).named_state()
    assert restored.keys() == net.named_state().keys()
    for name, arr in net.named_state().items():
        npt.assert_array_equal(restored[name], arr, err_msg=name)
        assert not np.shares_memory(restored[name], ckpt.entries[name]), name


def test_legacy_checkpoint_with_cached_increments_restores(tmp_path):
    # files written while layers cached their last Hebbian increment carry one
    # more entry per layer; restoring looks entries up by name and ignores it
    cfg = TrainConfig()
    cfg.layer_sizes = [32, 16, 4]
    cfg.blobs.dim = 32
    cfg.validate()
    net = network_from_config(cfg)
    entries = dict(checkpoint_entries(net, None))
    rng = make_rng(2)
    for idx, layer in enumerate(net.layers):
        entries[f"layers.{idx}.dw2_last"] = rng.normal(size=layer.w2.shape)
    path = tmp_path / "legacy.ckpt"
    save_checkpoint(path, cfg.canonical_json(), 1, make_rng(1).bit_generator.state, entries)
    restored = restore_network(cfg, load_checkpoint(path))
    for name, arr in net.named_parameters().items():
        npt.assert_array_equal(restored.named_parameters()[name], arr)
    for l1, l2 in zip(net.layers, restored.layers):
        npt.assert_array_equal(l1.w2, l2.w2)
        npt.assert_array_equal(l1.w3, l2.w3)


def test_saved_files_are_byte_identical_across_runs(tmp_path):
    entries = sample_entries()
    state = make_rng(4).bit_generator.state
    a = tmp_path / "a.ckpt"
    b = tmp_path / "b.ckpt"
    save_checkpoint(a, '{"s":2}', 1, state, entries)
    save_checkpoint(b, '{"s":2}', 1, state, entries)
    assert a.read_bytes() == b.read_bytes()


def test_restore_holds_one_copy_of_each_array_and_draws_no_init(tmp_path, monkeypatch):
    cfg = TrainConfig()
    cfg.layer_sizes = [784, 256, 10]
    cfg.blobs.dim, cfg.blobs.classes = 784, 10
    cfg.validate()
    net = network_from_config(cfg)
    opt = Adam(cfg.lr)
    params = net.named_parameters()
    opt.step(params, {name: np.full_like(arr, 0.01) for name, arr in params.items()})
    path = tmp_path / "desk.ckpt"
    save_checkpoint(path, cfg.canonical_json(), 1, make_rng(1).bit_generator.state,
                    checkpoint_entries(net, opt))

    def no_init(*_args, **_kwargs):
        raise AssertionError("restoring drew an initialization")

    monkeypatch.setattr(trainer, "init_network", no_init)
    tracemalloc.start()
    try:
        restored, _cfg, ckpt = trainer.network_from_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = (sum(arr.nbytes for arr in ckpt.entries.values())
            + sum(arr.nbytes for arr in restored.named_state().values()))
    assert peak <= 1.05 * held, peak / held
    state = restored.named_state()
    for name, arr in net.named_state().items():
        npt.assert_array_equal(state[name], arr, err_msg=name)
