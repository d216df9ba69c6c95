"""Training orchestration: the per-timestep update schedule, the optimizer,
lambda-mode handling, checkpoint state, and the ablation driver.

Per batch the schedule is: for every timestep, forward + Hebbian updates
through layers 1..L, then feedback updates through layers L..1; after the
window one gradient step updates W1 and the other gradient-learned
parameters, and the fraction factors are projected back into [0.1, 1].

Each batch runs through one recorded window. By default its Hebbian
increments are batch means (exact for batch size 1); `sequential_plasticity`
instead runs the items one at a time inside that window, each continuing
the previous item's W2/W3 state. The batched mode is the default and is an
approximation of that strict per-item schedule.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
import time
import typing
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .checkpoint import Checkpoint, CheckpointError, load_checkpoint, save_checkpoint
from .data import Dataset, load_idx, synthetic_blobs
from .metrics import MetricsRow, format_lambdas
from .network import BETA_INIT, ETA_INIT, LAMBDA_INIT, Network, forward_inference, init_network
from .neuron import LifConfig
from .plasticity import SbpParams
from .window import backward, record_forward, softmax_xent

LAMBDA_MODES = ("fixed", "learnable", "frozen-learned")
DATASETS = ("synthetic-blobs", "mnist", "fashion-mnist")

MNIST_FILES = {
    "train": ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
    "test": ("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"),
}


class ConfigError(ValueError):
    """Invalid or unknown configuration; maps to CLI exit code 2."""


class NumericAbortError(RuntimeError):
    """Non-finite loss or parameter state; maps to CLI exit code 3."""

    def __init__(self, message: str, batch_index: int, norms: dict[str, float]):
        super().__init__(message)
        self.batch_index = batch_index
        self.norms = norms


# --- configuration ----------------------------------------------------------


@dataclass
class BlobsConfig:
    n_per_class: int = 100
    test_n_per_class: int = 50
    classes: int = 4
    dim: int = 16
    sigma: float = 0.05


@dataclass
class TrainConfig:
    dataset: str = "synthetic-blobs"
    data_dir: str | None = None
    layer_sizes: list[int] = field(default_factory=lambda: [16, 32, 4])
    t_steps: int = 8
    epochs: int = 5
    batch_size: int = 100
    lr: float = 1e-3
    seed: int = 1
    lambda_mode: str = "learnable"
    frozen_source: str | None = None
    sequential_plasticity: bool = False
    lambda_init: list[float] = field(default_factory=lambda: list(LAMBDA_INIT))
    eta_init: float = ETA_INIT
    beta_init: float = BETA_INIT
    lif: LifConfig = field(default_factory=LifConfig)
    sbp: SbpParams = field(default_factory=SbpParams)
    blobs: BlobsConfig = field(default_factory=BlobsConfig)

    def validate(self) -> None:
        if self.dataset not in DATASETS:
            raise ConfigError(f"field 'dataset': must be one of {DATASETS}, got {self.dataset!r}")
        if self.dataset != "synthetic-blobs" and not self.data_dir:
            raise ConfigError(f"field 'data_dir': required for dataset {self.dataset!r}")
        if len(self.layer_sizes) < 2 or any(s < 1 for s in self.layer_sizes):
            raise ConfigError("field 'layer_sizes': need >= 2 positive sizes")
        if self.t_steps < 1:
            raise ConfigError("field 't_steps': must be >= 1")
        if self.seed < 0:
            raise ConfigError("field 'seed': must be >= 0")
        if self.epochs < 1:
            raise ConfigError("field 'epochs': must be >= 1")
        if self.batch_size < 1:
            raise ConfigError("field 'batch_size': must be >= 1")
        if self.lr <= 0:
            raise ConfigError("field 'lr': must be a positive number")
        if self.lambda_mode not in LAMBDA_MODES:
            raise ConfigError(
                f"field 'lambda_mode': must be one of {LAMBDA_MODES}, got {self.lambda_mode!r}"
            )
        if self.lambda_mode == "frozen-learned" and not self.frozen_source:
            raise ConfigError("field 'frozen_source': required when lambda_mode is 'frozen-learned'")
        if len(self.lambda_init) != 3:
            raise ConfigError("field 'lambda_init': need exactly 3 coefficients")
        if self.blobs.n_per_class < 1:
            raise ConfigError("field 'blobs.n_per_class': must be >= 1")
        if self.blobs.test_n_per_class < 1:
            raise ConfigError("field 'blobs.test_n_per_class': must be >= 1")
        if self.blobs.sigma < 0:
            raise ConfigError("field 'blobs.sigma': must be >= 0")
        if self.blobs.classes < 2:
            raise ConfigError("field 'blobs.classes': need at least 2 classes")
        if self.blobs.dim < self.blobs.classes:
            raise ConfigError(
                f"field 'blobs.dim': must be >= blobs.classes ({self.blobs.classes}), "
                f"got {self.blobs.dim}"
            )
        try:
            self.lif.validate()
        except ValueError as err:
            raise ConfigError(f"field 'lif': {err}") from err
        try:
            self.sbp.validate()
        except ValueError as err:
            raise ConfigError(f"field 'sbp': {err}") from err

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @staticmethod
    def from_dict(raw: dict) -> "TrainConfig":
        cfg = _read_config(TrainConfig, raw, "")
        cfg.validate()
        return cfg


@functools.cache
def _field_types(cls) -> dict[str, type]:
    """Each field of a config dataclass with its resolved annotation."""
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in dataclasses.fields(cls)}


def _read_config(cls, raw: dict, prefix: str):
    """Build the config dataclass cls from a JSON object, field by field as
    its annotations declare them. Absent keys keep their defaults; prefix
    is the dotted path of a nested section ('' at the top)."""
    types = _field_types(cls)
    unknown = set(raw) - set(types)
    if unknown:
        where = f"keys in {prefix[:-1]!r}" if prefix else "config keys"
        raise ConfigError(f"unknown {where}: {sorted(unknown)}")
    return cls(**{key: _read_value(kind, raw[key], prefix + key)
                  for key, kind in types.items() if key in raw})


def _read_value(kind, value, name: str):
    """One field's value checked against its annotation; name is the
    field's dotted path, for the message."""
    args = typing.get_args(kind)
    if type(None) in args:  # X | None
        if value is None:
            return None
        (kind,) = (arg for arg in args if arg is not type(None))
    if dataclasses.is_dataclass(kind):
        if not isinstance(value, dict):
            raise ConfigError(f"field {name!r}: expected an object")
        return _read_config(kind, value, name + ".")
    if typing.get_origin(kind) is list:
        if not isinstance(value, list):
            raise ConfigError(f"field {name!r}: expected a list, got {value!r}")
        return [_read_value(typing.get_args(kind)[0], item, name) for item in value]
    if kind is bool:
        ok, expected = isinstance(value, bool), "true/false"
    elif kind is str:
        ok, expected = isinstance(value, str), "a string"
    else:
        ok = isinstance(value, (int, float)) and not isinstance(value, bool) and (
            kind is float or isinstance(value, int) or value.is_integer())
        expected = "an integer" if kind is int else "a number"
    if not ok:
        raise ConfigError(f"field {name!r}: expected {expected}, got {value!r}")
    if kind is float and not math.isfinite(value):  # JSON's NaN and Infinity
        raise ConfigError(f"field {name!r}: must be finite, got {value!r}")
    return kind(value)


def load_config_file(path) -> TrainConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as err:
        raise ConfigError(f"config file {path} is not valid JSON: {err}") from err
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return TrainConfig.from_dict(raw)


def make_run_id(cfg: TrainConfig, command: str) -> str:
    digest = hashlib.sha256((cfg.canonical_json() + "|" + command).encode()).hexdigest()
    return digest[:12]


# --- data --------------------------------------------------------------------


def run_rngs(seed: int) -> tuple[np.random.Generator, np.random.Generator]:
    """(data, shuffle) generators of a run: the two streams spawned from its
    seed. Commands that only reload a run's data take the first."""
    data_seq, shuffle_seq = np.random.SeedSequence(seed).spawn(2)
    return (np.random.Generator(np.random.PCG64(data_seq)),
            np.random.Generator(np.random.PCG64(shuffle_seq)))


def load_datasets(cfg: TrainConfig, data_rng: np.random.Generator) -> tuple[Dataset, Dataset]:
    if cfg.dataset == "synthetic-blobs":
        b = cfg.blobs
        if cfg.layer_sizes[0] != b.dim or cfg.layer_sizes[-1] != b.classes:
            raise ConfigError(
                f"field 'layer_sizes': must start at blobs dim {b.dim} and end at "
                f"{b.classes} classes, got {cfg.layer_sizes}"
            )
        train = synthetic_blobs(data_rng, b.n_per_class, b.classes, b.dim, b.sigma)
        test = synthetic_blobs(data_rng, b.test_n_per_class, b.classes, b.dim, b.sigma)
        return train, test
    return _idx_split(cfg, "train"), _idx_split(cfg, "test")


def _idx_split(cfg: TrainConfig, split: str) -> Dataset:
    """One split of an IDX dataset, checked against the config's layer sizes."""
    img_name, lab_name = MNIST_FILES[split]
    root = Path(cfg.data_dir)
    data = load_idx(root / img_name, root / lab_name)
    dim = data.width * data.height
    if cfg.layer_sizes[0] != dim or cfg.layer_sizes[-1] != data.num_classes:
        raise ConfigError(
            f"field 'layer_sizes': dataset wants {dim} inputs and "
            f"{data.num_classes} classes, got {cfg.layer_sizes}"
        )
    return data


# --- optimizer ---------------------------------------------------------------


class Adam:
    """Adaptive moment estimation, updating parameter arrays in place:
    m = beta1 m + (1 - beta1) g, v = beta2 v + ((1 - beta2) g) g and
    p -= lr (m / bias1) / (sqrt(v / bias2) + eps), in that ufunc order, in
    per-parameter scratch arrays that checkpoints do not save."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, lr: float):
        self.lr = lr
        self.step_count = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self._scratch: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
             skip: frozenset[str] = frozenset()) -> None:
        self.step_count += 1
        bias1 = 1.0 - self.beta1**self.step_count
        bias2 = 1.0 - self.beta2**self.step_count
        for name in sorted(params):
            if name in skip:
                continue
            g = grads[name]
            if name not in self.m:
                self.m[name] = np.zeros_like(params[name])
                self.v[name] = np.zeros_like(params[name])
            if name not in self._scratch:
                self._scratch[name] = (np.empty_like(params[name]), np.empty_like(params[name]))
            m, v = self.m[name], self.v[name]
            step, denom = self._scratch[name]
            m *= self.beta1
            m += np.multiply(1.0 - self.beta1, g, out=step)
            v *= self.beta2
            v += np.multiply(np.multiply(1.0 - self.beta2, g, out=step), g, out=step)
            np.multiply(self.lr, np.divide(m, bias1, out=step), out=step)
            np.sqrt(np.divide(v, bias2, out=denom), out=denom)
            denom += self.eps
            step /= denom
            params[name] -= step


def _skip_set(cfg: TrainConfig, net: Network) -> frozenset[str]:
    if cfg.lambda_mode == "learnable":
        return frozenset()
    return frozenset(f"layers.{i}.lam" for i in range(len(net.layers)))


# --- training loop -----------------------------------------------------------


@dataclass
class EpochMetrics:
    epoch: int
    mean_loss: float
    accuracy: float
    batch_losses: list[float] = field(default_factory=list)


def _state_norms(net: Network) -> dict[str, float]:
    return {name: float(np.linalg.norm(arr)) for name, arr in net.named_state().items()}


def _check_finite(net: Network, batch_index: int) -> None:
    for name, arr in net.named_state().items():
        if not np.all(np.isfinite(arr)):
            raise NumericAbortError(
                f"non-finite values in {name} after batch {batch_index}",
                batch_index, _state_norms(net),
            )


def _project_fraction_factors(net: Network) -> None:
    net.lambda_f[()] = min(max(float(net.lambda_f), 0.1), 1.0)
    net.lambda_p[()] = min(max(float(net.lambda_p), 0.1), 1.0)


def _mean_gradient_dicts(dicts: list[dict[str, np.ndarray]]) -> dict[str, np.ndarray]:
    out = {}
    for name in dicts[0]:
        total = dicts[0][name].astype(np.float64, copy=True)
        for d in dicts[1:]:
            total += d[name]
        out[name] = total / len(dicts)
    return out


def step_gradients(
    net: Network, x: np.ndarray, labels, t_steps: int, per_item: bool, *,
    events: list | None = None, surrogate_width_scale: float = 1.0,
) -> tuple[float, dict[str, np.ndarray], np.ndarray]:
    """The recorded window of one optimizer step (one group, or one per
    item): its mean loss, its groups' mean gradients keyed like
    Network.named_parameters(), and the output spike counts [batch x
    classes]. The W2/W3 leaving it are handed to the network.
    surrogate_width_scale is passed to backward."""
    window, counts = record_forward(net, x, labels, t_steps, per_item=per_item, events=events)
    group_grads, g_w1 = backward(window, surrogate_width_scale=surrogate_width_scale)
    for layer, w2, w3 in zip(net.layers, window.final_w2, window.final_w3):
        layer.w2, layer.w3 = w2, w3
    grads = _mean_gradient_dicts(group_grads)
    grads["layers.0.w1"] = g_w1
    return window.loss_value, grads, counts


def train_epoch(
    net: Network,
    data: Dataset,
    cfg: TrainConfig,
    opt: Adam,
    shuffle_rng: np.random.Generator,
    epoch: int = 0,
    events: list | None = None,
) -> EpochMetrics:
    order = shuffle_rng.permutation(len(data))
    skip = _skip_set(cfg, net)
    total_correct = 0
    total_loss = 0.0
    batch_losses: list[float] = []
    for batch_index, start in enumerate(range(0, len(data), cfg.batch_size)):
        idx = order[start : start + cfg.batch_size]
        x = data.images[idx]
        y = data.labels[idx]
        loss, grads, counts = step_gradients(net, x, y, cfg.t_steps,
                                             cfg.sequential_plasticity, events=events)
        correct = int(np.sum(np.argmax(counts, axis=1) == y))
        if not math.isfinite(loss):
            raise NumericAbortError(
                f"non-finite loss {loss} in batch {batch_index}", batch_index, _state_norms(net)
            )
        opt.step(net.named_parameters(), grads, skip)
        _project_fraction_factors(net)
        _check_finite(net, batch_index)
        if events is not None:
            events.append(("grad-step",))
        batch_losses.append(loss)
        total_loss += loss * len(idx)
        total_correct += correct
    return EpochMetrics(
        epoch=epoch,
        mean_loss=total_loss / len(data),
        accuracy=total_correct / len(data),
        batch_losses=batch_losses,
    )


def evaluate(
    net: Network, data: Dataset, t_steps: int, merged: bool, batch_size: int = 512
) -> tuple[float, float]:
    """(accuracy, mean loss) under frozen weights; merged=True runs the
    collapsed single-matrix forward."""
    correct = 0
    total_loss = 0.0
    for start in range(0, len(data), batch_size):
        x = data.images[start : start + batch_size]
        y = data.labels[start : start + batch_size]
        counts, _ = forward_inference(net, x, t_steps, merged)
        correct += int(np.sum(np.argmax(counts, axis=1) == y))
        total_loss += softmax_xent(counts, y)[0] * len(y)
    return correct / len(data), total_loss / len(data)


# --- checkpoint glue ---------------------------------------------------------


def checkpoint_entries(net: Network, opt: Adam | None) -> dict[str, np.ndarray]:
    entries = net.named_state()
    if opt is not None:
        entries["adam.step"] = np.asarray(float(opt.step_count))
        for name, arr in opt.m.items():
            entries[f"adam.m.{name}"] = arr
        for name, arr in opt.v.items():
            entries[f"adam.v.{name}"] = arr
    return entries


def network_from_config(cfg: TrainConfig) -> Network:
    net = init_network(
        cfg.layer_sizes, cfg.seed, cfg.lif, cfg.sbp,
        lambda_init=tuple(cfg.lambda_init),
        eta_init=cfg.eta_init, beta_init=cfg.beta_init,
    )
    if cfg.lambda_mode == "frozen-learned":
        source = load_checkpoint(cfg.frozen_source)
        for idx, layer in enumerate(net.layers):
            key = f"layers.{idx}.lam"
            if key not in source.entries:
                raise ConfigError(f"frozen_source checkpoint lacks entry {key}")
            layer.lam = source.entries[key].copy()
    return net


def _entry(ckpt: Checkpoint, name: str, shape: tuple | None = None) -> np.ndarray:
    if name not in ckpt.entries:
        raise CheckpointError(f"checkpoint lacks entry {name!r}")
    arr = ckpt.entries[name]
    if shape is not None and arr.shape != shape:
        raise CheckpointError(f"checkpoint entry {name!r} has shape {arr.shape}, expected {shape}")
    return arr


def restore_network(cfg: TrainConfig, ckpt: Checkpoint) -> Network:
    """Entries are looked up by name and copied into a freshly built
    network. Others are ignored, such as the cached last Hebbian increment
    per layer that earlier files carry."""
    net = init_network(cfg.layer_sizes, cfg.seed, cfg.lif, cfg.sbp)
    for name, arr in net.named_state().items():
        arr[...] = _entry(ckpt, name, arr.shape)
    return net


def restore_adam(cfg: TrainConfig, ckpt: Checkpoint) -> Adam:
    opt = Adam(cfg.lr)
    opt.step_count = int(_entry(ckpt, "adam.step")[()])
    for name, arr in ckpt.entries.items():
        if name.startswith("adam.m."):
            opt.m[name[len("adam.m."):]] = arr.copy()
        elif name.startswith("adam.v."):
            opt.v[name[len("adam.v."):]] = arr.copy()
    return opt


def network_from_checkpoint(path) -> tuple[Network, TrainConfig, Checkpoint]:
    ckpt = load_checkpoint(path)
    cfg = TrainConfig.from_dict(ckpt.config)
    return restore_network(cfg, ckpt), cfg, ckpt


def checkpoint_with_test_split(path) -> tuple[Network, TrainConfig, Checkpoint, Dataset]:
    """network_from_checkpoint plus the run's test split, for the commands
    that only read a trained run. IDX data reads only the test pair; blobs
    data draws its train split first, as training did, so the test split
    has the same bytes."""
    net, cfg, ckpt = network_from_checkpoint(path)
    if cfg.dataset != "synthetic-blobs":
        return net, cfg, ckpt, _idx_split(cfg, "test")
    return net, cfg, ckpt, load_datasets(cfg, run_rngs(cfg.seed)[0])[1]


# --- full runs ---------------------------------------------------------------


@dataclass
class TrainResult:
    rows: list[MetricsRow]
    checkpoint_path: Path | None
    net: Network
    final_test_accuracy: float


def run_training(
    cfg: TrainConfig,
    out_dir=None,
    *,
    command: str = "train",
    resume_from=None,
) -> TrainResult:
    cfg.validate()
    run_id = make_run_id(cfg, command)
    data_rng, shuffle_rng = run_rngs(cfg.seed)
    train_ds, test_ds = load_datasets(cfg, data_rng)

    start_epoch = 0
    if resume_from is not None:
        ckpt = load_checkpoint(resume_from)
        if ckpt.config_json != cfg.canonical_json():
            raise ConfigError("resume checkpoint was produced by a different config")
        net = restore_network(cfg, ckpt)
        opt = restore_adam(cfg, ckpt)
        shuffle_rng.bit_generator.state = ckpt.rng_state
        start_epoch = ckpt.epoch
    else:
        net = network_from_config(cfg)
        opt = Adam(cfg.lr)

    t0 = time.perf_counter()
    rows: list[MetricsRow] = []
    for epoch in range(start_epoch, cfg.epochs):
        metrics = train_epoch(net, train_ds, cfg, opt, shuffle_rng, epoch)
        test_acc, test_loss = evaluate(net, test_ds, cfg.t_steps, merged=True)
        lam_str = format_lambdas([layer.lam for layer in net.layers])
        for split, loss, acc in (("train", metrics.mean_loss, metrics.accuracy),
                                 ("test", test_loss, test_acc)):
            rows.append(MetricsRow(
                run_id=run_id, command=command, variant=cfg.lambda_mode,
                epoch_or_level=str(epoch), split=split, loss=loss, accuracy=acc, accuracy_sd=0.0,
                lambda_values=lam_str, seed=cfg.seed, wall_clock_s=time.perf_counter() - t0,
            ))

    checkpoint_path = None
    if out_dir is not None:
        out_dir = Path(out_dir)
        checkpoint_path = out_dir / "model.ckpt"
        save_checkpoint(
            checkpoint_path,
            cfg.canonical_json(),
            epoch=cfg.epochs,
            rng_state=_plain_rng_state(shuffle_rng),
            entries=checkpoint_entries(net, opt),
        )
    final_acc = rows[-1].accuracy if rows else 0.0
    return TrainResult(rows=rows, checkpoint_path=checkpoint_path, net=net,
                       final_test_accuracy=final_acc)


def _plain_rng_state(rng: np.random.Generator) -> dict:
    state = rng.bit_generator.state
    return json.loads(json.dumps(state))


# --- lambda ablation ---------------------------------------------------------


@dataclass
class AblateReport:
    rows: list[MetricsRow]
    final_accuracy: dict[str, list[float]]
    learnable_beats_fixed: bool


def run_ablation(cfg: TrainConfig, out_dir, seeds: list[int]) -> AblateReport:
    """Fixed / learnable / frozen-learned on a shared seed and data order.

    The frozen-learned variant freezes the coefficients learned by the
    same-seed learnable run (its checkpoint is the source)."""
    out_dir = Path(out_dir)
    rows: list[MetricsRow] = []
    finals: dict[str, list[float]] = {mode: [] for mode in LAMBDA_MODES}
    for seed in seeds:
        learnable_dir = out_dir / f"ablate-learnable-{seed}"
        source_path = None
        for mode in ("fixed", "learnable", "frozen-learned"):
            mode_cfg = replace(
                cfg, lambda_mode=mode, seed=seed,
                frozen_source=str(source_path) if mode == "frozen-learned" else None,
            )
            mode_out = learnable_dir if mode == "learnable" else None
            result = run_training(mode_cfg, mode_out, command="ablate")
            if mode == "learnable":
                source_path = result.checkpoint_path
            train_rows = [row for row in result.rows if row.split == "train"]
            rows.extend(train_rows)
            finals[mode].append(result.final_test_accuracy)
    learnable_beats_fixed = (
        float(np.mean(finals["learnable"])) >= float(np.mean(finals["fixed"]))
    )
    return AblateReport(rows=rows, final_accuracy=finals,
                        learnable_beats_fixed=learnable_beats_fixed)
