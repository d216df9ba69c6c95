"""Training orchestration: the per-timestep update schedule, the optimizer,
lambda-mode handling, checkpoint state, and the ablation driver.

Per batch the schedule is: for every timestep, forward + Hebbian updates
through layers 1..L, then feedback updates through layers L..1; after the
window one gradient step updates W1 and the other gradient-learned
parameters, and the fraction factors are projected back into [0.1, 1].

Batches run through one shared recorded window whose Hebbian increments
are batch means (exact for batch size 1). `sequential_plasticity` instead
feeds items one at a time, each continuing the previous item's W2/W3
state, at a substantial speed cost; the batched mode is the default and
is an approximation of that strict per-item schedule.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .checkpoint import Checkpoint, CheckpointError, load_checkpoint, save_checkpoint
from .data import Dataset, load_idx, synthetic_blobs
from .metrics import MetricsRow, format_lambdas
from .network import Network, forward_inference, init_network
from .neuron import LifConfig
from .plasticity import SbpParams
from .tape import Tape, backward, record_forward
from .numerics import make_rng

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
    lambda_init: list[float] = field(default_factory=lambda: [1 / 3, 1 / 3, 1 / 3])
    eta_init: float = 0.01
    beta_init: float = -0.5
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
        try:
            self.lif.validate()
        except ValueError as err:
            raise ConfigError(f"field 'lif': {err}") from err
        try:
            self.sbp.validate()
        except ValueError as err:
            raise ConfigError(f"field 'sbp': {err}") from err

    def to_dict(self) -> dict:
        return {
            "dataset": self.dataset,
            "data_dir": self.data_dir,
            "layer_sizes": list(self.layer_sizes),
            "t_steps": self.t_steps,
            "epochs": self.epochs,
            "batch_size": self.batch_size,
            "lr": self.lr,
            "seed": self.seed,
            "lambda_mode": self.lambda_mode,
            "frozen_source": self.frozen_source,
            "sequential_plasticity": self.sequential_plasticity,
            "lambda_init": list(self.lambda_init),
            "eta_init": self.eta_init,
            "beta_init": self.beta_init,
            "lif": {"v_th": self.lif.v_th, "rho_m": self.lif.rho_m,
                    "a": self.lif.a, "dt": self.lif.dt},
            "sbp": {"lambda_f": self.sbp.lambda_f, "lambda_p": self.sbp.lambda_p,
                    "tau_w": self.sbp.tau_w,
                    "delta_includes_decay": self.sbp.delta_includes_decay},
            "blobs": {"n_per_class": self.blobs.n_per_class,
                      "test_n_per_class": self.blobs.test_n_per_class,
                      "classes": self.blobs.classes, "dim": self.blobs.dim,
                      "sigma": self.blobs.sigma},
        }

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @staticmethod
    def from_dict(raw: dict) -> "TrainConfig":
        cfg = TrainConfig()
        scalars = {
            "dataset": str, "data_dir": str, "t_steps": int, "epochs": int,
            "batch_size": int, "lr": float, "seed": int, "lambda_mode": str,
            "frozen_source": str, "sequential_plasticity": bool,
            "eta_init": float, "beta_init": float,
        }
        known = set(scalars) | {"layer_sizes", "lambda_init", "lif", "sbp", "blobs"}
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key, kind in scalars.items():
            if key not in raw or raw[key] is None:
                continue
            value = raw[key]
            if kind is bool:
                if not isinstance(value, bool):
                    raise ConfigError(f"field {key!r}: expected true/false, got {value!r}")
            elif kind in (int, float):
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    raise ConfigError(f"field {key!r}: expected a number, got {value!r}")
                if kind is int and int(value) != value:
                    raise ConfigError(f"field {key!r}: expected an integer, got {value!r}")
                value = kind(value)
            elif kind is str and not isinstance(value, str):
                raise ConfigError(f"field {key!r}: expected a string, got {value!r}")
            setattr(cfg, key, value)
        for key in ("layer_sizes", "lambda_init"):
            if key in raw:
                value = raw[key]
                if not isinstance(value, list) or not all(
                    isinstance(v, (int, float)) and not isinstance(v, bool) for v in value
                ):
                    raise ConfigError(f"field {key!r}: expected a list of numbers")
                setattr(cfg, key, [int(v) for v in value] if key == "layer_sizes"
                        else [float(v) for v in value])
        cfg.lif = _parse_section(raw.get("lif"), "lif", LifConfig, {
            "v_th": float, "rho_m": float, "a": float, "dt": float})
        cfg.sbp = _parse_section(raw.get("sbp"), "sbp", SbpParams, {
            "lambda_f": float, "lambda_p": float, "tau_w": float,
            "delta_includes_decay": bool})
        cfg.blobs = _parse_section(raw.get("blobs"), "blobs", BlobsConfig, {
            "n_per_class": int, "test_n_per_class": int, "classes": int,
            "dim": int, "sigma": float})
        cfg.validate()
        return cfg


def _parse_section(raw, name, factory, fields):
    if raw is None:
        return factory()
    if not isinstance(raw, dict):
        raise ConfigError(f"field {name!r}: expected an object")
    unknown = set(raw) - set(fields)
    if unknown:
        raise ConfigError(f"unknown keys in {name!r}: {sorted(unknown)}")
    kwargs = {}
    for key, kind in fields.items():
        if key not in raw:
            continue
        value = raw[key]
        if kind is bool:
            if not isinstance(value, bool):
                raise ConfigError(f"field '{name}.{key}': expected true/false, got {value!r}")
        else:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigError(f"field '{name}.{key}': expected a number, got {value!r}")
            value = kind(value)
        kwargs[key] = value
    return factory(**kwargs)


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
    img_name, lab_name = MNIST_FILES["train"]
    timg_name, tlab_name = MNIST_FILES["test"]
    root = Path(cfg.data_dir)
    train = load_idx(root / img_name, root / lab_name)
    test = load_idx(root / timg_name, root / tlab_name)
    dim = train.width * train.height
    if cfg.layer_sizes[0] != dim or cfg.layer_sizes[-1] != train.num_classes:
        raise ConfigError(
            f"field 'layer_sizes': dataset wants {dim} inputs and "
            f"{train.num_classes} classes, got {cfg.layer_sizes}"
        )
    return train, test


# --- optimizer ---------------------------------------------------------------


class Adam:
    """Adaptive moment estimation, updating parameter arrays in place."""

    def __init__(self, lr: float, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}

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
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            params[name] -= self.lr * (m / bias1) / (np.sqrt(v / bias2) + self.eps)


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


def _xent(counts: np.ndarray, labels: np.ndarray) -> float:
    shifted = counts - counts.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return float(-logp[np.arange(len(labels)), labels].mean())


def _apply_plasticity(net: Network, tape: Tape) -> None:
    for idx, layer in enumerate(net.layers):
        layer.w2 = tape.final_w2[idx].value.copy()
        layer.w3 = tape.final_w3[idx].value.copy()


def _state_norms(net: Network) -> dict[str, float]:
    norms = {name: float(np.linalg.norm(arr)) for name, arr in net.named_parameters().items()}
    for idx, layer in enumerate(net.layers):
        norms[f"layers.{idx}.w2"] = float(np.linalg.norm(layer.w2))
        norms[f"layers.{idx}.w3"] = float(np.linalg.norm(layer.w3))
    return norms


def _check_finite(net: Network, batch_index: int) -> None:
    for name, arr in net.named_parameters().items():
        if not np.all(np.isfinite(arr)):
            raise NumericAbortError(
                f"non-finite values in parameter {name} after batch {batch_index}",
                batch_index, _state_norms(net),
            )
    for idx, layer in enumerate(net.layers):
        for name, arr in (("w2", layer.w2), ("w3", layer.w3)):
            if not np.all(np.isfinite(arr)):
                raise NumericAbortError(
                    f"non-finite values in layers.{idx}.{name} after batch {batch_index}",
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
        if cfg.sequential_plasticity:
            grad_dicts = []
            losses = []
            preds = []
            for item in range(len(idx)):
                tape, counts = record_forward(net, x[item], int(y[item]), cfg.t_steps,
                                              events=events)
                losses.append(tape.loss_value)
                grad_dicts.append(backward(tape))
                _apply_plasticity(net, tape)
                preds.append(int(np.argmax(counts[0])))
            loss = float(np.mean(losses))
            grads = _mean_gradient_dicts(grad_dicts)
            correct = int(np.sum(np.asarray(preds) == y))
        else:
            tape, counts = record_forward(net, x, y, cfg.t_steps, events=events)
            loss = tape.loss_value
            grads = backward(tape)
            _apply_plasticity(net, tape)
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
        total_loss += _xent(counts, y) * len(y)
    return correct / len(data), total_loss / len(data)


def canonical_batch_events(t_steps: int, n_layers: int) -> list[tuple]:
    events: list[tuple] = []
    for t in range(1, t_steps + 1):
        for l in range(1, n_layers + 1):
            events.append(("forward", t, l))
            events.append(("hebbian", t, l))
        for l in range(n_layers, 0, -1):
            events.append(("sbp", t, l))
    events.append(("grad-step",))
    return events


# --- checkpoint glue ---------------------------------------------------------


def checkpoint_entries(net: Network, opt: Adam | None) -> dict[str, np.ndarray]:
    entries: dict[str, np.ndarray] = {}
    for idx, layer in enumerate(net.layers):
        entries[f"layers.{idx}.w1"] = layer.w1
        entries[f"layers.{idx}.w2"] = layer.w2
        entries[f"layers.{idx}.w3"] = layer.w3
        entries[f"layers.{idx}.lam"] = layer.lam
        entries[f"layers.{idx}.eta"] = layer.eta
        entries[f"layers.{idx}.beta"] = layer.beta
    entries["lambda_f"] = net.lambda_f
    entries["lambda_p"] = net.lambda_p
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
    return arr.copy()


def restore_network(cfg: TrainConfig, ckpt: Checkpoint) -> Network:
    """Entries are looked up by name. Others are ignored, such as the cached
    last Hebbian increment per layer that earlier files carry."""
    net = init_network(cfg.layer_sizes, cfg.seed, cfg.lif, cfg.sbp)
    for idx, layer in enumerate(net.layers):
        for name in ("w1", "w2", "w3", "lam", "eta", "beta"):
            shape = getattr(layer, name).shape
            setattr(layer, name, _entry(ckpt, f"layers.{idx}.{name}", shape))
    net.lambda_f = _entry(ckpt, "lambda_f", ())
    net.lambda_p = _entry(ckpt, "lambda_p", ())
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
    events: list | None = None,
    clock=None,
) -> TrainResult:
    cfg.validate()
    run_id = make_run_id(cfg, command)
    master = np.random.SeedSequence(cfg.seed)
    data_seq, shuffle_seq = master.spawn(2)
    data_rng = np.random.Generator(np.random.PCG64(data_seq))
    train_ds, test_ds = load_datasets(cfg, data_rng)

    start_epoch = 0
    if resume_from is not None:
        ckpt = load_checkpoint(resume_from)
        if ckpt.config_json != cfg.canonical_json():
            raise ConfigError("resume checkpoint was produced by a different config")
        net = restore_network(cfg, ckpt)
        opt = restore_adam(cfg, ckpt)
        shuffle_rng = np.random.Generator(np.random.PCG64(0))
        shuffle_rng.bit_generator.state = ckpt.rng_state
        start_epoch = ckpt.epoch
    else:
        net = network_from_config(cfg)
        opt = Adam(cfg.lr)
        shuffle_rng = np.random.Generator(np.random.PCG64(shuffle_seq))

    elapsed = clock if clock is not None else _PerfClock()
    rows: list[MetricsRow] = []
    for epoch in range(start_epoch, cfg.epochs):
        metrics = train_epoch(net, train_ds, cfg, opt, shuffle_rng, epoch, events=events)
        test_acc, test_loss = evaluate(net, test_ds, cfg.t_steps, merged=True)
        lam_str = format_lambdas([layer.lam for layer in net.layers])
        rows.append(MetricsRow(
            run_id=run_id, command=command, variant=cfg.lambda_mode,
            epoch_or_level=str(epoch), split="train",
            loss=metrics.mean_loss, accuracy=metrics.accuracy, accuracy_sd=0.0,
            lambda_values=lam_str, seed=cfg.seed, wall_clock_s=elapsed(),
        ))
        rows.append(MetricsRow(
            run_id=run_id, command=command, variant=cfg.lambda_mode,
            epoch_or_level=str(epoch), split="test",
            loss=test_loss, accuracy=test_acc, accuracy_sd=0.0,
            lambda_values=lam_str, seed=cfg.seed, wall_clock_s=elapsed(),
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


class _PerfClock:
    def __init__(self):
        self._t0 = time.perf_counter()

    def __call__(self) -> float:
        return time.perf_counter() - self._t0


def _plain_rng_state(rng: np.random.Generator) -> dict:
    state = rng.bit_generator.state
    return json.loads(json.dumps(state))


# --- lambda ablation ---------------------------------------------------------


@dataclass
class AblateReport:
    rows: list[MetricsRow]
    final_accuracy: dict[str, list[float]]
    learnable_beats_fixed: bool


def run_ablation(cfg: TrainConfig, out_dir, seeds: list[int], events=None) -> AblateReport:
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
            result = run_training(mode_cfg, mode_out, command="ablate", events=events)
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
