"""Workloads, phases and metrics of the mpsl benchmark; see bench/README.md.

``run.py`` caps the BLAS threads and puts the checkout's ``src`` on the
import path before this module (and so numpy) is imported.

A child process first writes the seeded MNIST-shaped IDX files into a
scratch directory of the checkout and trains the checkpoint that the eval
phases load. This process then runs its phases closed-loop, one operation at
a time, interleaved over the whole run:

* ``setup``  -- ``load_datasets`` plus building the network;
* ``train``  -- ``train_epoch`` on one batch-sized slice per operation;
* ``eval``   -- merged ``evaluate`` over the clean test split;
* ``robust`` -- ``mpsl robustness`` through ``cli.main``, one corruption
  kind at two levels per operation.

With ``--trace 1`` every phase alternates plain and traced operations, the
tracer's wrappers installed only around the traced ones. The per-layer
figures come from the traced operations, and the ratio of the traced to the
plain median is the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import dataclasses
import io
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import mpsl
from mpsl import checkpoint, cli, metrics, network, trainer
from mpsl.data import Dataset

import synth
from run import THREAD_VARS
from tracer import Tracer

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("desk", "per_item", "eval_robust")

SETUP_MIN_OPS = 11
EVAL_BATCH = 512
# Merged evaluation speeds up over its first calls while the allocator
# settles; these calls are not timed.
EVAL_WARMUP = 5
ROBUST_LEVELS = {"gaussian": (0.2, 0.4), "salt-pepper": (0.1, 0.2), "center-crop": (12, 20)}
# Chance is 0.1; the 60-step desk checkpoint scores about 0.7.
MIN_ACCURACY = 0.3
# Relative tolerance of the per_item step against the batched path at batch 1.
SEQUENTIAL_RTOL = 1e-6
CHILD_TIMEOUT_S = 120


@dataclass(frozen=True)
class Sizes:
    n_train: int
    n_test: int
    hidden: int
    t_steps: int
    desk_batch: int
    item_batch: int
    prefix_steps: int  # desk steps before the checkpoint; train_loss averages over them
    merge_check: int   # test items the merged/unmerged comparison runs on


# The Table-1 desk shape: 784-256-10, T=8, batch 100.
FULL = Sizes(6000, 1024, 256, 8, 100, 10, 60, 256)
QUICK = Sizes(600, 256, 64, 8, 50, 5, 30, 64)

# Share of the run's time that each phase gets.
SHARES = {
    "desk": {"setup": 0.02, "train": 0.7, "eval": 0.1, "robust": 0.18},
    "per_item": {"setup": 0.02, "train": 0.7, "eval": 0.1, "robust": 0.18},
    "eval_robust": {"setup": 0.02, "eval": 0.25, "robust": 0.73},
}


def desk_config(data_dir: Path, seed: int, sizes: Sizes, per_item: bool) -> trainer.TrainConfig:
    """The desk configuration: learnable lambda, batched plasticity unless per_item."""
    cfg = trainer.TrainConfig(
        dataset="mnist", data_dir=str(data_dir), layer_sizes=[784, sizes.hidden, 10],
        t_steps=sizes.t_steps, epochs=1,
        batch_size=sizes.item_batch if per_item else sizes.desk_batch,
        seed=seed, lambda_mode="learnable", sequential_plasticity=per_item,
    )
    cfg.validate()
    return cfg


def load_data(cfg: trainer.TrainConfig) -> tuple[Dataset, Dataset]:
    return trainer.load_datasets(cfg, np.random.Generator(np.random.PCG64(cfg.seed)))


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0


def _call(op, tally: Tally):
    """Call op, counting it; a call that raises counts as failed, and
    (False, None) is returned instead of ending the run."""
    tally.attempted += 1
    try:
        return True, op()
    except Exception as err:  # a failing operation is counted, not fatal
        tally.failed += 1
        print(f"operation failed: {type(err).__name__}: {err}", file=sys.stderr)
        return False, None


def run_phase(op, min_ops: int, tally: Tally) -> list:
    """Call op `min_ops` times; return the results of the calls that succeeded."""
    results = []
    for _ in range(min_ops):
        ok, result = _call(op, tally)
        if ok:
            results.append(result)
    return results


@dataclass
class Phase:
    """One kind of operation and its share of the run's time."""

    name: str
    op: Callable[[], object]
    share: float
    min_ops: int
    warmup: int = 0
    calls: int = 0
    spent: float = 0.0
    warm: list = field(default_factory=list)
    results: list = field(default_factory=list)
    traced: list = field(default_factory=list)


def run_schedule(phases: list[Phase], seconds: float, tally: Tally, tracing=None) -> None:
    """Call the phases' operations closed-loop, one at a time, interleaved.

    Each next call goes to the phase that has used the least of its share of
    the time, so every phase samples the whole run and a slow drift in the
    machine's speed touches all of them alike. The schedule ends once
    `seconds` have passed and every phase has made its minimum number of
    calls. With `tracing` (a context manager taking the phase name), every
    second call of a phase after its warm-up runs inside it.
    """
    start = time.perf_counter()
    while True:
        late = time.perf_counter() - start >= seconds
        due = [p for p in phases if not late or p.calls < p.min_ops]
        if not due:
            return
        phase = min(due, key=lambda p: p.spent / p.share)
        phase.calls += 1
        warm = phase.calls <= phase.warmup
        traced = tracing is not None and not warm and (phase.calls - phase.warmup) % 2 == 0
        with tracing(phase.name) if traced else contextlib.nullcontext():
            t0 = time.perf_counter()
            ok, result = _call(phase.op, tally)
            phase.spent += time.perf_counter() - t0
        if ok:
            (phase.warm if warm else phase.traced if traced else phase.results).append(result)


@contextlib.contextmanager
def _no_span(_name):
    yield None


class StepLoop:
    """Trains one network, one ``train_epoch`` call on a batch-sized slice
    per step, walking a seeded order of the training split. After a failed
    step the network and optimizer start afresh, so that one bad batch does
    not poison the rest of the run."""

    def __init__(self, cfg: trainer.TrainConfig, data: Dataset):
        self.cfg = cfg
        self.data = data
        rng = np.random.Generator(np.random.PCG64(cfg.seed))
        usable = len(data) - len(data) % cfg.batch_size
        self.order = rng.permutation(len(data))[:usable]
        self.shuffle_rng = np.random.Generator(np.random.PCG64(cfg.seed + 1))
        self.steps = 0
        self.losses: list[float] = []
        self.span = _no_span
        self._fresh()

    def _fresh(self) -> None:
        self.net = trainer.network_from_config(self.cfg)
        self.opt = trainer.Adam(self.cfg.lr)

    def batch(self, steps: int) -> Dataset:
        """The slice that step number `steps` (from 0) trains on."""
        size = self.cfg.batch_size
        start = (steps * size) % len(self.order)
        idx = self.order[start : start + size]
        return Dataset(self.data.images[idx], self.data.labels[idx],
                       self.data.width, self.data.height, self.data.num_classes)

    def step(self) -> float:
        batch = self.batch(self.steps)
        self.steps += 1
        try:
            with self.span("trainer.step"):
                t0 = time.perf_counter()
                result = trainer.train_epoch(self.net, batch, self.cfg, self.opt,
                                             self.shuffle_rng, epoch=self.steps - 1)
                elapsed = time.perf_counter() - t0
        except Exception:
            self._fresh()
            raise
        self.losses.extend(result.batch_losses)
        return elapsed


def make_checkpoint(work: Path, seed: int, sizes: Sizes) -> dict:
    """Write the seeded input into ``work/data``, then run the first
    ``prefix_steps`` desk steps and save them as ``work/model.ckpt``.
    Returns their step times and losses."""
    data_dir = work / "data"
    data_dir.mkdir(parents=True)
    synth.write_dataset(data_dir, seed, sizes.n_train, sizes.n_test)
    cfg = desk_config(data_dir, seed, sizes, per_item=False)
    train, _test = load_data(cfg)
    loop = StepLoop(cfg, train)
    tally = Tally()
    durations = run_phase(loop.step, sizes.prefix_steps, tally)
    state = json.loads(json.dumps(loop.shuffle_rng.bit_generator.state))
    checkpoint.save_checkpoint(work / "model.ckpt", cfg.canonical_json(), epoch=1,
                               rng_state=state,
                               entries=trainer.checkpoint_entries(loop.net, loop.opt))
    return {"durations": durations, "losses": loop.losses,
            "attempted": tally.attempted, "failed": tally.failed}


def make_checkpoint_in_child(work: Path, seed: int, quick: bool) -> dict:
    """make_checkpoint in a child process, which has ended before anything
    here is timed. So the data generation and the training window stay out
    of this process's peak memory and traced spans, and the child's BLAS
    threads compete with nothing."""
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--make-checkpoint", str(work),
           "--seed", str(seed)] + (["--quick"] if quick else [])
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"checkpoint run exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class GradRecorder:
    """Stands in for Adam in ``train_epoch``: records the gradients of each
    gradient step and changes no parameter."""

    def __init__(self):
        self.grads: list[dict[str, np.ndarray]] = []

    def step(self, params, grads, skip=frozenset()) -> None:
        self.grads.append({name: np.array(g, copy=True) for name, g in grads.items()})


def _close(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(
        np.linalg.norm(a - b) <= SEQUENTIAL_RTOL * np.linalg.norm(b) + 1e-12)


def sequential_matches_batched(net, cfg: trainer.TrainConfig, batch: Dataset) -> bool:
    """Check one per_item step against the batched path at batch 1.

    The per-item schedule runs ``record_forward`` once per item, carries
    W2/W3 from item to item, and takes one gradient step on the mean of the
    items' gradients. ``train_epoch`` on the batched path at batch 1 over the
    same items, in the same order and with the parameters held still, must
    give the same mean loss, the same mean gradient and the same final W2/W3.
    """
    outcomes = []
    for step_cfg in (cfg, dataclasses.replace(cfg, sequential_plasticity=False, batch_size=1)):
        copy_net = copy.deepcopy(net)
        recorder = GradRecorder()
        shuffle = np.random.Generator(np.random.PCG64(cfg.seed))
        result = trainer.train_epoch(copy_net, batch, step_cfg, recorder, shuffle)
        grads = {name: np.mean([g[name] for g in recorder.grads], axis=0)
                 for name in recorder.grads[0]}
        plastic = [w for layer in copy_net.layers for w in (layer.w2, layer.w3)]
        outcomes.append((np.mean(result.batch_losses), grads, plastic))
    (loss, grads, plastic), (ref_loss, ref_grads, ref_plastic) = outcomes
    return (_close(loss, ref_loss) and grads.keys() == ref_grads.keys()
            and all(_close(grads[name], ref_grads[name]) for name in grads)
            and all(_close(w, ref) for w, ref in zip(plastic, ref_plastic)))


class Evaluator:
    """Merged evaluation of the checkpoint."""

    def __init__(self, ckpt: Path, test: Dataset):
        self.test = test
        self.net, cfg, _ = trainer.network_from_checkpoint(ckpt)
        self.t_steps = cfg.t_steps
        self.accuracies: list[float] = []

    def evaluate(self) -> float:
        t0 = time.perf_counter()
        acc, _loss = trainer.evaluate(self.net, self.test, self.t_steps, merged=True,
                                      batch_size=EVAL_BATCH)
        elapsed = time.perf_counter() - t0
        self.accuracies.append(acc)
        return elapsed


class Sweeper:
    """``mpsl robustness`` on the checkpoint, one corruption kind per call,
    taking the kinds in turn."""

    def __init__(self, ckpt: Path, out: Path, seed: int):
        self.ckpt = ckpt
        self.out = out
        self.seed = seed
        self.kinds = itertools.cycle(ROBUST_LEVELS)
        self.rows_ok = True

    def sweep_kind(self) -> tuple[str, list[float]]:
        """Returns the kind and the time of each level, read from the wall
        clock the command writes after each level (so the command's own
        loading is left out)."""
        kind = next(self.kinds)
        levels = ROBUST_LEVELS[kind]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([
                "robustness", "--checkpoint", str(self.ckpt), "--kinds", kind,
                "--levels", ",".join(str(v) for v in levels),
                "--seed", str(self.seed), "--out-dir", str(self.out),
            ])
        if code != 0:
            raise RuntimeError(f"mpsl robustness --kinds {kind} exited with {code}")
        _, rows = metrics.read_metrics(self.out / "robustness.csv")
        if len(rows) != len(levels):
            self.rows_ok = False
        clock = [0.0] + [float(row["wall_clock_s"]) for row in rows]
        return kind, [b - a for a, b in zip(clock, clock[1:])]


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


class Run:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, sizes: Sizes,
                 work: Path, quick: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.sizes = sizes
        self.work = work
        self.quick = quick
        self.tally = Tally()
        self.tracer = Tracer()
        self.absent: list[str] = []
        self.checks: dict[str, bool] = {}
        self.samples: dict[str, object] = {}
        self.overhead = (0.0, 0.0)
        self.ckpt = work / "model.ckpt"
        self.cfg: trainer.TrainConfig | None = None
        self.loop: StepLoop | None = None
        self.prefix: dict = {}
        self.span = _no_span

    @contextlib.contextmanager
    def traced(self, phase: str):
        self.absent = self.tracer.install()
        self.tracer.phase = phase
        self.span = self.tracer.span
        if self.loop is not None:
            self.loop.span = self.tracer.span
        try:
            yield
        finally:
            self.tracer.uninstall()
            self.span = _no_span
            if self.loop is not None:
                self.loop.span = _no_span

    def setup_once(self) -> float:
        """Time one set-up; its data and network are dropped before the next."""
        with self.span("setup"):
            t0 = time.perf_counter()
            load_data(self.cfg)
            if self.workload == "eval_robust":
                trainer.network_from_checkpoint(self.ckpt)
            else:
                trainer.network_from_config(self.cfg)
            return time.perf_counter() - t0

    def phases(self, evaluator: Evaluator, sweeper: Sweeper) -> list[Phase]:
        shares = SHARES[self.workload]
        phases = [Phase("setup", self.setup_once, shares["setup"], SETUP_MIN_OPS)]
        if self.loop is not None:
            phases.append(Phase("train", self.loop.step, shares["train"], 3, warmup=1))
        phases += [
            Phase("eval", evaluator.evaluate, shares["eval"], EVAL_WARMUP + 3,
                  warmup=EVAL_WARMUP),
            Phase("robust", sweeper.sweep_kind, shares["robust"], len(ROBUST_LEVELS)),
        ]
        if self.trace:
            # half the calls after warm-up are traced; with an odd number of
            # corruption kinds, the traced robust calls cover every kind
            for phase in phases:
                phase.min_ops = phase.warmup + 2 * (phase.min_ops - phase.warmup)
        return phases

    def execute(self) -> None:
        self.prefix = make_checkpoint_in_child(self.work, self.seed, self.quick)
        self.tally.attempted += self.prefix["attempted"]
        self.tally.failed += self.prefix["failed"]
        cfg = self.cfg = desk_config(self.work / "data", self.seed, self.sizes,
                                     per_item=self.workload == "per_item")
        train, test = load_data(cfg)
        if self.workload != "eval_robust":
            self.loop = StepLoop(cfg, train)
        evaluator = Evaluator(self.ckpt, test)
        sweeper = Sweeper(self.ckpt, self.work / "robust", self.seed)
        phases = self.phases(evaluator, sweeper)
        run_schedule(phases, self.seconds, self.tally, self.traced if self.trace else None)
        if self.trace:
            # training steps, or evaluations where this process trains nothing
            timed = phases[1]
            self.overhead = (_median(timed.results), _median(timed.traced))
            if self.loop is not None:
                self.samples["window_peak_mb"] = run_phase(self._window_peak, 1, self.tally)
        self._collect(phases, evaluator, sweeper, test)

    def _window_peak(self) -> float:
        """Peak traced allocation over one untraced training step."""
        tracemalloc.start()
        try:
            self.loop.step()
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    def _collect(self, phases: list[Phase], evaluator: Evaluator, sweeper: Sweeper,
                 test: Dataset) -> None:
        setup, *train, evals, robust = phases
        losses = self.prefix["losses"]
        if self.workload == "eval_robust":
            cold, steps = self.prefix["durations"][:1], self.prefix["durations"][1:]
            self.samples["items_per_step"] = self.sizes.desk_batch
        else:
            cold, steps = train[0].warm, train[0].results
            self.samples["items_per_step"] = self.loop.cfg.batch_size
            self.samples["step_losses"] = self.loop.losses
        self.samples.update(setup_s=setup.results, cold_step_s=cold, step_s=steps,
                            losses=losses, eval_s=evals.results,
                            accuracy=evaluator.accuracies[:1])
        level_s = defaultdict(list)
        for kind, times in robust.results + robust.traced:
            level_s[kind] += times
        self.samples["level_s"] = dict(level_s)

        net = evaluator.net
        n = self.sizes.merge_check
        merged, _ = network.forward_inference(net, test.images[:n], evaluator.t_steps, merged=True)
        unmerged, _ = network.forward_inference(net, test.images[:n], evaluator.t_steps,
                                                merged=False)
        accuracies = evaluator.accuracies
        step_losses = self.loop.losses if self.loop is not None else []
        self.checks = {
            "losses_finite": all(math.isfinite(x) for x in losses + step_losses),
            "merge_equivalence": bool(np.array_equal(merged, unmerged)),
            "accuracy_above_chance": bool(accuracies) and accuracies[0] >= MIN_ACCURACY,
            "accuracy_deterministic": len(set(accuracies)) == 1,
            "robustness_rows": sweeper.rows_ok and len(level_s) == len(ROBUST_LEVELS),
        }
        if self.workload == "per_item":
            try:
                same = sequential_matches_batched(self.loop.net, self.cfg,
                                                  self.loop.batch(self.loop.steps))
            except Exception as err:
                print(f"sequential check failed: {type(err).__name__}: {err}", file=sys.stderr)
                same = False
            self.checks["sequential_matches_batched"] = same

    # --- results ----------------------------------------------------------

    def end_to_end(self) -> dict[str, tuple[float, str]]:
        s = self.samples
        step_s = s["step_s"]
        return {
            "setup_s": (_median(s["setup_s"]), "s"),
            "train_samples_per_s": (s["items_per_step"] / _median(step_s), "1/s"),
            "step_ms_p50": (1000 * _median(step_s), "ms"),
            "step_ms_p90": (1000 * float(np.percentile(step_s, 90)), "ms"),
            "train_loss": (statistics.fmean(s["losses"]), "nats"),
            "eval_samples_per_s": (self.sizes.n_test / _median(s["eval_s"]), "1/s"),
            "robust_level_s": (statistics.fmean(_median(t) for t in s["level_s"].values()), "s"),
            "eval_accuracy": (s["accuracy"][0], "fraction"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }

    def per_layer(self) -> dict[str, tuple[float, str]]:
        spans = self.tracer.spans
        by_name: dict[tuple[str, str], list] = defaultdict(list)
        for sp in spans:
            by_name[sp.phase, sp.name].append(sp)

        def self_ms(phases, name):
            return [1000 * sp.self_time for ph in phases for sp in by_name[ph, name]]

        infer = ("eval", "robust")
        steps = by_name["train", "trainer.step"]
        records = by_name["train", "tape.record_forward"]
        all_records = [sp for sp in spans if sp.name == "tape.record_forward"]
        backwards = by_name["train", "tape.backward"]
        tape_self = sum(sp.self_time for sp in records + backwards)
        step_total = sum(sp.duration for sp in steps)
        forwards = [sp for ph in infer for sp in by_name[ph, "network.forward_inference"]]
        lif_by_forward: dict[int, float] = defaultdict(float)
        for ph in infer:
            for sp in by_name[ph, "neuron.lif"]:
                lif_by_forward[sp.parent] += sp.self_time
        evaluations = sum(len(by_name[ph, "trainer.evaluate"]) for ph in infer)
        merges = sum(len(by_name[ph, "plasticity.merge_weights"]) for ph in infer)
        n_layers = len(self.cfg.layer_sizes) - 1
        setups = len(by_name["setup", "setup"])
        plain, traced = self.overhead
        out = {
            "tape.record_forward_ms": (_median(self_ms(["train"], "tape.record_forward")), "ms"),
            "tape.backward_ms": (_median(self_ms(["train"], "tape.backward")), "ms"),
            "tape.share_pct": (100 * tape_self / step_total if step_total else 0.0, "%"),
            "tape.nodes": (_median(sp.value for sp in records if sp.value is not None), "count"),
            "tape.window_peak_mb": (_median(self.samples.get("window_peak_mb", [])), "MB"),
            "trainer.step_ms": (_median(1000 * sp.duration for sp in steps), "ms"),
            "trainer.adam_step_ms": (_median(self_ms(["train"], "trainer.adam_step")), "ms"),
            "trainer.step_self_ms": (_median(self_ms(["train"], "trainer.step")), "ms"),
            # with no training step, every traced record_forward call: 0 on eval_robust
            "trainer.record_forward_calls_per_step": (
                len(all_records) / len(steps) if steps else len(all_records), "count"),
            "trainer.cold_step_ms": (1000 * _median(self.samples["cold_step_s"]), "ms"),
            "network.forward_inference_ms": (_median(self_ms(infer, "network.forward_inference")),
                                             "ms"),
            "neuron.lif_ms": (_median(1000 * lif_by_forward[sp.sid] for sp in forwards), "ms"),
            "plasticity.merge_weights_ms": (_median(self_ms(infer, "plasticity.merge_weights")),
                                            "ms"),
            "plasticity.merge_weights_calls_per_eval": (
                merges / (evaluations * n_layers) if evaluations else 0.0, "count"),
        }
        for kind in ROBUST_LEVELS:
            out[f"data.perturb_dataset_ms.{kind}"] = (
                _median(self_ms(["robust"], f"data.perturb_dataset.{kind}")), "ms")
        out.update({
            "data.load_idx_ms": (sum(self_ms(["setup"], "data.load_idx")) / max(setups, 1), "ms"),
            "checkpoint.load_checkpoint_ms": (
                sum(self_ms(["setup"], "checkpoint.load_checkpoint")) / max(setups, 1), "ms"),
            "metrics.write_metrics_csv_ms": (
                _median(self_ms(["robust"], "metrics.write_metrics_csv")), "ms"),
            "trace.overhead_pct": (100 * (traced / plain - 1) if plain else 0.0, "%"),
            "trace.absent_hooks": (len(self.absent), "count"),
        })
        return out


# --- run metadata ----------------------------------------------------------


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_info() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return {"name": "unknown", "version": "unknown"}
    return {"name": blas.get("name", "unknown"), "version": blas.get("version", "unknown")}


def _git_commit(root: Path) -> str | None:
    """HEAD of a checkout that is a git repository, read from its files."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_metadata(args, root: Path) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "quick": args.quick,
        "cpu_model": _cpu_model(), "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": _blas_info(),
        "blas_thread_cap": os.environ.get("OPENBLAS_NUM_THREADS"),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "MPSL_THREADS": os.environ.get("MPSL_THREADS"),
        "git_commit": _git_commit(root), "mpsl_version": mpsl.__version__,
    }


# --- entry -----------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="small shapes, for the benchmark's self-test")
    parser.add_argument("--results-dir", default=str(BENCH_DIR / "results"),
                        help="where the run record (metadata, samples, result) is written")
    parser.add_argument("--make-checkpoint", metavar="WORK", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.make_checkpoint is None and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _metric(value, unit) -> dict:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"non-finite metric value {value}")
    return {"value": value, "unit": unit}


def main(argv, root: Path) -> int:
    args = parse_args(argv)
    sizes = QUICK if args.quick else FULL
    if args.make_checkpoint is not None:
        print(json.dumps(make_checkpoint(Path(args.make_checkpoint), args.seed, sizes)))
        return 0

    scratch = root / ".bench_work"
    scratch.mkdir(exist_ok=True)
    work = scratch / f"{args.workload}-{args.seed}-{os.getpid()}"
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace), sizes, work, args.quick)
    try:
        run.execute()
        figures = run.per_layer() if args.trace else run.end_to_end()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.rmdir()
    result = {
        "correct": all(run.checks.values()),
        "attempted": run.tally.attempted,
        "failed": run.tally.failed,
        "metrics": {name: _metric(v, unit) for name, (v, unit) in figures.items()},
    }
    meta = run_metadata(args, root)
    meta["sizes"] = asdict(sizes)
    meta["absent_hooks"] = run.absent
    record = {"meta": meta, "checks": run.checks, "samples": run.samples, "result": result}
    results_dir = Path(args.results_dir)
    results_dir.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results_dir / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"meta": meta, "checks": run.checks}))
    print(json.dumps(result))
    return 0
