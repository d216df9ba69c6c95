"""Command-line surface: train, eval, robustness, ablate, gradcheck,
export-features.

Exit codes are a stable CI contract: 0 success, 1 check failure, 2
usage/config error, 3 numeric abort. Every command is deterministic given
(config, seed); metrics re-runs are byte-identical apart from wall-clock.
"""

from __future__ import annotations

import os

# Cap worker threads before numpy binds its BLAS thread pool.
if "MPSL_THREADS" in os.environ:
    for _var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    ):
        os.environ.setdefault(_var, os.environ["MPSL_THREADS"])

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from .checkpoint import atomic_write
from .data import PerturbationSpec, perturb_dataset
from .gradcheck import run_gradcheck
from .metrics import MetricsRow, format_lambdas, write_metrics_csv
from .network import forward_inference
from .trainer import (
    ConfigError,
    NumericAbortError,
    checkpoint_with_test_split,
    evaluate,
    load_config_file,
    make_run_id,
    run_ablation,
    run_training,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3

N_ROBUSTNESS_SEEDS = 5

DEFAULT_LEVELS = {
    "gaussian": [0.1, 0.2, 0.3, 0.4, 0.5],
    "salt-pepper": [0.05, 0.1, 0.15, 0.2, 0.25],
    "center-crop": [8, 12, 16, 20, 24],
}


def _p(message: str) -> None:
    print(message, flush=True)


def cmd_train(args) -> int:
    cfg = load_config_file(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
        cfg.validate()
    out_dir = Path(args.out_dir)
    result = run_training(cfg, out_dir, command="train")
    write_metrics_csv(out_dir / "metrics.csv", result.rows)
    _p(f"run {make_run_id(cfg, 'train')}: {cfg.epochs} epochs on {cfg.dataset}")
    _p(f"final test accuracy {result.final_test_accuracy:.4f}")
    _p(f"checkpoint: {result.checkpoint_path}")
    _p(f"metrics:    {out_dir / 'metrics.csv'}")
    return EXIT_OK


def cmd_eval(args) -> int:
    net, cfg, ckpt, test_ds = checkpoint_with_test_split(args.checkpoint)
    t0 = time.perf_counter()
    acc, loss = evaluate(net, test_ds, cfg.t_steps, merged=args.merged)
    variant = "merged" if args.merged else "unmerged"
    row = MetricsRow(
        run_id=make_run_id(cfg, "eval"), command="eval", variant=variant,
        epoch_or_level=str(ckpt.epoch), split="test", loss=loss, accuracy=acc,
        accuracy_sd=0.0, lambda_values=format_lambdas([l.lam for l in net.layers]),
        seed=cfg.seed, wall_clock_s=time.perf_counter() - t0,
    )
    if args.out_dir:
        write_metrics_csv(Path(args.out_dir) / "eval.csv", [row])
    _p(f"{variant} test accuracy {acc:.4f}, loss {loss:.4f}")
    return EXIT_OK


def _parse_levels(raw: str | None) -> list[float] | None:
    if raw is None:
        return None
    try:
        levels = [float(part) for part in raw.split(",") if part.strip() != ""]
    except ValueError as err:
        raise ConfigError(f"--levels: {err}") from err
    if not levels:
        raise ConfigError("--levels: need at least one level")
    return levels


def _seed_flag(seed: int | None, default: int) -> int:
    if seed is None:
        return default
    if seed < 0:
        raise ConfigError(f"--seed: must be >= 0, got {seed}")
    return seed


def cmd_robustness(args) -> int:
    net, cfg, _ckpt, test_ds = checkpoint_with_test_split(args.checkpoint)
    kinds = [part.strip() for part in args.kinds.split(",") if part.strip()]
    if not kinds:
        raise ConfigError("--kinds: need at least one kind")
    for kind in kinds:
        if kind not in DEFAULT_LEVELS:
            raise ConfigError(f"--kinds: unknown perturbation kind {kind!r}")
    levels = _parse_levels(args.levels)
    base_seed = _seed_flag(args.seed, default=cfg.seed)
    run_id = make_run_id(cfg, "robustness")
    lam_str = format_lambdas([layer.lam for layer in net.layers])
    t0 = time.perf_counter()

    sweep = [(level, PerturbationSpec(kind, level)) for kind in kinds
             for level in sorted(levels if levels is not None else DEFAULT_LEVELS[kind])]
    for _level, spec in sweep:  # a bad level fails before the first evaluation
        spec.validate(test_ds.width, test_ds.height)
    rows = []
    for level, spec in sweep:
        # center-crop ignores the seed: one evaluation stands for every
        # seed, so the row keeps its five-seed mean and spread
        draws = 1 if spec.kind == "center-crop" else N_ROBUSTNESS_SEEDS
        results = [evaluate(net, perturb_dataset(test_ds, spec, seed=base_seed + i),
                            cfg.t_steps, merged=True) for i in range(draws)]
        results *= N_ROBUSTNESS_SEEDS // draws
        accs = [acc for acc, _loss in results]
        losses = [loss for _acc, loss in results]
        rows.append(MetricsRow(
            run_id=run_id, command="robustness", variant=spec.kind,
            epoch_or_level=repr(spec.level), split="test",
            loss=float(np.mean(losses)), accuracy=float(np.mean(accs)),
            accuracy_sd=float(np.std(accs)), lambda_values=lam_str,
            seed=base_seed, wall_clock_s=time.perf_counter() - t0,
        ))
        _p(f"{spec.kind} level {level}: accuracy {np.mean(accs):.4f} +- {np.std(accs):.4f}")
    out_dir = Path(args.out_dir)
    write_metrics_csv(out_dir / "robustness.csv", rows)
    _p(f"sweep written to {out_dir / 'robustness.csv'}")
    return EXIT_OK


def cmd_ablate(args) -> int:
    cfg = load_config_file(args.config)
    try:
        seeds = [int(part) for part in args.seeds.split(",") if part.strip()]
    except ValueError as err:
        raise ConfigError(f"--seeds: {err}") from err
    if not seeds:
        raise ConfigError("--seeds: need at least one seed")
    out_dir = Path(args.out_dir)
    report = run_ablation(cfg, out_dir, seeds)
    write_metrics_csv(out_dir / "ablate.csv", report.rows)
    for mode, finals in report.final_accuracy.items():
        _p(f"{mode}: final test accuracy mean {np.mean(finals):.4f} over {len(finals)} seeds")
    _p(f"learnable >= fixed: {report.learnable_beats_fixed}")
    _p(f"curves written to {out_dir / 'ablate.csv'}")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    if args.trials < 1:
        raise ConfigError("--trials: must be >= 1")
    result = run_gradcheck(
        args.trials, _seed_flag(args.seed, default=20240501),
        surrogate_width_scale=args.corrupt_surrogate,
    )
    _p(
        f"gradcheck over {result.trials} trials: worst relative error "
        f"{result.worst_err:.3e} on {result.worst_param} (seed {result.worst_seed})"
    )
    if not result.passed:
        _p(f"FAILED: {len(result.failures)} parameter groups above 1e-6")
        for seed, name, err in result.failures[:10]:
            _p(f"  seed {seed}: {name} rel err {err:.3e}")
        return EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_export_features(args) -> int:
    net, cfg, _ckpt, test_ds = checkpoint_with_test_split(args.checkpoint)
    n = args.n_samples
    if n < 1:
        raise ConfigError("--n-samples: must be >= 1")
    if n > len(test_ds):
        print(
            f"warning: requested {n} samples but the test split has {len(test_ds)}; clamping",
            file=sys.stderr,
        )
        n = len(test_ds)
    x = test_ds.images[:n]
    labels = test_ds.labels[:n]
    _counts, penultimate = forward_inference(net, x, cfg.t_steps, merged=True)
    width = penultimate.shape[1]
    header = "label," + ",".join(f"u{i:03d}" for i in range(width))
    lines = [header]
    for row_label, row in zip(labels, penultimate):
        lines.append(str(int(row_label)) + "," + ",".join(repr(float(v)) for v in row))
    out_path = Path(args.out)
    atomic_write(out_path, ("\n".join(lines) + "\n").encode("utf-8"))
    _p(f"wrote {n} rows x (1+{width}) columns to {out_path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mpsl",
        description="Train and evaluate multi-plasticity spiking networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="run the training schedule from a JSON config")
    train.add_argument("--config", required=True)
    train.add_argument("--seed", type=int, default=None, help="override the config seed")
    train.add_argument("--out-dir", default="mpsl-out")
    train.set_defaults(fn=cmd_train)

    ev = sub.add_parser("eval", help="evaluate a checkpoint on its test split")
    ev.add_argument("--checkpoint", required=True)
    group = ev.add_mutually_exclusive_group()
    group.add_argument("--merged", dest="merged", action="store_true", default=True,
                       help="single collapsed weight per layer (default)")
    group.add_argument("--unmerged", dest="merged", action="store_false",
                       help="three-pathway forward")
    ev.add_argument("--out-dir", default=None)
    ev.set_defaults(fn=cmd_eval)

    rob = sub.add_parser("robustness", help="accuracy under input corruptions")
    rob.add_argument("--checkpoint", required=True)
    rob.add_argument("--kinds", default="gaussian,salt-pepper,center-crop")
    rob.add_argument("--levels", default=None,
                     help="comma-separated levels applied to every kind listed")
    rob.add_argument("--seed", type=int, default=None)
    rob.add_argument("--out-dir", default="mpsl-out")
    rob.set_defaults(fn=cmd_robustness)

    ab = sub.add_parser("ablate", help="fixed vs learnable vs frozen-learned coefficients")
    ab.add_argument("--config", required=True)
    ab.add_argument("--seeds", default="1,2,3")
    ab.add_argument("--out-dir", default="mpsl-out")
    ab.set_defaults(fn=cmd_ablate)

    gc = sub.add_parser("gradcheck", help="reverse-mode vs forward-tangent oracle")
    gc.add_argument("--trials", type=int, default=50)
    gc.add_argument("--seed", type=int, default=None)
    gc.add_argument("--corrupt-surrogate", type=float, default=1.0,
                    help=argparse.SUPPRESS)  # fault injection for the negative control
    gc.set_defaults(fn=cmd_gradcheck)

    ex = sub.add_parser("export-features", help="penultimate-layer membrane potentials as CSV")
    ex.add_argument("--checkpoint", required=True)
    ex.add_argument("--n-samples", type=int, default=500)
    ex.add_argument("--out", default="features.csv")
    ex.set_defaults(fn=cmd_export_features)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as err:  # ConfigError, CheckpointError and IdxFormatError among them
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except NumericAbortError as err:
        print(f"numeric abort: {err}", file=sys.stderr)
        print(f"  batch index: {err.batch_index}", file=sys.stderr)
        for name, norm in sorted(err.norms.items()):
            print(f"  |{name}| = {norm:.6e}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
