"""Self-test of the benchmark at a quick size. It asserts no timings.

    python3 -m pytest -q bench/test_selftest.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
META_KEYS = ("cpu_model", "nproc", "python", "numpy", "blas", "blas_thread_cap",
             "MPSL_THREADS", "git_commit", "seed")


def _bench(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(root / "bench" / "run.py"), *args],
                          cwd=root, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_finite(workload, trace, tmp_path):
    proc = _bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--quick", "--results-dir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0, m["name"]
    if trace:
        calls = result["metrics"]["trainer.record_forward_calls_per_step"]["value"]
        assert (calls == 0) == (workload == "eval_robust")
    record = json.loads((tmp_path / f"{workload}-seed3-trace{trace}.json").read_text())
    for key in META_KEYS:
        assert key in record["meta"]


def test_failing_step_is_counted_not_fatal(tmp_path):
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import harness
    from mpsl.data import Dataset

    rng = np.random.default_rng(0)
    data = Dataset(rng.random((200, 784)), np.arange(200) % 10, 28, 28, 10)
    cfg = harness.desk_config(tmp_path, seed=1, sizes=harness.QUICK, per_item=False)
    loop = harness.StepLoop(cfg, data)
    data.images[loop.order[: cfg.batch_size]] = np.nan  # the first step's batch
    tally = harness.Tally()
    with np.errstate(all="ignore"):
        durations = harness.run_phase(loop.step, 3, tally)
    assert (tally.attempted, tally.failed, len(durations)) == (3, 1, 2)
    assert all(math.isfinite(loss) for loss in loop.losses)


def test_sequential_check_catches_a_wrong_gradient_mean(monkeypatch, tmp_path):
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import harness
    from mpsl import trainer
    from mpsl.data import Dataset

    rng = np.random.default_rng(0)
    data = Dataset(rng.random((100, 784)), np.arange(100) % 10, 28, 28, 10)
    cfg = harness.desk_config(tmp_path, seed=1, sizes=harness.QUICK, per_item=True)
    loop = harness.StepLoop(cfg, data)
    loop.step()
    batch = loop.batch(loop.steps)
    assert harness.sequential_matches_batched(loop.net, cfg, batch)
    monkeypatch.setattr(trainer, "_mean_gradient_dicts", lambda dicts: dicts[-1])
    assert not harness.sequential_matches_batched(loop.net, cfg, batch)


def test_missing_hook_targets_are_absent_not_errors():
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    from tracer import HOOKS, Hook, Tracer
    from mpsl import trainer

    gone = [Hook("mpsl.trainer", "no_such_function", "a"),
            Hook("mpsl.trainer", "Adam.no_such_method", "b"),
            Hook("mpsl.no_such_module", "f", "c")]
    tracer = Tracer()
    absent = tracer.install(HOOKS[:1] + tuple(gone))
    try:
        assert absent == [f"{h.module}.{h.attr}" for h in gone]
        assert hasattr(trainer.record_forward, "__wrapped__")
    finally:
        tracer.uninstall()
    assert not hasattr(trainer.record_forward, "__wrapped__")


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    proc = _bench(tmp_path, "--workload", "desk", "--seed", "1", "--seconds", "1",
                  "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
