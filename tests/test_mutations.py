"""Negative controls of the gradcheck and of criterion 1's plasticity-oracle
check, run on every commit. Each test builds a copy of mpsl.window with one
fault put in by an exact source substitution and routes the training step
through the copy. A window mutation must fail the default gradcheck trials
(`mpsl gradcheck`: 50 trials from seed 20240501) at three trial seeds or
more; a plasticity mutation must put criterion 1's worst error above 1e-12.

A substitution whose pattern no longer occurs exactly once fails the test,
so a refactor that moves the code it names must update it here."""

import inspect
import types

import pytest

from test_acceptance import plasticity_oracle_trials

from mpsl import trainer, window
from mpsl.gradcheck import run_gradcheck

DEFAULT_SEED, DEFAULT_TRIALS = 20240501, 50
CAUGHT_AT = 3  # failing trial seeds that count as caught
ORACLE_TOL = 1e-12  # criterion 1's bound on |window - oracle|

MUTATIONS = [  # pattern, replacement
    # layer 1's factored W2/W3 carried across the groups of a per-item step
    pytest.param("q += p * row", "pass", id="carry-drops-p-row"),
    pytest.param("np.matmul(x, x.T, out=first.gram)",
                 "np.matmul(x, x.T, out=first.gram); first.gram *= np.eye(n)",
                 id="gram-is-its-diagonal"),
    pytest.param("k_row = first.gram[g * rows : (g + 1) * rows, : g * rows]",
                 "k_row = 0.0 * first.gram[g * rows : (g + 1) * rows, : g * rows]",
                 id="carry-drops-k-rows"),
    pytest.param("b_0 += a_0 * first.m", "pass", id="step-1-w3-drive-drops-m-a0"),
    # the reverse of layer 2's Hebbian step
    pytest.param("g_post = inv_b * (x_in @ g_om.swapaxes(1, 2))",
                 "g_post = x_in @ g_om.swapaxes(1, 2)", id="hebbian-reverse-drops-inv-b"),
    # what the reverse rebuilds instead of reading it from the window
    pytest.param("b.w2[t + 1 :: t_steps], b.w2[t : -1 : t_steps]",
                 "b.w2[t + 2 :: t_steps], b.w2[t + 1 : -1 : t_steps]", id="dw2-one-step-late"),
    pytest.param("om /= post.shape[-2]", "pass", id="correlation-drops-rows"),
    pytest.param("q += (win.decay - 1.0) * a", "pass", id="e-drops-decay-term"),
    pytest.param("np.exp(-b.u[t])", "np.exp(-b.u[t - 1])", id="sigma-from-previous-step"),
    # every layer's W1 gradient is the mean over the step's groups
    pytest.param('"layers.{l}.w1": g / groups', '"layers.{l}.w1": g', id="w1-drops-group-mean"),
]


def mutant_window(pattern: str, replacement: str) -> types.ModuleType:
    source = inspect.getsource(window)
    assert source.count(pattern) == 1, f"{pattern!r} occurs {source.count(pattern)} times"
    module = types.ModuleType("mpsl.mutant_window")
    module.__package__ = "mpsl"
    exec(compile(source.replace(pattern, replacement), window.__file__, "exec"), module.__dict__)
    return module


def failing_trials() -> list[int]:
    """Offsets from the default seed of the first CAUGHT_AT failing trials."""
    failing = []
    for k in range(DEFAULT_TRIALS):
        if not run_gradcheck(1, DEFAULT_SEED + k).passed:
            failing.append(k)
            if len(failing) == CAUGHT_AT:
                break
    return failing


def route_through(monkeypatch, mutant: types.ModuleType) -> None:
    monkeypatch.setattr(trainer, "record_forward", mutant.record_forward)
    monkeypatch.setattr(trainer, "backward", mutant.backward)


@pytest.mark.parametrize("pattern, replacement", MUTATIONS)
def test_gradcheck_catches_the_window_mutation(monkeypatch, pattern, replacement):
    route_through(monkeypatch, mutant_window(pattern, replacement))
    assert len(failing_trials()) == CAUGHT_AT


def test_an_unmutated_copy_passes(monkeypatch):
    # the copy itself is sound: over the first 10 trials, which hold every
    # failing seed that the walks above stop at, it passes
    route_through(monkeypatch, mutant_window("def backward(", "def backward("))
    assert run_gradcheck(10, DEFAULT_SEED).passed


PLASTICITY_MUTATIONS = [  # pattern, replacement
    pytest.param("hebb_scale = win.eta[0] / rows", "hebb_scale = win.eta[0] / (rows + 1)",
                 id="hebbian-step-one-row-too-many"),
    pytest.param("np.multiply(w2_old, decay, out=w2_new)", "np.copyto(w2_new, w2_old)",
                 id="w2-drops-decay"),
]


@pytest.mark.parametrize("pattern, replacement", PLASTICITY_MUTATIONS)
def test_plasticity_oracle_catches_the_window_mutation(monkeypatch, pattern, replacement):
    route_through(monkeypatch, mutant_window(pattern, replacement))
    worst, _flipped, _coverage = plasticity_oracle_trials()
    assert worst > ORACLE_TOL


def test_an_unmutated_copy_matches_the_plasticity_oracle(monkeypatch):
    route_through(monkeypatch, mutant_window("def backward(", "def backward("))
    worst, _flipped, _coverage = plasticity_oracle_trials()
    assert worst <= ORACLE_TOL
