"""Backward-vs-oracle agreement harness over random small networks."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .network import Network, init_network
from .neuron import LifConfig
from .numerics import make_rng
from .plasticity import SbpParams
from .reference_grad import reference_gradients
from .tape import backward, record_forward

REL_TOL = 1e-6
# gradients whose magnitude never exceeds this are compared absolutely
ZERO_FLOOR = 1e-12


@dataclass
class GradcheckResult:
    trials: int
    worst_param: str = ""
    worst_err: float = 0.0
    worst_seed: int = -1
    failures: list[tuple[int, str, float]] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures


def group_error(a: np.ndarray, b: np.ndarray) -> float:
    """Max relative disagreement; entries tiny on both sides must agree
    within ZERO_FLOOR absolutely and then count as zero error."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    scale = np.maximum(np.abs(a), np.abs(b))
    diff = np.abs(a - b)
    live = scale > ZERO_FLOOR
    if np.any(~live) and diff[~live].size and diff[~live].max() > ZERO_FLOOR:
        return float("inf")
    if not np.any(live):
        return 0.0
    return float((diff[live] / scale[live]).max())


def random_trial_net(seed: int, t_steps: int = 3) -> tuple[Network, np.ndarray, int]:
    """A 2-layer network small enough for the per-parameter oracle, with
    weights scaled so membrane potentials land inside the surrogate window."""
    rng = make_rng(seed)
    n_in = int(rng.integers(3, 7))
    n_hidden = int(rng.integers(2, 9))
    n_out = int(rng.integers(2, 9))
    lif = LifConfig(v_th=0.3, rho_m=0.5, a=1.0, dt=1.0)
    sbp = SbpParams(
        lambda_f=float(rng.uniform(0.2, 0.9)),
        lambda_p=float(rng.uniform(0.2, 0.9)),
        tau_w=float(rng.uniform(5.0, 80.0)),
    )
    net = init_network([n_in, n_hidden, n_out], int(rng.integers(1 << 31)), lif, sbp)
    for layer in net.layers:
        layer.lam = rng.uniform(0.15, 0.5, size=3)
        layer.eta = np.array(float(rng.uniform(0.005, 0.05)))
        layer.beta = np.array(float(rng.uniform(-0.2, 0.2)))
    x = rng.uniform(0.0, 1.0, size=n_in)
    label = int(rng.integers(n_out))
    return net, x, label


def run_gradcheck(
    trials: int,
    seed: int,
    *,
    t_steps: int = 3,
    surrogate_width_scale: float = 1.0,
) -> GradcheckResult:
    if trials < 1:
        raise ValueError("trials must be >= 1")
    result = GradcheckResult(trials=trials)
    for k in range(trials):
        trial_seed = seed + k
        net, x, label = random_trial_net(trial_seed, t_steps)
        tape, _counts = record_forward(net, x, label, t_steps)
        got = backward(tape, surrogate_width_scale=surrogate_width_scale)
        want = reference_gradients(net, x, label, t_steps)
        for name in got:
            err = group_error(got[name], want[name])
            if err > result.worst_err:
                result.worst_err = err
                result.worst_param = name
                result.worst_seed = trial_seed
            if err > REL_TOL:
                result.failures.append((trial_seed, name, err))
    return result
