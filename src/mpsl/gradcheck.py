"""Agreement of the training step's gradients (trainer.step_gradients) with
the forward-tangent oracle (reference_grad.py) over random small networks."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .network import Network, init_network
from .neuron import LifConfig
from .numerics import make_rng
from .plasticity import SbpParams
from .reference_grad import reference_gradients
from .trainer import step_gradients

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


def scaled_net(rng: np.random.Generator, sizes: list[int]) -> Network:
    """A network small enough for the per-parameter oracle, with weights
    scaled so membrane potentials land inside the surrogate window."""
    lif = LifConfig(v_th=0.3, rho_m=0.5, a=1.0, dt=1.0)
    sbp = SbpParams(
        lambda_f=float(rng.uniform(0.2, 0.9)),
        lambda_p=float(rng.uniform(0.2, 0.9)),
        tau_w=float(rng.uniform(5.0, 80.0)),
    )
    net = init_network(sizes, int(rng.integers(1 << 31)), lif, sbp)
    for layer in net.layers:
        layer.lam = rng.uniform(0.15, 0.5, size=3)
        layer.eta = np.array(float(rng.uniform(0.005, 0.05)))
        layer.beta = np.array(float(rng.uniform(-0.2, 0.2)))
    return net


# (per item, live input, fewest items) of consecutive trials, in turn
_KINDS = ((False, True, 1), (True, True, 3), (False, True, 2), (True, True, 1),
          (False, False, 1))


def random_trial(seed: int) -> tuple[Network, np.ndarray, np.ndarray, int, bool]:
    """One gradcheck trial (net, x, labels, t_steps, per_item) at the shapes
    training runs. Consecutive seeds take the kinds of _KINDS in turn, and T
    1-4 over depths 2 and 3 in turn, so any 40 consecutive seeds hold every
    kind at every (depth, T); the remaining draws are random. Every five
    trials hold a silent input and a per-item step over 3 or more live
    items, whose third item starts from the W2/W3 two items carried."""
    per_item, live, fewest = _KINDS[seed % len(_KINDS)]
    depth, t_steps = 2 + seed // 4 % 2, 1 + seed % 4
    rng = make_rng(seed)
    batch = int(rng.integers(fewest, 5))
    sizes = [int(rng.integers(3, 7))] + [int(v) for v in rng.integers(2, 9, size=depth)]
    net = scaled_net(rng, sizes)
    x = rng.uniform(0.0, 1.0, size=(batch, sizes[0])) if live else np.zeros((batch, sizes[0]))
    labels = rng.integers(sizes[-1], size=batch)
    return net, x, labels, t_steps, per_item


def run_gradcheck(trials: int, seed: int, *, surrogate_width_scale: float = 1.0) -> GradcheckResult:
    if trials < 1:
        raise ValueError("trials must be >= 1")
    result = GradcheckResult(trials=trials)
    for k in range(trials):
        trial_seed = seed + k
        net, x, labels, t_steps, per_item = random_trial(trial_seed)
        want = reference_gradients(net, x, labels, t_steps, per_item=per_item)
        _loss, got, _counts = step_gradients(net, x, labels, t_steps, per_item,
                                             surrogate_width_scale=surrogate_width_scale)
        for name in got:
            err = group_error(got[name], want[name])
            if err > result.worst_err:
                result.worst_err = err
                result.worst_param = name
                result.worst_seed = trial_seed
            if err > REL_TOL:
                result.failures.append((trial_seed, name, err))
    return result
