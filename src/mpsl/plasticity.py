"""Plasticity constants, the three-pathway layer, and the deployment-time merge.

W2 follows a decaying Hebbian rule pairing presynaptic spikes with a
sigmoid of the postsynaptic potential. W3 follows a local feedback rule:
the next layer's Hebbian increment, column-summed and normalized, scales
the rows of this layer's increment. Both matrices persist across batches;
the exponential decay makes stale contributions vanish.

The W2/W3 rules themselves live only in window.record_forward, the window
that training runs. reference_grad.py and tests/oracles.py restate them
independently as the checks on that window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import ShapeMismatchError


@dataclass
class SbpParams:
    """Local-rule constants.

    lambda_f, lambda_p: fraction factors, valid range [0.1, 1] (enforced by
    validate(); the trainer re-projects them there after every step).
    tau_w: decay time constant shared by the W2 and W3 recurrences.
    The feedback rule receives W2's full step W2_new - W2_old, its decay
    included.
    """

    lambda_f: float = 0.5
    lambda_p: float = 0.5
    tau_w: float = 40.0

    def validate(self) -> None:
        if not 0.1 <= self.lambda_f <= 1.0:
            raise ValueError(f"lambda_f must be in [0.1, 1], got {self.lambda_f}")
        if not 0.1 <= self.lambda_p <= 1.0:
            raise ValueError(f"lambda_p must be in [0.1, 1], got {self.lambda_p}")
        if self.tau_w <= 0.0:
            raise ValueError(f"tau_w must be positive, got {self.tau_w}")

    def decay(self, dt: float) -> float:
        return math.exp(-dt / self.tau_w)


@dataclass
class MultiPathLayer:
    """One layer's three pathway matrices plus its per-layer learnables.

    w1, w2, w3 all have shape [fan_out x fan_in]. lam holds the three
    fusion coefficients. eta (local learning rate) and beta (sliding
    threshold) are 0-d arrays so the optimizer can update them in place.
    """

    w1: np.ndarray
    w2: np.ndarray
    w3: np.ndarray
    lam: np.ndarray
    eta: np.ndarray
    beta: np.ndarray

    def __post_init__(self):
        if not (self.w1.shape == self.w2.shape == self.w3.shape):
            raise ShapeMismatchError(
                f"pathway shapes differ: {self.w1.shape}, {self.w2.shape}, {self.w3.shape}"
            )
        if self.lam.shape != (3,):
            raise ShapeMismatchError(f"lam must have shape (3,), got {self.lam.shape}")

    @property
    def fan_in(self) -> int:
        return self.w1.shape[1]

    @property
    def fan_out(self) -> int:
        return self.w1.shape[0]


def merge_weights(layer: MultiPathLayer) -> np.ndarray:
    """Collapse the three pathways into one deployable matrix: sum_i lam_i * W_i."""
    return layer.lam[0] * layer.w1 + layer.lam[1] * layer.w2 + layer.lam[2] * layer.w3
