"""LIF membrane dynamics, spiking, and the fused three-pathway input.

Functions accept a 1-D state vector or a 2-D [batch x units] array; the
math is elementwise either way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import ShapeMismatchError


@dataclass(frozen=True)
class LifConfig:
    """Neuron constants shared by every layer.

    v_th:  firing threshold (spike when U >= v_th, ties fire)
    rho_m: membrane decay factor in (0, 1]
    a:     width of the rectangular surrogate window
    dt:    simulation step length
    """

    v_th: float = 0.3
    rho_m: float = 0.5
    a: float = 1.0
    dt: float = 1.0

    def validate(self) -> None:
        if not 0.0 < self.rho_m <= 1.0:
            raise ValueError(f"rho_m must be in (0, 1], got {self.rho_m}")
        if self.v_th <= 0.0:
            raise ValueError(f"v_th must be positive, got {self.v_th}")
        if self.a <= 0.0:
            raise ValueError(f"surrogate width a must be positive, got {self.a}")
        if self.dt <= 0.0:
            raise ValueError(f"dt must be positive, got {self.dt}")


def spike(u: np.ndarray, cfg: LifConfig, out: np.ndarray | None = None) -> np.ndarray:
    """Binary spike train: 1.0 where U >= v_th, else 0.0 (into out if given)."""
    return np.greater_equal(u, cfg.v_th, out=np.empty(u.shape) if out is None else out)


def membrane_step(
    u_prev: np.ndarray, s_prev: np.ndarray, i_in: np.ndarray, cfg: LifConfig,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Leaky soft-reset update: U = rho_m * (U_prev - S_prev * v_th) + I,
    one ufunc at a time inside out (a new array if None), which must not
    share memory with u_prev or i_in."""
    if not (u_prev.shape == s_prev.shape == i_in.shape):
        raise ShapeMismatchError(
            f"membrane_step: mismatched shapes {u_prev.shape}, {s_prev.shape}, {i_in.shape}"
        )
    out = np.empty(i_in.shape) if out is None else out
    np.multiply(s_prev, cfg.v_th, out=out)
    np.subtract(u_prev, out, out=out)
    np.multiply(cfg.rho_m, out, out=out)
    return np.add(out, i_in, out=out)


def fused_input(layer, s_prev: np.ndarray):
    """Sum of the three weighted pathways: I = sum_i lam_i * (W_i @ s_prev).

    s_prev may be a vector of length fan_in or a [batch x fan_in] array.
    """
    if s_prev.shape[-1] != layer.fan_in:
        raise ShapeMismatchError(
            f"fused_input: layer expects fan_in={layer.fan_in}, got {s_prev.shape[-1]}"
        )
    lam = layer.lam
    return (
        lam[0] * (s_prev @ layer.w1.T)
        + lam[1] * (s_prev @ layer.w2.T)
        + lam[2] * (s_prev @ layer.w3.T)
    )
