"""Seeded RNG, weight initialization, and the feedback rule's normalization.

Everything is float64. The other modules do their array work in numpy
directly; this module holds only what several of them share: the RNG
constructor, the shape-error type, Kaiming init, and the simplex
normalization (with its degenerate-sum convention) that the recorded
window applies to the feedback rule's column totals.
"""

from __future__ import annotations

import numpy as np

# Below this, the sum in normalize_simplex counts as zero and the result
# degenerates to the all-zeros vector instead of dividing.
SIMPLEX_EPS = 1e-8


class ShapeMismatchError(ValueError):
    """Operand dimensions are incompatible. Fatal configuration error."""


def make_rng(seed: int) -> np.random.Generator:
    """Seeded PCG64 generator; same seed gives the same stream everywhere."""
    return np.random.Generator(np.random.PCG64(seed))


def normalize_simplex(x: np.ndarray) -> tuple[np.ndarray, bool]:
    """Divide a vector by the sum of its entries.

    Returns (normalized, degenerate). When |sum| < SIMPLEX_EPS the division
    is undefined; the result is the all-zeros vector and degenerate=True so
    callers can treat it as a neutral (no-modulation) signal.
    """
    s = x.sum()
    if abs(s) < SIMPLEX_EPS:
        return np.zeros_like(x), True
    return x / s, False


def kaiming_uniform_init(
    rng: np.random.Generator, fan_in: int, rows: int, cols: int
) -> np.ndarray:
    """Entries i.i.d. uniform on [-sqrt(6/fan_in), +sqrt(6/fan_in)]."""
    if fan_in <= 0:
        raise ValueError(f"fan_in must be positive, got {fan_in}")
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=(rows, cols))
