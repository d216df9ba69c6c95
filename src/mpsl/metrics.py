"""Machine-readable metrics: one fixed, versioned CSV schema for every
command. Files are written atomically and are byte-identical across
re-runs except for the trailing wall-clock column.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .checkpoint import atomic_write

HEADER_COMMENT = "# mpsl-metrics v1"
COLUMNS = (
    "run_id", "command", "variant", "epoch_or_level", "split",
    "loss", "accuracy", "accuracy_sd", "lambda_values", "seed",
    "wall_clock_s",
)


@dataclass
class MetricsRow:
    run_id: str
    command: str
    variant: str          # lambda mode for training rows, corruption kind for sweeps
    epoch_or_level: str
    split: str
    loss: float
    accuracy: float
    accuracy_sd: float
    lambda_values: str
    seed: int
    wall_clock_s: float

    def as_csv(self) -> str:
        return ",".join(
            (
                self.run_id, self.command, self.variant, self.epoch_or_level,
                self.split, repr(float(self.loss)), repr(float(self.accuracy)),
                repr(float(self.accuracy_sd)), self.lambda_values,
                str(self.seed), repr(float(self.wall_clock_s)),
            )
        )


def format_lambdas(layer_lams) -> str:
    """Per-layer 'a|b|c' groups joined by ';' (no commas: CSV-safe)."""
    return ";".join("|".join(repr(float(v)) for v in lam) for lam in layer_lams)


def write_metrics_csv(path, rows: list[MetricsRow]) -> None:
    body = "\n".join(
        [HEADER_COMMENT, ",".join(COLUMNS)] + [row.as_csv() for row in rows]
    ) + "\n"
    atomic_write(path, body.encode("utf-8"))


def read_metrics(path) -> tuple[str, list[dict]]:
    """Parse a metrics file back into dict rows (values kept as strings)."""
    lines = Path(path).read_text().splitlines()
    if not lines or not lines[0].startswith("#"):
        raise ValueError(f"{path}: missing schema header comment")
    header = lines[0]
    names = lines[1].split(",")
    rows = [dict(zip(names, line.split(","))) for line in lines[2:] if line]
    return header, rows

