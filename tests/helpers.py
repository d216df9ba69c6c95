"""Shared test helpers: a zero-weight network, the expected event schedule
of one training batch, and metrics files without their wall-clock column."""

from pathlib import Path

from mpsl.network import init_network


def zero_network(layer_sizes, lif, sbp):
    """A freshly built network with all three pathways zeroed."""
    net = init_network(layer_sizes, seed=0, lif=lif, sbp=sbp)
    for layer in net.layers:
        for w in (layer.w1, layer.w2, layer.w3):
            w[...] = 0.0
    return net


def canonical_batch_events(t_steps: int, n_layers: int) -> list[tuple]:
    """Per timestep: forward and Hebbian through layers 1..L, then feedback
    through L..1; one gradient step closes the batch."""
    events: list[tuple] = []
    for t in range(1, t_steps + 1):
        for l in range(1, n_layers + 1):
            events.append(("forward", t, l))
            events.append(("hebbian", t, l))
        for l in range(n_layers, 0, -1):
            events.append(("sbp", t, l))
    events.append(("grad-step",))
    return events


def strip_wall_clock(path) -> str:
    """File contents with the wall-clock column removed, for byte-level
    determinism comparisons."""
    out = []
    for line in Path(path).read_text().splitlines():
        if line.startswith("#"):
            out.append(line)
        else:
            out.append(line.rsplit(",", 1)[0])
    return "\n".join(out)
