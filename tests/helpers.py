"""Shared test helpers: a zero-weight network, a small random network with
one item, one window's full gradients, the expected event schedule of one
training batch, and metrics files without their wall-clock column."""

from pathlib import Path

from mpsl.gradcheck import scaled_net
from mpsl.network import init_network
from mpsl.numerics import make_rng
from mpsl.window import backward


def zero_network(layer_sizes, lif, sbp):
    """A freshly built network with all three pathways zeroed."""
    net = init_network(layer_sizes, seed=0, lif=lif, sbp=sbp)
    for layer in net.layers:
        for w in (layer.w1, layer.w2, layer.w3):
            w[...] = 0.0
    return net


def random_trial_net(seed: int):
    """A 2-layer gradcheck-sized network with one input item and its label."""
    rng = make_rng(seed)
    sizes = [int(rng.integers(3, 7)), int(rng.integers(2, 9)), int(rng.integers(2, 9))]
    net = scaled_net(rng, sizes)
    x = rng.uniform(0.0, 1.0, size=sizes[0])
    return net, x, int(rng.integers(sizes[-1]))


def window_gradients(window):
    """A one-group window's gradients, keyed like Network.named_parameters()."""
    (grads,), w1_grads = backward(window)
    return {**grads, **w1_grads}


def canonical_batch_events(t_steps: int, n_layers: int, groups: int) -> list[tuple]:
    """The events of one training batch whose window runs its items as
    `groups` groups in turn (1 for a batched step, one per item for a
    per-item step): per group and timestep, forward and Hebbian through
    layers 1..L, then feedback through L..1; one gradient step closes the
    batch."""
    events: list[tuple] = []
    for _ in range(groups):
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
