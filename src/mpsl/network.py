"""Network container, parameter initialization, and frozen-weight inference."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .neuron import LifConfig, fused_input, membrane_step, spike
from .numerics import kaiming_uniform_init, make_rng
from .plasticity import MultiPathLayer, SbpParams, merge_weights

# Initial values of each layer's learnables; TrainConfig's defaults are these.
ETA_INIT = 0.01
LAMBDA_INIT = (1 / 3, 1 / 3, 1 / 3)
# Centers the bounded nonlinearity: sigmoid(0) + beta = 0, so the Hebbian
# pathway has no weight drift at the resting potential. With beta = 0 the
# layer-1 recurrence grows all-positive until every membrane sits above the
# surrogate window and training stalls.
BETA_INIT = -0.5
LOCAL_PATH_INIT_SCALE = 0.1


@dataclass
class Network:
    layers: list[MultiPathLayer]
    lambda_f: np.ndarray  # 0-d, shared across layers
    lambda_p: np.ndarray  # 0-d
    lif: LifConfig
    sbp: SbpParams

    @property
    def layer_sizes(self) -> list[int]:
        return [self.layers[0].fan_in] + [layer.fan_out for layer in self.layers]

    @property
    def num_classes(self) -> int:
        return self.layers[-1].fan_out

    def named_parameters(self) -> dict[str, np.ndarray]:
        """Gradient-updated parameters, keyed by checkpoint entry name."""
        params: dict[str, np.ndarray] = {}
        for idx, layer in enumerate(self.layers):
            params[f"layers.{idx}.w1"] = layer.w1
            params[f"layers.{idx}.lam"] = layer.lam
            params[f"layers.{idx}.eta"] = layer.eta
            params[f"layers.{idx}.beta"] = layer.beta
        params["lambda_f"] = self.lambda_f
        params["lambda_p"] = self.lambda_p
        return params

    def named_state(self) -> dict[str, np.ndarray]:
        """named_parameters() plus each layer's W2/W3: everything a
        checkpoint holds of the network."""
        state = self.named_parameters()
        for idx, layer in enumerate(self.layers):
            state[f"layers.{idx}.w2"] = layer.w2
            state[f"layers.{idx}.w3"] = layer.w3
        return state


def init_network(
    layer_sizes: list[int],
    seed: int,
    lif: LifConfig,
    sbp: SbpParams,
    lambda_init: tuple[float, float, float] = LAMBDA_INIT,
    eta_init: float = ETA_INIT,
    beta_init: float = BETA_INIT,
) -> Network:
    """Build a fresh network. W1 gets kaiming-uniform init; the local-rule
    pathways W2/W3 start at a tenth of that scale (their recurrences then
    take over).
    """
    if len(layer_sizes) < 2:
        raise ValueError("layer_sizes needs at least an input and an output size")
    rng = make_rng(seed)
    layers = []
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        layers.append(
            MultiPathLayer(
                w1=kaiming_uniform_init(rng, fan_in, fan_out, fan_in),
                w2=LOCAL_PATH_INIT_SCALE * kaiming_uniform_init(rng, fan_in, fan_out, fan_in),
                w3=LOCAL_PATH_INIT_SCALE * kaiming_uniform_init(rng, fan_in, fan_out, fan_in),
                lam=np.array(lambda_init, dtype=np.float64),
                eta=np.array(eta_init, dtype=np.float64),
                beta=np.array(beta_init, dtype=np.float64),
            )
        )
    return Network(
        layers=layers,
        lambda_f=np.array(sbp.lambda_f, dtype=np.float64),
        lambda_p=np.array(sbp.lambda_p, dtype=np.float64),
        lif=lif,
        sbp=sbp,
    )


def forward_inference(
    net: Network, x: np.ndarray, t_steps: int, merged: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Frozen-weight forward over the window; no plasticity updates.

    x is [batch x input_dim]; the input drives layer 1 at every timestep.
    Returns (per-class spike counts [batch x classes],
             penultimate-layer membrane potentials at the final timestep).
    When merged=True each layer uses its single collapsed matrix, otherwise
    the three pathways are evaluated separately.

    Layer 1's drive is computed once and read at every step. This is exact:
    x and the frozen weights do not change between steps, so one product
    has the bytes that a product at every step would, and membrane_step
    reads the drive without writing to it. The LIF step writes into arrays
    made once per call.
    """
    batch = x.shape[0]
    lif = net.lif
    merged_w = [merge_weights(layer) for layer in net.layers] if merged else None
    drive_in = x @ merged_w[0].T if merged else fused_input(net.layers[0], x)
    shapes = [(batch, layer.fan_out) for layer in net.layers]
    u = [np.zeros(shape) for shape in shapes]
    u_next = [np.empty(shape) for shape in shapes]  # the next step's potentials
    s = [np.zeros(shape) for shape in shapes]
    drive = [drive_in] + [np.empty(shape) for shape in shapes[1:]]
    counts = np.zeros((batch, net.num_classes))
    for _t in range(t_steps):
        for idx, layer in enumerate(net.layers):
            if idx and merged:
                np.matmul(s[idx - 1], merged_w[idx].T, out=drive[idx])
            elif idx:
                drive[idx] = fused_input(layer, s[idx - 1])
            u_new = membrane_step(u[idx], s[idx], drive[idx], lif, out=u_next[idx])
            u_next[idx], u[idx] = u[idx], u_new
            spike(u_new, lif, out=s[idx])
        counts += s[-1]
    penultimate_u = u[-2] if len(net.layers) >= 2 else u[-1]
    return counts, penultimate_u
