"""Reverse-mode tape over the T-step, L-layer training window.

record_forward runs the full update schedule — per timestep: fused
input, membrane update, spike, Hebbian step for layers 1..L, then feedback
steps for layers L..1 — as a flat list of primitive nodes. It is the one
implementation of the W2/W3 rules that training runs. backward walks
the list in reverse, substituting the rectangular surrogate for the spike
derivative, and returns gradients for W1, the fusion coefficients, the
local-rule learnables eta/beta and the global fraction factors, keyed
like Network.named_parameters().

W2/W3 values entering the window are recorded as constants; gradients to
eta, beta, lambda_f, lambda_p flow only through the dependence of
later-timestep weights on updates recorded inside the window.

A tape caches parameter arrays by reference: consume it (backward)
before mutating the network it was recorded from.
"""

from __future__ import annotations

import numpy as np

from .network import Network
from .numerics import SIMPLEX_EPS, ShapeMismatchError, normalize_simplex


class TapeNode:
    __slots__ = ("nid", "op", "parents", "value", "aux", "grad", "requires", "tag")

    def __init__(self, nid, op, parents, value, aux, requires, tag):
        self.nid = nid
        self.op = op
        self.parents = parents
        self.value = value
        self.aux = aux
        self.grad = None
        self.requires = requires
        self.tag = tag

    def __repr__(self):
        return f"TapeNode({self.nid}, {self.op}, shape={np.shape(self.value)}, tag={self.tag!r})"


def _softmax_logp(o: np.ndarray) -> np.ndarray:
    shifted = o - o.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _op_forward(op: str, vals: list[np.ndarray], aux) -> np.ndarray:
    if op == "linear":
        w, s = vals
        return s @ w.T
    if op == "add":
        return vals[0] + vals[1]
    if op == "sub":
        return vals[0] - vals[1]
    if op == "scale":
        return vals[0] * vals[1]
    if op == "cscale":
        return aux["c"] * vals[0]
    if op == "cadd":
        return aux["c"] + vals[0]
    if op == "adds":
        return vals[0] + vals[1]
    if op == "sigmoid":
        return 1.0 / (1.0 + np.exp(-vals[0]))
    if op == "spike":
        if aux.get("identity"):
            return vals[0].copy()
        return (vals[0] >= aux["v_th"]).astype(np.float64)
    if op == "membrane":
        u_prev, s_prev, i_in = vals
        return aux["rho_m"] * (u_prev - s_prev * aux["v_th"]) + i_in
    if op == "outer_mean":
        p, s = vals
        return (p.T @ s) / p.shape[0]
    if op == "colsum":
        return vals[0].sum(axis=0)
    if op == "simplex":
        return normalize_simplex(vals[0])[0]
    if op == "row_scale":
        d, m = vals
        return d[:, None] * m
    if op == "softmax_xent":
        logp = _softmax_logp(vals[0])
        labels = aux["labels"]
        return np.asarray(-logp[np.arange(len(labels)), labels].mean())
    raise ValueError(f"unknown op {op!r}")


def _op_backward(node: TapeNode, vals: list[np.ndarray], g: np.ndarray, width_scale: float):
    op = node.op
    if op == "linear":
        w, s = vals
        return [g.T @ s, g @ w]
    if op == "add":
        return [g, g]
    if op == "sub":
        return [g, -g]
    if op == "scale":
        sv, av = vals
        return [np.asarray((g * av).sum()), sv * g]
    if op == "cscale":
        return [node.aux["c"] * g]
    if op == "cadd":
        return [g]
    if op == "adds":
        return [g, np.asarray(g.sum())]
    if op == "sigmoid":
        v = node.value
        return [g * v * (1.0 - v)]
    if op == "spike":
        if node.aux.get("identity"):
            return [g]
        a = node.aux["a"] * width_scale
        rect = (np.abs(vals[0] - node.aux["v_th"]) < a / 2.0) / a
        return [g * rect]
    if op == "membrane":
        rho, v_th = node.aux["rho_m"], node.aux["v_th"]
        return [rho * g, -rho * v_th * g, g]
    if op == "outer_mean":
        p, s = vals
        inv_b = 1.0 / p.shape[0]
        return [inv_b * (s @ g.T), inv_b * (p @ g)]
    if op == "colsum":
        return [np.broadcast_to(g, vals[0].shape)]
    if op == "simplex":
        x = vals[0]
        total = x.sum()
        if abs(total) < SIMPLEX_EPS:
            return [None]
        # d/dx_j of g . (x / sum x)  =  (g_j - g . y) / sum x
        return [(g - (g * node.value).sum()) / total]
    if op == "row_scale":
        d, m = vals
        return [(g * m).sum(axis=1), d[:, None] * g]
    if op == "softmax_xent":
        labels = node.aux["labels"]
        p = np.exp(_softmax_logp(vals[0]))
        p[np.arange(len(labels)), labels] -= 1.0
        return [p * (float(g) / len(labels))]
    raise ValueError(f"unknown op {op!r}")


class Tape:
    """Recorded forward pass: nodes in topological (execution) order."""

    def __init__(self):
        self.nodes: list[TapeNode] = []
        self.params: dict[str, TapeNode] = {}
        self.loss_node: TapeNode | None = None
        self.counts_node: TapeNode | None = None
        self.final_w2: list[TapeNode] = []
        self.final_w3: list[TapeNode] = []
        self._memo: dict[tuple, TapeNode] = {}

    def _push(self, op, parents, value, aux=None, requires=None, tag="") -> TapeNode:
        if requires is None:
            requires = any(p.requires for p in parents)
        node = TapeNode(len(self.nodes), op, tuple(parents), value, aux or {}, requires, tag)
        self.nodes.append(node)
        return node

    def leaf(self, name: str, value: np.ndarray) -> TapeNode:
        node = self._push("leaf", (), np.asarray(value, dtype=np.float64), requires=True, tag=name)
        self.params[name] = node
        return node

    def const(self, value: np.ndarray, tag="") -> TapeNode:
        return self._push("const", (), np.asarray(value, dtype=np.float64), requires=False, tag=tag)

    def apply(self, op, parents, aux=None, tag="", memo_key=None) -> TapeNode:
        if memo_key is not None and memo_key in self._memo:
            return self._memo[memo_key]
        value = _op_forward(op, [p.value for p in parents], aux or {})
        node = self._push(op, parents, value, aux, tag=tag)
        if memo_key is not None:
            self._memo[memo_key] = node
        return node

    @property
    def loss_value(self) -> float:
        return float(self.loss_node.value)


def record_forward(
    net: Network,
    x: np.ndarray,
    labels,
    t_steps: int,
    *,
    spike_identity: bool = False,
    events: list | None = None,
) -> tuple[Tape, np.ndarray]:
    """Record the full training window for one batch (or one item).

    x is [batch x input_dim] (a single 1-D item is promoted to batch 1);
    the Hebbian increments inside the window are batch means, which for
    batch size 1 is the per-item update schedule exactly. Returns the tape
    and the per-class output spike counts.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    labels = np.atleast_1d(np.asarray(labels, dtype=np.int64))
    if x.shape[1] != net.layers[0].fan_in:
        raise ShapeMismatchError(
            f"input dimension {x.shape[1]} does not match layer-1 fan_in {net.layers[0].fan_in}"
        )
    if x.shape[0] != labels.shape[0]:
        raise ShapeMismatchError("batch image/label count mismatch")

    lif = net.lif
    decay = net.sbp.decay(lif.dt)
    pure_increment = not net.sbp.delta_includes_decay
    batch = x.shape[0]
    n_layers = len(net.layers)
    spike_aux = {"v_th": lif.v_th, "a": lif.a, "identity": spike_identity}
    membrane_aux = {"rho_m": lif.rho_m, "v_th": lif.v_th}

    tape = Tape()
    x_node = tape.const(x, tag="input")
    lam_nodes, w1_nodes, eta_nodes, beta_nodes = [], [], [], []
    w2_cur, w3_cur = [], []
    u_prev, s_prev = [], []
    for idx, layer in enumerate(net.layers):
        w1_nodes.append(tape.leaf(f"layers.{idx}.w1", layer.w1))
        lam_nodes.append(
            [tape.leaf(f"layers.{idx}.lam.{i}", np.asarray(layer.lam[i])) for i in range(3)]
        )
        eta_nodes.append(tape.leaf(f"layers.{idx}.eta", layer.eta.copy()))
        beta_nodes.append(tape.leaf(f"layers.{idx}.beta", layer.beta.copy()))
        w2_cur.append(tape.const(layer.w2, tag=f"w2.in.{idx}"))
        w3_cur.append(tape.const(layer.w3, tag=f"w3.in.{idx}"))
        u_prev.append(tape.const(np.zeros((batch, layer.fan_out)), tag=f"u0.{idx}"))
        s_prev.append(tape.const(np.zeros((batch, layer.fan_out)), tag=f"s0.{idx}"))
    lf_node = tape.leaf("lambda_f", net.lambda_f.copy())
    lp_node = tape.leaf("lambda_p", net.lambda_p.copy())

    counts = None
    dw2 = [None] * n_layers
    for t in range(1, t_steps + 1):
        s_in = x_node
        for l in range(n_layers):
            if events is not None:
                events.append(("forward", t, l + 1))
            paths = []
            for w_node, lam_node in (
                (w1_nodes[l], lam_nodes[l][0]),
                (w2_cur[l], lam_nodes[l][1]),
                (w3_cur[l], lam_nodes[l][2]),
            ):
                drive = tape.apply(
                    "linear", (w_node, s_in), memo_key=("lin", w_node.nid, s_in.nid)
                )
                paths.append(
                    tape.apply(
                        "scale", (lam_node, drive), memo_key=("scl", lam_node.nid, drive.nid)
                    )
                )
            i_in = tape.apply("add", (tape.apply("add", (paths[0], paths[1])), paths[2]))
            u = tape.apply(
                "membrane", (u_prev[l], s_prev[l], i_in), aux=membrane_aux, tag=f"u[{t},{l+1}]"
            )
            s = tape.apply("spike", (u,), aux=spike_aux, tag=f"s[{t},{l+1}]")
            u_prev[l], s_prev[l] = u, s

            if events is not None:
                events.append(("hebbian", t, l + 1))
            post = tape.apply("adds", (tape.apply("sigmoid", (u,)), beta_nodes[l]))
            increment = tape.apply(
                "scale", (eta_nodes[l], tape.apply("outer_mean", (post, s_in)))
            )
            w2_new = tape.apply(
                "add",
                (tape.apply("cscale", (w2_cur[l],), aux={"c": decay}), increment),
                tag=f"w2[{t},{l+1}]",
            )
            dw2[l] = increment if pure_increment else tape.apply("sub", (w2_new, w2_cur[l]))
            w2_cur[l] = w2_new
            s_in = s

        for l in reversed(range(n_layers)):
            if events is not None:
                events.append(("sbp", t, l + 1))
            if l + 1 < n_layers:
                share = tape.apply("simplex", (tape.apply("colsum", (dw2[l + 1],)),))
                diag = tape.apply(
                    "scale",
                    (lf_node, tape.apply("cadd", (tape.apply("scale", (lp_node, share)),), aux={"c": 1.0})),
                )
                feedback = tape.apply("row_scale", (diag, dw2[l]))
            else:
                feedback = tape.apply("scale", (lf_node, dw2[l]))
            w3_cur[l] = tape.apply(
                "add",
                (tape.apply("cscale", (w3_cur[l],), aux={"c": decay}), feedback),
                tag=f"w3[{t},{l+1}]",
            )

        top = s_prev[n_layers - 1]
        counts = top if counts is None else tape.apply("add", (counts, top))

    tape.counts_node = counts
    tape.loss_node = tape.apply(
        "softmax_xent", (counts,), aux={"labels": labels}, tag="loss"
    )
    tape.final_w2 = list(w2_cur)
    tape.final_w3 = list(w3_cur)
    return tape, counts.value


def propagate(
    tape: Tape,
    loss_grad=1.0,
    *,
    seed: TapeNode | None = None,
    surrogate_width_scale: float = 1.0,
) -> None:
    """Reverse traversal from the loss (or an explicit seed node), filling
    node.grad along the way. Nodes not upstream of the seed keep None."""
    for node in tape.nodes:
        node.grad = None
    start = seed if seed is not None else tape.loss_node
    start.grad = np.asarray(loss_grad, dtype=np.float64)
    if start.grad.shape != np.shape(start.value):
        raise ShapeMismatchError("seed gradient shape must match the seed node value")

    for node in reversed(tape.nodes):
        if node.grad is None or node.op in ("leaf", "const") or not node.requires:
            continue
        vals = [p.value for p in node.parents]
        parent_grads = _op_backward(node, vals, node.grad, surrogate_width_scale)
        for parent, grad in zip(node.parents, parent_grads):
            if grad is None or not parent.requires:
                continue
            parent.grad = grad if parent.grad is None else parent.grad + grad


def backward(
    tape: Tape,
    loss_grad=1.0,
    *,
    seed: TapeNode | None = None,
    surrogate_width_scale: float = 1.0,
) -> dict[str, np.ndarray]:
    """Gradients of every learnable parameter recorded on the tape, keyed
    like Network.named_parameters().

    Parameters never touched downstream of the seed get zero gradients.
    surrogate_width_scale is a fault-injection hook for the gradcheck
    negative control; production callers leave it at 1.
    """
    propagate(tape, loss_grad, seed=seed, surrogate_width_scale=surrogate_width_scale)

    def grad_of(name: str) -> np.ndarray:
        node = tape.params[name]
        return np.zeros_like(node.value) if node.grad is None else node.grad

    grads: dict[str, np.ndarray] = {}
    for idx in range(len(tape.final_w2)):
        grads[f"layers.{idx}.w1"] = grad_of(f"layers.{idx}.w1")
        grads[f"layers.{idx}.lam"] = np.array(
            [float(grad_of(f"layers.{idx}.lam.{i}")) for i in range(3)]
        )
        grads[f"layers.{idx}.eta"] = grad_of(f"layers.{idx}.eta")
        grads[f"layers.{idx}.beta"] = grad_of(f"layers.{idx}.beta")
    grads["lambda_f"] = grad_of("lambda_f")
    grads["lambda_p"] = grad_of("lambda_p")
    return grads
