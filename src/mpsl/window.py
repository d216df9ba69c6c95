"""The training window: one forward over the fixed T-step, L-layer schedule
— per timestep: fused input, membrane update, spike and Hebbian step for
layers 1..L, then feedback steps for layers L..1 — and its hand-written
reverse.

record_forward is the one implementation of the W2/W3 rules that training
runs, and keeps only what backward reads. backward substitutes
the rectangular surrogate for the spike derivative and returns gradients
for W1, the fusion coefficients, the local-rule learnables eta/beta and the
global fraction factors, keyed like Network.named_parameters().

W2/W3 entering the window are constants; gradients reach eta, beta,
lambda_f and lambda_p only through the dependence of later timesteps'
weights on updates made inside the window.

Reproducibility contract: every value is one fixed numpy expression, and a
gradient with several terms sums them in one fixed order, named where it is
built. Training trajectories, and with them the byte-identical re-runs and
recorded losses, depend on that arithmetic; a merged sum_i lam_i W_i drive,
<g, W> fusion-coefficient gradients or factored increments would change it.

The large per-step arrays live in a workspace that a window owns while it
is alive and that later windows of the same shape reuse.
"""

from __future__ import annotations

import weakref

import numpy as np

from .network import Network
from .numerics import ShapeMismatchError, normalize_simplex

# Spare workspaces by window shape. A window writes every workspace value it
# reads, so reuse carries nothing between windows. Two shapes are kept: a
# full batch and a short last batch.
_SPARE_SHAPES = 2
_spare: dict[tuple, list[_Buffers]] = {}


def softmax_xent(scores: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean softmax cross-entropy of [batch x classes] scores, and the
    log-probabilities it was computed from."""
    shifted = scores - scores.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return float(-logp[np.arange(len(labels)), labels].mean()), logp


class _Buffers:
    """One layer's arrays for one window shape: the forward values that the
    reverse reads, indexed by timestep, and the reverse's scratch matrices."""

    def __init__(self, batch: int, t_steps: int, fan_in: int, fan_out: int):
        units = (t_steps, batch, fan_out)
        mat = (fan_out, fan_in)
        self.u = np.empty(units)
        self.s = np.empty(units)
        self.sig = np.empty(units)
        self.post = np.empty(units)
        self.drive = np.empty((t_steps, 3, batch, fan_out))  # x_in @ W_k.T per pathway
        self.w2 = np.empty((t_steps - 1, *mat))  # W2 / W3 leaving steps 1..T-1
        self.w3 = np.empty((t_steps - 1, *mat))
        self.om = np.empty((t_steps, *mat))  # batch-mean Hebbian correlation
        self.dw2 = np.empty((t_steps, *mat))  # increment handed to the feedback rule
        # feedback modulation diag = lambda_f * lift, lift = 1 + lambda_p * share
        self.share = np.empty((t_steps, fan_out))
        self.lift = np.empty((t_steps, fan_out))
        self.diag = np.empty((t_steps, fan_out))
        self.total = np.empty(t_steps)
        self.degenerate = np.empty(t_steps, dtype=bool)
        self.g_w2 = np.empty((2, *mat))  # reverse: W2/W3 leaving steps t and t-1
        self.g_w3 = np.empty((2, *mat))
        self.g_dw2 = np.empty(mat)
        self.g_om = np.empty(mat)
        self.tmp = np.empty(mat)


def _release(key: tuple, bufs: list[_Buffers]) -> None:
    _spare.pop(key, None)
    _spare[key] = bufs
    while len(_spare) > _SPARE_SHAPES:
        del _spare[next(iter(_spare))]


class Window:
    """A recorded training window.

    loss_value, counts ([batch x classes] output spike counts) and
    final_w2/final_w3 (per layer) are the forward's results, in arrays of
    their own. u and s hold each layer's membrane potentials and spikes as
    [T x batch x units] arrays. W1 and the W2/W3 entering the window are
    held by reference: reverse the window before changing them in place.
    """

    def __init__(self, net: Network, x: np.ndarray, labels: np.ndarray, t_steps: int,
                 spike_identity: bool, bufs: list[_Buffers]):
        layers = net.layers
        self.x, self.labels, self.t_steps, self.bufs = x, labels, t_steps, bufs
        self.spike_identity = spike_identity
        self.lif = net.lif
        self.decay = net.sbp.decay(net.lif.dt)
        self.pure_increment = not net.sbp.delta_includes_decay
        self.w1 = [layer.w1 for layer in layers]
        self.lam = [layer.lam.copy() for layer in layers]
        self.eta = [float(layer.eta) for layer in layers]
        self.beta = [float(layer.beta) for layer in layers]
        self.lambda_f, self.lambda_p = float(net.lambda_f), float(net.lambda_p)
        # W2/W3 entering step t (from 0) at index t; index T is the final value
        self.w2 = [[layer.w2, *b.w2, np.empty_like(layer.w2)] for layer, b in zip(layers, bufs)]
        self.w3 = [[layer.w3, *b.w3, np.empty_like(layer.w3)] for layer, b in zip(layers, bufs)]
        self.final_w2 = [w[-1] for w in self.w2]
        self.final_w3 = [w[-1] for w in self.w3]
        self.u = [b.u for b in bufs]
        self.s = [b.s for b in bufs]
        self.counts = self.logp = None
        self.loss_value = float("nan")


def record_forward(
    net: Network,
    x: np.ndarray,
    labels,
    t_steps: int,
    *,
    spike_identity: bool = False,
    events: list | None = None,
) -> tuple[Window, np.ndarray]:
    """Record the full training window for one batch (or one item).

    x is [batch x input_dim] (a single 1-D item is promoted to batch 1);
    the Hebbian increments inside the window are batch means, which for
    batch size 1 is the per-item update schedule exactly. Returns the window
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

    batch = x.shape[0]
    key = (batch, t_steps, tuple(net.layer_sizes))
    bufs = _spare.pop(key, None) or [
        _Buffers(batch, t_steps, layer.fan_in, layer.fan_out) for layer in net.layers
    ]
    win = Window(net, x, labels, t_steps, spike_identity, bufs)
    weakref.finalize(win, _release, key, bufs)

    rho, v_th = net.lif.rho_m, net.lif.v_th
    decay, lf, lp = win.decay, win.lambda_f, win.lambda_p
    n_layers = len(bufs)
    counts = None
    for t in range(t_steps):
        s_in = x
        for l, b in enumerate(bufs):
            if events is not None:
                events.append(("forward", t + 1, l + 1))
            lam, d = win.lam[l], b.drive[t]
            if l == 0 and t > 0:
                d1 = b.drive[0, 0]  # x is the same at every step
            else:
                d1 = np.matmul(s_in, win.w1[l].T, out=d[0])
            np.matmul(s_in, win.w2[l][t].T, out=d[1])
            np.matmul(s_in, win.w3[l][t].T, out=d[2])
            i_in = lam[0] * d1 + lam[1] * d[1]
            i_in += lam[2] * d[2]
            if t == 0:
                u_prev = s_prev = np.zeros_like(i_in)
            else:
                u_prev, s_prev = b.u[t - 1], b.s[t - 1]
            u = np.add(rho * (u_prev - s_prev * v_th), i_in, out=b.u[t])
            b.s[t] = u if spike_identity else u >= v_th

            if events is not None:
                events.append(("hebbian", t + 1, l + 1))
            b.sig[t] = 1.0 / (1.0 + np.exp(-u))
            np.add(b.sig[t], win.beta[l], out=b.post[t])
            om = np.matmul(b.post[t].T, s_in, out=b.om[t])
            om /= batch
            inc = np.multiply(om, win.eta[l], out=b.dw2[t] if win.pure_increment else b.tmp)
            w2_old, w2_new = win.w2[l][t], win.w2[l][t + 1]
            np.multiply(w2_old, decay, out=w2_new)
            w2_new += inc
            if not win.pure_increment:
                np.subtract(w2_new, w2_old, out=b.dw2[t])
            s_in = b.s[t]

        for l in reversed(range(n_layers)):
            if events is not None:
                events.append(("sbp", t + 1, l + 1))
            b = bufs[l]
            if l + 1 < n_layers:
                col = bufs[l + 1].dw2[t].sum(axis=0)
                b.share[t], b.degenerate[t] = normalize_simplex(col)
                b.total[t] = col.sum()
                b.lift[t] = 1.0 + lp * b.share[t]
                b.diag[t] = lf * b.lift[t]
                feedback = np.multiply(b.diag[t][:, None], b.dw2[t], out=b.tmp)
            else:
                feedback = np.multiply(b.dw2[t], lf, out=b.tmp)
            w3_new = np.multiply(win.w3[l][t], decay, out=win.w3[l][t + 1])
            w3_new += feedback

        top = bufs[-1].s[t]
        if counts is None:
            counts = top.copy()
        else:
            counts += top

    win.counts = counts
    win.loss_value, win.logp = softmax_xent(counts, labels)
    return win, counts


def _plus(total, term):
    return term if total is None else total + term


def backward(win: Window, *, surrogate_width_scale: float = 1.0) -> dict[str, np.ndarray]:
    """Loss gradients of every learnable parameter, keyed like
    Network.named_parameters(); a parameter the loss does not reach gets
    zeros. The window is left as it was, so it can be reversed again.

    surrogate_width_scale is a fault-injection hook for the gradcheck
    negative control; production callers leave it at 1.
    """
    bufs, x, t_steps = win.bufs, win.x, win.t_steps
    n_layers = len(bufs)
    rho, v_th = win.lif.rho_m, win.lif.v_th
    a = win.lif.a * surrogate_width_scale
    decay, lf, lp = win.decay, win.lambda_f, win.lambda_p
    pure = win.pure_increment
    inv_b = 1.0 / x.shape[0]

    p = np.exp(win.logp)
    p[np.arange(len(win.labels)), win.labels] -= 1.0
    g_counts = p * (1.0 / len(win.labels))

    g_w1 = [None] * n_layers
    g_lam = [[None] * 3 for _ in range(n_layers)]
    g_eta, g_beta = [None] * n_layers, [None] * n_layers
    g_lf = g_lp = None
    g_drive0 = None  # layer 1's W1 drive, computed once, summed over t = T..1
    g_u_next = [None] * n_layers  # membrane potentials of step t+1

    def reset_term(l):  # spikes of step t through the soft reset of step t+1
        return None if g_u_next[l] is None else (-rho * v_th) * g_u_next[l]

    # gradient buffers of W2/W3 leaving step t (index cur) and step t-1
    cur = 0
    for t in reversed(range(t_steps)):
        prev = 1 - cur
        # W2/W3 leaving the last step never reach the loss
        plastic = t < t_steps - 1
        g_dw2 = [None] * n_layers
        g_col = [None] * n_layers  # through layer l-1's normalized column totals
        if plastic:
            # feedback steps, layers 1..L
            for l, b in enumerate(bufs):
                g_fb = b.g_w3[cur]
                gd = b.g_dw2
                if l + 1 < n_layers:
                    g_diag = np.multiply(g_fb, b.dw2[t], out=b.tmp).sum(axis=1)
                    np.multiply(g_fb, b.diag[t][:, None], out=gd)
                    g_lf = _plus(g_lf, float((g_diag * b.lift[t]).sum()))
                    g_lift = lf * g_diag
                    g_lp = _plus(g_lp, float((g_lift * b.share[t]).sum()))
                    if not b.degenerate[t]:
                        g_share = lp * g_lift
                        g_col[l + 1] = (g_share - (g_share * b.share[t]).sum()) / b.total[t]
                else:
                    g_lf = _plus(g_lf, float(np.multiply(g_fb, b.dw2[t], out=b.tmp).sum()))
                    np.multiply(g_fb, lf, out=gd)
                if g_col[l] is not None:
                    gd += g_col[l]
                g_dw2[l] = gd
                if t > 0:
                    np.multiply(g_fb, decay, out=b.g_w3[prev])

        g_s = _plus(reset_term(n_layers - 1), g_counts)
        for l in reversed(range(n_layers)):
            b = bufs[l]
            x_in = x if l == 0 else bufs[l - 1].s[t]
            g_below = reset_term(l - 1) if l > 0 else None

            # u(l,t): membrane(t+1), then sigmoid, then spike
            g_u = None if g_u_next[l] is None else rho * g_u_next[l]
            if plastic:
                # W2 leaving step t: -g_dw2(t+1), decay*g_w2(t+1), the W2 drive,
                # then +g_dw2(t); in pure-increment mode the increment's own
                # gradient is (column-total + feedback terms) + the W2 term
                g_w2 = b.g_w2[cur]
                if pure:
                    g_inc = g_dw2[l]
                    g_inc += g_w2
                else:
                    g_w2 += g_dw2[l]
                    g_inc = g_w2
                if t > 0:
                    part = np.multiply(g_w2, decay, out=b.g_w2[prev])
                    if not pure:
                        part -= g_dw2[l]
                g_eta[l] = _plus(g_eta[l], float(np.multiply(g_inc, b.om[t], out=b.tmp).sum()))
                g_om = np.multiply(g_inc, win.eta[l], out=b.g_om)
                g_post = inv_b * (x_in @ g_om.T)
                if l > 0:
                    g_below = _plus(g_below, inv_b * (b.post[t] @ g_om))
                g_beta[l] = _plus(g_beta[l], float(g_post.sum()))
                v = b.sig[t]
                g_u = _plus(g_u, g_post * v * (1.0 - v))
            if win.spike_identity:
                g_u = _plus(g_u, g_s)
            else:
                rect = (np.abs(b.u[t] - v_th) < a / 2.0) / a
                g_u = _plus(g_u, g_s * rect)
            g_u_next[l] = g_u

            # pathway drives W3, W2, W1; spikes below: soft reset(t+1), then
            # this layer's outer mean, W3, W2 and W1 drives
            for k in (2, 1, 0):
                if l == 0 and k == 0:
                    g_drive0 = _plus(g_drive0, g_u)
                    continue
                g_lam[l][k] = _plus(g_lam[l][k], float((g_u * b.drive[t, k]).sum()))
                g_d = win.lam[l][k] * g_u
                if k == 0:
                    if g_w1[l] is None:
                        g_w1[l] = g_d.T @ x_in
                    else:
                        g_w1[l] += np.matmul(g_d.T, x_in, out=b.tmp)
                elif t > 0:
                    # the carried W3 term, or the W2 terms above, come first
                    g_w = (b.g_w3 if k == 2 else b.g_w2)[prev]
                    if plastic:
                        g_w += np.matmul(g_d.T, x_in, out=b.tmp)
                    else:
                        np.matmul(g_d.T, x_in, out=g_w)
                if l > 0:
                    w = win.w1[l] if k == 0 else (win.w3 if k == 2 else win.w2)[l][t]
                    g_below = _plus(g_below, g_d @ w)
            g_s = g_below
        cur = prev

    g_lam[0][0] = float((g_drive0 * bufs[0].drive[0, 0]).sum())
    g_w1[0] = (win.lam[0][0] * g_drive0).T @ x

    def scalar(value) -> np.ndarray:
        return np.asarray(0.0 if value is None else value)

    grads: dict[str, np.ndarray] = {}
    for l in range(n_layers):
        grads[f"layers.{l}.w1"] = g_w1[l]
        grads[f"layers.{l}.lam"] = np.array([0.0 if g is None else g for g in g_lam[l]])
        grads[f"layers.{l}.eta"] = scalar(g_eta[l])
        grads[f"layers.{l}.beta"] = scalar(g_beta[l])
    grads["lambda_f"] = scalar(g_lf)
    grads["lambda_p"] = scalar(g_lp)
    return grads
