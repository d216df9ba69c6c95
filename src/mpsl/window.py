"""The training window: one forward over the fixed T-step, L-layer schedule
— per timestep: fused input, membrane update, spike and Hebbian step for
layers 1..L, then feedback steps for layers L..1 — and its hand-written
reverse.

record_forward is the one implementation of the W2/W3 rules that training
runs, and keeps only what backward reads. backward substitutes
the rectangular surrogate for the spike derivative and returns gradients
for W1, the fusion coefficients, the local-rule learnables eta/beta and the
global fraction factors, keyed like Network.named_parameters(), except that
layer 1's W1 gradient leaves as its factor F = lam_1 sum_t g_u(t)
[batch x units]: the trainer forms F^T x once per optimizer step.

W2/W3 entering the window are constants; gradients reach eta, beta,
lambda_f and lambda_p only through the dependence of later timesteps'
weights on updates made inside the window.

Layer 1 runs through the batch Gram matrix K = x x^T (the fast-weights
identity; Ba et al. 2016, arXiv:1610.06258; Schlag, Irie & Schmidhuber
2021, arXiv:2102.11174). Its input x is the same at every step, so each
Hebbian increment (eta/B) post_t^T x, and each feedback increment, which
scales that one's rows, lies in the row span of x. Its drives
a_t = x W2_t^T and b_t = x W3_t^T are therefore exactly
    q_t = (eta/B) K post_t,   e_t = x dW2_t^T = q_t [+ (d-1) a_t],
    a_t+1 = d a_t + q_t,      b_t+1 = d b_t + e_t * diag_t,
where the bracket holds with delta_includes_decay and diag_t is the feedback
modulation. Its W2/W3 are formed once, leaving the last step, and backward
reverses these [batch x units] recurrences. A step of layer 1 costs one
[B x B] by [B x units] product each way, O(B^2 units), where dense W2/W3
cost six O(B fan_in units) products and about 24 passes over
[units x fan_in] matrices; five such products per window remain (the step-1
drives and the final W2/W3). Layers above take new spikes at every step and
keep dense W2/W3.

Reproducibility contract: every value is one fixed numpy expression, and a
gradient with several terms sums them in one fixed order, named where it is
built. Training trajectories, and with them the byte-identical re-runs and
recorded losses, depend on that arithmetic. The Gram form changed it once:
layer 1's weights differ from the dense kernel's at rounding level; on the
seeds checked, the 60-step desk prefix kept its spikes, losses and accuracy.

The large per-step arrays live in a workspace that a window owns while it
is alive and that later windows of the same shape reuse.
"""

from __future__ import annotations

import weakref

import numpy as np

from .network import Network
from .neuron import membrane_step, spike
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
    reverse reads, indexed by timestep, and the reverse's scratch matrices.
    Layer 1 keeps its plastic state as [batch x units] drives (see the
    module docstring); the layers above keep dense W2/W3 histories."""

    def __init__(self, batch: int, t_steps: int, fan_in: int, fan_out: int, input_layer: bool):
        units = (t_steps, batch, fan_out)
        self.u = np.empty(units)
        self.s = np.empty(units)
        self.sig = np.empty(units)
        self.post = np.empty(units)
        self.drive = np.empty((t_steps, 3, batch, fan_out))  # x_in @ W_k.T per pathway
        # feedback modulation diag = lambda_f * lift, lift = 1 + lambda_p * share
        self.share = np.empty((t_steps, fan_out))
        self.lift = np.empty((t_steps, fan_out))
        self.diag = np.empty((t_steps, fan_out))
        self.total = np.empty(t_steps)
        self.degenerate = np.empty(t_steps, dtype=bool)
        mat = (fan_out, fan_in)
        self.tmp = np.empty(mat)
        if input_layer:
            self.gram = np.empty((batch, batch))  # K = x @ x.T
            self.e = np.empty(units)  # x @ dW2_t.T, the increment the feedback rule scales
            self.w2 = self.w3 = ()
            return
        self.w2 = np.empty((t_steps - 1, *mat))  # W2 / W3 leaving steps 1..T-1
        self.w3 = np.empty((t_steps - 1, *mat))
        self.om = np.empty((t_steps, *mat))  # batch-mean Hebbian correlation
        self.dw2 = np.empty((t_steps, *mat))  # increment handed to the feedback rule
        self.g_w2 = np.empty((2, *mat))  # reverse: W2/W3 leaving steps t and t-1
        self.g_w3 = np.empty((2, *mat))
        self.g_dw2 = np.empty(mat)
        self.g_om = np.empty(mat)


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
        # W2/W3 entering step t (from 0) at index t; past the input layer,
        # index T holds the final value
        self.w2 = [[layer.w2, *b.w2] for layer, b in zip(layers, bufs)]
        self.w3 = [[layer.w3, *b.w3] for layer, b in zip(layers, bufs)]
        for w in self.w2[1:] + self.w3[1:]:
            w.append(np.empty_like(w[0]))
        self.final_w2 = self.final_w3 = None
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
        _Buffers(batch, t_steps, layer.fan_in, layer.fan_out, l == 0)
        for l, layer in enumerate(net.layers)
    ]
    win = Window(net, x, labels, t_steps, spike_identity, bufs)
    weakref.finalize(win, _release, key, bufs)

    decay, lf, lp = win.decay, win.lambda_f, win.lambda_p
    n_layers = len(bufs)
    first = bufs[0]
    np.matmul(x, x.T, out=first.gram)
    hebb_scale = win.eta[0] / batch
    for t in range(t_steps):
        s_in = x
        for l, b in enumerate(bufs):
            if events is not None:
                events.append(("forward", t + 1, l + 1))
            lam, d = win.lam[l], b.drive[t]
            # x is the same at every step: layer 1's W1 drive is reused and
            # its W2/W3 drives follow the recurrences
            if l > 0 or t == 0:
                for k, w in enumerate((win.w1[l], win.w2[l][t], win.w3[l][t])):
                    np.matmul(s_in, w.T, out=d[k])
            d1 = b.drive[0 if l == 0 else t, 0]
            i_in = lam[0] * d1 + lam[1] * d[1]
            i_in += lam[2] * d[2]
            if t == 0:
                u_prev = s_prev = np.zeros_like(i_in)
            else:
                u_prev, s_prev = b.u[t - 1], b.s[t - 1]
            u = membrane_step(u_prev, s_prev, i_in, net.lif, out=b.u[t])
            if spike_identity:
                b.s[t] = u
            else:
                spike(u, net.lif, out=b.s[t])

            if events is not None:
                events.append(("hebbian", t + 1, l + 1))
            b.sig[t] = 1.0 / (1.0 + np.exp(-u))
            np.add(b.sig[t], win.beta[l], out=b.post[t])
            if l == 0:
                # q = x @ (eta * mean_b post_b x_b).T = (eta / B) K @ post
                q = np.matmul(first.gram, b.post[t], out=b.e[t])
                q *= hebb_scale
                if t + 1 < t_steps:
                    a_next = np.multiply(d[1], decay, out=b.drive[t + 1, 1])
                    a_next += q
                if not win.pure_increment:
                    q += (decay - 1.0) * d[1]  # e = (d - 1) a + q
            else:
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
            else:  # the top layer's increment is scaled by lambda_f alone
                b.lift[t] = 1.0
                b.diag[t] = lf
            if l == 0:
                if t + 1 < t_steps:
                    b_next = np.multiply(b.drive[t, 2], decay, out=b.drive[t + 1, 2])
                    b_next += b.e[t] * b.diag[t]
            else:
                feedback = np.multiply(b.diag[t][:, None], b.dw2[t], out=b.tmp)
                w3_new = np.multiply(win.w3[l][t], decay, out=win.w3[l][t + 1])
                w3_new += feedback

    counts = bufs[-1].s.sum(axis=0)
    w2, w3 = _input_layer_final(win, first)
    win.final_w2 = [w2] + [w[-1] for w in win.w2[1:]]
    win.final_w3 = [w3] + [w[-1] for w in win.w3[1:]]
    win.counts = counts
    win.loss_value, win.logp = softmax_xent(counts, labels)
    return win, counts


def _input_layer_final(win: Window, b: _Buffers) -> tuple[np.ndarray, np.ndarray]:
    """Layer 1's W2/W3 leaving the last step, formed once:
        W2_T = d^T W2_0 + (eta/B) S^T x,            S = sum_t d^(T-1-t) post_t
        W3_T = d^T W3_0 + r * W2_0 + (eta/B) R^T x,  R = sum_t d^(T-1-t) diag_t * E_t
    where dW2_t = c_t W2_0 + (eta/B) E_t^T x: E_t = post_t and c_t = r = 0
    in pure-increment mode; with the decay included, E_t = (d-1) S_t + post_t
    (S_t summing the steps before t), c_t = (d-1) d^t and, row-wise,
    r = (d-1) d^(T-1) sum_t diag_t.
    """
    x, d, t_steps = win.x, win.decay, win.t_steps
    s_sum = np.zeros_like(b.post[0])
    r_sum = np.zeros_like(b.post[0])
    for t in range(t_steps):
        e = b.post[t] if win.pure_increment else (d - 1.0) * s_sum + b.post[t]
        r_sum *= d
        r_sum += b.diag[t] * e
        s_sum *= d
        s_sum += b.post[t]
    hebb_scale = win.eta[0] / x.shape[0]
    d_t = d**t_steps
    w2_0, w3_0 = win.w2[0][0], win.w3[0][0]
    w2 = np.multiply(w2_0, d_t)
    w2 += np.matmul((hebb_scale * s_sum).T, x, out=b.tmp)
    w3 = np.multiply(w3_0, d_t)
    w3 += np.matmul((hebb_scale * r_sum).T, x, out=b.tmp)
    if not win.pure_increment:
        row = (d - 1.0) * d ** (t_steps - 1) * b.diag.sum(axis=0)
        w3 += np.multiply(w2_0, row[:, None], out=b.tmp)
    return w2, w3


def _plus(total, term):
    return term if total is None else total + term


def backward(win: Window, *,
             surrogate_width_scale: float = 1.0) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Loss gradients of every learnable parameter, keyed like
    Network.named_parameters(), and layer 1's W1 factor F [batch x units]:
    the dict has no layers.0.w1, whose gradient is F^T x. A parameter the
    loss does not reach gets zeros. The window is left as it was, so it can
    be reversed again.

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
    first = bufs[0]

    p = np.exp(win.logp)
    p[np.arange(len(win.labels)), win.labels] -= 1.0
    g_counts = p * (1.0 / len(win.labels))

    g_w1 = [None] * n_layers
    g_lam = [[None] * 3 for _ in range(n_layers)]
    g_eta, g_beta = [None] * n_layers, [None] * n_layers
    g_lf = g_lp = None
    g_u_next = [None] * n_layers  # membrane potentials of step t+1
    # layer 1: its W1 drive, summed over t = T..1, and its W2/W3 drives
    # (a = x @ W2.T, b = x @ W3.T) leaving step t
    g_c = g_a = g_b = None

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
            # feedback steps, layers 1..L: W3(t+1) = d W3(t) + diag * dW2(t)
            for l, b in enumerate(bufs):
                if l == 0:  # in drive form: b(t+1) = d b(t) + e(t) * diag
                    g_fb, inc = g_b, b.e[t]
                    g_e = g_b * b.diag[t]
                else:
                    g_fb, inc = b.g_w3[cur], b.dw2[t]
                    gd = np.multiply(g_fb, b.diag[t][:, None], out=b.g_dw2)
                    if g_col[l] is not None:
                        gd += g_col[l]
                    g_dw2[l] = gd
                    if t > 0:
                        np.multiply(g_fb, decay, out=b.g_w3[prev])
                g_mod = np.multiply(g_fb, inc, out=b.tmp if l else None)
                if l + 1 < n_layers:
                    g_diag = g_mod.sum(axis=1 if l else 0)  # per unit
                    g_lf = _plus(g_lf, float((g_diag * b.lift[t]).sum()))
                    g_lift = lf * g_diag
                    g_lp = _plus(g_lp, float((g_lift * b.share[t]).sum()))
                    if not b.degenerate[t]:
                        g_share = lp * g_lift
                        g_col[l + 1] = (g_share - (g_share * b.share[t]).sum()) / b.total[t]
                else:  # the top layer's diag is lambda_f
                    g_lf = _plus(g_lf, float(g_mod.sum()))

        g_s = _plus(reset_term(n_layers - 1), g_counts)
        for l in reversed(range(n_layers)):
            b = bufs[l]
            x_in = x if l == 0 else bufs[l - 1].s[t]
            g_below = reset_term(l - 1) if l > 0 else None

            # u(l,t): membrane(t+1), then sigmoid, then spike
            g_u = None if g_u_next[l] is None else rho * g_u_next[l]
            if plastic and l == 0:
                # q = (eta / B) K @ post feeds a(t+1) = d a + q and e = q
                # (+ (d - 1) a with the decay included)
                g_q = g_a + g_e
                k_g = first.gram @ g_q
                g_eta[0] = _plus(g_eta[0], float((k_g * b.post[t]).sum()) * inv_b)
                g_post = (win.eta[0] * inv_b) * k_g
                if t > 0:
                    g_a *= decay
                    if not pure:
                        g_a += (decay - 1.0) * g_e
                    g_b *= decay
            elif plastic:
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
                g_below = _plus(g_below, inv_b * (b.post[t] @ g_om))
            if plastic:
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
            if l == 0:
                g_lam[0][2] = _plus(g_lam[0][2], float((g_u * b.drive[t, 2]).sum()))
                g_lam[0][1] = _plus(g_lam[0][1], float((g_u * b.drive[t, 1]).sum()))
                g_c = _plus(g_c, g_u)
                if t > 0:
                    g_b = _plus(g_b, win.lam[0][2] * g_u)
                    g_a = _plus(g_a, win.lam[0][1] * g_u)
                continue
            for k in (2, 1, 0):
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
                w = win.w1[l] if k == 0 else (win.w3 if k == 2 else win.w2)[l][t]
                g_below = _plus(g_below, g_d @ w)
            g_s = g_below
        cur = prev

    g_lam[0][0] = float((g_c * first.drive[0, 0]).sum())

    def scalar(value) -> np.ndarray:
        return np.asarray(0.0 if value is None else value)

    grads: dict[str, np.ndarray] = {}
    for l in range(n_layers):
        if l:
            grads[f"layers.{l}.w1"] = g_w1[l]
        grads[f"layers.{l}.lam"] = np.array([0.0 if g is None else g for g in g_lam[l]])
        grads[f"layers.{l}.eta"] = scalar(g_eta[l])
        grads[f"layers.{l}.beta"] = scalar(g_beta[l])
    grads["lambda_f"] = scalar(g_lf)
    grads["lambda_p"] = scalar(g_lp)
    return grads, win.lam[0][0] * g_c
