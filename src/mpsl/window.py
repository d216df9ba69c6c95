"""The training window: one forward over the fixed T-step, L-layer schedule
— per timestep: fused input, membrane update, spike and Hebbian step for
layers 1..L, then feedback steps for layers L..1 — and its hand-written
reverse.

record_forward is the one implementation of the W2/W3 rules that training
runs, and keeps only what backward reads. One window holds the n items of
one optimizer step as G groups of b rows: a batched step is one group whose
Hebbian increments are batch means; a per-item step is n groups of one, run
in turn, each starting from the W2/W3 that the group before it left. W2/W3
entering a group are constants to the gradient (the local learnables reach
the loss only through updates made inside it), so backward runs the groups'
independent reverses at once over [G x b x units] arrays. It substitutes
the rectangular surrogate for the spike derivative and returns each group's
gradients for the fusion coefficients, eta/beta, the fraction factors and
the W1 of layers 2..L, keyed like Network.named_parameters(), and layer 1's
W1 gradient averaged over the groups, formed once from its factor
F = lam_1 sum_t g_u(t) [n x units] as F^T x / G.

Layer 1 runs through the step's Gram matrix K = x x^T (the fast-weights
identity; Ba et al. 2016, arXiv:1610.06258; Schlag, Irie & Schmidhuber
2021, arXiv:2102.11174). Its input x_g is the same at every step, so each
Hebbian increment (eta/b) post_t^T x_g, and each feedback increment, which
scales that one's rows, lies in the row span of x_g. Inside group g, its
drives a_t = x_g W2_t^T and b_t = x_g W3_t^T are therefore exactly
    q_t = (eta/b) K_gg post_t,   e_t = x_g dW2_t^T = q_t + (d-1) a_t,
    a_t+1 = d a_t + q_t,         b_t+1 = d b_t + e_t * diag_t,
where dW2_t = W2_t+1 - W2_t and diag_t is the feedback modulation. Across
groups its W2/W3 are carried in factored form,
    W2 = c W2_0 + P^T x,   W3 = c W3_0 + m * W2_0 + Q^T x,
where each group adds its rows to the [n x units] factors P and Q
(_carry_input_layer), and the next group's step-1 drives are
c a_0 + K[g, :] P and c b_0 + m * a_0 + K[g, :] Q. Per step, layer 1 makes
four [n x fan_in] products (K, the step-1 drives) and two [units x n] by
[n x fan_in] ones (its final W2/W3), and per group and step a [b x b] by
[b x units] one each way. The layers above keep dense W2/W3 histories of
G T + 1 matrices, so a per-item window holds n times a batched one's.

Reproducibility contract: every value is one fixed numpy expression, and a
gradient with several terms sums them in one fixed order, named where it is
built. Training trajectories, and with them the byte-identical re-runs and
recorded losses, depend on that arithmetic. The Gram form changed it once:
layer 1's weights differ from the dense kernel's at rounding level; on the
seeds checked, the 60-step desk prefix kept its spikes, losses and accuracy.
Groups left a batched window's bytes unchanged; a per-item window can
differ at rounding level from n batch-1 windows run in turn.
"""

from __future__ import annotations

import numpy as np

from .network import Network
from .neuron import membrane_step, spike
from .numerics import ShapeMismatchError, normalize_simplex

def softmax_xent(scores: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean softmax cross-entropy of [batch x classes] scores, and the
    log-probabilities it was computed from."""
    shifted = scores - scores.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return float(-logp[np.arange(len(labels)), labels].mean()), logp


class _Buffers:
    """One layer's arrays for one window: the forward values that the
    reverse reads, indexed by timestep and then group, and the reverse's
    scratch matrices. Layer 1 keeps drives and factors (module docstring)
    where the layers above keep dense W2/W3 histories."""

    def __init__(self, groups: int, rows: int, t_steps: int, fan_in: int, fan_out: int,
                 input_layer: bool):
        units = (t_steps, groups, rows, fan_out)
        self.u = np.empty(units)
        self.s = np.empty(units)
        self.sig = np.empty(units)
        self.post = np.empty(units)
        self.drive = np.empty((t_steps, 3, groups, rows, fan_out))  # x_in @ W_k.T per pathway
        # feedback modulation diag = lambda_f * lift, lift = 1 + lambda_p * share
        self.share = np.empty((t_steps, groups, fan_out))
        self.lift = np.empty((t_steps, groups, fan_out))
        self.diag = np.empty((t_steps, groups, fan_out))
        # column totals of the layer above; infinite where they degenerate
        self.total = np.empty((t_steps, groups))
        mat = (fan_out, fan_in)
        self.tmp = np.empty(mat if input_layer else (groups, *mat))
        if input_layer:
            n = groups * rows
            self.gram = np.empty((n, n))  # K = x @ x.T
            self.e = np.empty(units)  # x @ dW2_t.T, the increment the feedback rule scales
            self.p = np.empty((n, fan_out))  # factored W2/W3 (module docstring)
            self.q = np.empty((n, fan_out))
            self.m = np.empty(fan_out)
            return
        # W2 / W3 entering step t of group g at g T + t; the last leaves the window
        self.w2 = np.empty((groups * t_steps + 1, *mat))
        self.w3 = np.empty((groups * t_steps + 1, *mat))
        self.om = np.empty((t_steps, groups, *mat))  # batch-mean Hebbian correlation
        self.dw2 = np.empty((t_steps, groups, *mat))  # W2_new - W2_old, for the feedback rule
        self.g_w2 = np.empty((2, groups, *mat))  # reverse: W2/W3 leaving steps t and t-1
        self.g_w3 = np.empty((2, groups, *mat))
        self.g_dw2 = np.empty((groups, *mat))
        self.g_om = np.empty((groups, *mat))


class Window:
    """A recorded training window.

    loss_value and final_w2/final_w3 (per layer) are the forward's results,
    in arrays of their own. u and s hold each layer's membrane potentials
    and spikes as [T x n x units] arrays. W1 and layer 1's W2/W3 entering
    the window are held by reference: reverse the window before changing
    them in place.
    """

    def __init__(self, net: Network, x: np.ndarray, labels: np.ndarray, groups: int,
                 t_steps: int, bufs: list[_Buffers]):
        layers = net.layers
        self.x, self.labels, self.groups, self.t_steps = x, labels, groups, t_steps
        self.bufs = bufs
        self.lif = net.lif
        self.decay = net.sbp.decay(net.lif.dt)
        self.w1 = [layer.w1 for layer in layers]
        self.lam = [layer.lam.copy() for layer in layers]
        self.eta = [float(layer.eta) for layer in layers]
        self.beta = [float(layer.beta) for layer in layers]
        self.lambda_f, self.lambda_p = float(net.lambda_f), float(net.lambda_p)
        self.w2 = [layers[0].w2, *(b.w2 for b in bufs[1:])]  # layer 1's entering; histories
        self.w3 = [layers[0].w3, *(b.w3 for b in bufs[1:])]
        for layer, b in zip(layers[1:], bufs[1:]):
            b.w2[0], b.w3[0] = layer.w2, layer.w3
        rows = self.rows = len(x) // groups
        # each group's own block of K
        self.gram_blocks = bufs[0].gram.reshape(groups, rows, groups, rows)[
            range(groups), :, range(groups)]
        self.final_w2 = self.final_w3 = None
        self.u = [b.u.reshape(t_steps, len(x), -1) for b in bufs]
        self.s = [b.s.reshape(t_steps, len(x), -1) for b in bufs]
        self.logp = None
        self.loss_value = float("nan")


def record_forward(
    net: Network,
    x: np.ndarray,
    labels,
    t_steps: int,
    *,
    per_item: bool = False,
    events: list | None = None,
) -> tuple[Window, np.ndarray]:
    """Record the training window of one optimizer step.

    x is [n x input_dim] (a single 1-D item is promoted to n = 1). A batched
    window runs the n items as one group with batch-mean Hebbian increments;
    a per_item window runs them as n groups of one in turn, which is the
    per-item update schedule exactly. Returns the window and the per-class
    output spike counts [n x classes].
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

    n = x.shape[0]
    groups, rows = (n, 1) if per_item else (1, n)
    bufs = [_Buffers(groups, rows, t_steps, layer.fan_in, layer.fan_out, l == 0)
            for l, layer in enumerate(net.layers)]
    first = bufs[0]
    np.matmul(x, x.T, out=first.gram)
    win = Window(net, x, labels, groups, t_steps, bufs)

    decay, lf, lp = win.decay, win.lambda_f, win.lambda_p
    n_layers = len(bufs)
    # x is the same at every step: layer 1's W1 drive is reused, and its
    # W2/W3 drives follow the recurrences from these
    for k, w in enumerate((win.w1[0], win.w2[0], win.w3[0])):
        np.matmul(x, w.T, out=first.drive[0, k].reshape(n, -1))
    first.m.fill(0.0)
    scale = 1.0  # c, the share of W2_0/W3_0 in layer 1's W2/W3
    hebb_scale = win.eta[0] / rows
    for g in range(groups):
        x_g = x[g * rows : (g + 1) * rows]
        if g:  # P and Q hold rows of the groups before g only
            k_row = first.gram[g * rows : (g + 1) * rows, : g * rows]
            a_0, b_0 = first.drive[0, 1, g], first.drive[0, 2, g]
            b_0 *= scale
            b_0 += a_0 * first.m
            b_0 += k_row @ first.q[: g * rows]
            a_0 *= scale
            a_0 += k_row @ first.p[: g * rows]
        for t in range(t_steps):
            s_in = x_g
            i = g * t_steps + t
            for l, b in enumerate(bufs):
                if events is not None:
                    events.append(("forward", t + 1, l + 1))
                lam, d = win.lam[l], b.drive[t, :, g]
                if l > 0:
                    for k, w in enumerate((win.w1[l], b.w2[i], b.w3[i])):
                        np.matmul(s_in, w.T, out=d[k])
                d1 = b.drive[0 if l == 0 else t, 0, g]
                i_in = lam[0] * d1 + lam[1] * d[1]
                i_in += lam[2] * d[2]
                if t == 0:
                    u_prev = s_prev = np.zeros_like(i_in)
                else:
                    u_prev, s_prev = b.u[t - 1, g], b.s[t - 1, g]
                u = membrane_step(u_prev, s_prev, i_in, net.lif, out=b.u[t, g])
                spike(u, net.lif, out=b.s[t, g])

                if events is not None:
                    events.append(("hebbian", t + 1, l + 1))
                b.sig[t, g] = 1.0 / (1.0 + np.exp(-u))
                np.add(b.sig[t, g], win.beta[l], out=b.post[t, g])
                if l == 0:
                    # q = x_g @ (eta * mean_b post_b x_b).T = (eta / b) K_gg @ post
                    q = np.matmul(win.gram_blocks[g], b.post[t, g], out=b.e[t, g])
                    q *= hebb_scale
                    if t + 1 < t_steps:
                        a_next = np.multiply(d[1], decay, out=b.drive[t + 1, 1, g])
                        a_next += q
                    q += (decay - 1.0) * d[1]  # e = (d - 1) a + q
                else:
                    om = np.matmul(b.post[t, g].T, s_in, out=b.om[t, g])
                    om /= rows
                    inc = np.multiply(om, win.eta[l], out=b.tmp[g])
                    w2_old, w2_new = b.w2[i], b.w2[i + 1]
                    np.multiply(w2_old, decay, out=w2_new)
                    w2_new += inc
                    np.subtract(w2_new, w2_old, out=b.dw2[t, g])
                s_in = b.s[t, g]

            for l in reversed(range(n_layers)):
                if events is not None:
                    events.append(("sbp", t + 1, l + 1))
                b = bufs[l]
                if l + 1 < n_layers:
                    col = bufs[l + 1].dw2[t, g].sum(axis=0)
                    b.share[t, g], degenerate = normalize_simplex(col)
                    b.total[t, g] = np.inf if degenerate else col.sum()
                    b.lift[t, g] = 1.0 + lp * b.share[t, g]
                    b.diag[t, g] = lf * b.lift[t, g]
                else:  # the top layer's increment is scaled by lambda_f alone
                    b.lift[t, g] = 1.0
                    b.diag[t, g] = lf
                if l == 0:
                    if t + 1 < t_steps:
                        b_next = np.multiply(b.drive[t, 2, g], decay, out=b.drive[t + 1, 2, g])
                        b_next += b.e[t, g] * b.diag[t, g]
                else:
                    feedback = np.multiply(b.diag[t, g][:, None], b.dw2[t, g], out=b.tmp[g])
                    w3_new = np.multiply(b.w3[i], decay, out=b.w3[i + 1])
                    w3_new += feedback
        scale = _carry_input_layer(win, first, g, scale)

    # layer 1's W2/W3 leaving the last group, formed once from its factors
    w2 = np.multiply(win.w2[0], scale)
    w2 += np.matmul(first.p.T, x, out=first.tmp)
    w3 = np.multiply(win.w3[0], scale)
    w3 += np.matmul(first.q.T, x, out=first.tmp)
    w3 += np.multiply(win.w2[0], first.m[:, None], out=first.tmp)
    counts = bufs[-1].s.sum(axis=0).reshape(n, -1)
    win.final_w2 = [w2] + [b.w2[-1].copy() for b in bufs[1:]]
    win.final_w3 = [w3] + [b.w3[-1].copy() for b in bufs[1:]]
    win.loss_value, win.logp = softmax_xent(counts, labels)
    return win, counts


def _carry_input_layer(win: Window, b: _Buffers, g: int, scale: float) -> float:
    """Fold group g's increments into layer 1's factored W2/W3; returns the
    new c. Over its T steps, group g takes W2/W3 to
        W2' = d^T W2 + (eta/b) S^T x_g,            S = sum_t d^(T-1-t) post_t
        W3' = d^T W3 + r * W2 + (eta/b) R^T x_g,   R = sum_t d^(T-1-t) diag_t * E_t
    where dW2_t = W2_t+1 - W2_t = c_t W2 + (eta/b) E_t^T x_g, with
    E_t = (d-1) S_t + post_t (S_t sums the steps before t), c_t = (d-1) d^t
    and r = (d-1) d^(T-1) sum_t diag_t."""
    d, t_steps, rows = win.decay, win.t_steps, win.rows
    s_sum = np.zeros_like(b.post[0, g])
    r_sum = np.zeros_like(b.post[0, g])
    for t in range(t_steps):
        e = (d - 1.0) * s_sum + b.post[t, g]
        r_sum *= d
        r_sum += b.diag[t, g] * e
        s_sum *= d
        s_sum += b.post[t, g]
    hebb_scale = win.eta[0] / rows
    d_t = d**t_steps
    p, q = b.p[: g * rows], b.q[: g * rows]  # the groups before g
    q *= d_t
    row = (d - 1.0) * d ** (t_steps - 1) * b.diag[:, g].sum(axis=0)
    q += p * row
    b.m *= d_t
    b.m += row * scale
    np.multiply(hebb_scale, r_sum, out=b.q[g * rows : (g + 1) * rows])
    p *= d_t
    np.multiply(hebb_scale, s_sum, out=b.p[g * rows : (g + 1) * rows])
    return scale * d_t


def _plus(total, term):
    return term if total is None else total + term


def backward(win: Window, *,
             surrogate_width_scale: float = 1.0) -> tuple[list[dict[str, np.ndarray]], np.ndarray]:
    """Each group's loss gradients of every learnable parameter, one dict
    per group keyed like Network.named_parameters(), and layer 1's W1
    gradient averaged over the groups: the dicts have no layers.0.w1, which
    is formed once as F^T x / G from its factor F [n x units]. A group's
    gradients are of its own mean loss; a parameter the loss does not reach
    gets zeros. The window is left as it was, so it can be reversed again.

    surrogate_width_scale is a fault-injection hook for the gradcheck
    negative control; production callers leave it at 1.
    """
    bufs, x, t_steps, groups = win.bufs, win.x, win.t_steps, win.groups
    n_layers = len(bufs)
    rho, v_th = win.lif.rho_m, win.lif.v_th
    a = win.lif.a * surrogate_width_scale
    decay, lf, lp = win.decay, win.lambda_f, win.lambda_p
    n, inv_b, first = len(x), 1.0 / win.rows, bufs[0]
    x_g = x.reshape(groups, win.rows, -1)

    p = np.exp(win.logp)
    p[np.arange(len(win.labels)), win.labels] -= 1.0
    g_counts = (p * inv_b).reshape(groups, win.rows, -1)  # each group's mean

    g_w1 = [None] * n_layers
    zero = np.zeros(groups)  # per-group sums start here (never added to in place)
    g_lam = [[zero] * 3 for _ in range(n_layers)]
    g_eta, g_beta = [zero] * n_layers, [zero] * n_layers
    g_lf = g_lp = zero
    g_u_next = [None] * n_layers  # membrane potentials of step t+1
    # layer 1: its W1 drive, summed over t = T..1, and its W2/W3 drives
    # (a = x @ W2.T, b = x @ W3.T) leaving step t
    g_c = g_a = g_b = None

    def per_group(values):  # summed over all but the group axis
        return values.reshape(groups, -1).sum(axis=1)

    def reset_term(l):  # spikes of step t through the soft reset of step t+1
        return None if g_u_next[l] is None else (-rho * v_th) * g_u_next[l]

    # gradient buffers of W2/W3 leaving step t (index cur) and step t-1
    cur = 0
    for t in reversed(range(t_steps)):
        prev = 1 - cur
        # W2/W3 leaving a group's last step never reach its loss
        plastic = t < t_steps - 1
        g_dw2 = [None] * n_layers
        g_col = [None] * n_layers  # through layer l-1's normalized column totals
        if plastic:
            # feedback steps, layers 1..L: W3(t+1) = d W3(t) + diag * dW2(t)
            for l, b in enumerate(bufs):
                if l == 0:  # in drive form: b(t+1) = d b(t) + e(t) * diag
                    g_fb, inc = g_b, b.e[t]
                    g_e = g_b * b.diag[t][:, None]
                else:
                    g_fb, inc = b.g_w3[cur], b.dw2[t]
                    gd = np.multiply(g_fb, b.diag[t][:, :, None], out=b.g_dw2)
                    if g_col[l] is not None:
                        gd += g_col[l][:, None]
                    g_dw2[l] = gd
                    if t > 0:
                        np.multiply(g_fb, decay, out=b.g_w3[prev])
                g_mod = np.multiply(g_fb, inc, out=b.tmp if l else None)
                if l + 1 < n_layers:
                    g_diag = g_mod.sum(axis=2 if l else 1)  # per group and unit
                    g_lf = g_lf + per_group(g_diag * b.lift[t])
                    g_lift = lf * g_diag
                    g_lp = g_lp + per_group(g_lift * b.share[t])
                    # a degenerate total is infinite: its shares pass no gradient
                    g_share = lp * g_lift
                    g_col[l + 1] = ((g_share - (g_share * b.share[t]).sum(axis=1, keepdims=True))
                                    / b.total[t][:, None])
                else:  # the top layer's diag is lambda_f
                    g_lf = g_lf + per_group(g_mod)

        g_s = _plus(reset_term(n_layers - 1), g_counts)
        for l in reversed(range(n_layers)):
            b = bufs[l]
            x_in = x_g if l == 0 else bufs[l - 1].s[t]
            g_below = reset_term(l - 1) if l > 0 else None

            # u(l,t): membrane(t+1), then sigmoid, then spike
            g_u = None if g_u_next[l] is None else rho * g_u_next[l]
            if plastic and l == 0:
                # q = (eta / b) K_gg @ post feeds a(t+1) = d a + q and
                # e = q + (d - 1) a
                g_q = g_a + g_e
                k_g = win.gram_blocks @ g_q
                g_eta[0] = g_eta[0] + per_group(k_g * b.post[t]) * inv_b
                g_post = (win.eta[0] * inv_b) * k_g
                if t > 0:
                    g_a *= decay
                    g_a += (decay - 1.0) * g_e
                    g_b *= decay
            elif plastic:
                # W2 leaving step t: -g_dw2(t+1), decay*g_w2(t+1), the W2 drive,
                # then +g_dw2(t); the increment reaches the loss only through
                # that W2, so its gradient is the same sum
                g_inc = b.g_w2[cur]
                g_inc += g_dw2[l]
                if t > 0:
                    part = np.multiply(g_inc, decay, out=b.g_w2[prev])
                    part -= g_dw2[l]
                g_eta[l] = g_eta[l] + per_group(np.multiply(g_inc, b.om[t], out=b.tmp))
                g_om = np.multiply(g_inc, win.eta[l], out=b.g_om)
                g_post = inv_b * (x_in @ g_om.swapaxes(1, 2))
                g_below = _plus(g_below, inv_b * (b.post[t] @ g_om))
            if plastic:
                g_beta[l] = g_beta[l] + per_group(g_post)
                v = b.sig[t]
                g_u = _plus(g_u, g_post * v * (1.0 - v))
            rect = (np.abs(b.u[t] - v_th) < a / 2.0) / a
            g_u = _plus(g_u, g_s * rect)
            g_u_next[l] = g_u

            # pathway drives W3, W2, W1; spikes below: soft reset(t+1), then
            # this layer's outer mean, W3, W2 and W1 drives
            if l == 0:
                g_lam[0][2] = g_lam[0][2] + per_group(g_u * b.drive[t, 2])
                g_lam[0][1] = g_lam[0][1] + per_group(g_u * b.drive[t, 1])
                g_c = _plus(g_c, g_u)
                if t > 0:
                    g_b = _plus(g_b, win.lam[0][2] * g_u)
                    g_a = _plus(g_a, win.lam[0][1] * g_u)
                continue
            for k in (2, 1, 0):
                g_lam[l][k] = g_lam[l][k] + per_group(g_u * b.drive[t, k])
                g_d = win.lam[l][k] * g_u
                g_d_t = g_d.swapaxes(1, 2)
                if k == 0:
                    if g_w1[l] is None:
                        g_w1[l] = g_d_t @ x_in
                    else:
                        g_w1[l] += np.matmul(g_d_t, x_in, out=b.tmp)
                elif t > 0:
                    # the carried W3 term, or the W2 terms above, come first
                    g_w = (b.g_w3 if k == 2 else b.g_w2)[prev]
                    if plastic:
                        g_w += np.matmul(g_d_t, x_in, out=b.tmp)
                    else:
                        np.matmul(g_d_t, x_in, out=g_w)
                # W2/W3 entering step t of every group
                w = win.w1[l] if k == 0 else (b.w3 if k == 2 else b.w2)[t : -1 : t_steps]
                g_below = _plus(g_below, g_d @ w)
            g_s = g_below
        cur = prev

    g_lam[0][0] = per_group(g_c * first.drive[0, 0])

    grads: dict[str, np.ndarray] = {}
    for l in range(n_layers):
        if l:
            grads[f"layers.{l}.w1"] = g_w1[l]
        grads[f"layers.{l}.lam"] = np.stack(g_lam[l], axis=1)
        grads[f"layers.{l}.eta"] = g_eta[l]
        grads[f"layers.{l}.beta"] = g_beta[l]
    grads["lambda_f"] = g_lf
    grads["lambda_p"] = g_lp
    g_w1_in = (win.lam[0][0] * g_c).reshape(n, -1).T @ x
    g_w1_in /= groups
    return [{name: g[i] for name, g in grads.items()} for i in range(groups)], g_w1_in
