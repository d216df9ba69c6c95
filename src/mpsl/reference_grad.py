"""Independent gradient oracle: forward tangent propagation, one pass per
scalar parameter.

This deliberately shares no code with the hand-written reverse in
window.py. It re-walks the whole training window for a [batch x n_in]
input with batch-mean Hebbian increments, carrying (value, tangent) pairs
in dense matrices, and applies the same conventions that reverse uses at
the two non-smooth points: the spike derivative is the rectangular window
(1/a on |U - v_th| < a/2, strictly), and a normalization whose input sums
to less than 1e-8 in magnitude is treated as the constant zero vector.

Finite differences on the hard network would NOT validate the surrogate
gradients (the true loss is piecewise constant), which is why the oracle
embeds the surrogate convention instead of differencing.

Intended for small networks only: cost is one full window per parameter.
"""

from __future__ import annotations

import math

import numpy as np

from .network import Network

_EPS_SUM = 1e-8


def _window_loss_tangent(net: Network, w2, w3, x, labels, t_steps, coord):
    """(d loss / d coord, final W2, final W3) of one window that starts
    from the W2/W3 lists w2, w3."""
    lif = net.lif
    rho, v_th, a = lif.rho_m, lif.v_th, lif.a
    decay = math.exp(-lif.dt / net.sbp.tau_w)
    n_layers = len(net.layers)

    w1v = [layer.w1.copy() for layer in net.layers]
    w2v = [w.copy() for w in w2]
    w3v = [w.copy() for w in w3]
    lamv = [layer.lam.copy() for layer in net.layers]
    etav = [float(layer.eta) for layer in net.layers]
    betav = [float(layer.beta) for layer in net.layers]
    lfv, lpv = float(net.lambda_f), float(net.lambda_p)

    w1t = [np.zeros_like(w) for w in w1v]
    w2t = [np.zeros_like(w) for w in w2v]
    w3t = [np.zeros_like(w) for w in w3v]
    lamt = [np.zeros(3) for _ in range(n_layers)]
    etat = [0.0] * n_layers
    betat = [0.0] * n_layers
    lft = lpt = 0.0

    kind = coord[0]
    if kind == "w1":
        _, l, j, i = coord
        w1t[l][j, i] = 1.0
    elif kind == "lam":
        _, l, k = coord
        lamt[l][k] = 1.0
    elif kind == "eta":
        etat[coord[1]] = 1.0
    elif kind == "beta":
        betat[coord[1]] = 1.0
    elif kind == "lambda_f":
        lft = 1.0
    elif kind == "lambda_p":
        lpt = 1.0
    else:
        raise ValueError(f"unknown parameter coordinate {coord!r}")

    batch = x.shape[0]
    units = [(batch, layer.fan_out) for layer in net.layers]
    uv = [np.zeros(shape) for shape in units]
    ut = [np.zeros(shape) for shape in units]
    sv = [np.zeros(shape) for shape in units]
    st = [np.zeros(shape) for shape in units]
    dw2v = [None] * n_layers
    dw2t = [None] * n_layers
    counts_v = np.zeros(units[-1])
    counts_t = np.zeros(units[-1])

    for _t in range(t_steps):
        sin_v, sin_t = x, np.zeros_like(x)
        for l in range(n_layers):
            a1 = sin_v @ w1v[l].T
            a2 = sin_v @ w2v[l].T
            a3 = sin_v @ w3v[l].T
            a1t = sin_v @ w1t[l].T + sin_t @ w1v[l].T
            a2t = sin_v @ w2t[l].T + sin_t @ w2v[l].T
            a3t = sin_v @ w3t[l].T + sin_t @ w3v[l].T
            iv = lamv[l][0] * a1 + lamv[l][1] * a2 + lamv[l][2] * a3
            it = (
                lamt[l][0] * a1 + lamv[l][0] * a1t
                + lamt[l][1] * a2 + lamv[l][1] * a2t
                + lamt[l][2] * a3 + lamv[l][2] * a3t
            )
            u_new = rho * (uv[l] - v_th * sv[l]) + iv
            u_tan = rho * (ut[l] - v_th * st[l]) + it
            s_new = (u_new >= v_th).astype(np.float64)
            s_tan = (np.abs(u_new - v_th) < a / 2.0) / a * u_tan

            sig = 1.0 / (1.0 + np.exp(-u_new))
            sig_t = sig * (1.0 - sig) * u_tan
            pv = sig + betav[l]
            pt = sig_t + betat[l]
            # batch means of the outer products post_b x in_b
            corr_v = pv.T @ sin_v / batch
            corr_t = (pt.T @ sin_v + pv.T @ sin_t) / batch
            inc_v = etav[l] * corr_v
            inc_t = etat[l] * corr_v + etav[l] * corr_t
            w2_new_v = decay * w2v[l] + inc_v
            w2_new_t = decay * w2t[l] + inc_t
            dw2v[l] = w2_new_v - w2v[l]
            dw2t[l] = w2_new_t - w2t[l]
            w2v[l], w2t[l] = w2_new_v, w2_new_t

            uv[l], ut[l], sv[l], st[l] = u_new, u_tan, s_new, s_tan
            sin_v, sin_t = s_new, s_tan

        for l in reversed(range(n_layers)):
            if l + 1 < n_layers:
                rv = dw2v[l + 1].sum(axis=0)
                rt = dw2t[l + 1].sum(axis=0)
                total = rv.sum()
                if abs(total) < _EPS_SUM:
                    qv = np.zeros_like(rv)
                    qt = np.zeros_like(rv)
                else:
                    qv = rv / total
                    qt = rt / total - rv * (rt.sum() / total**2)
                dv = lfv * (1.0 + lpv * qv)
                dt_ = lft * (1.0 + lpv * qv) + lfv * (lpt * qv + lpv * qt)
                fb_v = dv[:, None] * dw2v[l]
                fb_t = dt_[:, None] * dw2v[l] + dv[:, None] * dw2t[l]
            else:
                fb_v = lfv * dw2v[l]
                fb_t = lft * dw2v[l] + lfv * dw2t[l]
            w3v[l] = decay * w3v[l] + fb_v
            w3t[l] = decay * w3t[l] + fb_t

        counts_v = counts_v + sv[-1]
        counts_t = counts_t + st[-1]

    # the loss is the batch mean of the per-item cross-entropies
    shifted = counts_v - counts_v.max(axis=1, keepdims=True)
    probs = np.exp(shifted) / np.exp(shifted).sum(axis=1, keepdims=True)
    probs[np.arange(batch), labels] -= 1.0
    return float((probs * counts_t).sum() / batch), w2v, w3v


def reference_gradients(
    net: Network, x, labels, t_steps: int, *, per_item: bool = False,
) -> dict[str, np.ndarray]:
    """Loss gradients for every learnable, each from its own tangent pass,
    keyed like Network.named_parameters(). Spikes are binary; each pass
    takes the rectangular surrogate for their derivative. x is [batch x
    n_in] (a 1-D item is batch 1) and labels holds one class per item.
    per_item gives the gradient of a sequential_plasticity step instead:
    the mean over items of each item's window gradients, each window
    starting from the W2/W3 that the previous item's window left."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    labels = np.atleast_1d(np.asarray(labels, dtype=np.int64))
    windows = [(x[i : i + 1], labels[i : i + 1]) for i in range(len(x))] if per_item else [(x, labels)]
    starts = [([layer.w2 for layer in net.layers], [layer.w3 for layer in net.layers])]
    for xs, ys in windows[:-1]:
        starts.append(_window_loss_tangent(net, *starts[-1], xs, ys, t_steps, ("lambda_f",))[1:])

    def d(coord) -> float:
        return sum(_window_loss_tangent(net, *start, xs, ys, t_steps, coord)[0]
                   for start, (xs, ys) in zip(starts, windows)) / len(windows)

    grads: dict[str, np.ndarray] = {}
    for l, layer in enumerate(net.layers):
        w1g = np.zeros_like(layer.w1)
        for j in range(layer.fan_out):
            for i in range(layer.fan_in):
                w1g[j, i] = d(("w1", l, j, i))
        grads[f"layers.{l}.w1"] = w1g
        grads[f"layers.{l}.lam"] = np.array([d(("lam", l, k)) for k in range(3)])
        grads[f"layers.{l}.eta"] = np.asarray(d(("eta", l)))
        grads[f"layers.{l}.beta"] = np.asarray(d(("beta", l)))
    grads["lambda_f"] = np.asarray(d(("lambda_f",)))
    grads["lambda_p"] = np.asarray(d(("lambda_p",)))
    return grads
