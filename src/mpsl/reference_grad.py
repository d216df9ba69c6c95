"""Independent gradient oracle: forward tangent propagation, one pass per
scalar parameter.

This deliberately shares no code with the reverse-mode tape. It re-walks
the whole training window for a single input, carrying (value, tangent)
pairs, and applies the same conventions the tape uses at the two
non-smooth points: the spike derivative is the rectangular window
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


def _window_loss_tangent(net: Network, x, label, t_steps, coord, spike_identity) -> float:
    lif = net.lif
    rho, v_th, a = lif.rho_m, lif.v_th, lif.a
    decay = math.exp(-lif.dt / net.sbp.tau_w)
    includes_decay = net.sbp.delta_includes_decay
    n_layers = len(net.layers)

    w1v = [layer.w1.copy() for layer in net.layers]
    w2v = [layer.w2.copy() for layer in net.layers]
    w3v = [layer.w3.copy() for layer in net.layers]
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

    uv = [np.zeros(layer.fan_out) for layer in net.layers]
    ut = [np.zeros(layer.fan_out) for layer in net.layers]
    sv = [np.zeros(layer.fan_out) for layer in net.layers]
    st = [np.zeros(layer.fan_out) for layer in net.layers]
    dw2v = [None] * n_layers
    dw2t = [None] * n_layers
    counts_v = np.zeros(net.layers[-1].fan_out)
    counts_t = np.zeros(net.layers[-1].fan_out)

    for _t in range(t_steps):
        sin_v, sin_t = np.asarray(x, dtype=np.float64), np.zeros(len(x))
        for l in range(n_layers):
            a1 = w1v[l] @ sin_v
            a2 = w2v[l] @ sin_v
            a3 = w3v[l] @ sin_v
            a1t = w1t[l] @ sin_v + w1v[l] @ sin_t
            a2t = w2t[l] @ sin_v + w2v[l] @ sin_t
            a3t = w3t[l] @ sin_v + w3v[l] @ sin_t
            iv = lamv[l][0] * a1 + lamv[l][1] * a2 + lamv[l][2] * a3
            it = (
                lamt[l][0] * a1 + lamv[l][0] * a1t
                + lamt[l][1] * a2 + lamv[l][1] * a2t
                + lamt[l][2] * a3 + lamv[l][2] * a3t
            )
            u_new = rho * (uv[l] - v_th * sv[l]) + iv
            u_tan = rho * (ut[l] - v_th * st[l]) + it
            if spike_identity:
                s_new, s_tan = u_new, u_tan
            else:
                s_new = (u_new >= v_th).astype(np.float64)
                s_tan = (np.abs(u_new - v_th) < a / 2.0) / a * u_tan

            sig = 1.0 / (1.0 + np.exp(-u_new))
            sig_t = sig * (1.0 - sig) * u_tan
            pv = sig + betav[l]
            pt = sig_t + betat[l]
            inc_v = etav[l] * np.outer(pv, sin_v)
            inc_t = etat[l] * np.outer(pv, sin_v) + etav[l] * (
                np.outer(pt, sin_v) + np.outer(pv, sin_t)
            )
            w2_new_v = decay * w2v[l] + inc_v
            w2_new_t = decay * w2t[l] + inc_t
            if includes_decay:
                dw2v[l] = w2_new_v - w2v[l]
                dw2t[l] = w2_new_t - w2t[l]
            else:
                dw2v[l], dw2t[l] = inc_v, inc_t
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

    shifted = counts_v - counts_v.max()
    probs = np.exp(shifted) / np.exp(shifted).sum()
    grad_counts = probs.copy()
    grad_counts[label] -= 1.0
    return float(grad_counts @ counts_t)


def reference_gradients(
    net: Network, x, label: int, t_steps: int, *, spike_identity: bool = False
) -> dict[str, np.ndarray]:
    """Loss gradients for every learnable, each from its own tangent pass,
    keyed like Network.named_parameters()."""

    def d(coord) -> float:
        return _window_loss_tangent(net, x, label, t_steps, coord, spike_identity)

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
