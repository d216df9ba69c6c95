"""Brute-force elementwise oracles for the local plasticity rules.

Scalar loops over plain Python lists, written directly from the update
definitions; deliberately independent of the library's numpy paths.
"""

import math


def hebbian_oracle(w2_old, s_prev, u_post, eta, beta, tau_w, dt):
    fan_out, fan_in = len(w2_old), len(w2_old[0])
    decay = math.exp(-dt / tau_w)
    new = [[0.0] * fan_in for _ in range(fan_out)]
    for j in range(fan_out):
        bounded = 1.0 / (1.0 + math.exp(-u_post[j]))
        for i in range(fan_in):
            new[j][i] = w2_old[j][i] * decay + eta * s_prev[i] * (bounded + beta)
    return new


def sbp_oracle(w3_old, dw2_here, dw2_next, lambda_f, lambda_p, tau_w, dt, coverage=None):
    """coverage, when given, counts top-layer and degenerate-normalization steps."""
    fan_out, fan_in = len(w3_old), len(w3_old[0])
    decay = math.exp(-dt / tau_w)
    if dw2_next is None:
        if coverage is not None:
            coverage["top layer"] += 1
        diag = [lambda_f] * fan_out
    else:
        totals = [0.0] * fan_out
        for row in dw2_next:
            for i in range(fan_out):
                totals[i] += row[i]
        s = sum(totals)
        if abs(s) < 1e-8:
            if coverage is not None:
                coverage["degenerate normalization"] += 1
            share = [0.0] * fan_out
        else:
            share = [t / s for t in totals]
        diag = [lambda_f * (1.0 + lambda_p * share[j]) for j in range(fan_out)]
    new = [[0.0] * fan_in for _ in range(fan_out)]
    for j in range(fan_out):
        for i in range(fan_in):
            new[j][i] = w3_old[j][i] * decay + diag[j] * dw2_here[j][i]
    return new


def window_oracle(layers, xs, t_steps, lif, lambda_f, lambda_p, tau_w, includes_decay,
                  coverage=None):
    """One training window over the batch xs (a list of input vectors).

    layers is a list of dicts holding w1, w2, w3 (lists of rows), lam (3
    numbers), eta and beta. Per timestep: for layers 1..L the fused input,
    the LIF step and the batch-mean Hebbian step on W2; then the feedback
    step on W3 for layers L..1. Returns the final (w2, w3) of every layer.
    includes_decay hands the feedback step W2_new - W2_old, as training
    does; False hands it the bare Hebbian increment, a rule that training
    does not run, which serves as a negative control.
    """
    v_th, rho_m, dt = lif["v_th"], lif["rho_m"], lif["dt"]
    decay = math.exp(-dt / tau_w)
    batch = len(xs)
    w2 = [[row[:] for row in layer["w2"]] for layer in layers]
    w3 = [[row[:] for row in layer["w3"]] for layer in layers]
    u = [[[0.0] * len(layer["w1"]) for _ in range(batch)] for layer in layers]
    s = [[[0.0] * len(layer["w1"]) for _ in range(batch)] for layer in layers]
    for _t in range(t_steps):
        s_in = [list(x) for x in xs]
        dw2 = []
        for l, layer in enumerate(layers):
            lam, eta, beta = layer["lam"], layer["eta"], layer["beta"]
            paths = (layer["w1"], w2[l], w3[l])
            fan_out, fan_in = len(layer["w1"]), len(layer["w1"][0])
            for b in range(batch):
                for j in range(fan_out):
                    drive = 0.0
                    for k in range(3):
                        drive += lam[k] * sum(paths[k][j][i] * s_in[b][i] for i in range(fan_in))
                    u[l][b][j] = rho_m * (u[l][b][j] - s[l][b][j] * v_th) + drive
                    s[l][b][j] = 1.0 if u[l][b][j] >= v_th else 0.0
            new = [[0.0] * fan_in for _ in range(fan_out)]
            step = [[0.0] * fan_in for _ in range(fan_out)]
            for j in range(fan_out):
                for i in range(fan_in):
                    total = 0.0
                    for b in range(batch):
                        bounded = 1.0 / (1.0 + math.exp(-u[l][b][j]))
                        total += (bounded + beta) * s_in[b][i]
                    increment = eta * total / batch
                    new[j][i] = w2[l][j][i] * decay + increment
                    step[j][i] = new[j][i] - w2[l][j][i] if includes_decay else increment
            w2[l] = new
            dw2.append(step)
            s_in = s[l]
        for l in reversed(range(len(layers))):
            upper = dw2[l + 1] if l + 1 < len(layers) else None
            w3[l] = sbp_oracle(w3[l], dw2[l], upper, lambda_f, lambda_p, tau_w, dt, coverage)
    return w2, w3
