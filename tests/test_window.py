"""The recorded training window (mpsl.window): forward results, the reverse,
and the independence of windows alive at the same time."""

import math
import tracemalloc

import numpy as np
import numpy.testing as npt

from mpsl.gradcheck import group_error
from mpsl.network import init_network
from mpsl.neuron import LifConfig
from mpsl.numerics import make_rng
from mpsl.plasticity import SbpParams
from mpsl.window import backward, record_forward

from helpers import random_trial_net, window_gradients, zero_network
from oracles import window_oracle


def zero_net(sizes, v_th=0.3, tau_w=40.0):
    return zero_network(sizes, LifConfig(v_th=v_th), SbpParams(tau_w=tau_w))


def test_zero_network_single_step():
    net = zero_net([3, 10])
    window, counts = record_forward(net, np.zeros(3), 0, t_steps=1)
    npt.assert_array_equal(counts, np.zeros((1, 10)))
    assert window.loss_value == math.log(10)
    assert window.u[0].shape == window.s[0].shape == (1, 1, 10)


def test_dead_surrogate_means_zero_gradients():
    # v_th far above any reachable potential: no spikes, no active windows
    net, x, label = random_trial_net(9)
    net.lif = LifConfig(v_th=50.0, rho_m=0.5, a=1.0)
    window, counts = record_forward(net, x, label, t_steps=3)
    npt.assert_array_equal(counts, np.zeros_like(counts))
    for name, grad in window_gradients(window).items():
        npt.assert_array_equal(grad, np.zeros_like(grad), err_msg=name)


def test_backward_is_deterministic():
    net, x, label = random_trial_net(21)
    window, _ = record_forward(net, x, label, t_steps=3)
    first = window_gradients(window)
    second = window_gradients(window)
    for name in first:
        npt.assert_array_equal(first[name], second[name])


def test_binary_spike_single_step_matches_closed_form():
    # one layer, T=1, only the gradient path active: U = W1 @ x and O =
    # spike(U), so with the rectangular surrogate rect(U) = 1/a on
    # |U - v_th| < a/2, g = (softmax(O) - onehot) * rect(U) gives
    # dL/dW1 = g x^T and dlam1 = g . (W1 x)
    rng = make_rng(13)
    net = zero_net([4, 6])
    net.layers[0].w1 = rng.normal(scale=0.5, size=(6, 4))
    net.layers[0].lam = np.array([1.0, 0.0, 0.0])
    x = rng.uniform(size=4)
    label = 2
    window, counts = record_forward(net, x, label, t_steps=1)
    grads = window_gradients(window)

    lif = net.lif
    u = net.layers[0].w1 @ x
    npt.assert_array_equal(counts[0], u >= lif.v_th)
    rect = (np.abs(u - lif.v_th) < lif.a / 2.0) / lif.a
    # spiking and silent units, each inside and outside the window
    assert {(bool(s), bool(r)) for s, r in zip(counts[0], rect)} == {
        (True, True), (True, False), (False, True), (False, False)}
    p = np.exp(counts[0] - counts[0].max())
    p /= p.sum()
    p[label] -= 1.0
    g = p * rect
    npt.assert_allclose(grads["layers.0.w1"], np.outer(g, x), rtol=1e-10, atol=1e-12)
    npt.assert_allclose(float(grads["layers.0.lam"][0]), g @ u, rtol=1e-10, atol=1e-12)


def test_gradient_locality_before_first_use():
    # the local rules' updates reach the loss only from the second step on:
    # the step-T update is never used
    local = ("layers.0.eta", "layers.0.beta", "layers.1.eta", "layers.1.beta",
             "lambda_f", "lambda_p")
    for seed in range(20):
        net, x, label = random_trial_net(seed)
        one = window_gradients(record_forward(net, x, label, t_steps=1)[0])
        for name in local:
            assert one[name] == 0.0, (seed, name)
        assert np.abs(one["layers.0.w1"]).max() > 0.0, seed
        two = window_gradients(record_forward(net, x, label, t_steps=2)[0])
        assert any(two[name] != 0.0 for name in local), seed


def test_local_learnables_receive_gradient_through_recorded_updates():
    net, x, label = random_trial_net(45)
    window, _ = record_forward(net, x, label, t_steps=3)
    grads = window_gradients(window)
    live = [abs(float(grads[f"layers.{i}.eta"])) + abs(float(grads[f"layers.{i}.beta"]))
            for i in range(len(net.layers))]
    assert max(live) > 0.0
    assert abs(float(grads["lambda_f"])) > 0.0
    assert abs(float(grads["lambda_p"])) > 0.0


def test_window_matches_plasticity_rules_step_by_step():
    # windows of length t = 1..3 must leave the W2/W3 of the scalar-loop
    # oracle run for that many steps
    net, x, label = random_trial_net(58)
    layers = [{"w1": layer.w1.tolist(), "w2": layer.w2.tolist(), "w3": layer.w3.tolist(),
               "lam": layer.lam.tolist(), "eta": float(layer.eta), "beta": float(layer.beta)}
              for layer in net.layers]
    lif = {"v_th": net.lif.v_th, "rho_m": net.lif.rho_m, "dt": net.lif.dt}
    for t in range(1, 4):
        window, _ = record_forward(net, x, label, t)
        w2, w3 = window_oracle(layers, [x.tolist()], t, lif, float(net.lambda_f),
                               float(net.lambda_p), net.sbp.tau_w, True)
        for l in range(len(net.layers)):
            npt.assert_allclose(window.final_w2[l], w2[l], rtol=0, atol=1e-15)
            npt.assert_allclose(window.final_w3[l], w3[l], rtol=0, atol=1e-15)


def test_batched_window_with_identical_items_matches_single_item():
    # the batch-mean Hebbian increment of identical rows is the per-item
    # increment, so every row must reproduce the batch-of-one forward
    net, x, label = random_trial_net(61)
    xs = np.tile(x, (4, 1))
    labels = np.full(4, label)
    _window, batch_counts = record_forward(net, xs, labels, t_steps=3)
    _single, counts = record_forward(net, x, label, t_steps=3)
    for b in range(4):
        npt.assert_allclose(batch_counts[b], counts[0], rtol=0, atol=0)


def test_group_error_handles_zero_pairs():
    assert group_error(np.zeros(3), np.zeros(3)) == 0.0
    assert group_error(np.array([1e-15]), np.array([0.0])) == 0.0
    assert group_error(np.array([1.0]), np.array([1.0 + 1e-7])) < 1.1e-7


def test_windows_alive_together_keep_their_own_state():
    # each window owns its arrays: windows recorded before either is
    # reversed reverse as each one alone, and no returned array changes when
    # later windows run
    net, x, label = random_trial_net(70)
    x2 = make_rng(70).uniform(size=x.shape)
    alone = []
    for inp in (x, x2):
        window, counts = record_forward(net, inp, label, t_steps=3)
        results = [counts, *window_gradients(window).values(), *window.final_w2,
                   *window.final_w3]
        alone.append((results, [r.copy() for r in results]))
        del window
    first = record_forward(net, x, label, t_steps=3)
    second = record_forward(net, x2, label, t_steps=3)
    for (window, counts), (results, copies) in zip((second, first), reversed(alone)):
        again = [counts, *window_gradients(window).values(), *window.final_w2,
                 *window.final_w3]
        for got, kept, want in zip(again, results, copies):
            npt.assert_array_equal(got, want)
            npt.assert_array_equal(kept, want)


def test_desk_window_peak_memory():
    # layer 1 keeps its plastic state as [batch x units] drives: one window
    # at the desk shape (784-256-10, T=8, batch 100) peaks below 30 MB,
    # where per-step 256x784 W2/W3 histories took 78 MB
    rng = make_rng(8)
    net = init_network([784, 256, 10], seed=1, lif=LifConfig(), sbp=SbpParams())
    x = (rng.uniform(size=(100, 784)) < 0.2) * rng.uniform(size=(100, 784))
    labels = rng.integers(10, size=100)
    tracemalloc.start()
    try:
        window, _ = record_forward(net, x, labels, t_steps=8)
        backward(window)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 30e6, peak
