from collections import Counter

import numpy as np
import numpy.testing as npt

from mpsl.gradcheck import random_trial, run_gradcheck
from mpsl.neuron import LifConfig
from mpsl.plasticity import SbpParams
from mpsl.reference_grad import reference_gradients

from helpers import zero_network


def test_zero_network_has_zero_gradients():
    net = zero_network([3, 4, 2], LifConfig(), SbpParams())
    for name, grad in reference_gradients(net, np.zeros(3), 0, t_steps=2).items():
        npt.assert_array_equal(grad, np.zeros_like(grad), err_msg=name)


def test_tiny_net_hand_computed_lambda_sensitivity():
    # one unit, one step: U = lam1 * w * x, O = spike(U);   with the unit
    # spiking inside the surrogate window, d loss/d lam1 = (p0 - 1) * w * x
    net = zero_network([1, 1], LifConfig(v_th=0.3, a=1.0), SbpParams())
    net.layers[0].w1 = np.array([[0.8]])
    net.layers[0].lam = np.array([1.0, 0.0, 0.0])
    x = np.array([0.5])
    grads = reference_gradients(net, x, 0, t_steps=1)
    # counts = [1]; single class -> softmax prob 1, gradient of counts is 0
    assert float(grads["layers.0.lam"][0]) == 0.0

    net2 = zero_network([1, 2], LifConfig(v_th=0.3, a=1.0), SbpParams())
    net2.layers[0].w1 = np.array([[0.8], [0.0]])
    net2.layers[0].lam = np.array([1.0, 0.0, 0.0])
    grads2 = reference_gradients(net2, x, 0, t_steps=1)
    u = np.array([0.4, 0.0])
    counts = np.array([1.0, 0.0])
    p = np.exp(counts - counts.max())
    p /= p.sum()
    p[0] -= 1.0
    rect = (np.abs(u - 0.3) < 0.5) / 1.0
    expected = p @ (rect * np.array([0.8 * 0.5, 0.0]))
    npt.assert_allclose(float(grads2["layers.0.lam"][0]), expected, rtol=1e-12, atol=0)


def test_backward_agrees_with_oracle_on_random_networks():
    result = run_gradcheck(trials=10, seed=1234)
    assert result.passed, result.failures
    assert result.worst_err <= 1e-6


def test_gradcheck_draws_cover_the_training_shapes():
    # the default `mpsl gradcheck` trials reach batch > 1, depth 3, window
    # lengths 1 and 4 and a silent input, and hold at least 8 per-item steps
    # over 3 or more live items, whose third item starts from W2/W3 that two
    # items carried
    seen = Counter()
    for k in range(50):
        net, x, labels, t_steps, per_item = random_trial(20240501 + k)
        assert x.shape == (len(labels), net.layers[0].fan_in)
        seen.update({("depth", len(net.layers)), ("batch > 1", x.shape[0] > 1), ("T", t_steps),
                     ("silent", not x.any()),
                     ("per-item step over >= 3 live items",
                      per_item and x.shape[0] >= 3 and bool(x.any()))})
    quotas = {("depth", 2): 1, ("depth", 3): 1, ("batch > 1", True): 1, ("T", 1): 1,
              ("T", 4): 1, ("silent", True): 1, ("per-item step over >= 3 live items", True): 8}
    for case, least in quotas.items():
        assert seen[case] >= least, (case, seen[case])


def test_corrupted_surrogate_width_is_detected():
    result = run_gradcheck(trials=5, seed=99, surrogate_width_scale=1.5)
    assert not result.passed
