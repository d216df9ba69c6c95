import numpy as np
import numpy.testing as npt

from mpsl.gradcheck import group_error, random_trial_net, run_gradcheck
from mpsl.network import init_network
from mpsl.neuron import LifConfig
from mpsl.plasticity import SbpParams
from mpsl.reference_grad import reference_gradients
from mpsl.tape import backward, record_forward


def test_zero_network_has_zero_gradients():
    net = init_network([3, 4, 2], seed=0, lif=LifConfig(), sbp=SbpParams(), zero_weights=True)
    for name, grad in reference_gradients(net, np.zeros(3), 0, t_steps=2).items():
        npt.assert_array_equal(grad, np.zeros_like(grad), err_msg=name)


def test_tiny_net_hand_computed_lambda_sensitivity():
    # one unit, one step: U = lam1 * w * x, O = spike(U);   with the unit
    # spiking inside the surrogate window, d loss/d lam1 = (p0 - 1) * w * x
    net = init_network([1, 1], seed=0, lif=LifConfig(v_th=0.3, a=1.0), sbp=SbpParams(),
                       zero_weights=True)
    net.layers[0].w1 = np.array([[0.8]])
    net.layers[0].lam = np.array([1.0, 0.0, 0.0])
    x = np.array([0.5])
    grads = reference_gradients(net, x, 0, t_steps=1)
    # counts = [1]; single class -> softmax prob 1, gradient of counts is 0
    assert float(grads["layers.0.lam"][0]) == 0.0

    net2 = init_network([1, 2], seed=0, lif=LifConfig(v_th=0.3, a=1.0), sbp=SbpParams(),
                        zero_weights=True)
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


def test_agreement_in_pure_increment_mode():
    net, x, label = random_trial_net(301)
    net.sbp.delta_includes_decay = False
    tape, _ = record_forward(net, x, label, t_steps=3)
    got = backward(tape)
    want = reference_gradients(net, x, label, t_steps=3)
    for name in got:
        assert group_error(got[name], want[name]) <= 1e-6, name


def test_agreement_with_identity_spike_double():
    net, x, label = random_trial_net(57)
    tape, _ = record_forward(net, x, label, t_steps=2, spike_identity=True)
    got = backward(tape)
    want = reference_gradients(net, x, label, t_steps=2, spike_identity=True)
    for name in got:
        assert group_error(got[name], want[name]) <= 1e-6, name


def test_corrupted_surrogate_width_is_detected():
    result = run_gradcheck(trials=5, seed=99, surrogate_width_scale=1.5)
    assert not result.passed
