"""The W2 (Hebbian) and W3 (feedback) rules, checked on the recorded
training window that trainer.train_epoch runs."""

import math

import numpy as np
import numpy.testing as npt
import pytest

from mpsl.network import init_network
from mpsl.neuron import LifConfig
from mpsl.numerics import ShapeMismatchError, make_rng
from mpsl.plasticity import MultiPathLayer, SbpParams, merge_weights
from mpsl.tape import record_forward

from oracles import hebbian_oracle, sbp_oracle


def random_layer(rng, fan_in, fan_out, eta=0.01, beta=0.0):
    return MultiPathLayer(
        w1=rng.normal(size=(fan_out, fan_in)),
        w2=rng.normal(size=(fan_out, fan_in)),
        w3=rng.normal(size=(fan_out, fan_in)),
        lam=rng.uniform(0.1, 0.9, size=3),
        eta=np.array(eta),
        beta=np.array(beta),
    )


def gradient_path_net(sizes, w1s, sbp=None):
    """Zero-weight net driven by W1 alone (lam = [1, 0, 0]), beta = 0."""
    net = init_network(sizes, seed=0, lif=LifConfig(v_th=0.3), sbp=sbp or SbpParams(),
                       zero_weights=True)
    for layer, w1 in zip(net.layers, w1s):
        layer.w1 = np.asarray(w1, dtype=np.float64)
        layer.lam = np.array([1.0, 0.0, 0.0])
        layer.beta = np.array(0.0)
    return net


def window(net, x, t_steps=1):
    """Final (W2, W3) per layer after one recorded window on input x."""
    x = np.asarray(x, dtype=np.float64)
    labels = np.zeros(len(x) if x.ndim == 2 else 1, dtype=np.int64)
    tape, _ = record_forward(net, x, labels, t_steps)
    return [n.value for n in tape.final_w2], [n.value for n in tape.final_w3], tape


# potentials whose sigmoid is exactly 0.6 / 0.4; only the first reaches v_th = 0.3
U_HI, U_LO = math.log(0.6 / 0.4), math.log(0.4 / 0.6)


def feedback_net(lambda_f=0.5, lambda_p=0.5):
    """Layer 1 (1 -> 2) fires [1, 0] with Hebbian increment 0.01 * [[0.6], [0.4]];
    layer 2 (2 -> 3, silent) sees its increment in column 0 only, so the
    normalized column totals handed to layer 1 are exactly [1, 0]."""
    net = gradient_path_net([1, 2, 3], [[[U_HI], [U_LO]], np.zeros((3, 2))])
    net.lambda_f = np.array(lambda_f)
    net.lambda_p = np.array(lambda_p)
    return net


# --- hebbian rule ---------------------------------------------------------


def test_hebbian_hand_evaluated_outer_product():
    net = gradient_path_net([2, 2], [[[U_HI, 0.0], [U_LO, 0.0]]])
    w2, _, _ = window(net, [1.0, 0.0])
    npt.assert_allclose(w2[0], [[0.006, 0.0], [0.004, 0.0]], rtol=0, atol=1e-15)


def test_hebbian_pure_decay_without_presynaptic_activity():
    net = init_network([4, 3], seed=3, lif=LifConfig(), sbp=SbpParams(tau_w=40.0))
    w2_before = net.layers[0].w2.copy()
    w2, _, _ = window(net, np.zeros(4))
    npt.assert_allclose(w2[0], w2_before * math.exp(-1 / 40), rtol=0, atol=1e-15)


def test_decay_factor_values():
    assert SbpParams(tau_w=40.0).decay(1.0) == pytest.approx(0.975310, abs=1e-6)
    assert SbpParams(tau_w=200.0).decay(1.0) == pytest.approx(0.995012, abs=1e-6)


def test_hebbian_decay_fixed_point():
    # a silent input keeps every layer silent, so over a long window W2 only decays
    net = init_network([5, 4, 3], seed=8, lif=LifConfig(), sbp=SbpParams(tau_w=17.0))
    w2_0 = [layer.w2.copy() for layer in net.layers]
    k = 9
    w2, _, _ = window(net, np.zeros(5), t_steps=k)
    for got, start in zip(w2, w2_0):
        npt.assert_allclose(got, start * math.exp(-k / 17.0), rtol=1e-12, atol=0)


def test_hebbian_matches_bruteforce_oracle():
    rng = make_rng(21)
    for _ in range(25):
        fan_in, fan_out = (int(v) for v in rng.integers(1, 8, size=2))
        net = init_network([fan_in, fan_out], seed=int(rng.integers(1 << 31)),
                           lif=LifConfig(), sbp=SbpParams(tau_w=40.0))
        layer = net.layers[0]
        layer.eta = np.array(float(rng.uniform(0.001, 0.1)))
        layer.beta = np.array(float(rng.uniform(-0.5, 0.5)))
        w2_old = layer.w2.copy()
        s_prev = (rng.uniform(size=fan_in) < 0.5).astype(np.float64)
        w2, _, tape = window(net, s_prev)
        u_post = next(n.value[0] for n in tape.nodes if n.tag == "u[1,1]")
        expected = hebbian_oracle(
            w2_old.tolist(), s_prev.tolist(), u_post.tolist(),
            float(layer.eta), float(layer.beta), 40.0, 1.0,
        )
        assert np.abs(w2[0] - np.array(expected)).max() <= 1e-12


def test_hebbian_pure_increment_mode():
    # the top layer's feedback step receives the bare increment, not W2_new - W2_old
    sbp = SbpParams(tau_w=40.0, delta_includes_decay=False)
    net = init_network([3, 2], seed=22, lif=LifConfig(), sbp=sbp)
    layer = net.layers[0]
    w2_old, w3_old = layer.w2.copy(), layer.w3.copy()
    s_prev = np.array([1.0, 0.0, 1.0])
    w2, w3, tape = window(net, s_prev)
    u_post = next(n.value[0] for n in tape.nodes if n.tag == "u[1,1]")
    increment = float(layer.eta) * np.outer(1 / (1 + np.exp(-u_post)) + float(layer.beta), s_prev)
    decay = sbp.decay(1.0)
    npt.assert_allclose(w2[0], w2_old * decay + increment, rtol=0, atol=1e-15)
    npt.assert_allclose(w3[0], w3_old * decay + float(net.lambda_f) * increment,
                        rtol=0, atol=1e-15)


# --- feedback (sbp) rule ---------------------------------------------------


def test_feedback_modulation_hand_evaluated():
    # modulation lambda_f * (1 + lambda_p * [1, 0]) = [0.75, 0.5] scales the rows
    # of layer 1's increment [[0.006], [0.004]]
    _, w3, _ = window(feedback_net(lambda_f=0.5, lambda_p=0.5), [1.0])
    npt.assert_allclose(w3[0], [[0.0045], [0.002]], rtol=0, atol=1e-15)


def test_feedback_modulation_without_pull():
    # lambda_p = 0 (below the trained range) kills the data term
    _, w3, _ = window(feedback_net(lambda_f=0.4, lambda_p=0.0), [1.0])
    npt.assert_allclose(w3[0], [[0.4 * 0.006], [0.4 * 0.004]], rtol=0, atol=1e-15)


def test_feedback_top_layer_convention():
    # the top layer has no upstream increment: its modulation is lambda_f alone
    net = feedback_net(lambda_f=0.7, lambda_p=0.3)
    w2, w3, _ = window(net, [1.0])
    npt.assert_allclose(w3[1], 0.7 * w2[1], rtol=0, atol=1e-15)
    assert np.abs(w3[1]).max() > 0.0


def test_feedback_degenerate_normalization():
    # layer 1 stays silent; layer 2's W2 = [[1, -1], [-1, 1]] then decays with
    # column totals cancelling exactly, so the modulation falls back to lambda_f
    net = gradient_path_net([1, 2, 2], [[[0.1], [-0.2]], np.zeros((2, 2))])
    net.lambda_f = np.array(0.5)
    net.lambda_p = np.array(0.9)
    net.layers[1].w2 = np.array([[1.0, -1.0], [-1.0, 1.0]])
    w2, w3, _ = window(net, [1.0])
    npt.assert_array_equal(w3[0], 0.5 * w2[0])
    assert np.abs(w3[0]).max() > 0.0


def test_feedback_modulation_range_for_nonnegative_totals():
    # non-negative increments give column shares in [0, 1], so each row of
    # layer 1's W3 (from zero) is its increment scaled into [lf, lf * (1 + lp)]
    rng = make_rng(30)
    checked = 0
    for _ in range(50):
        sizes = [int(v) for v in rng.integers(1, 8, size=3)]
        net = init_network(sizes, seed=int(rng.integers(1 << 31)), lif=LifConfig(),
                           sbp=SbpParams(delta_includes_decay=False))
        for layer in net.layers:
            layer.w2 = np.zeros_like(layer.w2)
            layer.w3 = np.zeros_like(layer.w3)
            layer.beta = np.array(float(rng.uniform(0.0, 0.5)))
        lf, lp = float(rng.uniform(0.1, 1.0)), float(rng.uniform(0.1, 1.0))
        net.lambda_f, net.lambda_p = np.array(lf), np.array(lp)
        w2, w3, _ = window(net, (rng.uniform(size=sizes[0]) < 0.6).astype(np.float64))
        live = w2[0] > 0.0
        ratio = w3[0][live] / w2[0][live]
        assert np.all(ratio >= lf - 1e-12)
        assert np.all(ratio <= lf * (1 + lp) + 1e-12)
        checked += int(live.sum())
    assert checked > 0


def test_feedback_update_without_hebbian_signal_is_pure_decay():
    # silent input and bare increments: layer 1's increment is zero
    net = init_network([4, 3, 5], seed=31, lif=LifConfig(),
                       sbp=SbpParams(tau_w=40.0, delta_includes_decay=False))
    w3_before = net.layers[0].w3.copy()
    _, w3, _ = window(net, np.zeros(4))
    npt.assert_allclose(w3[0], w3_before * SbpParams(tau_w=40.0).decay(1.0), rtol=0, atol=1e-15)


def test_feedback_update_hand_evaluated_row_scaling():
    # as feedback_net, with two inputs: layer 1's increment 0.01 * [[0.6, 0.6],
    # [0.4, 0.4]] has each row scaled by its own modulation 0.4 * (1 + 0.25 * [1, 0])
    # = [0.5, 0.4], on top of the decayed W3 it started from
    net = gradient_path_net([2, 2, 3], [[[U_HI, 0.0], [0.0, U_LO]], np.zeros((3, 2))])
    net.lambda_f = np.array(0.4)
    net.lambda_p = np.array(0.25)
    w3_old = np.array([[1.0, -1.0], [2.0, 0.0]])
    net.layers[0].w3 = w3_old.copy()
    _, w3, _ = window(net, [1.0, 1.0])
    expected = w3_old * math.exp(-1 / 40) + [[0.003, 0.003], [0.0016, 0.0016]]
    npt.assert_allclose(w3[0], expected, rtol=0, atol=1e-15)


def test_feedback_update_matches_bruteforce_oracle():
    rng = make_rng(32)
    for _ in range(25):
        sizes = [int(v) for v in rng.integers(1, 8, size=3)]
        tau_w = float(rng.uniform(5.0, 200.0))
        net = init_network(sizes, seed=int(rng.integers(1 << 31)), lif=LifConfig(),
                           sbp=SbpParams(tau_w=tau_w))
        net.lambda_f = np.array(float(rng.uniform(0.1, 1.0)))
        net.lambda_p = np.array(float(rng.uniform(0.1, 1.0)))
        w2_old = [layer.w2.copy() for layer in net.layers]
        w3_old = [layer.w3.copy() for layer in net.layers]
        w2, w3, _ = window(net, (rng.uniform(size=sizes[0]) < 0.6).astype(np.float64))
        dw2 = [new - old for new, old in zip(w2, w2_old)]
        for l in (1, 0):
            expected = sbp_oracle(
                w3_old[l].tolist(), dw2[l].tolist(),
                dw2[l + 1].tolist() if l + 1 < len(dw2) else None,
                float(net.lambda_f), float(net.lambda_p), tau_w, 1.0,
            )
            assert np.abs(w3[l] - np.array(expected)).max() <= 1e-12


def test_layer_shape_mismatch_is_fatal():
    rng = make_rng(33)
    with pytest.raises(ShapeMismatchError):
        MultiPathLayer(w1=np.zeros((3, 4)), w2=np.zeros((3, 4)), w3=np.zeros((5, 7)),
                       lam=np.full(3, 1 / 3), eta=np.array(0.01), beta=np.array(0.0))
    net = init_network([4, 3, 5], seed=33, lif=LifConfig(), sbp=SbpParams())
    with pytest.raises(ShapeMismatchError):
        record_forward(net, rng.uniform(size=7), 0, t_steps=1)


# --- merge -----------------------------------------------------------------


def test_merge_equal_matrices_convexity():
    rng = make_rng(40)
    m = rng.normal(size=(3, 4))
    layer = MultiPathLayer(
        w1=m.copy(), w2=m.copy(), w3=m.copy(),
        lam=np.full(3, 1 / 3), eta=np.array(0.01), beta=np.array(0.0),
    )
    npt.assert_allclose(merge_weights(layer), m, rtol=0, atol=1e-15)


def test_merge_single_path():
    rng = make_rng(41)
    layer = random_layer(rng, 4, 3)
    layer.lam = np.array([1.0, 0.0, 0.0])
    npt.assert_array_equal(merge_weights(layer), layer.w1)


def test_merge_hand_evaluated():
    layer = MultiPathLayer(
        w1=np.array([[1.0]]), w2=np.array([[2.0]]), w3=np.array([[3.0]]),
        lam=np.array([0.5, 0.3, 0.2]), eta=np.array(0.01), beta=np.array(0.0),
    )
    npt.assert_allclose(merge_weights(layer), [[1.7]], rtol=0, atol=1e-15)


def test_merge_equivalence_with_fused_input():
    from mpsl.neuron import fused_input

    rng = make_rng(42)
    for _ in range(50):
        fan_in, fan_out = rng.integers(1, 10, size=2)
        layer = random_layer(rng, fan_in, fan_out)
        s = rng.uniform(size=fan_in)
        merged = merge_weights(layer) @ s
        npt.assert_allclose(merged, fused_input(layer, s), rtol=0, atol=1e-9)


def test_sbp_config_validation():
    SbpParams().validate()
    with pytest.raises(ValueError):
        SbpParams(lambda_f=0.05).validate()
    with pytest.raises(ValueError):
        SbpParams(lambda_p=1.2).validate()
    with pytest.raises(ValueError):
        SbpParams(tau_w=0.0).validate()
