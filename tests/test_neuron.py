import numpy as np
import numpy.testing as npt
import pytest

from mpsl.network import init_network
from mpsl.neuron import LifConfig, fused_input, membrane_step, spike
from mpsl.numerics import make_rng
from mpsl.plasticity import MultiPathLayer, SbpParams
from mpsl.tape import backward, record_forward


def make_layer(w1, w2, w3, lam):
    return MultiPathLayer(
        w1=np.asarray(w1, dtype=np.float64),
        w2=np.asarray(w2, dtype=np.float64),
        w3=np.asarray(w3, dtype=np.float64),
        lam=np.asarray(lam, dtype=np.float64),
        eta=np.array(0.01),
        beta=np.array(0.0),
    )


def test_lif_config_validation():
    LifConfig().validate()
    with pytest.raises(ValueError):
        LifConfig(rho_m=0.0).validate()
    with pytest.raises(ValueError):
        LifConfig(rho_m=1.5).validate()
    with pytest.raises(ValueError):
        LifConfig(v_th=-1.0).validate()
    with pytest.raises(ValueError):
        LifConfig(a=0.0).validate()
    with pytest.raises(ValueError):
        LifConfig(dt=0.0).validate()


def test_spike_threshold_is_inclusive():
    cfg = LifConfig(v_th=0.3)
    npt.assert_array_equal(spike(np.array([0.5]), cfg), [1.0])
    npt.assert_array_equal(spike(np.array([0.3]), cfg), [1.0])
    npt.assert_array_equal(spike(np.array([0.29]), cfg), [0.0])


def test_membrane_step_hand_evaluated():
    cfg = LifConfig(v_th=0.3, rho_m=0.5)
    out = membrane_step(np.array([1.0]), np.array([1.0]), np.array([0.2]), cfg)
    npt.assert_allclose(out, [0.55], rtol=0, atol=1e-15)


def test_membrane_step_rest_state():
    cfg = LifConfig()
    z = np.zeros(3)
    npt.assert_array_equal(membrane_step(z, z, z, cfg), z)


def test_membrane_step_no_leak_identity():
    cfg = LifConfig(rho_m=1.0)
    u = np.array([0.1, -0.4, 0.2])
    npt.assert_array_equal(membrane_step(u, np.zeros(3), np.zeros(3), cfg), u)


def test_soft_reset_conservation_exact():
    cfg = LifConfig(v_th=0.3, rho_m=0.5)
    u = np.array([0.9, 1.7])
    ones = np.ones(2)
    out = membrane_step(u, ones, np.zeros(2), cfg)
    npt.assert_array_equal(out, cfg.rho_m * (u - cfg.v_th))


def surrogate_check(u0, a=1.0):
    """(dL/dW1[0, 0], its value with the surrogate at 1) for a 1 -> 2 layer,
    T = 1, label 1, whose unit 0 lands at potential u0 and unit 1 at 0.

    The spike derivative is the only factor between the two, so their ratio
    is the rectangular surrogate at u0."""
    net = init_network([1, 2], seed=0, lif=LifConfig(v_th=0.3, a=a), sbp=SbpParams(),
                       zero_weights=True)
    net.layers[0].w1 = np.array([[u0], [0.0]])
    net.layers[0].lam = np.array([1.0, 0.0, 0.0])
    tape, counts = record_forward(net, np.array([1.0]), 1, t_steps=1)
    assert tape.nodes[-1].tag == "loss"
    npt.assert_array_equal(next(n.value for n in tape.nodes if n.tag == "u[1,1]"), [[u0, 0.0]])
    p = np.exp(counts[0]) / np.exp(counts[0]).sum()
    return float(backward(tape)["layers.0.w1"][0, 0]), float(p[0])


def test_surrogate_window_boundary():
    grad, full = surrogate_check(0.79)
    assert full > 0.0 and grad == pytest.approx(full, rel=1e-12)
    grad, _ = surrogate_check(0.81)
    assert grad == 0.0
    grad, full = surrogate_check(0.3, a=2.0)
    assert grad == pytest.approx(0.5 * full, rel=1e-12)


def test_surrogate_support_is_open_interval():
    # exactly on the half-width boundary: outside the support
    for u0 in (0.8, -0.2):
        assert surrogate_check(u0)[0] == 0.0
    for u0 in (0.8 - 1e-12, -0.2 + 1e-12):
        grad, full = surrogate_check(u0)
        assert grad == pytest.approx(full, rel=1e-12)


def test_fused_input_single_active_path():
    layer = make_layer(np.eye(2), np.zeros((2, 2)), np.zeros((2, 2)), [1.0, 0.0, 0.0])
    npt.assert_array_equal(fused_input(layer, np.array([1.0, 0.0])), [1.0, 0.0])


def test_fused_input_hand_evaluated():
    layer = make_layer([[2.0]], [[2.0]], [[0.0]], [0.5, 0.5, 0.0])
    npt.assert_allclose(fused_input(layer, np.array([1.0])), [2.0], rtol=0, atol=1e-15)


def test_fused_input_equal_paths_convex_combination():
    rng = make_rng(5)
    w = rng.normal(size=(3, 4))
    equal = make_layer(w, w, w, [1 / 3, 1 / 3, 1 / 3])
    single = make_layer(w, np.zeros_like(w), np.zeros_like(w), [1.0, 0.0, 0.0])
    s = rng.uniform(size=4)
    npt.assert_allclose(fused_input(equal, s), fused_input(single, s), rtol=0, atol=1e-12)


def test_fused_input_linear_in_lambda():
    rng = make_rng(6)
    w1, w2, w3 = (rng.normal(size=(3, 5)) for _ in range(3))
    lam = rng.uniform(0.1, 1.0, size=3)
    s = rng.uniform(size=5)
    base = fused_input(make_layer(w1, w2, w3, lam), s)
    doubled = fused_input(make_layer(w1, w2, w3, 2.0 * lam), s)
    npt.assert_allclose(doubled, 2.0 * base, rtol=0, atol=1e-12)


def test_spiking_stays_binary_over_driven_sequences():
    cfg = LifConfig(v_th=0.3, rho_m=0.5)
    rng = make_rng(9)
    u = np.zeros(6)
    s = np.zeros(6)
    for _ in range(50):
        drive = rng.normal(scale=0.5, size=6)
        u = membrane_step(u, s, drive, cfg)
        s = spike(u, cfg)
        assert set(np.unique(s)) <= {0.0, 1.0}
        npt.assert_array_equal(s == 1.0, u >= cfg.v_th)


def test_window_traces_respect_invariants():
    rng = make_rng(14)
    net = init_network([6, 5, 3], seed=3, lif=LifConfig(), sbp=SbpParams())
    x = rng.uniform(size=(4, 6))
    tape, _ = record_forward(net, x, np.zeros(4, dtype=np.int64), t_steps=5)
    nodes = {n.tag: n for n in tape.nodes if n.tag}
    for t in range(1, 6):
        for l, fan_out in ((1, 5), (2, 3)):
            u, s = nodes[f"u[{t},{l}]"], nodes[f"s[{t},{l}]"]
            assert u.value.shape == s.value.shape == (4, fan_out)
            assert set(np.unique(s.value)) <= {0.0, 1.0}
            npt.assert_array_equal(s.value == 1.0, u.value >= net.lif.v_th)
            assert u.parents[2].value.shape == u.value.shape  # the fused input
