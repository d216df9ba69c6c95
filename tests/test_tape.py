import numpy as np
import numpy.testing as npt

from mpsl.gradcheck import group_error, random_trial_net
from mpsl.network import init_network
from mpsl.neuron import LifConfig
from mpsl.numerics import make_rng
from mpsl.plasticity import SbpParams
from mpsl.tape import backward, record_forward

from oracles import window_oracle


def zero_net(sizes, v_th=0.3, tau_w=40.0):
    return init_network(sizes, seed=0, lif=LifConfig(v_th=v_th), sbp=SbpParams(tau_w=tau_w),
                        zero_weights=True)


def test_zero_network_single_step():
    net = zero_net([3, 10])
    tape, counts = record_forward(net, np.zeros(3), 0, t_steps=1)
    npt.assert_array_equal(counts, np.zeros((1, 10)))
    assert len(tape.nodes) >= 4


def test_node_count_grows_linearly_in_window_length():
    net, x, label = random_trial_net(77)
    sizes = []
    for t in (2, 4, 6):
        tape, _ = record_forward(net, x, label, t_steps=t)
        sizes.append(len(tape.nodes))
    assert sizes[1] - sizes[0] == sizes[2] - sizes[1]


def test_dead_surrogate_means_zero_gradients():
    # v_th far above any reachable potential: no spikes, no active windows
    net, x, label = random_trial_net(9)
    net.lif = LifConfig(v_th=50.0, rho_m=0.5, a=1.0)
    tape, counts = record_forward(net, x, label, t_steps=3)
    npt.assert_array_equal(counts, np.zeros_like(counts))
    for name, grad in backward(tape).items():
        npt.assert_array_equal(grad, np.zeros_like(grad), err_msg=name)


def test_identity_spike_single_step_matches_closed_form():
    # one layer, T=1, only the gradient path active: O = W1 @ x, so
    # dL/dW1 = (softmax(O) - onehot) x^T and dlam1 = (softmax(O)-onehot) . (W1 x)
    rng = make_rng(13)
    net = zero_net([4, 3])
    net.layers[0].w1 = rng.normal(size=(3, 4))
    net.layers[0].lam = np.array([1.0, 0.0, 0.0])
    x = rng.uniform(size=4)
    label = 2
    tape, counts = record_forward(net, x, label, t_steps=1, spike_identity=True)
    grads = backward(tape)

    o = net.layers[0].w1 @ x
    npt.assert_allclose(counts[0], o, rtol=0, atol=1e-15)
    p = np.exp(o - o.max())
    p /= p.sum()
    p[label] -= 1.0
    npt.assert_allclose(grads["layers.0.w1"], np.outer(p, x), rtol=1e-10, atol=1e-12)
    npt.assert_allclose(float(grads["layers.0.lam"][0]), p @ o, rtol=1e-10, atol=1e-12)


def test_backward_is_deterministic():
    net, x, label = random_trial_net(21)
    tape, _ = record_forward(net, x, label, t_steps=3)
    first = backward(tape)
    second = backward(tape)
    for name in first:
        npt.assert_array_equal(first[name], second[name])


def test_gradient_locality_before_first_use():
    # seeding the traversal at layer 1's first spike leaves layer 2 untouched
    net, x, label = random_trial_net(33)
    tape, _ = record_forward(net, x, label, t_steps=3)
    s11 = next(node for node in tape.nodes if node.tag == "s[1,1]")
    grads = backward(tape, loss_grad=np.ones_like(s11.value), seed=s11)
    for name in ("layers.1.w1", "layers.1.lam", "layers.1.eta", "layers.1.beta",
                 "lambda_f", "lambda_p"):
        npt.assert_array_equal(grads[name], np.zeros_like(grads[name]), err_msg=name)
    # ... while layer 1's own weight matrix is reached
    assert np.abs(grads["layers.0.w1"]).max() > 0.0


def test_local_learnables_receive_gradient_through_recorded_updates():
    net, x, label = random_trial_net(45)
    tape, _ = record_forward(net, x, label, t_steps=3)
    grads = backward(tape)
    live = [abs(float(grads[f"layers.{i}.eta"])) + abs(float(grads[f"layers.{i}.beta"]))
            for i in range(len(net.layers))]
    assert max(live) > 0.0
    assert abs(float(grads["lambda_f"])) > 0.0
    assert abs(float(grads["lambda_p"])) > 0.0


def test_tape_window_matches_plasticity_rules_step_by_step():
    # the W2/W3 recorded after every timestep must equal the scalar-loop
    # oracle run for that many steps (step t never depends on later steps)
    net, x, label = random_trial_net(58)
    t_steps = 3
    tape, _ = record_forward(net, x, label, t_steps)
    nodes = {n.tag: n.value for n in tape.nodes if n.tag}

    layers = [{"w1": layer.w1.tolist(), "w2": layer.w2.tolist(), "w3": layer.w3.tolist(),
               "lam": layer.lam.tolist(), "eta": float(layer.eta), "beta": float(layer.beta)}
              for layer in net.layers]
    lif = {"v_th": net.lif.v_th, "rho_m": net.lif.rho_m, "dt": net.lif.dt}
    for t in range(1, t_steps + 1):
        w2, w3 = window_oracle(layers, [x.tolist()], t, lif, float(net.lambda_f),
                               float(net.lambda_p), net.sbp.tau_w,
                               net.sbp.delta_includes_decay)
        for l in range(len(net.layers)):
            npt.assert_allclose(nodes[f"w2[{t},{l + 1}]"], w2[l], rtol=0, atol=1e-15)
            npt.assert_allclose(nodes[f"w3[{t},{l + 1}]"], w3[l], rtol=0, atol=1e-15)


def test_batched_tape_with_identical_items_matches_single_item():
    # the batch-mean Hebbian increment of identical rows is the per-item
    # increment, so every row must reproduce the batch-of-one forward
    net, x, label = random_trial_net(61)
    xs = np.tile(x, (4, 1))
    labels = np.full(4, label)
    _tape, batch_counts = record_forward(net, xs, labels, t_steps=3)
    _single, counts = record_forward(net, x, label, t_steps=3)
    for b in range(4):
        npt.assert_allclose(batch_counts[b], counts[0], rtol=0, atol=0)


def test_group_error_handles_zero_pairs():
    assert group_error(np.zeros(3), np.zeros(3)) == 0.0
    assert group_error(np.array([1e-15]), np.array([0.0])) == 0.0
    assert group_error(np.array([1.0]), np.array([1.0 + 1e-7])) < 1.1e-7
