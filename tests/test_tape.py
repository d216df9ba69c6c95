"""The recorded window's reverse gives the same bytes each time it runs.

The window began as a generic tape, and this test keeps that file's name;
the rest of the window's tests are in test_window.py."""

import numpy.testing as npt

from mpsl.window import record_forward

from helpers import random_trial_net, window_gradients


def test_backward_is_deterministic():
    net, x, label = random_trial_net(21)
    window, _ = record_forward(net, x, label, t_steps=3)
    first = window_gradients(window)
    second = window_gradients(window)
    for name in first:
        npt.assert_array_equal(first[name], second[name])
