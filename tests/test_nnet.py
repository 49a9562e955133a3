import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import adam_brute, finite_diff_grad
from survmix.errors import ShapeError, TrainingError
from survmix.nnet import (
    ADAM_BLOCK,
    AdamState,
    DenseNet,
    adam_step,
    net_backward,
    net_forward,
)


def random_net(widths, rng):
    # Glorot-uniform weights and zero biases for the width chain [in, ..., out]
    limits = [np.sqrt(6.0 / (a + b)) for a, b in zip(widths, widths[1:])]
    weights = [rng.uniform(-lim, lim, (a, b)) for lim, a, b in zip(limits, widths, widths[1:])]
    return DenseNet(weights, [np.zeros(b) for b in widths[1:]])


def identity_layer_net(d):
    # one layer, so it is the net's linear output layer
    return DenseNet([np.eye(d)], [np.zeros(d)])


def relu_then_identity_net(d):
    # a relu hidden layer between two identity matrices
    return DenseNet([np.eye(d), np.eye(d)], [np.zeros(d), np.zeros(d)])


def backward(net, posts, upstream, input_grad=True):
    """net_backward into NaN-filled arrays, so an entry it does not write
    shows: (weight grads, bias grads, input grad)."""
    grads = DenseNet([np.full_like(w, np.nan) for w in net.weights],
                     [np.full_like(b, np.nan) for b in net.biases])
    dx = net_backward(net, posts, upstream, grads, input_grad)
    return grads.weights, grads.biases, dx


class TestForward:
    def test_identity_layer(self):
        net = identity_layer_net(2)
        out, _ = net_forward(net, [[1.0, 2.0]])
        np.testing.assert_array_equal(out, [[1.0, 2.0]])

    def test_relu_layer(self):
        net = relu_then_identity_net(2)
        out, posts = net_forward(net, [[-1.0, 3.0]])
        np.testing.assert_array_equal(posts[0], [[-1.0, 3.0]])  # the input
        np.testing.assert_array_equal(posts[1], [[0.0, 3.0]])
        np.testing.assert_array_equal(out, [[0.0, 3.0]])

    def test_stack_is_input_and_each_layer_output(self):
        # one array per layer (after its relu) plus the input: depth + 1
        rng = np.random.default_rng(2)
        net = random_net([4, 5, 6, 3], rng)
        X = rng.standard_normal((7, 4))
        out, posts = net_forward(net, X)
        assert len(posts) == len(net.weights) + 1 == 4
        assert posts[0].tobytes() == X.tobytes() and out is posts[-1]
        h = X
        for i, (W, b) in enumerate(zip(net.weights, net.biases)):
            h = h @ W + b
            if i < 2:
                h = np.maximum(h, 0.0)
            assert posts[i + 1].tobytes() == h.tobytes(), i

    def test_output_layer_is_linear(self):
        net = relu_then_identity_net(2)
        net.biases[1][:] = -5.0
        out, _ = net_forward(net, [[-1.0, 3.0]])
        np.testing.assert_array_equal(out, [[-5.0, -2.0]])

    def test_two_layer_matches_scalar_recomputation(self):
        rng = np.random.default_rng(3)
        net = random_net([2, 3, 1], rng)
        x = np.array([[0.4, -1.2]])
        out, _ = net_forward(net, x)
        # scalar re-evaluation
        h = [max(0.0, sum(x[0][i] * net.weights[0][i, j] for i in range(2)) + net.biases[0][j])
             for j in range(3)]
        y = sum(h[j] * net.weights[1][j, 0] for j in range(3)) + net.biases[1][0]
        assert out[0, 0] == pytest.approx(y, rel=1e-12)

    def test_width_mismatch(self):
        net = identity_layer_net(2)
        with pytest.raises(ShapeError):
            net_forward(net, [[1.0, 2.0, 3.0]])

    def test_one_dimensional_batch_rejected(self):
        with pytest.raises(ShapeError, match=r"^expected 2-d batch, got shape \(2,\)$"):
            net_forward(identity_layer_net(2), [1.0, 2.0])

    def test_batch_equals_rowwise(self):
        rng = np.random.default_rng(0)
        net = random_net([3, 5, 2], rng)
        X = rng.standard_normal((7, 3))
        batch, _ = net_forward(net, X)
        rows = np.vstack([net_forward(net, X[i : i + 1])[0] for i in range(7)])
        np.testing.assert_allclose(batch, rows, rtol=1e-12, atol=1e-15)


class TestBackward:
    def test_identity_layer_grads(self):
        net = identity_layer_net(2)
        X = np.array([[1.0, 2.0], [3.0, 4.0]])
        _, posts = net_forward(net, X)
        wg, bg, dx = backward(net, posts, np.ones((2, 2)))
        np.testing.assert_array_equal(wg[0], X.T @ np.ones((2, 2)))
        np.testing.assert_array_equal(bg[0], [2.0, 2.0])
        np.testing.assert_array_equal(dx, np.ones((2, 2)))

    def test_relu_kills_negative_preactivation(self):
        net = relu_then_identity_net(1)
        _, posts = net_forward(net, [[-2.0]])
        wg, bg, dx = backward(net, posts, [[1.0]])
        # the output layer passes its gradient through; the hidden relu stops it
        assert bg[1][0] == 1.0
        assert wg[0][0, 0] == 0.0 and bg[0][0] == 0.0 and dx[0, 0] == 0.0

    def test_upstream_shape_checked(self):
        net = identity_layer_net(2)
        _, posts = net_forward(net, [[1.0, 2.0]])
        with pytest.raises(ShapeError):
            backward(net, posts, np.ones((3, 2)))

    def test_stack_depth_checked(self):
        net = relu_then_identity_net(2)
        _, posts = net_forward(net, [[1.0, 2.0]])
        with pytest.raises(ShapeError, match="^stack does not match network depth$"):
            backward(net, posts[1:], np.ones((1, 2)))

    def test_without_input_grad_same_parameter_grads(self):
        rng = np.random.default_rng(4)
        net = random_net([5, 4, 3], rng)
        _, posts = net_forward(net, rng.standard_normal((6, 5)))
        upstream = rng.standard_normal((6, 3))
        wg, bg, dx = backward(net, posts, upstream)
        wg2, bg2, dx2 = backward(net, posts, upstream, input_grad=False)
        assert dx.shape == (6, 5) and dx2 is None
        for a, b in zip(wg + bg, wg2 + bg2):
            assert a.tobytes() == b.tobytes()

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        net = random_net([3, 4, 2], rng)
        X = rng.standard_normal((5, 3))
        target = rng.standard_normal((5, 2))

        def loss(params):
            out, _ = net_forward(net, X)
            return 0.5 * np.sum((out - target) ** 2)

        out, posts = net_forward(net, X)
        wg, bg, _ = backward(net, posts, out - target)
        params = {}
        for i in range(2):
            params[f"W{i}"] = net.weights[i]
            params[f"b{i}"] = net.biases[i]
        fd = finite_diff_grad(loss, params, eps=1e-5)
        for i in range(2):
            np.testing.assert_allclose(wg[i], fd[f"W{i}"], rtol=1e-5, atol=1e-8)
            np.testing.assert_allclose(bg[i], fd[f"b{i}"], rtol=1e-5, atol=1e-8)

    @pytest.mark.parametrize("widths", [[4, 3], [4, 5, 5, 3]], ids=["one_layer", "three_layers"])
    def test_inputs_not_written(self, widths):
        # with one layer the weight gradient reads upstream itself; deeper,
        # the relu mask is applied in place to later deltas only
        rng = np.random.default_rng(6)
        net = random_net(widths, rng)
        _, posts = net_forward(net, rng.standard_normal((6, 4)))
        upstream = rng.standard_normal((6, 3))
        before = [a.copy() for a in (upstream, *posts)]
        backward(net, posts, upstream)
        for a, b in zip((upstream, *posts), before):
            assert a.tobytes() == b.tobytes()

    def test_bitwise_equal_to_pre_activation_backward(self):
        # the relu mask read from the layer outputs is the one the
        # pre-activations give, so the gradients are those of the
        # textbook pass that keeps the pre-activations, bit for bit
        rng = np.random.default_rng(7)
        net = random_net([5, 4, 4, 3], rng)
        X = rng.standard_normal((6, 5))
        X[0, :] = 0.0  # exact zeros in the first hidden layer's input
        upstream = rng.standard_normal((6, 3))
        pres, ins = [], [X]
        for i, (W, b) in enumerate(zip(net.weights, net.biases)):
            pres.append(ins[-1] @ W + b)
            ins.append(np.maximum(pres[-1], 0.0))
        delta, ref_w, ref_b = upstream, [], []
        for i in reversed(range(3)):
            if i < 2:
                delta = delta * (pres[i] > 0.0)
            ref_w.insert(0, ins[i].T @ delta)
            ref_b.insert(0, delta.sum(axis=0))
            delta = delta @ net.weights[i].T
        _, posts = net_forward(net, X)
        wg, bg, dx = backward(net, posts, upstream)
        for a, b in zip(wg + bg + [dx], ref_w + ref_b + [delta]):
            assert a.tobytes() == b.tobytes()


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    widths=st.lists(st.integers(1, 8), min_size=2, max_size=4),
)
def test_backward_matches_finite_diff_property(seed, widths):
    rng = np.random.default_rng(seed)
    net = random_net(widths, rng)
    X = rng.standard_normal((3, widths[0]))
    upstream_seed = rng.standard_normal((3, widths[-1]))

    def loss(_):
        out, _ = net_forward(net, X)
        return float(np.sum(out * upstream_seed))

    # a hidden relu preactivation within the finite-difference step of
    # its kink makes the two-sided estimate straddle the nondifferentiable
    # point; skip those draws rather than compare garbage (two widths give
    # a single linear layer, which has no kink)
    _, posts = net_forward(net, X)
    pres = [h @ W + b for h, W, b in zip(posts[:-2], net.weights, net.biases)]
    assume(all(np.min(np.abs(pre)) > 1e-4 for pre in pres))

    wg, bg, _ = backward(net, posts, upstream_seed)
    params = {f"W{i}": w for i, w in enumerate(net.weights)}
    params.update({f"b{i}": b for i, b in enumerate(net.biases)})
    fd = finite_diff_grad(loss, params, eps=1e-5)
    for i in range(len(net.weights)):
        np.testing.assert_allclose(wg[i], fd[f"W{i}"], rtol=1e-4, atol=1e-7)
        np.testing.assert_allclose(bg[i], fd[f"b{i}"], rtol=1e-4, atol=1e-7)


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        params = {"p": np.array([1.0, -2.0])}
        adam_step(params, {"p": np.zeros(2)}, AdamState(), lr=0.1)
        np.testing.assert_array_equal(params["p"], [1.0, -2.0])

    def test_first_step_magnitude_is_lr(self):
        params = {"p": np.array([0.0])}
        adam_step(params, {"p": np.array([3.7])}, AdamState(), lr=0.01)
        # bias-corrected first ascent step moves by lr * g/|g| up to epsilon
        assert params["p"][0] == pytest.approx(0.01, rel=1e-6)

    def test_deterministic_given_cloned_state(self):
        rng = np.random.default_rng(5)
        p0 = rng.standard_normal(4)
        g = rng.standard_normal(4)
        state = AdamState()
        a = {"p": p0.copy()}
        adam_step(a, {"p": g}, state, lr=0.05)
        b = {"p": p0.copy()}
        adam_step(b, {"p": g}, AdamState(), lr=0.05)
        np.testing.assert_array_equal(a["p"], b["p"])

    def test_nonfinite_gradient_names_parameter(self):
        with pytest.raises(TrainingError, match="mix.means"):
            adam_step(
                {"mix.means": np.zeros(2)},
                {"mix.means": np.array([np.nan, 0.0])},
                AdamState(),
                lr=0.1,
            )


    @pytest.mark.parametrize("shapes", [
        {"W": (7, 5), "b": (5,)},
        {"W": (ADAM_BLOCK // 8, 8), "b": (ADAM_BLOCK,), "s": (3,)},
        {"big": (2 * ADAM_BLOCK + 17,), "W": (300, 2), "b": (1,)},
        {"vector": (3 * ADAM_BLOCK - 5,)},
    ], ids=["below_block", "one_block", "above_block", "single_flat_entry"])
    def test_bitwise_equal_to_per_array_loop(self, shapes):
        rng = np.random.default_rng(11)
        start = {k: rng.standard_normal(shape) for k, shape in shapes.items()}
        fast = {k: p.copy() for k, p in start.items()}
        slow = {k: p.copy() for k, p in start.items()}
        state, slow_state = AdamState(), {"m": {}, "v": {}, "step": 0}
        for step in range(4):
            # gradients spanning many orders of magnitude, with exact zeros
            grads = {k: rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, shape)
                     * (rng.random(shape) > 0.1) for k, shape in shapes.items()}
            adam_step(fast, grads, state, lr=0.01 * (step + 1))
            # the minimising reference on the negated gradient
            adam_brute(slow, {k: -g for k, g in grads.items()}, slow_state,
                       lr=0.01 * (step + 1))
        for k in shapes:
            assert fast[k].tobytes() == slow[k].tobytes(), k
            # m is the reference's, negated; a zero moment is +0.0 in both
            # (m starts at +0.0), which 0.0 - m gives and -m would not
            assert state.m[k].tobytes() == (0.0 - slow_state["m"][k]).tobytes(), k
            assert state.v[k].tobytes() == slow_state["v"][k].tobytes(), k

    def test_non_contiguous_parameter_rejected(self):
        rng = np.random.default_rng(12)
        base = rng.standard_normal((6, 4))
        before = base.tobytes()
        with pytest.raises(ShapeError, match="'p'"):
            adam_step({"p": base.T}, {"p": rng.standard_normal((4, 6))}, AdamState(), lr=0.1)
        assert base.tobytes() == before


class TestFiniteDiff:
    def test_quadratic(self):
        grads = finite_diff_grad(lambda p: p["x"][0] ** 2, {"x": np.array([3.0])}, eps=1e-4)
        assert grads["x"][0] == pytest.approx(6.0, abs=1e-6)

    def test_constant_loss(self):
        grads = finite_diff_grad(lambda p: 7.0, {"x": np.zeros(3)}, eps=1e-4)
        np.testing.assert_array_equal(grads["x"], np.zeros(3))

    def test_softplus_derivative_at_zero(self):
        grads = finite_diff_grad(
            lambda p: np.log1p(np.exp(p["x"][0])), {"x": np.array([0.0])}, eps=1e-5
        )
        assert grads["x"][0] == pytest.approx(0.5, abs=1e-6)

    def test_eps_must_be_positive(self):
        with pytest.raises(ValueError):
            finite_diff_grad(lambda p: 0.0, {"x": np.zeros(1)}, eps=0.0)
