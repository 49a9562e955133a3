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
    init_dense_net,
    net_backward,
    net_forward,
)


def identity_layer_net(d):
    net = DenseNet()
    net.weights.append(np.eye(d))
    net.biases.append(np.zeros(d))
    net.activations.append("identity")
    return net


class TestForward:
    def test_identity_layer(self):
        net = identity_layer_net(2)
        out, _ = net_forward(net, [[1.0, 2.0]])
        np.testing.assert_array_equal(out, [[1.0, 2.0]])

    def test_relu_layer(self):
        net = identity_layer_net(2)
        net.activations[0] = "relu"
        out, _ = net_forward(net, [[-1.0, 3.0]])
        np.testing.assert_array_equal(out, [[0.0, 3.0]])

    def test_two_layer_matches_scalar_recomputation(self):
        rng = np.random.default_rng(3)
        net = init_dense_net([2, 3, 1], ["relu", "identity"], rng)
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

    def test_batch_equals_rowwise(self):
        rng = np.random.default_rng(0)
        net = init_dense_net([3, 5, 2], ["relu", "identity"], rng)
        X = rng.standard_normal((7, 3))
        batch, _ = net_forward(net, X)
        rows = np.vstack([net_forward(net, X[i : i + 1])[0] for i in range(7)])
        np.testing.assert_allclose(batch, rows, rtol=1e-12, atol=1e-15)


class TestBackward:
    def test_identity_layer_grads(self):
        net = identity_layer_net(2)
        X = np.array([[1.0, 2.0], [3.0, 4.0]])
        _, stack = net_forward(net, X)
        wg, bg, dx = net_backward(net, stack, np.ones((2, 2)))
        np.testing.assert_array_equal(wg[0], X.T @ np.ones((2, 2)))
        np.testing.assert_array_equal(bg[0], [2.0, 2.0])
        np.testing.assert_array_equal(dx, np.ones((2, 2)))

    def test_relu_kills_negative_preactivation(self):
        net = identity_layer_net(1)
        net.activations[0] = "relu"
        _, stack = net_forward(net, [[-2.0]])
        wg, bg, dx = net_backward(net, stack, [[1.0]])
        assert wg[0][0, 0] == 0.0 and bg[0][0] == 0.0 and dx[0, 0] == 0.0

    def test_upstream_shape_checked(self):
        net = identity_layer_net(2)
        _, stack = net_forward(net, [[1.0, 2.0]])
        with pytest.raises(ShapeError):
            net_backward(net, stack, np.ones((3, 2)))

    def test_without_input_grad_same_parameter_grads(self):
        rng = np.random.default_rng(4)
        net = init_dense_net([5, 4, 3], ["relu", "identity"], rng)
        _, stack = net_forward(net, rng.standard_normal((6, 5)))
        upstream = rng.standard_normal((6, 3))
        wg, bg, dx = net_backward(net, stack, upstream)
        wg2, bg2, dx2 = net_backward(net, stack, upstream, input_grad=False)
        assert dx.shape == (6, 5) and dx2 is None
        for a, b in zip(wg + bg, wg2 + bg2):
            assert a.tobytes() == b.tobytes()

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        net = init_dense_net([3, 4, 2], ["relu", "identity"], rng)
        X = rng.standard_normal((5, 3))
        target = rng.standard_normal((5, 2))

        def loss(params):
            out, _ = net_forward(net, X)
            return 0.5 * np.sum((out - target) ** 2)

        out, stack = net_forward(net, X)
        wg, bg, _ = net_backward(net, stack, out - target)
        params = {}
        for i in range(2):
            params[f"W{i}"] = net.weights[i]
            params[f"b{i}"] = net.biases[i]
        fd = finite_diff_grad(loss, params, eps=1e-5)
        for i in range(2):
            np.testing.assert_allclose(wg[i], fd[f"W{i}"], rtol=1e-5, atol=1e-8)
            np.testing.assert_allclose(bg[i], fd[f"b{i}"], rtol=1e-5, atol=1e-8)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    widths=st.lists(st.integers(1, 8), min_size=2, max_size=4),
    acts=st.sampled_from(["relu", "identity"]),
)
def test_backward_matches_finite_diff_property(seed, widths, acts):
    rng = np.random.default_rng(seed)
    net = init_dense_net(widths, [acts] * (len(widths) - 1), rng)
    X = rng.standard_normal((3, widths[0]))
    upstream_seed = rng.standard_normal((3, widths[-1]))

    def loss(_):
        out, _ = net_forward(net, X)
        return float(np.sum(out * upstream_seed))

    if acts == "relu":
        # a relu preactivation within the finite-difference step of its
        # kink makes the two-sided estimate straddle the nondifferentiable
        # point; skip those draws rather than compare garbage
        _, (pres, _) = net_forward(net, X)
        assume(all(np.min(np.abs(pre)) > 1e-4 for pre in pres))

    _, stack = net_forward(net, X)
    wg, bg, _ = net_backward(net, stack, upstream_seed)
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
        # bias-corrected first step moves by lr * g/|g| up to epsilon
        assert params["p"][0] == pytest.approx(-0.01, rel=1e-6)

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
            adam_brute(slow, grads, slow_state, lr=0.01 * (step + 1))
        for k in shapes:
            assert fast[k].tobytes() == slow[k].tobytes(), k
            assert state.m[k].tobytes() == slow_state["m"][k].tobytes(), k
            assert state.v[k].tobytes() == slow_state["v"][k].tobytes(), k

    def test_non_contiguous_parameter_updated(self):
        rng = np.random.default_rng(12)
        base = rng.standard_normal((6, 4))
        g = rng.standard_normal((4, 6))
        expected = {"p": base.T.copy()}
        adam_step({"p": base.T}, {"p": g}, AdamState(), lr=0.1)
        adam_brute(expected, {"p": g}, {"m": {}, "v": {}, "step": 0}, lr=0.1)
        assert base.T.tobytes() == expected["p"].tobytes()


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
