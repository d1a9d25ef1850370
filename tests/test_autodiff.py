"""Unit tests for the dense MLP numerics layer."""

import numpy as np
import pytest

from deskdiar.autodiff import (
    ADAM_BLOCK,
    AdamState,
    DivergenceError,
    Layer,
    MlpParams,
    ShapeError,
    StaleTapeError,
    adam_init,
    adam_step,
    critic_param_gradient,
    mlp_backward,
    mlp_forward,
    mlp_input_backward,
    mlp_param_backward,
)
from oracles import (
    assert_grads_close,
    fd_input_grads,
    fd_param_grads,
    random_params,
    straightline_mlp,
)


def linear_net(*mats, biases=None):
    layers = []
    for i, w in enumerate(mats):
        w = np.asarray(w, dtype=float)
        b = np.zeros(w.shape[1]) if biases is None else np.asarray(biases[i])
        layers.append(Layer(weight=w, bias=b, activation="linear"))
    return MlpParams(layers=tuple(layers))


def scalar_input_grad(net, x):
    """Per-row gradient of a scalar-output network w.r.t. its input."""
    _, tape = mlp_forward(net, x)
    return mlp_input_backward(tape, np.ones_like(tape.output))


def penalty_only(net, x_hat):
    """The gradient-norm penalty alone: the critic gradient with zero
    adversarial rows."""
    x_hat = np.asarray(x_hat, dtype=float)
    _, value, grads = critic_param_gradient(
        net, np.empty((0, x_hat.shape[1])), np.empty((0, 1)), x_hat, 1.0)
    return value, grads


# ------------------------------------------------------------ flat layout

def test_layers_are_views_of_one_flat_vector(rng):
    net = random_params(rng, [5, 4, 3])
    expect = np.concatenate([a.ravel() for l in net.layers
                             for a in (l.weight, l.bias)])
    assert np.array_equal(net.flat, expect)
    assert net.flat.size == 5 * 4 + 4 + 4 * 3 + 3
    for layer, (w, b) in zip(net.layers, net.views(net.flat)):
        assert np.shares_memory(layer.weight, net.flat)
        assert np.shares_memory(layer.bias, net.flat)
        assert np.array_equal(layer.weight, w)
        assert np.array_equal(layer.bias, b)
    net.layers[1].bias[0] = 7.0
    assert net.flat[5 * 4 + 4 + 4 * 3] == 7.0
    # from_flat wraps without copying; the constructor copies
    wrapped = MlpParams.from_flat(net.flat, net.arch)
    assert wrapped.flat is net.flat
    copied = MlpParams(layers=net.layers)
    assert not np.shares_memory(copied.flat, net.flat)
    assert np.array_equal(copied.flat, net.flat)
    with pytest.raises(ShapeError):
        MlpParams.from_flat(net.flat[:-1], net.arch)
    with pytest.raises(ShapeError):
        net.views(np.zeros(net.flat.size + 1))


# ---------------------------------------------------------------- forward

def test_forward_identity_layer():
    net = linear_net(np.eye(2))
    out, _ = mlp_forward(net, np.array([[1.0, 2.0]]))
    assert np.array_equal(out, np.array([[1.0, 2.0]]))


def test_forward_relu_dead_zone_passes_only_bias():
    # layer 1 pre-activations all negative -> its output is zero, so the
    # network output is exactly the layer-2 bias
    l1 = Layer(weight=-np.eye(3), bias=np.full(3, -1.0), activation="relu")
    l2 = Layer(weight=np.ones((3, 2)), bias=np.array([0.5, -0.25]),
               activation="linear")
    net = MlpParams(layers=(l1, l2))
    out, _ = mlp_forward(net, np.array([[0.3, 1.2, 2.0]]))
    assert np.allclose(out, [[0.5, -0.25]], atol=0)


def test_forward_matches_straightline_evaluator(rng):
    net = random_params(rng, [8, 4, 2])
    x = rng.standard_normal((5, 8))
    out, _ = mlp_forward(net, x)
    assert np.abs(out - straightline_mlp(net, x)).max() <= 1e-12


def test_forward_with_softmax_tail_matches_straightline(rng):
    net = random_params(rng, [6, 5, 7], final="softmax-tail", tail=4)
    x = rng.standard_normal((3, 6))
    out, _ = mlp_forward(net, x)
    assert np.abs(out - straightline_mlp(net, x)).max() <= 1e-12


def test_forward_deterministic(rng):
    net = random_params(rng, [5, 9, 3])
    x = rng.standard_normal((4, 5))
    a, _ = mlp_forward(net, x)
    b, _ = mlp_forward(net, x)
    assert np.array_equal(a, b)


def test_forward_dim_mismatch_raises(rng):
    net = random_params(rng, [5, 3])
    with pytest.raises(ShapeError):
        mlp_forward(net, np.zeros((2, 4)))


def test_params_dim_chain_validated(rng):
    l1 = Layer(weight=np.zeros((3, 4)), bias=np.zeros(4))
    l2 = Layer(weight=np.zeros((5, 2)), bias=np.zeros(2))
    with pytest.raises(ShapeError):
        MlpParams(layers=(l1, l2))


def test_softmax_tail_only_on_final_layer():
    l1 = Layer(weight=np.zeros((3, 4)), bias=np.zeros(4),
               activation="softmax-tail", tail=2)
    l2 = Layer(weight=np.zeros((4, 2)), bias=np.zeros(2))
    with pytest.raises(ShapeError):
        MlpParams(layers=(l1, l2))


# ---------------------------------------------------------------- backward

def test_backward_scalar_linear_case():
    w = np.array([[2.0], [3.0], [-1.0]])
    net = linear_net(w)
    x = np.array([[0.5, -1.5, 4.0]])
    _, tape = mlp_forward(net, x)
    grads, dx = mlp_backward(tape, np.ones((1, 1)))
    assert np.allclose(net.views(grads)[0][0], x.T, atol=0)
    assert np.allclose(dx, w.T, atol=0)


def test_backward_matches_finite_differences(rng):
    net = random_params(rng, [8, 16, 1])
    x = rng.standard_normal((6, 8))
    upstream = rng.standard_normal((6, 1))

    def objective(p):
        out, _ = mlp_forward(p, x)
        return float((out * upstream).sum())

    _, tape = mlp_forward(net, x)
    grads, _ = mlp_backward(tape, upstream)
    fd = fd_param_grads(objective, net, h=1e-5)
    assert_grads_close(grads, fd, rtol=1e-5, atol=1e-8)


def test_backward_softmax_tail_cross_entropy_closed_form(rng):
    # pure softmax layer: input gradient of CE(target one-hot) must be
    # exactly softmax(x) - onehot
    k = 5
    net = MlpParams(layers=(Layer(weight=np.eye(k), bias=np.zeros(k),
                                  activation="softmax-tail", tail=k),))
    x = rng.standard_normal((3, k))
    probs, tape = mlp_forward(net, x)
    onehot = np.zeros((3, k))
    onehot[np.arange(3), [0, 2, 4]] = 1.0
    # upstream of CE w.r.t. probabilities
    _, dx = mlp_backward(tape, -onehot / probs)
    assert np.abs(dx - (probs - onehot)).max() <= 1e-12
    # and the logit-injection path gives the same answer
    _, dx2 = mlp_backward(tape, probs - onehot,
                          tail_upstream_is_logit_grad=True)
    assert np.abs(dx2 - dx).max() <= 1e-12


def test_backward_stale_tape_detected(rng):
    net = random_params(rng, [4, 6, 2])
    x = rng.standard_normal((3, 4))
    _, tape = mlp_forward(net, x)
    net.layers[0].weight[0, 0] += 123.0  # in-place mutation
    with pytest.raises(StaleTapeError):
        mlp_backward(tape, np.ones((3, 2)))


def test_backward_upstream_shape_checked(rng):
    net = random_params(rng, [4, 2])
    _, tape = mlp_forward(net, rng.standard_normal((3, 4)))
    with pytest.raises(ShapeError):
        mlp_backward(tape, np.ones((3, 3)))


def test_input_backward_matches_full_backward_bits(rng):
    net = random_params(rng, [5, 7, 6, 3])
    _, tape = mlp_forward(net, rng.standard_normal((4, 5)))
    upstream = rng.standard_normal((4, 3))
    _, dx = mlp_backward(tape, upstream)
    assert np.array_equal(mlp_input_backward(tape, upstream), dx)
    with pytest.raises(ShapeError):
        mlp_input_backward(tape, np.ones((4, 2)))


@pytest.mark.parametrize("logit_grad", [False, True])
def test_param_backward_matches_full_backward_bits(rng, logit_grad):
    net = random_params(rng, [5, 7, 6, 4], final="softmax-tail", tail=3)
    _, tape = mlp_forward(net, rng.standard_normal((4, 5)))
    upstream = rng.standard_normal((4, 4))
    grads, _ = mlp_backward(tape, upstream, logit_grad)
    got = mlp_param_backward(tape, upstream, logit_grad)
    assert np.array_equal(got.view(np.int64), grads.view(np.int64))
    with pytest.raises(ShapeError):
        mlp_param_backward(tape, np.ones((4, 2)))


def test_gradient_property_suite_50_seeds():
    # randomized nets up to 3 hidden layers vs central finite differences
    for seed in range(50):
        rng = np.random.default_rng(1000 + seed)
        n_hidden = int(rng.integers(1, 4))
        dims = [int(rng.integers(2, 6)) for _ in range(n_hidden + 2)]
        net = random_params(rng, dims)
        x = rng.standard_normal((3, dims[0]))
        upstream = rng.standard_normal((3, dims[-1]))

        def objective(p):
            out, _ = mlp_forward(p, x)
            return float((out * upstream).sum())

        _, tape = mlp_forward(net, x)
        grads, _ = mlp_backward(tape, upstream)
        assert_grads_close(grads, fd_param_grads(objective, net), rtol=1e-4,
                           atol=1e-7)


# ----------------------------------------------------------- input gradient

def test_input_gradient_linear_network_is_weight_product(rng):
    w1 = rng.standard_normal((4, 3))
    w2 = rng.standard_normal((3, 1))
    net = linear_net(w1, w2)
    product = (w1 @ w2).ravel()
    xs = rng.standard_normal((10, 4))
    g = scalar_input_grad(net, xs)
    assert np.abs(g - product).max() <= 1e-12
    # constant in x
    assert np.abs(g - g[0]).max() < 1e-12


def test_input_gradient_matches_finite_differences(rng):
    net = random_params(rng, [5, 7, 6, 1])
    x = rng.standard_normal((4, 5))

    g = scalar_input_grad(net, x)
    for i in range(x.shape[0]):
        def f(row, i=i):
            xx = x.copy()
            xx[i] = row[0]
            out, _ = mlp_forward(net, xx)
            return float(out[i, 0])
        fd = fd_input_grads(lambda xx: float(mlp_forward(net, xx)[0][i, 0]), x)
        assert np.abs(g[i] - fd[i]).max() <= 1e-7 + 1e-5 * np.abs(fd[i]).max()


def test_input_gradient_at_shifted_kink_matches_mask_product():
    # pre-activation sits exactly 1e-3 above the kink: the unit is active
    # and the gradient is the masked weight product
    w1 = np.eye(3)
    b1 = np.array([-1.0, -2.0, 5.0])
    w2 = np.array([[1.5], [-2.0], [0.5]])
    net = MlpParams(layers=(
        Layer(weight=w1, bias=b1, activation="relu"),
        Layer(weight=w2, bias=np.zeros(1), activation="linear"),
    ))
    x = np.array([[1.0 + 1e-3, 2.0 + 1e-3, -5.0 + 1e-3]])
    mask = (x @ w1 + b1 > 0).astype(float).ravel()
    expected = (w1 * mask) @ w2
    g = scalar_input_grad(net, x)
    assert np.abs(g - expected.ravel()).max() <= 1e-12


# ------------------------------------------------- gradient-penalty gradient

def test_gp_zero_on_unit_norm_linear_network():
    w1 = np.array([[0.6, 0.0], [0.8, 0.0], [0.0, 1.0]])  # first col unit norm
    w2 = np.array([[1.0], [0.0]])
    net = linear_net(w1, w2)  # product = [0.6, 0.8, 0.0], norm 1
    value, grads = penalty_only(net, np.zeros((4, 3)))
    assert value <= 1e-12
    assert max(np.abs(w).max() for w, _ in net.views(grads)) <= 1e-9


def test_gp_single_layer_closed_form(rng):
    w = rng.standard_normal((5, 1))
    w *= 1.5 / np.linalg.norm(w)
    net = linear_net(w)
    value, grads = penalty_only(net, rng.standard_normal((1, 5)))
    norm = float(np.linalg.norm(w))
    assert abs(value - (norm - 1.0) ** 2) <= 1e-12
    hand = 2.0 * (norm - 1.0) * w / norm
    (gw, gb), = net.views(grads)
    assert np.abs(gw - hand).max() <= 1e-12
    assert np.abs(gb).max() == 0.0


def test_gp_matches_finite_differences(rng):
    net = random_params(rng, [6, 8, 5, 1])
    x_hat = rng.standard_normal((4, 6))
    value, grads = penalty_only(net, x_hat)
    fd = fd_param_grads(lambda p: penalty_only(p, x_hat)[0], net)
    assert_grads_close(grads, fd, rtol=1e-4, atol=1e-7)
    assert value >= 0.0


def test_gp_bias_gradients_are_zero(rng):
    net = random_params(rng, [4, 6, 1])
    _, grads = penalty_only(net, rng.standard_normal((5, 4)))
    assert all(np.abs(b).max() == 0.0 for _, b in net.views(grads))


def test_gp_zero_gradient_row_stays_finite():
    # dead ReLU wipes the input gradient; the eps inside the square root
    # keeps the parameter gradient finite
    l1 = Layer(weight=np.eye(2), bias=np.full(2, -10.0), activation="relu")
    l2 = Layer(weight=np.ones((2, 1)), bias=np.zeros(1), activation="linear")
    net = MlpParams(layers=(l1, l2))
    value, grads = penalty_only(net, np.zeros((3, 2)))
    assert np.isfinite(value)
    assert all(np.isfinite(w).all() for w, _ in net.views(grads))
    assert abs(value - 1.0) < 1e-5  # (0 - 1)^2 per row, up to the eps guard


def test_gp_requires_scalar_output(rng):
    net = random_params(rng, [4, 3, 2])
    with pytest.raises(ShapeError):
        penalty_only(net, rng.standard_normal((2, 4)))


# -------------------------------------------------------------------- adam

def test_adam_zero_gradient_is_fixed_point(rng):
    net = random_params(rng, [4, 3])
    state = adam_init(net)
    zero = np.zeros_like(net.flat)
    updated, state = adam_step(state, net, zero)
    for a, b in zip(updated.layers, net.layers):
        assert np.array_equal(a.weight, b.weight)
        assert np.array_equal(a.bias, b.bias)
    assert state.step == 1


def test_adam_single_step_hand_computation(rng):
    # from zeroed moments the bias-corrected update is
    # -alpha * g / (|g| + eps), entrywise
    net = random_params(rng, [3, 2])
    alpha, eps = 1e-2, 1e-8
    state = adam_init(net, alpha=alpha, beta1=0.5, beta2=0.9, eps=eps)
    g = rng.standard_normal(net.flat.size)
    (gw, gb), = net.views(g)
    # the step writes net in place, so the expectation is taken first
    expect_w = net.layers[0].weight - alpha * gw / (np.abs(gw) + eps)
    expect_b = net.layers[0].bias - alpha * gb / (np.abs(gb) + eps)
    updated, _ = adam_step(state, net, g)
    assert updated is net
    assert np.abs(updated.layers[0].weight - expect_w).max() <= 1e-12
    assert np.abs(updated.layers[0].bias - expect_b).max() <= 1e-12
    # a raise leaves p, m and v bit-identical
    before = _bits([net.flat, state.m, state.v])
    g[2] = np.nan
    with pytest.raises(DivergenceError):
        adam_step(state, net, g)
    after = _bits([net.flat, state.m, state.v])
    assert all(np.array_equal(a, b) for a, b in zip(before, after))
    assert state.step == 1


def test_adam_converges_on_quadratic(rng):
    start = rng.standard_normal((4, 2))
    target = start + 2.0  # uniform offset: no coordinate crosses in 200 steps
    net = linear_net(start)
    state = adam_init(net, alpha=0.008)
    dists = []
    for _ in range(200):
        w = net.layers[0].weight
        g = np.concatenate([2.0 * (w - target).ravel(), np.zeros(2)])
        net, state = adam_step(state, net, g)
        dists.append(float(np.linalg.norm(net.layers[0].weight - target)))
    tail = dists[10:]
    assert all(b < a for a, b in zip(tail, tail[1:]))
    assert dists[-1] < 0.5 * dists[10]


def _textbook_adam(state, params, grads, flush=True):
    """Adam as whole-array expressions over the flat vectors; ``flush``
    zeroes second moments below the smallest normal float."""
    t = state.step + 1
    b1, b2 = state.beta1, state.beta2
    c1, c2 = 1.0 - b1 ** t, 1.0 - b2 ** t
    m = b1 * state.m + (1.0 - b1) * grads
    v = b2 * state.v + (1.0 - b2) * grads * grads
    if flush:
        v = np.where(v < np.finfo(float).tiny, 0.0, v)
    p = params.flat - state.alpha * (m / c1) / (np.sqrt(v / c2) + state.eps)
    return {"p": p, "m": m, "v": v}


def _bits(arrays):
    return [a.copy().view(np.int64) for a in arrays]


@pytest.mark.parametrize("start_step", [0, 400])
def test_adam_matches_textbook_bits_and_leaves_inputs_alone(rng, start_step):
    # the first layer spans several blocks plus a ragged tail; from step
    # 400 on both bias corrections round to exactly 1.0
    net = random_params(rng, [200, 190, 3])
    assert net.layers[0].weight.size > 2 * ADAM_BLOCK
    state = adam_init(net, alpha=3e-3)
    state = AdamState(step=start_step, m=state.m, v=state.v, alpha=3e-3)
    for _ in range(6):
        grads = rng.standard_normal(net.flat.size)
        net.views(grads)[0][0][0, :5] = 0.0
        grads_before = _bits([grads])
        # fresh arrays, computed before the step writes p, m and v
        ref = _textbook_adam(state, net, grads)
        step = state.step
        new_net, new_state = adam_step(state, net, grads)
        assert new_net is net and new_state is state
        assert np.array_equal(grads_before[0], _bits([grads])[0])
        got = {"p": new_net.flat, "m": new_state.m, "v": new_state.v}
        for key, array in got.items():
            assert np.array_equal(array.view(np.int64),
                                  ref[key].view(np.int64)), key
        for layer, (w, b) in zip(new_net.layers,
                                 new_net.views(new_net.flat)):
            assert np.shares_memory(layer.weight, new_net.flat)
            assert np.array_equal(layer.weight, w)
            assert np.array_equal(layer.bias, b)
        assert new_state.step == step + 1
        net, state = new_net, new_state
    # a non-finite entry past the first blocks raises before any block
    # is written: p, m, v and the step count stay as they were
    before = _bits([net.flat, state.m, state.v])
    grads = rng.standard_normal(net.flat.size)
    grads[2 * ADAM_BLOCK + 7] = np.inf
    with pytest.raises(DivergenceError, match="layer 0"):
        adam_step(state, net, grads)
    after = _bits([net.flat, state.m, state.v])
    assert all(np.array_equal(a, b) for a, b in zip(before, after))
    assert state.step == start_step + 6


@pytest.mark.parametrize("start_step", [0, 400])
def test_adam_flushes_subnormal_second_moments(rng, start_step):
    # v just above the smallest normal float decays below it under a zero
    # gradient: it is flushed to 0, and the parameters keep the bits of
    # the unflushed update, since sqrt(v / c2) vanishes against eps
    net = random_params(rng, [40, 30, 2])
    tiny = np.finfo(float).tiny
    v = rng.standard_normal(net.flat.size) ** 2
    v[::3] = tiny * rng.uniform(1.0, 1.1, size=v[::3].size)
    state = AdamState(step=start_step, m=rng.standard_normal(net.flat.size),
                      v=v, alpha=3e-3)
    grads = rng.standard_normal(net.flat.size)
    grads[::3] = 0.0
    # the references are fresh arrays, taken before the step writes
    raw = _textbook_adam(state, net, grads, flush=False)
    flushed = _textbook_adam(state, net, grads)["v"]
    bad = grads.copy()
    bad[-1] = -np.inf
    before = _bits([net.flat, state.m, state.v])
    with pytest.raises(DivergenceError):
        adam_step(state, net, bad)
    after = _bits([net.flat, state.m, state.v])
    assert all(np.array_equal(a, b) for a, b in zip(before, after))
    new_net, new_state = adam_step(state, net, grads)
    assert (raw["v"][::3] < tiny).all() and (raw["v"][::3] > 0.0).all()
    assert np.array_equal(new_state.v[::3], np.zeros(v[::3].size))
    assert np.array_equal(new_state.v.view(np.int64), flushed.view(np.int64))
    assert np.array_equal(new_net.flat.view(np.int64),
                          raw["p"].view(np.int64))


def test_adam_rejects_non_finite_gradients(rng):
    net = random_params(rng, [3, 4, 2])
    g = np.zeros_like(net.flat)
    net.views(g)[0][0][0, 0] = np.nan
    with pytest.raises(DivergenceError, match="layer 0"):
        adam_step(adam_init(net), net, g)
    g = np.zeros_like(net.flat)
    net.views(g)[1][1][-1] = np.inf  # the last entry of the vector
    with pytest.raises(DivergenceError, match="layer 1"):
        adam_step(adam_init(net), net, g)


def test_adam_rejects_shape_mismatch(rng):
    net = random_params(rng, [3, 2])
    for g in (np.zeros(net.flat.size + 1), np.zeros((1, net.flat.size))):
        with pytest.raises(ShapeError):
            adam_step(adam_init(net), net, g)
