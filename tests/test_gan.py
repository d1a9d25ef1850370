"""Tests for the alternating GAN training losses, steps, and loop."""

import numpy as np
import pytest

from deskdiar import gan
from deskdiar.autodiff import (
    DivergenceError,
    Layer,
    MlpParams,
    ShapeError,
    adam_init,
    critic_param_gradient,
    mlp_backward,
    mlp_forward,
)
from deskdiar.gan import (
    GanTrainConfig,
    LabeledEmbeddings,
    cluster_ce_loss,
    cosine_recovery_loss,
    critic_loss_and_grads,
    critic_step,
    gen_enc_loss_and_grads,
    gen_enc_step,
    interpolate,
    train_clustergan,
)
from deskdiar.models import LatentConfig, build_models, sample_latent

from oracles import assert_grads_close, fd_param_grads, random_params


def penalty_at_interpolates(d_params, x_real, x_fake, rng, eps=None):
    """Penalty and its gradient at interpolates: the critic gradient with
    zero adversarial rows."""
    x_hat = interpolate(x_real, x_fake, rng, eps)
    _, val, grads = critic_param_gradient(
        d_params, np.empty((0, x_hat.shape[1])), np.empty((0, 1)), x_hat, 1.0)
    return val, grads


def tiny_cfg(**kw):
    base = dict(n_iter=1, batch=8, n_critic=1, alpha=1e-3, seed=0)
    base.update(kw)
    return GanTrainConfig(**base)


def make_corpus(rng, n=40, d=6, k=4):
    centers = rng.standard_normal((k, d)) * 3.0
    labels = np.arange(n) % k
    x = centers[labels] + 0.1 * rng.standard_normal((n, d))
    return LabeledEmbeddings(x=x, labels=labels, k=k)


# ------------------------------------------------------------ corpus type

def test_labeled_embeddings_validation(rng):
    x = rng.standard_normal((6, 3))
    LabeledEmbeddings(x=x, labels=[0, 1, 2, 0, 1, 2], k=3)
    with pytest.raises(ValueError, match="at least one row"):
        LabeledEmbeddings(x=x, labels=[0, 0, 0, 1, 1, 1], k=3)
    with pytest.raises(ValueError, match=r"\[0, k\)"):
        LabeledEmbeddings(x=x, labels=[0, 1, 2, 3, 0, 1], k=3)
    with pytest.raises(ShapeError):
        LabeledEmbeddings(x=x, labels=[0, 1], k=2)


# ------------------------------------------------------------- cosine loss

def test_cosine_loss_identical_rows_is_zero(rng):
    z = rng.standard_normal((5, 4))
    loss, grad = cosine_recovery_loss(z, z)
    assert abs(loss) < 1e-12
    assert grad.shape == z.shape


def test_cosine_loss_antipodal_is_two(rng):
    z = rng.standard_normal((5, 4))
    loss, _ = cosine_recovery_loss(-z, z)
    assert abs(loss - 2.0) < 1e-12


def test_cosine_loss_half_from_orthogonal_pair():
    z_hat = np.array([[1.0, 0.0], [0.0, 1.0]])
    z = np.array([[1.0, 0.0], [1.0, 0.0]])
    loss, _ = cosine_recovery_loss(z_hat, z)
    assert abs(loss - 0.5) < 1e-12


def test_cosine_loss_zero_norm_hat_guarded():
    z_hat = np.array([[0.0, 0.0], [1.0, 0.0]])
    z = np.array([[1.0, 0.0], [1.0, 0.0]])
    loss, grad = cosine_recovery_loss(z_hat, z)
    assert np.isfinite(loss) and np.isfinite(grad).all()


def test_cosine_loss_zero_norm_target_rejected():
    with pytest.raises(ValueError, match="zero-norm"):
        cosine_recovery_loss(np.ones((1, 2)), np.zeros((1, 2)))


def test_cosine_loss_range_and_fd_gradient(rng):
    for _ in range(10):
        a = rng.standard_normal((4, 3))
        b = rng.standard_normal((4, 3))
        loss, grad = cosine_recovery_loss(a, b)
        assert 0.0 <= loss <= 2.0
        h = 1e-6
        fd = np.zeros_like(a)
        for i in range(a.shape[0]):
            for j in range(a.shape[1]):
                ap, am = a.copy(), a.copy()
                ap[i, j] += h
                am[i, j] -= h
                fd[i, j] = (cosine_recovery_loss(ap, b)[0]
                            - cosine_recovery_loss(am, b)[0]) / (2 * h)
        np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-8)


# ------------------------------------------------------- cross-entropy loss

def test_ce_loss_perfect_prediction_is_zero():
    y = np.eye(3)
    loss, grad = cluster_ce_loss(y, y)
    assert loss == 0.0
    assert np.array_equal(grad, np.zeros((3, 3)))


def test_ce_loss_uniform_is_log_k():
    p = np.full((2, 4), 0.25)
    y = np.array([[1.0, 0, 0, 0], [0, 0, 1.0, 0]])
    loss, _ = cluster_ce_loss(p, y)
    assert abs(loss - np.log(4.0)) < 1e-12


def test_ce_loss_hand_value():
    p = np.array([[0.7, 0.2, 0.1]])
    y = np.array([[1.0, 0.0, 0.0]])
    loss, grad = cluster_ce_loss(p, y)
    assert abs(loss - (-np.log(0.7))) < 1e-12
    np.testing.assert_allclose(grad, (p - y) / 1)


def test_ce_loss_clamps_tiny_probability():
    p = np.array([[1.0, 0.0], [0.0, 1.0]])
    y = np.array([[0.0, 1.0], [0.0, 1.0]])  # first row true prob is 0
    loss, _ = cluster_ce_loss(p, y)
    assert np.isfinite(loss)


def test_ce_loss_input_validation():
    with pytest.raises(ValueError, match="sum to 1"):
        cluster_ce_loss(np.array([[0.5, 0.2]]), np.array([[1.0, 0.0]]))
    with pytest.raises(ValueError, match="one-hot"):
        cluster_ce_loss(np.array([[0.5, 0.5]]), np.array([[0.5, 0.5]]))


# -------------------------------------------------------- gradient penalty

def test_interpolate_endpoints(rng):
    xr = rng.standard_normal((4, 3))
    xf = rng.standard_normal((4, 3))
    assert np.array_equal(interpolate(xr, xf, rng, eps=np.ones(4)), xr)
    assert np.array_equal(interpolate(xr, xf, rng, eps=np.zeros(4)), xf)
    mid = interpolate(xr, xf, rng, eps=np.full(4, 0.5))
    np.testing.assert_allclose(mid, 0.5 * (xr + xf))


def test_gp_zero_for_unit_norm_linear_chain(rng):
    w0 = rng.standard_normal((5, 3))
    w1 = rng.standard_normal((3, 1))
    prod = w0 @ w1
    w0 /= np.linalg.norm(prod)  # now ||w0 @ w1|| == 1
    params = MlpParams(layers=(
        Layer(weight=w0, bias=np.zeros(3), activation="linear"),
        Layer(weight=w1, bias=np.zeros(1), activation="linear"),
    ))
    val, grads = penalty_at_interpolates(
        params, rng.standard_normal((6, 5)), rng.standard_normal((6, 5)), rng)
    assert abs(val) < 1e-10
    assert all(np.abs(w).max() < 1e-4 for w, _ in params.views(grads))


def test_gp_matches_forward_mode_recomputation(rng):
    params = random_params(rng, (6, 5, 4, 1))
    xr = rng.standard_normal((8, 6))
    xf = rng.standard_normal((8, 6))
    eps = rng.uniform(size=8)
    val, _ = penalty_at_interpolates(params, xr, xf, rng, eps=eps)

    # independent path: forward-mode Jacobian propagation per row
    x_hat = eps[:, None] * xr + (1 - eps[:, None]) * xf
    total = 0.0
    for row in x_hat:
        jac = np.eye(6)
        h = row.copy()
        for layer in params.layers:
            pre = h @ layer.weight + layer.bias
            jac = jac @ layer.weight
            if layer.activation == "relu":
                mask = (pre > 0).astype(float)
                h = pre * mask
                jac = jac * mask[None, :]
            else:
                h = pre
        norm = np.sqrt(float(jac[:, 0] @ jac[:, 0]) + 1e-12)
        total += (norm - 1.0) ** 2
    assert abs(val - total / 8) < 1e-10


# ------------------------------------------------------------- critic step

def test_critic_zero_weight_d_gives_zero_wasserstein(rng):
    layers = (
        Layer(weight=np.zeros((4, 3)), bias=np.zeros(3), activation="relu"),
        Layer(weight=np.zeros((3, 1)), bias=np.zeros(1), activation="linear"),
    )
    d = MlpParams(layers=layers)
    _, _, diag = critic_loss_and_grads(
        d, rng.standard_normal((8, 4)), rng.standard_normal((8, 4)),
        tiny_cfg(), rng)
    assert diag["wasserstein"] == 0.0
    assert diag["gp"] >= 0.0


def test_critic_step_descends_fixed_batch_objective(rng):
    cfg = tiny_cfg(alpha=1e-4)
    wins = 0
    for trial in range(50):
        trng = np.random.default_rng(1000 + trial)
        d = random_params(trng, (5, 8, 1))
        g = random_params(trng, (4, 6, 5))
        xr = trng.standard_normal((8, 5))
        zb = sample_latent(8, LatentConfig(d_c=2, d_n=2),
                           trng.integers(0, 2, size=8), trng)
        eps = trng.uniform(size=8)
        xf, _ = mlp_forward(g, zb.z)
        before, grads, _ = critic_loss_and_grads(d, xr, xf, cfg, eps=eps)
        d2, _, _ = critic_step(d, g, xr, zb, cfg, adam_init(
            d, cfg.alpha, cfg.beta1, cfg.beta2), eps=eps)
        after, _, _ = critic_loss_and_grads(d2, xr, xf, cfg, eps=eps)
        if after < before:
            wins += 1
    assert wins >= 45


def test_critic_step_leaves_generator_untouched(rng):
    cfg = tiny_cfg()
    d = random_params(rng, (5, 8, 1))
    g = random_params(rng, (4, 6, 5))
    g_copy = [l.weight.copy() for l in g.layers]
    zb = sample_latent(8, LatentConfig(d_c=2, d_n=2),
                       rng.integers(0, 2, size=8), rng)
    critic_step(d, g, rng.standard_normal((8, 5)), zb, cfg,
                adam_init(d), rng)
    for before, layer in zip(g_copy, g.layers):
        assert np.array_equal(before, layer.weight)


def test_critic_step_batch_size_checked(rng):
    cfg = tiny_cfg(batch=16)
    d = random_params(rng, (5, 8, 1))
    g = random_params(rng, (4, 6, 5))
    zb = sample_latent(8, LatentConfig(d_c=2, d_n=2),
                       rng.integers(0, 2, size=8), rng)
    with pytest.raises(ShapeError, match="batch"):
        critic_step(d, g, rng.standard_normal((8, 5)), zb, cfg,
                    adam_init(d), rng)


def test_critic_gradients_match_finite_differences(rng):
    cfg = tiny_cfg(batch=4, lambda_gp=3.0)
    d = random_params(rng, (4, 5, 3, 1))
    xr = rng.standard_normal((4, 4))
    xf = rng.standard_normal((4, 4))
    eps = rng.uniform(size=4)
    _, grads, _ = critic_loss_and_grads(d, xr, xf, cfg, eps=eps)
    fd = fd_param_grads(
        lambda p: critic_loss_and_grads(p, xr, xf, cfg, eps=eps)[0], d)
    assert_grads_close(grads, fd, rtol=1e-4)


def test_critic_fused_pass_matches_three_pass_reference():
    # one shared forward/reverse sweep against separate fake, real and
    # interpolate passes: mlp_backward twice plus w1 * lambda * GP gradient
    for trial in range(10):
        trng = np.random.default_rng(300 + trial)
        m, x_dim = 12, 7
        cfg = tiny_cfg(batch=m, lambda_gp=float(trng.uniform(1, 10)),
                       w1=float(trng.uniform(0.5, 2)))
        d = random_params(trng, (x_dim, 11, 9, 1))
        xr = trng.standard_normal((m, x_dim))
        xf = trng.standard_normal((m, x_dim))
        seed = 900 + trial
        rng_fused = np.random.default_rng(seed)
        loss, grads, diag = critic_loss_and_grads(d, xr, xf, cfg, rng_fused)

        rng_ref = np.random.default_rng(seed)
        eps = rng_ref.uniform(size=m)[:, None]
        x_hat = eps * xr + (1.0 - eps) * xf
        out_f, tape_f = mlp_forward(d, xf)
        out_r, tape_r = mlp_forward(d, xr)
        up = np.full((m, 1), cfg.w1 / m)
        g_f, _ = mlp_backward(tape_f, up)
        g_r, _ = mlp_backward(tape_r, -up)
        _, gp, g_gp = critic_param_gradient(
            d, np.empty((0, x_dim)), np.empty((0, 1)), x_hat, 1.0)
        scale = cfg.w1 * cfg.lambda_gp
        wass = float(out_r.mean() - out_f.mean())
        ref_loss = cfg.w1 * (-wass + cfg.lambda_gp * gp)

        # the epsilons are the only draw, in the same order
        assert rng_fused.bit_generator.state == rng_ref.bit_generator.state
        for got, ref in ((loss, ref_loss), (diag["wasserstein"], wass),
                         (diag["gp"], gp)):
            assert abs(got - ref) <= 1e-12 * abs(ref)
        for got, ref in zip(d.views(grads), d.views(g_f + g_r + scale * g_gp)):
            for g_arr, r_arr in zip(got, ref):
                assert np.abs(g_arr - r_arr).max() <= \
                    1e-12 * np.abs(r_arr).max()


# ---------------------------------------------------- generator / encoder

def _joint_setup(rng, d_n=3, d_c=3, x_dim=6, m=8):
    latent = LatentConfig(d_c=d_c, d_n=d_n)
    g = random_params(rng, (latent.d_z, 5, x_dim))
    d = random_params(rng, (x_dim, 5, 1))
    e = random_params(rng, (x_dim, 5, latent.d_z), final="softmax-tail",
                      tail=d_c)
    zb = sample_latent(m, latent, rng.integers(0, d_c, size=m), rng)
    return latent, g, d, e, zb


def test_gen_enc_zero_recovery_weights_freeze_encoder(rng):
    latent, g, d, e, zb = _joint_setup(rng)
    cfg = tiny_cfg(w2=0.0, w3=0.0)
    _, _, e_grads, _ = gen_enc_loss_and_grads(g, e, d, zb, cfg, latent)
    assert np.all(e_grads == 0.0)
    _, e2, _, _, _ = gen_enc_step(g, e, d, zb, cfg, adam_init(g),
                                  adam_init(e), latent)
    for la, lb in zip(e.layers, e2.layers):
        assert np.array_equal(la.weight, lb.weight)
        assert np.array_equal(la.bias, lb.bias)


def test_gen_enc_perfect_inverse_zero_loss(rng):
    # G is the identity map; E recovers z_n exactly and produces saturated
    # logits for the one-hot tail, so both recovery terms vanish.
    latent = LatentConfig(d_c=3, d_n=2)
    dz = latent.d_z
    g = MlpParams(layers=(Layer(weight=np.eye(dz), bias=np.zeros(dz),
                                activation="linear"),))
    e_w = np.zeros((dz, dz))
    e_w[:2, :2] = np.eye(2)
    e_w[2:, 2:] = 800.0 * np.eye(3)
    e = MlpParams(layers=(Layer(weight=e_w, bias=np.zeros(dz),
                                activation="softmax-tail", tail=3),))
    d = random_params(rng, (dz, 4, 1))
    zb = sample_latent(6, latent, rng.integers(0, 3, size=6), rng)
    cfg = tiny_cfg(w1=0.0, batch=6)
    loss, _, _, diag = gen_enc_loss_and_grads(g, e, d, zb, cfg, latent)
    assert abs(loss) < 1e-12
    assert abs(diag["cos"]) < 1e-12
    assert diag["ce"] == 0.0  # saturated logits give exact one-hot probs


def test_gen_enc_step_leaves_discriminator_untouched(rng):
    latent, g, d, e, zb = _joint_setup(rng)
    d_copy = [(l.weight.copy(), l.bias.copy()) for l in d.layers]
    gen_enc_step(g, e, d, zb, tiny_cfg(), adam_init(g), adam_init(e), latent)
    for (w, b), layer in zip(d_copy, d.layers):
        assert np.array_equal(w, layer.weight)
        assert np.array_equal(b, layer.bias)


def test_gen_enc_joint_gradients_match_finite_differences(rng):
    latent, g, d, e, zb = _joint_setup(rng, m=4)
    cfg = tiny_cfg(batch=4, w1=1.0, w2=2.0, w3=3.0)
    _, g_grads, e_grads, _ = gen_enc_loss_and_grads(g, e, d, zb, cfg, latent)
    fd_g = fd_param_grads(
        lambda p: gen_enc_loss_and_grads(p, e, d, zb, cfg, latent)[0], g)
    fd_e = fd_param_grads(
        lambda p: gen_enc_loss_and_grads(g, p, d, zb, cfg, latent)[0], e)
    assert_grads_close(g_grads, fd_g, rtol=1e-4)
    assert_grads_close(e_grads, fd_e, rtol=1e-4)


def test_gen_enc_step_divergence_names_iteration(rng):
    latent, g, d, e, zb = _joint_setup(rng)
    bad_layers = list(g.layers)
    w = bad_layers[0].weight.copy()
    w[0, 0] = np.inf
    bad_layers[0] = Layer(weight=w, bias=bad_layers[0].bias,
                          activation=bad_layers[0].activation)
    bad_g = MlpParams(layers=tuple(bad_layers))
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises(DivergenceError, match="iteration 7"):
            gen_enc_step(bad_g, e, d, zb, tiny_cfg(), adam_init(bad_g),
                         adam_init(e), latent, iteration=7)


# ------------------------------------------------------------ training loop

def test_train_zero_iterations_is_noop(rng):
    data = make_corpus(rng)
    latent = LatentConfig(d_c=4, d_n=3)
    cfg = tiny_cfg(n_iter=0, seed=5)
    g, d, e, log = train_clustergan(data, cfg, latent)
    g0, d0, e0 = build_models(data.dim, latent, seed=5)
    for got, init in ((g, g0), (d, d0), (e, e0)):
        for la, lb in zip(got.params.layers, init.params.layers):
            assert np.array_equal(la.weight, lb.weight)
    assert log == []


def test_train_deterministic_and_logged(rng, tmp_path):
    data = make_corpus(rng)
    latent = LatentConfig(d_c=4, d_n=3)
    cfg = tiny_cfg(n_iter=3, n_critic=2, seed=9)
    log_path = tmp_path / "log.csv"
    g1, d1, e1, log1 = train_clustergan(data, cfg, latent, log_path=log_path)
    g2, d2, e2, log2 = train_clustergan(data, cfg, latent)
    for a, b in ((g1, g2), (d1, d2), (e1, e2)):
        for la, lb in zip(a.params.layers, b.params.layers):
            assert np.array_equal(la.weight, lb.weight)
            assert np.array_equal(la.bias, lb.bias)
    assert log1 == log2 and len(log1) == 3
    for row in log1:
        assert 0.0 <= row["cos"] <= 2.0
        assert row["ce"] >= 0.0 and row["gp"] >= 0.0
    text = log_path.read_text().splitlines()
    assert text[0] == "iter,wasserstein,gp,adv,cos,ce"
    assert len(text) == 4


def test_train_stage_and_weights_recorded(rng):
    data = make_corpus(rng)
    latent = LatentConfig(d_c=4, d_n=3)
    g, d, e, _ = train_clustergan(data, tiny_cfg(n_iter=1, seed=2), latent)
    for ck in (g, d, e):
        assert ck.provenance.stage == "clustergan"
        assert ck.provenance.loss_weights == (1.0, 10.0, 10.0)
        assert len(ck.provenance.config_digest) == 64


def test_train_k_mismatch_rejected(rng):
    data = make_corpus(rng, k=4)
    with pytest.raises(ValueError, match="d_c"):
        train_clustergan(data, tiny_cfg(), LatentConfig(d_c=3, d_n=2))


def test_train_divergence_keeps_last_good_state(rng):
    data = make_corpus(rng)
    bad = LabeledEmbeddings(x=np.full_like(data.x, np.inf),
                            labels=data.labels, k=data.k)
    latent = LatentConfig(d_c=4, d_n=3)
    cfg = tiny_cfg(n_iter=5, batch=40, seed=3)
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.warns(UserWarning, match="stopped"):
            g, d, e, log = train_clustergan(bad, cfg, latent)
    g0, d0, e0 = build_models(data.dim, latent, seed=3)
    for got, init in ((g, g0), (d, d0), (e, e0)):
        for la, lb in zip(got.params.layers, init.params.layers):
            assert np.array_equal(la.weight, lb.weight)
    assert log == []


# ---------------------------------------------------- in-place rollback

def _flat_bits(params):
    return params.flat.copy().view(np.int64)


# where each gradient function returns its flat parameter gradient
GRAD_INDEX = {"critic_param_gradient": 2, "mlp_backward": 0}


def _poison(name, at, entry):
    """gan.<name>, except that its ``at``-th call (from 1) returns a copy
    of the flat gradient with a NaN at ``entry``; also the call log."""
    real, index, calls = getattr(gan, name), GRAD_INDEX[name], []

    def poisoned(*args, **kwargs):
        out = list(real(*args, **kwargs))
        calls.append(len(calls) + 1)
        if len(calls) == at:
            out[index] = out[index].copy()
            out[index][entry] = np.nan
        return tuple(out)

    return poisoned, calls


@pytest.mark.parametrize("target, at", [
    ("critic_param_gradient", 5 + 3),   # critic step 3 of iteration 2
    ("mlp_backward", 2),                # E's gradient in iteration 2
])
def test_train_rollback_returns_last_iteration_bits(rng, monkeypatch,
                                                     target, at):
    # By the failure, iteration 2 has written D (two critic steps, or all
    # five); D comes back from its copy and G and E were never written,
    # so the result is the 1-iteration run bit for bit
    data = make_corpus(rng)
    latent = LatentConfig(d_c=4, d_n=3)
    cfg = tiny_cfg(n_iter=4, n_critic=5, seed=6)
    one = train_clustergan(data, tiny_cfg(n_iter=1, n_critic=5, seed=6),
                           latent)
    poisoned, calls = _poison(target, at, -1)
    monkeypatch.setattr(gan, target, poisoned)
    with pytest.warns(UserWarning,
                      match="non-finite gradient .* iteration 2; "
                            "returning state from iteration 1"):
        g, d, e, log = train_clustergan(data, cfg, latent)
    assert len(calls) == at
    assert log == one[3]
    for got, want in zip((g, d, e), one[:3]):
        assert np.array_equal(_flat_bits(got.params), _flat_bits(want.params))


def test_gen_enc_non_finite_encoder_gradient_leaves_generator_unwritten(
        rng, monkeypatch):
    latent, g, d, e, zb = _joint_setup(rng)
    g_opt, e_opt = adam_init(g), adam_init(e)
    # G's gradient is finite: without the poison the step writes G
    _, g_grads, _, _ = gen_enc_loss_and_grads(g, e, d, zb, tiny_cfg(), latent)
    assert np.isfinite(g_grads).all() and g_grads.any()
    poisoned, _ = _poison("mlp_backward", 1, 0)
    monkeypatch.setattr(gan, "mlp_backward", poisoned)
    before = [a.copy().view(np.int64) for a in
              (g.flat, g_opt.m, g_opt.v, e.flat, e_opt.m, e_opt.v)]
    with pytest.raises(DivergenceError, match="layer 0 at iteration 3"):
        gen_enc_step(g, e, d, zb, tiny_cfg(), g_opt, e_opt, latent,
                     iteration=3)
    after = [a.copy().view(np.int64) for a in
             (g.flat, g_opt.m, g_opt.v, e.flat, e_opt.m, e_opt.v)]
    assert all(np.array_equal(a, b) for a, b in zip(before, after))
    assert g_opt.step == e_opt.step == 0


def test_train_leaves_the_callers_models_untouched(rng):
    data = make_corpus(rng)
    latent = LatentConfig(d_c=4, d_n=3)
    cfg = tiny_cfg(n_iter=3, n_critic=2, seed=4)
    models = build_models(data.dim, latent, seed=4)
    before = [_flat_bits(ck.params) for ck in models]
    trained = train_clustergan(data, cfg, latent, models=models)[:3]
    for ck, bits, out in zip(models, before, trained):
        assert np.array_equal(_flat_bits(ck.params), bits)
        assert not np.shares_memory(ck.params.flat, out.params.flat)
        assert not np.array_equal(ck.params.flat, out.params.flat)
    again = train_clustergan(data, cfg, latent, models=models)[:3]
    for a, b in zip(trained, again):
        assert np.array_equal(_flat_bits(a.params), _flat_bits(b.params))
