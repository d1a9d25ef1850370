"""Tests for episodic prototypical fine-tuning."""

import math

import numpy as np
import pytest

from deskdiar.autodiff import (
    Layer,
    MlpParams,
    ShapeError,
    adam_init,
    adam_step,
    mlp_backward,
    mlp_forward,
)
from deskdiar.gan import LabeledEmbeddings
from deskdiar.models import (
    LatentConfig,
    MlpCheckpoint,
    Provenance,
    logits_view,
)
from deskdiar.protonet import (
    Episode,
    EpisodeConfigError,
    ProtoConfig,
    compute_prototypes,
    episode_loss_and_grads,
    finetune_mcgan,
    n_c_choice_set,
    proto_loss,
    sample_episode,
)

from oracles import assert_grads_close, fd_param_grads, random_params


def corpus(rng, k=6, per=25, dim=5, spread=3.0, std=0.1):
    means = spread * rng.standard_normal((k, dim))
    labels = np.repeat(np.arange(k), per)
    x = means[labels] + std * rng.standard_normal((k * per, dim))
    return LabeledEmbeddings(x=x, labels=labels, k=k)


# ------------------------------------------------------------ choice sets

def test_choice_set_full_and_clipped():
    assert n_c_choice_set(150) == tuple(range(10, 151, 10))
    assert n_c_choice_set(12) == (10,)
    assert n_c_choice_set(45) == (10, 20, 30, 40)
    assert n_c_choice_set(9) == tuple(range(2, 10))
    assert n_c_choice_set(2) == (2,)
    with pytest.raises(EpisodeConfigError):
        n_c_choice_set(1)


# -------------------------------------------------------- episode sampling

def test_sample_episode_clipped_choice_always_ten(rng):
    data = corpus(rng, k=12, per=20)
    cfg = ProtoConfig(episodes=1)
    for _ in range(20):
        ep = sample_episode(data, cfg, rng)
        assert ep.n_c == 10
        assert np.unique(ep.speakers).size == 10


def test_sample_episode_exact_count_speaker_disjoint(rng):
    # rows are identifiable via a unique first coordinate
    k, per = 3, 20
    x = np.zeros((k * per, 2))
    x[:, 0] = np.arange(k * per)
    labels = np.repeat(np.arange(k), per)
    data = LabeledEmbeddings(x=x, labels=labels, k=k)
    cfg = ProtoConfig(episodes=1)
    ep = sample_episode(data, cfg, rng)
    for i, spk in enumerate(ep.speakers):
        ids = np.concatenate([ep.support[i, :, 0], ep.query[i, :, 0]])
        expected = x[labels == spk, 0]
        assert np.array_equal(np.sort(ids), np.sort(expected))
        assert not set(ep.support[i, :, 0]) & set(ep.query[i, :, 0])


def test_sample_episode_insufficient_speakers(rng):
    x = rng.standard_normal((24, 3))
    labels = np.array([0] * 20 + [1] * 2 + [2] * 2)
    data = LabeledEmbeddings(x=x, labels=labels, k=3)
    with pytest.raises(EpisodeConfigError, match="1 of 3"):
        sample_episode(data, ProtoConfig(episodes=1), rng)


def test_sample_episode_choice_frequencies_uniform():
    rng = np.random.default_rng(11)
    k, per = 150, 20
    labels = np.repeat(np.arange(k), per)
    x = np.zeros((k * per, 1))
    data = LabeledEmbeddings(x=x, labels=labels, k=k)
    cfg = ProtoConfig(episodes=1, n_s=10, n_q=10)
    draws = 10_000
    counts = np.zeros(16, dtype=int)
    for _ in range(draws):
        ep = sample_episode(data, cfg, rng)
        counts[ep.n_c // 10] += 1
    choices = np.arange(1, 16)
    p = 1.0 / 15
    sigma = math.sqrt(draws * p * (1 - p))
    for c in choices:
        assert abs(counts[c] - draws * p) <= 3 * sigma


# -------------------------------------------------------------- prototypes

def test_prototype_singleton_and_symmetry(rng):
    v = rng.standard_normal((1, 4))
    assert np.array_equal(compute_prototypes([v])[0], v[0])
    pair = np.stack([v[0], -v[0]])
    assert np.allclose(compute_prototypes([pair])[0], 0.0)


def test_prototype_matches_independent_sum(rng):
    rows = rng.standard_normal((10, 6))
    proto = compute_prototypes(rows[None])[0]
    manual = np.zeros(6)
    for r in rows:
        manual = manual + r
    np.testing.assert_allclose(proto, manual / 10, atol=1e-12, rtol=0)


def test_prototype_duplication_idempotent(rng):
    rows = rng.standard_normal((7, 3))
    once = compute_prototypes([rows])[0]
    twice = compute_prototypes([np.vstack([rows, rows])])[0]
    np.testing.assert_allclose(once, twice, atol=1e-12, rtol=0)


# --------------------------------------------------------------- the loss

def test_proto_loss_single_class_is_zero(rng):
    q = rng.standard_normal((4, 3))
    loss, probs, _, _ = proto_loss(rng.standard_normal((1, 3)), q,
                                   np.zeros(4, dtype=int))
    assert loss == 0.0
    assert np.array_equal(probs, np.ones((4, 1)))


def test_proto_loss_equidistant_pair():
    protos = np.array([[1.0, 0.0], [-1.0, 0.0]])
    q = np.array([[0.0, 0.7]])
    loss, probs, _, _ = proto_loss(protos, q, np.array([0]))
    np.testing.assert_allclose(probs, [[0.5, 0.5]], atol=1e-12)
    assert abs(loss - math.log(2.0)) < 1e-12


def test_proto_loss_three_prototype_hand_case():
    protos = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, math.sqrt(2.0)]])
    q = np.array([[0.0, 0.0]])  # squared distances 0, 1, 2
    loss, probs, _, _ = proto_loss(protos, q, np.array([0]))
    z = 1.0 + math.exp(-1.0) + math.exp(-2.0)
    expected = [1.0 / z, math.exp(-1.0) / z, math.exp(-2.0) / z]
    np.testing.assert_allclose(probs[0], expected, rtol=1e-12)
    assert abs(loss + math.log(expected[0])) < 1e-12


def test_proto_loss_probabilities_and_nonnegativity(rng):
    for _ in range(10):
        protos = rng.standard_normal((5, 4))
        q = rng.standard_normal((12, 4))
        labels = rng.integers(0, 5, size=12)
        loss, probs, _, _ = proto_loss(protos, q, labels)
        assert loss >= 0.0
        assert np.abs(probs.sum(axis=1) - 1.0).max() <= 1e-9


def test_proto_loss_translation_invariance(rng):
    protos = rng.standard_normal((4, 3))
    q = rng.standard_normal((6, 3))
    labels = rng.integers(0, 4, size=6)
    _, probs, _, _ = proto_loss(protos, q, labels)
    c = rng.standard_normal(3) * 5.0
    _, probs2, _, _ = proto_loss(protos + c, q + c, labels)
    assert np.abs(probs - probs2).max() < 1e-9


def test_proto_loss_large_distances_stay_finite():
    protos = np.array([[0.0, 0.0], [400.0, 0.0]])
    q = np.array([[500.0, 0.0]])  # squared distances 250000 and 10000
    loss, probs, gq, gp = proto_loss(protos, q, np.array([0]))
    assert np.isfinite(loss)
    assert np.isfinite(probs).all() and np.isfinite(gq).all()
    assert abs(probs.sum() - 1.0) <= 1e-9


def test_proto_loss_label_range_checked(rng):
    with pytest.raises(ValueError, match="range"):
        proto_loss(rng.standard_normal((2, 3)),
                   rng.standard_normal((1, 3)), np.array([2]))


def test_proto_loss_point_gradients_match_fd(rng):
    protos = rng.standard_normal((3, 4))
    q = rng.standard_normal((5, 4))
    labels = rng.integers(0, 3, size=5)
    _, _, gq, gp = proto_loss(protos, q, labels)
    h = 1e-6

    def val(p_, q_):
        return proto_loss(p_, q_, labels)[0]

    fd_q = np.zeros_like(q)
    for i in np.ndindex(q.shape):
        qp, qm = q.copy(), q.copy()
        qp[i] += h
        qm[i] -= h
        fd_q[i] = (val(protos, qp) - val(protos, qm)) / (2 * h)
    fd_p = np.zeros_like(protos)
    for i in np.ndindex(protos.shape):
        pp, pm = protos.copy(), protos.copy()
        pp[i] += h
        pm[i] -= h
        fd_p[i] = (val(pp, q) - val(pm, q)) / (2 * h)
    np.testing.assert_allclose(gq, fd_q, rtol=1e-5, atol=1e-8)
    np.testing.assert_allclose(gp, fd_p, rtol=1e-5, atol=1e-8)


# ----------------------------------------------- episode parameter gradients

def test_episode_gradients_match_fd(rng):
    latent = LatentConfig(d_c=3, d_n=2)
    e = random_params(rng, (4, 6, latent.d_z), final="softmax-tail", tail=3)
    episode = Episode(
        speakers=np.arange(3),
        support=rng.standard_normal((3, 4, 4)),
        query=rng.standard_normal((3, 2, 4)),
    )
    _, grads, _ = episode_loss_and_grads(e, episode, n_s=4)
    fd = fd_param_grads(
        lambda p: episode_loss_and_grads(p, episode, n_s=4)[0], e)
    assert_grads_close(grads, fd, rtol=1e-4)


def two_pass_episode_loss_and_grads(e_params, episode, n_s):
    """Reference: support and query through separate forward and backward
    passes, their parameter gradients summed."""
    view = logits_view(e_params)
    n_c, _, dim = episode.support.shape
    sup_emb, sup_tape = mlp_forward(view, episode.support.reshape(-1, dim))
    qry_emb, qry_tape = mlp_forward(view, episode.query.reshape(-1, dim))
    protos = compute_prototypes(sup_emb.reshape(n_c, n_s, -1))
    labels = np.repeat(np.arange(n_c), episode.query.shape[1])
    loss, _, grad_q, grad_p = proto_loss(protos, qry_emb, labels)
    gq, _ = mlp_backward(qry_tape, grad_q)
    gs, _ = mlp_backward(sup_tape, np.repeat(grad_p / n_s, n_s, axis=0))
    return loss, gq + gs


def test_stacked_episode_pass_matches_two_pass_reference():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        e = random_params(rng, (32, 64, 64, 48, 16), final="softmax-tail",
                          tail=6, scale=0.3)
        episode = Episode(speakers=np.arange(10),
                          support=rng.standard_normal((10, 10, 32)),
                          query=rng.standard_normal((10, 10, 32)))
        loss, grads, _ = episode_loss_and_grads(e, episode, n_s=10)
        ref_loss, ref = two_pass_episode_loss_and_grads(e, episode, 10)
        assert loss == pytest.approx(ref_loss, rel=1e-12, abs=0.0)
        got = [a for pair in e.views(grads) for a in pair]
        ref = [a for pair in e.views(ref) for a in pair]
        final_bias = len(got) - 1
        for i, (g, r) in enumerate(zip(got, ref)):
            if i == final_bias:
                # the loss sees only differences of embeddings, so this
                # gradient is zero up to rounding on both sides
                assert np.abs(g).max() < 1e-13 and np.abs(r).max() < 1e-13
            else:
                assert np.abs(g - r).max() <= 1e-12 * np.abs(r).max()


# --------------------------------------------------------------- fine-tune

def tiny_encoder(rng, dim=6, latent=None, stage="clustergan"):
    latent = latent or LatentConfig(d_c=3, d_n=3)
    params = random_params(rng, (dim, 8, 8, 10, latent.d_z),
                           final="softmax-tail", tail=latent.d_c)
    return MlpCheckpoint(role="encoder", params=params, latent=latent,
                         provenance=Provenance(stage=stage, seed=0))


def test_finetune_zero_episodes_flips_stage_only(rng):
    e = tiny_encoder(rng)
    data = corpus(rng, dim=6)
    out, curve = finetune_mcgan(e, data, ProtoConfig(episodes=0))
    assert out.provenance.stage == "mcgan"
    assert curve == []
    for la, lb in zip(e.params.layers, out.params.layers):
        assert np.array_equal(la.weight, lb.weight)
        assert np.array_equal(la.bias, lb.bias)


def test_finetune_freezes_first_two_layers(rng):
    e = tiny_encoder(rng)
    # overlapping clusters keep the episode loss away from exact zero so
    # the trainable layers receive real gradients
    data = corpus(rng, dim=6, spread=0.8, std=0.6)
    out, curve = finetune_mcgan(e, data, ProtoConfig(episodes=60, seed=4))
    assert len(curve) == 60
    for li in (0, 1):
        assert np.array_equal(e.params.layers[li].weight,
                              out.params.layers[li].weight)
        assert np.array_equal(e.params.layers[li].bias,
                              out.params.layers[li].bias)
    assert not np.array_equal(e.params.layers[2].weight,
                              out.params.layers[2].weight)
    assert not np.array_equal(e.params.layers[-1].weight,
                              out.params.layers[-1].weight)


def test_finetune_no_frozen_layers_trains_every_layer(rng):
    e = tiny_encoder(rng)
    data = corpus(rng, dim=6, spread=0.8, std=0.6)
    out, curve = finetune_mcgan(
        e, data, ProtoConfig(episodes=20, seed=4, frozen_layers=0))
    assert len(curve) == 20
    for la, lb in zip(e.params.layers, out.params.layers):
        assert not np.array_equal(la.weight, lb.weight)


@pytest.mark.parametrize("frozen", [4, 9])
def test_finetune_all_layers_frozen_changes_nothing(rng, frozen):
    e = tiny_encoder(rng)
    data = corpus(rng, dim=6, spread=0.8, std=0.6)
    out, curve = finetune_mcgan(
        e, data, ProtoConfig(episodes=5, seed=4, frozen_layers=frozen))
    assert len(e.params.layers) == 4
    assert out.provenance.stage == "mcgan"
    assert np.array_equal(out.params.flat.view(np.int64),
                          e.params.flat.view(np.int64))
    assert curve == []  # nothing trains, so no episode runs


def test_frozen_prefix_matches_zeroed_gradient_reference(rng):
    # Adam over a gradient zeroed on the first two layers leaves them as
    # they are, so differentiating only the suffix must give the same bits
    e = tiny_encoder(rng)
    data = corpus(rng, dim=6, spread=0.8, std=0.6)
    cfg = ProtoConfig(episodes=8, seed=3, alpha=1e-3)
    out, curve = finetune_mcgan(e, data, cfg)
    params, rng_ref = e.params, np.random.default_rng(cfg.seed)
    opt = adam_init(params, cfg.alpha, cfg.beta1, cfg.beta2)
    cut = sum(l.weight.size + l.bias.size for l in params.layers[:2])
    for row in curve:
        episode = sample_episode(data, cfg, rng_ref)
        loss, grads, _ = episode_loss_and_grads(params, episode, cfg.n_s)
        assert loss == row["loss"]
        grads[:cut] = 0.0
        params, opt = adam_step(opt, params, grads)
    assert np.array_equal(out.params.flat.view(np.int64),
                          params.flat.view(np.int64))


def test_finetune_leaves_the_callers_encoder_untouched(rng):
    # the trainable suffix is a copy: Adam's in-place writes never reach
    # the vector of the checkpoint passed in
    e = tiny_encoder(rng)
    data = corpus(rng, dim=6, spread=0.8, std=0.6)
    before = e.params.flat.copy().view(np.int64)
    cfg = ProtoConfig(episodes=10, seed=1)
    out, _ = finetune_mcgan(e, data, cfg)
    assert np.array_equal(e.params.flat.view(np.int64), before)
    assert not np.shares_memory(out.params.flat, e.params.flat)
    assert not np.array_equal(out.params.flat, e.params.flat)
    again, _ = finetune_mcgan(e, data, cfg)
    assert np.array_equal(again.params.flat.view(np.int64),
                          out.params.flat.view(np.int64))


def test_finetune_loss_decreases_on_separable_corpus(rng):
    latent = LatentConfig(d_c=4, d_n=4)
    e = tiny_encoder(rng, dim=16, latent=latent)
    data = corpus(rng, k=40, per=20, dim=16, spread=2.0, std=0.05)
    out, curve = finetune_mcgan(e, data, ProtoConfig(episodes=500, seed=2,
                                                     alpha=1e-3))
    losses = [row["loss"] for row in curve]
    assert np.mean(losses[-50:]) < np.mean(losses[:50])
    assert out.provenance.stage == "mcgan"


def test_finetune_deterministic_and_logs_csv(rng, tmp_path):
    e = tiny_encoder(rng)
    data = corpus(rng, dim=6)
    cfg = ProtoConfig(episodes=20, seed=8)
    log = tmp_path / "proto.csv"
    a, curve_a = finetune_mcgan(e, data, cfg, log_path=log)
    b, curve_b = finetune_mcgan(e, data, cfg)
    assert curve_a == curve_b
    for la, lb in zip(a.params.layers, b.params.layers):
        assert np.array_equal(la.weight, lb.weight)
    lines = log.read_text().splitlines()
    assert lines[0] == "episode,n_c,loss"
    assert len(lines) == 21


def test_finetune_divergence_keeps_last_state(rng):
    e = tiny_encoder(rng)
    layers = list(e.params.layers)
    w = layers[2].weight.copy()
    w[0, 0] = np.inf
    layers[2] = Layer(weight=w, bias=layers[2].bias,
                      activation=layers[2].activation)
    bad = MlpCheckpoint(role="encoder",
                        params=MlpParams(layers=tuple(layers)),
                        latent=e.latent, provenance=e.provenance)
    data = corpus(rng, dim=6)
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.warns(UserWarning, match="stopped"):
            out, curve = finetune_mcgan(bad, data, ProtoConfig(episodes=5))
    assert curve == []
    for la, lb in zip(bad.params.layers, out.params.layers):
        assert np.array_equal(la.weight, lb.weight)


def test_finetune_stage_guard(rng):
    e = tiny_encoder(rng, stage="mcgan")
    data = corpus(rng, dim=6)
    with pytest.raises(ValueError, match="stage"):
        finetune_mcgan(e, data, ProtoConfig(episodes=1))
    out, _ = finetune_mcgan(e, data, ProtoConfig(episodes=1),
                            allow_stage_mismatch=True)
    assert out.provenance.stage == "mcgan"


def test_finetune_rejects_non_encoder(rng):
    latent = LatentConfig(d_c=3, d_n=3)
    g = MlpCheckpoint(role="generator",
                      params=random_params(rng, (latent.d_z, 4, 5)),
                      latent=latent, provenance=Provenance())
    with pytest.raises(ValueError, match="encoder"):
        finetune_mcgan(g, corpus(rng, dim=6), ProtoConfig(episodes=1))


def test_episode_shape_validation(rng):
    with pytest.raises(ShapeError):
        Episode(speakers=np.arange(2),
                support=rng.standard_normal((2, 3, 4)),
                query=rng.standard_normal((3, 2, 4)))
    with pytest.raises(ShapeError):
        Episode(speakers=np.arange(2),
                support=rng.standard_normal((2, 3, 4)),
                query=rng.standard_normal((2, 2, 5)))
