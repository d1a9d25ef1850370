"""Reused step buffers: the same bits as fresh arrays, and training and
fine-tuning steps that allocate (almost) nothing once warm."""

import tracemalloc

import numpy as np
import pytest

from deskdiar import autodiff, protonet
from deskdiar.autodiff import (
    MlpParams,
    adam_init,
    adam_step,
    critic_param_gradient,
    mlp_backward,
    mlp_forward,
    mlp_input_backward,
    mlp_param_backward,
    step_buffer,
    step_buffers,
)
from deskdiar.gan import GanTrainConfig, LabeledEmbeddings, critic_step, \
    gen_enc_step
from deskdiar.models import LatentConfig, build_models, sample_latent
from deskdiar.protonet import ProtoConfig, episode_loss_and_grads, \
    sample_episode

from oracles import random_params

MIB = 1 << 20
# a warm step may allocate small arrays (latent draws, row concatenations,
# per-row norms), never a layer's activations or a flat vector
STEP_RISE_MAX = 2 * MIB


def test_step_buffer_is_fresh_outside_and_shared_inside():
    a, b = step_buffer(("k",), (3, 4)), step_buffer(("k",), (3, 4))
    assert not np.shares_memory(a, b)
    with step_buffers():
        c = step_buffer(("k",), (3, 4))
        assert c.shape == (3, 4) and c.flags.c_contiguous
        assert np.shares_memory(step_buffer(("k",), (3, 4)), c)
        assert np.shares_memory(step_buffer(("k",), (2, 5)), c)
        assert not np.shares_memory(step_buffer(("k",), (3, 4), np.int64), c)
        assert not np.shares_memory(step_buffer(("other",), (3, 4)), c)
        with step_buffers():
            assert not np.shares_memory(step_buffer(("k",), (3, 4)), c)
        assert np.shares_memory(step_buffer(("k",), (3, 4)), c)
        big = step_buffer(("k",), (5, 4))  # outgrows c: a new buffer
        assert not np.shares_memory(big, c)
        assert np.shares_memory(step_buffer(("k",), (3, 4)), big)
    assert not np.shares_memory(step_buffer(("k",), (3, 4)), c)


def _arena_bytes() -> int:
    return sum(buf.nbytes for buf in autodiff._ARENA.get().values())


def test_episodes_of_many_sizes_retain_only_the_largest_ones_buffers(rng):
    # 60 speakers: episodes of 10 to 60 speakers, drawn in mixed order
    net = random_params(rng, (6, 9, 5))
    labels = np.repeat(np.arange(60), 20)
    data = LabeledEmbeddings(x=rng.standard_normal((labels.size, 6)),
                             labels=labels, k=60)
    cfg = ProtoConfig(episodes=1)
    draw = np.random.default_rng(3)
    episodes = []
    while len({ep.n_c for ep in episodes}) < 6:
        ep = sample_episode(data, cfg, draw)
        episodes.append(ep)
    fresh = [episode_loss_and_grads(net, ep, cfg.n_s)[1] for ep in episodes]
    largest = max(episodes, key=lambda ep: ep.n_c)

    with step_buffers():
        episode_loss_and_grads(net, largest, cfg.n_s)
        alone = _arena_bytes()
    with step_buffers():
        for ep, want in zip(episodes, fresh):
            got = episode_loss_and_grads(net, ep, cfg.n_s)[1]
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
        mixed = _arena_bytes()
    assert mixed == alone, f"{mixed} bytes held, {alone} for the largest"


def test_prefix_maps_in_chunks_bit_for_bit(rng, monkeypatch):
    frozen = random_params(rng, (6, 16, 16))
    x = rng.standard_normal((203, 6))
    whole = mlp_forward(frozen, x)[0].copy()
    monkeypatch.setattr(protonet, "PREFIX_CHUNK", 50)  # 5 chunks of 40-41
    assert np.array_equal(protonet.map_prefix(frozen, x).view(np.int64),
                          whole.view(np.int64))
    assert protonet.map_prefix(frozen, x[:0]).shape == (0, 16)


def _bits(arrays):
    return [np.asarray(a, dtype=np.float64).copy().view(np.int64)
            for a in arrays]


def _passes(net, x, up, critic, x_hat):
    out, tape = mlp_forward(net, x)
    grads, dx = mlp_backward(tape, up)
    res = [out, grads, dx]
    res += [mlp_param_backward(tape, up), mlp_input_backward(tape, up)]
    res += list(critic_param_gradient(critic, x, np.ones((x.shape[0], 1)),
                                      x_hat, 10.0))[::2]
    return _bits(res)


def test_buffered_passes_match_fresh_arrays_bit_for_bit(rng):
    net = random_params(rng, (6, 9, 9, 4))
    critic = random_params(rng, (6, 9, 9, 1))
    x = rng.standard_normal((7, 6))
    up = rng.standard_normal((7, 4))
    x_hat = rng.standard_normal((5, 6))
    fresh = _passes(net, x, up, critic, x_hat)
    with step_buffers():
        for _ in range(2):  # the second round runs in used buffers
            got = _passes(net, x, up, critic, x_hat)
            assert all(np.array_equal(a, b) for a, b in zip(fresh, got))


def _rise(step) -> int:
    """Peak traced memory during ``step()`` above its level at the start."""
    tracemalloc.reset_peak()
    start = tracemalloc.get_traced_memory()[0]
    step()
    return tracemalloc.get_traced_memory()[1] - start


@pytest.fixture
def traced():
    tracemalloc.start()
    try:
        yield
    finally:
        tracemalloc.stop()


def test_warm_training_steps_allocate_under_two_mib(traced):
    # the shipped shapes: 32-dim rows, 20 speakers, batch 128
    latent = LatentConfig(d_c=20, d_n=90)
    cfg = GanTrainConfig(n_iter=1, batch=128)
    g, d, e = (ck.params for ck in build_models(32, latent, seed=0))
    d_opt, g_opt, e_opt = (adam_init(n, cfg.alpha, cfg.beta1, cfg.beta2)
                           for n in (d, g, e))
    rng = np.random.default_rng(0)
    x = rng.standard_normal((cfg.batch, 32))

    def draw():
        return sample_latent(cfg.batch, latent,
                             rng.integers(0, latent.d_c, size=cfg.batch), rng)

    with step_buffers():
        for _ in range(2):  # the second round runs warm
            zc, zg = draw(), draw()
            critic = _rise(lambda: critic_step(d, g, x, zc, cfg, d_opt, rng))
            joint = _rise(lambda: gen_enc_step(g, e, d, zg, cfg, g_opt,
                                               e_opt, latent))
    assert critic < STEP_RISE_MAX, f"critic step: {critic / MIB:.1f} MiB"
    assert joint < STEP_RISE_MAX, f"generator/encoder step: {joint / MIB:.1f} MiB"


def test_warm_finetuning_episodes_allocate_under_two_mib(traced):
    # the shipped encoder behind its 2-layer prefix, on 20 speakers, so
    # episodes hold 10 or 20 speakers
    latent = LatentConfig(d_c=20, d_n=90)
    enc = build_models(32, latent, seed=0)[2].params
    cut = sum(l.weight.size + l.bias.size for l in enc.layers[:2])
    tuned = MlpParams.from_flat(enc.flat[cut:].copy(), enc.arch[2:])
    rng = np.random.default_rng(1)
    labels = np.repeat(np.arange(20), 40)
    data = LabeledEmbeddings(x=rng.random((labels.size, 512)),
                             labels=labels, k=20)
    cfg = ProtoConfig(episodes=1, alpha=1e-4)
    opt = adam_init(tuned, cfg.alpha, cfg.beta1, cfg.beta2)

    def episode():
        ep = sample_episode(data, cfg, rng)
        _, grads, diag = episode_loss_and_grads(tuned, ep, cfg.n_s)
        adam_step(opt, tuned, grads)
        sizes.append(diag["n_c"])

    sizes, rises = [], {}
    with step_buffers():
        while len(rises) < 2:
            rise = _rise(episode)
            if sizes.count(sizes[-1]) > 1:  # a warm episode of this size
                rises[sizes[-1]] = rise
    assert sorted(rises) == [10, 20]
    for n_c, rise in rises.items():
        assert rise < STEP_RISE_MAX, f"{n_c}-speaker episode: {rise / MIB:.1f} MiB"
