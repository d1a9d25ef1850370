"""Tests for network construction, latent sampling, encoding, checkpoints."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deskdiar.autodiff import Layer, MlpParams
from deskdiar.models import (
    CheckpointFormatError,
    EncodeMode,
    LatentConfig,
    MlpCheckpoint,
    Provenance,
    build_models,
    encode,
    load_checkpoint,
    sample_latent,
    save_checkpoint,
)


# ----------------------------------------------------------- construction

def test_build_models_narrowband_dims():
    g, d, e = build_models(128, LatentConfig(d_c=932, d_n=90), seed=1)
    assert e.params.out_dim == 1022
    assert g.params.out_dim == 128
    assert d.params.out_dim == 1


def test_build_models_wideband_dims():
    g, _, _ = build_models(512, LatentConfig(d_c=201, d_n=90), seed=1)
    assert g.params.in_dim == 291


def test_build_models_discriminator_structure():
    _, d, _ = build_models(16, LatentConfig(d_c=3, d_n=4), seed=1)
    dims = [(l.in_dim, l.out_dim) for l in d.params.layers]
    assert dims == [(16, 512), (512, 512), (512, 512), (512, 1)]
    assert [l.activation for l in d.params.layers] == \
        ["relu", "relu", "relu", "linear"]


def test_build_models_encoder_structure_and_tail():
    latent = LatentConfig(d_c=5, d_n=7)
    _, _, e = build_models(12, latent, seed=3)
    dims = [e.params.in_dim] + [l.out_dim for l in e.params.layers]
    assert dims == [12, 512, 512, 1024, 12]
    assert e.params.layers[-1].activation == "softmax-tail"
    assert e.params.layers[-1].tail == 5
    assert all(np.all(l.bias == 0.0) for l in e.params.layers)


def test_build_models_deterministic_by_seed():
    latent = LatentConfig(d_c=4, d_n=6)
    a = build_models(10, latent, seed=7)
    b = build_models(10, latent, seed=7)
    for ck_a, ck_b in zip(a, b):
        for la, lb in zip(ck_a.params.layers, ck_b.params.layers):
            assert np.array_equal(la.weight, lb.weight)


# ---------------------------------------------------------------- latents

def test_sample_latent_sigma_statistics():
    latent = LatentConfig(d_c=3, d_n=8, sigma=0.10)
    rng = np.random.default_rng(5)
    batch = sample_latent(10_000, latent, np.zeros(10_000, dtype=int), rng)
    stds = batch.z_n.std(axis=0, ddof=1)
    assert (stds >= 0.095).all() and (stds <= 0.105).all()


def test_sample_latent_one_hot():
    latent = LatentConfig(d_c=4, d_n=2)
    rng = np.random.default_rng(0)
    batch = sample_latent(1, latent, [2], rng)
    assert np.array_equal(batch.z_c, [[0.0, 0.0, 1.0, 0.0]])
    assert np.array_equal(batch.z[0, 2:], batch.z_c[0])


def test_sample_latent_deterministic():
    latent = LatentConfig(d_c=3, d_n=4)
    a = sample_latent(6, latent, [0, 1, 2, 0, 1, 2],
                      np.random.default_rng(42))
    b = sample_latent(6, latent, [0, 1, 2, 0, 1, 2],
                      np.random.default_rng(42))
    assert np.array_equal(a.z, b.z)


def test_sample_latent_label_range_checked():
    latent = LatentConfig(d_c=3, d_n=4)
    with pytest.raises(ValueError, match="range"):
        sample_latent(2, latent, [0, 3], np.random.default_rng(0))


# --------------------------------------------------------------- encoding

def _encoder(latent, x_dim=6, seed=11):
    _, _, e = build_models(x_dim, latent, seed=seed)
    return e


def test_encode_concat_mode_tail_is_distribution(rng):
    latent = LatentConfig(d_c=5, d_n=3)
    e = _encoder(latent)
    out = encode(e, rng.standard_normal((7, 6)), EncodeMode.CLUSTERGAN_CONCAT)
    tail = out[:, latent.d_n:]
    assert np.abs(tail.sum(axis=1) - 1.0).max() <= 1e-9
    assert (tail >= 0).all()
    assert out.shape == (7, latent.d_z)


def test_encode_zero_weight_encoder_is_constant(rng):
    latent = LatentConfig(d_c=3, d_n=2)
    e = _encoder(latent)
    layers = []
    for lay in e.params.layers:
        layers.append(Layer(weight=np.zeros_like(lay.weight),
                            bias=0.3 * np.ones_like(lay.bias),
                            activation=lay.activation, tail=lay.tail))
    zeroed = MlpCheckpoint(role="encoder",
                           params=MlpParams(layers=tuple(layers)),
                           latent=latent, provenance=e.provenance)
    out = encode(zeroed, rng.standard_normal((5, 6)),
                 EncodeMode.CLUSTERGAN_CONCAT)
    assert np.abs(out - out[0]).max() == 0.0


def test_encode_modes_share_linear_slice(rng):
    latent = LatentConfig(d_c=4, d_n=3)
    e = _encoder(latent)
    x = rng.standard_normal((6, 6))
    concat = encode(e, x, EncodeMode.CLUSTERGAN_CONCAT)
    with pytest.warns(UserWarning):
        logits = encode(e, x, EncodeMode.MCGAN_LOGITS)
    assert np.array_equal(concat[:, :3], logits[:, :3])
    # the tail differs: probabilities vs raw logits
    assert not np.allclose(concat[:, 3:], logits[:, 3:])


def test_encode_softmax_shift_invariance(rng):
    latent = LatentConfig(d_c=4, d_n=2)
    e = _encoder(latent)
    x = rng.standard_normal((5, 6))
    base = encode(e, x, EncodeMode.CLUSTERGAN_CONCAT)
    final = e.params.layers[-1]
    shifted_bias = final.bias.copy()
    shifted_bias[latent.d_n:] += 7.5  # constant added to every tail logit
    shifted = MlpCheckpoint(
        role="encoder",
        params=MlpParams(layers=e.params.layers[:-1] + (
            Layer(weight=final.weight, bias=shifted_bias,
                  activation=final.activation, tail=final.tail),)),
        latent=latent, provenance=e.provenance)
    out = encode(shifted, x, EncodeMode.CLUSTERGAN_CONCAT)
    assert np.abs(out[:, latent.d_n:] - base[:, latent.d_n:]).max() < 1e-9


def test_encode_stage_mismatch_warns(rng):
    latent = LatentConfig(d_c=3, d_n=2)
    e = _encoder(latent)
    assert e.provenance.stage == "clustergan"
    with pytest.warns(UserWarning, match="mcgan_logits"):
        encode(e, rng.standard_normal((2, 6)), EncodeMode.MCGAN_LOGITS)


# ------------------------------------------------------------- checkpoints

def test_checkpoint_round_trip_bit_exact(tmp_path, rng):
    latent = LatentConfig(d_c=5, d_n=4, sigma=0.2)
    _, _, e = build_models(8, latent, seed=9)
    e = MlpCheckpoint(role=e.role, params=e.params, latent=latent,
                      provenance=Provenance(stage="mcgan",
                                            config_digest="ab" * 32,
                                            seed=123,
                                            loss_weights=(1.0, 10.0, 10.0)))
    path = tmp_path / "enc.ck"
    save_checkpoint(e, path)
    back = load_checkpoint(path)
    assert back.role == "encoder"
    assert back.provenance == e.provenance
    assert back.latent == latent
    for la, lb in zip(e.params.layers, back.params.layers):
        assert np.array_equal(la.weight, lb.weight)
        assert np.array_equal(la.bias, lb.bias)
        assert la.activation == lb.activation and la.tail == lb.tail
    assert (tmp_path / "enc.ck.json").exists()


def test_checkpoint_payload_is_the_flat_vector(tmp_path):
    # the weights are params.flat as little-endian float64, after the header
    _, d, _ = build_models(6, LatentConfig(d_c=3, d_n=2), seed=4)
    path = tmp_path / "d.ck"
    save_checkpoint(d, path)
    blob = path.read_bytes()
    payload = d.params.flat.astype("<f8").tobytes()
    assert blob.endswith(payload)
    assert len(blob) - len(payload) == 4 + 2 + 1 + 1 + 4 + 4 + 8 + 8 + 1 \
        + 24 + 4 + 64 + 2 + 13 * len(d.params.layers)
    back = load_checkpoint(path).params
    assert np.array_equal(back.flat.view(np.int64),
                          d.params.flat.view(np.int64))
    assert all(np.shares_memory(l.weight, back.flat) for l in back.layers)
    assert back.arch == d.params.arch


def test_checkpoint_bad_magic_rejected(tmp_path, rng):
    latent = LatentConfig(d_c=3, d_n=2)
    g, _, _ = build_models(4, latent, seed=2)
    path = tmp_path / "g.ck"
    save_checkpoint(g, path)
    blob = bytearray(path.read_bytes())
    blob[:4] = b"NOPE"
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointFormatError, match="magic"):
        load_checkpoint(path)


def test_checkpoint_trailing_bytes_rejected(tmp_path):
    latent = LatentConfig(d_c=3, d_n=2)
    g, _, _ = build_models(4, latent, seed=2)
    path = tmp_path / "g.ck"
    save_checkpoint(g, path)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(CheckpointFormatError, match="expected"):
        load_checkpoint(path)


def test_checkpoint_truncation_rejected(tmp_path):
    latent = LatentConfig(d_c=3, d_n=2)
    g, _, _ = build_models(4, latent, seed=2)
    path = tmp_path / "g.ck"
    save_checkpoint(g, path)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(path)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       d_in=st.integers(1, 6), d_hidden=st.integers(1, 8),
       d_n=st.integers(1, 4), d_c=st.integers(2, 5))
def test_checkpoint_round_trip_property(tmp_path_factory, seed, d_in,
                                        d_hidden, d_n, d_c):
    rng = np.random.default_rng(seed)
    latent = LatentConfig(d_c=d_c, d_n=d_n)
    layers = (
        Layer(weight=rng.standard_normal((d_in, d_hidden)),
              bias=rng.standard_normal(d_hidden), activation="relu"),
        Layer(weight=rng.standard_normal((d_hidden, d_n + d_c)),
              bias=rng.standard_normal(d_n + d_c),
              activation="softmax-tail", tail=d_c),
    )
    ck = MlpCheckpoint(role="encoder", params=MlpParams(layers=layers),
                       latent=latent,
                       provenance=Provenance(seed=seed % 2**64))
    path = tmp_path_factory.mktemp("ck") / "x.ck"
    save_checkpoint(ck, path)
    back = load_checkpoint(path)
    for la, lb in zip(ck.params.layers, back.params.layers):
        assert np.array_equal(la.weight, lb.weight)
        assert np.array_equal(la.bias, lb.bias)
