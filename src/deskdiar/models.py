"""Generator / critic / encoder construction, latent sampling, encoder
read-out modes, and checkpoint persistence.

The three networks are fixed-width fully connected stacks:

    G: (d_n + d_c) -> 512 ReLU -> 512 ReLU -> x_dim linear
    D: x_dim -> 512 ReLU -> 512 ReLU -> 512 ReLU -> 1 linear
    E: x_dim -> 512 ReLU -> 512 ReLU -> 1024 ReLU -> (d_n + d_c) linear,
       softmax over the trailing d_c outputs

The latent code z concatenates a small-variance Gaussian part z_n with a
one-hot speaker part z_c, so encoder outputs carry both a continuous
style slice and a categorical speaker slice.
"""

from __future__ import annotations

import enum
import hashlib
import json
import struct
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from .autodiff import LINEAR, RELU, SOFTMAX_TAIL, Layer, MlpParams, mlp_forward

CHECKPOINT_MAGIC = b"DKCK"
CHECKPOINT_VERSION = 1

_ROLES = ("generator", "discriminator", "encoder")
_STAGES = ("clustergan", "mcgan")
_ACT_CODES = {RELU: 0, LINEAR: 1, SOFTMAX_TAIL: 2}
_ACT_NAMES = {v: k for k, v in _ACT_CODES.items()}


class CheckpointFormatError(ValueError):
    """Malformed checkpoint file; message carries the byte offset."""


@dataclass(frozen=True)
class LatentConfig:
    """Dimensions and scale of the latent code z = (z_n, z_c)."""

    d_c: int
    d_n: int = 90
    sigma: float = 0.10

    def __post_init__(self):
        if self.d_n <= 0:
            raise ValueError("d_n must be positive")
        if self.d_c < 2:
            raise ValueError("d_c must be at least 2")
        if not self.sigma > 0:
            raise ValueError("sigma must be positive")

    @property
    def d_z(self) -> int:
        return self.d_n + self.d_c


class EncodeMode(enum.Enum):
    CLUSTERGAN_CONCAT = "clustergan_concat"
    MCGAN_LOGITS = "mcgan_logits"


@dataclass(frozen=True)
class Provenance:
    stage: str = "clustergan"
    config_digest: str = ""
    seed: int = 0
    loss_weights: Optional[Tuple[float, float, float]] = None

    def __post_init__(self):
        if self.stage not in _STAGES:
            raise ValueError(f"unknown stage {self.stage!r}")


@dataclass(frozen=True)
class MlpCheckpoint:
    role: str
    params: MlpParams
    latent: LatentConfig
    provenance: Provenance = field(default_factory=Provenance)

    def __post_init__(self):
        if self.role not in _ROLES:
            raise ValueError(f"unknown role {self.role!r}")
        if self.role == "encoder" and self.params.out_dim != self.latent.d_z:
            raise ValueError(
                f"encoder output dim {self.params.out_dim} != d_n+d_c "
                f"{self.latent.d_z}")


def config_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ------------------------------------------------------------ construction

def _he_uniform(rng, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / fan_in)
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def _xavier_uniform(rng, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def _stack(rng, dims: Sequence[int], final: str, tail: int = 0) -> MlpParams:
    layers = []
    for i in range(len(dims) - 1):
        last = i == len(dims) - 2
        act = final if last else RELU
        init = _xavier_uniform if act != RELU else _he_uniform
        layers.append(Layer(
            weight=init(rng, dims[i], dims[i + 1]),
            bias=np.zeros(dims[i + 1]),
            activation=act,
            tail=tail if last else 0,
        ))
    return MlpParams(layers=tuple(layers))


def build_models(
    x_dim: int, latent: LatentConfig, seed: int = 0
) -> Tuple[MlpCheckpoint, MlpCheckpoint, MlpCheckpoint]:
    """Freshly initialized (G, D, E) checkpoints.

    He-uniform fan-in init on ReLU layers, Xavier-uniform on the linear
    outputs, biases zero, all drawn from one seeded stream.
    """
    if x_dim <= 0:
        raise ValueError("x_dim must be positive")
    rng = np.random.default_rng(seed)
    prov = Provenance(stage="clustergan", seed=seed)
    g = MlpCheckpoint(
        role="generator",
        params=_stack(rng, [latent.d_z, 512, 512, x_dim], final=LINEAR),
        latent=latent, provenance=prov)
    d = MlpCheckpoint(
        role="discriminator",
        params=_stack(rng, [x_dim, 512, 512, 512, 1], final=LINEAR),
        latent=latent, provenance=prov)
    e = MlpCheckpoint(
        role="encoder",
        params=_stack(rng, [x_dim, 512, 512, 1024, latent.d_z],
                      final=SOFTMAX_TAIL, tail=latent.d_c),
        latent=latent, provenance=prov)
    return g, d, e


# --------------------------------------------------------------- latents

@dataclass(frozen=True)
class LatentBatch:
    """Sampled z batch: concatenated code plus its two parts."""

    z: np.ndarray        # (m, d_n + d_c)
    z_n: np.ndarray      # (m, d_n)
    z_c: np.ndarray      # (m, d_c) one-hot
    labels: np.ndarray   # (m,) int


def sample_latent(
    m: int, latent: LatentConfig, labels: Sequence[int],
    rng: np.random.Generator,
) -> LatentBatch:
    """Draw z_n ~ N(0, sigma^2 I) and set z_c to the labels' one-hots."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (m,):
        raise ValueError(f"labels shape {labels.shape} != ({m},)")
    if labels.min(initial=0) < 0 or (labels >= latent.d_c).any():
        raise ValueError(
            f"label out of range [0, {latent.d_c}): {labels.max()}")
    z_n = latent.sigma * rng.standard_normal((m, latent.d_n))
    z_c = np.zeros((m, latent.d_c))
    z_c[np.arange(m), labels] = 1.0
    return LatentBatch(z=np.concatenate([z_n, z_c], axis=1),
                       z_n=z_n, z_c=z_c, labels=labels)


# ---------------------------------------------------------------- encoding

def logits_view(params: MlpParams) -> MlpParams:
    """The same network, sharing its parameter vector, with the final
    softmax tail disabled."""
    *head, (in_dim, out_dim, act, _) = params.arch
    if act != SOFTMAX_TAIL:
        return params
    return MlpParams.from_flat(params.flat,
                               (*head, (in_dim, out_dim, LINEAR, 0)))


def encode(E: MlpCheckpoint, x: np.ndarray, mode: EncodeMode) -> np.ndarray:
    """Embed rows of x with the encoder in the requested read-out mode."""
    if E.role != "encoder":
        raise ValueError(f"encode needs an encoder checkpoint, got {E.role}")
    expected_stage = ("clustergan" if mode is EncodeMode.CLUSTERGAN_CONCAT
                      else "mcgan")
    if E.provenance.stage != expected_stage:
        warnings.warn(
            f"encode mode {mode.value} on a {E.provenance.stage}-stage "
            "checkpoint", stacklevel=2)
    if mode is EncodeMode.CLUSTERGAN_CONCAT:
        out, _ = mlp_forward(E.params, x)
    else:
        out, _ = mlp_forward(logits_view(E.params), x)
    return out


# ------------------------------------------------------------- persistence

def _expected_length(arch) -> int:
    n = 4 + 2 + 1 + 1 + 4 + 4 + 8 + 8 + 1 + 24 + 4 + 64 + 2
    n += len(arch) * (4 + 4 + 1 + 4)
    n += sum(i * o * 8 + o * 8 for i, o, _, _ in arch)
    return n


def save_checkpoint(ck: MlpCheckpoint, path: Union[str, Path]) -> None:
    """Write the binary checkpoint plus a human-readable .json sidecar."""
    path = Path(path)
    digest = ck.provenance.config_digest or "0" * 64
    if len(digest) != 64:
        raise ValueError("config digest must be 64 hex chars")
    buf = bytearray()
    buf += CHECKPOINT_MAGIC
    buf += struct.pack("<H", CHECKPOINT_VERSION)
    buf += struct.pack("<BB", _ROLES.index(ck.role),
                       _STAGES.index(ck.provenance.stage))
    buf += struct.pack("<II", ck.latent.d_n, ck.latent.d_c)
    buf += struct.pack("<d", ck.latent.sigma)
    buf += struct.pack("<Q", ck.provenance.seed)
    lw = ck.provenance.loss_weights
    buf += struct.pack("<B", 1 if lw is not None else 0)
    buf += struct.pack("<ddd", *(lw if lw is not None else (0.0, 0.0, 0.0)))
    buf += struct.pack("<I", 64) + digest.encode("ascii")
    buf += struct.pack("<H", len(ck.params.layers))
    for lay in ck.params.layers:
        buf += struct.pack("<IIBI", lay.in_dim, lay.out_dim,
                           _ACT_CODES[lay.activation], lay.tail)
    buf += ck.params.flat.astype("<f8", copy=False).tobytes()
    path.write_bytes(bytes(buf))

    manifest = {
        "format": "deskdiar checkpoint v%d" % CHECKPOINT_VERSION,
        "role": ck.role,
        "stage": ck.provenance.stage,
        "seed": ck.provenance.seed,
        "config_digest": digest,
        "d_n": ck.latent.d_n,
        "d_c": ck.latent.d_c,
        "sigma": ck.latent.sigma,
        "layer_dims": [ck.params.in_dim] + [l.out_dim
                                            for l in ck.params.layers],
        "activations": [l.activation for l in ck.params.layers],
        "loss_weights": ck.provenance.loss_weights,
    }
    Path(str(path) + ".json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _need(blob: bytes, offset: int, count: int) -> None:
    if offset + count > len(blob):
        raise CheckpointFormatError(
            f"truncated checkpoint: need {count} bytes at offset {offset}, "
            f"file has {len(blob)}")


def load_checkpoint(path: Union[str, Path]) -> MlpCheckpoint:
    blob = Path(path).read_bytes()
    off = 0
    _need(blob, off, 4)
    if blob[:4] != CHECKPOINT_MAGIC:
        raise CheckpointFormatError(f"bad magic at offset 0: {blob[:4]!r}")
    off = 4
    _need(blob, off, 2)
    (version,) = struct.unpack_from("<H", blob, off)
    if version != CHECKPOINT_VERSION:
        raise CheckpointFormatError(
            f"unsupported version {version} at offset {off}")
    off += 2
    _need(blob, off, 2)
    role_b, stage_b = struct.unpack_from("<BB", blob, off)
    if role_b >= len(_ROLES) or stage_b >= len(_STAGES):
        raise CheckpointFormatError(
            f"invalid role/stage byte at offset {off}")
    off += 2
    _need(blob, off, 16)
    d_n, d_c = struct.unpack_from("<II", blob, off)
    (sigma,) = struct.unpack_from("<d", blob, off + 8)
    off += 16
    _need(blob, off, 8)
    (seed,) = struct.unpack_from("<Q", blob, off)
    off += 8
    _need(blob, off, 25)
    (has_lw,) = struct.unpack_from("<B", blob, off)
    lw = struct.unpack_from("<ddd", blob, off + 1)
    loss_weights = tuple(lw) if has_lw else None
    off += 25
    _need(blob, off, 4)
    (digest_len,) = struct.unpack_from("<I", blob, off)
    off += 4
    if digest_len != 64:
        raise CheckpointFormatError(
            f"bad digest length {digest_len} at offset {off - 4}")
    _need(blob, off, 64)
    digest = blob[off:off + 64].decode("ascii", errors="replace")
    off += 64
    _need(blob, off, 2)
    (n_layers,) = struct.unpack_from("<H", blob, off)
    off += 2
    arch = []
    for _ in range(n_layers):
        _need(blob, off, 13)
        in_dim, out_dim, act_b, tail = struct.unpack_from("<IIBI", blob, off)
        if act_b not in _ACT_NAMES:
            raise CheckpointFormatError(
                f"unknown activation code {act_b} at offset {off + 8}")
        arch.append((in_dim, out_dim, _ACT_NAMES[act_b], tail))
        off += 13
    expected = _expected_length(arch)
    if len(blob) != expected:
        raise CheckpointFormatError(
            f"file length {len(blob)} != expected {expected} for the "
            "declared architecture")
    try:
        flat = np.frombuffer(blob, dtype="<f8", offset=off).astype(np.float64)
        params = MlpParams.from_flat(flat, arch)
        latent = LatentConfig(d_n=d_n, d_c=d_c, sigma=sigma)
        return MlpCheckpoint(
            role=_ROLES[role_b], params=params, latent=latent,
            provenance=Provenance(stage=_STAGES[stage_b],
                                  config_digest=digest, seed=seed,
                                  loss_weights=loss_weights))
    except ValueError as exc:
        raise CheckpointFormatError(f"shape disagreement: {exc}") from exc
