"""Episodic prototypical-loss fine-tuning of a pre-trained encoder.

Each episode samples N_C speakers, embeds disjoint support and query rows
with the current encoder, forms per-speaker prototypes as support means,
and scores queries by a softmax over negative squared Euclidean distances
to the prototypes. The query and support branches share the encoder, so
gradients flow through both. The first ``frozen_layers`` layers are a
frozen prefix: the corpus runs through it once, forward only, and episodes
are drawn from the mapped rows; only the trainable suffix behind it is
differentiated and updated.

Embeddings here are the raw final-layer outputs (no softmax on the
categorical tail); that is the representation the fine-tuned encoder later
feeds to the clustering back-end.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .autodiff import (
    DivergenceError,
    MlpParams,
    ShapeError,
    adam_init,
    adam_step,
    mlp_forward,
    mlp_param_backward,
    step_buffer,
    step_buffers,
)
from .gan import LabeledEmbeddings
from .models import MlpCheckpoint, Provenance, config_digest, logits_view

SQE_DISTANCE = "squared-euclidean"

PROTO_LOG_FIELDS = ("episode", "n_c", "loss")

# most corpus rows per forward pass through the frozen prefix, so the pass's
# activations and masks stay bounded whatever the corpus size; fewer rows
# than the largest episode holds (150 speakers of 20 rows)
PREFIX_CHUNK = 2048


class EpisodeConfigError(ValueError):
    """Raised when a corpus cannot support the requested episode shape."""


@dataclass(frozen=True)
class ProtoConfig:
    """Episodic fine-tuning settings."""

    episodes: int
    n_s: int = 10
    n_q: int = 10
    alpha: float = 1e-4
    beta1: float = 0.5
    beta2: float = 0.9
    frozen_layers: int = 2
    distance: str = SQE_DISTANCE
    seed: int = 0

    def __post_init__(self):
        if self.episodes < 0:
            raise ValueError("episodes must be >= 0")
        if self.n_s < 1 or self.n_q < 1:
            raise ValueError("n_s and n_q must be >= 1")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.frozen_layers < 0:
            raise ValueError("frozen_layers must be >= 0")
        if self.distance != SQE_DISTANCE:
            raise ValueError(f"only {SQE_DISTANCE!r} distance is supported")


@dataclass(frozen=True)
class Episode:
    """One meta-learning batch: per-speaker support and query rows."""

    speakers: np.ndarray   # (n_c,) original speaker ids
    support: np.ndarray    # (n_c, n_s, dim)
    query: np.ndarray      # (n_c, n_q, dim)

    def __post_init__(self):
        if self.support.ndim != 3 or self.query.ndim != 3:
            raise ShapeError("support and query must be (n_c, n, dim)")
        if self.support.shape[0] != self.query.shape[0] or \
                self.support.shape[0] != self.speakers.shape[0]:
            raise ShapeError("speaker axis mismatch across episode fields")
        if self.support.shape[2] != self.query.shape[2]:
            raise ShapeError("support and query dimensions differ")

    @property
    def n_c(self) -> int:
        return self.speakers.shape[0]


def n_c_choice_set(n_eligible: int) -> Tuple[int, ...]:
    """Episode sizes to draw from: {10, 20, ..., 150} clipped to the
    eligible-speaker count, degrading to {2, ..., K} for small corpora."""
    if n_eligible < 2:
        raise EpisodeConfigError(
            f"need at least 2 eligible speakers, have {n_eligible}")
    choices = tuple(c for c in range(10, 151, 10) if c <= n_eligible)
    if not choices:
        choices = tuple(range(2, n_eligible + 1))
    return choices


def sample_episode(
    data: LabeledEmbeddings, cfg: ProtoConfig, rng: np.random.Generator
) -> Episode:
    """Draw one episode: uniform N_C, speakers without replacement, then
    disjoint support and query rows per speaker.

    Inside ``autodiff.step_buffers()`` the support and query arrays are
    reused by the next episode of the same size."""
    counts = np.bincount(data.labels, minlength=data.k)
    need = cfg.n_s + cfg.n_q
    eligible = np.flatnonzero(counts >= need)
    if eligible.size < 2:
        raise EpisodeConfigError(
            f"{eligible.size} of {data.k} speakers have >= {need} rows; "
            f"at least 2 required")
    choices = n_c_choice_set(int(eligible.size))
    n_c = int(rng.choice(choices))
    speakers = rng.choice(eligible, size=n_c, replace=False)
    support = step_buffer(("support",), (n_c, cfg.n_s, data.dim))
    query = step_buffer(("query",), (n_c, cfg.n_q, data.dim))
    for i, spk in enumerate(speakers):
        rows = np.flatnonzero(data.labels == spk)
        picked = rng.permutation(rows)[:need]
        support[i] = data.x[picked[: cfg.n_s]]
        query[i] = data.x[picked[cfg.n_s:]]
    return Episode(speakers=speakers, support=support, query=query)


def compute_prototypes(
    embedded_supports: Union[np.ndarray, Sequence[np.ndarray]]
) -> np.ndarray:
    """Per-speaker arithmetic mean of embedded support rows."""
    if isinstance(embedded_supports, np.ndarray):
        if embedded_supports.ndim != 3:
            raise ShapeError("expected (n_c, n_s, dim) support embeddings")
        return embedded_supports.mean(axis=1)
    protos = []
    for rows in embedded_supports:
        rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[0] < 1:
            raise ShapeError("each support set needs >= 1 embedded row")
        protos.append(rows.mean(axis=0))
    return np.stack(protos)


def proto_loss(
    prototypes: np.ndarray,
    embedded_queries: np.ndarray,
    query_class_idx: np.ndarray,
) -> Tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """Prototypical loss over one episode.

    Queries are scored by a softmax over negative squared Euclidean
    distances to the prototypes; the loss is the mean negative log
    probability of each query's true class. Returns (loss, per-query
    class probabilities, gradient w.r.t. embedded queries, gradient
    w.r.t. prototypes).
    """
    p = np.asarray(prototypes, dtype=np.float64)
    q = np.asarray(embedded_queries, dtype=np.float64)
    idx = np.asarray(query_class_idx, dtype=np.int64)
    if p.ndim != 2 or q.ndim != 2 or p.shape[1] != q.shape[1]:
        raise ShapeError("prototypes and queries must share the last dim")
    if idx.shape != (q.shape[0],):
        raise ShapeError("one class index per query required")
    if idx.min() < 0 or idx.max() >= p.shape[0]:
        raise ValueError("query class index outside prototype range")

    diff = np.subtract(q[:, None, :], p[None, :, :],  # (nq, nc, dim)
                       out=step_buffer(("proto-diff",),
                                       (q.shape[0],) + p.shape))
    dist = np.einsum("jkd,jkd->jk", diff, diff)      # squared distances
    logits = -dist
    shift = logits - logits.max(axis=1, keepdims=True)
    expv = np.exp(shift)
    probs = expv / expv.sum(axis=1, keepdims=True)

    nq = q.shape[0]
    true_logp = shift[np.arange(nq), idx] - np.log(
        expv.sum(axis=1))
    loss = float(-np.mean(true_logp))

    onehot = np.zeros_like(probs)
    onehot[np.arange(nq), idx] = 1.0
    # dJ/d dist_jk = (onehot - probs)/nq; chain through dist to q and p
    ddist = (onehot - probs) / nq
    grad_q = 2.0 * np.einsum("jk,jkd->jd", ddist, diff)
    grad_p = -2.0 * np.einsum("jk,jkd->kd", ddist, diff)
    return loss, probs, grad_q, grad_p


def _stacked(episode: Episode) -> np.ndarray:
    """Support rows, speaker by speaker, then query rows, in one batch."""
    dim = episode.support.shape[2]
    sup = episode.support.reshape(-1, dim)
    qry = episode.query.reshape(-1, dim)
    return np.concatenate([sup, qry], out=step_buffer(
        ("episode-rows",), (len(sup) + len(qry), dim)))


def episode_loss_and_grads(
    e_params: MlpParams, episode: Episode, n_s: int
) -> Tuple[float, np.ndarray, Dict[str, float]]:
    """Embed an episode with the raw-logit encoder view and backpropagate
    the prototypical loss through both support and query branches.

    Support and query rows go through the encoder as one stacked batch, so
    one forward and one backward pass give the summed gradient of both,
    as one vector laid out like ``e_params.flat``."""
    n_c, n_sup = episode.n_c, episode.n_c * n_s
    emb, tape = mlp_forward(logits_view(e_params), _stacked(episode))
    protos = compute_prototypes(emb[:n_sup].reshape(n_c, n_s, -1))
    labels = np.repeat(np.arange(n_c), episode.query.shape[1])
    loss, _, grad_q, grad_p = proto_loss(protos, emb[n_sup:], labels)
    # prototype gradient spreads evenly over that speaker's supports
    upstream = np.concatenate([np.repeat(grad_p / n_s, n_s, axis=0), grad_q])
    grads = mlp_param_backward(tape, upstream)
    return loss, grads, {"n_c": n_c, "loss": loss}


def map_prefix(frozen: MlpParams, x: np.ndarray) -> np.ndarray:
    """``mlp_forward(frozen, x)[0]`` bit for bit, computed in near-equal
    chunks of at most PREFIX_CHUNK rows (a row's output does not depend on
    its batch), into one (rows, out_dim) array."""
    n = x.shape[0]
    mapped = np.empty((n, frozen.out_dim))
    chunks = -(-n // PREFIX_CHUNK)
    bounds = [n * i // chunks for i in range(chunks + 1)] if n else [0]
    with step_buffers():
        for lo, hi in zip(bounds, bounds[1:]):
            mapped[lo:hi] = mlp_forward(frozen, x[lo:hi])[0]
    return mapped


def finetune_mcgan(
    encoder: MlpCheckpoint,
    data: LabeledEmbeddings,
    cfg: ProtoConfig,
    log_path: Optional[str] = None,
    allow_stage_mismatch: bool = False,
) -> Tuple[MlpCheckpoint, List[Dict[str, float]]]:
    """Fine-tune a pre-trained encoder with the prototypical loss.

    The encoder's parameter vector is split at layer cfg.frozen_layers
    into a frozen prefix and a trainable suffix. The corpus runs through
    the prefix once, in chunks (``map_prefix``), and episodes are drawn
    from the mapped rows, held for the whole loop: one prefix-width row
    per corpus row, 4 KiB for the shipped encoder's 512 units, so 3.3 MB
    for 800 rows and 410 MB for 100,000. The suffix, a
    copy, so the caller's encoder is never written, follows Adam on the
    prototypical loss of each episode, with the step buffers reused
    (``step_buffers``). The prefix keeps its weights bitwise intact and is
    never differentiated. With every layer frozen nothing trains and no
    episode runs. Returns the encoder with provenance stage "mcgan" plus
    the per-episode loss curve. On a non-finite loss or gradient the loop
    stops with the last completed state, which the failed episode never
    wrote.
    """
    if encoder.role != "encoder":
        raise ValueError(f"expected an encoder checkpoint, got {encoder.role}")
    if encoder.provenance.stage != "clustergan" and not allow_stage_mismatch:
        raise ValueError(
            f"encoder stage is {encoder.provenance.stage!r}, expected "
            f"'clustergan' (pass allow_stage_mismatch=True to override)")

    params, arch = encoder.params, encoder.params.arch
    episodes = cfg.episodes if cfg.frozen_layers < len(arch) else 0
    k = min(cfg.frozen_layers, len(arch) - 1)
    cut = sum(l.weight.size + l.bias.size for l in params.layers[:k])
    tuned = MlpParams.from_flat(params.flat[cut:].copy(), arch[k:])
    if k and episodes:
        frozen = MlpParams.from_flat(params.flat[:cut], arch[:k])
        data = LabeledEmbeddings(x=map_prefix(frozen, data.x),
                                 labels=data.labels, k=data.k)
    rng = np.random.default_rng(cfg.seed)
    opt = adam_init(tuned, cfg.alpha, cfg.beta1, cfg.beta2)
    curve: List[Dict[str, float]] = []
    with step_buffers():
        for ep in range(1, episodes + 1):
            episode = sample_episode(data, cfg, rng)
            try:
                loss, grads, diag = episode_loss_and_grads(
                    tuned, episode, cfg.n_s)
                if not np.isfinite(loss):
                    raise DivergenceError(
                        f"non-finite episode loss at episode {ep}")
                adam_step(opt, tuned, grads)
            except DivergenceError as exc:
                warnings.warn(f"fine-tuning stopped: {exc}; returning state "
                              f"from episode {ep - 1}")
                break
            curve.append({"episode": ep, "n_c": diag["n_c"], "loss": loss})
    params = MlpParams.from_flat(
        np.concatenate([params.flat[:cut], tuned.flat]), arch)

    if log_path is not None:
        with open(log_path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=PROTO_LOG_FIELDS)
            writer.writeheader()
            writer.writerows(curve)

    digest = config_digest(f"{cfg!r}|{encoder.provenance.config_digest}")
    prov = Provenance(stage="mcgan", config_digest=digest, seed=cfg.seed,
                      loss_weights=encoder.provenance.loss_weights)
    return MlpCheckpoint(role="encoder", params=params,
                         latent=encoder.latent, provenance=prov), curve
