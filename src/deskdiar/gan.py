"""Joint ClusterGAN training on labeled embedding corpora.

Alternating IWGAN optimization: n_critic discriminator updates (Wasserstein
estimate with gradient penalty) followed by one joint generator/encoder
update that adds the latent recovery terms, a cosine loss on the continuous
part and a cross-entropy on the categorical part.

The step functions update the networks they train in place (see
``autodiff.adam_step``) and never write the networks they only read. A
step that raises has written nothing of the step that failed, so the
training loop rolls back by restoring one copy of D per iteration.
Diagnostics record the unweighted loss terms so logged values satisfy
COS in [0, 2], CE >= 0, GP >= 0 regardless of the configured weights.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from .autodiff import (
    DivergenceError,
    MlpParams,
    ShapeError,
    adam_init,
    adam_step,
    check_gradient,
    critic_param_gradient,
    mlp_backward,
    mlp_forward,
    mlp_input_backward,
    mlp_param_backward,
    step_buffers,
)
from .models import (
    LatentBatch,
    LatentConfig,
    MlpCheckpoint,
    Provenance,
    build_models,
    config_digest,
    sample_latent,
)

COS_EPS = 1e-12
CE_CLAMP = 1e-300

LOG_FIELDS = ("iter", "wasserstein", "gp", "adv", "cos", "ce")


@dataclass(frozen=True)
class GanTrainConfig:
    """Optimization hyperparameters for the alternating GAN loop."""

    n_iter: int
    lambda_gp: float = 10.0
    batch: int = 128
    n_critic: int = 5
    alpha: float = 1e-4
    beta1: float = 0.5
    beta2: float = 0.9
    w1: float = 1.0
    w2: float = 10.0
    w3: float = 10.0
    seed: int = 0

    def __post_init__(self):
        if self.n_iter < 0:
            raise ValueError("n_iter must be >= 0")
        if self.lambda_gp <= 0 or self.alpha <= 0:
            raise ValueError("lambda_gp and alpha must be positive")
        if self.batch < 1 or self.n_critic < 1:
            raise ValueError("batch and n_critic must be >= 1")
        if not (0.0 < self.beta1 < 1.0 and 0.0 < self.beta2 < 1.0):
            raise ValueError("beta1, beta2 must lie in (0, 1)")
        # weights may be zeroed individually for ablations
        if min(self.w1, self.w2, self.w3) < 0:
            raise ValueError("loss weights must be >= 0")


@dataclass(frozen=True)
class LabeledEmbeddings:
    """Training corpus: one embedding row per segment plus its speaker id."""

    x: np.ndarray
    labels: np.ndarray
    k: int

    def __post_init__(self):
        x = np.asarray(self.x, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        if x.ndim != 2 or x.shape[0] == 0:
            raise ShapeError("x must be a nonempty (n, d) matrix")
        if labels.shape != (x.shape[0],):
            raise ShapeError("labels must align with rows of x")
        if self.k < 1:
            raise ValueError("speaker count k must be >= 1")
        if labels.min() < 0 or labels.max() >= self.k:
            raise ValueError("speaker ids must lie in [0, k)")
        if np.unique(labels).size != self.k:
            raise ValueError("every speaker in [0, k) needs at least one row")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def dim(self) -> int:
        return self.x.shape[1]


# --------------------------------------------------------------------------
# loss terms
# --------------------------------------------------------------------------

def cosine_recovery_loss(
    z_n_hat: np.ndarray, z_n: np.ndarray
) -> Tuple[float, np.ndarray]:
    """Mean (1 - cosine) between recovered and sampled continuous latents.

    Returns the scalar loss and its gradient with respect to ``z_n_hat``.
    Zero-norm recovered rows are guarded by a 1e-12 clamp so the result is
    finite; zero-norm target rows are rejected outright.
    """
    a = np.asarray(z_n_hat, dtype=np.float64)
    b = np.asarray(z_n, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 2:
        raise ShapeError("z_n_hat and z_n must be equal-shape matrices")
    nb = np.linalg.norm(b, axis=1)
    if (nb == 0.0).any():
        raise ValueError("z_n contains a zero-norm row")
    na = np.maximum(np.linalg.norm(a, axis=1), COS_EPS)
    m = a.shape[0]
    dot = np.einsum("ij,ij->i", a, b)
    cos = dot / (na * nb)
    loss = float(np.mean(1.0 - cos))
    # d(-cos_i)/da_i = -(b_i/(na*nb) - cos_i * a_i / na^2)
    grad = -(b / (na * nb)[:, None] - (cos / na ** 2)[:, None] * a) / m
    return loss, grad


def cluster_ce_loss(
    z_c_probs: np.ndarray, z_c_onehot: np.ndarray
) -> Tuple[float, np.ndarray]:
    """Cross-entropy of predicted cluster posteriors against one-hot targets.

    Returns the scalar loss and the gradient with respect to the pre-softmax
    logits, which collapses to (probs - onehot) / m.
    """
    p = np.asarray(z_c_probs, dtype=np.float64)
    y = np.asarray(z_c_onehot, dtype=np.float64)
    if p.shape != y.shape or p.ndim != 2:
        raise ShapeError("probs and onehot must be equal-shape matrices")
    if np.abs(p.sum(axis=1) - 1.0).max() > 1e-6:
        raise ValueError("probability rows must sum to 1")
    if not np.array_equal(y.sum(axis=1), np.ones(y.shape[0])) or \
            not np.isin(y, (0.0, 1.0)).all():
        raise ValueError("targets must be one-hot rows")
    m = p.shape[0]
    true_p = np.maximum((p * y).sum(axis=1), CE_CLAMP)
    loss = float(np.mean(-np.log(true_p)))
    return loss, (p - y) / m


def interpolate(
    x_real: np.ndarray,
    x_fake: np.ndarray,
    rng: np.random.Generator,
    eps: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Per-row convex combination eps*x_real + (1-eps)*x_fake, eps ~ U(0,1)."""
    if x_real.shape != x_fake.shape:
        raise ShapeError("real and fake batches must share a shape")
    if eps is None:
        if rng is None:
            raise ValueError("interpolate needs an rng when eps is not given")
        eps = rng.uniform(size=x_real.shape[0])
    eps = np.asarray(eps, dtype=np.float64).reshape(-1, 1)
    if eps.shape[0] != x_real.shape[0]:
        raise ShapeError("one epsilon per row required")
    return eps * x_real + (1.0 - eps) * x_fake


# --------------------------------------------------------------------------
# critic update
# --------------------------------------------------------------------------

def critic_loss_and_grads(
    d_params: MlpParams,
    x_real: np.ndarray,
    x_fake: np.ndarray,
    cfg: GanTrainConfig,
    rng: Optional[np.random.Generator] = None,
    eps: Optional[np.ndarray] = None,
) -> Tuple[float, np.ndarray, Dict[str, float]]:
    """Critic loss (to minimize) and its flat D-parameter gradient.

    loss = w1 * (mean D(fake) - mean D(real)) + w1 * lambda * GP.

    The fake, real and interpolate rows go through the critic together
    (see critic_param_gradient); the interpolation epsilons are the only
    draw from ``rng``.
    """
    m = x_real.shape[0]
    x_hat = interpolate(x_real, x_fake, rng, eps)
    up = np.full((m, 1), cfg.w1 / m)
    out, gp_val, grads = critic_param_gradient(
        d_params, np.concatenate([x_fake, x_real]), np.concatenate([up, -up]),
        x_hat, cfg.w1 * cfg.lambda_gp)
    out_f, out_r = out[:m], out[m:]
    wasserstein = float(out_r.mean() - out_f.mean())
    loss = cfg.w1 * (-wasserstein + cfg.lambda_gp * gp_val)
    return loss, grads, {"wasserstein": wasserstein, "gp": gp_val}


def critic_step(
    d_params: MlpParams,
    g_params: MlpParams,
    x_real: np.ndarray,
    batch: LatentBatch,
    cfg: GanTrainConfig,
    opt,
    rng: Optional[np.random.Generator] = None,
    iteration: int = 0,
    eps: Optional[np.ndarray] = None,
):
    """One Adam update of the discriminator, in place; G is read but
    never written.

    Returns (d_params, opt, diagnostics); the first two are the objects
    passed in, updated. A non-finite loss or gradient raises
    DivergenceError before D or opt is written.
    """
    if x_real.shape[0] != cfg.batch or batch.z.shape[0] != cfg.batch:
        raise ShapeError("critic batch size must equal cfg.batch")
    x_fake, _ = mlp_forward(g_params, batch.z)
    loss, grads, diag = critic_loss_and_grads(
        d_params, x_real, x_fake, cfg, rng, eps)
    if not np.isfinite(loss):
        raise DivergenceError(
            f"non-finite critic loss at iteration {iteration}")
    try:
        d_params, opt = adam_step(opt, d_params, grads)
    except DivergenceError as exc:
        raise DivergenceError(f"{exc} at iteration {iteration}") from None
    return d_params, opt, diag


# --------------------------------------------------------------------------
# generator / encoder update
# --------------------------------------------------------------------------

def gen_enc_loss_and_grads(
    g_params: MlpParams,
    e_params: MlpParams,
    d_params: MlpParams,
    batch: LatentBatch,
    cfg: GanTrainConfig,
    latent: LatentConfig,
) -> Tuple[float, np.ndarray, np.ndarray, Dict[str, float]]:
    """Joint loss -w1*D(G(z)) + w2*COS + w3*CE with flat grads for G and E."""
    m = batch.z.shape[0]
    x_fake, tape_g = mlp_forward(g_params, batch.z)

    d_out, tape_d = mlp_forward(d_params, x_fake)
    adv = float(-np.mean(d_out))
    dx_adv = mlp_input_backward(tape_d, np.full((m, 1), -cfg.w1 / m))

    e_out, tape_e = mlp_forward(e_params, x_fake)
    z_n_hat = e_out[:, : latent.d_n]
    z_c_probs = e_out[:, latent.d_n:]
    cos_loss, g_zn = cosine_recovery_loss(z_n_hat, batch.z_n)
    ce_loss, g_logits = cluster_ce_loss(z_c_probs, batch.z_c)
    upstream_e = np.concatenate(
        [cfg.w2 * g_zn, cfg.w3 * g_logits], axis=1)
    e_grads, dx_e = mlp_backward(tape_e, upstream_e,
                                 tail_upstream_is_logit_grad=True)

    g_grads = mlp_param_backward(tape_g, dx_adv + dx_e)
    loss = cfg.w1 * adv + cfg.w2 * cos_loss + cfg.w3 * ce_loss
    return loss, g_grads, e_grads, {"adv": adv, "cos": cos_loss,
                                    "ce": ce_loss}


def gen_enc_step(
    g_params: MlpParams,
    e_params: MlpParams,
    d_params: MlpParams,
    batch: LatentBatch,
    cfg: GanTrainConfig,
    g_opt,
    e_opt,
    latent: LatentConfig,
    iteration: int = 0,
):
    """One joint Adam update of G and E, in place; D is read but never
    written.

    Returns (g_params, e_params, g_opt, e_opt, diagnostics); the first
    four are the objects passed in, updated. E's gradient is checked
    before G is written, and adam_step checks G's before it writes
    anything, so a DivergenceError leaves G, E and their optimizer
    states as they were.
    """
    if batch.z.shape[0] != cfg.batch:
        raise ShapeError("gen/enc batch size must equal cfg.batch")
    loss, g_grads, e_grads, diag = gen_enc_loss_and_grads(
        g_params, e_params, d_params, batch, cfg, latent)
    if not np.isfinite(loss):
        raise DivergenceError(
            f"non-finite generator/encoder loss at iteration {iteration}")
    try:
        check_gradient(e_params, e_grads)
        g_params, g_opt = adam_step(g_opt, g_params, g_grads)
        e_params, e_opt = adam_step(e_opt, e_params, e_grads)
    except DivergenceError as exc:
        raise DivergenceError(f"{exc} at iteration {iteration}") from None
    return g_params, e_params, g_opt, e_opt, diag


# --------------------------------------------------------------------------
# training loop
# --------------------------------------------------------------------------

def _write_log(path: Union[str, Path], rows: List[Dict[str, float]]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=LOG_FIELDS)
        writer.writeheader()
        writer.writerows(rows)


def train_clustergan(
    data: LabeledEmbeddings,
    cfg: GanTrainConfig,
    latent: LatentConfig,
    models: Optional[Tuple[MlpCheckpoint, MlpCheckpoint, MlpCheckpoint]] = None,
    log_path: Optional[Union[str, Path]] = None,
) -> Tuple[MlpCheckpoint, MlpCheckpoint, MlpCheckpoint,
           List[Dict[str, float]]]:
    """Alternating critic and generator/encoder optimization.

    Runs cfg.n_iter outer iterations of cfg.n_critic critic updates followed
    by one joint G/E update, logging one diagnostics row per outer iteration.
    Deterministic for fixed (data, cfg, latent). The networks of ``models``
    are copied before training, so the caller's vectors are never
    written. The steps reuse one set of buffers (``step_buffers``), freed
    on return. If any loss or gradient turns non-finite the loop stops
    and the networks from the last completed iteration are returned, with
    a warning: the failed step wrote nothing, and D, the only network an
    iteration writes before its last step, is restored from a copy taken
    as the iteration began.
    """
    if latent.d_c != data.k:
        raise ValueError(
            f"latent d_c {latent.d_c} must equal speaker count {data.k}")
    if models is None:
        g, d, e = (ck.params for ck in
                   build_models(data.dim, latent, seed=cfg.seed))
    else:
        g, d, e = (MlpParams.from_flat(ck.params.flat.copy(), ck.params.arch)
                   for ck in models)

    rng = np.random.default_rng(cfg.seed)
    g_opt = adam_init(g, cfg.alpha, cfg.beta1, cfg.beta2)
    e_opt = adam_init(e, cfg.alpha, cfg.beta1, cfg.beta2)
    d_opt = adam_init(d, cfg.alpha, cfg.beta1, cfg.beta2)

    log: List[Dict[str, float]] = []
    d_good = np.empty_like(d.flat)
    with step_buffers():
        for it in range(1, cfg.n_iter + 1):
            np.copyto(d_good, d.flat)
            try:
                for _ in range(cfg.n_critic):
                    rows = rng.integers(0, data.n, size=cfg.batch)
                    labels = rng.integers(0, latent.d_c, size=cfg.batch)
                    zb = sample_latent(cfg.batch, latent, labels, rng)
                    d, d_opt, cdiag = critic_step(
                        d, g, data.x[rows], zb, cfg, d_opt, rng, iteration=it)
                labels = rng.integers(0, latent.d_c, size=cfg.batch)
                zb = sample_latent(cfg.batch, latent, labels, rng)
                g, e, g_opt, e_opt, gdiag = gen_enc_step(
                    g, e, d, zb, cfg, g_opt, e_opt, latent, iteration=it)
            except DivergenceError as exc:
                warnings.warn(f"training stopped: {exc}; returning state "
                              f"from iteration {it - 1}")
                np.copyto(d.flat, d_good)
                break
            log.append({"iter": it, **cdiag, **gdiag})

    if log_path is not None:
        _write_log(log_path, log)

    digest = config_digest(f"{cfg!r}|{latent!r}|x_dim={data.dim}")
    prov = Provenance(stage="clustergan", config_digest=digest,
                      seed=cfg.seed, loss_weights=(cfg.w1, cfg.w2, cfg.w3))
    g, d, e = (MlpCheckpoint(role=role, params=params, latent=latent,
                             provenance=prov) for role, params in
               (("generator", g), ("discriminator", d), ("encoder", e)))
    return g, d, e, log
