"""Dense MLP numerics: forward/backward passes, the critic's fused
adversarial and gradient-norm-penalty gradient, and Adam.

All math is 64-bit. Matrices are numpy float64 arrays with row-major
batch semantics (one sample per row).  A network's parameters are one
contiguous vector, ``MlpParams.flat``, and every parameter gradient is
one vector of the same layout, so Adam runs once per network. Backward
passes are exact reverse-mode derivatives of the recorded forward pass;
the penalty gradient treats ReLU masks as constants, which is exact almost
everywhere because the second derivative of ReLU vanishes off the kink.

Only ``adam_step`` writes its arguments: it updates the parameter vector
and both moments in place, after it has checked the whole gradient, so a
raise leaves them bit-identical. A caller that needs an older state as a
rollback point keeps its own copy. Every other operation returns fresh
arrays, except inside ``step_buffers()``: there each forward activation,
ReLU mask, reverse-sweep delta, flat gradient and Adam scratch block is
allocated once per network, at its largest size, and rewritten by the
next call.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

RELU = "relu"
LINEAR = "linear"
SOFTMAX_TAIL = "softmax-tail"

ACTIVATIONS = (RELU, LINEAR, SOFTMAX_TAIL)

# guard added inside the square root of the gradient-norm penalty so a
# zero-gradient row stays differentiable
NORM_EPS = 1e-12


class ShapeError(ValueError):
    """Dimension disagreement between operands."""


class StaleTapeError(RuntimeError):
    """Backward called after the taped parameters were mutated in place."""


class DivergenceError(ArithmeticError):
    """A gradient or loss stopped being finite."""


_ARENA: ContextVar[Optional[Dict[tuple, np.ndarray]]] = ContextVar(
    "step_buffers", default=None)


@contextmanager
def step_buffers() -> Iterator[None]:
    """Reuse one set of buffers for every training step run in the block.

    Inside, ``step_buffer`` hands out the same memory for the same key
    and dtype, so a loop's steps allocate their large arrays once and
    fault in no fresh pages; the buffers are freed when the block exits.
    Each key holds one flat buffer, grown to the largest size drawn so
    far, so steps of varying shape (episodes of varying speaker count)
    retain what the largest step needs, not a set per shape. An array
    drawn from it, such as a forward output, a tape's records or a flat
    gradient, stays valid until the next call that draws the same key,
    that is the next pass of the same network.
    """
    token = _ARENA.set({})
    try:
        yield
    finally:
        _ARENA.reset(token)


def step_buffer(key: tuple, shape: Tuple[int, ...],
                dtype=np.float64) -> np.ndarray:
    """An uninitialized array: fresh outside ``step_buffers()``, and
    inside it a view of the leading entries of the one buffer held for
    this key and dtype, which grows when a larger shape is asked for."""
    arena = _ARENA.get()
    if arena is None:
        return np.empty(shape, dtype)
    size = math.prod(shape)
    slot = (key, np.dtype(dtype).char)
    buf = arena.get(slot)
    if buf is None or buf.size < size:
        buf = arena[slot] = np.empty(size, dtype)
    return buf[:size].reshape(shape)


def _as_batch(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeError(f"expected a 2-D batch matrix, got shape {x.shape}")
    return x


@dataclass(frozen=True)
class Layer:
    """One fully connected layer: y = act(x @ weight + bias).

    ``tail`` declares the width of the softmax suffix and must be zero
    unless ``activation`` is softmax-tail.
    """

    weight: np.ndarray  # (in_dim, out_dim)
    bias: np.ndarray    # (out_dim,)
    activation: str = LINEAR
    tail: int = 0

    def __post_init__(self):
        w = np.asarray(self.weight, dtype=np.float64)
        b = np.asarray(self.bias, dtype=np.float64)
        if w.ndim != 2 or b.ndim != 1 or b.shape[0] != w.shape[1]:
            raise ShapeError(
                f"layer shapes disagree: weight {w.shape}, bias {b.shape}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.activation == SOFTMAX_TAIL:
            if not 0 < self.tail <= w.shape[1]:
                raise ShapeError(
                    f"softmax tail {self.tail} outside (0, {w.shape[1]}]")
        elif self.tail:
            raise ShapeError("tail declared on a non-softmax layer")
        object.__setattr__(self, "weight", w)
        object.__setattr__(self, "bias", b)

    @property
    def in_dim(self) -> int:
        return self.weight.shape[0]

    @property
    def out_dim(self) -> int:
        return self.weight.shape[1]


Arch = Tuple[Tuple[int, int, str, int], ...]


def _views(vec: np.ndarray, arch: Arch) -> List[Tuple[np.ndarray, np.ndarray]]:
    """(weight, bias) views of each layer's slice of a flat vector."""
    size = sum(i * o + o for i, o, _, _ in arch)
    if vec.shape != (size,):
        raise ShapeError(f"flat vector shape {vec.shape} != ({size},)")
    out, off = [], 0
    for in_dim, out_dim, _, _ in arch:
        end = off + in_dim * out_dim
        out.append((vec[off:end].reshape(in_dim, out_dim),
                    vec[end:end + out_dim]))
        off = end + out_dim
    return out


@dataclass(frozen=True, init=False, eq=False)
class MlpParams:
    """Ordered fully connected layers with chained dimensions.

    ``flat`` holds every parameter, laid out like the checkpoint payload:
    layer 0 weight (row-major), layer 0 bias, layer 1 weight, and so on.
    Each layer's ``weight`` and ``bias`` are views into it.
    ``MlpParams(layers)`` copies the layers' arrays into a fresh vector;
    ``MlpParams.from_flat`` wraps an existing vector without copying.
    """

    layers: Tuple[Layer, ...]
    flat: np.ndarray

    def __init__(self, layers: Sequence[Layer]):
        layers = tuple(layers)
        flat = np.concatenate([a.reshape(-1) for l in layers
                               for a in (l.weight, l.bias)] or [np.empty(0)])
        self._bind(flat, tuple((l.in_dim, l.out_dim, l.activation, l.tail)
                               for l in layers))

    @classmethod
    def from_flat(cls, flat: np.ndarray, arch: Arch) -> "MlpParams":
        """Wrap ``flat`` as the network with one (in_dim, out_dim,
        activation, tail) tuple per layer; the layers are views of it."""
        params = cls.__new__(cls)
        params._bind(np.asarray(flat, dtype=np.float64), tuple(arch))
        return params

    def _bind(self, flat: np.ndarray, arch: Arch) -> None:
        if not arch:
            raise ShapeError("empty network")
        layers = tuple(Layer(weight=w, bias=b, activation=act, tail=tail)
                       for (w, b), (_, _, act, tail)
                       in zip(_views(flat, arch), arch))
        for a, b in zip(layers, layers[1:]):
            if a.out_dim != b.in_dim:
                raise ShapeError(
                    f"layer dims do not chain: {a.out_dim} -> {b.in_dim}")
        for lay in layers[:-1]:
            if lay.activation == SOFTMAX_TAIL:
                raise ShapeError("softmax tail allowed only on the final layer")
        object.__setattr__(self, "layers", layers)
        object.__setattr__(self, "flat", flat)

    @property
    def arch(self) -> Arch:
        return tuple((l.in_dim, l.out_dim, l.activation, l.tail)
                     for l in self.layers)

    @property
    def in_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def out_dim(self) -> int:
        return self.layers[-1].out_dim

    def views(self, vec: np.ndarray) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Per-layer (weight, bias) views of a vector laid out like
        ``flat``, such as a gradient or an Adam moment."""
        return _views(vec, self.arch)


def _stamp(params: MlpParams) -> tuple:
    # cheap staleness tripwire: corner entries change under any realistic
    # in-place parameter update
    return tuple(float(a[i]) for l in params.layers
                 for a in (l.weight.reshape(-1), l.bias) for i in (0, -1))


@dataclass
class Tape:
    """Activation record from one forward pass.

    ``inputs[l]`` is the batch fed to layer l, ``masks[l]`` the ReLU
    activity pattern as an int64 bit mask, all ones where the unit is
    active (None for other activations), ``tail_probs`` the
    softmax output of the final tail slice when present.
    """

    params: MlpParams
    inputs: List[np.ndarray]
    masks: List[Optional[np.ndarray]]
    tail_probs: Optional[np.ndarray]
    output: np.ndarray
    stamp: tuple

    def check_fresh(self) -> None:
        if _stamp(self.params) != self.stamp:
            raise StaleTapeError(
                "parameters were mutated in place after the forward pass")


def _relu_mask(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """int64 bit mask of a > 0, written to ``out``: all ones where
    active, zero elsewhere."""
    active = np.greater(a, 0.0, out=step_buffer(("active",), a.shape,
                                                np.bool_))
    return np.negative(active, dtype=np.int64, out=out)


def _masked(x: np.ndarray, mask: np.ndarray,
            out: Optional[np.ndarray] = None) -> np.ndarray:
    """np.where(mask, x, 0.0) bit for bit, as one integer AND.

    ``x`` (and ``out``, which may be ``x``) must be float64; a masked-off
    entry becomes +0.0 whatever it held, NaN included.
    """
    bits = None if out is None else out.view(np.int64)
    return np.bitwise_and(x.view(np.int64), mask, out=bits).view(np.float64)


def _softmax_rows(a: np.ndarray) -> np.ndarray:
    shifted = a - a.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def mlp_forward(params: MlpParams, x: np.ndarray) -> Tuple[np.ndarray, Tape]:
    """Run the network on a batch; return output and the gradient tape."""
    h = _as_batch(x)
    if h.shape[1] != params.in_dim:
        raise ShapeError(
            f"input dim {h.shape[1]} != network input dim {params.in_dim}")
    inputs: List[np.ndarray] = []
    masks: List[Optional[np.ndarray]] = []
    tail_probs: Optional[np.ndarray] = None
    net = id(params.flat)
    for idx, layer in enumerate(params.layers):
        inputs.append(h)
        shape = (h.shape[0], layer.out_dim)
        a = np.matmul(h, layer.weight,
                      out=step_buffer((net, "forward", idx), shape))
        a += layer.bias
        if layer.activation == RELU:
            mask = _relu_mask(a, step_buffer((net, "mask", idx), shape,
                                             np.int64))
            masks.append(mask)
            h = _masked(a, mask, out=a)
        elif layer.activation == LINEAR:
            masks.append(None)
            h = a
        else:  # softmax tail on the final layer
            masks.append(None)
            split = layer.out_dim - layer.tail
            tail_probs = _softmax_rows(a[:, split:])
            h = np.concatenate([a[:, :split], tail_probs], axis=1)
    tape = Tape(params=params, inputs=inputs, masks=masks,
                tail_probs=tail_probs, output=h, stamp=_stamp(params))
    return h, tape


def mlp_backward(
    tape: Tape,
    upstream: np.ndarray,
    tail_upstream_is_logit_grad: bool = False,
) -> Tuple[np.ndarray, np.ndarray]:
    """Reverse-mode pass over a recorded forward computation.

    Args:
        tape: record produced by mlp_forward.
        upstream: dLoss/dOutput, same shape as the forward output.
        tail_upstream_is_logit_grad: when the final layer has a softmax
            tail, interpret the tail columns of ``upstream`` as the
            gradient w.r.t. the pre-softmax logits instead (the stable
            closed form for cross-entropy losses).

    Returns:
        (parameter gradient as one vector laid out like ``params.flat``,
        gradient w.r.t. the input batch).
    """
    return _reverse(tape, upstream, tail_upstream_is_logit_grad,
                    param_grads=True, input_grad=True)


def mlp_param_backward(tape: Tape, upstream: np.ndarray,
                       tail_upstream_is_logit_grad: bool = False
                       ) -> np.ndarray:
    """The parameter gradient of mlp_backward alone, bit for bit.

    Skips the input gradient, for callers that update a network but pass
    no gradient on to whatever fed it.
    """
    return _reverse(tape, upstream, tail_upstream_is_logit_grad,
                    param_grads=True, input_grad=False)[0]


def mlp_input_backward(tape: Tape, upstream: np.ndarray) -> np.ndarray:
    """The input gradient of mlp_backward alone, bit for bit.

    Skips the parameter gradients, for callers that only pass a gradient
    through a network they do not update.
    """
    return _reverse(tape, upstream, False, param_grads=False,
                    input_grad=True)[1]


def _reverse(tape: Tape, upstream: np.ndarray,
             tail_upstream_is_logit_grad: bool, param_grads: bool,
             input_grad: bool):
    """Shared sweep of the three backward passes: (flat parameter
    gradient, input gradient), each None unless asked for."""
    tape.check_fresh()
    u = _as_batch(upstream)
    if u.shape != tape.output.shape:
        raise ShapeError(
            f"upstream shape {u.shape} != output shape {tape.output.shape}")
    params = tape.params
    net = id(params.flat)
    grads = (step_buffer((net, "grad"), params.flat.shape)
             if param_grads else None)
    views = params.views(grads) if param_grads else None
    g = u
    for idx in range(len(params.layers) - 1, -1, -1):
        layer = params.layers[idx]
        if layer.activation == RELU:
            # the caller's upstream is read only; a delta of our own is
            # masked where it lies
            ga = _masked(g, tape.masks[idx], out=(
                step_buffer((net, "delta", idx + 1), g.shape) if g is u
                else g))
        elif layer.activation == LINEAR:
            ga = g
        else:
            split = layer.out_dim - layer.tail
            probs = tape.tail_probs
            assert probs is not None
            if tail_upstream_is_logit_grad:
                ga_tail = g[:, split:]
            else:
                ut = g[:, split:]
                ga_tail = probs * (ut - (ut * probs).sum(axis=1, keepdims=True))
            ga = np.concatenate([g[:, :split], ga_tail], axis=1)
        if param_grads:
            gw, gb = views[idx]
            np.matmul(tape.inputs[idx].T, ga, out=gw)
            ga.sum(axis=0, out=gb)
        if idx or input_grad:
            g = np.matmul(ga, layer.weight.T, out=step_buffer(
                (net, "delta", idx), (ga.shape[0], layer.in_dim)))
    return grads, (g if input_grad else None)


def critic_param_gradient(
    params: MlpParams,
    x: np.ndarray,
    upstream: np.ndarray,
    x_hat: np.ndarray,
    gp_weight: float,
) -> Tuple[np.ndarray, float, np.ndarray]:
    """Parameter gradient of sum(upstream * D(x)) + gp_weight * GP(x_hat).

    GP is the two-sided penalty mean((||dD/dx||_2 - 1)^2) over the x_hat
    rows, with a 1e-12 term inside the square root that keeps
    zero-gradient rows finite. Its gradient holds the forward ReLU masks
    fixed, so it is the exact gradient of the mask-frozen
    (piecewise-linear) function, and the penalty adds nothing to the bias
    gradients. With zero x rows the result is the penalty's gradient
    alone.

    The rows of ``x`` and ``x_hat`` share one forward pass and one
    reverse sweep: seeded with ``upstream`` on the x rows and with 1 on
    the x_hat rows, the sweep yields the ordinary backprop adjoints for x
    and, for x_hat, the mask-frozen adjoints of the input gradient that
    the penalty needs. Each layer's weight gradient is then a single
    matmul over all rows, written into its slice of the flat gradient.

    Returns (D(x), penalty, flat gradient laid out like ``params.flat``).
    """
    final = params.layers[-1]
    if params.out_dim != 1 or final.activation == SOFTMAX_TAIL:
        raise ShapeError(
            "the critic must be a scalar-output network "
            f"(out_dim={params.out_dim}, final activation={final.activation})")
    x = _as_batch(x)
    x_hat = _as_batch(x_hat)
    u = _as_batch(upstream)
    k, n = x.shape[0], x_hat.shape[0]
    if u.shape != (k, 1):
        raise ShapeError(f"upstream shape {u.shape} != ({k}, 1)")
    if n == 0:
        raise ShapeError("the penalty needs at least one interpolate row")
    net = id(params.flat)
    rows = np.concatenate([x, x_hat], out=step_buffer(
        (net, "critic-rows"), (k + n, params.in_dim)))
    out, tape = mlp_forward(params, rows)
    layers = params.layers
    n_layers = len(layers)

    # reverse sweep; from row k on, the adjoints are the masked
    # weight-product suffixes of the penalty's input gradient
    deltas: List[np.ndarray] = [None] * n_layers  # type: ignore[list-item]
    d = np.concatenate([u, np.ones((n, 1))])
    for idx in range(n_layers - 1, -1, -1):
        if idx < n_layers - 1:
            d = np.matmul(d, layers[idx + 1].weight.T, out=step_buffer(
                (net, "critic-delta", idx), (k + n, layers[idx].out_dim)))
        if tape.masks[idx] is not None:
            _masked(d, tape.masks[idx], out=d)
        deltas[idx] = d
    grad_x = deltas[0][k:] @ layers[0].weight.T  # (n, in_dim)

    norms = np.sqrt((grad_x * grad_x).sum(axis=1) + NORM_EPS)
    penalty = float(np.mean((norms - 1.0) ** 2))

    # weighted upstream on the input gradient itself, swept forward through
    # the mask-frozen linearization: the penalty's gradient for layer idx
    # is prefix(t)^T @ suffix(delta). The x_hat rows of the recorded layer
    # inputs are spent, so the sweep overwrites them with prefix(t) and each
    # layer's weight gradient becomes one matmul over all rows.
    inputs = tape.inputs
    inputs[0][k:] = ((gp_weight * 2.0 / n) * (norms - 1.0) / norms)[:, None] \
        * grad_x
    for idx in range(n_layers - 1):
        t = np.matmul(inputs[idx][k:], layers[idx].weight,
                      out=inputs[idx + 1][k:])
        if tape.masks[idx] is not None:
            _masked(t, tape.masks[idx][k:], out=t)
    grads = step_buffer((net, "grad"), params.flat.shape)
    for (gw, gb), inp, dl in zip(params.views(grads), inputs, deltas):
        np.matmul(inp.T, dl, out=gw)
        dl[:k].sum(axis=0, out=gb)
    return out[:k], penalty, grads


@dataclass
class AdamState:
    """Bias-corrected Adam accumulators for one network.

    ``m`` and ``v`` are flat vectors laid out like the network's
    ``MlpParams.flat``, so one pass updates the whole network;
    ``adam_step`` overwrites them and advances ``step``.
    """

    step: int
    m: np.ndarray
    v: np.ndarray
    alpha: float = 1e-4
    beta1: float = 0.5
    beta2: float = 0.9
    eps: float = 1e-8

    def __post_init__(self):
        if not (0.0 < self.beta1 < 1.0 and 0.0 < self.beta2 < 1.0):
            raise ValueError("beta1, beta2 must lie in (0, 1)")


def adam_init(params: MlpParams, alpha: float = 1e-4, beta1: float = 0.5,
              beta2: float = 0.9, eps: float = 1e-8) -> AdamState:
    return AdamState(step=0, m=np.zeros_like(params.flat),
                     v=np.zeros_like(params.flat),
                     alpha=alpha, beta1=beta1, beta2=beta2, eps=eps)


# elements per Adam block: one block's operands and temporaries fit in L2
ADAM_BLOCK = 16384

# second moments below the smallest normal float are flushed to zero: a
# v that small changes no update (sqrt(v / c2) < 5e-154 vanishes against
# any eps above about 1e-130), and subnormal arithmetic slows every step
V_FLOOR = np.finfo(np.float64).tiny


def check_gradient(params: MlpParams, grads: np.ndarray) -> None:
    """Raise DivergenceError, naming the layer of ``params`` that holds
    the first non-finite entry of ``grads``, if there is one.

    A sum of squares is finite only if every term is, so one dot product
    clears a finite gradient; only a non-finite one, which finite entries
    can also reach by overflow, leads to the entrywise search.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        if np.isfinite(np.dot(grads, grads)):
            return
    bad = np.flatnonzero(~np.isfinite(grads))
    if bad.size:
        ends = np.cumsum([l.weight.size + l.bias.size for l in params.layers])
        layer = int(np.searchsorted(ends, bad[0], side="right"))
        raise DivergenceError(f"non-finite gradient in layer {layer}")


def _adam_blocks(state: "AdamState", c1: float, c2: float, p: np.ndarray,
                 g: np.ndarray) -> None:
    """Textbook Adam on one flat network, block by block, in place on
    ``p``, ``state.m`` and ``state.v``.

    Each block runs the same float operations in the same order as the
    whole-array expressions, so the bits agree. A division by a bias
    correction that has rounded to exactly 1.0 is an identity and is
    skipped.
    """
    b1, b2 = state.beta1, state.beta2
    width = min(g.size, ADAM_BLOCK)
    scratch = step_buffer(("adam",), (2, width))
    low = step_buffer(("adam-low",), (width,), np.bool_)
    for lo in range(0, g.size, ADAM_BLOCK):
        blk = slice(lo, lo + ADAM_BLOCK)
        gb, mb, vb, pb = g[blk], state.m[blk], state.v[blk], p[blk]
        tb, ub, lb = scratch[0, :gb.size], scratch[1, :gb.size], low[:gb.size]
        # m = b1 * m + (1 - b1) * g
        mb *= b1
        np.multiply(gb, 1.0 - b1, out=tb)
        mb += tb
        # v = b2 * v + (1 - b2) * g * g, flushed to 0 below V_FLOOR
        vb *= b2
        np.multiply(gb, 1.0 - b2, out=tb)
        tb *= gb
        vb += tb
        np.copyto(vb, 0.0, where=np.less(vb, V_FLOOR, out=lb))
        # p - alpha * (m / c1) / (sqrt(v / c2) + eps)
        if c2 == 1.0:
            np.sqrt(vb, out=tb)
        else:
            np.divide(vb, c2, out=tb)
            np.sqrt(tb, out=tb)
        tb += state.eps
        if c1 == 1.0:
            np.multiply(mb, state.alpha, out=ub)
        else:
            np.divide(mb, c1, out=ub)
            ub *= state.alpha
        ub /= tb
        pb -= ub


def adam_step(
    state: AdamState, params: MlpParams, grads: np.ndarray
) -> Tuple[MlpParams, AdamState]:
    """One bias-corrected Adam update, in place; returns (params, state),
    the same objects.

    ``grads`` is one vector laid out like ``params.flat``; it is read
    only. ``params.flat``, ``state.m`` and ``state.v`` are overwritten
    and ``state.step`` advances. The whole gradient is checked first: a
    non-finite entry raises DivergenceError (see check_gradient) before
    anything is written, so after a raise params and state are
    bit-identical to what they were. To roll back a step that did
    succeed, keep a copy from before it.
    """
    if np.shape(grads) != params.flat.shape:
        raise ShapeError(f"gradient shape {np.shape(grads)} != parameter "
                         f"vector shape {params.flat.shape}")
    check_gradient(params, grads)
    t = state.step + 1
    _adam_blocks(state, 1.0 - state.beta1 ** t, 1.0 - state.beta2 ** t,
                 params.flat, grads)
    state.step = t
    return params, state
