"""Independent oracles used across the test suite.

Everything here is deliberately written as straight-line, loop-heavy
code sharing nothing with the library implementations it checks:
a duplicate MLP evaluator, central finite differences over parameters
and inputs, an exhaustive-permutation DER scorer and a per-label purity
loop.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from deskdiar.autodiff import Layer, MlpParams


# ---------------------------------------------------------------- MLP oracle

def straightline_mlp(params: MlpParams, x: np.ndarray) -> np.ndarray:
    """Evaluate the network with explicit per-row, per-unit loops."""
    out_rows = []
    for row in np.asarray(x, dtype=np.float64):
        h = list(row)
        for layer in params.layers:
            w, b = layer.weight, layer.bias
            a = []
            for j in range(w.shape[1]):
                s = b[j]
                for i in range(w.shape[0]):
                    s += h[i] * w[i, j]
                a.append(s)
            if layer.activation == "relu":
                h = [v if v > 0.0 else 0.0 for v in a]
            elif layer.activation == "linear":
                h = a
            else:  # softmax tail
                split = len(a) - layer.tail
                tail = a[split:]
                mx = max(tail)
                exps = [math.exp(v - mx) for v in tail]
                z = sum(exps)
                h = a[:split] + [e / z for e in exps]
        out_rows.append(h)
    return np.array(out_rows, dtype=np.float64)


# ------------------------------------------------------- finite differences

def fd_param_grads(
    f: Callable[[MlpParams], float], params: MlpParams, h: float = 1e-5
) -> np.ndarray:
    """Central finite differences of a scalar objective over every entry,
    concatenated in layer order: layer 0 weight (row-major), layer 0
    bias, layer 1 weight, and so on."""
    parts: List[np.ndarray] = []
    for li, layer in enumerate(params.layers):
        gw = np.zeros_like(layer.weight)
        for idx in np.ndindex(layer.weight.shape):
            gw[idx] = (_f_pert(f, params, li, "weight", idx, +h)
                       - _f_pert(f, params, li, "weight", idx, -h)) / (2 * h)
        gb = np.zeros_like(layer.bias)
        for idx in np.ndindex(layer.bias.shape):
            gb[idx] = (_f_pert(f, params, li, "bias", idx, +h)
                       - _f_pert(f, params, li, "bias", idx, -h)) / (2 * h)
        parts += [gw.ravel(), gb]
    return np.concatenate(parts)


def _f_pert(f, params: MlpParams, li: int, which: str, idx, delta: float
            ) -> float:
    layers = []
    for i, layer in enumerate(params.layers):
        w = layer.weight.copy()
        b = layer.bias.copy()
        if i == li:
            if which == "weight":
                w[idx] += delta
            else:
                b[idx] += delta
        layers.append(Layer(weight=w, bias=b, activation=layer.activation,
                            tail=layer.tail))
    return float(f(MlpParams(layers=tuple(layers))))


def fd_input_grads(
    f: Callable[[np.ndarray], float], x: np.ndarray, h: float = 1e-5
) -> np.ndarray:
    g = np.zeros_like(x, dtype=np.float64)
    for idx in np.ndindex(x.shape):
        xp = np.array(x, dtype=np.float64)
        xm = np.array(x, dtype=np.float64)
        xp[idx] += h
        xm[idx] -= h
        g[idx] = (f(xp) - f(xm)) / (2 * h)
    return g


def assert_grads_close(analytic: np.ndarray, reference: np.ndarray,
                       rtol: float = 1e-4, atol: float = 1e-7) -> None:
    """Entrywise |a - r| <= atol + rtol * |r| over two flat gradients."""
    assert analytic.shape == reference.shape, \
        f"gradient shapes differ: {analytic.shape} != {reference.shape}"
    err = np.abs(analytic - reference)
    bad = np.flatnonzero(err > atol + rtol * np.abs(reference))
    assert bad.size == 0, f"gradient mismatch at flat index {bad[0]}: " \
        f"max err {err.max():.3e}"


# ------------------------------------------------------------- random nets

def random_params(rng: np.random.Generator, dims: Sequence[int],
                  final: str = "linear", tail: int = 0,
                  scale: float = 0.8) -> MlpParams:
    """Small random network: ReLU hidden layers, configurable final layer."""
    layers = []
    for i in range(len(dims) - 1):
        w = scale * rng.standard_normal((dims[i], dims[i + 1]))
        b = 0.1 * rng.standard_normal(dims[i + 1])
        last = i == len(dims) - 2
        layers.append(Layer(
            weight=w, bias=b,
            activation=(final if last else "relu"),
            tail=(tail if last else 0),
        ))
    return MlpParams(layers=tuple(layers))


# --------------------------------------------------------- brute-force DER

def brute_force_der(
    reference: Sequence[Tuple[float, float, str]],
    hypothesis: Sequence[Tuple[float, float, str]],
    collar: float,
) -> Dict[str, float]:
    """Exhaustive-permutation DER on millisecond ticks.

    Turns are (onset s, duration s, label); either side may have several
    speakers active at once.  Each cell of the cut grid holds the set of
    active reference and hypothesis speakers, and is scored with NIST
    md-eval rules: with N_ref and N_hyp speakers active, missed is
    max(0, N_ref - N_hyp), false alarm max(0, N_hyp - N_ref), confusion
    min(N_ref, N_hyp) less the mapped (ref, hyp) pairs both active, and
    scored time N_ref, each times the cell length.  Returns the same
    accounting fields as score.der, computed with independent interval
    slicing and a mapping found by trying every injective assignment of
    reference speakers to hypothesis speakers.
    """
    ref = [(round(o * 1000), round((o + d) * 1000), lab)
           for o, d, lab in reference]
    hyp = [(round(o * 1000), round((o + d) * 1000), lab)
           for o, d, lab in hypothesis]
    collar_t = round(collar * 1000)

    points = set()
    for a, b, _ in ref:
        points.update((a, b, a - collar_t, a + collar_t,
                       b - collar_t, b + collar_t))
    for a, b, _ in hyp:
        points.update((a, b))
    cut = sorted(points)

    def active(turns, lo, hi):
        return frozenset(lab for a, b, lab in turns if a <= lo and hi <= b)

    def scored(lo, hi):
        for a, b, _ in ref:
            for edge in (a, b):
                if edge - collar_t <= lo and hi <= edge + collar_t:
                    return False
        return True

    cells = []  # (duration, active ref labels, active hyp labels)
    for lo, hi in zip(cut, cut[1:]):
        if hi <= lo or not scored(lo, hi):
            continue
        cells.append((hi - lo, active(ref, lo, hi), active(hyp, lo, hi)))
    ref_labels = sorted({lab for _, _, lab in ref})
    hyp_labels = sorted({lab for _, _, lab in hyp})

    scored_ref = sum(d * len(r) for d, r, _ in cells)
    missed = sum(d * max(0, len(r) - len(hh)) for d, r, hh in cells)
    fa = sum(d * max(0, len(hh) - len(r)) for d, r, hh in cells)
    both = sum(d * min(len(r), len(hh)) for d, r, hh in cells)
    shared = [(d, r, hh) for d, r, hh in cells if r and hh]

    # every injective ref->hyp mapping: permute the larger side over the
    # smaller (a maximal matching never scores worse than a partial one)
    best_correct = 0
    best_map: Dict[str, str] = {}
    if ref_labels and hyp_labels:
        best_correct = -1
        if len(ref_labels) <= len(hyp_labels):
            candidates = (dict(zip(ref_labels, images)) for images in
                          itertools.permutations(hyp_labels, len(ref_labels)))
        else:
            candidates = (dict(zip(domain, hyp_labels)) for domain in
                          itertools.permutations(ref_labels, len(hyp_labels)))
        for mapping in candidates:
            correct = sum(d * sum(mapping.get(lab) in hh for lab in r)
                          for d, r, hh in shared)
            if correct > best_correct:
                best_correct = correct
                best_map = mapping
    confusion = both - best_correct
    if scored_ref == 0:
        raise ZeroDivisionError("no scored reference speech")
    der = (missed + fa + confusion) / scored_ref * 100.0
    return {
        "scored": scored_ref / 1000.0,
        "missed": missed / 1000.0,
        "false_alarm": fa / 1000.0,
        "confusion": confusion / 1000.0,
        "der": der,
        "mapping": best_map,
    }


def purity_by_label_loop(true_labels: Sequence, hyp_labels: Sequence
                         ) -> float:
    """Cluster purity with one boolean mask per hypothesis label: each
    cluster scores the count of its most frequent true label."""
    true_arr = np.asarray(true_labels)
    hyp_arr = np.asarray(hyp_labels)
    majority = 0
    for lab in np.unique(hyp_arr):
        members = true_arr[hyp_arr == lab]
        _, counts = np.unique(members, return_counts=True)
        majority += int(counts.max())
    return majority / len(true_arr)


def jacobi_eigh(mat: np.ndarray, sweeps: int = 100,
                tol: float = 1e-12) -> Tuple[np.ndarray, np.ndarray]:
    """Cyclic Jacobi eigendecomposition of a symmetric matrix.

    Independent slow-path reference for eig_sym: sweeps Givens rotations over
    every off-diagonal pair until the off-diagonal Frobenius norm drops below
    tol. Only sensible for small n.
    """
    a = np.array(mat, dtype=np.float64)
    n = a.shape[0]
    v = np.eye(n)
    for _ in range(sweeps):
        strict = a - np.diag(np.diag(a))
        if np.sqrt((strict ** 2).sum()) < tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if a[p, q] == 0.0:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * a[p, q])
                # hypot keeps theta**2 from overflowing for tiny pivots
                t = np.sign(theta) / (abs(theta) + np.hypot(theta, 1.0))
                if theta == 0.0:
                    t = 1.0
                c = 1.0 / np.sqrt(t ** 2 + 1.0)
                s = t * c
                rot = np.eye(n)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
                v = v @ rot
    order = np.argsort(np.diag(a), kind="stable")
    return np.diag(a)[order], v[:, order]
