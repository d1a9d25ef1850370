"""Clustering back-end: cosine affinity, p-binarized spectral clustering
with normalized-maximum-eigengap (NME) auto-tuning, and k-means.

The NME search scans candidate binarization counts p, builds the
symmetrized graph Laplacian for each, and scores p by r(p) = p / g_p where
g_p is the largest eigengap inside the candidate window normalized by the
largest eigenvalue. The smallest r wins; the winning eigengap index is the
cluster-count estimate.

The scan does no work twice: each affinity row is sorted once, the
binarized graph grows by the next neighbour columns from one p to the next,
and only eigenvalues are computed per p, one block per connected component
while the graph has several. `nme_select` visits every candidate p;
`nme_select_bounded` stops at the first p that provably cannot win
(r(p) >= p) and makes the same pick. `spectral_cluster`, diarization's one
spectral path, runs the bounded scan on its own sort of the rows and takes
eigenvectors once, at the selected p, of a Laplacian built as the scan's.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil
from typing import (Dict, Iterator, List, NamedTuple, Optional, Sequence,
                    Tuple)

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .autodiff import ShapeError

EPS = 1e-12
# row norms inside this range are divided out directly by cosine_affinity
NORM_RANGE = (1e-150, 1e150)

KMEANS_TOL = 1e-9
KMEANS_MAX_ITER = 300
DEFAULT_RESTARTS = 10
DEFAULT_K_MAX = 10
# a normalized eigengap at or below this is rounding noise, not a gap: the
# graph has more components than the eigengap window holds
GAP_FLOOR = 1e-9
# relative margin on the bounded scan's stop r(p) >= p, for rounding in g_p
BOUND_SLACK = 1e-9
# affinity rows sorted per argsort call by _neighbour_order
ORDER_ROWS = 256


class DegenerateAffinityError(ValueError):
    """Every candidate p produced a normalized eigengap at or below
    GAP_FLOOR."""


class EigenConvergenceError(ArithmeticError):
    """The symmetric eigensolver failed to converge."""


@dataclass(frozen=True)
class NmeResult:
    """Outcome of the NME scan at the selected binarization count."""

    p_hat: int
    k_hat: int
    eigenvalues: np.ndarray   # ascending, for p_hat, from eigvalsh
    eigengap: np.ndarray      # e[i-1] = lambda_{i+1} - lambda_i, i in [1, k_max]
    trace: Tuple[Dict[str, float], ...]


@dataclass(frozen=True)
class ClusterAssignment:
    labels: np.ndarray
    k: int
    inertia: float

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=np.int64)
        if labels.ndim != 1:
            raise ShapeError("labels must be a vector")
        if labels.size:
            if labels.min() < 0 or labels.max() >= self.k:
                raise ValueError("labels must lie in [0, k)")
            if np.unique(labels).size != self.k:
                raise ValueError(f"all {self.k} labels must be used")
        object.__setattr__(self, "labels", labels)


def cosine_affinity(x: np.ndarray) -> np.ndarray:
    """Pairwise cosine similarity of the rows of x.

    Every nonzero row is scaled to unit length, so the result does not
    depend on row scale, however tiny or huge the row. A row whose norm
    lies outside [1e-150, 1e150] is first rescaled by an exact power of two
    so that its squares neither underflow nor overflow; other rows are
    divided by their norm directly. An all-zero row has affinity 0 to every
    row, itself included. The diagonal is exactly 1 for nonzero rows, and
    off-diagonal entries are clipped into [-1, 1] against rounding spill.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2:
        raise ShapeError("need an (n >= 2, d) embedding matrix")
    norms = np.linalg.norm(x, axis=1)
    peak = np.abs(x).max(axis=1)
    nonzero = peak > 0.0
    rescale = nonzero & ~((norms >= NORM_RANGE[0]) & (norms <= NORM_RANGE[1]))
    if rescale.any():
        # ldexp by the peak's binary exponent brings the peak into [0.5, 1)
        x = x.copy()
        x[rescale] = np.ldexp(x[rescale],
                              -np.frexp(peak[rescale])[1][:, None])
        norms[rescale] = np.linalg.norm(x[rescale], axis=1)
    unit = x / np.where(nonzero, norms, 1.0)[:, None]
    a = np.clip(unit @ unit.T, -1.0, 1.0)
    a = (a + a.T) / 2.0
    np.fill_diagonal(a, np.where(nonzero, 1.0, 0.0))
    return a


def _neighbour_order(a: np.ndarray) -> np.ndarray:
    """Column indices (int32) of each row's off-diagonal entries, largest
    first."""
    n = a.shape[0]
    if a.shape != (n, n):
        raise ShapeError("affinity must be square")
    neg = a.copy()
    np.fill_diagonal(neg, -np.inf)
    np.negative(neg, out=neg)
    # stable sort on negated values: equal entries keep ascending column
    # order; ORDER_ROWS rows at a time bound argsort's int64 output
    order = np.empty(a.shape, dtype=np.int32)
    for lo in range(0, a.shape[0], ORDER_ROWS):
        order[lo:lo + ORDER_ROWS] = np.argsort(
            neg[lo:lo + ORDER_ROWS], axis=1, kind="stable")
    return order


def binarize_symmetrize(a: np.ndarray, p: int) -> np.ndarray:
    """Keep each row's p largest off-diagonal entries as 1, zero the rest,
    then average with the transpose. Ties break toward the lower column
    index; the diagonal is excluded from selection and kept at 1."""
    order = _neighbour_order(a)
    n = a.shape[0]
    if not 1 <= p <= n - 1:
        raise ValueError(f"p must lie in [1, {n - 1}], got {p}")
    a_p = np.zeros_like(a)
    rows = np.repeat(np.arange(n), p)
    a_p[rows, order[:, :p].ravel()] = 1.0
    np.fill_diagonal(a_p, 1.0)
    return (a_p + a_p.T) / 2.0


def laplacian(abar: np.ndarray) -> np.ndarray:
    """Unnormalized graph Laplacian D - Abar."""
    if not np.allclose(abar, abar.T, atol=1e-12, rtol=0):
        raise ValueError("binarized affinity must be symmetric")
    return np.diag(abar.sum(axis=1)) - abar


def eig_sym(mat: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix, eigenvalues ascending."""
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ShapeError("matrix must be square")
    if np.abs(mat - mat.T).max() > 1e-10:
        raise ValueError("matrix is not symmetric within 1e-10")
    try:
        w, v = np.linalg.eigh((mat + mat.T) / 2.0)
    except np.linalg.LinAlgError as exc:
        raise EigenConvergenceError(str(exc)) from None
    return w, v


def default_p_range(n: int) -> range:
    return range(1, min(ceil(n / 4), n - 1) + 1)


class _NmeStep(NamedTuple):
    """One p of the NME scan."""

    p: int
    g_p: float
    r: float
    k_at_p: int
    eigenvalues: np.ndarray   # ascending Laplacian spectrum
    eigengap: np.ndarray      # the window gaps


def _graph_laplacian(adj: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """The Laplacian ``laplacian((adj + adj.T) / 2.0)``, bit for bit, built
    in the first adj.size entries of the flat buffer ``buf``, which may be
    adj's own (ufuncs copy overlapping inputs first). Off the diagonal an
    entry is 0.0 - abar, as in D - Abar, so a missing edge stays +0.0
    (negation would give -0.0); on it, deg + (0.0 - abar) rounds exactly
    like deg - abar.
    """
    n = adj.shape[0]
    lap = buf[:n * n].reshape(n, n)
    np.add(adj, adj.T, out=lap)
    lap /= 2.0
    deg = lap.sum(axis=1)
    np.subtract(0.0, lap, out=lap)
    np.fill_diagonal(lap, lap.diagonal() + deg)
    return lap


def _laplacian_eigvalsh(adj: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of `_graph_laplacian(adj, buf)`."""
    try:
        return np.linalg.eigvalsh(_graph_laplacian(adj, buf))
    except np.linalg.LinAlgError as exc:
        raise EigenConvergenceError(str(exc)) from None


def _components(order: np.ndarray, p: int) -> List[np.ndarray]:
    """Ascending node indices of each weakly connected component of the
    graph whose out-edges are order[:, :p]."""
    n = order.shape[0]
    out_edges = csr_matrix(
        (np.ones(n * p), order[:, :p].ravel(), np.arange(0, n * p + 1, p)),
        shape=(n, n))
    _, labels = connected_components(out_edges, directed=True,
                                     connection="weak")
    members = np.argsort(labels, kind="stable")
    return np.split(members, np.cumsum(np.bincount(labels))[:-1])


def _nme_steps(order: np.ndarray, p_list: Sequence[int], window: int
               ) -> Iterator[_NmeStep]:
    """Score each p of the ascending, duplicate-free p_list, lazily: the
    spectrum for a p is solved only when the consumer asks for it.

    order is `_neighbour_order(a)`. The graph for p adds the columns
    order[:, filled:p] to the one for the previous p, so it is the graph
    of `binarize_symmetrize(a, p)`. While that graph has several
    components its Laplacian is block diagonal (up to a permutation), and
    the spectrum is the union of the blocks' spectra; each block is built
    from its own rows and columns of the graph (its degrees are exact sums
    of halves, so the block equals the matching block of the whole
    Laplacian bit for bit). The graph only gains edges as p grows, so once
    it is connected it stays connected and the components are no longer
    looked for. Every Laplacian, whole or block, is built in one buffer
    that the whole scan reuses.
    """
    n = order.shape[0]
    rows = np.arange(n)[:, None]
    adj = np.eye(n)
    lap = np.empty(n * n)
    filled = 0
    connected = False
    for p in p_list:
        adj[rows, order[:, filled:p]] = 1.0
        filled = p
        if not connected:
            members = _components(order, p)
            connected = len(members) == 1
        lam = np.sort(np.concatenate(
            [_laplacian_eigvalsh(adj, lap)] if connected else
            [_laplacian_eigvalsh(adj[np.ix_(m, m)], lap) for m in members]))
        gaps = lam[1: window + 1] - lam[:window]
        g_p = float(gaps.max() / max(lam[-1], EPS))
        r = float(p / g_p) if g_p > GAP_FLOOR else np.inf
        yield _NmeStep(p, g_p, r, int(np.argmax(gaps)) + 1, lam, gaps)


def _nme_scan(order: np.ndarray, p_range: Optional[Sequence[int]],
              k_max: int, stop_at_bound: bool) -> NmeResult:
    n = order.shape[0]
    if p_range is None:
        p_range = default_p_range(n)
    p_list = sorted(set(int(p) for p in p_range))
    if not p_list or p_list[0] < 1 or p_list[-1] > n - 1:
        raise ValueError(f"p_range must be a nonempty subset of [1, {n - 1}]")
    if not 1 <= k_max <= n:
        raise ValueError(f"k_max must lie in [1, {n}]")

    best: Optional[_NmeStep] = None
    trace: List[Dict[str, float]] = []
    for i, step in enumerate(_nme_steps(order, p_list, min(k_max, n - 1))):
        trace.append({"p": step.p, "g_p": step.g_p, "r": step.r,
                      "k_at_p": step.k_at_p})
        # strictly smaller r wins, so ties go to the smaller p
        if best is None or step.r < best.r:
            best = step
        if (stop_at_bound and i + 1 < len(p_list)
                and p_list[i + 1] > best.r * (1.0 + BOUND_SLACK)):
            break
    if not np.isfinite(best.r):
        raise DegenerateAffinityError(
            f"every candidate p has normalized eigengap <= {GAP_FLOOR}")
    return NmeResult(p_hat=best.p, k_hat=best.k_at_p,
                     eigenvalues=best.eigenvalues, eigengap=best.eigengap,
                     trace=tuple(trace))


def nme_select(
    a: np.ndarray,
    p_range: Optional[Sequence[int]] = None,
    k_max: int = DEFAULT_K_MAX,
) -> NmeResult:
    """Scan candidate p values and pick (p_hat, k_hat) by the normalized
    maximum eigengap ratio r(p) = p / g_p; ties go to the smaller p and the
    smaller eigengap index.

    Every p in `p_range` is scanned and traced. Only eigenvalues are
    computed (`np.linalg.eigvalsh`, per connected component while the graph
    has several), so `eigenvalues` and the trace may differ from an
    `eig_sym` spectrum of `binarize_symmetrize(a, p)` in the last bits.
    `nme_select_bounded` makes the same pick from a prefix of the scan.
    """
    return _nme_scan(_neighbour_order(a), p_range, k_max,
                     stop_at_bound=False)


def nme_select_bounded(
    a: np.ndarray,
    p_range: Optional[Sequence[int]] = None,
    k_max: int = DEFAULT_K_MAX,
) -> NmeResult:
    """`nme_select`'s pick, from the ascending scan stopped once no later p
    can win; `trace` holds the p values scanned.

    The stop is exact. A Laplacian's eigenvalues lie in [0, lambda_max],
    so every window gap is at most lambda_max - lambda_1 = lambda_max, and
    g_p <= 1 (the divisor max(lambda_max, EPS) is never below
    lambda_max), that is r(p) >= p. A later p wins only with an r strictly
    below the best r so far, so once the next p exceeds that r, no p from
    there on can win. Rounding: the subtractions and divisions round
    monotonically, so a computed gap is at most the computed
    lambda_max - lambda_1; LAPACK's backward error puts the computed
    lambda_1 within about n * eps * lambda_max of 0, so a computed g_p can
    exceed 1, and a computed r fall below p, by about n * eps relative.
    The stop therefore waits until the next p exceeds the best r by the
    factor 1 + BOUND_SLACK, which covers n into the millions.
    """
    return _nme_scan(_neighbour_order(a), p_range, k_max,
                     stop_at_bound=True)


# --------------------------------------------------------------------------
# k-means
# --------------------------------------------------------------------------

def _sq_dists(x: np.ndarray, centers: np.ndarray) -> np.ndarray:
    d = x[:, None, :] - centers[None, :, :]
    return np.einsum("ijk,ijk->ij", d, d)


def _kmeanspp_seed(x: np.ndarray, k: int, rng: np.random.Generator
                   ) -> np.ndarray:
    n = x.shape[0]
    centers = np.empty((k, x.shape[1]))
    first = int(rng.integers(n))
    centers[0] = x[first]
    chosen = {first}
    d2 = np.einsum("ij,ij->i", x - centers[0], x - centers[0])
    for c in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            # all remaining mass sits on already-chosen points; take the
            # lowest-index unchosen row for determinism
            idx = next(i for i in range(n) if i not in chosen)
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centers[c] = x[idx]
        chosen.add(idx)
        d2 = np.minimum(d2, np.einsum("ij,ij->i", x - centers[c],
                                      x - centers[c]))
    return centers


def _lloyd(x: np.ndarray, centers: np.ndarray
           ) -> Tuple[np.ndarray, np.ndarray, float]:
    k = centers.shape[0]
    prev_inertia = np.inf
    labels = np.zeros(x.shape[0], dtype=np.int64)
    inertia = 0.0
    for _ in range(KMEANS_MAX_ITER):
        d2 = _sq_dists(x, centers)
        labels = d2.argmin(axis=1)
        point_d2 = d2[np.arange(x.shape[0]), labels]
        # Empty clusters grab the point farthest from its current center.
        # A grab can empty the donor cluster, so repeat until stable; each
        # pass consumes one point (its distance is zeroed), and while any
        # cluster is empty some point sits off-center (the data has >= k
        # distinct rows), so this terminates within n passes.
        while True:
            empty = [c for c in range(k) if not (labels == c).any()]
            if not empty:
                break
            far = int(point_d2.argmax())
            centers[empty[0]] = x[far]
            labels[far] = empty[0]
            point_d2[far] = 0.0
        inertia = float(point_d2.sum())
        assert inertia <= prev_inertia + 1e-9 * max(1.0, prev_inertia), \
            "k-means inertia increased"
        new_centers = centers.copy()
        for c in range(k):
            members = labels == c
            if members.any():
                new_centers[c] = x[members].mean(axis=0)
        shift = float(np.sqrt(((new_centers - centers) ** 2).sum(axis=1)
                              ).max())
        centers = new_centers
        if shift < KMEANS_TOL:
            break
        prev_inertia = inertia
    return labels, centers, inertia


def kmeans(x: np.ndarray, k: int, restarts: int = DEFAULT_RESTARTS,
           seed: int = 0) -> ClusterAssignment:
    """k-means++ seeding with Lloyd refinement, best of `restarts` runs."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeError("expected an (n, d) matrix")
    n = x.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in [1, {n}]")
    if np.unique(x, axis=0).shape[0] < k:
        raise ValueError(f"cannot form {k} nonempty clusters: fewer than "
                         f"{k} distinct rows")
    rng = np.random.default_rng(seed)
    best: Optional[Tuple[float, np.ndarray]] = None
    for _ in range(max(1, restarts)):
        centers = _kmeanspp_seed(x, k, rng)
        labels, _, inertia = _lloyd(x, centers.copy())
        if best is None or inertia < best[0]:
            best = (inertia, labels)
    inertia, labels = best
    return ClusterAssignment(labels=labels, k=k, inertia=inertia)


# --------------------------------------------------------------------------
# full spectral pipeline
# --------------------------------------------------------------------------

def spectral_cluster(
    x: np.ndarray,
    k: Optional[int] = None,
    p: Optional[int] = None,
    p_range: Optional[Sequence[int]] = None,
    k_max: int = DEFAULT_K_MAX,
    restarts: int = DEFAULT_RESTARTS,
    seed: int = 0,
) -> Tuple[ClusterAssignment, Optional[NmeResult]]:
    """Spectral clustering of embedding rows, each affinity row sorted once.

    Without `k`, or with `p_range`, the bounded NME scan over `p_range`
    (default: `default_p_range(n)`) picks p, and k unless it is given;
    otherwise p is the caller's (default: the top of the default p range).
    k-means then runs on the first k `eig_sym` eigenvectors of the scan
    builder's Laplacian at p: `laplacian(binarize_symmetrize(a, p))` bit for
    bit. Returns the assignment and the NME result (None if not scanned).
    """
    order = _neighbour_order(cosine_affinity(x))
    n = order.shape[0]
    nme = None
    if k is None or p_range is not None:
        nme = _nme_scan(order, p_range, k_max, stop_at_bound=True)
        p, k = nme.p_hat, nme.k_hat if k is None else k
    elif p is None:
        p = default_p_range(n)[-1]
    elif not 1 <= p <= n - 1:
        raise ValueError(f"p must lie in [1, {n - 1}], got {p}")
    adj = np.eye(n)
    adj[np.arange(n)[:, None], order[:, :p]] = 1.0
    _, vec = eig_sym(_graph_laplacian(adj, adj.ravel()))
    return kmeans(vec[:, :k], k, restarts=restarts, seed=seed), nme
