"""Independent reference computations the benchmark checks outputs against.

Nothing here calls into deskdiar. Times are integer milliseconds; a turn
is ``(onset_ms, end_ms, label)`` covering ticks ``onset_ms .. end_ms - 1``.

- ``der_ticks``: DER on 1 ms ticks with NIST md-eval semantics, so it also
  scores overlapping speech.
- ``purity_frames``: cluster purity on 10 ms frames.
- ``nme_reference``: an exhaustive NME scan (Park et al., arXiv:2003.02405)
  that sorts each affinity row once and takes eigenvalues only.
"""

from __future__ import annotations

from math import ceil
from typing import Dict, List, Sequence, Tuple

import numpy as np
import scipy.linalg
from scipy.optimize import linear_sum_assignment

Turn = Tuple[int, int, str]

# ticks per chunk of the DER sweep; keeps memory flat on multi-hour sessions
CHUNK_MS = 60_000
PURITY_FRAME_MS = 10


def _paint(lo: int, hi: int, starts: np.ndarray, ends: np.ndarray,
           rows: np.ndarray, n_rows: int) -> np.ndarray:
    """(n_rows, hi - lo) counts of the spans [starts, ends) per row, over
    the ticks lo .. hi - 1."""
    s, e = np.maximum(starts, lo) - lo, np.minimum(ends, hi) - lo
    keep = s < e
    diff = np.zeros((n_rows, hi - lo + 1), dtype=np.int32)
    np.add.at(diff, (rows[keep], s[keep]), 1)
    np.add.at(diff, (rows[keep], e[keep]), -1)
    return np.cumsum(diff[:, :-1], axis=1)


def _spans(turns: Sequence[Turn], labels: Sequence[str]):
    idx = {lab: i for i, lab in enumerate(labels)}
    return (np.array([a for a, _, _ in turns], dtype=np.int64),
            np.array([b for _, b, _ in turns], dtype=np.int64),
            np.array([idx[lab] for _, _, lab in turns], dtype=np.int64))


def der_ticks(ref: Sequence[Turn], hyp: Sequence[Turn], collar_ms: int
              ) -> Dict[str, object]:
    """md-eval DER on 1 ms ticks.

    At each scored tick, with N_ref and N_hyp active speakers: missed is
    max(0, N_ref - N_hyp), false alarm max(0, N_hyp - N_ref), and
    confusion min(N_ref, N_hyp) - N_correct, where N_correct counts the
    mapped (ref, hyp) pairs both active under the one-to-one mapping that
    maximizes total correct time. Scored time is the sum of N_ref. Ticks
    within +-collar of a reference turn edge are not scored. Returns
    integer milliseconds and the DER in percent.
    """
    ref_labels = sorted({lab for _, _, lab in ref})
    hyp_labels = sorted({lab for _, _, lab in hyp})
    # ticks outside every turn add nothing, scored or not
    start = min(a for a, _, _ in list(ref) + list(hyp))
    end = max(b for _, b, _ in list(ref) + list(hyp))
    totals = dict(scored=0, missed=0, false_alarm=0, both=0)
    pair = np.zeros((len(ref_labels), len(hyp_labels)))
    ref_s, ref_e, ref_i = _spans(ref, ref_labels)
    hyp_s, hyp_e, hyp_i = _spans(hyp, hyp_labels)
    edges = np.concatenate([ref_s, ref_e])
    no_row = np.zeros(len(edges), dtype=np.int64)
    for lo in range(start, end, CHUNK_MS):
        hi = min(lo + CHUNK_MS, end)
        keep = _paint(lo, hi, edges - collar_ms, edges + collar_ms, no_row,
                      1)[0] == 0
        r = _paint(lo, hi, ref_s, ref_e, ref_i, len(ref_labels))[:, keep] > 0
        h = _paint(lo, hi, hyp_s, hyp_e, hyp_i, len(hyp_labels))[:, keep] > 0
        nr, nh = r.sum(axis=0), h.sum(axis=0)
        totals["scored"] += int(nr.sum())
        totals["missed"] += int(np.maximum(nr - nh, 0).sum())
        totals["false_alarm"] += int(np.maximum(nh - nr, 0).sum())
        totals["both"] += int(np.minimum(nr, nh).sum())
        pair += r.astype(np.float64) @ h.T.astype(np.float64)
    correct = 0
    if pair.size:
        rows, cols = linear_sum_assignment(-pair)
        correct = int(round(pair[rows, cols].sum()))
    confusion = totals["both"] - correct
    scored = totals["scored"]
    der = 100.0 * (totals["missed"] + totals["false_alarm"] + confusion) \
        / scored if scored else float("nan")
    return {"scored": scored, "missed": totals["missed"],
            "false_alarm": totals["false_alarm"], "confusion": confusion,
            "der_pct": der}


def purity_frames(ref: Sequence[Turn], hyp: Sequence[Turn]) -> float:
    """Cluster purity over 10 ms frames where the reference is active.

    A frame takes the label of the turn that contains its midpoint; frames
    with no hypothesis speaker form one cluster of their own. Each
    hypothesis cluster scores the frames of its most frequent reference
    speaker. Both timelines must be single-speaker.
    """
    f = PURITY_FRAME_MS
    end = max(b for _, b, _ in list(ref) + list(hyp))
    n = -(-end // f)

    def paint(turns: Sequence[Turn], labels: List[str]) -> np.ndarray:
        out = np.full(n, -1, dtype=np.int64)
        for a, b, lab in turns:
            # frames i with a <= f*i + f/2 < b
            first = max(0, -(-(2 * a - f) // (2 * f)))
            stop = -(-(2 * b - f) // (2 * f))
            out[first:stop] = labels.index(lab)
        return out

    ref_labels = sorted({lab for _, _, lab in ref})
    hyp_labels = sorted({lab for _, _, lab in hyp})
    r = paint(ref, ref_labels)
    h = paint(hyp, hyp_labels) + 1  # 0 = no hypothesis speaker
    keep = r >= 0
    counts = np.zeros((len(hyp_labels) + 1, len(ref_labels)), dtype=np.int64)
    np.add.at(counts, (h[keep], r[keep]), 1)
    return float(counts.max(axis=1).sum() / keep.sum())


def nme_reference(a: np.ndarray, k_max: int = 10) -> Dict[str, float]:
    """Exhaustive NME scan over p = 1 .. min(ceil(n/4), n-1).

    Each row of the affinity is sorted once (largest first, ties to the
    lower column, the diagonal excluded); step p adds every row's p-th
    neighbour to the binarized graph. r(p) = p / g_p, where g_p is the
    largest gap among the k_max+1 smallest Laplacian eigenvalues over the
    largest eigenvalue. Returns the winner (smallest r, then smallest p),
    its k, and the runner-up's r.
    """
    n = a.shape[0]
    masked = np.array(a, dtype=np.float64)
    np.fill_diagonal(masked, -np.inf)
    order = np.argsort(-masked, axis=1, kind="stable")
    window = min(k_max, n - 1)
    adj = np.eye(n)
    rows = np.arange(n)
    scan = []
    for p in range(1, min(ceil(n / 4), n - 1) + 1):
        adj[rows, order[:, p - 1]] = 1.0
        sym = (adj + adj.T) / 2.0
        lap = np.diag(sym.sum(axis=1)) - sym
        lam = scipy.linalg.eigvalsh(lap)
        gaps = lam[1:window + 1] - lam[:window]
        g = gaps.max() / max(lam[-1], 1e-12)
        scan.append((p / g if g > 0 else np.inf, p, int(np.argmax(gaps)) + 1))
    ranked = sorted(scan)
    r_best, p_hat, k_hat = ranked[0]
    r_second = ranked[1][0] if len(ranked) > 1 else np.inf
    return {"p_hat": p_hat, "k_hat": k_hat, "r": r_best,
            "r_runner_up": r_second, "n_p": len(scan)}
