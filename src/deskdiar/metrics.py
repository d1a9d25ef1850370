"""Diarization scoring.

DER with a boundary collar and an optimal speaker mapping, speaker-count
summaries (mean absolute percentage deviation and percentage of correct
count), segment-level cluster purity, and the CSV report the CLI prints.
Interval arithmetic runs on integer millisecond ticks so collar slicing
is exact.

DER follows NIST md-eval, so overlapping speech on either side is scored:
where N_ref reference and N_hyp hypothesis speakers are active, missed
speech is max(0, N_ref - N_hyp), false alarm max(0, N_hyp - N_ref) and
confusion min(N_ref, N_hyp) less the correctly mapped speakers. Scored
time sums N_ref, so under overlap it can exceed the wall time scored.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np
from scipy.optimize import linear_sum_assignment

from .autodiff import ShapeError
from .pipeline import Timeline

MS = 1000

# Published reference magnitudes for MCGAN speaker-count estimation on
# CALLHOME; kept as documentation constants for report context. The corpus
# is license-restricted, so these are not reproduced by this package.
CALLHOME_MCGAN_MAPD_PCT = 9.76
CALLHOME_MCGAN_POC_PCT = 75.55


class DerUndefinedError(ZeroDivisionError):
    """No scored reference speech: DER has a zero denominator."""


class RttmParseError(ValueError):
    pass


@dataclass(frozen=True)
class DerReport:
    scored_s: float
    missed_s: float
    false_alarm_s: float
    confusion_s: float
    der_pct: float
    mapping: Dict[str, str]

    def __post_init__(self):
        for name in ("scored_s", "missed_s", "false_alarm_s", "confusion_s"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        want = ((self.missed_s + self.false_alarm_s + self.confusion_s)
                / self.scored_s * 100.0)
        if abs(want - self.der_pct) > 1e-9:
            raise ValueError("der_pct does not match its components")
        if len(set(self.mapping.values())) != len(self.mapping):
            raise ValueError("speaker mapping must be injective")


@dataclass(frozen=True)
class CountEstimate:
    session: str
    true_k: int
    est_k: int

    def __post_init__(self):
        if self.true_k < 1 or self.est_k < 1:
            raise ValueError("speaker counts must be >= 1")


# ---------------------------------------------------------------------------
# RTTM
# ---------------------------------------------------------------------------

def parse_rttm(text: str) -> Dict[str, Timeline]:
    """Collect SPEAKER lines into per-session timelines.

    Lines of any other type pass through unread. Turns are sorted by
    onset per session; same-speaker overlap is rejected by Timeline.
    """
    turns: Dict[str, List[Tuple[float, float, str]]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts or parts[0] != "SPEAKER":
            continue
        if len(parts) < 8:
            raise RttmParseError(
                f"RTTM line {lineno}: expected >= 8 fields, got "
                f"{len(parts)}")
        try:
            onset, dur = float(parts[3]), float(parts[4])
        except ValueError:
            raise RttmParseError(
                f"RTTM line {lineno}: unparsable onset/duration") from None
        if onset < 0 or dur <= 0:
            raise RttmParseError(
                f"RTTM line {lineno}: bad interval onset={onset} dur={dur}")
        turns.setdefault(parts[1], []).append((onset, dur, parts[7]))
    return {sess: Timeline(tuple(sorted(tt, key=lambda t: (t[0], t[2]))))
            for sess, tt in turns.items()}


# ---------------------------------------------------------------------------
# DER
# ---------------------------------------------------------------------------

def turn_ticks(timeline: Timeline
               ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, List[str]]:
    """Turn onsets and ends in integer ticks, each turn's label code, and
    the sorted labels the codes index."""
    onset = np.array([o for o, _, _ in timeline.turns], dtype=np.float64)
    dur = np.array([d for _, d, _ in timeline.turns], dtype=np.float64)
    labels = sorted({lab for _, _, lab in timeline.turns})
    idx = {lab: i for i, lab in enumerate(labels)}
    codes = np.array([idx[lab] for _, _, lab in timeline.turns],
                     dtype=np.int64)
    # np.rint rounds half to even, as round() does
    return (np.rint(onset * MS).astype(np.int64),
            np.rint((onset + dur) * MS).astype(np.int64), codes, labels)


def _covering(starts: np.ndarray, ends: np.ndarray,
              lo: np.ndarray) -> np.ndarray:
    """How many spans [starts, ends) hold each tick in lo."""
    return (np.searchsorted(np.sort(starts), lo, side="right")
            - np.searchsorted(np.sort(ends), lo, side="right"))


def _activity(starts: np.ndarray, ends: np.ndarray, codes: np.ndarray,
              n_labels: int, lo: np.ndarray) -> np.ndarray:
    """(labels, cells) booleans: label speaks in the cell starting at lo."""
    out = np.empty((n_labels, len(lo)), dtype=bool)
    for j in range(n_labels):
        mine = codes == j
        out[j] = _covering(starts[mine], ends[mine], lo) > 0
    return out


def der(reference: Timeline, hypothesis: Timeline,
        collar: float = 0.25) -> DerReport:
    """NIST md-eval diarization error rate.

    The time axis is cut at every turn boundary and collar edge, so each
    cell lies wholly inside or outside every turn and every collar. Cells
    within +-collar of a reference boundary are not scored. In a scored
    cell of length d with N_ref reference and N_hyp hypothesis speakers:
    missed time is max(0, N_ref - N_hyp) * d, false alarm
    max(0, N_hyp - N_ref) * d, and confusion min(N_ref, N_hyp) * d less
    the correct time, which the one-to-one speaker mapping maximizing
    correctly attributed time (optimal assignment on the ref x hyp
    overlap matrix) earns for each mapped pair both active. Scored time
    sums N_ref * d, so under overlapping reference speech it exceeds the
    wall time scored.
    """
    if collar < 0:
        raise ValueError("collar must be nonnegative")
    ref_s, ref_e, ref_c, ref_labels = turn_ticks(reference)
    hyp_s, hyp_e, hyp_c, hyp_labels = turn_ticks(hypothesis)
    collar_t = round(collar * MS)

    edges = np.concatenate([ref_s, ref_e])
    grid = np.unique(np.concatenate(
        [edges, edges - collar_t, edges + collar_t, hyp_s, hyp_e]))
    lo, d = grid[:-1], np.diff(grid)
    # a cell is inside the collar of edge b iff b - collar <= lo < b + collar
    keep = _covering(edges - collar_t, edges + collar_t, lo) == 0
    lo, d = lo[keep], d[keep]
    ref_on = _activity(ref_s, ref_e, ref_c, len(ref_labels), lo)
    hyp_on = _activity(hyp_s, hyp_e, hyp_c, len(hyp_labels), lo)
    n_ref, n_hyp = ref_on.sum(axis=0), hyp_on.sum(axis=0)

    scored = int(n_ref @ d)
    if scored == 0:
        raise DerUndefinedError("no scored reference speech")
    missed = int(np.maximum(n_ref - n_hyp, 0) @ d)
    fa = int(np.maximum(n_hyp - n_ref, 0) @ d)
    both = int(np.minimum(n_ref, n_hyp) @ d)
    overlap = (ref_on * d.astype(np.float64)) @ hyp_on.T.astype(np.float64)

    correct = 0.0
    mapping: Dict[str, str] = {}
    if overlap.size:
        rows, cols = linear_sum_assignment(-overlap)
        for i, j in zip(rows, cols):
            if overlap[i, j] > 0:
                mapping[ref_labels[i]] = hyp_labels[j]
                correct += overlap[i, j]
    confusion = both - correct
    return DerReport(
        scored_s=scored / MS,
        missed_s=missed / MS,
        false_alarm_s=fa / MS,
        confusion_s=confusion / MS,
        der_pct=(missed + fa + confusion) / scored * 100.0,
        mapping=mapping,
    )


# ---------------------------------------------------------------------------
# count summaries and purity
# ---------------------------------------------------------------------------

def mapd_poc(estimates: Sequence[CountEstimate]) -> Tuple[float, float]:
    """Mean absolute percentage deviation of the speaker count, and the
    percentage of sessions whose count is exact."""
    if not estimates:
        raise ValueError("need at least one count estimate")
    devs = [abs(e.est_k - e.true_k) / e.true_k for e in estimates]
    hits = [e.est_k == e.true_k for e in estimates]
    return (100.0 * float(np.mean(devs)), 100.0 * float(np.mean(hits)))


def _codes(labels: Sequence) -> Tuple[np.ndarray, np.ndarray]:
    """np.unique(labels, return_inverse=True): the sorted distinct labels
    and each label's index among them. Integer labels spanning fewer
    values than there are labels take one bincount pass, not a sort."""
    arr = np.asarray(labels).ravel()
    if arr.dtype.kind in "iu" and arr.size:
        low = arr.min()
        if int(arr.max()) - int(low) < arr.size:
            shifted = (arr - low).astype(np.intp)
            seen = np.bincount(shifted) > 0
            return (low + np.flatnonzero(seen).astype(arr.dtype),
                    (np.cumsum(seen) - 1)[shifted])
    distinct, inverse = np.unique(arr, return_inverse=True)
    return distinct, inverse.ravel()


def cluster_purity(true_labels: Sequence, hyp_labels: Sequence) -> float:
    """Fraction of segments whose cluster's majority true label matches."""
    if len(true_labels) != len(hyp_labels):
        raise ShapeError(f"{len(true_labels)} true labels vs "
                         f"{len(hyp_labels)} hypothesis labels")
    if not len(true_labels):
        raise ValueError("cannot score an empty segmentation")
    true_set, true_idx = _codes(true_labels)
    hyp_set, hyp_idx = _codes(hyp_labels)
    pairs, pair_idx = _codes(hyp_idx * len(true_set) + true_idx)
    majority = np.zeros(len(hyp_set), dtype=np.int64)
    np.maximum.at(majority, pairs // len(true_set), np.bincount(pair_idx))
    return int(majority.sum()) / len(true_idx)


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

REPORT_FIELDS = ("session", "scored_s", "missed_s", "false_alarm_s",
                 "confusion_s", "der_pct")


def report_csv(rows: Sequence[Tuple[str, DerReport]]) -> str:
    """Per-session scoring CSV with a corpus summary row.

    The summary DER is recomputed from corpus-total seconds, not averaged
    over sessions.
    """
    lines = [",".join(REPORT_FIELDS) + "\n"]
    tot = {"scored": 0.0, "missed": 0.0, "fa": 0.0, "conf": 0.0}
    for session, rep in rows:
        lines.append(
            f"{session},{rep.scored_s:.3f},{rep.missed_s:.3f},"
            f"{rep.false_alarm_s:.3f},{rep.confusion_s:.3f},"
            f"{rep.der_pct:.3f}\n")
        tot["scored"] += rep.scored_s
        tot["missed"] += rep.missed_s
        tot["fa"] += rep.false_alarm_s
        tot["conf"] += rep.confusion_s
    if tot["scored"] > 0:
        der_all = ((tot["missed"] + tot["fa"] + tot["conf"])
                   / tot["scored"] * 100.0)
    else:
        der_all = 0.0
    lines.append(
        f"ALL,{tot['scored']:.3f},{tot['missed']:.3f},{tot['fa']:.3f},"
        f"{tot['conf']:.3f},{der_all:.3f}\n")
    return "".join(lines)
