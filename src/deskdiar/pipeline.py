"""Session-level orchestration.

Turns oracle speech intervals into overlapping fixed-length segments,
encodes each segment, optionally fuses embedding streams, clusters, and
converts overlapping segment labels back into a flat speaker timeline.
Also owns the plumbing formats: SAD text, RTTM turns, and binary `.dkem`
embedding matrices.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .autodiff import ShapeError
from .clustering import (
    DEFAULT_K_MAX,
    DEFAULT_RESTARTS,
    ClusterAssignment,
    NmeResult,
    default_p_range,
    kmeans,
    # the exhaustive scan stays reachable as pipeline.nme_select, where
    # perfbench/test_tracing.py looks for it
    nme_select,  # noqa: F401
    spectral_cluster,
)
from .models import EncodeMode, MlpCheckpoint, encode

WIN_S = 1.5
HOP_S = 0.5
MIN_SEGMENT_S = 0.25
NORM_EPS = 1e-12
TIME_TOL = 1e-9

EMBED_SOURCES = ("xvector-raw", "clustergan", "mcgan", "fused")
BACKENDS = ("kmeans", "sc-fixed-p", "nme-sc")

EMB_MAGIC = b"DKEM"


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SadIntervals:
    """Oracle speech regions for one session, sorted and non-overlapping."""

    session: str
    intervals: Tuple[Tuple[float, float], ...]

    def __post_init__(self):
        ivs = tuple((float(a), float(b)) for a, b in self.intervals)
        prev_end = -np.inf
        for onset, offset in ivs:
            if not onset < offset:
                raise ValueError(
                    f"interval ({onset}, {offset}) has no duration")
            if onset < prev_end - TIME_TOL:
                raise ValueError("intervals must be sorted and disjoint")
            prev_end = offset
        object.__setattr__(self, "intervals", ivs)

    @property
    def total_speech(self) -> float:
        return sum(b - a for a, b in self.intervals)


@dataclass(frozen=True)
class Segment:
    onset: float
    duration: float
    row: int

    def __post_init__(self):
        if not self.duration > 0:
            raise ValueError("segment duration must be positive")

    @property
    def offset(self) -> float:
        return self.onset + self.duration


@dataclass(frozen=True)
class Timeline:
    """Flat speaker turns: (onset s, duration s, label)."""

    turns: Tuple[Tuple[float, float, str], ...]

    def __post_init__(self):
        turns = tuple((float(o), float(d), str(lab))
                      for o, d, lab in self.turns)
        last_onset = -np.inf
        ends: Dict[str, float] = {}
        for onset, dur, lab in turns:
            if not dur > 0:
                raise ValueError(f"turn at {onset} has nonpositive duration")
            if onset < last_onset - TIME_TOL:
                raise ValueError("turns must be sorted by onset")
            last_onset = onset
            if onset < ends.get(lab, -np.inf) - TIME_TOL:
                raise ValueError(f"speaker {lab!r} overlaps itself")
            ends[lab] = max(ends.get(lab, -np.inf), onset + dur)
        object.__setattr__(self, "turns", turns)

    @property
    def speakers(self) -> Tuple[str, ...]:
        return tuple(sorted({lab for _, _, lab in self.turns}))

    @property
    def total_speech(self) -> float:
        return sum(d for _, d, _ in self.turns)


# ---------------------------------------------------------------------------
# segmentation
# ---------------------------------------------------------------------------

def uniform_segments(sad: SadIntervals, win: float = WIN_S,
                     hop: float = HOP_S) -> List[Segment]:
    """Slide a win-length window by hop inside each speech interval.

    Intervals no longer than win give a single whole-interval segment;
    otherwise full windows are placed at onset, onset+hop, ... and the
    leftover tail becomes a truncated segment, merged into the previous
    one when shorter than MIN_SEGMENT_S.
    """
    if not win > 0 or not 0 < hop <= win:
        raise ValueError("need win > 0 and 0 < hop <= win")
    spans: List[Tuple[float, float]] = []
    for onset, offset in sad.intervals:
        if offset - onset <= win + TIME_TOL:
            spans.append((onset, offset - onset))
            continue
        n_full = 0
        while onset + n_full * hop + win <= offset + TIME_TOL:
            spans.append((onset + n_full * hop, win))
            n_full += 1
        tail_onset = onset + n_full * hop
        if tail_onset < offset - TIME_TOL:
            tail = offset - tail_onset
            if tail < MIN_SEGMENT_S:
                prev_onset, _ = spans[-1]
                spans[-1] = (prev_onset, offset - prev_onset)
            else:
                spans.append((tail_onset, tail))
    return [Segment(onset=o, duration=d, row=i)
            for i, (o, d) in enumerate(spans)]


# ---------------------------------------------------------------------------
# fusion
# ---------------------------------------------------------------------------

def _unit_rows(x: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    return x / np.maximum(norms, NORM_EPS)


def fuse(e1: np.ndarray, e2: np.ndarray) -> np.ndarray:
    """Length-normalize each stream row-wise, then concatenate.

    Makes the fused cosine similarity the arithmetic mean of the two
    per-stream cosines, so fusing a stream with itself changes nothing.
    """
    e1 = np.asarray(e1, dtype=np.float64)
    e2 = np.asarray(e2, dtype=np.float64)
    if e1.ndim != 2 or e2.ndim != 2:
        raise ShapeError("fuse expects two (n, d) matrices")
    if e1.shape[0] != e2.shape[0]:
        raise ShapeError(
            f"row counts differ: {e1.shape[0]} vs {e2.shape[0]}")
    return np.hstack([_unit_rows(e1), _unit_rows(e2)])


# ---------------------------------------------------------------------------
# labels -> timeline
# ---------------------------------------------------------------------------

def labels_to_timeline(segments: Sequence[Segment],
                       labels: Sequence) -> Timeline:
    """Resolve overlapping segment labels into flat turns.

    Adjacent segments with the same label merge; with different labels the
    boundary lands at the midpoint of their overlap. Non-overlapping
    segments pass through unchanged, so the output covers exactly the
    union of segment extents.
    """
    if len(segments) != len(labels):
        raise ShapeError(f"{len(segments)} segments but {len(labels)} labels")
    turns: List[Tuple[float, float, str]] = []
    cur: Optional[Tuple[float, float, str]] = None
    prev_onset = -np.inf
    for seg, lab in zip(segments, labels):
        lab = str(lab)
        onset, end = seg.onset, seg.offset
        if onset < prev_onset - TIME_TOL:
            raise ValueError("segments must be sorted by onset")
        prev_onset = onset
        if cur is None:
            cur = (onset, end, lab)
            continue
        c_on, c_end, c_lab = cur
        if lab == c_lab and onset <= c_end + TIME_TOL:
            cur = (c_on, max(c_end, end), lab)
        elif onset < c_end - TIME_TOL:
            mid = 0.5 * (onset + c_end)
            if end <= mid + TIME_TOL:
                raise ValueError("segment nested inside the previous turn")
            turns.append((c_on, mid - c_on, c_lab))
            cur = (mid, end, lab)
        else:
            turns.append((c_on, c_end - c_on, c_lab))
            cur = (onset, end, lab)
    if cur is not None:
        turns.append((cur[0], cur[1] - cur[0], cur[2]))
    return Timeline(tuple(turns))


# ---------------------------------------------------------------------------
# interchange formats
# ---------------------------------------------------------------------------

def to_rttm(timeline: Timeline, session: str) -> str:
    return "".join(
        f"SPEAKER {session} 1 {onset:.3f} {dur:.3f} <NA> <NA> {lab} <NA> "
        f"<NA>\n"
        for onset, dur, lab in timeline.turns)


def format_sad(sads: Sequence[SadIntervals]) -> str:
    return "".join(f"{s.session} {onset:.3f} {offset:.3f}\n"
                   for s in sads for onset, offset in s.intervals)


def parse_sad(text: str) -> List[SadIntervals]:
    by_session: Dict[str, List[Tuple[float, float]]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(
                f"SAD line {lineno}: expected 3 fields, got {len(parts)}")
        try:
            onset, offset = float(parts[1]), float(parts[2])
        except ValueError:
            raise ValueError(f"SAD line {lineno}: unparsable time") from None
        by_session.setdefault(parts[0], []).append((onset, offset))
    return [SadIntervals(session=sess, intervals=tuple(ivs))
            for sess, ivs in by_session.items()]


def save_embeddings(x: np.ndarray, path: Union[str, Path]) -> None:
    """Write a `.dkem` file: b'DKEM', uint32 n and d, float32 rows."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeError("expected an (n, d) matrix")
    n, d = x.shape
    blob = EMB_MAGIC + struct.pack("<II", n, d)
    Path(path).write_bytes(blob + x.astype("<f4").tobytes())


def load_embeddings(path: Union[str, Path]) -> np.ndarray:
    blob = Path(path).read_bytes()
    if blob[:4] != EMB_MAGIC:
        raise ValueError(f"{path} is not a DKEM embedding file")
    if len(blob) < 12:
        raise ValueError("truncated embedding file header")
    n, d = struct.unpack("<II", blob[4:12])
    expected = 12 + 4 * n * d
    if len(blob) != expected:
        raise ValueError(
            f"embedding payload is {len(blob)} bytes, expected {expected}")
    data = np.frombuffer(blob, dtype="<f4", offset=12)
    return data.astype(np.float64).reshape(n, d)


# ---------------------------------------------------------------------------
# full per-session run
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiarizeConfig:
    """Per-session diarization choices.

    embedding picks the segment representation; backend picks the
    clusterer. known_k overrides count estimation (required for the
    kmeans and sc-fixed-p back-ends); nme-sc with known_k still picks p
    by the NME scan. p fixes the binarization count and applies only to
    sc-fixed-p (default: the top of the default p range); nme-sc ignores
    it.
    """

    embedding: str = "xvector-raw"
    backend: str = "nme-sc"
    known_k: Optional[int] = None
    p: Optional[int] = None
    k_max: int = DEFAULT_K_MAX
    restarts: int = DEFAULT_RESTARTS
    seed: int = 0
    win: float = WIN_S
    hop: float = HOP_S

    def __post_init__(self):
        if self.embedding not in EMBED_SOURCES:
            raise ValueError(f"unknown embedding source {self.embedding!r}")
        if self.backend not in BACKENDS:
            raise ValueError(f"unknown backend {self.backend!r}")
        if self.known_k is not None and self.known_k < 1:
            raise ValueError("known_k must be >= 1")


def _segment_embeddings(x_raw: np.ndarray, cfg: DiarizeConfig,
                        encoder: Optional[MlpCheckpoint]) -> np.ndarray:
    if cfg.embedding == "xvector-raw":
        return x_raw
    if encoder is None:
        raise ValueError(
            f"embedding source {cfg.embedding!r} needs an encoder "
            f"checkpoint")
    if cfg.embedding == "clustergan":
        return encode(encoder, x_raw, EncodeMode.CLUSTERGAN_CONCAT)
    if cfg.embedding == "mcgan":
        return encode(encoder, x_raw, EncodeMode.MCGAN_LOGITS)
    return fuse(x_raw, encode(encoder, x_raw, EncodeMode.MCGAN_LOGITS))


def run_diarization(
    sad: SadIntervals,
    x_raw: np.ndarray,
    cfg: DiarizeConfig,
    encoder: Optional[MlpCheckpoint] = None,
) -> Tuple[Timeline, int, Dict]:
    """Segment, embed, cluster, and flatten one session.

    x_raw holds one raw embedding row per uniform segment of the SAD.
    Returns the hypothesis timeline, the cluster count used, and a
    diagnostics dict carrying the NME result and k-means inertia.

    Both spectral back-ends are one `spectral_cluster` call. nme-sc
    passes the default p range, so the bounded NME scan picks p (and k,
    unless known_k is set): the same (p_hat, k_hat) as the exhaustive
    `nme_select`, from the ascending scan stopped once no later p can win.
    The NME result's trace holds the p values scanned, and `p_scanned`
    counts them (0 when nothing was scanned).
    """
    try:
        segments = uniform_segments(sad, cfg.win, cfg.hop)
        x_raw = np.asarray(x_raw, dtype=np.float64)
        if x_raw.ndim != 2 or x_raw.shape[0] != len(segments):
            raise ShapeError(
                f"SAD yields {len(segments)} segments but embeddings have "
                f"shape {x_raw.shape}")
        x = _segment_embeddings(x_raw, cfg, encoder)
        n = x.shape[0]
        # a session of n segments holds at most n speakers
        k_max = min(cfg.k_max, n)
        nme: Optional[NmeResult] = None
        p_used: Optional[int] = None
        if n == 1:
            if cfg.known_k not in (None, 1):
                raise ValueError("single-segment session cannot hold "
                                 f"{cfg.known_k} speakers")
            asg = ClusterAssignment(np.zeros(1, dtype=np.int64), 1, 0.0)
        elif cfg.known_k is None and cfg.backend != "nme-sc":
            raise ValueError(f"{cfg.backend} backend needs known_k")
        elif cfg.backend == "kmeans":
            asg = kmeans(_unit_rows(x), cfg.known_k,
                         restarts=cfg.restarts, seed=cfg.seed)
        else:
            p = cfg.p if cfg.p is not None else default_p_range(n)[-1]
            p_range = default_p_range(n) if cfg.backend == "nme-sc" else None
            asg, nme = spectral_cluster(x, cfg.known_k, p, p_range, k_max,
                                        cfg.restarts, cfg.seed)
            p_used = p if nme is None else nme.p_hat
        labels, k_used, inertia = asg.labels, asg.k, asg.inertia
        timeline = labels_to_timeline(
            segments, [f"spk{c:02d}" for c in labels])
        diagnostics = {
            "session": sad.session,
            "n_segments": len(segments),
            "k_hat": k_used,
            "p_used": p_used,
            "p_scanned": 0 if nme is None else len(nme.trace),
            "inertia": inertia,
            "nme": nme,
        }
        return timeline, k_used, diagnostics
    except Exception as exc:
        if exc.args and isinstance(exc.args[0], str):
            exc.args = (f"session {sad.session}: {exc.args[0]}",) \
                + exc.args[1:]
        raise
