"""The benchmark's own seeded input generators.

Every input is a pure function of its seed. Times are integer
milliseconds. Sessions are planted: unit-norm speaker means on the sphere,
one embedding row per uniform segment drawn around the mean of the speaker
who owns the segment's midpoint, as in an x-vector front end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

Turn = Tuple[int, int, str]

DIM = 32
EMB_STD = 0.08
# the shipped segmentation: 1.5 s windows every 0.5 s, tails under 0.25 s
# merged into the previous window
WIN_MS, HOP_MS, MIN_TAIL_MS = 1500, 500, 250


@dataclass(frozen=True)
class DiarSession:
    name: str
    sad: Tuple[Tuple[float, float], ...]   # seconds
    x: np.ndarray                           # one row per segment
    reference: Tuple[Turn, ...]
    k: int


@dataclass(frozen=True)
class ScoreSession:
    name: str
    reference: Tuple[Turn, ...]
    hypothesis: Tuple[Turn, ...]
    overlap: bool

    @property
    def speech_s(self) -> float:
        return sum(b - a for a, b, _ in self.reference) / 1000.0


def _means(rng: np.random.Generator, k: int) -> np.ndarray:
    m = rng.standard_normal((k, DIM))
    return m / np.linalg.norm(m, axis=1, keepdims=True)


def _conversation(rng: np.random.Generator, k: int, speech_ms: int,
                  n_pauses: int) -> List[Tuple[int, int, int]]:
    """(onset, end, speaker) turns holding exactly speech_ms of speech.

    Turns are 1.5 s + Exp(2 s) long (the last one takes what is left, at
    least 1.5 s); each speaker is seated within the first k turns and no
    speaker talks twice in a row. n_pauses of the gaps between turns, drawn
    at random, get a pause of 0.3 s + Exp(0.7 s). Fixing the speech and the
    pause count keeps the segment count, and with it the cost of a
    session, nearly the same across seeds.
    """
    order = rng.permutation(k)
    plan: List[Tuple[int, int]] = []   # (speaker, duration)
    spoken = 0
    while spoken < speech_ms:
        if len(plan) < k:
            spk = int(order[len(plan)])
        else:
            spk = int(rng.integers(k - 1))
            spk += spk >= plan[-1][0]
        dur = 1500 + int(rng.exponential(2000))
        if speech_ms - spoken - dur < 1500:
            dur = speech_ms - spoken
        plan.append((spk, dur))
        spoken += dur
    pauses = set(rng.choice(len(plan) - 1, size=min(n_pauses, len(plan) - 1),
                            replace=False).tolist())
    turns: List[Tuple[int, int, int]] = []
    t = 0
    for i, (spk, dur) in enumerate(plan):
        turns.append((t, t + dur, spk))
        t += dur
        if i in pauses:
            t += 300 + int(rng.exponential(700))
    return turns


def segments(sad: Sequence[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """(onset, end) of each uniform segment of the speech intervals."""
    out: List[Tuple[int, int]] = []
    for a, b in sad:
        if b - a <= WIN_MS:
            out.append((a, b))
            continue
        s = a
        while s + WIN_MS <= b:
            out.append((s, s + WIN_MS))
            s += HOP_MS
        if s < b:
            if b - s < MIN_TAIL_MS:
                out[-1] = (out[-1][0], b)
            else:
                out.append((s, b))
    return out


def diar_session(seed: Sequence[int], name: str, k: int, speech_s: float,
                 n_pauses: int) -> DiarSession:
    rng = np.random.default_rng(list(seed))
    means = _means(rng, k)
    plan = _conversation(rng, k, round(speech_s * 1000), n_pauses)
    sad: List[Tuple[int, int]] = []
    for a, b, _ in plan:
        if sad and sad[-1][1] == a:
            sad[-1] = (sad[-1][0], b)
        else:
            sad.append((a, b))
    segs = segments(sad)
    starts = np.array([a for a, _, _ in plan])
    mids = np.array([(a + b) / 2.0 for a, b in segs])
    owner = np.array([s for _, _, s in plan])[
        np.searchsorted(starts, mids, side="right") - 1]
    x = means[owner] + EMB_STD * rng.standard_normal((len(segs), DIM))
    ref = tuple((a, b, f"spk{s}") for a, b, s in plan)
    return DiarSession(name=name,
                       sad=tuple((a / 1000.0, b / 1000.0) for a, b in sad),
                       x=x, reference=ref, k=k)


def short_session(seed: int, index: int) -> DiarSession:
    """Telephone-like: about 2 minutes of speech, 2-7 speakers."""
    rng = np.random.default_rng([seed, 1, index])
    return diar_session([seed, 11, index], f"short{index:03d}",
                        int(rng.integers(2, 8)), 120.0, n_pauses=7)


def long_session(seed: int, index: int) -> DiarSession:
    """Meeting-like: about 5 minutes of speech, 4-8 speakers."""
    rng = np.random.default_rng([seed, 2, index])
    return diar_session([seed, 12, index], f"long{index:03d}",
                        int(rng.integers(4, 9)), 300.0, n_pauses=10)


def _flatten(turns: List[Turn]) -> Tuple[Turn, ...]:
    """Sort, drop empty turns and merge touching same-speaker turns."""
    out: List[Turn] = []
    for a, b, lab in sorted(t for t in turns if t[1] > t[0]):
        if out and out[-1][2] == lab and out[-1][1] == a:
            out[-1] = (out[-1][0], b, lab)
        else:
            out.append((a, b, lab))
    return tuple(out)


def planted_hypothesis(rng: np.random.Generator,
                       ref: Sequence[Tuple[int, int, int]], k: int
                       ) -> Tuple[Turn, ...]:
    """A flat hypothesis built from a flat reference with planted errors.

    Speakers are relabelled through a random permutation onto k + 1
    hypothesis names; shared turn boundaries move by up to 400 ms; 8% of
    turns go to another hypothesis speaker (the extra name included); 5%
    lose a middle span; 30% of pauses of 1 s or more get a false-alarm
    span.
    """
    names = [f"h{i:02d}" for i in rng.permutation(k + 1)]
    turns = [[a, b, names[s]] for a, b, s in ref]
    for prev, cur in zip(turns, turns[1:]):
        if prev[1] == cur[0]:
            lo, hi = prev[0] + 200, cur[1] - 200
            edge = min(max(cur[0] + int(rng.integers(-400, 401)), lo), hi)
            prev[1] = cur[0] = edge
    out: List[Turn] = []
    for a, b, lab in turns:
        if rng.random() < 0.08:
            lab = names[int(rng.integers(k + 1))]
        if rng.random() < 0.05 and b - a > 1000:
            cut_a = a + (b - a) // 4
            cut_b = b - (b - a) // 4
            out += [(a, cut_a, lab), (cut_b, b, lab)]
        else:
            out.append((a, b, lab))
    for (_, end, _), (start, _, _) in zip(ref, ref[1:]):
        if start - end >= 1000 and rng.random() < 0.3:
            out.append((end + 200, start - 200,
                        names[int(rng.integers(k + 1))]))
    return _flatten(out)


def score_session(seed: Sequence[int], name: str, hours: float,
                  overlap: bool) -> ScoreSession:
    """An hour-scale session, 4-10 speakers, with a planted hypothesis.

    With overlap, 5% of turns of 2 s or more get a 0.5-1.5 s backchannel
    by another speaker inside them, so the reference has two speakers at
    once there; the hypothesis stays single-speaker.
    """
    rng = np.random.default_rng(list(seed))
    k = int(rng.integers(4, 11))
    plan = _conversation(rng, k, round(hours * 3_600_000),
                         n_pauses=round(300 * hours))
    hyp = planted_hypothesis(rng, plan, k)
    ref = [(a, b, f"spk{s}") for a, b, s in plan]
    if overlap:
        for a, b, s in plan:
            if b - a >= 2000 and rng.random() < 0.05:
                other = int(rng.integers(k - 1))
                other += other >= s
                dur = int(rng.integers(500, 1501))
                on = a + int(rng.integers(0, b - a - dur))
                ref.append((on, on + dur, f"spk{other}"))
    return ScoreSession(name=name, reference=_flatten(ref), hypothesis=hyp,
                        overlap=overlap)


def rttm(session: str, turns: Sequence[Turn]) -> str:
    return "".join(
        f"SPEAKER {session} 1 {a / 1000:.3f} {(b - a) / 1000:.3f} <NA> <NA> "
        f"{lab} <NA> <NA>\n" for a, b, lab in turns)


def heldout_episodes(seed: int, n_episodes: int = 20, n_c: int = 10,
                     n_s: int = 10, n_q: int = 10
                     ) -> List[Tuple[np.ndarray, np.ndarray]]:
    """(support, query) arrays of shape (n_c, n, DIM) drawn around 20
    unseen speaker means, for the held-out prototypical loss."""
    rng = np.random.default_rng([seed, 31])
    means = _means(rng, 20)
    episodes = []
    for _ in range(n_episodes):
        spk = rng.choice(20, size=n_c, replace=False)
        sup = means[spk][:, None, :] + EMB_STD * rng.standard_normal(
            (n_c, n_s, DIM))
        qry = means[spk][:, None, :] + EMB_STD * rng.standard_normal(
            (n_c, n_q, DIM))
        episodes.append((sup, qry))
    return episodes
