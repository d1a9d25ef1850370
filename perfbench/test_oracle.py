"""Tests of the benchmark's oracles and input generator.

    python3 -m pytest perfbench/test_oracle.py
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
for path in (HERE, HERE.parent / "src", HERE.parent / "tests"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import inputs  # noqa: E402
import oracle  # noqa: E402
from deskdiar.clustering import cosine_affinity, nme_select  # noqa: E402
from deskdiar.pipeline import SadIntervals, uniform_segments  # noqa: E402
from oracles import brute_force_der  # noqa: E402


def ms(turns):
    return [(round(o * 1000), round((o + d) * 1000), lab)
            for o, d, lab in turns]


def random_turns(rng, max_spk=5, max_turns=8):
    labs = [f"s{i}" for i in range(rng.integers(1, max_spk + 1))]
    t = rng.integers(0, 50) / 100.0
    turns = []
    for _ in range(rng.integers(1, max_turns + 1)):
        t = round(t + rng.integers(0, 30) / 100.0, 3)
        dur = rng.integers(5, 200) / 100.0
        turns.append((t, dur, labs[rng.integers(len(labs))]))
        t = round(t + dur, 3)
    return turns


@pytest.mark.parametrize("collar", [0.0, 0.25])
def test_der_matches_brute_force_without_overlap(collar):
    rng = np.random.default_rng(7)
    for _ in range(60):
        ref, hyp = random_turns(rng), random_turns(rng)
        try:
            want = brute_force_der(ref, hyp, collar)
        except ZeroDivisionError:   # collars cover every reference tick
            continue
        got = oracle.der_ticks(ms(ref), ms(hyp), round(collar * 1000))
        for key in ("scored", "missed", "false_alarm", "confusion"):
            assert got[key] == round(want[key] * 1000), key
        assert got["der_pct"] == pytest.approx(want["der"], rel=1e-12)


S = 1000  # ms per second


@pytest.mark.parametrize("ref, hyp, collar, want", [
    # two reference speakers at once, both found
    ([(0, 10 * S, "A"), (5 * S, 15 * S, "B")],
     [(0, 10 * S, "x"), (5 * S, 15 * S, "y")], 0,
     dict(scored=20 * S, missed=0, false_alarm=0, confusion=0)),
    # one hypothesis speaker under the overlap: the second is missed
    ([(0, 10 * S, "A"), (5 * S, 10 * S, "B")],
     [(0, 10 * S, "x")], 0,
     dict(scored=15 * S, missed=5 * S, false_alarm=0, confusion=0)),
    # the mapping may use each hypothesis speaker for one reference only
    ([(0, 4 * S, "A"), (2 * S, 6 * S, "B")],
     [(0, 6 * S, "x")], 0,
     dict(scored=8 * S, missed=2 * S, false_alarm=0, confusion=2 * S)),
    # a second hypothesis speaker over single speech is a false alarm
    ([(0, 10 * S, "A")],
     [(0, 10 * S, "x"), (2 * S, 4 * S, "y")], 0,
     dict(scored=10 * S, missed=0, false_alarm=2 * S, confusion=0)),
    # overlap split across two hypothesis speakers, swapped halves
    ([(0, 10 * S, "A"), (5 * S, 10 * S, "B")],
     [(0, 5 * S, "x"), (5 * S, 10 * S, "y")], 0,
     dict(scored=15 * S, missed=5 * S, false_alarm=0, confusion=0)),
    # collars at every reference edge, the overlapping speaker's included
    ([(0, 10 * S, "A"), (4 * S, 6 * S, "B")],
     [(0, 10 * S, "x")], 250,
     dict(scored=8500 + 1500, missed=1500, false_alarm=0, confusion=0)),
])
def test_der_overlap_follows_md_eval(ref, hyp, collar, want):
    got = oracle.der_ticks(ref, hyp, collar)
    assert {k: got[k] for k in want} == want


def test_purity_counts_frame_midpoints():
    ref = [(0, 1000, "A"), (1000, 2000, "B")]
    # x holds 100 A frames and 50 B frames; the uncovered 50 B frames
    # form their own cluster
    assert oracle.purity_frames(ref, [(0, 1500, "x")]) == 0.75
    # a turn shorter than half a frame owns no frame midpoint
    assert oracle.purity_frames(ref, [(0, 4, "y"), (4, 2000, "x")]) == 0.5


def test_rttm_holds_the_generated_turns():
    # the oracles score the generated turns; deskdiar reads the RTTM
    sess = inputs.score_session([3, 1], "s", 0.05, overlap=True)
    parsed = []
    for line in inputs.rttm("s", sess.reference).splitlines():
        f = line.split()
        lo = round(float(f[3]) * 1000)
        parsed.append((lo, lo + round(float(f[4]) * 1000), f[7]))
    assert tuple(parsed) == sess.reference


def test_nme_reference_matches_nme_select_on_planted_sessions():
    for i in range(6):
        sess = inputs.diar_session([5, i], "s", 2 + i % 4, 30.0 + 5 * i,
                                   n_pauses=3)
        a = cosine_affinity(sess.x)
        got = nme_select(a)
        ref = oracle.nme_reference(a)
        assert ref["n_p"] == len(got.trace)
        assert (got.p_hat, got.k_hat) == (ref["p_hat"], ref["k_hat"])
        assert ref["r"] == pytest.approx(
            min(t["r"] for t in got.trace), rel=1e-9)


def test_generator_segments_like_the_pipeline():
    rng = np.random.default_rng(2)
    for _ in range(200):
        edges = np.cumsum(rng.integers(1, 4000, size=8))
        sad = [(int(a), int(b)) for a, b in zip(edges[::2], edges[1::2])]
        want = uniform_segments(SadIntervals(
            "s", tuple((a / 1000, b / 1000) for a, b in sad)))
        got = inputs.segments(sad)
        assert [(round(s.onset * 1000), round(s.offset * 1000))
                for s in want] == got


def test_inputs_depend_only_on_the_seed():
    a, b = inputs.short_session(4, 1), inputs.short_session(4, 1)
    assert np.array_equal(a.x, b.x) and a.reference == b.reference
    assert not np.array_equal(a.x[:5], inputs.short_session(5, 1).x[:5])
