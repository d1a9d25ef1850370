"""Scoring tests: RTTM parsing, DER accounting (overlap included) against
the brute-force permutation oracle, count summaries, purity, and the
report CSV."""

import numpy as np
import pytest

from deskdiar.autodiff import ShapeError
from deskdiar.metrics import (
    CALLHOME_MCGAN_MAPD_PCT,
    CALLHOME_MCGAN_POC_PCT,
    CountEstimate,
    DerReport,
    DerUndefinedError,
    RttmParseError,
    cluster_purity,
    der,
    mapd_poc,
    parse_rttm,
    report_csv,
)
from deskdiar.pipeline import Timeline, to_rttm
from oracles import brute_force_der, purity_by_label_loop


def tl(*turns):
    return Timeline(tuple(turns))


def random_timeline(rng, max_spk=6, max_turns=8):
    labs = [f"s{i}" for i in range(rng.integers(1, max_spk + 1))]
    t = rng.integers(0, 50) / 100.0
    turns = []
    for _ in range(rng.integers(1, max_turns + 1)):
        t = round(t + rng.integers(0, 30) / 100.0, 3)
        dur = rng.integers(5, 200) / 100.0
        turns.append((t, dur, labs[rng.integers(len(labs))]))
        t = round(t + dur, 3)
    return tl(*turns)


def overlapping_timeline(rng, max_spk=4, max_turns=4):
    """Each speaker talks in its own turn sequence, so turns of different
    speakers overlap freely."""
    turns = []
    for i in range(rng.integers(1, max_spk + 1)):
        t = rng.integers(0, 300) / 100.0
        for _ in range(rng.integers(1, max_turns + 1)):
            dur = rng.integers(5, 200) / 100.0
            turns.append((t, dur, f"s{i}"))
            t = round(t + dur + rng.integers(0, 150) / 100.0, 3)
    return tl(*sorted(turns))


# ---------------------------------------------------------------------------
# RTTM parsing
# ---------------------------------------------------------------------------

class TestParseRttm:
    def test_round_trip(self):
        ref = tl((0.0, 1.5, "a"), (1.5, 2.25, "b"), (4.0, 0.5, "a"))
        parsed = parse_rttm(to_rttm(ref, "sess7"))
        assert list(parsed) == ["sess7"]
        assert parsed["sess7"] == ref

    def test_non_speaker_lines_ignored(self):
        text = (";; comment\n"
                "SPKR-INFO f1 1 <NA> <NA> <NA> unknown a <NA>\n"
                "SPEAKER f1 1 0.000 1.000 <NA> <NA> a <NA> <NA>\n"
                "\n")
        parsed = parse_rttm(text)
        assert parsed["f1"].turns == ((0.0, 1.0, "a"),)

    def test_sessions_grouped_and_sorted(self):
        text = ("SPEAKER f2 1 5.000 1.000 <NA> <NA> b <NA> <NA>\n"
                "SPEAKER f1 1 0.000 1.000 <NA> <NA> a <NA> <NA>\n"
                "SPEAKER f2 1 1.000 1.000 <NA> <NA> a <NA> <NA>\n")
        parsed = parse_rttm(text)
        assert set(parsed) == {"f1", "f2"}
        assert parsed["f2"].turns == ((1.0, 1.0, "a"), (5.0, 1.0, "b"))

    def test_errors_cite_line(self):
        with pytest.raises(RttmParseError, match="line 2"):
            parse_rttm("SPEAKER f 1 0.0 1.0 <NA> <NA> a <NA> <NA>\n"
                       "SPEAKER f 1 0.0 -1.0 <NA> <NA> a <NA> <NA>\n")
        with pytest.raises(RttmParseError, match="line 1"):
            parse_rttm("SPEAKER f 1 zero 1.0 <NA> <NA> a <NA> <NA>\n")
        with pytest.raises(RttmParseError, match="line 1"):
            parse_rttm("SPEAKER f 1 0.0\n")

    def test_same_speaker_overlap_rejected(self):
        text = ("SPEAKER f 1 0.000 2.000 <NA> <NA> a <NA> <NA>\n"
                "SPEAKER f 1 1.000 2.000 <NA> <NA> a <NA> <NA>\n")
        with pytest.raises(ValueError, match="overlaps itself"):
            parse_rttm(text)


# ---------------------------------------------------------------------------
# DER
# ---------------------------------------------------------------------------

class TestDer:
    def test_identity_zero(self):
        ref = tl((0.0, 10.0, "a"), (10.0, 10.0, "b"))
        rep = der(ref, ref, collar=0.25)
        assert rep.der_pct == 0.0
        assert rep.missed_s == rep.false_alarm_s == rep.confusion_s == 0.0

    def test_single_hypothesis_speaker_half_confused(self):
        ref = tl((0.0, 10.0, "a"), (10.0, 10.0, "b"))
        hyp = tl((0.0, 20.0, "x"))
        rep = der(ref, hyp, collar=0.0)
        assert abs(rep.der_pct - 50.0) < 1e-9
        assert abs(rep.confusion_s - 10.0) < 1e-9
        assert rep.missed_s == rep.false_alarm_s == 0.0
        assert rep.mapping in ({"a": "x"}, {"b": "x"})

    def test_three_speaker_hand_case(self):
        ref = tl((0.0, 5.0, "A"), (5.0, 5.0, "B"), (10.0, 5.0, "C"))
        hyp = tl((0.0, 4.0, "X"), (4.0, 5.0, "Y"), (9.0, 6.0, "Z"))
        rep = der(ref, hyp, collar=0.0)
        assert abs(rep.der_pct - 200.0 / 15.0) < 1e-9
        assert rep.mapping == {"A": "X", "B": "Y", "C": "Z"}
        oracle = brute_force_der(ref.turns, hyp.turns, collar=0.0)
        assert abs(rep.der_pct - oracle["der"]) < 1e-9

    def test_collar_excludes_boundary_slop(self):
        ref = tl((0.0, 10.0, "a"))
        hyp = tl((0.2, 9.8, "x"))
        assert der(ref, hyp, collar=0.25).der_pct == 0.0
        rep = der(ref, hyp, collar=0.0)
        assert abs(rep.missed_s - 0.2) < 1e-9
        assert abs(rep.der_pct - 2.0) < 1e-9

    def test_oracle_coverage_means_no_missed_or_fa(self):
        ref = tl((0.0, 10.0, "a"), (10.0, 10.0, "b"))
        hyp = tl((0.0, 12.0, "spk00"), (12.0, 8.0, "spk01"))
        rep = der(ref, hyp, collar=0.0)
        assert rep.missed_s == 0.0 and rep.false_alarm_s == 0.0
        assert abs(rep.confusion_s - 2.0) < 1e-9

    def test_matches_brute_force_on_random_timelines(self, rng):
        collars = (0.0, 0.1, 0.25)
        checked = 0
        for trial in range(40):
            ref = random_timeline(rng)
            hyp = random_timeline(rng)
            collar = collars[trial % len(collars)]
            try:
                oracle = brute_force_der(ref.turns, hyp.turns, collar)
            except ZeroDivisionError:
                with pytest.raises(DerUndefinedError):
                    der(ref, hyp, collar)
                continue
            rep = der(ref, hyp, collar)
            for mine, theirs in (
                    (rep.scored_s, oracle["scored"]),
                    (rep.missed_s, oracle["missed"]),
                    (rep.false_alarm_s, oracle["false_alarm"]),
                    (rep.confusion_s, oracle["confusion"]),
                    (rep.der_pct, oracle["der"])):
                assert abs(mine - theirs) < 1e-9
            checked += 1
        assert checked >= 30

    def test_relabeling_invariance(self, rng):
        ref = random_timeline(rng, max_spk=4)
        hyp = random_timeline(rng, max_spk=4)
        base = der(ref, hyp, collar=0.1).der_pct
        labs = sorted({lab for _, _, lab in hyp.turns})
        for _ in range(10):
            perm = rng.permutation(len(labs))
            rename = {lab: f"r{perm[i]}" for i, lab in enumerate(labs)}
            relabeled = tl(*((o, d, rename[lab]) for o, d, lab in hyp.turns))
            assert abs(der(ref, relabeled, collar=0.1).der_pct - base) < 1e-12

    def test_scored_time_nonincreasing_in_collar(self, rng):
        ref = random_timeline(rng)
        hyp = random_timeline(rng)
        prev = np.inf
        for collar in (0.0, 0.1, 0.25, 0.5, 1.0):
            try:
                scored = der(ref, hyp, collar).scored_s
            except DerUndefinedError:
                scored = 0.0
            assert scored <= prev + 1e-9
            prev = scored

    def test_everything_excluded_is_undefined(self):
        ref = tl((0.0, 1.0, "a"))
        with pytest.raises(DerUndefinedError):
            der(ref, ref, collar=5.0)

    def test_overlapping_speech_md_eval_hand_case(self):
        # a 0-2 s and b 1-3 s against x 0-3 s: b is missed where both
        # speak, and x maps to one of them, so the other's 2 s split into
        # 1 s missed and 1 s confused
        ref = tl((0.0, 2.0, "a"), (1.0, 2.0, "b"))
        hyp = tl((0.0, 3.0, "x"))
        rep = der(ref, hyp, collar=0.0)
        assert (rep.scored_s, rep.missed_s, rep.false_alarm_s,
                rep.confusion_s) == (4.0, 1.0, 0.0, 1.0)
        assert rep.der_pct == 50.0
        swapped = der(hyp, ref, collar=0.0)
        assert (swapped.scored_s, swapped.missed_s, swapped.false_alarm_s,
                swapped.confusion_s) == (3.0, 0.0, 1.0, 1.0)
        assert abs(swapped.der_pct - 200.0 / 3.0) < 1e-12
        assert report_csv([("s", rep), ("t", swapped)]).splitlines()[1:3] \
            == ["s,4.000,1.000,0.000,1.000,50.000",
                "t,3.000,0.000,1.000,1.000,66.667"]

    def test_matches_brute_force_with_overlap_on_both_sides(self, rng):
        collars = (0.0, 0.1, 0.25)
        checked = 0
        for trial in range(40):
            ref = overlapping_timeline(rng)
            hyp = overlapping_timeline(rng)
            collar = collars[trial % len(collars)]
            try:
                oracle = brute_force_der(ref.turns, hyp.turns, collar)
            except ZeroDivisionError:
                with pytest.raises(DerUndefinedError):
                    der(ref, hyp, collar)
                continue
            rep = der(ref, hyp, collar)
            for mine, theirs in (
                    (rep.scored_s, oracle["scored"]),
                    (rep.missed_s, oracle["missed"]),
                    (rep.false_alarm_s, oracle["false_alarm"]),
                    (rep.confusion_s, oracle["confusion"]),
                    (rep.der_pct, oracle["der"])):
                assert abs(mine - theirs) < 1e-9
            checked += 1
        assert checked >= 30

    def test_negative_collar_rejected(self):
        ref = tl((0.0, 1.0, "a"))
        with pytest.raises(ValueError, match="collar"):
            der(ref, ref, collar=-0.1)

    def test_report_validation(self):
        with pytest.raises(ValueError, match="nonnegative"):
            DerReport(scored_s=-1.0, missed_s=0.0, false_alarm_s=0.0,
                      confusion_s=0.0, der_pct=0.0, mapping={})
        with pytest.raises(ValueError, match="components"):
            DerReport(scored_s=10.0, missed_s=1.0, false_alarm_s=0.0,
                      confusion_s=0.0, der_pct=50.0, mapping={})
        with pytest.raises(ValueError, match="injective"):
            DerReport(scored_s=10.0, missed_s=0.0, false_alarm_s=0.0,
                      confusion_s=0.0, der_pct=0.0,
                      mapping={"a": "x", "b": "x"})


# ---------------------------------------------------------------------------
# count summaries and purity
# ---------------------------------------------------------------------------

class TestMapdPoc:
    def test_perfect(self):
        est = [CountEstimate(f"s{i}", 3, 3) for i in range(5)]
        assert mapd_poc(est) == (0.0, 100.0)

    def test_hand_case(self):
        est = [CountEstimate("a", 2, 3), CountEstimate("b", 4, 4)]
        mapd, poc = mapd_poc(est)
        assert abs(mapd - 25.0) < 1e-12
        assert abs(poc - 50.0) < 1e-12

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            mapd_poc([])

    def test_count_validation(self):
        with pytest.raises(ValueError, match=">= 1"):
            CountEstimate("s", 0, 1)

    def test_reference_constants(self):
        assert CALLHOME_MCGAN_MAPD_PCT == 9.76
        assert CALLHOME_MCGAN_POC_PCT == 75.55


class TestClusterPurity:
    def test_identity(self):
        assert cluster_purity(["a", "b", "a"], [0, 1, 0]) == 1.0

    def test_single_cluster_balanced(self):
        assert cluster_purity(["a", "a", "b", "b"], [0, 0, 0, 0]) == 0.5

    def test_nine_segment_hand_case(self):
        truth = list("AABBBCCCC")
        hyp = [0, 0, 0, 1, 1, 1, 2, 2, 2]
        assert abs(cluster_purity(truth, hyp) - 7.0 / 9.0) < 1e-12

    def test_matches_per_label_loop(self, rng):
        cases = []
        for n in (1, 7, 300):
            true_int = rng.integers(-2, 6, n)
            hyp_int = rng.integers(0, 9, n)
            cases += [
                (true_int, hyp_int),
                ([f"spk{v}" for v in true_int], [f"c{v}" for v in hyp_int]),
                (list(true_int), ["only"] * n),
                ([f"t{i}" for i in range(n)], list(range(n))),
                (list(true_int), [f"d{i}" for i in rng.permutation(n)]),
            ]
        for true_labels, hyp_labels in cases:
            assert cluster_purity(true_labels, hyp_labels) \
                == purity_by_label_loop(true_labels, hyp_labels)

    def test_validation(self):
        with pytest.raises(ShapeError):
            cluster_purity(["a"], [0, 1])
        with pytest.raises(ValueError, match="empty"):
            cluster_purity([], [])


# ---------------------------------------------------------------------------
# report CSV
# ---------------------------------------------------------------------------

class TestReportCsv:
    def test_rows_and_summary(self):
        ref = tl((0.0, 10.0, "a"), (10.0, 10.0, "b"))
        rows = [("s1", der(ref, tl((0.0, 20.0, "x")), collar=0.0)),
                ("s2", der(ref, ref, collar=0.0))]
        text = report_csv(rows)
        lines = text.splitlines()
        assert lines[0] == ("session,scored_s,missed_s,false_alarm_s,"
                            "confusion_s,der_pct")
        assert lines[1].startswith("s1,20.000,")
        assert lines[2] == "s2,20.000,0.000,0.000,0.000,0.000"
        # corpus DER from total seconds: 10 error s over 40 scored s
        assert lines[3] == "ALL,40.000,0.000,0.000,10.000,25.000"
