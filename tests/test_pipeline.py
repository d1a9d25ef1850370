"""Pipeline tests: segmentation rules, fusion algebra, label flattening,
interchange formats, and the per-session diarization driver."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deskdiar.autodiff import ShapeError
from deskdiar.clustering import (
    DegenerateAffinityError,
    _neighbour_order,
    cosine_affinity,
    kmeans,
    nme_select,
    spectral_cluster,
)
from deskdiar.models import LatentConfig, Provenance, build_models
from deskdiar.pipeline import (
    DiarizeConfig,
    SadIntervals,
    Segment,
    Timeline,
    format_sad,
    fuse,
    labels_to_timeline,
    load_embeddings,
    parse_sad,
    run_diarization,
    save_embeddings,
    to_rttm,
    uniform_segments,
)


def sad(*intervals, session="sess01"):
    return SadIntervals(session=session, intervals=tuple(intervals))


def spans(segments):
    return [(s.onset, s.duration) for s in segments]


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

class TestTypes:
    def test_sad_validation(self):
        with pytest.raises(ValueError, match="duration"):
            sad((1.0, 1.0))
        with pytest.raises(ValueError, match="sorted"):
            sad((2.0, 3.0), (0.0, 1.0))
        with pytest.raises(ValueError, match="sorted"):
            sad((0.0, 2.0), (1.5, 3.0))
        assert sad((0.0, 1.0), (2.0, 3.5)).total_speech == 2.5

    def test_segment_validation(self):
        with pytest.raises(ValueError, match="positive"):
            Segment(onset=0.0, duration=0.0, row=0)
        assert Segment(onset=1.0, duration=1.5, row=0).offset == 2.5

    def test_timeline_validation(self):
        with pytest.raises(ValueError, match="duration"):
            Timeline(((0.0, 0.0, "a"),))
        with pytest.raises(ValueError, match="sorted"):
            Timeline(((1.0, 1.0, "a"), (0.0, 1.0, "b")))
        with pytest.raises(ValueError, match="overlaps itself"):
            Timeline(((0.0, 2.0, "a"), (1.0, 2.0, "a")))
        # cross-speaker overlap is representable
        tl = Timeline(((0.0, 2.0, "a"), (1.0, 2.0, "b")))
        assert tl.speakers == ("a", "b")
        assert tl.total_speech == 4.0


# ---------------------------------------------------------------------------
# segmentation
# ---------------------------------------------------------------------------

class TestUniformSegments:
    def test_sliding_enumeration(self):
        segs = uniform_segments(sad((0.0, 3.5)))
        assert spans(segs) == [(0.0, 1.5), (0.5, 1.5), (1.0, 1.5),
                               (1.5, 1.5), (2.0, 1.5), (2.5, 1.0)]
        assert [s.row for s in segs] == list(range(6))

    def test_short_interval_single_segment(self):
        assert spans(uniform_segments(sad((0.0, 1.0)))) == [(0.0, 1.0)]

    def test_exact_window_single_segment(self):
        assert spans(uniform_segments(sad((0.0, 1.5)))) == [(0.0, 1.5)]

    def test_empty_sad(self):
        assert uniform_segments(sad()) == []

    def test_sliver_tail_merges_into_previous(self):
        segs = uniform_segments(sad((0.0, 2.1)), win=1.0, hop=1.0)
        assert spans(segs) == [(0.0, 1.0), (1.0, 1.1)]

    def test_rows_continue_across_intervals(self):
        segs = uniform_segments(sad((0.0, 1.0), (5.0, 6.0)))
        assert spans(segs) == [(0.0, 1.0), (5.0, 1.0)]
        assert [s.row for s in segs] == [0, 1]

    def test_window_validation(self):
        with pytest.raises(ValueError, match="win"):
            uniform_segments(sad((0.0, 1.0)), win=0.0)
        with pytest.raises(ValueError, match="win"):
            uniform_segments(sad((0.0, 1.0)), win=1.0, hop=2.0)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.floats(0, 50), st.floats(0.05, 12)),
                    min_size=0, max_size=4))
    def test_coverage_property(self, raw):
        ivs, cursor = [], 0.0
        for gap, dur in raw:
            onset = round(cursor + gap + 0.1, 3)
            ivs.append((onset, round(onset + dur, 3)))
            cursor = ivs[-1][1]
        s = sad(*ivs)
        segs = uniform_segments(s)
        assert [g.row for g in segs] == list(range(len(segs)))
        cut = 0
        for onset, offset in s.intervals:
            inside = [g for g in segs
                      if onset - 1e-9 <= g.onset and g.offset <= offset + 1e-9]
            assert segs[cut:cut + len(inside)] == inside
            cut += len(inside)
            assert inside, "interval produced no segment"
            assert abs(inside[0].onset - onset) < 1e-9
            assert abs(max(g.offset for g in inside) - offset) < 1e-9
            for a, b in zip(inside, inside[1:]):
                assert b.onset <= a.offset + 1e-9  # no coverage gap
                assert b.onset > a.onset  # strictly advancing
            for g in inside:
                assert g.duration <= 1.5 + 1e-9
        assert cut == len(segs)


# ---------------------------------------------------------------------------
# fusion
# ---------------------------------------------------------------------------

class TestFuse:
    def test_output_dim(self, rng):
        out = fuse(rng.standard_normal((4, 2)), rng.standard_normal((4, 3)))
        assert out.shape == (4, 5)

    def test_self_fusion_preserves_affinity(self, rng):
        x = rng.standard_normal((12, 6))
        a_fused = cosine_affinity(fuse(x, x))
        assert np.abs(a_fused - cosine_affinity(x)).max() < 1e-12

    def test_fused_cosine_is_mean_of_stream_cosines(self, rng):
        u = rng.standard_normal((8, 4))
        v = rng.standard_normal((8, 5))
        got = cosine_affinity(fuse(u, v))
        want = (cosine_affinity(u) + cosine_affinity(v)) / 2.0
        np.fill_diagonal(want, 1.0)
        assert np.abs(got - want).max() < 1e-12

    def test_row_rescaling_invariance(self, rng):
        u = rng.standard_normal((6, 3))
        v = rng.standard_normal((6, 4))
        scales = rng.uniform(0.1, 30.0, size=(6, 1))
        assert np.abs(fuse(u, v) - fuse(u * scales, v)).max() < 1e-12
        assert np.abs(fuse(u, v) - fuse(u, v * scales)).max() < 1e-12

    def test_zero_row_guarded(self):
        out = fuse(np.zeros((2, 3)), np.ones((2, 2)))
        assert np.isfinite(out).all()
        assert np.allclose(out[:, :3], 0.0)

    def test_row_count_mismatch(self, rng):
        with pytest.raises(ShapeError, match="row counts"):
            fuse(rng.standard_normal((3, 2)), rng.standard_normal((4, 2)))


# ---------------------------------------------------------------------------
# labels -> timeline
# ---------------------------------------------------------------------------

def sliding(spec):
    return [Segment(onset=o, duration=d, row=i)
            for i, (o, d) in enumerate(spec)]


class TestLabelsToTimeline:
    def test_single_label_single_region(self):
        segs = uniform_segments(sad((0.0, 3.5)))
        tl = labels_to_timeline(segs, ["a"] * len(segs))
        assert tl.turns == ((0.0, 3.5, "a"),)

    def test_midpoint_split(self):
        tl = labels_to_timeline(sliding([(0.0, 1.5), (0.5, 1.5)]),
                                ["A", "B"])
        assert tl.turns == ((0.0, 1.0, "A"), (1.0, 1.0, "B"))

    def test_disjoint_segments_pass_through(self):
        tl = labels_to_timeline(sliding([(0.0, 1.0), (5.0, 1.0)]),
                                ["A", "B"])
        assert tl.turns == ((0.0, 1.0, "A"), (5.0, 1.0, "B"))

    def test_same_label_gap_stays_split(self):
        tl = labels_to_timeline(sliding([(0.0, 1.0), (5.0, 1.0)]),
                                ["A", "A"])
        assert tl.turns == ((0.0, 1.0, "A"), (5.0, 1.0, "A"))

    def test_touching_same_label_merges(self):
        tl = labels_to_timeline(sliding([(0.0, 1.0), (1.0, 1.0)]),
                                ["A", "A"])
        assert tl.turns == ((0.0, 2.0, "A"),)

    def test_label_count_mismatch(self):
        with pytest.raises(ShapeError, match="labels"):
            labels_to_timeline(sliding([(0.0, 1.0)]), ["A", "B"])

    def test_nested_segment_rejected(self):
        with pytest.raises(ValueError, match="nested"):
            labels_to_timeline(sliding([(0.0, 3.0), (0.1, 0.2)]),
                               ["A", "B"])

    def test_coverage_matches_sad(self, rng):
        s = sad((0.0, 7.3), (9.0, 10.2), (11.0, 17.9))
        segs = uniform_segments(s)
        labels = rng.integers(0, 3, size=len(segs))
        tl = labels_to_timeline(segs, [f"spk{c}" for c in labels])
        assert abs(tl.total_speech - s.total_speech) < 1e-6
        ends = [o + d for o, d, _ in tl.turns]
        onsets = [o for o, _, _ in tl.turns]
        assert all(b >= a - 1e-9 for a, b in zip(onsets, onsets[1:]))
        assert all(o2 >= e1 - 1e-9
                   for e1, o2 in zip(ends, onsets[1:]))  # no turn overlap


# ---------------------------------------------------------------------------
# interchange formats
# ---------------------------------------------------------------------------

class TestFormats:
    def test_rttm_line_format(self):
        tl = Timeline(((0.0, 1.234567, "spk00"),))
        assert to_rttm(tl, "s1") == \
            "SPEAKER s1 1 0.000 1.235 <NA> <NA> spk00 <NA> <NA>\n"

    def test_sad_round_trip(self):
        sads = [sad((0.0, 1.5), (2.0, 3.25), session="a"),
                sad((0.5, 9.0), session="b")]
        back = parse_sad(format_sad(sads))
        assert back == sads

    def test_sad_skips_blank_and_comment_lines(self):
        text = "# corpus\n\ns1 0.0 1.0\n"
        assert parse_sad(text) == [sad((0.0, 1.0), session="s1")]

    def test_sad_errors_cite_line(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_sad("s1 0.0 1.0\ns1 2.0\n")
        with pytest.raises(ValueError, match="line 1"):
            parse_sad("s1 zero 1.0\n")

    def test_embeddings_binary_round_trip(self, rng, tmp_path):
        x = rng.standard_normal((7, 4))
        path = tmp_path / "emb.dkem"
        save_embeddings(x, path)
        assert path.read_bytes()[:4] == b"DKEM"
        back = load_embeddings(path)
        assert back.shape == (7, 4)
        assert np.abs(back - x).max() < 1e-6

    def test_embeddings_corrupt_files(self, rng, tmp_path):
        x = rng.standard_normal((3, 2))
        binp = tmp_path / "emb.dkem"
        save_embeddings(x, binp)
        blob = binp.read_bytes()
        (tmp_path / "trunc.dkem").write_bytes(blob[:-2])
        with pytest.raises(ValueError, match="expected"):
            load_embeddings(tmp_path / "trunc.dkem")
        txt = tmp_path / "emb.txt"
        txt.write_text("EMB 1 1 2\n1.0 2.0\n")
        with pytest.raises(ValueError, match="emb.txt is not a DKEM"):
            load_embeddings(txt)


# ---------------------------------------------------------------------------
# per-session driver
# ---------------------------------------------------------------------------

def planted_session(rng, dim=16, std=0.05):
    """SAD + per-segment raw embeddings for a two-speaker session whose
    first/second halves belong to different speakers (80 segments)."""
    s = sad((0.0, 40.5))
    segs = uniform_segments(s)
    n = len(segs)
    means = np.zeros((2, dim))
    means[0, 0] = 1.0
    means[1, 1] = 1.0
    labels = (np.arange(n) >= n // 2).astype(int)
    x = means[labels] + std * rng.standard_normal((n, dim))
    return s, segs, x, labels


def planted_speakers(k, std, seed, dim=16):
    """SAD + raw embeddings for a k-speaker session of 240 segments, the
    speakers taking turns of 8 segments, means at least 25 degrees
    apart."""
    rng = np.random.default_rng([k, int(std * 1000), seed])
    s = sad((0.0, 120.5))
    n = len(uniform_segments(s))
    while True:
        means = rng.standard_normal((k, dim))
        means /= np.linalg.norm(means, axis=1, keepdims=True)
        gram = means @ means.T
        np.fill_diagonal(gram, -1.0)
        if gram.max() <= np.cos(np.radians(25.0)):
            break
    x = means[(np.arange(n) // 8) % k] + std * rng.standard_normal((n, dim))
    return s, x


class TestRunDiarization:
    def test_config_validation(self):
        with pytest.raises(ValueError, match="embedding source"):
            DiarizeConfig(embedding="mfcc")
        with pytest.raises(ValueError, match="backend"):
            DiarizeConfig(backend="ahc")
        with pytest.raises(ValueError, match="known_k"):
            DiarizeConfig(known_k=0)

    def test_nme_backend_estimates_two_speakers(self, rng):
        s, segs, x, labels = planted_session(rng)
        tl, k_hat, diag = run_diarization(s, x, DiarizeConfig())
        assert k_hat == 2
        assert diag["nme"] is not None
        assert diag["p_used"] == diag["nme"].p_hat
        assert diag["n_segments"] == len(segs)
        assert len(tl.speakers) == 2
        assert abs(tl.total_speech - s.total_speech) < 1e-6

    def test_known_k_one_single_turn(self, rng):
        s, _, x, _ = planted_session(rng)
        tl, k_hat, _ = run_diarization(
            s, x, DiarizeConfig(backend="sc-fixed-p", known_k=1))
        assert k_hat == 1
        assert tl.turns == ((0.0, 40.5, "spk00"),)

    def test_rttm_determinism(self, rng):
        s, _, x, _ = planted_session(rng)
        cfg = DiarizeConfig(seed=7)
        a = to_rttm(run_diarization(s, x, cfg)[0], s.session)
        b = to_rttm(run_diarization(s, x, cfg)[0], s.session)
        assert a == b

    def test_kmeans_backend(self, rng):
        s, segs, x, labels = planted_session(rng)
        tl, k_hat, diag = run_diarization(
            s, x, DiarizeConfig(backend="kmeans", known_k=2))
        assert k_hat == 2 and diag["nme"] is None
        assert np.isfinite(diag["inertia"])
        with pytest.raises(ValueError, match="known_k"):
            run_diarization(s, x, DiarizeConfig(backend="kmeans"))

    def test_fixed_p_backend_needs_k(self, rng):
        s, _, x, _ = planted_session(rng)
        with pytest.raises(ValueError, match="known_k"):
            run_diarization(s, x, DiarizeConfig(backend="sc-fixed-p"))

    def test_nme_with_known_k_override(self, rng):
        s, _, x, _ = planted_session(rng)
        tl, k_hat, diag = run_diarization(
            s, x, DiarizeConfig(backend="nme-sc", known_k=3))
        assert k_hat == 3
        assert diag["nme"] is not None  # p still auto-tuned

    def test_one_affinity_per_session(self, rng, monkeypatch):
        # one affinity and one sort of its rows, shared by the NME scan
        # and the partition
        s, segs, x, _ = planted_session(rng)
        calls, sorts = [], []

        def counted(y):
            calls.append(y.shape)
            return cosine_affinity(y)

        def counted_order(a):
            sorts.append(a.shape)
            return _neighbour_order(a)

        monkeypatch.setattr("deskdiar.clustering.cosine_affinity", counted)
        monkeypatch.setattr("deskdiar.clustering._neighbour_order",
                            counted_order)
        fixed = DiarizeConfig(backend="sc-fixed-p", known_k=2, seed=3)
        for cfg in (DiarizeConfig(), DiarizeConfig(known_k=3), fixed):
            calls.clear()
            sorts.clear()
            tl, _, diag = run_diarization(s, x, cfg)
            assert len(calls) == 1, cfg
            assert len(sorts) == 1, cfg
            if cfg.known_k == 3:
                assert diag["p_used"] == diag["nme"].p_hat
        asg, _ = spectral_cluster(x, k=2, seed=3)
        assert tl == labels_to_timeline(
            segs, [f"spk{c:02d}" for c in asg.labels])

    def test_encoder_sources(self, rng):
        s, segs, x, _ = planted_session(rng)
        latent = LatentConfig(d_c=4, d_n=6, sigma=0.10)
        _, _, enc = build_models(x_dim=x.shape[1], latent=latent, seed=0)
        enc_ft = dataclasses.replace(
            enc, provenance=Provenance(stage="mcgan"))
        for source, encoder in (("clustergan", enc), ("mcgan", enc_ft),
                                ("fused", enc_ft)):
            cfg = DiarizeConfig(embedding=source, backend="kmeans",
                                known_k=2)
            tl, k_hat, _ = run_diarization(s, x, cfg, encoder=encoder)
            assert k_hat == 2
        with pytest.raises(ValueError, match="encoder"):
            run_diarization(s, x, DiarizeConfig(embedding="mcgan",
                                                backend="kmeans", known_k=2))

    def test_errors_carry_session_id(self, rng):
        s, _, x, _ = planted_session(rng)
        with pytest.raises(ShapeError, match="session sess01"):
            run_diarization(s, x[:-3], DiarizeConfig())

    def test_fixed_p_out_of_range(self, rng):
        s, segs, x, _ = planted_session(rng)
        for p in (0, len(segs)):
            cfg = DiarizeConfig(backend="sc-fixed-p", known_k=2, p=p)
            with pytest.raises(ValueError,
                               match="session sess01: p must lie"):
                run_diarization(s, x, cfg)

    def test_single_segment_session(self):
        s = sad((0.0, 1.0))
        tl, k_hat, _ = run_diarization(s, np.ones((1, 4)), DiarizeConfig())
        assert k_hat == 1 and tl.turns == ((0.0, 1.0, "spk00"),)
        with pytest.raises(ValueError, match="single-segment"):
            run_diarization(s, np.ones((1, 4)), DiarizeConfig(known_k=2))

    def test_session_shorter_than_k_max_segments(self, rng):
        # 4 s of speech gives 7 segments, fewer than the default k_max = 10
        s = sad((0.0, 4.0))
        n = len(uniform_segments(s))
        assert n == 7 < DiarizeConfig().k_max
        tl, k_hat, diag = run_diarization(s, rng.standard_normal((n, 16)),
                                          DiarizeConfig())
        assert 1 <= k_hat <= n
        assert diag["nme"].eigengap.shape == (n - 1,)
        onset, duration, _ = tl.turns[-1]
        assert tl.turns[0][0] == 0.0 and abs(onset + duration - 4.0) < 1e-6
        assert abs(tl.total_speech - s.total_speech) < 1e-6

    def test_bounded_scan_picks_as_the_exhaustive_scan(self):
        stopped = collapsed = 0
        for k in range(2, 9):
            for std in (0.08, 0.35):
                s, x = planted_speakers(k, std, seed=0)
                _, k_hat, diag = run_diarization(s, x, DiarizeConfig())
                nme, full = diag["nme"], nme_select(cosine_affinity(x))
                assert (nme.p_hat, nme.k_hat) == (full.p_hat, full.k_hat)
                assert np.array_equal(nme.eigenvalues, full.eigenvalues)
                assert np.array_equal(nme.eigengap, full.eigengap)
                assert nme.trace == full.trace[:len(nme.trace)]
                assert diag["p_scanned"] == len(nme.trace)
                assert k_hat == full.k_hat and diag["p_used"] == full.p_hat
                stopped += diag["p_scanned"] < len(full.trace)
                collapsed += full.k_hat == 1
        assert stopped >= 3
        assert collapsed >= 1

    def test_p_scanned_is_zero_without_a_scan(self, rng):
        s, _, x, _ = planted_session(rng)
        for cfg in (DiarizeConfig(backend="kmeans", known_k=2),
                    DiarizeConfig(backend="sc-fixed-p", known_k=2)):
            assert run_diarization(s, x, cfg)[2]["p_scanned"] == 0
        one = run_diarization(sad((0.0, 1.0)), np.ones((1, 4)),
                              DiarizeConfig())
        assert one[2]["p_scanned"] == 0

    def test_tiny_session_bounded_pick(self, rng):
        # 3.5 s of speech gives 6 segments: k_max is cut to n, and the
        # eigengap window reaches lambda_max
        s = sad((0.0, 3.5))
        n = len(uniform_segments(s))
        assert n - 1 <= DiarizeConfig().k_max
        for _ in range(5):
            x = rng.standard_normal((n, 8))
            _, _, diag = run_diarization(s, x, DiarizeConfig())
            full = nme_select(cosine_affinity(x), k_max=n)
            assert (diag["nme"].p_hat, diag["nme"].k_hat) == \
                (full.p_hat, full.k_hat)
            assert diag["nme"].eigengap.shape == (n - 1,)

    def test_every_p_degenerate_raises(self):
        # three orthogonal speakers of 8 segments each and k_max = 2: up to
        # p = ceil(24 / 4) = 6 < 8 the graph keeps 3 components, more than
        # the window holds, so no p has a gap
        s = sad((0.0, 12.5))
        n = len(uniform_segments(s))
        assert n == 24
        x = np.eye(4)[:3][np.arange(n) % 3]
        with pytest.raises(DegenerateAffinityError, match="session sess01"):
            run_diarization(s, x, DiarizeConfig(k_max=2))

    def test_fused_self_consistency_both_backends(self, rng):
        # fusing a stream with itself must not change either back-end's
        # partition
        s, segs, x, _ = planted_session(rng)
        fused = fuse(x, x)
        for backend in ("kmeans", "sc-fixed-p"):
            cfg = DiarizeConfig(backend=backend, known_k=2, seed=3)
            tl_single, _, _ = run_diarization(s, x, cfg)
            # fused source needs an encoder; emulate by direct clustering
            if backend == "kmeans":
                a = kmeans(fuse(x, x) / np.sqrt(2.0), 2, seed=3)
                b = kmeans(x / np.maximum(
                    np.linalg.norm(x, axis=1, keepdims=True), 1e-12),
                    2, seed=3)
                assert {frozenset(np.flatnonzero(a.labels == c).tolist())
                        for c in range(2)} == \
                       {frozenset(np.flatnonzero(b.labels == c).tolist())
                        for c in range(2)}
            else:
                a, _ = spectral_cluster(fused, k=2, seed=3)
                b, _ = spectral_cluster(x, k=2, seed=3)
                assert {frozenset(np.flatnonzero(a.labels == c).tolist())
                        for c in range(2)} == \
                       {frozenset(np.flatnonzero(b.labels == c).tolist())
                        for c in range(2)}
