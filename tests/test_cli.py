"""Command-line workflow tests: config handling, the five subcommands,
exit codes, and byte determinism."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from deskdiar import cli
from deskdiar.models import load_checkpoint
from deskdiar.metrics import cluster_purity, parse_rttm
from deskdiar.pipeline import (
    SadIntervals,
    Timeline,
    format_sad,
    save_embeddings,
    uniform_segments,
)

SIM_ARGS = ["--set", "n_sessions=3", "--set", "dim=16",
            "--set", "n_speakers=8", "--set", "rows_per_speaker=24",
            "--set", "session_s=40", "--set", "session_k_choices=2,3"]
TRAIN_ARGS = ["--set", "n_iter=30", "--set", "d_n=20", "--set", "batch=32"]


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "corpus"
    assert cli.main(["simulate", "--out", str(out)] + SIM_ARGS) == 0
    return out


@pytest.fixture(scope="module")
def ckpt_dir(corpus_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli-train") / "ckpt"
    assert cli.main(["train", "--data", str(corpus_dir),
                     "--out", str(out)] + TRAIN_ARGS) == 0
    return out


@pytest.fixture(scope="module")
def tuned_dir(corpus_dir, ckpt_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli-tune") / "tuned"
    assert cli.main(["finetune", "--data", str(corpus_dir),
                     "--encoder", str(ckpt_dir / "encoder.dkck"),
                     "--out", str(out), "--set", "episodes=40"]) == 0
    return out


@pytest.fixture(scope="module")
def hyp_dir(corpus_dir, tuned_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli-hyp") / "hyp"
    assert cli.main(["diarize", "--data", str(corpus_dir),
                     "--out", str(out), "--embedding", "mcgan",
                     "--backend", "nme-sc",
                     "--encoder", str(tuned_dir / "encoder_mcgan.dkck")]) == 0
    return out


def tree_bytes(root: Path):
    return {p.relative_to(root): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


class TestConfig:
    def test_default_text_round_trips_bit_exact(self):
        parsed = cli.parse_config_text(cli.config_text(), "default")
        assert parsed == cli.DEFAULTS

    def test_shipped_config_file_in_sync(self):
        shipped = Path(__file__).resolve().parents[1] / "configs" \
            / "default.cfg"
        assert shipped.read_text() == cli.config_text()

    def test_unknown_key_named(self):
        with pytest.raises(cli.ConfigError, match="bogus"):
            cli.parse_config_text("bogus = 1\n", "inline")

    def test_bad_value_type(self):
        with pytest.raises(cli.ConfigError, match="n_iter"):
            cli.parse_config_text("n_iter = fast\n", "inline")
        with pytest.raises(cli.ConfigError, match="comma-separated"):
            cli.parse_config_text("session_k_choices = 2,x\n", "inline")

    def test_missing_equals_rejected(self):
        with pytest.raises(cli.ConfigError, match="line 1"):
            cli.parse_config_text("just words\n", "inline")

    def test_comments_and_blanks_skipped(self):
        text = "# header\n\nseed = 5  # trailing note\n"
        assert cli.parse_config_text(text, "inline") == {"seed": 5}

    def test_precedence_config_then_set_then_flag(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 1\nbatch = 10\n")
        args = cli.build_parser().parse_args(
            ["config", "--config", str(cfg), "--set", "seed=2",
             "--set", "k_max=4", "--seed", "3"])
        merged = cli.load_run_config(args)
        assert merged["seed"] == 3
        assert merged["batch"] == 10
        assert merged["k_max"] == 4

    def test_overlap_must_be_smaller_than_window(self):
        args = cli.build_parser().parse_args(
            ["config", "--set", "overlap_s=1.5"])
        with pytest.raises(cli.ConfigError, match="overlap_s"):
            cli.load_run_config(args)

    def test_negative_seed_rejected(self):
        args = cli.build_parser().parse_args(["config", "--set", "seed=-1"])
        with pytest.raises(cli.ConfigError, match="seed"):
            cli.load_run_config(args)


class TestManifest:
    def test_round_trip(self, tmp_path):
        text = cli.format_manifest(
            {"emb": "train.dkem", "labels": "train_labels.txt", "k": 9},
            [{"name": "sess000", "emb": "sess000.dkem", "k": 4}])
        path = tmp_path / "manifest.txt"
        path.write_text(text)
        man = cli.parse_manifest(path)
        assert man["train"]["k"] == 9
        assert man["sessions"] == [
            {"name": "sess000", "emb": "sess000.dkem", "k": 4}]
        assert man["sad"] == "corpus.sad"

    def test_malformed_line_cited(self, tmp_path):
        path = tmp_path / "manifest.txt"
        path.write_text("session sess000 emb=x.dkem\n")
        with pytest.raises(ValueError, match="line 1"):
            cli.parse_manifest(path)


class TestSimulate:
    def test_smoke_files_and_manifest(self, corpus_dir):
        for name in ("manifest.txt", "corpus.sad", "reference.rttm",
                     "train.dkem", "train_labels.txt", "config.snapshot"):
            assert (corpus_dir / name).is_file()
        man = cli.parse_manifest(corpus_dir / "manifest.txt")
        assert len(man["sessions"]) == 3
        assert man["train"]["k"] == 8
        for sess in man["sessions"]:
            assert (corpus_dir / sess["emb"]).is_file()
            assert sess["k"] in (2, 3)

    def test_byte_identical_rerun(self, corpus_dir, tmp_path):
        again = tmp_path / "again"
        assert cli.main(["simulate", "--out", str(again)] + SIM_ARGS) == 0
        assert tree_bytes(again) == tree_bytes(corpus_dir)

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        rc = cli.main(["simulate", "--out", str(tmp_path / "x"),
                       "--set", "bogus=1"])
        assert rc == 2
        assert "bogus" in capsys.readouterr().err

    def test_snapshot_reproduces_corpus(self, corpus_dir, tmp_path):
        again = tmp_path / "fromsnap"
        rc = cli.main(["simulate", "--out", str(again), "--config",
                       str(corpus_dir / "config.snapshot")])
        assert rc == 0
        assert tree_bytes(again) == tree_bytes(corpus_dir)


class TestTrainFinetune:
    def test_checkpoints_written(self, ckpt_dir):
        for role in ("generator", "discriminator", "encoder"):
            ck = load_checkpoint(ckpt_dir / f"{role}.dkck")
            assert ck.role == role
            assert ck.provenance.stage == "clustergan"
        log = (ckpt_dir / "train_log.csv").read_text().splitlines()
        assert log[0] == "iter,wasserstein,gp,adv,cos,ce"
        assert len(log) == 31

    def test_finetuned_encoder_stage(self, tuned_dir):
        ck = load_checkpoint(tuned_dir / "encoder_mcgan.dkck")
        assert ck.role == "encoder"
        assert ck.provenance.stage == "mcgan"
        assert (tuned_dir / "finetune_log.csv").is_file()

    def test_train_byte_identical_rerun(self, corpus_dir, ckpt_dir,
                                        tmp_path):
        again = tmp_path / "ckpt2"
        assert cli.main(["train", "--data", str(corpus_dir),
                         "--out", str(again)] + TRAIN_ARGS) == 0
        assert tree_bytes(again) == tree_bytes(ckpt_dir)

    def test_divergence_exits_4_with_artifacts(self, corpus_dir, tmp_path,
                                               capsys):
        out = tmp_path / "div"
        rc = cli.main(["train", "--data", str(corpus_dir), "--out", str(out),
                       "--set", "n_iter=20", "--set", "alpha=1e160",
                       "--set", "batch=16", "--set", "d_n=8"])
        assert rc == 4
        assert "training stopped" in capsys.readouterr().err
        assert (out / "encoder.dkck").is_file()

    def test_missing_corpus_exits_3(self, tmp_path, capsys):
        rc = cli.main(["train", "--data", str(tmp_path / "nope"),
                       "--out", str(tmp_path / "o")])
        assert rc == 3
        assert "manifest" in capsys.readouterr().err


class TestDiarize:
    def test_hypothesis_covers_all_sessions(self, corpus_dir, hyp_dir):
        hyp = parse_rttm((hyp_dir / "hypothesis.rttm").read_text())
        man = cli.parse_manifest(corpus_dir / "manifest.txt")
        assert sorted(hyp) == [s["name"] for s in man["sessions"]]

    def test_diagnostics_include_p_and_k(self, corpus_dir, tuned_dir,
                                         tmp_path):
        out = tmp_path / "fused"
        rc = cli.main(["diarize", "--data", str(corpus_dir),
                       "--out", str(out), "--embedding", "fused",
                       "--backend", "nme-sc",
                       "--encoder", str(tuned_dir / "encoder_mcgan.dkck")])
        assert rc == 0
        lines = (out / "diagnostics.csv").read_text().splitlines()
        assert lines[0] == \
            "session,n_segments,k_hat,p_used,inertia,p_scanned"
        for line in lines[1:]:
            session, nseg, k_hat, p_used, _, p_scanned = line.split(",")
            assert int(nseg) > 0
            assert int(k_hat) >= 1
            assert int(p_used) >= 1
            assert int(p_scanned) >= int(p_used)
        assert len(lines) == 4

    def test_jobs_do_not_change_bytes(self, corpus_dir, tuned_dir, hyp_dir,
                                      tmp_path):
        out = tmp_path / "par"
        rc = cli.main(["diarize", "--data", str(corpus_dir),
                       "--out", str(out), "--embedding", "mcgan",
                       "--backend", "nme-sc", "--jobs", "3",
                       "--encoder", str(tuned_dir / "encoder_mcgan.dkck")])
        assert rc == 0
        assert (out / "hypothesis.rttm").read_bytes() == \
            (hyp_dir / "hypothesis.rttm").read_bytes()
        assert (out / "diagnostics.csv").read_bytes() == \
            (hyp_dir / "diagnostics.csv").read_bytes()

    def test_known_k_oracle_matches_manifest(self, corpus_dir, tmp_path):
        out = tmp_path / "oracle"
        rc = cli.main(["diarize", "--data", str(corpus_dir),
                       "--out", str(out), "--embedding", "xvector-raw",
                       "--backend", "kmeans", "--known-k", "oracle"])
        assert rc == 0
        man = cli.parse_manifest(corpus_dir / "manifest.txt")
        want = {s["name"]: s["k"] for s in man["sessions"]}
        hyp = parse_rttm((out / "hypothesis.rttm").read_text())
        for name, timeline in hyp.items():
            assert len(timeline.speakers) == want[name]

    def test_encoder_required_for_latent_sources(self, corpus_dir, tmp_path,
                                                 capsys):
        rc = cli.main(["diarize", "--data", str(corpus_dir),
                       "--out", str(tmp_path / "x"),
                       "--embedding", "mcgan"])
        assert rc == 2
        assert "--encoder" in capsys.readouterr().err

    def test_kmeans_without_known_k_exits_3(self, corpus_dir, tmp_path,
                                            capsys):
        rc = cli.main(["diarize", "--data", str(corpus_dir),
                       "--out", str(tmp_path / "x"),
                       "--embedding", "xvector-raw", "--backend", "kmeans"])
        assert rc == 3
        assert "known_k" in capsys.readouterr().err

    def test_session_shorter_than_k_max_segments(self, tmp_path):
        # a 4 s session (7 segments, under the default k_max = 10) beside a
        # healthy 60 s two-speaker session
        rng = np.random.default_rng(5)
        data = tmp_path / "data"
        data.mkdir()
        sads = [SadIntervals("short", ((0.0, 4.0),)),
                SadIntervals("long", ((0.0, 60.0),))]
        lines = ["sad corpus.sad"]
        for s in sads:
            n = len(uniform_segments(s))
            means = np.eye(16)[(np.arange(n) >= n // 2).astype(int)]
            save_embeddings(means + 0.05 * rng.standard_normal((n, 16)),
                            data / f"{s.session}.dkem")
            lines.append(f"session {s.session} emb={s.session}.dkem k=2")
        (data / "corpus.sad").write_text(format_sad(sads))
        (data / "manifest.txt").write_text("\n".join(lines) + "\n")
        out = tmp_path / "hyp"
        rc = cli.main(["diarize", "--data", str(data), "--out", str(out)])
        assert rc == 0
        hyp = parse_rttm((out / "hypothesis.rttm").read_text())
        assert sorted(hyp) == ["long", "short"]
        assert len(hyp["long"].speakers) == 2

    def test_bad_known_k_exits_2(self, corpus_dir, tmp_path, capsys):
        rc = cli.main(["diarize", "--data", str(corpus_dir),
                       "--out", str(tmp_path / "x"),
                       "--known-k", "some"])
        assert rc == 2
        assert "known-k" in capsys.readouterr().err


class TestScore:
    def run_score(self, corpus_dir, hyp_dir, tmp_path, collar):
        out = tmp_path / f"sc{collar}"
        rc = cli.main(["score",
                       "--reference", str(corpus_dir / "reference.rttm"),
                       "--hypothesis", str(hyp_dir / "hypothesis.rttm"),
                       "--collar", str(collar), "--out", str(out)])
        assert rc == 0
        return (out / "scores.csv").read_text()

    def all_row(self, csv_text):
        row = csv_text.splitlines()[-1].split(",")
        assert row[0] == "ALL"
        return [float(v) for v in row[1:]]

    def test_low_der_and_summary_lines(self, corpus_dir, hyp_dir, tmp_path,
                                       capsys):
        csv_text = self.run_score(corpus_dir, hyp_dir, tmp_path, 0.25)
        printed = capsys.readouterr().out
        assert csv_text in printed
        assert "MAPD" in printed and "POC" in printed
        assert "mean cluster purity" in printed
        scored, missed, fa, conf, der_pct = self.all_row(csv_text)
        assert scored > 0
        assert der_pct <= 15.0

    def test_scored_nonincreasing_in_collar(self, corpus_dir, hyp_dir,
                                            tmp_path):
        scored = [self.all_row(self.run_score(corpus_dir, hyp_dir,
                                              tmp_path, c))[0]
                  for c in (0.0, 0.1, 0.25)]
        assert scored[0] >= scored[1] >= scored[2]

    def test_counts_csv(self, corpus_dir, hyp_dir, tmp_path):
        self.run_score(corpus_dir, hyp_dir, tmp_path, 0.25)
        lines = (tmp_path / "sc0.25" / "counts.csv").read_text().splitlines()
        assert lines[0] == "session,true_k,est_k"
        assert len(lines) == 4

    def test_missing_hypothesis_session_exits_3(self, corpus_dir, tmp_path,
                                                capsys):
        partial = tmp_path / "partial.rttm"
        ref_lines = (corpus_dir / "reference.rttm").read_text().splitlines(
            keepends=True)
        partial.write_text("".join(l for l in ref_lines if "sess000" in l))
        rc = cli.main(["score",
                       "--reference", str(corpus_dir / "reference.rttm"),
                       "--hypothesis", str(partial)])
        assert rc == 3
        assert "sess001" in capsys.readouterr().err

    def test_session_without_single_speaker_frame_skips_purity(
            self, tmp_path, capsys):
        # session b's one 3 ms turn holds no 10 ms frame midpoint: it still
        # gets its DER row but is left out of the mean purity
        rttm = tmp_path / "two.rttm"
        rttm.write_text(
            "SPEAKER a 1 0.000 5.000 <NA> <NA> s1 <NA> <NA>\n"
            "SPEAKER b 1 0.001 0.003 <NA> <NA> s1 <NA> <NA>\n")
        rc = cli.main(["score", "--reference", str(rttm),
                       "--hypothesis", str(rttm), "--set", "collar_s=0"])
        captured = capsys.readouterr()
        assert rc == 0, captured.err
        rows = {line.split(",")[0]: line.split(",")
                for line in captured.out.splitlines() if "," in line}
        assert rows["a"][1:] == ["5.000", "0.000", "0.000", "0.000", "0.000"]
        assert rows["b"][1:] == ["0.003", "0.000", "0.000", "0.000", "0.000"]
        assert "mean cluster purity: 1.0000" in captured.out
        assert "session b" in captured.err and "session a" not in captured.err
        # with every session like b there is no mean purity to report
        only_b = tmp_path / "b.rttm"
        only_b.write_text(rttm.read_text().splitlines(keepends=True)[1])
        assert cli.main(["score", "--reference", str(only_b),
                         "--hypothesis", str(only_b),
                         "--set", "collar_s=0"]) == 0
        assert "mean cluster purity: n/a" in capsys.readouterr().out

    def test_reference_scores_zero_against_itself(self, corpus_dir,
                                                  tmp_path):
        out = tmp_path / "self"
        rc = cli.main(["score",
                       "--reference", str(corpus_dir / "reference.rttm"),
                       "--hypothesis", str(corpus_dir / "reference.rttm"),
                       "--out", str(out)])
        assert rc == 0
        row = self.all_row((out / "scores.csv").read_text())
        assert row[1:] == [0.0, 0.0, 0.0, 0.0]


    def test_overlapped_speech_is_scored(self, tmp_path, capsys):
        # session o: reference a 0-2 s and b 1-3 s against hypothesis x
        # 0-3 s; session s: the same turns with the roles swapped
        line = "SPEAKER {} 1 {:.3f} {:.3f} <NA> <NA> {} <NA> <NA>\n"
        pair = [line.format("o", 0, 2, "a"), line.format("o", 1, 2, "b")]
        single = [line.format("o", 0, 3, "x")]
        ref, hyp = tmp_path / "ref.rttm", tmp_path / "hyp.rttm"
        ref.write_text("".join(pair + [l.replace(" o ", " s ")
                                       for l in single]))
        hyp.write_text("".join(single + [l.replace(" o ", " s ")
                                         for l in pair]))
        out = tmp_path / "scores"
        rc = cli.main(["score", "--reference", str(ref), "--hypothesis",
                       str(hyp), "--collar", "0", "--out", str(out)])
        assert rc == 0
        assert (out / "scores.csv").read_text().splitlines()[1:] == [
            "o,4.000,1.000,0.000,1.000,50.000",
            "s,3.000,0.000,1.000,1.000,66.667",
            "ALL,7.000,1.000,1.000,2.000,57.143"]
        # o: the overlapped second is left out of purity, so x holds 1 s
        # of a and 1 s of b; s: b starts last and keeps 1-2 s, so both
        # hypothesis clusters are pure
        assert "mean cluster purity: 0.7500" in capsys.readouterr().out


def midpoint_mask_pairs(reference, hypothesis):
    """Frame labels by one midpoint mask per turn, for single-speaker
    timelines: reference and hypothesis label (or "") of each frame whose
    midpoint a reference turn holds."""
    spans = list(reference.turns) + list(hypothesis.turns)
    end_ms = max(round((o + d) * 1000) for o, d, _ in spans)
    n = -(-end_ms // 10)
    mids = np.arange(n) * 10 + 5.0

    def paint(timeline):
        labels = np.full(n, "", dtype=object)
        for onset, dur, lab in timeline.turns:
            lo, hi = round(onset * 1000), round((onset + dur) * 1000)
            labels[(mids >= lo) & (mids < hi)] = lab
        return labels

    ref, hyp = paint(reference), paint(hypothesis)
    return list(ref[ref != ""]), list(hyp[ref != ""])


def random_single_speaker_timeline(rng):
    labs = [f"s{i}" for i in range(rng.integers(1, 5))]
    t = int(rng.integers(0, 12))   # turn edges before the first midpoint
    turns = []
    for _ in range(rng.integers(1, 12)):
        t += int(rng.integers(0, 40))
        dur = int(rng.integers(1, 60))
        if rng.random() < 0.5:     # edges at 10 i + 5 ms tie a midpoint
            t, dur = 10 * -(-t // 10) + 5, 10 * (dur // 10 + 1)
        turns.append((t / 1000.0, dur / 1000.0,
                      labs[rng.integers(len(labs))]))
        t += dur
    return Timeline(tuple(turns))


class TestFrameLabelPairs:
    def test_matches_midpoint_masks(self):
        rng = np.random.default_rng(11)
        ties = 0
        for _ in range(300):
            ref = random_single_speaker_timeline(rng)
            hyp = random_single_speaker_timeline(rng)
            ties += sum(round(o * 1000) % 10 == 5 for o, _, _ in ref.turns)
            true_codes, hyp_codes = cli._frame_label_pairs(ref, hyp)
            want_true, want_hyp = midpoint_mask_pairs(ref, hyp)
            assert [ref.speakers[c] for c in true_codes] == want_true
            assert [hyp.speakers[c] if c >= 0 else "" for c in hyp_codes] \
                == want_hyp
        assert ties > 100

    def test_frames_with_two_reference_speakers_left_out(self):
        ref = Timeline(((0.0, 2.0, "a"), (1.0, 2.0, "b")))
        hyp = Timeline(((0.0, 3.0, "x"),))
        true_codes, hyp_codes = cli._frame_label_pairs(ref, hyp)
        assert true_codes.tolist() == [0] * 100 + [1] * 100
        assert hyp_codes.tolist() == [0] * 200
        assert cluster_purity(true_codes, hyp_codes) == 0.5

    def test_hypothesis_turn_starting_last_keeps_frame(self):
        ref = Timeline(((0.0, 3.0, "a"),))
        hyp = Timeline(((0.0, 2.0, "y"), (1.0, 2.0, "x")))
        true_codes, hyp_codes = cli._frame_label_pairs(ref, hyp)
        assert true_codes.tolist() == [0] * 300
        assert hyp_codes.tolist() == [1] * 100 + [0] * 200


class TestEntryPoints:
    def test_help_lists_flags(self, capsys):
        assert cli.main(["diarize", "--help"]) == 0
        out = capsys.readouterr().out
        for flag in ("--config", "--set", "--seed", "--embedding",
                     "--backend", "--known-k", "--encoder", "--jobs"):
            assert flag in out

    def test_usage_error_exits_2(self, capsys):
        assert cli.main(["diarize"]) == 2
        assert cli.main(["not-a-command"]) == 2

    def test_module_entry(self):
        proc = subprocess.run([sys.executable, "-m", "deskdiar",
                               "--version"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert "deskdiar" in proc.stdout
