"""The operations the benchmark times, and the checks on each one's output.

Every workload runs whole rounds. A round runs each stage of the chain
(train, fine-tune, diarize short and long sessions, score) so that every
run reports every metric; the workloads differ in which stage carries the
bulk of the round. Each check compares an output with an independent
computation (``oracle``) or with a property the method must have.
"""

from __future__ import annotations

import contextlib
import csv
import io
import resource
import statistics
import time
import traceback
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import numpy as np
from scipy.optimize import linear_sum_assignment

from deskdiar import cli, pipeline
from deskdiar.clustering import cosine_affinity
from deskdiar.models import load_checkpoint
from deskdiar.pipeline import DiarizeConfig, SadIntervals

import inputs
import oracle

COLLAR_MS = 250
# planted diarization sessions: boundary errors sit inside the collar
DIARIZE_DER_MAX_PCT = 2.0
# the planted score hypotheses carry about 11% error
PLANTED_DER_MIN_PCT = 5.0
# categorical head on the 20 training speakers; chance is 0.05, and 16
# iterations reached 0.25-0.41 on 8 seeds
SPEAKER_ID_MIN = 0.15
# training too short to learn gets only the structural checks
LEARN_MIN_STEPS = 16
NME_TIE_REL = 1e-9
OVERLAP_FAULT = "overlapping reference speech is not scoreable"
FROZEN_LAYERS = 2   # the shipped frozen_layers


@dataclass(frozen=True)
class Round:
    """One round: ``slots`` interleaved repeats of the per-slot work, the
    long sessions in the middle slot, then the extra score sessions."""

    slots: int
    train_iters: int             # one deskdiar train per slot
    episodes: int                # one deskdiar finetune per slot
    short: int                   # short sessions per slot
    score: Tuple[float, ...]     # hours of each session scored per slot
    long: int
    extra_score: Tuple[Tuple[float, bool], ...]   # (hours, overlap)


ROUNDS: Dict[str, Round] = {
    "embed-train": Round(slots=3, train_iters=16, episodes=16, short=1,
                         score=(1.0,), long=1, extra_score=()),
    "diarize-mixed": Round(slots=3, train_iters=4, episodes=8, short=3,
                           score=(1.0,), long=1, extra_score=()),
    "score-long": Round(slots=3, train_iters=4, episodes=8, short=1,
                        score=(1.0, 1.0), long=1,
                        extra_score=((1.0, True),)),
}


@dataclass
class RoundInputs:
    short: List[inputs.DiarSession]
    long: List[inputs.DiarSession]
    score: List[Tuple[inputs.ScoreSession, Path, Path]]


def make_inputs(spec: Round, seed: int, index: int, work: Path
                ) -> RoundInputs:
    """Round ``index``'s sessions; the score sessions go to RTTM files,
    the per-slot ones first.

    The overlapped-reference sessions come from a fixed seed: they are the
    known scoring fault, and fail whatever the run's seed.
    """
    work.mkdir(parents=True, exist_ok=True)
    n_short = spec.slots * spec.short
    short = [inputs.short_session(seed, index * n_short + i)
             for i in range(n_short)]
    long = [inputs.long_session(seed, index * spec.long + i)
            for i in range(spec.long)]
    plan = [(hours, False) for _ in range(spec.slots) for hours in spec.score]
    score = []
    for j, (hours, overlap) in enumerate(plan + list(spec.extra_score)):
        key = [0, 6, j] if overlap else [seed, 5, index, j]
        sess = inputs.score_session(key, f"call{j:02d}", hours, overlap)
        ref = work / f"{sess.name}.ref.rttm"
        hyp = work / f"{sess.name}.hyp.rttm"
        ref.write_text(inputs.rttm(sess.name, sess.reference))
        hyp.write_text(inputs.rttm(sess.name, sess.hypothesis))
        score.append((sess, ref, hyp))
    return RoundInputs(short=short, long=long, score=score)


def forward(layers, x: np.ndarray) -> np.ndarray:
    """Raw outputs of a checkpoint's layers: ReLU hidden, linear final."""
    h = np.asarray(x, dtype=np.float64)
    for layer in layers:
        h = h @ layer.weight + layer.bias
        if layer.activation == "relu":
            h = np.maximum(h, 0.0)
    return h


def proto_loss(layers, episodes) -> float:
    """Mean prototypical loss (softmax over negative squared distances to
    support means) of the raw encoder outputs over (support, query)
    episodes."""
    total = 0.0
    for sup, qry in episodes:
        n_c, n_s, dim = sup.shape
        protos = forward(layers, sup.reshape(-1, dim)).reshape(
            n_c, n_s, -1).mean(axis=1)
        q = forward(layers, qry.reshape(-1, dim))
        logits = -((q[:, None, :] - protos[None, :, :]) ** 2).sum(axis=2)
        logits -= logits.max(axis=1, keepdims=True)
        logp = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
        truth = np.repeat(np.arange(n_c), qry.shape[1])
        total -= logp[np.arange(len(q)), truth].mean()
    return total / len(episodes)


def read_dkem(path: Path) -> np.ndarray:
    """A binary embedding matrix: b'DKEM', uint32 n and d, float32 rows."""
    blob = path.read_bytes()
    n, d = np.frombuffer(blob, dtype="<u4", count=2, offset=4)
    return np.frombuffer(blob, dtype="<f4", offset=12).reshape(n, d)


def timeline_ms(turns: Sequence[Tuple[float, float, str]]
                ) -> List[inputs.Turn]:
    """Turns in seconds on the millisecond grid; a turn that starts where
    the previous one ends keeps that shared edge, whatever the rounding."""
    out: List[inputs.Turn] = []
    prev_end = None
    for onset, dur, lab in turns:
        a = round(onset * 1000)
        if out and abs(onset - prev_end) < 1e-6:
            a = out[-1][1]
        out.append((a, round((onset + dur) * 1000), lab))
        prev_end = onset + dur
    return out


def merged(spans: Sequence[Tuple[int, int]]) -> List[Tuple[int, int]]:
    out: List[Tuple[int, int]] = []
    for a, b in sorted(spans):
        if out and a <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], b))
        else:
            out.append((a, b))
    return out


class Bench:
    """One run's operations, samples, per-phase CPU use and check
    results."""

    def __init__(self, work: Path, seed: int, tracer=None) -> None:
        self.work = work
        self.seed = seed
        self.tracer = tracer
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.units: Counter = Counter()
        self.cpu: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0.0])
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.score_speech_s = 0.0
        self.score_wall_s = 0.0
        self._heldout = inputs.heldout_episodes(seed)

    # ------------------------------------------------------------ plumbing

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.errors.append(message)

    @contextlib.contextmanager
    def phase(self, name: str):
        r0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        if self.tracer is not None:
            self.tracer.phase = name
        try:
            yield
        finally:
            if self.tracer is not None:
                self.tracer.phase = None
            wall = time.perf_counter() - t0
            r1 = resource.getrusage(resource.RUSAGE_SELF)
            self.cpu[name][0] += (r1.ru_utime - r0.ru_utime
                                  + r1.ru_stime - r0.ru_stime)
            self.cpu[name][1] += wall

    def _cli(self, argv: List[str]) -> Tuple[int, float, str, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            rc = cli.main(argv)
            wall = time.perf_counter() - t0
        return rc, wall, out.getvalue(), err.getvalue()

    def corpus(self, out: Path) -> None:
        rc, _, _, err = self._cli(["simulate", "--out", str(out),
                                   "--seed", str(self.seed)])
        if rc != 0:
            raise RuntimeError(f"deskdiar simulate exited {rc}: {err}")

    # ---------------------------------------------------------- operations

    def train(self, corpus: Path, out: Path, n_iter: int, seed: int) -> bool:
        self.attempted += 1
        with self.phase("train"):
            rc, wall, _, err = self._cli(
                ["train", "--data", str(corpus), "--out", str(out),
                 "--seed", str(seed), "--set", f"n_iter={n_iter}"])
        if rc != 0:
            self.failed += 1
            self.errors.append(f"train exited {rc}: {err.strip()}")
            return False
        self.samples["train_iter_ms"].append(1000.0 * wall / n_iter)
        self.units["train"] += n_iter

        with open(out / "train_log.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        self.check([int(r["iter"]) for r in rows]
                   == list(range(1, n_iter + 1)),
                   f"train_log.csv has {len(rows)} rows for {n_iter} "
                   "iterations")
        vals = {f: np.array([float(r[f]) for r in rows])
                for f in ("wasserstein", "gp", "adv", "cos", "ce")}
        self.check(all(np.isfinite(v).all() for v in vals.values()),
                   "train_log.csv holds a non-finite value")
        self.check((vals["gp"] >= 0).all() and (vals["ce"] >= 0).all()
                   and ((vals["cos"] >= 0) & (vals["cos"] <= 2)).all(),
                   "train_log.csv breaks gp >= 0, ce >= 0 or 0 <= cos <= 2")
        if n_iter < LEARN_MIN_STEPS:
            return True
        q = n_iter // 4
        self.check(vals["ce"][-q:].mean() < vals["ce"][:q].mean(),
                   f"ce did not fall: first quarter "
                   f"{vals['ce'][:q].mean():.4f}, last "
                   f"{vals['ce'][-q:].mean():.4f}")
        enc = load_checkpoint(out / "encoder.dkck")
        x = read_dkem(corpus / "train.dkem")
        labels = np.array((corpus / "train_labels.txt").read_text().split(),
                          dtype=np.int64)
        d_c = enc.latent.d_c
        pred = forward(enc.params.layers, x)[:, -d_c:].argmax(axis=1)
        hits = np.zeros((d_c, d_c))
        np.add.at(hits, (labels, pred), 1)
        rows_i, cols_i = linear_sum_assignment(-hits)
        acc = hits[rows_i, cols_i].sum() / len(labels)
        self.check(acc >= SPEAKER_ID_MIN,
                   f"encoder identifies {acc:.3f} of training rows, below "
                   f"{SPEAKER_ID_MIN}")
        return True

    def finetune(self, corpus: Path, encoder: Path, out: Path,
                 episodes: int, seed: int) -> None:
        self.attempted += 1
        with self.phase("finetune"):
            rc, wall, _, err = self._cli(
                ["finetune", "--data", str(corpus), "--encoder", str(encoder),
                 "--out", str(out), "--seed", str(seed),
                 "--set", f"episodes={episodes}"])
        if rc != 0:
            self.failed += 1
            self.errors.append(f"finetune exited {rc}: {err.strip()}")
            return
        self.samples["finetune_episode_ms"].append(1000.0 * wall / episodes)
        self.units["finetune"] += episodes

        with open(out / "finetune_log.csv", newline="") as fh:
            losses = np.array([float(r["loss"]) for r in csv.DictReader(fh)])
        self.check(len(losses) == episodes and np.isfinite(losses).all(),
                   f"finetune_log.csv: {len(losses)} rows for {episodes} "
                   "episodes, or a non-finite loss")
        pre = load_checkpoint(encoder).params.layers
        post = load_checkpoint(out / "encoder_mcgan.dkck").params.layers
        self.check(all(a.weight.tobytes() == b.weight.tobytes()
                       and a.bias.tobytes() == b.bias.tobytes()
                       for a, b in zip(pre[:FROZEN_LAYERS],
                                       post[:FROZEN_LAYERS])),
                   "fine-tuning changed a frozen layer")
        if episodes < LEARN_MIN_STEPS:
            return
        before = proto_loss(pre, self._heldout)
        after = proto_loss(post, self._heldout)
        self.check(after < before,
                   f"held-out prototypical loss rose: {before:.6g} -> "
                   f"{after:.6g}")

    def diarize(self, sess: inputs.DiarSession, phase: str) -> None:
        self.attempted += 1
        with self.phase(phase):
            t0 = time.perf_counter()
            try:
                # through the module, so a traced run sees the call
                timeline, k_hat, diag = pipeline.run_diarization(
                    SadIntervals(sess.name, sess.sad), sess.x,
                    DiarizeConfig())
            except Exception:   # reported, and the run goes on
                self.failed += 1
                self.errors.append(traceback.format_exc(limit=3))
                return
            wall = time.perf_counter() - t0
        self.samples[f"diarize_{phase}_s"].append(wall)
        self.units[phase] += 1

        hyp = timeline_ms(timeline.turns)
        sad = [(round(a * 1000), round(b * 1000)) for a, b in sess.sad]
        self.check(merged([(a, b) for a, b, _ in hyp]) == sad,
                   f"{sess.name}: hypothesis does not cover exactly the SAD")
        self.check(k_hat == sess.k,
                   f"{sess.name}: k_hat {k_hat}, planted {sess.k}")
        score = oracle.der_ticks(sess.reference, hyp, COLLAR_MS)
        self.check(score["missed"] == 0 and score["false_alarm"] == 0
                   and score["der_pct"] <= DIARIZE_DER_MAX_PCT,
                   f"{sess.name}: oracle DER {score}")
        nme = diag["nme"]
        ref = oracle.nme_reference(cosine_affinity(sess.x))
        tie = ref["r_runner_up"] - ref["r"] <= NME_TIE_REL * ref["r"]
        self.check((nme.p_hat, nme.k_hat) == (ref["p_hat"], ref["k_hat"])
                   or tie,
                   f"{sess.name}: NME picked (p, k) = ({nme.p_hat}, "
                   f"{nme.k_hat}), reference ({ref['p_hat']}, "
                   f"{ref['k_hat']})")

    def score(self, sess: inputs.ScoreSession, ref: Path, hyp: Path
              ) -> None:
        self.attempted += 1
        out = self.work / "scores" / sess.name
        with self.phase("score-overlap" if sess.overlap else "score"):
            rc, wall, stdout, err = self._cli(
                ["score", "--reference", str(ref), "--hypothesis", str(hyp),
                 "--out", str(out)])
        if rc != 0:
            self.failed += 1
            if not (sess.overlap and rc == 3 and OVERLAP_FAULT in err):
                self.errors.append(f"score {sess.name} exited {rc}: "
                                   f"{err.strip()}")
            return
        want = oracle.der_ticks(sess.reference, sess.hypothesis, COLLAR_MS)
        with open(out / "scores.csv", newline="") as fh:
            row = next(r for r in csv.DictReader(fh)
                       if r["session"] == sess.name)
        for col, key in (("scored_s", "scored"), ("missed_s", "missed"),
                         ("false_alarm_s", "false_alarm"),
                         ("confusion_s", "confusion")):
            self.check(round(float(row[col]) * 1000) == want[key],
                       f"{sess.name}: {col} {row[col]}, oracle "
                       f"{want[key] / 1000.0:.3f}")
        self.check(float(row["der_pct"]) >= PLANTED_DER_MIN_PCT,
                   f"{sess.name}: DER {row['der_pct']}% hides the planted "
                   "errors")
        if sess.overlap:
            return
        printed = float(stdout.split("mean cluster purity:")[1].split()[0])
        purity = oracle.purity_frames(sess.reference, sess.hypothesis)
        self.check(abs(printed - purity) <= 5.0001e-5,
                   f"{sess.name}: purity {printed}, oracle {purity:.6f}")
        self.units["score"] += 1
        self.score_speech_s += sess.speech_s
        self.score_wall_s += wall

    # -------------------------------------------------------------- rounds

    def run_round(self, spec: Round, inp: RoundInputs, corpus: Path,
                  index: int) -> None:
        short, score = iter(inp.short), iter(inp.score)
        for slot in range(spec.slots):
            base = self.work / f"round{index}" / f"slot{slot}"
            # the model seed is the slot, not the run's seed: fine-tuning
            # draws each episode's size (10 or 20 speakers) from it, and a
            # seed-dependent mix of sizes would spread finetune_episode_ms
            if self.train(corpus, base / "ckpt", spec.train_iters, slot):
                self.finetune(corpus, base / "ckpt" / "encoder.dkck",
                              base / "tuned", spec.episodes, slot)
            else:
                self.attempted += 1
                self.failed += 1
            for _ in range(spec.short):
                self.diarize(next(short), "short")
            for _ in spec.score:
                self.score(*next(score))
            if slot == spec.slots // 2:
                for sess in inp.long:
                    self.diarize(sess, "long")
        for item in score:
            self.score(*item)

    def end_to_end(self) -> Dict[str, float]:
        out = {name: statistics.median(vals)
               for name, vals in self.samples.items() if vals}
        if self.score_wall_s > 0:
            out["score_x_realtime"] = self.score_speech_s / self.score_wall_s
        return out

    def per_layer(self, names: Sequence[str], e2e: Dict[str, float]
                  ) -> Dict[str, float]:
        """Values of ``<phase>.<module>.<function>.{self_ms,calls}``,
        ``<phase>.process.cpu_s_per_wall_s`` and ``traced.<metric>``, per
        iteration, episode or session of the phase. Absent functions are
        left out."""
        absent = set(self.tracer.absent)
        totals = {ph: self.tracer.totals(ph) for ph in self.units}
        out: Dict[str, float] = {}
        for name in names:
            parts = name.split(".")
            if parts[0] == "traced":
                if parts[1] in e2e:
                    out[name] = e2e[parts[1]]
                continue
            phase, units = parts[0], self.units.get(parts[0], 0)
            if not units:
                continue
            if parts[1:] == ["process", "cpu_s_per_wall_s"]:
                cpu_s, wall_s = self.cpu[phase]
                out[name] = cpu_s / wall_s
                continue
            func = f"{parts[1]}.{parts[2]}"
            if func in absent:
                continue
            self_s, calls = totals[phase].get(func, (0.0, 0))
            out[name] = (1000.0 * self_s if parts[3] == "self_ms"
                         else calls) / units
        return out


def traced_functions(names: Sequence[str]) -> Dict[str, List[str]]:
    """module -> functions named by per-layer metrics."""
    out: Dict[str, List[str]] = defaultdict(list)
    for name in names:
        parts = name.split(".")
        if len(parts) == 4 and parts[2] not in out[parts[1]]:
            out[parts[1]].append(parts[2])
    return dict(out)
