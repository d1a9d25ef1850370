"""Command-line front end for the corpus -> train -> diarize workflow.

Six subcommands cover the full loop: ``config`` prints the effective
configuration, ``simulate`` writes a synthetic embedding corpus, ``train``
fits the ClusterGAN triplet on its training split, ``finetune`` runs the
episodic fine-tuning stage on the encoder, ``diarize`` produces hypothesis
RTTMs, and ``score`` reports DER plus speaker-count and purity summaries.
Commands share a flat key = value configuration; explicit flags win over
--set, which wins over --config.

Exit codes: 0 success, 2 usage or configuration error, 3 data or format
error, 4 numerical divergence.
"""

import argparse
import csv
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import __version__
from .autodiff import DivergenceError
from .gan import GanTrainConfig, LabeledEmbeddings, train_clustergan
from .metrics import (
    CountEstimate,
    DerUndefinedError,
    cluster_purity,
    der,
    mapd_poc,
    parse_rttm,
    report_csv,
    turn_ticks,
)
from .models import LatentConfig, load_checkpoint, save_checkpoint
from .pipeline import (
    BACKENDS,
    EMBED_SOURCES,
    DiarizeConfig,
    Timeline,
    format_sad,
    load_embeddings,
    parse_sad,
    save_embeddings,
    to_rttm,
    run_diarization,
)
from .protonet import ProtoConfig, finetune_mcgan
from .simulate import SynthConfig, gen_corpus, gen_training_set

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

DIAG_FIELDS = ("session", "n_segments", "k_hat", "p_used", "inertia",
               "p_scanned")
COUNT_FIELDS = ("session", "true_k", "est_k")
PURITY_FRAME_S = 0.01


class ConfigError(ValueError):
    """Bad key, value, or flag combination; maps to the usage exit code."""


# ---------------------------------------------------------------------------
# run configuration
# ---------------------------------------------------------------------------

# One row per key: (key, default, annotation). The defaults here are the
# shipped configuration; a snapshot test locks the optimizer and scoring
# values, so edit them deliberately.
_SCHEMA = (
    ("embedding trainer", (
        ("n_iter", 5000, "training iterations (artifact-scale, set per run)"),
        ("lambda_gp", 10.0, "critic gradient-penalty weight"),
        ("batch", 128, "minibatch rows per update"),
        ("n_critic", 5, "critic updates per generator/encoder update"),
        ("alpha", 1e-4, "Adam step size, shared by all three networks"),
        ("beta1", 0.5, "Adam first-moment decay"),
        ("beta2", 0.9, "Adam second-moment decay"),
        ("w1", 1.0, "adversarial term weight"),
        ("w2", 10.0, "continuous latent recovery term weight"),
        ("w3", 10.0, "categorical latent recovery term weight"),
        ("sigma", 0.10, "std of the continuous latent block"),
        ("d_n", 90, "width of the continuous latent block"),
    )),
    ("episodic fine-tuning", (
        ("episodes", 5000, "fine-tuning episodes (artifact-scale, set per run)"),
        ("n_support", 10, "support rows per episode speaker"),
        ("n_query", 10, "query rows per episode speaker"),
        ("frozen_layers", 2, "leading hidden layers kept fixed"),
    )),
    ("segmentation and scoring", (
        ("win_s", 1.5, "sliding window length in seconds"),
        ("overlap_s", 1.0, "overlap between consecutive windows in seconds"),
        ("collar_s", 0.25, "no-score collar around reference boundaries"),
    )),
    ("clustering", (
        ("k_max", 10, "largest admissible speaker count"),
        ("restarts", 10, "k-means restarts per clustering"),
        ("p", 0, "fixed affinity sparsity for sc-fixed-p (0 = backend default)"),
    )),
    ("synthetic corpus", (
        ("dim", 32, "embedding dimensionality"),
        ("n_speakers", 20, "speakers in the corpus pool"),
        ("std", 0.08, "within-speaker embedding std"),
        ("rows_per_speaker", 40, "training rows drawn per speaker"),
        ("session_k_choices", (2, 3, 4, 5, 6, 7),
         "admissible per-session speaker counts"),
        ("turn_min_s", 1.5, "minimum turn length in seconds"),
        ("turn_mean_s", 2.0, "mean of the exponential turn-length excess"),
        ("gap_mean_s", 0.0, "mean inter-turn silence (0 = contiguous speech)"),
        ("session_s", 120.0, "nominal session length in seconds"),
        ("n_sessions", 10, "sessions per generated corpus"),
    )),
    ("run", (
        ("embedding", "xvector-raw",
         "segment representation: " + " | ".join(EMBED_SOURCES)),
        ("backend", "nme-sc", "clustering backend: " + " | ".join(BACKENDS)),
        ("seed", 0, "base rng seed"),
    )),
)

DEFAULTS: Dict[str, object] = {
    key: default for _, entries in _SCHEMA for key, default, _ in entries}


def _format_value(value: object) -> str:
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _parse_value(key: str, text: str) -> object:
    default = DEFAULTS[key]
    try:
        if isinstance(default, tuple):
            return tuple(int(tok) for tok in text.split(","))
        if isinstance(default, bool):  # pragma: no cover - no bool keys yet
            raise ValueError
        if isinstance(default, int):
            return int(text)
        if isinstance(default, float):
            return float(text)
    except ValueError:
        kind = "comma-separated ints" if isinstance(default, tuple) else \
            type(default).__name__
        raise ConfigError(
            f"config key {key!r}: cannot parse {text!r} as {kind}") from None
    return text


def parse_config_text(text: str, source: str) -> Dict[str, object]:
    """Flat key = value lines; '#' starts a comment; unknown keys rejected."""
    out: Dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(
                f"{source} line {lineno}: expected key = value, got "
                f"{line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in DEFAULTS:
            raise ConfigError(
                f"{source} line {lineno}: unknown config key {key!r}")
        out[key] = _parse_value(key, value)
    return out


def config_text(values: Optional[Dict[str, object]] = None) -> str:
    """Annotated, parseable rendering of a configuration."""
    values = DEFAULTS if values is None else values
    lines = ["# deskdiar run configuration",
             "# format: key = value; '#' starts a comment", ""]
    for section, entries in _SCHEMA:
        lines.append(f"# -- {section} --")
        for key, _, note in entries:
            lines.append(f"{key} = {_format_value(values[key])}  # {note}")
        lines.append("")
    return "\n".join(lines)


def load_run_config(args: argparse.Namespace) -> Dict[str, object]:
    """Merge defaults, --config file, --set overrides, then named flags."""
    cfg = dict(DEFAULTS)
    config_path = getattr(args, "config", None)
    if config_path is not None:
        cfg.update(parse_config_text(Path(config_path).read_text(),
                                     str(config_path)))
    for item in getattr(args, "set", None) or []:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, _, value = item.partition("=")
        key, value = key.strip(), value.strip()
        if key not in DEFAULTS:
            raise ConfigError(f"unknown config key {key!r}")
        cfg[key] = _parse_value(key, value)
    for flag, key in (("seed", "seed"), ("collar", "collar_s"),
                      ("embedding", "embedding"), ("backend", "backend")):
        value = getattr(args, flag, None)
        if value is not None:
            cfg[key] = value
    if cfg["seed"] < 0:
        raise ConfigError("seed must be a nonnegative integer")
    if cfg["collar_s"] < 0:
        raise ConfigError("collar_s must be nonnegative")
    if cfg["p"] < 0:
        raise ConfigError("p must be nonnegative (0 = backend default)")
    if cfg["embedding"] not in EMBED_SOURCES:
        raise ConfigError(f"unknown embedding source {cfg['embedding']!r}")
    if cfg["backend"] not in BACKENDS:
        raise ConfigError(f"unknown backend {cfg['backend']!r}")
    _hop(cfg)
    return cfg


def _hop(cfg: Dict[str, object]) -> float:
    win, overlap = cfg["win_s"], cfg["overlap_s"]
    if not win > 0 or overlap < 0 or not win - overlap > 0:
        raise ConfigError(
            f"need 0 <= overlap_s < win_s, got win_s={win} "
            f"overlap_s={overlap}")
    return win - overlap


# ---------------------------------------------------------------------------
# corpus manifest
# ---------------------------------------------------------------------------

def format_manifest(train: Dict[str, object],
                    sessions: Sequence[Dict[str, object]]) -> str:
    lines = ["# deskdiar corpus manifest v1",
             "sad corpus.sad",
             "reference reference.rttm",
             f"train emb={train['emb']} labels={train['labels']} "
             f"k={train['k']}"]
    for sess in sessions:
        lines.append(f"session {sess['name']} emb={sess['emb']} "
                     f"k={sess['k']}")
    return "\n".join(lines) + "\n"


def parse_manifest(path: Union[str, Path]) -> Dict[str, object]:
    """Read the corpus layout written by ``simulate``."""
    info: Dict[str, object] = {"sessions": []}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(),
                                 start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        kind = tokens[0]
        try:
            if kind in ("sad", "reference"):
                info[kind] = tokens[1]
            elif kind == "train":
                kv = dict(tok.split("=", 1) for tok in tokens[1:])
                info["train"] = {"emb": kv["emb"], "labels": kv["labels"],
                                 "k": int(kv["k"])}
            elif kind == "session":
                kv = dict(tok.split("=", 1) for tok in tokens[2:])
                info["sessions"].append(
                    {"name": tokens[1], "emb": kv["emb"],
                     "k": int(kv["k"])})
            else:
                raise ValueError(f"unknown entry kind {kind!r}")
        except (IndexError, KeyError, ValueError) as exc:
            raise ValueError(
                f"{path} line {lineno}: malformed manifest entry "
                f"({exc})") from None
    return info


def _read_labels(path: Path) -> np.ndarray:
    try:
        return np.array([int(tok) for tok in path.read_text().split()],
                        dtype=np.int64)
    except ValueError as exc:
        raise ValueError(f"{path}: labels must be integers ({exc})") from None


def _load_training_set(data_dir: Path) -> LabeledEmbeddings:
    man = parse_manifest(data_dir / "manifest.txt")
    if "train" not in man:
        raise ValueError(f"{data_dir}: manifest lists no training split")
    x = load_embeddings(data_dir / man["train"]["emb"])
    labels = _read_labels(data_dir / man["train"]["labels"])
    return LabeledEmbeddings(x=x, labels=labels, k=man["train"]["k"])


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_config(args: argparse.Namespace) -> int:
    text = config_text(load_run_config(args))
    if args.out is not None:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = load_run_config(args)
    scfg = SynthConfig(
        dim=cfg["dim"], n_speakers=cfg["n_speakers"], std=cfg["std"],
        rows_per_speaker=cfg["rows_per_speaker"],
        session_k_choices=cfg["session_k_choices"],
        turn_mean_s=cfg["turn_mean_s"], turn_min_s=cfg["turn_min_s"],
        gap_mean_s=cfg["gap_mean_s"], session_s=cfg["session_s"],
        win_s=cfg["win_s"], hop_s=_hop(cfg), seed=cfg["seed"])
    # the training split reuses the corpus mean stream, so its speakers are
    # exactly the pool the sessions draw from
    train = gen_training_set(scfg, np.random.default_rng([scfg.seed, 104729]))
    _, sessions = gen_corpus(scfg, cfg["n_sessions"])

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.snapshot").write_text(config_text(cfg))
    save_embeddings(train.x, out / "train.dkem")
    (out / "train_labels.txt").write_text(
        "".join(f"{lab}\n" for lab in train.labels))
    (out / "corpus.sad").write_text(format_sad([s.sad for s in sessions]))
    (out / "reference.rttm").write_text(
        "".join(to_rttm(s.reference, s.sad.session) for s in sessions))
    rows = []
    for sess in sessions:
        name = sess.sad.session
        save_embeddings(sess.x, out / f"{name}.dkem")
        rows.append({"name": name, "emb": f"{name}.dkem", "k": sess.true_k})
    (out / "manifest.txt").write_text(format_manifest(
        {"emb": "train.dkem", "labels": "train_labels.txt",
         "k": scfg.n_speakers}, rows))
    print(f"wrote {len(sessions)} sessions and a {train.n}-row training "
          f"split to {out}")
    return EXIT_OK


def _drain_divergence(caught: List[warnings.WarningMessage]) -> int:
    """Surface any captured stop-warning; artifacts are already on disk.

    A diverged run reports the single stop diagnostic instead of the
    overflow chatter leading up to it; a healthy run re-emits whatever
    was caught.
    """
    stop = next((w for w in caught if "stopped" in str(w.message)), None)
    if stop is not None:
        print(f"deskdiar: {stop.message}", file=sys.stderr)
        return EXIT_NUMERIC
    for item in caught:
        warnings.warn_explicit(item.message, item.category, item.filename,
                               item.lineno)
    return EXIT_OK


def cmd_train(args: argparse.Namespace) -> int:
    cfg = load_run_config(args)
    data = _load_training_set(Path(args.data))
    latent = LatentConfig(d_c=data.k, d_n=cfg["d_n"], sigma=cfg["sigma"])
    gcfg = GanTrainConfig(
        n_iter=cfg["n_iter"], lambda_gp=cfg["lambda_gp"], batch=cfg["batch"],
        n_critic=cfg["n_critic"], alpha=cfg["alpha"], beta1=cfg["beta1"],
        beta2=cfg["beta2"], w1=cfg["w1"], w2=cfg["w2"], w3=cfg["w3"],
        seed=cfg["seed"])
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        g, d, e, _ = train_clustergan(data, gcfg, latent,
                                      log_path=out / "train_log.csv")
    save_checkpoint(g, out / "generator.dkck")
    save_checkpoint(d, out / "discriminator.dkck")
    save_checkpoint(e, out / "encoder.dkck")
    (out / "config.snapshot").write_text(config_text(cfg))
    status = _drain_divergence(caught)
    if status == EXIT_OK:
        print(f"trained {gcfg.n_iter} iterations on {data.n} rows "
              f"({data.k} speakers); checkpoints in {out}")
    return status


def cmd_finetune(args: argparse.Namespace) -> int:
    cfg = load_run_config(args)
    data = _load_training_set(Path(args.data))
    encoder = load_checkpoint(args.encoder)
    pcfg = ProtoConfig(
        episodes=cfg["episodes"], n_s=cfg["n_support"], n_q=cfg["n_query"],
        alpha=cfg["alpha"], beta1=cfg["beta1"], beta2=cfg["beta2"],
        frozen_layers=cfg["frozen_layers"], seed=cfg["seed"])
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        tuned, curve = finetune_mcgan(encoder, data, pcfg,
                                      log_path=out / "finetune_log.csv")
    save_checkpoint(tuned, out / "encoder_mcgan.dkck")
    (out / "config.snapshot").write_text(config_text(cfg))
    status = _drain_divergence(caught)
    if status == EXIT_OK:
        print(f"fine-tuned for {len(curve)} episodes; encoder in {out}")
    return status


def _parse_known_k(text: Optional[str]) -> Union[None, str, int]:
    if text is None or text == "oracle":
        return text
    try:
        value = int(text)
    except ValueError:
        raise ConfigError(
            f"--known-k expects an integer or 'oracle', got {text!r}"
        ) from None
    if value < 1:
        raise ConfigError("--known-k must be >= 1")
    return value


def cmd_diarize(args: argparse.Namespace) -> int:
    cfg = load_run_config(args)
    known_k = _parse_known_k(args.known_k)
    if args.jobs < 1:
        raise ConfigError("--jobs must be >= 1")
    encoder = None
    if args.encoder is not None:
        encoder = load_checkpoint(args.encoder)
    elif cfg["embedding"] != "xvector-raw":
        raise ConfigError(
            f"embedding source {cfg['embedding']!r} needs --encoder")

    data_dir = Path(args.data)
    man = parse_manifest(data_dir / "manifest.txt")
    sad_by_session = {
        s.session: s
        for s in parse_sad((data_dir / man.get("sad", "corpus.sad"))
                           .read_text())}
    hop = _hop(cfg)

    def one_session(entry: Dict[str, object]) -> Tuple[str, str, Dict]:
        name = entry["name"]
        if name not in sad_by_session:
            raise ValueError(f"session {name}: no SAD intervals in corpus")
        x = load_embeddings(data_dir / entry["emb"])
        dcfg = DiarizeConfig(
            embedding=cfg["embedding"], backend=cfg["backend"],
            known_k=entry["k"] if known_k == "oracle" else known_k,
            p=cfg["p"] or None, k_max=cfg["k_max"], restarts=cfg["restarts"],
            seed=cfg["seed"], win=cfg["win_s"], hop=hop)
        timeline, _, diag = run_diarization(sad_by_session[name], x, dcfg,
                                            encoder)
        return name, to_rttm(timeline, name), diag

    entries = man["sessions"]
    if not entries:
        raise ValueError(f"{data_dir}: manifest lists no sessions")
    if args.jobs == 1:
        results = [one_session(entry) for entry in entries]
    else:
        with ThreadPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(one_session, entries))

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "hypothesis.rttm").write_text(
        "".join(rttm for _, rttm, _ in results))
    with open(out / "diagnostics.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=DIAG_FIELDS)
        writer.writeheader()
        for _, _, diag in results:
            writer.writerow({
                "session": diag["session"],
                "n_segments": diag["n_segments"],
                "k_hat": diag["k_hat"],
                "p_used": "" if diag["p_used"] is None else diag["p_used"],
                "inertia": f"{float(diag['inertia']):.12g}",
                "p_scanned": diag["p_scanned"]})
    (out / "config.snapshot").write_text(config_text(cfg))
    print(f"diarized {len(results)} sessions with "
          f"embedding={cfg['embedding']} backend={cfg['backend']}; "
          f"hypothesis in {out}")
    return EXIT_OK


def _frame_label_pairs(reference: Timeline, hypothesis: Timeline
                       ) -> Tuple[np.ndarray, np.ndarray]:
    """Reference and hypothesis speaker codes of the frames that hold one
    reference speaker.

    Frames are PURITY_FRAME_S long; a turn holds the frames whose midpoint
    it contains. Frames with no reference speaker, or with more than one,
    are left out, since purity is a single-label measure. Where
    hypothesis turns overlap, the one that starts last keeps the frame,
    and frames with no hypothesis speaker share the code -1. Codes index
    each side's sorted speaker labels.
    """
    f = round(PURITY_FRAME_S * 1000)
    ref = turn_ticks(reference)
    hyp = turn_ticks(hypothesis)
    n = -(-max(ref[1].max(initial=0), hyp[1].max(initial=0)) // f)

    def paint(ticks) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each frame's speaker code, and each turn's first and stop
        frame: a turn from lo to hi holds the frames i with
        lo <= f * i + f / 2 < hi."""
        starts, ends, labels, _ = ticks
        first = np.maximum(-((f - 2 * starts) // (2 * f)), 0)
        stop = -((f - 2 * ends) // (2 * f))
        codes = np.full(n, -1, dtype=np.int32)
        for i, j, lab in zip(first.tolist(), stop.tolist(), labels.tolist()):
            codes[i:j] = lab
        return codes, first, stop

    ref_codes, first, stop = paint(ref)
    held = np.zeros(n + 1, dtype=np.int32)
    np.add.at(held, first, 1)
    np.add.at(held, stop, -1)
    single = np.cumsum(held[:n], dtype=np.int32) == 1
    return ref_codes[single], paint(hyp)[0][single]


def cmd_score(args: argparse.Namespace) -> int:
    cfg = load_run_config(args)
    refs = parse_rttm(Path(args.reference).read_text())
    hyps = parse_rttm(Path(args.hypothesis).read_text())
    if not refs:
        raise ValueError(f"{args.reference}: no SPEAKER lines")
    missing = sorted(set(refs) - set(hyps))
    if missing:
        raise ValueError(
            "no hypothesis for session(s): " + ", ".join(missing))

    rows: List[Tuple[str, object]] = []
    counts: List[CountEstimate] = []
    purities: List[float] = []
    for session in sorted(refs):
        try:
            report = der(refs[session], hyps[session], cfg["collar_s"])
            true_frames, hyp_frames = _frame_label_pairs(refs[session],
                                                         hyps[session])
            if true_frames.size:
                purities.append(cluster_purity(true_frames, hyp_frames))
            else:
                print(f"deskdiar: session {session}: no single-speaker frame;"
                      " left out of the mean cluster purity", file=sys.stderr)
        except (ValueError, DerUndefinedError) as exc:
            if exc.args and isinstance(exc.args[0], str):
                exc.args = (f"session {session}: {exc.args[0]}",) \
                    + exc.args[1:]
            raise
        rows.append((session, report))
        counts.append(CountEstimate(session, len(refs[session].speakers),
                                    len(hyps[session].speakers)))

    mapd, poc = mapd_poc(counts)
    csv_text = report_csv(rows)
    sys.stdout.write(csv_text)
    print(f"speaker count: MAPD {mapd:.2f}%  POC {poc:.2f}%")
    print("mean cluster purity: "
          + (f"{float(np.mean(purities)):.4f}" if purities else "n/a"))
    if args.out is not None:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "scores.csv").write_text(csv_text)
        with open(out / "counts.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(COUNT_FIELDS)
            for est in counts:
                writer.writerow([est.session, est.true_k, est.est_k])
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deskdiar",
        description="Speaker diarization on precomputed segment embeddings: "
                    "synthetic corpora, latent-space embedding training, "
                    "clustering, and scoring.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="command")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="FILE",
                        help="flat key = value configuration file")
    common.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override one config key; repeatable, wins "
                             "over --config")
    common.add_argument("--seed", type=int, default=None, metavar="N",
                        help="base rng seed; wins over config")

    p = sub.add_parser("config", parents=[common],
                       help="print the effective configuration, annotated")
    p.add_argument("--out", metavar="FILE", default=None,
                   help="write to FILE instead of standard output")
    p.set_defaults(func=cmd_config)

    p = sub.add_parser("simulate", parents=[common],
                       help="generate a synthetic embedding corpus")
    p.add_argument("--out", required=True, metavar="DIR",
                   help="corpus output directory")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("train", parents=[common],
                       help="train the ClusterGAN embedding networks")
    p.add_argument("--data", required=True, metavar="DIR",
                   help="corpus directory written by simulate")
    p.add_argument("--out", required=True, metavar="DIR",
                   help="checkpoint output directory")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("finetune", parents=[common],
                       help="episodic fine-tuning of a trained encoder")
    p.add_argument("--data", required=True, metavar="DIR",
                   help="corpus directory written by simulate")
    p.add_argument("--encoder", required=True, metavar="FILE",
                   help="encoder checkpoint from train")
    p.add_argument("--out", required=True, metavar="DIR",
                   help="checkpoint output directory")
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("diarize", parents=[common],
                       help="cluster each session and emit hypothesis RTTM")
    p.add_argument("--data", required=True, metavar="DIR",
                   help="corpus directory written by simulate")
    p.add_argument("--out", required=True, metavar="DIR",
                   help="hypothesis output directory")
    p.add_argument("--embedding", choices=EMBED_SOURCES, default=None,
                   help="segment representation; wins over config")
    p.add_argument("--backend", choices=BACKENDS, default=None,
                   help="clustering backend; wins over config")
    p.add_argument("--known-k", default=None, metavar="K|oracle",
                   help="fix the speaker count, or 'oracle' to read each "
                        "session's count from the manifest")
    p.add_argument("--encoder", default=None, metavar="FILE",
                   help="encoder checkpoint for clustergan/mcgan/fused")
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="sessions diarized in parallel (default 1)")
    p.set_defaults(func=cmd_diarize)

    p = sub.add_parser("score", parents=[common],
                       help="score hypothesis RTTM against a reference")
    p.add_argument("--reference", required=True, metavar="FILE",
                   help="reference RTTM")
    p.add_argument("--hypothesis", required=True, metavar="FILE",
                   help="hypothesis RTTM")
    p.add_argument("--collar", type=float, default=None, metavar="S",
                   help="no-score collar in seconds; wins over config")
    p.add_argument("--out", metavar="DIR", default=None,
                   help="also write scores.csv and counts.csv here")
    p.set_defaults(func=cmd_score)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if not exc.code else EXIT_USAGE
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"deskdiar: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DerUndefinedError as exc:
        print(f"deskdiar: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (DivergenceError, ArithmeticError) as exc:
        print(f"deskdiar: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (OSError, ValueError) as exc:
        print(f"deskdiar: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
