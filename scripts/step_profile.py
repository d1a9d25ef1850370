"""Per-step cost of `deskdiar train` and `deskdiar finetune`.

Simulates a corpus with `deskdiar simulate --seed SEED` in a temporary
directory, then runs `deskdiar train` and `deskdiar finetune` on it in
this process. For every training iteration and every fine-tuning episode
it prints the wall time, the user CPU time, the minor page faults
(`getrusage`) and the process's peak RSS so far, then the median of each
column over the steps after the first two.

An iteration runs from its first critic step to the return of its joint
generator/encoder step, and an episode from its draw to the return of its
Adam step, so loading, the prefix map and checkpoint writing fall outside
every row. The steps are found by wrapping `gan.critic_step`,
`gan.gen_enc_step`, `protonet.sample_episode` and `protonet.adam_step`;
nothing in the package changes.

    PYTHONPATH=src python scripts/step_profile.py --seed 1 --iters 16 \\
        --episodes 16
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import List, Optional, Tuple

from deskdiar import cli, gan, protonet

WARM_STEPS = 2
COLUMNS = ("ms", "user_ms", "minflt", "peak_rss_mb")


def _snapshot() -> Tuple[float, float, int, float]:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return time.perf_counter(), r.ru_utime, r.ru_minflt, r.ru_maxrss / 1024.0


class StepClock:
    """Rows of (ms, user ms, minor faults, peak RSS MB), one per step."""

    def __init__(self) -> None:
        self.rows: List[Tuple[float, float, int, float]] = []
        self._start: Optional[Tuple[float, float, int, float]] = None

    def begin(self) -> None:
        if self._start is None:
            self._start = _snapshot()

    def end(self) -> None:
        t1, u1, f1, rss = _snapshot()
        t0, u0, f0, _ = self._start
        self.rows.append((1000.0 * (t1 - t0), 1000.0 * (u1 - u0),
                          f1 - f0, rss))
        self._start = None


def _around(module, name: str, before=None, after=None) -> None:
    fn = getattr(module, name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if before is not None:
            before()
        out = fn(*args, **kwargs)
        if after is not None:
            after()
        return out

    setattr(module, name, wrapper)


def _run(argv: List[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    if rc != 0:
        raise SystemExit(f"deskdiar {argv[0]} exited {rc}")


def _report(title: str, rows: List[Tuple[float, float, int, float]]) -> None:
    print(f"{title}\tstep\t" + "\t".join(COLUMNS))
    for i, (ms, user, flt, rss) in enumerate(rows, 1):
        print(f"{title}\t{i}\t{ms:.1f}\t{user:.1f}\t{flt}\t{rss:.1f}")
    steady = rows[WARM_STEPS:] or rows
    med = [statistics.median(col) for col in zip(*steady)]
    print(f"{title}\tmedian\t{med[0]:.1f}\t{med[1]:.1f}\t{med[2]:.0f}\t"
          f"{med[3]:.1f}")


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1,
                    help="seed of the simulated corpus (default 1)")
    ap.add_argument("--iters", type=int, default=16,
                    help="training iterations (default 16)")
    ap.add_argument("--episodes", type=int, default=16,
                    help="fine-tuning episodes (default 16)")
    args = ap.parse_args(argv)

    train, tune = StepClock(), StepClock()
    _around(gan, "critic_step", before=train.begin)
    _around(gan, "gen_enc_step", after=train.end)
    _around(protonet, "sample_episode", before=tune.begin)
    _around(protonet, "adam_step", after=tune.end)

    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        _run(["simulate", "--out", str(work / "corpus"),
              "--seed", str(args.seed)])
        _run(["train", "--data", str(work / "corpus"),
              "--out", str(work / "ckpt"), "--seed", str(args.seed),
              "--set", f"n_iter={args.iters}"])
        _run(["finetune", "--data", str(work / "corpus"),
              "--encoder", str(work / "ckpt" / "encoder.dkck"),
              "--out", str(work / "tuned"), "--seed", str(args.seed),
              "--set", f"episodes={args.episodes}"])
    _report("train", train.rows)
    _report("finetune", tune.rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
