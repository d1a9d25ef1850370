"""deskdiar benchmark: one workload per process, or all of them in turn.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]

A single run builds its inputs from the seed, sets up, then runs whole
rounds of the workload (see workloads.py) while another round still fits
in ``--seconds``, checks every output, and prints as its last line one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end metrics of BENCHMARK.json,
with ``--trace 1`` its per-layer metrics, from spans recorded around
deskdiar's functions. ``--all`` runs every workload untraced and then
traced, each in a fresh process, and prints every metric, the operations
attempted and failed, and the tracing overhead.

Run it from the root of a checkout; the package is imported from ``src``.
Results and spans go to ``perfbench/out/``.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 3


def process_age_s() -> float:
    """Seconds since this process started, from /proc where there is one."""
    try:
        fields = Path("/proc/self/stat").read_text().rsplit(")", 1)[1].split()
        start = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - start
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - T_START


def blas_info() -> dict:
    """Version and thread count of each OpenBLAS that numpy and scipy load."""
    import numpy
    import scipy
    info = {}
    for pkg in (numpy, scipy):
        libs = Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs"
        for path in sorted(glob.glob(str(libs / "*openblas*"))):
            lib = ctypes.CDLL(path)
            entry = {}
            for key, call, restype in (
                    ("threads", "get_num_threads", ctypes.c_int),
                    ("config", "get_config", ctypes.c_char_p)):
                for name in (f"scipy_openblas_{call}64_",
                             f"scipy_openblas_{call}", f"openblas_{call}"):
                    try:
                        fn = getattr(lib, name)
                    except AttributeError:
                        continue
                    fn.restype = restype
                    value = fn()
                    entry[key] = value.decode() if isinstance(value, bytes) \
                        else value
                    break
            info[pkg.__name__] = entry
    return info


def environment(seed: int) -> dict:
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": blas_info(),
        "seed": seed,
    }


def spec_names() -> tuple:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ([m["name"] for m in spec["end_to_end"]],
            [m["name"] for m in spec["per_layer"]],
            {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]},
            [w["name"] for w in spec["workloads"]])


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    if not (ROOT / "src" / "deskdiar" / "__init__.py").is_file():
        print(f"run.py: no deskdiar package under {ROOT / 'src'}; run from "
              "the root of a deskdiar checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads   # imports deskdiar
    boot_s = process_age_s()

    e2e_names, layer_names, units, _ = spec_names()
    spec = workloads.ROUNDS[workload]
    work = OUT / f"work-{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    tracer = None
    try:
        bench = workloads.Bench(work, seed)
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            corpus = work / "corpus"
            bench.corpus(corpus)
            inp = workloads.make_inputs(spec, seed, 0, work / "inputs0")
            warm = workloads.Bench(work / "warm", seed)
            warm.train(corpus, work / "warm" / "ckpt", 1, 0)
            warm.finetune(corpus, work / "warm" / "ckpt" / "encoder.dkck",
                          work / "warm" / "tuned", 1, 0)
            warm.diarize(workloads.inputs.diar_session(
                [seed, 99], "warm", 3, 30.0, 3), "short")
            warm_score = workloads.Round(0, 0, 0, 0, (), 0, ((0.1, False),))
            for item in workloads.make_inputs(warm_score, seed, 0,
                                              work / "warm" / "in").score:
                warm.score(*item)
            if warm.failed:
                raise RuntimeError("warm-up failed: " + "; ".join(warm.errors))
            setups.append(time.perf_counter() - t0)
        setup_s = boot_s + statistics.median(setups)

        if trace:
            from tracing import Tracer
            tracer = Tracer()
            tracer.install(workloads.traced_functions(layer_names))
            bench.tracer = tracer

        t0 = time.perf_counter()
        rounds = 0
        while True:
            if rounds:
                inp = workloads.make_inputs(spec, seed, rounds,
                                            work / f"inputs{rounds}")
            bench.run_round(spec, inp, corpus, rounds)
            rounds += 1
            elapsed = time.perf_counter() - t0
            if elapsed + elapsed / rounds > seconds:
                break
        measured_s = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    e2e = bench.end_to_end()
    e2e["setup_s"] = setup_s
    e2e["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if trace:
        values = bench.per_layer(layer_names, e2e)
        names = layer_names
    else:
        values = e2e
        names = e2e_names
        # no wrapper may be left in the untraced run
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("deskdiar"):
                for attr, value in vars(mod).items():
                    if hasattr(value, "span_name"):
                        bench.errors.append(f"{mod_name}.{attr} is wrapped")
    missing = [n for n in names if n not in values]

    env = environment(seed)
    result = {
        "correct": not bench.errors,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {n: {"value": values[n], "unit": units[n]}
                    for n in names if n in values},
    }
    OUT.mkdir(exist_ok=True)
    record = dict(result, workload=workload, trace=trace, rounds=rounds,
                  measured_s=measured_s, environment=env,
                  samples=bench.samples, errors=bench.errors, missing=missing,
                  absent=tracer.absent if tracer else [])
    if tracer is not None:
        record["spans"] = tracer.spans
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    (OUT / f"{stem}.json").write_text(json.dumps(record) + "\n")

    for err in bench.errors:
        print(f"CHECK FAILED: {err}", file=sys.stderr)
    print(f"workload={workload} seed={seed} trace={int(trace)} "
          f"rounds={rounds} measured={measured_s:.1f}s nproc={env['nproc']} "
          f"python={env['python']} numpy={env['numpy']} "
          f"scipy={env['scipy']} openblas={json.dumps(env['openblas'])}")
    if missing:
        print("not measured: " + ", ".join(missing))
    if tracer is not None and tracer.absent:
        print("absent from the trace: " + ", ".join(tracer.absent))
    print(json.dumps(result))
    return 0


def run_all(seed: int, seconds: float) -> int:
    """Each workload untraced, then traced, each in a fresh process."""
    e2e_names, _, units, workload_names = spec_names()
    status = 0
    results = {}
    for name in workload_names:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()),
                 "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            for line in lines[:-1]:
                print(line)
            if proc.returncode != 0 or not lines:
                print(f"{name} trace={trace}: exit {proc.returncode}")
                status = 1
                continue
            results[name, trace] = res = json.loads(lines[-1])
            if not res["correct"]:
                status = 1
    print()
    print(f"{'workload':<14} {'metric':<22} {'unit':<6} {'value':>12} "
          f"{'traced':>12} {'overhead':>10}")
    for name in workload_names:
        plain = results.get((name, 0))
        traced = results.get((name, 1))
        if plain is None:
            continue
        for metric in e2e_names:
            value = plain["metrics"].get(metric, {}).get("value")
            t = (traced or {}).get("metrics", {}).get(f"traced.{metric}",
                                                      {}).get("value")
            cells = [f"{v:.5g}" if v is not None else "-" for v in (value, t)]
            cells.append("-" if None in (value, t) else f"{t - value:+.4g}")
            print(f"{name:<14} {metric:<22} {units[metric]:<6} "
                  f"{cells[0]:>12} {cells[1]:>12} {cells[2]:>10}")
        print(f"{name:<14} attempted {plain['attempted']} failed "
              f"{plain['failed']} correct {plain['correct']}")
    return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--all", action="store_true",
                   help="run every workload, untraced then traced")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "BENCHMARK.json").is_file():
        print(f"run.py: no BENCHMARK.json in {ROOT}", file=sys.stderr)
        return 2
    if args.all:
        return run_all(args.seed, args.seconds)
    _, _, _, workload_names = spec_names()
    if args.workload not in workload_names:
        p.error(f"--workload must be one of {', '.join(workload_names)}")
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
