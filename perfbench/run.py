"""froth1d benchmark: one workload, one run, one JSON line of results.

    python3 perfbench/run.py --workload quench --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports froth1d from its src/.
Set-up time is measured first, in fresh interpreters. Then the workload's
rounds run for --seconds of wall time, the last round to its end; every
round repeats the same seeded operations. Outputs are checked; the dense reference
sums run once, after the timed rounds. The last line printed is
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
--trace 0, the per-layer metrics (from spans around calls into froth1d)
with --trace 1. The line before it records the machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_LAUNCHES = 5
REF_IMPORT_S = 0.10   # setup_probe.py --reference on the reference machine
WORKLOAD_GAMMA = {"quench": 2e-2, "bounded": 1e-2, "pipeline": 1e-2}


# Environment every run starts from. BLAS and OpenMP run single-threaded
# (never more than nproc): with two OpenBLAS threads on the 2-core host the
# benchmark was built on, the 147,200-sample dot products of a fixed-bc
# descent took 0.3 to 1.5 s per descent, depending on what the other core
# was doing. glibc's mmap threshold is set to its static default, 128 KiB.
# Setting it turns off the adaptive threshold, under which the same plus-bc
# descent took 255 or 72,000 page faults depending on the heap's history in
# the process. Pinned at the default, every allocation of 128 KiB or more
# is mapped fresh each time, the regime a user starts in, so the cost of
# froth1d's large temporaries always shows.
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "MALLOC_MMAP_THRESHOLD_": "131072",
}


def pin_environment():
    """Re-execute this interpreter under PINNED_ENV unless already in it.

    The allocator reads its thresholds at process start, so setting them
    takes a fresh process; the set-up launches inherit them too.
    """
    if all(os.environ.get(k) == v for k, v in PINNED_ENV.items()):
        return
    os.environ.update(PINNED_ENV)
    os.execv(sys.executable, [sys.executable, *sys.argv])


def launch_probe(*args: str) -> dict:
    """Run setup_probe.py in a fresh interpreter; its JSON line."""
    proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure_setup(gamma: float):
    """Median set-up and import seconds over fresh-interpreter launches.

    Each launch follows a reference launch and is scaled by REF_IMPORT_S
    over the reference's import time. Over 60 launch pairs, medians of 5
    raw set-up times spread by 20% (interquartile range over median), of 5
    scaled ones by 4.5%.
    """
    setup, imports, scales = [], [], []
    for _ in range(SETUP_LAUNCHES):
        scale = REF_IMPORT_S / launch_probe("--reference")["reference_s"]
        doc = launch_probe("--gamma", repr(gamma))
        setup.append(doc["setup_s"] * scale)
        imports.append(doc["import_s"] * scale)
        scales.append(scale)
    return (statistics.median(setup), statistics.median(imports),
            statistics.median(scales))


def pin_cpu() -> tuple:
    """Run this process, and every process it starts, on one CPU.

    The speed probe then runs on the CPU the workload runs on. On the
    machine the benchmark was written on, with process and probe on one
    CPU, a quench round's scaled time spread by 7% over 28 rounds; with
    both free to move, by 19%. Returns the CPUs the process had before.
    """
    cpus = tuple(sorted(os.sched_getaffinity(0)))
    os.sched_setaffinity(0, {cpus[0]})
    return cpus


def machine_facts(cpus) -> dict:
    import numpy
    import scipy
    blas = {}
    try:
        cfg = numpy.show_config(mode="dicts")
        dep = cfg["Build Dependencies"]["blas"]
        blas = {"name": dep.get("name"), "version": dep.get("version")}
    except (KeyError, TypeError, ValueError):
        pass
    return {"nproc": len(cpus), "cpu_count": os.cpu_count(),
            "pinned_cpu": cpus[0],
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas, "environment": PINNED_ENV,
            "platform": platform.platform()}


def layer_metrics(tracer, workload, rounds: int, import_s: float,
                  round_s: float, scale: float) -> dict:
    """Per-layer metrics per round; times rescaled to the reference speed."""
    from tracing import DESCENT_SPANS, TRACED
    from workloads import SUBCOMMANDS
    agg, descent_e = tracer.summary()

    def per_round(x):
        return x / rounds

    def seconds(x):
        return scale * x / rounds

    out = {"setup.import_s": (import_s, "s")}
    for mod, fn in TRACED:
        name = f"{mod}.{fn}"
        if name not in DESCENT_SPANS:
            out[f"{name}.self_s"] = (seconds(agg[name]["self_s"]), "s")
    for name in ("energy.total_energy", "energy.energy_gradient",
                 "coarsegrain.coarse_grain"):
        out[f"{name}.calls"] = (per_round(agg[name]["calls"]), "count")
    eg = [agg["energy.total_energy"], agg["energy.energy_gradient"]]
    busy = sum(a["total_s"] for a in eg)
    out["energy.samples_per_s"] = (
        sum(a["size"] for a in eg) / (scale * busy) if busy else 0.0, "1/s")
    iters = workload.iterations_per_round
    e_calls = per_round(descent_e)
    out["minimize.iterations"] = (iters, "count")
    out["minimize.energy_evals_per_iter"] = (
        e_calls / iters if iters else 0.0, "ratio")
    out["minimize.backtracks"] = (
        e_calls - iters - workload.descents_per_round, "count")
    out["minimize.self_s"] = (
        seconds(sum(agg[n]["self_s"] for n in DESCENT_SPANS)), "s")
    out["profiles.bytes_written"] = (
        per_round(agg["profiles.save_profile"]["size"]), "B")
    for sub in SUBCOMMANDS:
        out[f"cli.{sub}.self_s"] = (seconds(agg[f"cli.{sub}"]["self_s"]), "s")
    out["trace.run_s"] = (round_s, "s")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOAD_GAMMA))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pin_environment()
    cpus = pin_cpu()
    src = ROOT / "src"
    if not (src / "froth1d" / "__init__.py").is_file():
        print(f"error: no froth1d sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    setup_s, import_s, setup_scale = measure_setup(WORKLOAD_GAMMA[args.workload])

    import froth1d
    if Path(froth1d.__file__).resolve().parent != (src / "froth1d").resolve():
        print(f"error: froth1d imported from {froth1d.__file__}", file=sys.stderr)
        return 2
    import workloads
    from speed import REF_S, Speed
    from tracing import Tracer

    workdir = ROOT / ".perfbench_run"
    workdir.mkdir(exist_ok=True)
    tag = f"{args.workload}-{args.seed}-{os.getpid()}"
    if args.workload == "pipeline":
        work = workloads.Pipeline(args.seed, workdir / tag)
    else:
        work = getattr(workloads, args.workload)(args.seed)

    tracer = Tracer() if args.trace else None
    records = []
    with Speed() as speed:
        if tracer:
            tracer.install()
        try:
            t_end = time.perf_counter() + args.seconds
            while time.perf_counter() < t_end or not records:
                records.append(work.run_round(tracer, speed))
        finally:
            if tracer:
                tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    late = work.deferred()
    attempted = failed = 0
    correct = True
    messages = set()
    for recs in records:
        for r in recs:
            attempted += 1
            fail = r.failure or late.get(r.label)
            if fail:
                failed += 1
                correct = correct and r.label in work.known_faults
                messages.add(f"{r.label}: {fail}")
    for msg in sorted(messages):
        print(f"failed {msg}", file=sys.stderr)

    # a round's times in seconds at the reference speed: each round is
    # rescaled by the median speed-probe time of its operations
    by_label = defaultdict(list)
    scales = []
    for recs in records:
        scale = REF_S / statistics.median(r.ref for r in recs if r.ref)
        scales.append(scale)
        for r in recs:
            if r.seconds is not None:
                by_label[r.label].append(r.seconds * scale)
    op_times = [t for times in by_label.values() for t in times]
    # a round's time, robust to bursts of machine noise: each operation's
    # median over the rounds, summed over the round's operations
    run_s = sum(statistics.median(times) for times in by_label.values())
    scale = statistics.median(scales)
    if tracer:
        tracer.dump(workdir / f"spans-{tag}.csv")
        metrics = layer_metrics(tracer, work, len(records), import_s, run_s,
                                scale)
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "run_s": (run_s, "s"),
            "op_p50_s": (statistics.median(op_times), "s"),
            "iters_per_s": (work.iters_per_s(run_s), "1/s"),
            "energy_ratio": (work.energy_ratio(), "1"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    work.cleanup()
    print(json.dumps({"machine": machine_facts(cpus), "workload": args.workload,
                      "seed": args.seed, "rounds": len(records),
                      "speed_scale": scale, "raw_run_s": run_s / scale,
                      "setup_scale": setup_scale,
                      "operations_timed": len(op_times)}))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
