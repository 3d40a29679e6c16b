"""One workload process: set-up, then one closed loop, or the traced run.

    python perfbench/worker.py --root DIR --workload NAME --seed N
        --seconds S --t0 T --mode setup|run|trace --version V --tmpdir DIR

`--t0` is the parent's `time.monotonic()` just before it started this
process (CLOCK_MONOTONIC is shared by all processes), so `setup_s` covers
interpreter start, imports, input generation and the warm-up calls.
The result is printed as one JSON line on stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from time import perf_counter

from layers import curves, loop_layers, smallest_max_iter
from spans import Tracer
from workloads import import_momgas, make_workload


def closed_loop(workload, seconds, first_round, tracer=None):
    """Run whole rounds, one operation at a time, while another half round
    still fits into `seconds`.  Failures are counted, never retried."""
    latencies, errors = [], []
    attempted = failed = 0
    start = perf_counter()
    rounds = 0
    while True:
        ops = first_round if rounds == 0 else workload.round(rounds)
        for op in ops:
            if tracer is not None:
                tracer.op = attempted
            attempted += 1
            began = perf_counter()
            try:
                out = workload.run(op)
                took = perf_counter() - began
                if tracer is not None:
                    tracer.op = None      # oracle work is not the operation's
                workload.check(op, out)
            except Exception as exc:   # every failure is counted and reported
                failed += 1
                errors.append(f"{op[0]}: {type(exc).__name__}: {exc}"[:300])
                continue
            latencies.append(took)
        rounds += 1
        elapsed = perf_counter() - start
        if elapsed + 0.5 * elapsed / rounds > seconds:
            break
    return {"latencies": latencies, "attempted": attempted, "failed": failed,
            "errors": errors[:20], "wall": elapsed, "rounds": rounds,
            "last_round": ops}


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return own / 1024.0, children / 1024.0


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    import ctypes
    import numpy  # noqa: F401  (loads the BLAS library)
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return getter()
    return None


def tracing_overhead(workload, ops, cli):
    """Traced over untraced time of the same operations, minus one; each
    operation runs untraced and then traced back to back, so a change in
    machine speed during the run hits both sides alike."""
    times = [0.0, 0.0]
    for op in ops:
        for traced in (False, True):
            tracer = Tracer()
            if traced and cli:
                workload.traced = []
            elif traced:
                tracer.install()
            began = perf_counter()
            try:
                out = workload.run(op)
            finally:
                times[traced] += perf_counter() - began
                tracer.uninstall()
                if cli:
                    workload.traced = None
            workload.check(op, out)
    return times[True] / times[False] - 1.0


def traced_run(workload, args, first_round):
    tracer = Tracer()
    if args.workload == "cli":
        workload.traced = []          # spans come from the driver processes
    else:
        tracer.install()
    try:
        loop = closed_loop(workload, args.seconds, first_round, tracer)
    finally:
        tracer.uninstall()
    if args.workload == "cli":
        spans, counts = [], {}
        for op, record in enumerate(workload.traced):
            offset = len(spans)
            for name, start, end, parent, _, failed in record["spans"]:
                spans.append([name, start, end, parent + offset if parent >= 0 else -1, op, failed])
            for key, value in record["counts"].items():
                counts[key] = counts.get(key, 0) + value
        workload.traced = None
    else:
        spans, counts = tracer.spans, tracer.counts
    spans_file = os.path.join(os.path.dirname(args.tmpdir),
                              f"spans-{args.workload}-{args.seed}.json")
    with open(spans_file, "w") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "op", "failed"],
                   "spans": spans}, fh)

    lib = import_momgas(args.root)
    layers = loop_layers(spans, counts, loop["rounds"])
    layers["trace.overhead_frac"] = tracing_overhead(workload, loop["last_round"],
                                                     args.workload == "cli")
    steps = 0
    if args.workload == "ring":
        for kind, p in first_round:
            if kind in ("bethe-solve", "ll-solve"):
                steps += smallest_max_iter(lambda it: workload.solve(kind, p, max_iter=it),
                                           5, lib.ConvergenceError)[0]
    layers["bethe.newton_steps"] = steps
    layers.update(curves(lib, sys.executable, workload.env, args.seed))
    return {"attempted": loop["attempted"], "failed": loop["failed"], "errors": loop["errors"],
            "rounds": loop["rounds"], "layers": layers,
            "spans_file": os.path.relpath(spans_file, args.root)}


def main():
    parser = argparse.ArgumentParser()
    for flag in ("--root", "--workload", "--mode", "--version", "--tmpdir"):
        parser.add_argument(flag, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--t0", type=float, required=True)
    args = parser.parse_args()

    workload = make_workload(args.workload, args.root, args.seed, dict(os.environ),
                             args.version, args.tmpdir)
    workload.setup()
    first_round = workload.round(0)
    setup_s = time.monotonic() - args.t0
    if args.mode == "setup":
        result = {"setup_s": setup_s}
    elif args.mode == "run":
        loop = closed_loop(workload, args.seconds, first_round)
        own, children = peak_rss_mb()
        del loop["last_round"]
        result = dict(loop, setup_s=setup_s,
                      peak_rss_mb=children if args.workload == "cli" else own)
    else:
        result = traced_run(workload, args, first_round)
    if args.mode != "setup":
        result["blas_threads"] = blas_threads()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
