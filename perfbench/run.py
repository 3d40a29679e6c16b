"""momgas benchmark: one closed-loop workload per run, every operation
checked against an independent oracle.

    python3 perfbench/run.py --workload ring|exact|gaudin|cli --seed N
                             --seconds S --trace 0|1

Run from the root of a checkout: the package is imported from ./src.
With --trace 0 it prints the end-to-end metrics of BENCHMARK.json, with
--trace 1 the per-layer metrics of a separate traced run.  Human-readable
lines come first; the last line of stdout is the JSON result.

Load is one client in one process (plus, for `cli`, the one child process
the client waits for), and BLAS is pinned to one thread.  `setup_s` is the
median over SETUP_PROBES fresh workload processes.  Bytecode caches go to
.perfbench-out/ in the checkout, so nothing is written outside it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

from layers import LAYER_MAP
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))

SETUP_PROBES = 3
TAIL_PERCENTILE = 90
RUN_BUDGET_S = 170.0      # a run must end within 180 s
OUT_DIR = ".perfbench-out"

PREFLIGHT = """
import json, platform, momgas, numpy, scipy, mpmath
print(json.dumps({"file": momgas.__file__, "version": momgas.__version__,
                  "python": platform.python_version(), "numpy": numpy.__version__,
                  "scipy": scipy.__version__, "mpmath": mpmath.__version__}))
"""


class BenchError(Exception):
    """The benchmark could not produce a result."""


def worker_env(root):
    env = dict(os.environ)
    env.pop("MOMGAS_OUTPUT", None)             # would redirect every CLI record
    env.pop("PYTHONDONTWRITEBYTECODE", None)   # caches live in the checkout
    env.update(PYTHONPATH=os.path.join(root, "src"),
               PYTHONPYCACHEPREFIX=os.path.join(root, OUT_DIR, "pycache"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def run_child(cmd, env, deadline):
    """Run cmd in its own process group; kill the group if it overruns."""
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{cmd[1]} overran the {RUN_BUDGET_S:.0f} s run budget")
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd[:3])} exited {proc.returncode}:\n{err[-3000:]}")
    return out


def percentile(values, p):
    """Nearest-rank percentile: the ceil(p/100 * n)-th smallest value.  A
    run holds whole rounds of one fixed mix, so this picks the same
    operation level however many rounds fit (interpolation would not)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def metric_block(values, spec):
    """The metrics named in `spec` (a BENCHMARK.json list), in its order."""
    names = [m["name"] for m in spec]
    if set(values) != set(names):
        raise BenchError(f"metrics {sorted(set(values) ^ set(names))} disagree with BENCHMARK.json")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    deadline = time.monotonic() + RUN_BUDGET_S
    if not os.path.isfile(os.path.join(root, "src", "momgas", "__init__.py")):
        raise BenchError(f"no src/momgas package under {root}: run from a momgas checkout")
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    env = worker_env(root)
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    python = sys.executable

    info = json.loads(run_child([python, "-c", PREFLIGHT], env, deadline).splitlines()[-1])
    src = os.path.realpath(os.path.join(root, "src"))
    if not os.path.realpath(info["file"]).startswith(src + os.sep):
        raise BenchError(f"momgas resolves to {info['file']}, not to {src}")

    tmpdir = tempfile.mkdtemp(prefix="run-", dir=os.path.join(root, OUT_DIR))
    try:
        def spawn(mode):
            cmd = [python, os.path.join(HERE, "worker.py"), "--root", root,
                   "--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", repr(args.seconds), "--mode", mode,
                   "--version", info["version"], "--tmpdir", tmpdir]
            cmd += ["--t0", repr(time.monotonic())]
            return json.loads(run_child(cmd, env, deadline).splitlines()[-1])

        if args.trace:
            result = spawn("trace")
        else:
            setups = [spawn("setup")["setup_s"] for _ in range(SETUP_PROBES - 1)]
            result = spawn("run")
            setups.append(result["setup_s"])
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    nproc = len(os.sched_getaffinity(0))
    threads = result["blas_threads"]
    if threads is not None and threads > nproc:
        raise BenchError(f"BLAS runs {threads} threads on {nproc} processors")
    attempted, failed = result["attempted"], result["failed"]
    lines = [
        f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace}",
        f"provenance: python {info['python']}, numpy {info['numpy']}, scipy {info['scipy']}, "
        f"mpmath {info['mpmath']}, BLAS threads {threads} (nproc {nproc}), "
        f"momgas {info['version']} from {os.path.relpath(info['file'], root)}",
        f"mix: {' '.join(WORKLOADS[args.workload].__doc__.split())}",
        f"operations: {attempted} attempted, {failed} failed (failed_frac "
        f"{failed / attempted:.4g}; an operation fails if it raises, exits non-zero or "
        f"fails its oracle) in {result['rounds']} rounds",
    ]
    lines += [f"  failure: {e}" for e in result["errors"]]

    if args.trace:
        values = result["layers"]
        metrics = metric_block(values, bench["per_layer"])
        lines.append(f"default-tolerance probes: {values['bethe.solve_bethe.failed']} of 2 "
                     "solve_bethe calls at the library default tol=1e-13 (N = 256, 512; "
                     "rho = 1, lambda = 1) raise ConvergenceError")
        lines.append(f"spans of the traced loop: {result['spans_file']}")
        lines.append("not measured: gaudin draw at N = 8 (minutes per draw), bethe_residuals "
                     "at N = 4096 (about 100 s per call)")
        lines.append("layer -> metrics -> should move:")
        lines += [f"  {layer}: {names} -> {moves}" for layer, names, moves in LAYER_MAP]
    else:
        latencies = result["latencies"]
        if not latencies:
            raise BenchError("no operation passed its oracle:\n" + "\n".join(result["errors"]))
        values = {
            "verified_per_s": (attempted - failed) / result["wall"],
            "op_p50_ms": percentile(latencies, 50) * 1000.0,
            "op_tail_ms": percentile(latencies, TAIL_PERCENTILE) * 1000.0,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        metrics = metric_block(values, bench["end_to_end"])
        above = sum(1 for x in latencies if x * 1000.0 > values["op_tail_ms"])
        lines.append(f"latency samples {len(latencies)}; op_tail_ms is p{TAIL_PERCENTILE} "
                     f"({above} samples above); wall {result['wall']:.3f} s; "
                     f"setup samples {', '.join(f'{s:.4f}' for s in setups)} s")
    lines += [f"  {name} = {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    print("\n".join(lines))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(1)
