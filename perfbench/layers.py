"""Per-layer metrics of the traced run.

Two sources:

* the traced closed loop: calls and self time of every wrapped public
  function, averaged per round of the workload's fixed mix (so a faster
  commit that fits more rounds into the run stays comparable), zero where
  the workload does not reach the layer;
* curves measured the same way in every traced run, whatever the
  workload: the import breakdown, the Bethe scaling sweep, the exact
  checks over N = 3..6, one Gaudin draw at N = 5, 6, 7 and the
  default-tolerance probes.

`LAYER_MAP` is the layer-to-metric table: which end-to-end metric on which
workload each layer's numbers should move, and where they should stay flat.
"""

from __future__ import annotations

import random
import statistics
import subprocess
from fractions import Fraction
from time import perf_counter

from spans import MP_EXP, Tracer, aggregate, count_under
from workloads import check_gaudin_row

SWEEP_TOL = 1e-11

LAYER_MAP = [
    ("import", "import.*, cli.interpreter_ms",
     "op_p50_ms/verified_per_s on cli; setup_s everywhere; flat otherwise on ring/exact/gaudin"),
    ("cli", "cli.main.self_ms", "op_p50_ms on cli"),
    ("bethe (ring)", "bethe.solve_*, bethe.bethe_residuals.*, bethe.duality_check.self_ms, "
     "bethe.ground_state_scan.self_ms, bethe.verify_share, bethe.newton_steps",
     "verified_per_s/op_tail_ms on ring; flat on exact/gaudin"),
    ("bethe (scaling)", "bethe.*.n256/n1024/n4096_ms, bethe.newton_steps.n4096", "op_tail_ms on ring"),
    ("bethe (Gaudin)", "bethe.gaudin_*, bethe.schrodinger_residual.*, bethe.mp_exp_calls",
     "verified_per_s/op_tail_ms on gaudin; flat on ring/exact"),
    ("twobody", "twobody.*", "op_p50_ms on gaudin (small share)"),
    ("yang_baxter", "yang_baxter.*", "verified_per_s/op_tail_ms/peak_rss_mb on exact; flat on ring"),
    ("nonrel", "nonrel.*", "negligible; a regression shows on cli"),
    ("regularize", "regularize.*", "op_tail_ms on cli (the reg-bound-state process)"),
    ("trace", "trace.overhead_frac", "-"),
]


def loop_layers(spans, counts, rounds):
    """Per-round calls and self milliseconds of the traced loop."""
    agg = aggregate(spans)

    def calls(name):
        return agg[name][0] / rounds if name in agg else 0.0

    def self_ms(name):
        return agg[name][1] * 1000.0 / rounds if name in agg else 0.0

    m = {"cli.main.self_ms": self_ms("cli.main")}
    for name in ("bethe.solve_bethe", "bethe.solve_lieb_liniger", "bethe.bethe_residuals",
                 "bethe.schrodinger_residual", "twobody.bc_residual",
                 "regularize.regularized_integral"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_ms"] = self_ms(name)
    for name in ("bethe.duality_check", "bethe.ground_state_scan", "bethe.gaudin_residual_scan",
                 "bethe.gaudin_wavefunction", "twobody.two_body_residual",
                 "yang_baxter.yb_defect", "yang_baxter.check_unitarity",
                 "yang_baxter.delta_control_defect", "yang_baxter.check_delta_unitarity",
                 "nonrel.vertex_expansion_scan", "nonrel.dispersion_scan",
                 "regularize.bound_state_energy_via_regularization"):
        m[f"{name}.self_ms"] = self_ms(name)
    for name in ("yang_baxter.yang_op", "yang_baxter.regular_rep"):
        m[f"{name}.calls"] = calls(name)
    solve = m["bethe.solve_bethe.self_ms"] + m["bethe.solve_lieb_liniger.self_ms"]
    verify = m["bethe.bethe_residuals.self_ms"]
    m["bethe.verify_share"] = verify / (solve + verify) if solve + verify else 0.0
    m["bethe.mp_exp_calls"] = counts.get(MP_EXP, 0) / rounds
    energy = "regularize.bound_state_energy_via_regularization"
    m["regularize.integrals_per_energy"] = (
        count_under(spans, "regularize.regularized_integral", energy) / agg[energy][0]
        if energy in agg else 0.0)
    return m


def smallest_max_iter(solve, guess, error):
    """Smallest max_iter at which solve(max_iter) succeeds (success is
    monotone in max_iter), and the seconds the succeeding call took."""

    def attempt(m):
        start = perf_counter()
        try:
            solve(m)
        except error:
            return None
        return perf_counter() - start

    m, seconds = guess, attempt(guess)
    while seconds is None:
        m += 1
        if m > 200:
            raise RuntimeError("no max_iter up to 200 converges")
        seconds = attempt(m)
    while m > 1:
        lower = attempt(m - 1)
        if lower is None:
            break
        m, seconds = m - 1, lower
    return m, seconds


def import_breakdown(python, env, runs=3):
    """Median cumulative import times from `python -X importtime`, and the
    interpreter floor of a bare `python -c pass`."""
    samples = []
    for _ in range(runs):
        proc = subprocess.run([python, "-X", "importtime", "-c", "import momgas"],
                              env=env, capture_output=True, text=True, timeout=60, check=True)
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative.setdefault(parts[2].strip(), int(parts[1]))
        samples.append(cumulative)
    floor = []
    for _ in range(2 * runs):
        start = perf_counter()
        subprocess.run([python, "-c", "pass"], env=env, check=True, timeout=60)
        floor.append(perf_counter() - start)

    def median_ms(module):
        return statistics.median(s.get(module, 0) for s in samples) / 1000.0

    return {"import.total_ms": median_ms("momgas"), "import.numpy_ms": median_ms("numpy"),
            "import.scipy_integrate_ms": median_ms("scipy.integrate"),
            "import.mpmath_ms": median_ms("mpmath"),
            "cli.interpreter_ms": statistics.median(floor) * 1000.0}


def bethe_sweep(lib):
    """solve_bethe and bethe_residuals at rho = 1, lambda = 1, tol = 1e-11;
    N = 4096 is timed at the smallest converging max_iter, which does the
    same work as the default and also gives the Newton step count."""
    m = {}
    for n in (256, 1024):
        start = perf_counter()
        state = lib.solve_bethe(n, float(n), 1.0, tol=SWEEP_TOL)
        m[f"bethe.solve_bethe.n{n}_ms"] = (perf_counter() - start) * 1000.0
        start = perf_counter()
        lib.bethe_residuals(state)
        m[f"bethe.bethe_residuals.n{n}_ms"] = (perf_counter() - start) * 1000.0
    steps, seconds = smallest_max_iter(
        lambda it: lib.solve_bethe(4096, 4096.0, 1.0, tol=SWEEP_TOL, max_iter=it),
        5, lib.ConvergenceError)
    m["bethe.solve_bethe.n4096_ms"] = seconds * 1000.0
    m["bethe.newton_steps.n4096"] = steps
    return m


def default_tol_probes(lib):
    """solve_bethe at the library default tolerance, N = 256 and 512,
    rho = 1, lambda = 1: the number that raise ConvergenceError."""
    failed = 0
    for n in (256, 512):
        try:
            lib.solve_bethe(n, float(n), 1.0)
        except lib.ConvergenceError:
            failed += 1
    return {"bethe.solve_bethe.failed": failed}


def exact_sweep(seed):
    from momgas import yang_baxter
    rng = random.Random(f"{seed}/exact-sweep")
    u, v, lam = (Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(3))
    m = {}
    for n in (3, 4, 5, 6):
        start = perf_counter()
        defect = yang_baxter.yb_defect(1, u, v, lam, n)
        m[f"yang_baxter.yb_defect.n{n}_ms"] = (perf_counter() - start) * 1000.0
        if defect.is_zero:
            raise AssertionError(f"zero Yang-Baxter defect at N = {n}")
    return m


def gaudin_sweep(lib, seed):
    """One Gaudin draw at N = 5, 6, 7; schrodinger_residual self time per N.
    N = 8 takes minutes per draw at this commit and is not measured."""
    rng = random.Random(f"{seed}/gaudin-sweep")
    tracer = Tracer()
    tracer.install()
    try:
        for n in (5, 6, 7):
            tracer.op = n
            check_gaudin_row(lib.gaudin_residual_scan(n, 1, seed=rng.getrandbits(32))[0])
    finally:
        tracer.uninstall()
    m = {}
    for n in (5, 6, 7):
        agg = aggregate(tracer.spans, keep=lambda op: op == n)
        m[f"bethe.schrodinger_residual.n{n}_ms"] = agg["bethe.schrodinger_residual"][1] * 1000.0
    return m


def curves(lib, python, env, seed):
    m = import_breakdown(python, env)
    m.update(bethe_sweep(lib))
    m.update(default_tol_probes(lib))
    m.update(exact_sweep(seed))
    m.update(gaudin_sweep(lib, seed))
    return m
