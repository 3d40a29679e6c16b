"""The four benchmark workloads: seeded inputs, the operations, and the
oracle each operation's output is checked against.

Every workload is a closed loop over *rounds*.  A round is a fixed,
stratified mix of operations whose parameters are drawn from
``random.Random(f"{seed}/{workload}/{round}")``; the order inside a round
is shuffled by the same generator.  Stratifying the expensive dimension
(N) keeps the cost of a round nearly seed-independent, so whole-round
throughput and fixed percentiles stay steady from seed to seed.

Oracles never trust the library's own verdict alone: ring roots are
re-checked with an independent vectorised residual and the free-fermion
energy bound, exact defects against the N = 3 value of the same triple,
and CLI records against closed forms.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction


class OracleError(AssertionError):
    """An operation finished but its output failed the oracle."""


def require(condition, message):
    if not condition:
        raise OracleError(message)


def close(a, b, rel=1e-12, abs_=0.0):
    return abs(a - b) <= max(rel * max(abs(a), abs(b)), abs_)


def import_momgas(root):
    """Import the checkout's momgas (src/ first on sys.path) and make sure
    it is that copy, not an installed one."""
    src = os.path.join(root, "src")
    if sys.path[0] != src:
        sys.path.insert(0, src)
    import momgas
    here = os.path.realpath(momgas.__file__)
    require(here.startswith(os.path.realpath(src) + os.sep),
            f"momgas imported from {here}, not from {src}")
    return momgas


class Workload:
    name = ""

    def __init__(self, root, seed, env):
        self.root = root
        self.seed = seed
        self.env = env

    def rng(self, r):
        return random.Random(f"{self.seed}/{self.name}/{r}")

    def setup(self):
        """Import what the operations need and run one untimed call of each
        operation kind."""


# ---------------------------------------------------------------------------
# ring: Bethe solves and their verification


RING_SOLVE_TOL = 1e-11
RING_GRID = 7          # one solve per octave of N in [16, 1024]
RING_SMALL = 8         # duality / gs-scan draws per round, N in [16, 64]


def ring_free_energy(n, box):
    """Free-fermion ground-state energy, an upper bound for every repulsive
    ring ground state (the roots are compressed towards zero)."""
    return sum((2.0 * math.pi * (j - (n + 1) / 2.0) / box) ** 2
               for j in range(1, n + 1))


def check_gs_rows(rows, sizes, rho):
    require([row["n"] for row in rows] == sizes, "wrong sizes")
    for row in rows:
        box = row["n"] / rho
        require(close(row["box_length"], box), "box length != n/rho")
        require(close(row["energy_density"], row["energy"] / box), "density != E/L")
        require(0.0 < row["energy"] <= ring_free_energy(row["n"], box) * (1 + 1e-12),
                "energy outside (0, free-fermion energy]")


class Ring(Workload):
    """Ops: 'bethe-solve' and 'll-solve' each at N = 16 * 2**j (j = 0..6,
    jittered by +-3.5%), lambda (or c = 1/lambda) stratified log-uniform in
    [0.01, 10]; plus 8 'duality' and 8 'gs-scan' draws at N and lambda
    stratified log-uniform in [16, 64] x [0.01, 10].  duality_check and
    ground_state_scan have no tol argument and run at the library default,
    which converges at these N only (see the default-tolerance probes in
    the traced run)."""

    name = "ring"

    def setup(self):
        import numpy as np
        self.np = np
        self.lib = import_momgas(self.root)
        for op in (("bethe-solve", {"n": 16, "box": 16.0, "lam": 1.0}),
                   ("ll-solve", {"n": 16, "box": 16.0, "lam": 1.0}),
                   ("duality", {"n": 16, "box": 16.0, "lam": 1.0}),
                   ("gs-scan", {"n": 16, "box": 16.0, "lam": 1.0})):
            self.check(op, self.run(op))

    def round(self, r):
        rng = self.rng(r)
        ops = []
        for kind in ("bethe-solve", "ll-solve"):
            strata = rng.sample(range(RING_GRID), RING_GRID)
            for j in range(RING_GRID):
                n = min(1024, max(16, round(16 * 2 ** (j + rng.uniform(-0.05, 0.05)))))
                lam = 10.0 ** (-2.0 + 3.0 * (strata[j] + rng.random()) / RING_GRID)
                ops.append((kind, {"n": n, "box": n / rng.uniform(0.5, 2.0), "lam": lam}))
        for kind in ("duality", "gs-scan"):
            strata = rng.sample(range(RING_SMALL), RING_SMALL)
            for m in range(RING_SMALL):
                n = round(16 * 4 ** ((m + rng.random()) / RING_SMALL))
                lam = 10.0 ** (-2.0 + 3.0 * (strata[m] + rng.random()) / RING_SMALL)
                ops.append((kind, {"n": n, "box": n / rng.uniform(0.5, 2.0), "lam": lam}))
        rng.shuffle(ops)
        return ops

    def solve(self, kind, p, **kw):
        lib = self.lib
        if kind == "bethe-solve":
            return lib.solve_bethe(p["n"], p["box"], p["lam"], tol=RING_SOLVE_TOL, **kw)
        return lib.solve_lieb_liniger(p["n"], p["box"], 1.0 / p["lam"],
                                      tol=RING_SOLVE_TOL, **kw)

    def run(self, op):
        kind, p = op
        lib = self.lib
        if kind in ("bethe-solve", "ll-solve"):
            state = self.solve(kind, p)
            return state, lib.bethe_residuals(state)
        if kind == "duality":
            return lib.duality_check(p["n"], p["box"], p["lam"])
        n = p["n"]
        rho = n / p["box"]
        return lib.ground_state_scan(rho, p["lam"], [n // 4, n // 2, n])

    def independent_residual(self, state):
        # exp(i k_j L) against the product form of the quantization
        # condition, vectorised; shares no code with the solver's log form
        np = self.np
        k = np.asarray(state.momenta)
        n = len(k)
        if state.model == "fermion":
            c, prefactor = 1.0 / state.coupling, (-1.0) ** n
        else:
            c, prefactor = state.coupling, 1.0
        prefactor *= math.cos(state.boundary_phase)
        d = k[:, None] - k[None, :]
        factors = (d + 1j * c) / (d - 1j * c)
        np.fill_diagonal(factors, 1.0)
        rhs = prefactor * factors.prod(axis=1)
        return float(np.max(np.abs(np.exp(1j * k * state.box_length) / rhs - 1.0)))

    def check(self, op, out):
        kind, p = op
        np = self.np
        if kind in ("bethe-solve", "ll-solve"):
            state, residuals = out
            k = np.asarray(state.momenta)
            require(len(k) == p["n"], "wrong number of roots")
            require(float(np.max(residuals)) <= 1e-9, f"bethe_residuals {np.max(residuals):.3g}")
            require(bool(np.all(np.diff(k) > 0)), "roots not strictly ordered")
            require(self.independent_residual(state) <= 1e-9, "independent residual > 1e-9")
            require(0.0 < state.energy <= ring_free_energy(p["n"], p["box"]) * (1 + 1e-12),
                    "energy outside (0, free-fermion energy]")
        elif kind == "duality":
            fer, bos = np.asarray(out["fermion_roots"]), np.asarray(out["boson_roots"])
            require(len(fer) == p["n"] and len(bos) == p["n"], "wrong number of roots")
            require(float(np.max(np.abs(fer - bos))) <= 1e-10, "duality mismatch > 1e-10")
            require(bool(np.all(np.diff(fer) > 0)), "fermion roots not strictly ordered")
            require(out["eta_follows_parity_rule"] is True, "eta off the parity rule")
        else:
            n = p["n"]
            check_gs_rows(out, [n // 4, n // 2, n], n / p["box"])


# ---------------------------------------------------------------------------
# exact: Fraction arithmetic in the Yang-Baxter checks


def small_rational(rng):
    return Fraction(rng.randint(1, 9), rng.randint(1, 9))


def large_rational(rng):
    return Fraction(rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 6))


def generic_triple(rng, large):
    draw = large_rational if large else small_rational
    while True:
        u = draw(rng) * rng.choice((1, -1))
        v = draw(rng) * rng.choice((1, -1))
        if u + v != 0:
            return u, v, draw(rng)


class Exact(Workload):
    """Ops: 'yb-check' (yb_defect, four check_unitarity, both projections)
    and 'delta-control' (delta_control_defect, four check_delta_unitarity)
    at each N in {3, 4, 5, 6}, site i uniform in 1..N-2; per N one kind
    gets small rationals (|num|, den <= 9), the other values up to 1e6,
    swapping every round."""

    name = "exact"

    def setup(self):
        import_momgas(self.root)
        from momgas import yang_baxter
        self.yb = yang_baxter
        self.reference = {}
        one, two = Fraction(1), Fraction(2)
        for kind in ("yb-check", "delta-control"):
            op = (kind, {"n": 3, "i": 1, "u": one, "v": two, "x": one})
            self.check(op, self.run(op))

    def round(self, r):
        rng = self.rng(r)
        ops = []
        for n in (3, 4, 5, 6):
            small_kind = ("yb-check", "delta-control")[(n + r) % 2]
            for kind in ("yb-check", "delta-control"):
                # x is lambda for yb-check and c for delta-control
                u, v, x = generic_triple(rng, large=kind != small_kind)
                ops.append((kind, {"n": n, "i": rng.randint(1, n - 2), "u": u, "v": v, "x": x}))
        rng.shuffle(ops)
        return ops

    def run(self, op):
        kind, p = op
        yb = self.yb
        n, i, u, v, x = p["n"], p["i"], p["u"], p["v"], p["x"]
        if kind == "yb-check":
            unitary = [yb.check_unitarity(site, arg, x, n) for site in (i, i + 1) for arg in (u, v)]
            defect = yb.yb_defect(i, u, v, x, n)
            return (unitary, defect, yb.trivial_projection(defect.matrix),
                    yb.sign_projection(defect.matrix))
        unitary = [yb.check_delta_unitarity(site, arg, x, n)
                   for site in (i, i + 1) for arg in (u, v)]
        return unitary, yb.delta_control_defect(i, u, v, x, n)

    def n3_abs2(self, u, v, lam):
        # the defect lives in the group algebra of <T_i, T_{i+1}>, so its
        # largest entry is the same at every N as at N = 3
        key = (u, v, lam)
        if key not in self.reference:
            self.reference[key] = self.yb.yb_defect(1, u, v, lam, 3).max_entry.abs2()
        return self.reference[key]

    def check(self, op, out):
        kind, p = op
        if kind == "yb-check":
            unitary, defect, trivial, sign = out
            require(all(v is True for v in unitary), "unitarity fails")
            require(trivial.is_zero and sign.is_zero, "nonzero scalar projection")
            require(not defect.is_zero, "zero Yang-Baxter defect at a generic triple")
            require(defect.max_entry.abs2() == self.n3_abs2(p["u"], p["v"], p["x"]),
                    "largest defect entry differs from the N = 3 value")
        else:
            unitary, defect = out
            require(all(v is True for v in unitary), "delta unitarity fails")
            require(defect.is_zero, "nonzero delta-control defect")


# ---------------------------------------------------------------------------
# gaudin: mpmath Schroedinger probe and analytic contact checks


def contact_cap(n):
    """Cap on a Gaudin draw's contact defects: claim 2's 1e-12 where that
    claim checks it (N <= 4), scaled beyond by N!/4!, the growth in the
    number of unit-modulus plane waves whose float sum the defect is (in
    exact arithmetic it is zero).  At N = 6 the absolute 1e-12 is exceeded
    by rounding in about half of all draws."""
    return 1e-12 * max(1.0, math.factorial(n) / 24.0)


def check_gaudin_row(row):
    cap = contact_cap(row["n"])
    require(row["max_derivative_jump"] <= cap, f"derivative jump > {cap:.1e}")
    require(row["max_value_jump_defect"] <= cap, f"value-jump defect > {cap:.1e}")
    require(row["schrodinger_residual"] <= 1e-6, "Schroedinger residual > 1e-6")


class Gaudin(Workload):
    """Ops: gaudin_residual_scan(N, 1, seed) once for each N in {2..6} per
    round, seed derived from the workload seed, default ranges."""

    name = "gaudin"

    def setup(self):
        self.lib = import_momgas(self.root)
        op = ("gaudin", {"n": 2, "seed": self.seed})
        self.check(op, self.run(op))

    def round(self, r):
        rng = self.rng(r)
        ops = [("gaudin", {"n": n, "seed": rng.getrandbits(32)}) for n in range(2, 7)]
        rng.shuffle(ops)
        return ops

    def run(self, op):
        p = op[1]
        return self.lib.gaudin_residual_scan(p["n"], 1, seed=p["seed"])

    def check(self, op, out):
        require(len(out) == 1 and out[0]["n"] == op[1]["n"], "wrong scan shape")
        check_gaudin_row(out[0])


# ---------------------------------------------------------------------------
# cli: one cold `momgas <subcommand>` process per operation


def _vertex_exact(k, mc):
    # Bogoliubov weights a_pm = sqrt((1 +- kc/E)/2) at m = 1, c = mc
    def weights(q):
        ratio = q * mc / math.hypot(mc * mc, q * mc)
        return math.sqrt((1 + ratio) / 2), math.sqrt((1 - ratio) / 2)
    (p1, m1), (p2, m2), (p3, m3), (p4, m4) = (weights(q) for q in k)
    return 0.25 * (p1 * p2 * m3 * m4 + p3 * p4 * m1 * m2 - p3 * p2 * m1 * m4 - p1 * p4 * m3 * m2)


def _check_solve_rows(rows, n):
    require(len(rows) == n, "wrong number of roots")
    roots = [row["root"] for row in rows]
    require(all(a < b for a, b in zip(roots, roots[1:])), "roots not strictly ordered")
    require(all(row["residual"] <= 1e-9 for row in rows), "residual > 1e-9")


def _check_gaudin_rows(rows):
    require(len(rows) == 2, "wrong number of draws")
    for row in rows:
        check_gaudin_row(dict(row, n=3))


def _check_vertex_rows(rows):
    k = (1.0, 2.0, 3.0, 5.0)
    require([row["mc"] for row in rows] == [10.0, 20.0, 40.0, 80.0], "wrong mc grid")
    for row in rows:
        lead = (k[0] - k[2]) * (k[1] - k[3]) / (4.0 * row["mc"]) ** 2
        require(close(row["v_leading"], lead), "leading vertex off its closed form")
        require(close(row["v_exact"], _vertex_exact(k, row["mc"]), rel=1e-9), "vertex off")
        require(close(row["rel_error"], abs(row["v_exact"] - lead) / abs(lead), rel=1e-9),
                "relative error inconsistent")


def _check_dispersion_rows(rows):
    require([row["mc"] for row in rows] == [10.0, 20.0, 40.0, 80.0], "wrong mc grid")
    for row in rows:
        mc = row["mc"]
        require(close(row["energy"], math.hypot(mc * mc, mc)), "energy != hypot(mc^2, kc)")
        require(close(row["remainder"], -1.0 / (8.0 * mc * mc), rel=0.01),
                "remainder off its -k^4/(8 m^3 c^2) leading term")


def _check_reg_rows(rows):
    require([row["epsilon"] for row in rows] == [0.2, 0.1, 0.05], "wrong epsilon grid")
    for row in rows:
        exact = 2.0 * 0.5 * math.exp(-row["epsilon"] * 0.5)   # -2 lam sqrt|E| e^(-eps sqrt|E|)
        require(close(row["closed_form"], exact), "closed form off")
        require(close(row["value"], exact, rel=1e-9), "regularized integral off its closed form")


def _one(rows):
    require(len(rows) == 1, "expected one CSV row")
    return rows[0]


COLEMAN_G = 2.5

# (subcommand, argv, README CSV columns, JSON check, CSV check); argv is the
# README example where there is one, a small stated size otherwise
CLI_COMMANDS = [
    ("two-body", ["--parity", "odd", "--k", "2.0", "--lambda", "0.5", "--x", "0.5,1.5"],
     "parity,k,lam,energy,derivative_jump_abs,value_jump_defect_abs",
     lambda r: require(close(r["energy"], 4.0) and r["max_residual"] <= 1e-12, "two-body"),
     lambda rows: require(close(_one(rows)["energy"], 4.0)
                          and rows[0]["derivative_jump_abs"] <= 1e-12
                          and rows[0]["value_jump_defect_abs"] <= 1e-12, "two-body")),
    ("bound-state", ["--lambda", "-1"], "lam,exists,energy,kappa",
     lambda r: require(r["exists"] is True and close(r["energy"], -0.25)
                       and close(r["kappa"], 0.5) and r["max_residual"] <= 1e-12,
                       "bound-state energy != -1/(4 lam^2)"),
     lambda rows: require(_one(rows)["exists"] is True and close(rows[0]["energy"], -0.25)
                          and close(rows[0]["kappa"], 0.5), "bound-state energy != -1/(4 lam^2)")),
    ("bethe-solve", ["--n", "3", "--box", "10", "--lambda", "1"], "j,quantum_number,root,residual",
     lambda r: (require(r["max_residual"] <= 1e-9, "residual > 1e-9"),
                require(close(r["energy"], sum(k * k for k in r["momenta"])), "energy != sum k^2"),
                require(r["energy"] <= ring_free_energy(3, 10.0), "energy above free fermions")),
     lambda rows: _check_solve_rows(rows, 3)),
    ("ll-solve", ["--n", "3", "--box", "10", "--c", "2"], "j,quantum_number,root,residual",
     lambda r: (require(r["max_residual"] <= 1e-9, "residual > 1e-9"),
                require(close(r["energy"], sum(k * k for k in r["momenta"])), "energy != sum k^2")),
     lambda rows: _check_solve_rows(rows, 3)),
    ("duality", ["--n", "3", "--box", "10", "--lambda", "1"],
     "j,quantum_number,fermion_root,boson_root,abs_difference",
     lambda r: require(r["max_abs_difference"] <= 1e-10 and r["eta_follows_parity_rule"] is True
                       and max(abs(a - b) for a, b in zip(r["fermion_roots"], r["boson_roots"]))
                       <= 1e-10, "duality mismatch > 1e-10"),
     lambda rows: require(len(rows) == 3 and all(row["abs_difference"] <= 1e-10 for row in rows),
                          "duality mismatch > 1e-10")),
    ("gaudin-check", ["--n", "3", "--draws", "2"],
     "draw,lam,max_derivative_jump,max_value_jump_defect,schrodinger_residual",
     lambda r: _check_gaudin_rows(r["rows"]), _check_gaudin_rows),
    ("gs-scan", ["--rho", "1", "--lambda", "1", "--sizes", "4,8,16"],
     "n,box_length,energy,energy_density",
     lambda r: check_gs_rows(r["rows"], [4, 8, 16], 1.0),
     lambda rows: check_gs_rows(rows, [4, 8, 16], 1.0)),
    ("yb-check", ["--n", "3", "--u", "1", "--v", "2", "--lambda", "1"],
     "n,i,u,v,lam,unitarity,yb_defect_nonzero,max_entry",
     lambda r: require(r["unitarity"] is True and r["yb_defect_nonzero"] is True
                       and r["projections_zero"] is True and r["generic_triple"] is True,
                       "yb-check verdicts"),
     lambda rows: require(_one(rows)["unitarity"] is True and rows[0]["yb_defect_nonzero"] is True
                          and rows[0]["max_entry"] != 0, "yb-check verdicts")),
    ("delta-control", ["--n", "3", "--u", "1", "--v", "2", "--c", "1"],
     "n,i,u,v,c,s_u,s_c,unitarity,defect_zero",
     lambda r: require(r["unitarity"] is True and r["defect_zero"] is True
                       and r["first_nonzero"] is None, "delta-control verdicts"),
     lambda rows: require(_one(rows)["unitarity"] is True and rows[0]["defect_zero"] is True,
                          "delta-control verdicts")),
    ("vertex-scan", [], "mc,v_exact,v_leading,rel_error",
     lambda r: (_check_vertex_rows(r["rows"]),
                require(-2.1 <= r["slope"] <= -1.8, "vertex slope outside [-2.1, -1.8]")),
     _check_vertex_rows),
    ("dispersion-scan", [], "mc,energy,remainder",
     lambda r: (_check_dispersion_rows(r["rows"]),
                require(abs(r["slope"] + 2.0) <= 0.05, "dispersion slope != -2")),
     _check_dispersion_rows),
    ("coupling-maps", ["--g", "2.0", "--beta", "1.0"],
     "g,beta,m,c,lambda_from_thirring,cB_from_sg,cB_from_phi4,cB_cross_check_abs_diff",
     lambda r: require(close(r["lambda_from_thirring"], -2.0) and close(r["cB_from_sg"], -1 / 16)
                       and close(r["cB_from_phi4"], -1 / 16)
                       and r["cB_cross_check_abs_diff"] <= 1e-12, "coupling maps"),
     lambda rows: require(close(_one(rows)["lambda_from_thirring"], -2.0)
                          and close(rows[0]["cB_from_sg"], -1 / 16)
                          and rows[0]["cB_cross_check_abs_diff"] <= 1e-12, "coupling maps")),
    ("coleman", ["--g", str(COLEMAN_G)], "g,c,product,full_product,abs_error",
     lambda r: require(r["abs_error"] <= 1e-12 and close(r["product"], math.pi ** 2 / 4)
                       and close(r["full_product"],
                                 math.pi ** 2 * COLEMAN_G / (4 * (math.pi + COLEMAN_G))),
                       "coleman product != pi^2/4"),
     lambda rows: require(_one(rows)["abs_error"] <= 1e-12
                          and close(rows[0]["product"], math.pi ** 2 / 4),
                          "coleman product != pi^2/4")),
    ("reg-integral", ["--lambda", "-1", "--e-abs", "0.25"], "epsilon,value,closed_form",
     lambda r: (_check_reg_rows(r["rows"]),
                require(close(r["epsilon_zero_limit"], 1.0)
                        and abs(r["extrapolated"] - 1.0) <= 1e-4, "Richardson limit off")),
     _check_reg_rows),
    ("reg-bound-state", ["--lambda", "-0.5"], "lam,energy,closed_form_energy,rel_error",
     lambda r: require(r["rel_error"] <= 1e-9 and close(r["energy"], -1.0, rel=1e-9),
                       "regularized bound state != -1/(4 lam^2)"),
     lambda rows: require(_one(rows)["rel_error"] <= 1e-9
                          and close(rows[0]["energy"], -1.0, rel=1e-9),
                          "regularized bound state != -1/(4 lam^2)")),
]

CLI_ENTRY = "import sys; from momgas.cli import main; sys.exit(main())"


def _csv_value(text):
    if text in ("True", "False"):
        return text == "True"
    if text.lstrip("-").isdigit():
        return int(text)
    try:
        return float(Fraction(text))
    except (ValueError, ZeroDivisionError):
        return text


class Cli(Workload):
    """Ops: each of the 15 subcommands once per round, seeded order, as one
    cold `python -c 'from momgas.cli import main; ...'` process (what the
    `momgas` console script runs).  JSON/CSV alternate op by op, stdout and
    --output alternate every two ops."""

    name = "cli"

    def __init__(self, root, seed, env, version, tmpdir):
        super().__init__(root, seed, env)
        self.version = version
        self.tmpdir = tmpdir
        self.count = 0
        self.traced = None    # set to a list to run ops through the traced driver
        self.checks = {name: (csv_cols, cj, cc) for name, _, csv_cols, cj, cc in CLI_COMMANDS}

    def round(self, r):
        rng = self.rng(r)
        commands = []
        for name, argv, *_ in CLI_COMMANDS:
            if name == "gaudin-check":
                argv = argv + ["--seed", str(rng.randrange(10 ** 6))]
            commands.append((name, argv))
        rng.shuffle(commands)
        ops = []
        for name, argv in commands:
            fmt = ("json", "csv")[self.count % 2]
            path = (os.path.join(self.tmpdir, f"op{self.count}.{fmt}")
                    if (self.count // 2) % 2 else None)
            ops.append(("cli", {"command": name, "argv": argv, "format": fmt, "output": path}))
            self.count += 1
        return ops

    def command_line(self, p):
        argv = [p["command"], *p["argv"], "--format", p["format"]]
        if p["output"]:
            argv += ["--output", p["output"]]
        if self.traced is None:
            return [sys.executable, "-c", CLI_ENTRY, *argv], None
        spans = os.path.join(self.tmpdir, f"spans{len(self.traced)}.json")
        driver = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_driver.py")
        return [sys.executable, driver, spans, *argv], spans

    def run(self, op):
        cmd, spans = self.command_line(op[1])
        proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True, timeout=120)
        if spans is not None and os.path.exists(spans):
            with open(spans) as fh:
                self.traced.append(json.load(fh))
            os.unlink(spans)
        return proc

    def check(self, op, proc):
        p = op[1]
        require(proc.returncode == 0,
                f"{p['command']} exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
        text = proc.stdout
        if p["output"]:
            require(text == "", "output written to stdout despite --output")
            with open(p["output"]) as fh:
                text = fh.read()
            os.unlink(p["output"])
        columns, check_json, check_csv = self.checks[p["command"]]
        if p["format"] == "json":
            record = json.loads(text)
            require(record["schema"] == f"momgas.{p['command']}/1", "schema mismatch")
            require(record["command"] == p["command"], "command mismatch")
            require(record["version"] == self.version, "version mismatch")
            check_json(record["results"])
        else:
            reader = csv.reader(io.StringIO(text))
            header = next(reader)
            require(header == columns.split(","), f"CSV header {header} != README columns")
            check_csv([{k: _csv_value(v) for k, v in zip(header, row)} for row in reader])


WORKLOADS = {"ring": Ring, "exact": Exact, "gaudin": Gaudin, "cli": Cli}


def make_workload(name, root, seed, env, version, tmpdir):
    if name == "cli":
        return Cli(root, seed, env, version, tmpdir)
    return WORKLOADS[name](root, seed, env)
