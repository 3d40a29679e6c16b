"""Command-line front end: every library operation as a subcommand with
machine-readable output.

Records are JSON by default (canonical form: sorted keys, two-space indent,
so identical runs are byte-identical) or a fixed-column CSV projection.
Every record embeds the schema name, the package version, and the full
parameter set including the seed, so any output file is reproducible from
its own header.  Output goes to stdout, to --output PATH, or to the path in
the MOMGAS_OUTPUT environment variable, written atomically (temp file plus
rename) so readers never observe a partial record.

Exit codes separate misuse from falsification:
  0  success
  1  validation error (bad flags, out-of-guard N, malformed numbers,
     attractive-sector solve, ...)
  2  numerical non-convergence (Newton iteration exhausted)
  3  exact-check failure: unitarity false, a zero Yang-Baxter defect at a
     generic triple, a nonzero one-dimensional projection, or a nonzero
     delta-control defect.  These cannot happen unless the underlying
     algebra is wrong, so 3 means "investigate", not "retry".
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import tempfile
from fractions import Fraction

from . import __version__
from .bethe import (
    ConvergenceError, bethe_residuals, duality_check, gaudin_residual_scan,
    ground_state_scan, solve_bethe, solve_lieb_liniger,
)
from .nonrel import (
    RelativisticParams, coleman_check, coleman_full_product, coupling_maps,
    dispersion_scan, vertex_expansion_scan,
)
from .regularize import (
    bound_state_energy_via_regularization, closed_form, extrapolate_integral,
    regularized_table,
)
from .twobody import (
    Parity, bound_state, eval_two_body, eval_two_body_derivative,
    scattering_state, two_body_residual,
)
from .yang_baxter import (
    check_delta_unitarity, check_unitarity, delta_control_defect,
    delta_variant, sign_projection, trivial_projection, yb_defect,
)

__all__ = ["main", "run"]


class UsageError(Exception):
    """Bad command line; mapped to exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the exit taxonomy reserves 2 for
    # non-convergence, so raise instead and let main() map it to 1
    def error(self, message):
        raise UsageError(message)


def _float_list(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated float list: {text!r}")


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}")


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}")


def _eta_value(text: str) -> float:
    return math.pi if text == "pi" else 0.0


def _complex_parts(z: complex) -> dict:
    return {"re": float(z.real), "im": float(z.imag)}


def _jsonable(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, complex):
        return _complex_parts(value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    return value


def _params_of(args: argparse.Namespace) -> dict:
    # full reproducibility block: everything except the output path
    skip = {"command", "output"}
    return {k: _jsonable(v) for k, v in sorted(vars(args).items()) if k not in skip}


def _record(command: str, args: argparse.Namespace, results: dict) -> dict:
    return {
        "schema": f"momgas.{command}/1",
        "version": __version__,
        "command": command,
        "params": _params_of(args),
        "results": _jsonable(results),
    }


def _render_json(record: dict) -> str:
    return json.dumps(record, sort_keys=True, indent=2) + "\n"


def _render_csv(columns: list[str], rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([row.get(col, "") for col in columns])
    return buf.getvalue()


def _write_output(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".momgas-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# handlers: args -> (results dict, csv columns, csv rows, exit code)


def _cmd_two_body(args):
    state = scattering_state(Parity(args.parity), args.k)
    res = two_body_residual(state, args.lam)
    samples = []
    for x in args.x or []:
        samples.append({
            "x": x,
            "value": _complex_parts(eval_two_body(state, args.lam, x)),
            "derivative": _complex_parts(eval_two_body_derivative(state, args.lam, x)),
        })
    results = {
        "energy": state.energy,
        "parity": args.parity,
        "boundary_residual": {
            "derivative_jump": _complex_parts(res.derivative_jump),
            "value_jump_defect": _complex_parts(res.value_jump_defect),
        },
        "max_residual": max(abs(res.derivative_jump), abs(res.value_jump_defect)),
        "samples": samples,
    }
    row = {
        "parity": args.parity, "k": args.k, "lam": args.lam,
        "energy": state.energy,
        "derivative_jump_abs": abs(res.derivative_jump),
        "value_jump_defect_abs": abs(res.value_jump_defect),
    }
    return results, ["parity", "k", "lam", "energy", "derivative_jump_abs",
                     "value_jump_defect_abs"], [row], 0


def _cmd_bound_state(args):
    state = bound_state(args.lam)
    if state is None:
        results = {"exists": False}
        row = {"lam": args.lam, "exists": False, "energy": "", "kappa": ""}
    else:
        kappa = 1.0 / (2.0 * abs(args.lam))
        res = two_body_residual(state, args.lam)
        results = {
            "exists": True,
            "energy": state.energy,
            "kappa": kappa,
            "k": _complex_parts(state.k),
            "max_residual": max(abs(res.derivative_jump), abs(res.value_jump_defect)),
        }
        row = {"lam": args.lam, "exists": True, "energy": state.energy, "kappa": kappa}
    return results, ["lam", "exists", "energy", "kappa"], [row], 0


def _solve_record(state):
    residuals = bethe_residuals(state)
    results = {
        "momenta": list(state.momenta),
        "quantum_numbers": list(state.quantum_numbers),
        "boundary_phase": state.boundary_phase,
        "energy": state.energy,
        "total_momentum": state.total_momentum,
        "max_residual": float(residuals.max()),
    }
    rows = [{"j": j, "quantum_number": qn, "root": root, "residual": res}
            for j, (qn, root, res) in enumerate(zip(state.quantum_numbers, state.momenta,
                                                    residuals.tolist()))]
    return results, ["j", "quantum_number", "root", "residual"], rows, 0


def _cmd_bethe_solve(args):
    eta = None if args.eta is None else _eta_value(args.eta)
    return _solve_record(solve_bethe(args.n, args.box, args.lam,
                                     quantum_numbers=args.quantum_numbers, eta=eta,
                                     tol=args.tol, max_iter=args.max_iter))


def _cmd_ll_solve(args):
    return _solve_record(solve_lieb_liniger(args.n, args.box, args.c,
                                            eta=_eta_value(args.eta),
                                            quantum_numbers=args.quantum_numbers,
                                            tol=args.tol, max_iter=args.max_iter))


def _cmd_duality(args):
    eta = None if args.eta is None else _eta_value(args.eta)
    report = duality_check(args.n, args.box, args.lam, eta=eta)
    rows = []
    for j, (qn, fer, bos) in enumerate(zip(report["quantum_numbers"],
                                           report["fermion_roots"],
                                           report["boson_roots"])):
        rows.append({"j": j, "quantum_number": qn, "fermion_root": fer,
                     "boson_root": bos, "abs_difference": abs(fer - bos)})
    return report, ["j", "quantum_number", "fermion_root", "boson_root",
                    "abs_difference"], rows, 0


def _cmd_gaudin_check(args):
    rows = gaudin_residual_scan(args.n, args.draws, seed=args.seed)
    results = {
        "rows": rows,
        "max_derivative_jump": max(r["max_derivative_jump"] for r in rows),
        "max_value_jump_defect": max(r["max_value_jump_defect"] for r in rows),
        "max_schrodinger_residual": max(r["schrodinger_residual"] for r in rows),
    }
    return results, ["draw", "lam", "max_derivative_jump", "max_value_jump_defect",
                     "schrodinger_residual"], rows, 0


def _cmd_gs_scan(args):
    rows = ground_state_scan(args.rho, args.lam, args.sizes)
    densities = [r["energy_density"] for r in rows]
    increments = [abs(b - a) for a, b in zip(densities, densities[1:])]
    results = {"rows": rows, "increments": increments}
    return results, ["n", "box_length", "energy", "energy_density"], rows, 0


def _cmd_yb_check(args):
    i = args.i
    unitary = all(check_unitarity(site, arg, args.lam, args.n)
                  for site in (i, i + 1) for arg in (args.u, args.v))
    defect = yb_defect(i, args.u, args.v, args.lam, args.n)
    triv = trivial_projection(defect.matrix)
    sign = sign_projection(defect.matrix)
    generic = args.u != 0 and args.v != 0 and args.u + args.v != 0
    witness = defect.witness()
    results = {
        "unitarity": unitary,
        "yb_defect_nonzero": not defect.is_zero,
        "generic_triple": generic,
        "max_entry": str(defect.max_entry),
        "max_position": list(defect.max_position) if defect.max_position else None,
        "witness": ({"row": witness[0], "col": witness[1], "entry": str(witness[2])}
                    if witness else None),
        "trivial_projection": str(triv),
        "sign_projection": str(sign),
        "projections_zero": triv.is_zero and sign.is_zero,
    }
    failed = (not unitary) or (not results["projections_zero"]) \
        or (generic and defect.is_zero)
    row = {"n": args.n, "i": i, "u": str(args.u), "v": str(args.v),
           "lam": str(args.lam), "unitarity": unitary,
           "yb_defect_nonzero": not defect.is_zero, "max_entry": str(defect.max_entry)}
    return results, ["n", "i", "u", "v", "lam", "unitarity", "yb_defect_nonzero",
                     "max_entry"], [row], 3 if failed else 0


def _cmd_delta_control(args):
    i = args.i
    variant = delta_variant()
    unitary = all(check_delta_unitarity(site, arg, args.c, args.n)
                  for site in (i, i + 1) for arg in (args.u, args.v))
    defect = delta_control_defect(i, args.u, args.v, args.c, args.n)
    first = defect.first_nonzero()
    results = {
        "variant": {"s_u": variant[0], "s_c": variant[1]},
        "unitarity": unitary,
        "defect_zero": defect.is_zero,
        "first_nonzero": ({"row": first[0], "col": first[1], "entry": str(first[2])}
                          if first else None),
    }
    failed = (not unitary) or (not defect.is_zero)
    row = {"n": args.n, "i": i, "u": str(args.u), "v": str(args.v), "c": str(args.c),
           "s_u": variant[0], "s_c": variant[1], "unitarity": unitary,
           "defect_zero": defect.is_zero}
    return results, ["n", "i", "u", "v", "c", "s_u", "s_c", "unitarity",
                     "defect_zero"], [row], 3 if failed else 0


def _cmd_vertex_scan(args):
    scan = vertex_expansion_scan(args.k, args.mc_values)
    return scan, ["mc", "v_exact", "v_leading", "rel_error"], scan["rows"], 0


def _cmd_dispersion_scan(args):
    scan = dispersion_scan(args.k, args.mc_values)
    return scan, ["mc", "energy", "remainder"], scan["rows"], 0


def _cmd_coupling_maps(args):
    params = RelativisticParams(m=args.m, c=args.c, g=args.g, beta=args.beta,
                                gB=args.g_b)
    maps = coupling_maps(params)
    cross = abs(maps["cB_from_sg"] - maps["cB_from_phi4"])
    results = dict(maps)
    results["cB_cross_check_abs_diff"] = cross
    row = {"g": args.g, "beta": args.beta, "m": args.m, "c": args.c, **results}
    return results, ["g", "beta", "m", "c", "lambda_from_thirring", "cB_from_sg",
                     "cB_from_phi4", "cB_cross_check_abs_diff"], [row], 0


def _cmd_coleman(args):
    product = coleman_check(args.g, args.c)
    full = coleman_full_product(args.g, args.c)
    target = math.pi ** 2 / 4.0
    results = {
        "product": product,
        "full_product": full,
        "pi2_over_4": target,
        "abs_error": abs(product - target),
    }
    row = {"g": args.g, "c": args.c, "product": product, "full_product": full,
           "abs_error": abs(product - target)}
    return results, ["g", "c", "product", "full_product", "abs_error"], [row], 0


def _cmd_reg_integral(args):
    table = regularized_table(args.lam, args.e_abs, args.epsilons)
    rows = []
    for point in table:
        rows.append({
            "epsilon": point.epsilon,
            "value": point.value,
            "closed_form": closed_form(args.lam, args.e_abs, point.epsilon),
        })
    extrapolated = extrapolate_integral(args.lam, args.e_abs, args.epsilons)
    limit = -2.0 * args.lam * math.sqrt(args.e_abs)
    results = {
        "rows": rows,
        "extrapolated": extrapolated,
        "epsilon_zero_limit": limit,
        "extrapolation_abs_error": abs(extrapolated - limit),
    }
    return results, ["epsilon", "value", "closed_form"], rows, 0


def _cmd_reg_bound_state(args):
    energy = bound_state_energy_via_regularization(args.lam)
    reference = -1.0 / (4.0 * args.lam ** 2)
    results = {
        "energy": energy,
        "closed_form_energy": reference,
        "rel_error": abs(energy - reference) / abs(reference),
    }
    row = {"lam": args.lam, **results}
    return results, ["lam", "energy", "closed_form_energy", "rel_error"], [row], 0


_HANDLERS = {
    "two-body": _cmd_two_body,
    "bound-state": _cmd_bound_state,
    "bethe-solve": _cmd_bethe_solve,
    "ll-solve": _cmd_ll_solve,
    "duality": _cmd_duality,
    "gaudin-check": _cmd_gaudin_check,
    "gs-scan": _cmd_gs_scan,
    "yb-check": _cmd_yb_check,
    "delta-control": _cmd_delta_control,
    "vertex-scan": _cmd_vertex_scan,
    "dispersion-scan": _cmd_dispersion_scan,
    "coupling-maps": _cmd_coupling_maps,
    "coleman": _cmd_coleman,
    "reg-integral": _cmd_reg_integral,
    "reg-bound-state": _cmd_reg_bound_state,
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="momgas",
                     description="Exactly solvable 1D gas with momentum-dependent "
                                 "contact interactions")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--format", choices=["json", "csv"], default="json",
                       help="output format (default json)")
        p.add_argument("--output", default=None,
                       help="output path (default stdout; MOMGAS_OUTPUT overrides "
                            "the default)")
        return p

    p = add("two-body", "two-body scattering state and its contact conditions")
    p.add_argument("--parity", choices=["even", "odd"], required=True)
    p.add_argument("--k", type=float, required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--x", type=_float_list, default=None,
                   help="comma-separated sample points")

    p = add("bound-state", "two-body bound state, closed form")
    p.add_argument("--lambda", dest="lam", type=float, required=True)

    for name, help_text in (("bethe-solve", "solve the ring quantization conditions"),
                            ("ll-solve", "solve the dual delta-gas equations")):
        p = add(name, help_text)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--box", type=float, required=True)
        if name == "bethe-solve":
            p.add_argument("--lambda", dest="lam", type=float, required=True)
            p.add_argument("--eta", choices=["0", "pi"], default=None,
                           help="boundary phase (default: parity rule)")
        else:
            p.add_argument("--c", type=float, required=True)
            p.add_argument("--eta", choices=["0", "pi"], default="0")
        p.add_argument("--quantum-numbers", type=_float_list, default=None,
                       help="comma-separated (use --quantum-numbers=-1.5,... "
                            "for a leading minus)")
        p.add_argument("--tol", type=float, default=1e-13)
        p.add_argument("--max-iter", type=int, default=200)

    p = add("duality", "fermion roots vs delta-gas roots at c = 1/lambda")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--box", type=float, required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--eta", choices=["0", "pi"], default=None,
                   help="fermion boundary phase (default: parity rule; the "
                        "opposite phase is the mismatch control)")

    p = add("gaudin-check", "random-draw eigenfunction verification")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--draws", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)

    p = add("gs-scan", "ground-state energy density vs particle number")
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--sizes", type=_int_list, required=True,
                   help="comma-separated particle numbers, increasing")

    p = add("yb-check", "exact Yang-Baxter defect of the exchange operator")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--i", type=int, default=1)
    p.add_argument("--u", type=_rational, required=True)
    p.add_argument("--v", type=_rational, required=True)
    p.add_argument("--lambda", dest="lam", type=_rational, required=True)

    p = add("delta-control", "exact Yang-Baxter check of the delta operator")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--i", type=int, default=1)
    p.add_argument("--u", type=_rational, required=True)
    p.add_argument("--v", type=_rational, required=True)
    p.add_argument("--c", type=_rational, required=True)

    p = add("vertex-scan", "leading-term error of the four-point vertex vs mc")
    p.add_argument("--k", type=_float_list, default=[1.0, 2.0, 3.0, 5.0],
                   help="four comma-separated momenta")
    p.add_argument("--mc-values", type=_float_list, default=[10.0, 20.0, 40.0, 80.0])

    p = add("dispersion-scan", "dispersion expansion remainder vs mc")
    p.add_argument("--k", type=float, default=1.0)
    p.add_argument("--mc-values", type=_float_list, default=[10.0, 20.0, 40.0, 80.0])

    p = add("coupling-maps", "relativistic-to-contact coupling maps")
    p.add_argument("--g", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--m", type=float, default=1.0)
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--g-b", dest="g_b", type=float, default=None,
                   help="explicit quartic coupling (default: derived)")

    p = add("coleman", "strong-coupling duality product lambda * c_B")
    p.add_argument("--g", type=float, required=True)
    p.add_argument("--c", type=float, default=1.0)

    p = add("reg-integral", "regularized self-consistency integral vs epsilon")
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--e-abs", dest="e_abs", type=float, required=True)
    p.add_argument("--epsilons", type=_float_list, default=[0.2, 0.1, 0.05],
                   help="geometric nodes, largest first")

    p = add("reg-bound-state", "bound-state energy from the regularized route")
    p.add_argument("--lambda", dest="lam", type=float, required=True)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        results, columns, rows, code = _HANDLERS[args.command](args)
    except (UsageError, ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "csv":
        text = _render_csv(columns, [{k: _jsonable(v) for k, v in row.items()}
                                     for row in rows])
    else:
        text = _render_json(_record(args.command, args, results))
    _write_output(text, args.output or os.environ.get("MOMGAS_OUTPUT"))
    return code


run = main


if __name__ == "__main__":
    sys.exit(main())
