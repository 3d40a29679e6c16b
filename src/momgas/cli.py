"""Command-line front end: every library operation as a subcommand with
machine-readable output.

Records are JSON by default (canonical form: sorted keys, two-space indent,
so identical runs are byte-identical) or a fixed-column CSV projection.
Every record embeds the schema name, the package version, and the full
parameter set including the seed, so any output file is reproducible from
its own header.  Output goes to stdout or to --output PATH, written
atomically (temp file plus rename) so readers never observe a partial
record.  Each subcommand is one entry of COMMANDS: its help text, flags,
handler and CSV columns.  `main` builds the record once, in one walk over
the parameters and the handler's results (`_jsonable`), and writes it, all
inside the error boundary, so a result that is not finite exits 1 before
anything is written and a path that cannot be written exits 1 too.

Exit codes separate misuse from falsification:
  0  success
  1  validation error (bad flags, out-of-guard N, malformed or non-finite numbers,
     attractive-sector solve, finite flags whose arithmetic leaves the float64
     range and so would put NaN or Infinity in the record, an --output path
     that cannot be written, ...)
  2  numerical non-convergence (Newton iteration exhausted or stalled, a Newton
     matrix singular in float64 at a hard-core coupling, a Fourier sum
     error estimate too large or value above its modulus bound or below its
     lower bound, a non-positive extrapolated integral in reg-bound-state)
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
from typing import TYPE_CHECKING, Callable, NamedTuple

from . import ConvergenceError, __version__

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = ["COMMANDS", "main"]


class UsageError(Exception):
    """Bad command line; mapped to exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the exit taxonomy reserves 2 for
    # non-convergence, so raise instead and let main() map it to 1
    def error(self, message):
        raise UsageError(message)


def _finite(text: str) -> float:
    # nan and inf parse as floats, but no operation is defined at them and
    # NaN is not JSON; argparse prefixes the message with the flag's name
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


_finite.__name__ = "float"   # argparse's "invalid float value: ..." names the type


def _list_of(kind, noun: str):
    def parse(text: str) -> list:
        try:
            return [kind(part) for part in text.split(",") if part != ""]
        except ValueError:
            raise argparse.ArgumentTypeError(f"not a comma-separated {noun} list: {text!r}")
    return parse


_float_list = _list_of(_finite, "float")
_int_list = _list_of(int, "integer")


def _rational(text: str) -> Fraction:
    from fractions import Fraction
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}")


def _eta_value(text: str | None) -> float | None:
    return None if text is None else math.pi if text == "pi" else 0.0


def _jsonable(value, field="cell"):
    # the one walk from a result to its record: Fractions become strings and
    # complex numbers {"re", "im"} pairs, and a float that left float64 is an
    # ArithmeticError naming its field, since NaN and Infinity are not JSON.
    # No Fraction exists unless fractions is loaded, so do not load it to ask
    fractions = sys.modules.get("fractions")
    if fractions is not None and isinstance(value, fractions.Fraction):
        return str(value)
    if isinstance(value, complex):
        value = {"re": float(value.real), "im": float(value.imag)}
    if isinstance(value, float) and not math.isfinite(value):
        raise ArithmeticError(f"{field} = {value!r}")
    if isinstance(value, (list, tuple)):
        return [_jsonable(v, f"{field}[{i}]") for i, v in enumerate(value)]
    if isinstance(value, dict):
        return {k: _jsonable(v, f"{field}.{k}") for k, v in value.items()}
    return value


def _render_csv(columns: str, rows: list[dict]) -> str:
    header = columns.split(",")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_jsonable(row.get(col, "")) for col in header])
    return buf.getvalue()


def _write_output(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    import tempfile

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
# handlers: args -> (results dict, csv rows, exit code).  Rows None means a
# single-row command, whose CSV row is {**params, **results} projected onto
# its columns.  Each handler imports its library module when it runs, not
# with this module, so a cold process loads only the module it computes
# with: numpy comes with the ring solvers of `bethe`, mpmath with its
# Gaudin probe, and the other modules are plain Python.


def _cmd_two_body(args):
    from .twobody import (
        Parity, eval_two_body, eval_two_body_derivative, scattering_state, two_body_residual,
    )

    state = scattering_state(Parity(args.parity), args.k)
    res = two_body_residual(state, args.lam)
    samples = [{"x": x, "value": eval_two_body(state, args.lam, x),
                "derivative": eval_two_body_derivative(state, args.lam, x)}
               for x in args.x or []]
    results = {
        "energy": state.energy,
        "parity": args.parity,
        "boundary_residual": {"derivative_jump": res.derivative_jump,
                              "value_jump_defect": res.value_jump_defect},
        "max_residual": max(abs(res.derivative_jump), abs(res.value_jump_defect)),
        "samples": samples,
    }
    row = {**vars(args), "energy": state.energy, "derivative_jump_abs": abs(res.derivative_jump),
           "value_jump_defect_abs": abs(res.value_jump_defect)}
    return results, [row], 0


def _cmd_bound_state(args):
    from .twobody import bound_state, two_body_residual

    state = bound_state(args.lam)
    if state is None:
        return {"exists": False}, None, 0
    res = two_body_residual(state, args.lam)
    results = {
        "exists": True,
        "energy": state.energy,
        "kappa": 1.0 / (2.0 * abs(args.lam)),
        "k": state.k,
        "max_residual": max(abs(res.derivative_jump), abs(res.value_jump_defect)),
    }
    return results, None, 0


def _solve_record(solve, coupling, args):
    from .bethe import bethe_residuals

    state = solve(args.n, args.box, coupling, quantum_numbers=args.quantum_numbers,
                  eta=_eta_value(args.eta), tol=args.tol, max_iter=args.max_iter)
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
    return results, rows, 0


def _cmd_bethe_solve(args):
    from .bethe import solve_bethe

    return _solve_record(solve_bethe, args.lam, args)


def _cmd_ll_solve(args):
    from .bethe import solve_lieb_liniger

    return _solve_record(solve_lieb_liniger, args.c, args)


def _cmd_duality(args):
    from .bethe import duality_check

    report = duality_check(args.n, args.box, args.lam, eta=_eta_value(args.eta))
    rows = [{"j": j, "quantum_number": qn, "fermion_root": fer, "boson_root": bos,
             "abs_difference": abs(fer - bos)}
            for j, (qn, fer, bos) in enumerate(zip(report["quantum_numbers"],
                                                   report["fermion_roots"],
                                                   report["boson_roots"]))]
    return report, rows, 0


def _cmd_gaudin_check(args):
    from .bethe import gaudin_residual_scan

    rows = gaudin_residual_scan(args.n, args.draws, seed=args.seed)
    results = {
        "rows": rows,
        "max_derivative_jump": max(r["max_derivative_jump"] for r in rows),
        "max_value_jump_defect": max(r["max_value_jump_defect"] for r in rows),
        "max_schrodinger_residual": max(r["schrodinger_residual"] for r in rows),
    }
    return results, rows, 0


def _cmd_gs_scan(args):
    from .bethe import ground_state_scan

    rows = ground_state_scan(args.rho, args.lam, args.sizes)
    densities = [r["energy_density"] for r in rows]
    increments = [abs(b - a) for a, b in zip(densities, densities[1:])]
    return {"rows": rows, "increments": increments}, rows, 0


def _cmd_yb_check(args):
    from .yang_baxter import check_unitarity, sign_projection, trivial_projection, yb_defect

    i = args.i
    unitary = all(check_unitarity(site, arg, args.lam, args.n)
                  for site in (i, i + 1) for arg in (args.u, args.v))
    defect = yb_defect(i, args.u, args.v, args.lam, args.n)
    triv = trivial_projection(defect.matrix)
    sign = sign_projection(defect.matrix)
    generic = args.u != 0 and args.v != 0 and args.u + args.v != 0
    witness = defect.matrix.first_nonzero()
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
    return results, None, 3 if failed else 0


def _cmd_delta_control(args):
    from .yang_baxter import DELTA_SIGNS, check_delta_unitarity, delta_control_defect

    i = args.i
    s_u, s_c = DELTA_SIGNS
    unitary = all(check_delta_unitarity(site, arg, args.c, args.n)
                  for site in (i, i + 1) for arg in (args.u, args.v))
    defect = delta_control_defect(i, args.u, args.v, args.c, args.n)
    first = defect.first_nonzero()
    results = {
        "variant": {"s_u": s_u, "s_c": s_c},
        "unitarity": unitary,
        "defect_zero": defect.is_zero,
        "first_nonzero": ({"row": first[0], "col": first[1], "entry": str(first[2])}
                          if first else None),
    }
    failed = (not unitary) or (not defect.is_zero)
    row = {**vars(args), **results["variant"], **results}
    return results, [row], 3 if failed else 0


def _cmd_vertex_scan(args):
    from .nonrel import vertex_expansion_scan

    scan = vertex_expansion_scan(args.k, args.mc_values)
    return scan, scan["rows"], 0


def _cmd_dispersion_scan(args):
    from .nonrel import dispersion_scan

    scan = dispersion_scan(args.k, args.mc_values)
    return scan, scan["rows"], 0


def _cmd_coupling_maps(args):
    from .nonrel import coupling_maps

    maps = coupling_maps(g=args.g, beta=args.beta, m=args.m, c=args.c, g_b=args.g_b)
    cross = abs(maps["cB_from_sg"] - maps["cB_from_phi4"])
    return {**maps, "cB_cross_check_abs_diff": cross}, None, 0


def _cmd_coleman(args):
    from .nonrel import coleman_check, coleman_full_product

    product = coleman_check(args.g, args.c)
    target = math.pi ** 2 / 4.0
    return {"product": product, "full_product": coleman_full_product(args.g, args.c),
            "pi2_over_4": target, "abs_error": abs(product - target)}, None, 0


def _cmd_reg_integral(args):
    from .regularize import closed_form, node_ratio, regularized_integral, richardson

    values = [regularized_integral(args.lam, args.e_abs, eps) for eps in args.epsilons]
    rows = [{"epsilon": eps, "value": value,
             "closed_form": closed_form(args.lam, args.e_abs, eps)}
            for eps, value in zip(args.epsilons, values)]
    # extrapolate_integral's limit, from the values computed once above
    extrapolated = richardson(values, step_ratio=node_ratio(args.epsilons))
    limit = -2.0 * args.lam * math.sqrt(args.e_abs)
    return {"rows": rows, "extrapolated": extrapolated, "epsilon_zero_limit": limit,
            "extrapolation_abs_error": abs(extrapolated - limit)}, rows, 0


def _cmd_reg_bound_state(args):
    from .regularize import bound_state_energy_via_regularization

    energy = bound_state_energy_via_regularization(args.lam)
    reference = -1.0 / (4.0 * args.lam ** 2)
    return {"energy": energy, "closed_form_energy": reference,
            "rel_error": abs(energy - reference) / abs(reference)}, None, 0


# ---------------------------------------------------------------------------
# the command table: flags are (name, add_argument keywords) pairs


class Command(NamedTuple):
    help: str
    flags: list
    handler: Callable
    columns: str   # comma-separated, as in the CSV header


_OUTPUT = [
    ("--format", dict(choices=["json", "csv"], default="json",
                      help="output format (default json)")),
    ("--output", dict(default=None,
                      help="output path (default stdout)")),
]
_N = ("--n", dict(type=int, required=True))
_BOX = ("--box", dict(type=_finite, required=True))
_LAMBDA = ("--lambda", dict(dest="lam", type=_finite, required=True))
_SITE_UV = [("--i", dict(type=int, default=1)),
            ("--u", dict(type=_rational, required=True)),
            ("--v", dict(type=_rational, required=True))]
_MC_VALUES = ("--mc-values", dict(type=_float_list, default=[10.0, 20.0, 40.0, 80.0]))
_NEWTON = [
    ("--quantum-numbers", dict(type=_float_list, default=None,
                               help="comma-separated (use --quantum-numbers=-1.5,... "
                                    "for a leading minus)")),
    ("--tol", dict(type=_finite, default=1e-13)),
    ("--max-iter", dict(type=int, default=200)),
]
_ETA_CHOICES = ["0", "pi"]
_SOLVE_COLUMNS = "j,quantum_number,root,residual"

COMMANDS = {
    "two-body": Command(
        "two-body scattering state and its contact conditions",
        [("--parity", dict(choices=["even", "odd"], required=True)),
         ("--k", dict(type=_finite, required=True)),
         _LAMBDA,
         ("--x", dict(type=_float_list, default=None, help="comma-separated sample points"))],
        _cmd_two_body,
        "parity,k,lam,energy,derivative_jump_abs,value_jump_defect_abs"),
    "bound-state": Command(
        "two-body bound state, closed form", [_LAMBDA], _cmd_bound_state,
        "lam,exists,energy,kappa"),
    "bethe-solve": Command(
        "solve the ring quantization conditions",
        [_N, _BOX, _LAMBDA,
         ("--eta", dict(choices=_ETA_CHOICES, default=None,
                        help="boundary phase (default: parity rule)")),
         *_NEWTON],
        _cmd_bethe_solve, _SOLVE_COLUMNS),
    "ll-solve": Command(
        "solve the dual delta-gas equations",
        [_N, _BOX, ("--c", dict(type=_finite, required=True)),
         ("--eta", dict(choices=_ETA_CHOICES, default="0")), *_NEWTON],
        _cmd_ll_solve, _SOLVE_COLUMNS),
    "duality": Command(
        "fermion roots vs delta-gas roots at c = 1/lambda",
        [_N, _BOX, _LAMBDA,
         ("--eta", dict(choices=_ETA_CHOICES, default=None,
                        help="fermion boundary phase (default: parity rule; the "
                             "opposite phase is the mismatch control)"))],
        _cmd_duality,
        "j,quantum_number,fermion_root,boson_root,abs_difference"),
    "gaudin-check": Command(
        "random-draw eigenfunction verification",
        [_N, ("--draws", dict(type=int, default=50)), ("--seed", dict(type=int, default=0))],
        _cmd_gaudin_check,
        "draw,lam,max_derivative_jump,max_value_jump_defect,schrodinger_residual"),
    "gs-scan": Command(
        "ground-state energy density vs particle number",
        [("--rho", dict(type=_finite, required=True)), _LAMBDA,
         ("--sizes", dict(type=_int_list, required=True,
                          help="comma-separated particle numbers, increasing"))],
        _cmd_gs_scan, "n,box_length,energy,energy_density"),
    "yb-check": Command(
        "exact Yang-Baxter defect of the exchange operator",
        [_N, *_SITE_UV, ("--lambda", dict(_LAMBDA[1], type=_rational))],
        _cmd_yb_check,
        "n,i,u,v,lam,unitarity,yb_defect_nonzero,max_entry"),
    "delta-control": Command(
        "exact Yang-Baxter check of the delta operator",
        [_N, *_SITE_UV, ("--c", dict(type=_rational, required=True))],
        _cmd_delta_control,
        "n,i,u,v,c,s_u,s_c,unitarity,defect_zero"),
    "vertex-scan": Command(
        "leading-term error of the four-point vertex vs mc",
        [("--k", dict(type=_float_list, default=[1.0, 2.0, 3.0, 5.0],
                      help="four comma-separated momenta")), _MC_VALUES],
        _cmd_vertex_scan, "mc,v_exact,v_leading,rel_error"),
    "dispersion-scan": Command(
        "dispersion expansion remainder vs mc",
        [("--k", dict(type=_finite, default=1.0)), _MC_VALUES],
        _cmd_dispersion_scan, "mc,energy,remainder"),
    "coupling-maps": Command(
        "relativistic-to-contact coupling maps",
        [("--g", dict(type=_finite, required=True)),
         ("--beta", dict(type=_finite, required=True)),
         ("--m", dict(type=_finite, default=1.0)),
         ("--c", dict(type=_finite, default=1.0)),
         ("--g-b", dict(dest="g_b", type=_finite, default=None,
                        help="explicit quartic coupling (default: derived)"))],
        _cmd_coupling_maps,
        "g,beta,m,c,lambda_from_thirring,cB_from_sg,cB_from_phi4,cB_cross_check_abs_diff"),
    "coleman": Command(
        "strong-coupling duality product lambda * c_B",
        [("--g", dict(type=_finite, required=True)), ("--c", dict(type=_finite, default=1.0))],
        _cmd_coleman, "g,c,product,full_product,abs_error"),
    "reg-integral": Command(
        "regularized self-consistency integral vs epsilon",
        [_LAMBDA, ("--e-abs", dict(dest="e_abs", type=_finite, required=True)),
         ("--epsilons", dict(type=_float_list, default=[0.2, 0.1, 0.05],
                             help="geometric nodes, largest first"))],
        _cmd_reg_integral, "epsilon,value,closed_form"),
    "reg-bound-state": Command(
        "bound-state energy from the regularized route", [_LAMBDA], _cmd_reg_bound_state,
        "lam,energy,closed_form_energy,rel_error"),
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="momgas",
                     description="Exactly solvable 1D gas with momentum-dependent "
                                 "contact interactions")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for flag, options in _OUTPUT + command.flags:
            p.add_argument(flag, **options)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        command = COMMANDS[args.command]
        results, rows, code = command.handler(args)
        # the full reproducibility block: every flag except the output path
        params = {k: v for k, v in vars(args).items() if k not in ("command", "output")}
        record = {"schema": f"momgas.{args.command}/1", "version": __version__,
                  "command": args.command, "params": _jsonable(params, "params"),
                  "results": _jsonable(results, "results")}
        if args.format == "json":
            text = json.dumps(record, sort_keys=True, indent=2) + "\n"
        else:
            text = _render_csv(command.columns, [{**record["params"], **record["results"]}]
                               if rows is None else rows)
        _write_output(text, args.output)
    except (UsageError, ValueError, TypeError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ConvergenceError) else 1
    except ArithmeticError as exc:
        # finite flags whose arithmetic leaves float64: a square underflowing
        # to zero, an exp or a power overflowing, a result or CSV cell that is
        # not finite
        print(f"error: {args.command}: float64 range exceeded ({exc})", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {args.command}: cannot write {args.output or 'stdout'}: "
              f"{exc.strerror or exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
