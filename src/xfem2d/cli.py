"""Command-line entry point.

Subcommands
-----------
solve
    One stationary solve of the configured problem; emits the SIF table,
    opening profiles, the visualization dump, and the run log.
propagate
    Quasi-static growth over the configured load schedule, then the same
    artifact set for the final solved geometry.
sweep-table1
    Center-crack plate sweep over several refinements, solved with and
    without branch enrichment; prints the comparison against the closed
    form and writes it as a table.
converge
    Mesh-halving ladder of an edge crack under the exact mode-I Williams
    boundary displacement, measured against that closed form: prints each
    rung's energy-norm error and K_I error, and the fitted energy-norm
    slope (about 1/2 with the tip element alone enriched).

Exit codes: 0 success, 1 invalid configuration or arguments, 2 solver
failure.  Errors go to standard error, prefixed with the pipeline stage
that raised them.
"""

from __future__ import annotations

import argparse
# argparse looks its messages up through gettext, which imports locale on
# its first call: imported here, that is with the package, not in a run.
import locale  # noqa: F401
import math
import os
import sys

from xfem2d.assembly import SolverError
from xfem2d.config import load_config
from xfem2d.driver import (
    _stage,
    _staged,
    run_propagation,
    run_stationary,
    setup_problem,
    stationary_history,
)
from xfem2d.output import (
    write_cod_csv,
    write_field_dump,
    write_run_log,
    write_sif_csv,
)

__all__ = ["main"]

# Every error class of the package that is not a solver failure
# subclasses ValueError.
_VALIDATION_ERRORS = (ValueError, OSError, KeyError)


class _UsageError(Exception):
    """Bad arguments; carries the parser usage text."""

    def __init__(self, message: str, usage: str):
        super().__init__(message)
        self.usage = usage


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: A003 - argparse hook
        raise _UsageError(message, self.format_usage())


def _fail(message: str, stage: str) -> None:
    print(f"xfem2d: {_staged(message, stage)}", file=sys.stderr)


def _progress(enabled: bool):
    if enabled:
        return lambda text: print(text, file=sys.stderr)
    return lambda text: None


def _emit_artifacts(args, config, problem, state, history, log) -> str:
    """Write the configured artifacts, failing under the ``[output]`` stage;
    returns their directory."""
    artifacts = config.outputs.artifacts
    with _stage("output"):
        directory = args.out if args.out else config.outputs.directory
        os.makedirs(directory, exist_ok=True)
        if "sif_csv" in artifacts and history.steps:
            path = os.path.join(directory, "sif_history.csv")
            write_sif_csv(history, path)
            log(f"[output] wrote {path}")
        if "cod_csv" in artifacts and state is not None:
            path = os.path.join(directory, "cod_profiles.csv")
            step = history.steps[-1].step if history.steps else 0
            write_cod_csv(state, problem.mesh, problem.emap, path, step=step)
            log(f"[output] wrote {path}")
        if "field_dump" in artifacts and state is not None:
            path = os.path.join(directory, "field_dump.vtk")
            write_field_dump(state, problem.mesh, problem.emap, config.material, path)
            log(f"[output] wrote {path}")
        if "run_log" in artifacts:
            path = os.path.join(directory, "run_log.txt")
            write_run_log(config, problem.mesh, history, path)
            log(f"[output] wrote {path}")
    return directory


def _cmd_solve(args) -> int:
    log = _progress(args.verbose)
    config = load_config(args.config)
    log(f"[config] loaded {args.config}")
    problem = setup_problem(config)
    log(f"[mesh] {problem.mesh.n_nodes} nodes, "
        f"{problem.mesh.n_elements} elements")
    log(f"[classification] |m_disc| = {problem.emap.n_heaviside}, "
        f"|m_tip| = {problem.emap.n_tip}")
    unresolved = []
    state, results = run_stationary(config, problem=problem, unresolved=unresolved)
    log(f"[solve] residual {state.residual:.3e}")
    history = stationary_history(problem, state, results, unresolved)
    directory = _emit_artifacts(args, config, problem, state, history, log)
    for res in results:
        print(
            f"crack {res.crack_id} tip {res.tip_id}: "
            f"K_I = {res.K_I:.6g} Pa*sqrt(m), "
            f"K_II = {res.K_II:.6g} Pa*sqrt(m), "
            f"J = {res.J:.6g} J/m^2, "
            f"theta_c = {math.degrees(res.theta_c):.4g} deg"
        )
    for ev in unresolved:
        print(f"crack {ev.crack_id} tip {ev.tip_id}: unresolved -- {ev.reason}")
    print(f"artifacts in {directory}")
    return 0


def _cmd_propagate(args) -> int:
    log = _progress(args.verbose)
    config = load_config(args.config)
    log(f"[config] loaded {args.config}")
    history = run_propagation(config)
    for rec in history.steps:
        log(f"[solve] step {rec.step}: load factor {rec.load_factor:.6g}, "
            f"{len(rec.extensions)} extension(s), residual {rec.residual:.3e}")
    directory = _emit_artifacts(args, config, history.final_problem, history.final_state,
                                history, log)
    print(f"steps solved: {len(history.steps)}")
    print(f"growth steps applied: {history.n_increments}")
    print(f"stop: {history.stop_reason}")
    for crack in history.final_cracks:
        print(f"crack {crack.id}: length {crack.length:.6g} m")
    print(f"artifacts in {directory}")
    if history.error:
        _fail(history.error, "solve")
        return 2
    return 0


def _cmd_sweep(args) -> int:
    from xfem2d import benchmarks

    log = _progress(args.verbose)
    ratios = benchmarks.TABLE1_RATIOS if args.ratios is None else tuple(
        float(r) for r in args.ratios.split(","))
    for ratio in ratios:  # an unknown ratio fails before the first solve
        benchmarks._table1_case(ratio)
    rows = []
    for ratio in ratios:
        row = {"ratio": ratio}
        for with_tip in (True, False):
            config = benchmarks.table1_config(ratio, with_tip=with_tip)
            problem = setup_problem(config)
            state, results = run_stationary(config, problem=problem)
            k1 = sum(r.K_I for r in results) / len(results)
            a_eff = results[0].a_eff
            exact = benchmarks.center_crack_exact_ki(
                benchmarks.TABLE1_SIGMA,
                a_eff if not with_tip else benchmarks.TABLE1_HALF_LENGTH,
            )
            key = "tip" if with_tip else "amp"
            row[key] = k1
            row[key + "_err"] = 100.0 * (k1 - exact) / exact
            row[key + "_aeff"] = a_eff
            log(f"[sweep] a/s = {ratio:g}, "
                + ("with" if with_tip else "without")
                + f" branch enrichment: K_I = {k1:.6g}")
        rows.append(row)
    header = (f"{'a/s':>6}  {'K_I (tip)':>12}  {'err %':>7}  "
              f"{'K_I (no tip)':>13}  {'a_eff':>7}  {'err %':>7}")
    print(header)
    for row in rows:
        print(
            f"{row['ratio']:>6g}  {row['tip']:>12.6g}  "
            f"{row['tip_err']:>7.2f}  {row['amp']:>13.6g}  "
            f"{row['amp_aeff']:>7.4g}  {row['amp_err']:>7.2f}"
        )
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "sweep.csv")
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(
                "a_over_s,K_I_tip,err_tip_pct,K_I_no_tip,a_eff,"
                "err_no_tip_pct\n")
            for row in rows:
                handle.write(
                    f"{row['ratio']:.9g},{row['tip']:.9g},"
                    f"{row['tip_err']:.9g},{row['amp']:.9g},"
                    f"{row['amp_aeff']:.9g},{row['amp_err']:.9g}\n")
        print(f"table written to {path}")
    return 0


def _cmd_converge(args) -> int:
    from xfem2d import benchmarks

    log = _progress(args.verbose)
    sizes = None
    if args.sizes is not None:
        sizes = tuple(float(s) for s in args.sizes.split(","))
    result = benchmarks.convergence_ladder(sizes=sizes, progress=log)
    rungs = list(zip(result.sizes, result.errors, result.ki_errors))
    print(f"{'h':>10}  {'energy error':>14}  {'K_I - 1':>12}")
    for h, err, ki_err in rungs:
        print(f"{h:>10g}  {err:>14.6e}  {ki_err:>12.4e}")
    print(f"fitted slope: {result.slope:.4f} (R^2 = {result.r_squared:.4f})")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "convergence.csv")
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write("h,energy_error,ki_error\n")
            for h, err, ki_err in rungs:
                handle.write(f"{h:.9g},{err:.9g},{ki_err:.9g}\n")
        print(f"table written to {path}")
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="xfem2d",
        description="2D extended finite element fracture solver",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    def add(name, func, help_text, needs_config):
        p = sub.add_parser(name, help=help_text)
        if needs_config:
            p.add_argument("--config", help="run configuration file")
        p.add_argument("--out", help="output directory")
        p.add_argument("--verbose", action="store_true",
                       help="progress to standard error")
        p.set_defaults(func=func, needs_config=needs_config)
        return p

    add("solve", _cmd_solve, "stationary solve with SIF extraction", True)
    add("propagate", _cmd_propagate, "quasi-static crack growth", True)
    sweep = add("sweep-table1", _cmd_sweep,
                "center-crack refinement sweep, both enrichment modes", False)
    sweep.add_argument("--ratios",
                       help="comma-separated a/s ratios (default full set)")
    conv = add("converge", _cmd_converge,
               "energy-norm convergence ladder", False)
    conv.add_argument("--sizes",
                      help="comma-separated element sizes h, 2/h odd (default ladder)")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(exc.usage.rstrip(), file=sys.stderr)
        _fail(str(exc), "args")
        return 1
    if args.command is None:
        print(parser.format_usage().rstrip(), file=sys.stderr)
        _fail("a command is required", "args")
        return 1
    if args.needs_config and not args.config:
        print(parser.format_usage().rstrip(), file=sys.stderr)
        _fail("--config is required", "args")
        return 1
    try:
        return args.func(args)
    except SolverError as exc:
        _fail(str(exc), "solve")
        return 2
    except _VALIDATION_ERRORS as exc:
        _fail(str(exc), "config")
        return 1


if __name__ == "__main__":
    sys.exit(main())
