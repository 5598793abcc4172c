"""Command-line front end.

Subcommands: ``solve-l0`` (sparsest control synthesis), ``solve-l1``
(the LP relaxation), ``certify`` (maximum-principle check of a stored
control), ``singularity`` (the double-integrator L1 singularity test),
``min-time`` (feasibility horizon), and ``example`` (run the built-in
benchmarks and emit a side-by-side comparison figure).

Exit codes: 0 success, 1 usage or parse errors, 2 infeasible problems,
3 failed certificates. The parser is built on the first :func:`main` call
and reused by later calls in the same process.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .certificate import certify
from .lp import LpError, LpStatus, l1_solve
from .model import (
    Box,
    ValidationError,
    l0_cost,
    l1_cost,
    load_control,
    load_problem,
    save_control,
    save_problem,
)
from .problems import BUILTIN, nonsparse_l1_witness
from .sim import endpoint_residual, propagate_exact, save_trajectory
from .svgplot import Panel, render, step_points
from .synth import (
    InfeasibleProblemError,
    NoFeasibleStructureError,
    StructureBudgetError,
    UnsupportedProblemError,
    min_time,
    synth_l0,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_CERTIFICATE = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad arguments; the contract here is 1.
    def error(self, message):
        raise _UsageError(message)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="handsoff", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"handsoff {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # The synthesis options that solve-l0 and example share.
    synth_opts = argparse.ArgumentParser(add_help=False)
    synth_opts.add_argument("--kmax", type=int, default=None, help="max segments (default 2d+1)")
    synth_opts.add_argument("--feas-tol", type=float, default=1e-6, help="endpoint residual tolerance")
    synth_opts.add_argument("--zero-tol", type=float, default=1e-9, help="support zero threshold")
    synth_opts.add_argument("--seed", type=int, default=42)

    p_l0 = sub.add_parser(
        "solve-l0", parents=[synth_opts], help="synthesize the sparsest steering control"
    )
    p_l0.add_argument("problem", help="problem JSON file")
    p_l0.add_argument("--out", default=".", help="output directory")
    p_l0.add_argument("--plot", action="store_true", help="emit an SVG figure")

    p_l1 = sub.add_parser("solve-l1", help="solve the L1 relaxation LP")
    p_l1.add_argument("problem", help="problem JSON file")
    p_l1.add_argument("--intervals", type=int, default=1000, help="discretization intervals")
    p_l1.add_argument("--zero-tol", type=float, default=1e-9)
    p_l1.add_argument("--out", default=".")
    p_l1.add_argument("--plot", action="store_true")

    p_cert = sub.add_parser("certify", help="check a control against the maximum principle")
    p_cert.add_argument("problem", help="problem JSON file")
    p_cert.add_argument("control", help="control CSV file")
    p_cert.add_argument("--eta", type=int, choices=(0, 1), required=True)
    p_cert.add_argument(
        "--phat", required=True, help="terminal costate, comma-separated (e.g. --phat=-1,0)"
    )
    p_cert.add_argument("--tol", type=float, default=1e-6, help="tolerance for all checks")
    # Let a leading negative component (e.g. --phat -0.5,1) parse as a
    # value instead of an unknown flag.
    p_cert._negative_number_matcher = re.compile(r"^-\d+(\.\d*)?([eE][-+]?\d+)?(,.*)?$")

    p_sing = sub.add_parser(
        "singularity", help="evaluate the double-integrator L1 singularity conditions"
    )
    p_sing.add_argument("--xi1", type=float, required=True)
    p_sing.add_argument("--xi2", type=float, required=True)
    p_sing.add_argument("--horizon", type=float, required=True)

    p_ex = sub.add_parser("example", parents=[synth_opts], help="run a built-in benchmark end to end")
    p_ex.add_argument("name", choices=sorted(BUILTIN))
    p_ex.add_argument("--intervals", type=int, default=1000)
    p_ex.add_argument("--out", default=".")

    p_mt = sub.add_parser("min-time", help="minimum feasible transfer horizon")
    p_mt.add_argument("problem", help="problem JSON file")
    p_mt.add_argument("--intervals", type=int, default=200)
    p_mt.add_argument("--tol", type=float, default=1e-3)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """:func:`build_parser`, built on the first :func:`main` call and reused:
    each parse fills a fresh namespace, so no state carries over."""
    return build_parser()


def _check_ranges(args) -> None:
    intervals = getattr(args, "intervals", None)
    if intervals is not None and not 2 <= intervals <= 10**6:
        raise _UsageError(f"--intervals must be in [2, 1e6], got {intervals}")
    kmax = getattr(args, "kmax", None)
    if kmax is not None and not 1 <= kmax <= 31:
        raise _UsageError(f"--kmax must be in [1, 31], got {kmax}")
    if getattr(args, "seed", 0) < 0:
        raise _UsageError(f"--seed must be nonnegative, got {args.seed}")
    # A residual tolerance (and the singularity horizon) must admit
    # something; --zero-tol 0 counts only exact zeros as off.
    for name in ("tol", "feas_tol", "zero_tol", "horizon"):
        value, kind = getattr(args, name, None), "nonnegative" if name == "zero_tol" else "positive"
        if value is not None and not (np.isfinite(value) and (value > 0 or (kind == "nonnegative" and value == 0))):
            raise _UsageError(f"--{name.replace('_', '-')} must be finite and {kind}, got {value}")
    for name in ("xi1", "xi2"):
        if not np.isfinite(getattr(args, name, 0.0)):
            raise _UsageError(f"--{name} must be finite, got {getattr(args, name)}")


def _parse_vector(text: str) -> np.ndarray:
    try:
        return np.array([float(tok) for tok in text.split(",") if tok.strip() != ""])
    except ValueError as exc:
        raise _UsageError(f"cannot parse vector {text!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _solve_l0_artifacts(prob, result, out: Path, stem: str, plot: bool) -> None:
    control_path = out / f"{stem}_l0_control.csv"
    save_control(result.control, control_path)
    traj_path = out / f"{stem}_l0_trajectory.csv"
    save_trajectory(result.trajectory, traj_path, prob=prob, ap=result.certificate)
    sidecar = {
        "support": result.support,
        "eta": result.certificate.eta if result.certificate else None,
        "p_hat": [float(x) for x in result.certificate.p_hat] if result.certificate else None,
        "certified": result.certified,
        "locally_optimal": result.locally_optimal,
        "lower_bound": _finite_or_none(result.lower_bound),
        "gap": _finite_or_none(result.gap),
        "globally_optimal": result.globally_optimal,
    }
    (out / f"{stem}_l0_solution.json").write_text(json.dumps(sidecar, indent=2) + "\n")
    if result.report is not None:
        (out / f"{stem}_l0_certificate.json").write_text(result.report.to_json() + "\n")
    if plot:
        _render_solution_svg(prob, result, out / f"{stem}_l0.svg")


def _finite_or_none(x: float) -> float | None:
    """JSON has no infinities; a missing bound is written as null."""
    return float(x) if np.isfinite(x) else None


def _render_solution_svg(prob, result, path):
    traj = result.trajectory
    control_panel = Panel("control", ylabel="u")
    cx, cy = step_points(result.control.breakpoints, result.control.values[:, 0])
    control_panel.add(cx, cy, label="sparsest control")
    state_panel = Panel("states", ylabel="z")
    for i in range(prob.d):
        state_panel.add(traj.grid, traj.states[:, i], label=f"z_{i + 1}")
    render([control_panel, state_panel], path)


def _synth(prob, args):
    return synth_l0(
        prob, k_max=args.kmax, feas_tol=args.feas_tol, zero_tol=args.zero_tol, seed=args.seed
    )


def _print_synth(result, prefix: str = "") -> None:
    bps = ",".join(f"{t:.12g}" for t in result.control.breakpoints)
    print(f"{prefix}support={result.support:.6f}")
    print(f"{prefix}breakpoints={bps}")
    print(f"{prefix}endpoint_residual={result.residual:.6e}")
    print(f"{prefix}certified={str(result.certified).lower()}")
    print(f"{prefix}locally_optimal={str(result.locally_optimal).lower()}")
    print(f"{prefix}lower_bound={result.lower_bound:.9f}")
    print(f"{prefix}gap={result.gap:.6e}")


def cmd_solve_l0(args) -> int:
    prob = load_problem(args.problem)
    result = _synth(prob, args)
    _solve_l0_artifacts(prob, result, _out_dir(args), Path(args.problem).stem, args.plot)
    _print_synth(result)
    return EXIT_OK


def _load_box_problem(args):
    """The problem file of a command whose LPs need a box input set."""
    prob = load_problem(args.problem)
    if not isinstance(prob.U, Box):
        raise _UsageError(f"{args.command} needs a box input set (U kind \"box\"); this problem's U is a ball")
    return prob


def cmd_solve_l1(args) -> int:
    prob = _load_box_problem(args)
    control, cost = l1_solve(prob, args.intervals)
    out = _out_dir(args)
    stem = Path(args.problem).stem
    save_control(control, out / f"{stem}_l1_control.csv")
    traj = propagate_exact(prob, control)
    save_trajectory(traj, out / f"{stem}_l1_trajectory.csv")
    support = l0_cost(control, args.zero_tol)
    if args.plot:
        panel = Panel("L1-relaxation control", ylabel="u")
        cx, cy = step_points(control.breakpoints, control.values[:, 0])
        panel.add(cx, cy, label="L1 control", dashed=True)
        render([panel], out / f"{stem}_l1.svg")
    print(f"l1_cost={cost:.6f}")
    print(f"support={support:.6f}")
    return EXIT_OK


def cmd_certify(args) -> int:
    prob = load_problem(args.problem)
    control = load_control(args.control)
    p_hat = _parse_vector(args.phat)
    if p_hat.size != prob.d:
        raise _UsageError(f"--phat needs {prob.d} components, got {p_hat.size}")
    if not np.all(np.isfinite(p_hat)):
        raise _UsageError(f"--phat components must be finite, got {args.phat}")
    report = certify(prob, args.eta, p_hat, control, tol=args.tol)
    print(report.to_json())
    return EXIT_OK if report.passed else EXIT_CERTIFICATE


def cmd_singularity(args) -> int:
    xi1, xi2, horizon = args.xi1, args.xi2, args.horizon
    cond1 = xi1 > xi2**2 / 2.0
    cond2 = xi2 < 0.0
    cond3 = xi2 != 0.0 and (-xi2 / 2.0 - xi1 / xi2) >= horizon
    singular = cond1 and cond2 and cond3
    print(f"cond1_xi1_gt_half_xi2_sq={str(cond1).lower()}")
    print(f"cond2_xi2_negative={str(cond2).lower()}")
    print(f"cond3_horizon_bound={str(cond3).lower()}")
    print(f"singular={str(singular).lower()}")
    return EXIT_OK


def cmd_example(args) -> int:
    prob = BUILTIN[args.name]()
    out = _out_dir(args)
    problem_path = out / f"{args.name}.json"
    save_problem(prob, problem_path)
    print(f"problem={problem_path}")

    result = _synth(prob, args)
    _solve_l0_artifacts(prob, result, out, args.name, plot=False)
    _print_synth(result, "l0_")

    l1_control, l1_cost_value = l1_solve(prob, args.intervals)
    save_control(l1_control, out / f"{args.name}_l1_control.csv")
    l1_support = l0_cost(l1_control, args.zero_tol)
    print(f"l1_cost={l1_cost_value:.6f}")
    print(f"l1_support={l1_support:.6f}")

    # The relaxation's non-sparsity is shown either directly by the LP
    # solution's support or, when the simplex lands on a sparse vertex of
    # a singular optimum, by a constructed equal-cost spread control.
    nonsparse = l1_support > result.support + 0.05
    witness = None if nonsparse else nonsparse_l1_witness(prob)
    if witness is None:
        print(f"l1_nonsparse={str(nonsparse).lower()}")
    else:
        w_cost = l1_cost(witness)
        w_support = l0_cost(witness, args.zero_tol)
        w_res = endpoint_residual(propagate_exact(prob, witness), prob.B)
        save_control(witness, out / f"{args.name}_l1_witness_control.csv")
        print(f"witness_cost={w_cost:.9f}")
        print(f"witness_support={w_support:.6f}")
        print(f"witness_residual={w_res:.6e}")
        print("l1_nonsparse=witness")

    compare = Panel(f"{args.name}: sparsest (solid) vs L1-relaxed (dashed) control", ylabel="u")
    sx, sy = step_points(result.control.breakpoints, result.control.values[:, 0])
    compare.add(sx, sy, label="hands-off control")
    lx, ly = step_points(l1_control.breakpoints, l1_control.values[:, 0])
    compare.add(lx, ly, label="L1 control", dashed=True)
    states = Panel("states under the sparsest control", ylabel="z")
    traj = result.trajectory
    for i in range(prob.d):
        states.add(traj.grid, traj.states[:, i], label=f"z_{i + 1}")
    render([compare, states], out / f"{args.name}_comparison.svg")
    return EXIT_OK


def cmd_min_time(args) -> int:
    prob = _load_box_problem(args)
    value = min_time(prob, tol=args.tol, n_intervals=args.intervals)
    print(f"min_time={value:.6f}")
    return EXIT_OK if np.isfinite(value) else EXIT_INFEASIBLE


_COMMANDS = {
    "solve-l0": cmd_solve_l0,
    "solve-l1": cmd_solve_l1,
    "certify": cmd_certify,
    "singularity": cmd_singularity,
    "example": cmd_example,
    "min-time": cmd_min_time,
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
        _check_ranges(args)
        return _COMMANDS[args.command](args)
    except (_UsageError, UnsupportedProblemError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValidationError, json.JSONDecodeError) as exc:
        print(f"error: invalid problem or control file: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except StructureBudgetError as exc:
        print(f"error: --kmax: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (InfeasibleProblemError, NoFeasibleStructureError) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except LpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE if exc.status is LpStatus.INFEASIBLE else EXIT_USAGE


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
