"""The four workloads: inputs, op lists, oracle checks and traced replays.

Every op goes through the public surface of ``handsoff``: the CLI entry
point ``cli.main`` called in-process, or an exported function. Checks run
after an op has been timed and compare what the program wrote or printed
with the references in :mod:`oracle` and the ground truth of :mod:`gen`.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import gen
import oracle
from spans import NullTracer
from handsoff import (
    AdjointParams,
    check_adjoint,
    check_hamiltonian_max,
    certify,
    cli,
    enumerate_structures,
    hamiltonian_profile,
    linf_feasibility,
    load_control,
    load_problem,
    min_time,
    propagate_exact,
    recover_adjoint,
    save_control,
    save_problem,
    save_trajectory,
    simplex_solve,
    solve_linear,
    synth_l0,
)
from handsoff.linalg import mat_exp_stack
from handsoff.lp import build_l1_lp

FEAS_TOL = 1e-6  # the CLI's default --feas-tol, also certify's --tol
MIN_TIME_TOL = 1e-3
GATE_INTERVALS = 200  # min_time's and the synth gate's grid


@dataclass
class Op:
    id: str
    kind: str  # CLI command, or "certify" for the stored ops
    run: object  # callable(tracer) -> dict of outputs
    data: dict = field(default_factory=dict)


@dataclass
class Verdict:
    reasons: list[str] = field(default_factory=list)  # oracle failures
    known: list[str] = field(default_factory=list)  # the listed check_adjoint false negative

    @property
    def failed(self) -> bool:
        return bool(self.reasons or self.known)


def run_cli(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def cli_op(op_id: str, argv: list[str], data: dict) -> Op:
    """An op that is one CLI command, timed under a ``cli.<command>`` span."""

    def run(tr) -> dict:
        with tr.span(f"cli.{argv[0]}", op_id) as span:
            out = run_cli(argv)
        out["cli_span"] = span["id"]
        return out

    return Op(op_id, argv[0], run, data)


def parse_lines(text: str) -> dict:
    pairs = (line.split("=", 1) for line in text.splitlines() if "=" in line)
    return {k.strip(): v.strip() for k, v in pairs}


class Counters:
    """Per-layer numbers gathered by the traced replays."""

    def __init__(self) -> None:
        self.n: dict[str, float] = {}
        self.solve_linear_per_call: list[float] = []
        self.mismatches: list[str] = []
        self.pivot_log: list[dict] = []

    def add(self, key: str, value: float) -> None:
        self.n[key] = self.n.get(key, 0) + value

    def peak(self, key: str, value: float) -> None:
        self.n[key] = max(self.n.get(key, -math.inf), value)


# ---------------------------------------------------------------------------
# Probes shared by the replays
# ---------------------------------------------------------------------------

_TAYLOR_CAP = 40


def mat_exp_stack_flops(stack: np.ndarray) -> int:
    """Computed flop count of ``mat_exp_stack`` on this stack.

    Mirrors the kernel's scaling (1-norm to at most 0.5) and counts one
    batched n x n product (2 n^3 flops) per Taylor term and per squaring.
    The term count is the smallest k with rho^k / k! <= 1e-18 for the
    largest scaled norm rho, the kernel's own stopping threshold.
    """
    n = stack.shape[1]
    norms = np.abs(stack).sum(axis=1).max(axis=1)
    squarings = np.where(norms > 0.5, np.ceil(np.log2(np.maximum(norms, 1e-300) / 0.5)), 0.0)
    rho = float((norms / 2.0**squarings).max()) if norms.size else 0.0
    terms, mag = 1, rho
    while terms < _TAYLOR_CAP - 1 and mag > 1e-18:
        terms += 1
        mag = mag * rho / terms
    return int(2 * n**3 * (stack.shape[0] * terms + squarings.sum()))


def probe_mat_exp_stack(tr, op: str, ctr: Counters, prob, grid: np.ndarray) -> None:
    """The costate-grid stack that recovery and certification build."""
    stack = prob.F.T[None, :, :] * (prob.b - grid)[:, None, None]
    tr.call("linalg.mat_exp_stack", op, mat_exp_stack, stack)
    ctr.add("linalg.mat_exp_stack_flops", mat_exp_stack_flops(stack))


def basis_of(lp_problem, x: np.ndarray) -> np.ndarray:
    """A d x d basis of the solved LP: the columns of the variables strictly
    between their bounds, completed with slack (unit) columns."""
    d = lp_problem.a_eq.shape[0]
    inside = (x > lp_problem.lower + 1e-9) & (x < lp_problem.upper - 1e-9)
    cols = [lp_problem.a_eq[:, j] for j in np.flatnonzero(inside)]
    cols += list(np.eye(d))
    chosen: list[np.ndarray] = []
    for col in cols:
        trial = np.column_stack(chosen + [col])
        if np.linalg.matrix_rank(trial) == trial.shape[1]:
            chosen.append(col)
        if len(chosen) == d:
            break
    return np.column_stack(chosen)


def probe_lp(tr, op: str, ctr: Counters, prob, intervals: int, label: str, parent=None) -> None:
    """build_l1_lp plus simplex_solve, and solve_linear on the final basis."""
    lp_problem = tr.call("lp.build_l1_lp", op, build_l1_lp, prob, intervals, parent=parent)
    sol = tr.call("lp.simplex_solve", op, simplex_solve, lp_problem, parent=parent)
    ctr.add("lp.pivots", sol.iterations)
    ctr.add(f"pivots:{label}", sol.iterations)
    ctr.pivot_log.append({"input": label, "intervals": intervals, "pivots": sol.iterations})
    basis = basis_of(lp_problem, sol.x)
    rhs = lp_problem.b_eq
    reps = 200
    start = time.perf_counter()
    for _ in range(reps):
        solve_linear(basis, rhs)
    ctr.solve_linear_per_call.append((time.perf_counter() - start) / reps)


def probe_gate(tr, op: str, ctr: Counters, prob, parent=None) -> None:
    tr.call("synth.min_time", op, min_time, prob, MIN_TIME_TOL, GATE_INTERVALS, parent=parent)
    tr.call("lp.linf_feasibility", op, linf_feasibility, prob, prob.horizon, GATE_INTERVALS)


def probe_recover(tr, op: str, ctr: Counters, prob, control, seed: int = 42, parent=None):
    ap = tr.call("synth.recover_adjoint", op, recover_adjoint, prob, control, seed=seed, parent=parent)
    ctr.add("synth.recover_calls", 1)
    ctr.add("synth.recover_found", ap is not None)
    probe_mat_exp_stack(tr, op, ctr, prob, np.linspace(prob.a, prob.b, 1001))
    return ap


def replay_certify(tr, op: str, ctr: Counters, prob, ap, control, parent=None):
    """certify, then its sub-checks and propagation on their own, as children."""
    with tr.span("certify.certify", op, parent) as span:
        report = certify(prob, ap.eta, ap.p_hat, control)
    traj = tr.call("sim.propagate_exact", op, propagate_exact, prob, control, parent=span["id"])
    tr.call("certify.check_adjoint", op, check_adjoint, prob, ap, parent=span["id"])
    tr.call("sim.hamiltonian_profile", op, hamiltonian_profile, prob, ap, traj, control, parent=span["id"])
    tr.call("certify.check_hamiltonian_max", op, check_hamiltonian_max, prob, ap, traj, control,
            parent=span["id"])
    probe_mat_exp_stack(tr, op, ctr, prob, traj.grid)
    ctr.add("certify.calls", 1)
    ctr.add("certify.passed", report.passed)
    ctr.peak("certify.adjoint_residual_max", report.adjoint_residual)
    ctr.add("sim.grid_points", traj.grid.size)
    return report


def replay_artifacts(tr, op: str, ctr: Counters, prob, control, ap, out: Path, parent=None) -> None:
    """What the CLI writes after a solve: control CSV, trajectory CSV."""
    control_path = out / "replay_control.csv"
    traj_path = out / "replay_trajectory.csv"
    tr.call("model.save_control", op, save_control, control, control_path, parent=parent)
    traj = tr.call("sim.propagate_exact", op, propagate_exact, prob, control, parent=parent)
    tr.call("sim.save_trajectory", op, save_trajectory, traj, traj_path, prob=prob, ap=ap, parent=parent)
    ctr.add("sim.grid_points", traj.grid.size)
    ctr.add("model.bytes_written", control_path.stat().st_size + traj_path.stat().st_size)


def replay_synth(tr, op: str, ctr: Counters, prob, parent, printed: dict, k_max=None, seed=42):
    """synth_l0, then its gate, recovery and certificate on their own.

    The standalone results are compared with the untraced CLI answer; a
    mismatch is flagged in the report, never counted as a failed op.
    """
    with tr.span("synth.synth_l0", op, parent) as span:
        result = synth_l0(prob, k_max=k_max, seed=seed)
    probe_gate(tr, op, ctr, prob, parent=span["id"])
    ap = probe_recover(tr, op, ctr, prob, result.control, seed=seed, parent=span["id"])
    if ap is not None:
        replay_certify(tr, op, ctr, prob, ap, result.control, parent=span["id"])
    ctr.add("synth.structures", len(result.trials))
    ctr.add(f"structures:{op}", len(result.trials))
    ctr.add("synth.feasible", sum(t.feasible for t in result.trials))
    expected = len(enumerate_structures(prob.m, prob.U, k_max if k_max is not None else 2 * prob.d + 1))
    if len(result.trials) != expected:
        ctr.mismatches.append(f"{op}: {len(result.trials)} structures fitted, {expected} enumerated")
    support_key = next((k for k in ("l0_support", "support") if k in printed), None)
    if support_key and abs(result.support - float(printed[support_key])) > 5e-7:
        ctr.mismatches.append(f"{op}: standalone support {result.support:.6f} != CLI {printed[support_key]}")
    return result, ap


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Workload:
    name = ""  # as in BENCHMARK.json, which also says why the workload exists

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.work = work
        self.inputs = work / "inputs"
        self.refs: dict = {}

    def prepare(self) -> list[Path]:
        """Generate and write the inputs; return the files written."""
        raise NotImplementedError

    def ops(self) -> list[Op]:
        raise NotImplementedError

    def references(self) -> None:
        """Compute the oracle references (outside any timed region)."""

    def check(self, op: Op, out: dict) -> Verdict:
        raise NotImplementedError

    def quality(self, op: Op, out: dict) -> dict | None:
        """For an L0 solve: whether it is certified and its support excess."""
        return None

    def replay(self, tr, op: Op, out: dict, cli_span: int, ctr: Counters) -> None:
        """Time the public calls an op made, on the same inputs."""

    def corrupt(self, op: Op, out: dict) -> Verdict:
        """Self-check: check a deliberately wrong answer; must fail."""
        raise NotImplementedError

    def _out(self, op_id: str) -> Path:
        return self.work / "out" / op_id


def _l0_checks(v: Verdict, plant: gen.Plant, path: Path) -> gen.Control:
    control = oracle.read_control(path)
    res = oracle.endpoint_residual(plant, control)
    if not res <= FEAS_TOL:
        v.reasons.append(f"{path.name}: endpoint residual {res:.3e} > {FEAS_TOL:g}")
    return control


def _l1_checks(v: Verdict, plant: gen.Plant, path: Path, ref: dict) -> gen.Control:
    control = oracle.read_control(path)
    cost = oracle.l1_cost(control)
    if not abs(cost - ref["cost"]) <= 1e-6 * abs(ref["cost"]):
        v.reasons.append(f"{path.name}: L1 cost {cost:.12g} vs HiGHS {ref['cost']:.12g}")
    res = oracle.endpoint_residual(plant, control)
    if not res <= FEAS_TOL:
        v.reasons.append(f"{path.name}: endpoint residual {res:.3e} > {FEAS_TOL:g}")
    return control


def _self_check(plant: gen.Plant, returned: Path) -> Verdict:
    """Run the endpoint check on the returned control with its first
    nonzero segment switched off; the verdict must be a failure."""
    control = oracle.read_control(returned)
    values = control.values.copy()
    values[np.flatnonzero(np.abs(values[:, 0]) > oracle.ZERO_TOL)[0]] = 0.0
    wrong = returned.with_name("self_check_control.csv")
    gen.write_control(gen.Control(control.breakpoints, values), wrong)
    v = Verdict()
    _l0_checks(v, plant, wrong)
    return v


class PaperExamples(Workload):
    name = "paper_examples"
    PLANTS = {"ex1": gen.example_1, "ex2": gen.example_2}
    INTERVALS = 1000

    def prepare(self) -> list[Path]:
        self.inputs.mkdir(parents=True, exist_ok=True)
        paths = []
        for name, make in self.PLANTS.items():
            path = self.inputs / f"{name}_reference.json"
            gen.write_problem(make(), path)
            paths.append(path)
        return paths

    def ops(self) -> list[Op]:
        ops = []
        for name in self.PLANTS:
            argv = ["example", name, "--seed", str(self.seed), "--out", str(self._out(name))]
            ops.append(cli_op(name, argv, {"name": name}))
        return ops

    def references(self) -> None:
        for name, make in self.PLANTS.items():
            self.refs[name] = oracle.l1_reference(make(), self.INTERVALS)

    def check(self, op: Op, out: dict) -> Verdict:
        v = Verdict()
        name = op.data["name"]
        plant = self.PLANTS[name]()
        if out["code"] != 0:
            v.reasons.append(f"exit {out['code']}: {out['stderr'].strip()}")
            return v
        l0 = _l0_checks(v, plant, self._out(name) / f"{name}_l0_control.csv")
        sup = oracle.support(l0)
        if not abs(sup - 3.0) <= 1e-4:
            v.reasons.append(f"L0 support {sup:.6f}, paper value 3")
        if name == "ex2":
            inner = l0.breakpoints[1:-1]
            if inner.size != 2 or not np.all(np.abs(inner - [11 / 6, 29 / 6]) <= 1e-3):
                v.reasons.append(f"breakpoints {inner.tolist()}, paper values 11/6, 29/6")
        if parse_lines(out["stdout"]).get("l0_certified") != "true":
            v.reasons.append("not certified")
        l1 = _l1_checks(v, plant, self._out(name) / f"{name}_l1_control.csv", self.refs[name])
        if not abs(oracle.l1_cost(l1) - 3.0) <= 1e-3:
            v.reasons.append(f"L1 cost {oracle.l1_cost(l1):.6f}, paper value 3")
        return v

    def quality(self, op: Op, out: dict) -> dict | None:
        name = op.data["name"]
        l0 = oracle.read_control(self._out(name) / f"{name}_l0_control.csv")
        return {"certified": parse_lines(out["stdout"]).get("l0_certified") == "true",
                "support_excess": oracle.support(l0) - self.refs[name]["support"]}

    def replay(self, tr, op: Op, out: dict, cli_span: int, ctr: Counters) -> None:
        name, outdir = op.data["name"], self._out(op.id)
        prob = tr.call("model.load_problem", op.id, load_problem, outdir / f"{name}.json")
        tr.call("model.save_problem", op.id, save_problem, prob, outdir / "replay_problem.json", parent=cli_span)
        ctr.add("model.bytes_written", (outdir / "replay_problem.json").stat().st_size)
        result, ap = replay_synth(tr, op.id, ctr, prob, cli_span, parse_lines(out["stdout"]), seed=self.seed)
        replay_artifacts(tr, op.id, ctr, prob, result.control, result.certificate, outdir, parent=cli_span)
        if result.certificate is not None:
            replay_certify(tr, op.id, ctr, prob, result.certificate, result.control, parent=cli_span)
        probe_lp(tr, op.id, ctr, prob, self.INTERVALS, parent=cli_span, label=f"{name}@{self.INTERVALS}")

    def corrupt(self, op: Op, out: dict) -> Verdict:
        name = op.data["name"]
        return _self_check(self.PLANTS[name](), self._out(name) / f"{name}_l0_control.csv")


class L1FineGrid(Workload):
    name = "l1_fine_grid"

    def prepare(self) -> list[Path]:
        self.inputs.mkdir(parents=True, exist_ok=True)
        self.plants = {"ex2": gen.example_2(), "d3": gen.plant_d3(self.seed)}
        paths = []
        for name, plant in self.plants.items():
            path = self.inputs / f"{name}.json"
            gen.write_problem(plant, path)
            paths.append(path)
        return paths

    def ops(self) -> list[Op]:
        specs = [
            ("l1_ex2", "solve-l1", "ex2", ["--intervals", "2000"]),
            ("l1_d3", "solve-l1", "d3", ["--intervals", "600"]),
            ("mt_d3", "min-time", "d3", []),
        ]
        ops = []
        for op_id, kind, plant, extra in specs:
            argv = [kind, str(self.inputs / f"{plant}.json"), *extra]
            if kind == "solve-l1":
                argv += ["--out", str(self._out(op_id))]
            intervals = int(extra[1]) if extra else GATE_INTERVALS
            ops.append(cli_op(op_id, argv, {"plant": plant, "intervals": intervals}))
        return ops

    def references(self) -> None:
        self.refs["l1_ex2"] = oracle.l1_reference(self.plants["ex2"], 2000)
        self.refs["l1_d3"] = oracle.l1_reference(self.plants["d3"], 600)
        self.refs["mt_d3"] = oracle.min_time_reference(self.plants["d3"], MIN_TIME_TOL, GATE_INTERVALS)

    def check(self, op: Op, out: dict) -> Verdict:
        v = Verdict()
        if out["code"] != 0:
            v.reasons.append(f"exit {out['code']}: {out['stderr'].strip()}")
            return v
        plant = self.plants[op.data["plant"]]
        if op.kind == "solve-l1":
            _l1_checks(v, plant, self._out(op.id) / f"{op.data['plant']}_l1_control.csv", self.refs[op.id])
        else:
            value = float(parse_lines(out["stdout"])["min_time"])
            if not abs(value - self.refs[op.id]) <= 2 * MIN_TIME_TOL:
                v.reasons.append(f"min_time {value:.6f} vs HiGHS bisection {self.refs[op.id]:.6f}")
        return v

    def replay(self, tr, op: Op, out: dict, cli_span: int, ctr: Counters) -> None:
        path = self.inputs / f"{op.data['plant']}.json"
        prob = tr.call("model.load_problem", op.id, load_problem, path, parent=cli_span)
        if op.kind == "min-time":
            tr.call("synth.min_time", op.id, min_time, prob, MIN_TIME_TOL, GATE_INTERVALS, parent=cli_span)
            tr.call("lp.linf_feasibility", op.id, linf_feasibility, prob, prob.horizon, GATE_INTERVALS)
            return
        probe_lp(tr, op.id, ctr, prob, op.data["intervals"], parent=cli_span,
                 label=f"{op.data['plant']}@{op.data['intervals']}")
        control = load_control(self._out(op.id) / f"{op.data['plant']}_l1_control.csv")
        replay_artifacts(tr, op.id, ctr, prob, control, None, self._out(op.id), parent=cli_span)
        # Not part of solve-l1: is the LP vertex an extremal? (item 4's seed)
        probe_recover(tr, op.id, ctr, prob, control)

    def corrupt(self, op: Op, out: dict) -> Verdict:
        return _self_check(self.plants["ex2"], self._out(op.id) / "ex2_l1_control.csv")


class SparseD3(Workload):
    name = "sparse_d3"
    L1_INTERVALS = 600

    def prepare(self) -> list[Path]:
        # Seed 0 is ROADMAP's d=3 plant: uncertified and beaten by the LP.
        self.inputs.mkdir(parents=True, exist_ok=True)
        self.plants = {"d3": gen.plant_d3(self.seed)}
        paths = []
        for name, plant in self.plants.items():
            path = self.inputs / f"{name}.json"
            gen.write_problem(plant, path)
            paths.append(path)
        return paths

    def ops(self) -> list[Op]:
        ops = []
        for name in self.plants:
            argv = ["solve-l0", str(self.inputs / f"{name}.json"), "--kmax", "4", "--out", str(self._out(name))]
            ops.append(cli_op(name, argv, {"plant": name}))
        return ops

    def references(self) -> None:
        for name, plant in self.plants.items():
            self.refs[name] = oracle.l1_reference(plant, self.L1_INTERVALS)

    def check(self, op: Op, out: dict) -> Verdict:
        v = Verdict()
        if out["code"] != 0:
            v.reasons.append(f"exit {out['code']}: {out['stderr'].strip()}")
            return v
        _l0_checks(v, self.plants[op.id], self._out(op.id) / f"{op.id}_l0_control.csv")
        return v

    def quality(self, op: Op, out: dict) -> dict | None:
        l0 = oracle.read_control(self._out(op.id) / f"{op.id}_l0_control.csv")
        return {"certified": parse_lines(out["stdout"]).get("certified") == "true",
                "support_excess": oracle.support(l0) - self.refs[op.id]["support"]}

    def replay(self, tr, op: Op, out: dict, cli_span: int, ctr: Counters) -> None:
        prob = tr.call("model.load_problem", op.id, load_problem, self.inputs / f"{op.id}.json", parent=cli_span)
        result, ap = replay_synth(tr, op.id, ctr, prob, cli_span, parse_lines(out["stdout"]), k_max=4)
        replay_artifacts(tr, op.id, ctr, prob, result.control, result.certificate, self._out(op.id),
                         parent=cli_span)
        # Not part of solve-l0: the L1 LP that support_excess compares with.
        probe_lp(tr, op.id, ctr, prob, self.L1_INTERVALS, label=f"{op.id}@{self.L1_INTERVALS}")

    def corrupt(self, op: Op, out: dict) -> Verdict:
        return _self_check(self.plants[op.id], self._out(op.id) / f"{op.id}_l0_control.csv")


class CertifyStored(Workload):
    name = "certify_stored"
    PLANTS = 34  # 34 extremals + 68 perturbed copies = 102 ops per pass

    def prepare(self) -> list[Path]:
        self.inputs.mkdir(parents=True, exist_ok=True)
        self.cases = gen.stored_cases(self.seed, self.PLANTS)
        paths = []
        for case in self.cases:
            case.files = {"problem": self.inputs / f"{case.name}.json",
                          "control": self.inputs / f"{case.name}.csv"}
            gen.write_problem(case.plant, case.files["problem"])
            gen.write_control(case.control, case.files["control"])
            paths += list(case.files.values())
        (self.work / "out").mkdir(parents=True, exist_ok=True)
        return paths

    def ops(self) -> list[Op]:
        return [Op(case.name, "certify", self._runner(case), {"case": case}) for case in self.cases]

    def _runner(self, case: gen.StoredCase):
        problem, control = str(case.files["problem"]), str(case.files["control"])
        argv = ["certify", problem, control, "--eta", "1",
                "--phat=" + ",".join(repr(float(x)) for x in case.p_hat)]
        traj_path = self.work / "out" / f"{case.name}_trajectory.csv"

        def run(tr) -> dict:
            with tr.span("cli.certify", case.name) as span:
                out = run_cli(argv)
            out["cli_span"] = span["id"]
            if not case.extremal:
                return out
            prob = tr.call("model.load_problem", case.name, load_problem, problem)
            u = tr.call("model.load_control", case.name, load_control, control)
            ap = tr.call("synth.recover_adjoint", case.name, recover_adjoint, prob, u)
            out["recovered"] = ap
            if ap is not None:
                out["report"] = tr.call("certify.certify", case.name, certify, prob, ap.eta, ap.p_hat, u)
            traj = tr.call("sim.propagate_exact", case.name, propagate_exact, prob, u)
            tr.call("sim.save_trajectory", case.name, save_trajectory, traj, traj_path, prob=prob, ap=ap)
            out["trajectory"] = traj_path
            out["grid_points"] = traj.grid.size
            return out

        return run

    def check(self, op: Op, out: dict) -> Verdict:
        v = Verdict()
        case: gen.StoredCase = op.data["case"]
        expected = 0 if case.extremal else 3
        if out["code"] != expected:
            if case.extremal and out["code"] == 3:
                self._classify(v, "CLI certify", json.loads(out["stdout"]))
            else:
                v.reasons.append(f"exit {out['code']}, ground truth {expected} ({case.note})")
        if not case.extremal:
            return v
        ap = out["recovered"]
        if ap is None or ap.eta != 1:
            v.reasons.append(f"recover_adjoint returned {ap}, ground truth eta=1")
            return v
        err = float(np.linalg.norm(ap.p_hat - case.p_hat) / np.linalg.norm(case.p_hat))
        if not err <= 1e-6:
            v.reasons.append(f"recovered p_hat off by {err:.2e} (relative)")
        if not out["report"].passed:
            self._classify(v, "certify(recovered)", out["report"].to_dict())
        last = np.loadtxt(out["trajectory"], delimiter=",", skiprows=1)[-1]
        res = float(np.linalg.norm(last[1:1 + case.plant.d] - case.plant.B))
        if not res <= FEAS_TOL:
            v.reasons.append(f"saved trajectory ends {res:.3e} from B")
        return v

    @staticmethod
    def _classify(v: Verdict, what: str, report: dict) -> None:
        """An exact extremal has adjoint defect 0, so a failure that is the
        adjoint check alone is the known false negative; anything else is
        a plain oracle failure. Both count as failed."""
        others = ("hmax_violation", "constancy_spread", "endpoint_residual")
        if report["adjoint_residual"] > FEAS_TOL and all(report[k] <= FEAS_TOL for k in others):
            v.known.append(f"{what}: check_adjoint false negative, residual {report['adjoint_residual']:.3e}")
        else:
            v.reasons.append(f"{what} failed an exact extremal: {json.dumps(report)}")

    def replay(self, tr, op: Op, out: dict, cli_span: int, ctr: Counters) -> None:
        case: gen.StoredCase = op.data["case"]
        prob = tr.call("model.load_problem", op.id, load_problem, case.files["problem"], parent=cli_span)
        u = tr.call("model.load_control", op.id, load_control, case.files["control"], parent=cli_span)
        replay_certify(tr, op.id, ctr, prob, AdjointParams(1, case.p_hat), u, parent=cli_span)
        saved = self.work / "out" / f"{op.id}_replay_control.csv"
        tr.call("model.save_control", op.id, save_control, u, saved)
        ctr.add("model.bytes_written", saved.stat().st_size)
        if case.extremal:
            ctr.add("synth.recover_calls", 1)
            ctr.add("synth.recover_found", out["recovered"] is not None)
            ctr.add("sim.grid_points", out["grid_points"])
            ctr.add("model.bytes_written", Path(out["trajectory"]).stat().st_size)
            probe_mat_exp_stack(tr, op.id, ctr, prob, np.linspace(prob.a, prob.b, 1001))
        # Not part of certify: the gate and LP layers, timed on the first plant.
        if case is self.cases[0]:
            probe_gate(tr, op.id, ctr, prob)
            probe_lp(tr, op.id, ctr, prob, GATE_INTERVALS, label=f"{case.name}@{GATE_INTERVALS}")

    def corrupt(self, op: Op, out: dict) -> Verdict:
        """Run and check a perturbed copy posed as an extremal. Its failures
        must be plain oracle failures, not the known false negative."""
        case = next(c for c in self.cases if not c.extremal)
        posed = gen.StoredCase(case.name, case.plant, case.control, case.p_hat, True, case.note, case.files)
        posed_op = Op(posed.name, "certify", self._runner(posed), {"case": posed})
        return Verdict(reasons=self.check(posed_op, posed_op.run(NullTracer())).reasons)


WORKLOADS = {w.name: w for w in (PaperExamples, L1FineGrid, SparseD3, CertifyStored)}
