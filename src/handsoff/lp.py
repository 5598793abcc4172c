"""Bounded-variable linear programming and the exact-discretization L1 LP.

The solver is a self-contained primal simplex for problems of the form

    minimize    c @ x
    subject to  a_eq @ x = b_eq,   lower <= x <= upper,

with per-variable bounds that may be infinite. Phase I minimizes signed
artificial variables to find a vertex; Phase II pins the artificials at
zero and optimizes the real cost. The entering variable is the eligible
one of largest |reduced cost| (Dantzig pricing, ties to the smallest
index); after a run of degenerate basis changes it falls back to Bland's
smallest-index rule until a step moves. Termination stays finite: a Bland
run cannot cycle (Bland 1977), and every non-degenerate step strictly
lowers the objective, so no basis repeats across them. The leaving
variable is the ratio-test minimum with smallest-index ties. Each basis
is factored once; a bound flip keeps it. The one factorization serves the
basic values, the duals and the entering column of every pivot until the
basis changes, and so does one pricing pass: the eligible variables and
their |reduced cost| are found once per basis, and since a flip keeps the
reduced costs and only makes the flipped variable ineligible, the next
entering variable comes from the same candidates with the flipped one's
gain zeroed (the bounded-variable bookkeeping of Maros 2003). A nonbasic
variable's bound is read from its value, giving a +1/-1/0 pricing direction
that a pivot changes in one or two entries, as it does the kept nonbasic
values; pivot paths and bits are unchanged. An optimal solution returns
the duals of its final basis, y = c_B^T B^-1, which the last
factorization already gives. Those duals can start another LP with the
same rows: each variable begins at the bound its reduced cost under them
favours, which puts a nearby LP a few pivots from its optimum (how
:func:`handsoff.synth.min_time` warm-starts its bisection). Everything is
deterministic, which is what reproducible experiments need.

The L1 relaxation of a steering task is assembled on a uniform grid with
the exact zero-order-hold transition pair, so the discrete dynamics carry
no integration error for piecewise-constant inputs: any gap between the
LP optimum and the continuous problem is purely the control-class
restriction. Each input sample splits as u = u_plus - u_minus with
nonnegative parts, making the integral of |u| linear.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .linalg import solve_linear
from .model import Box, PiecewiseConstantControl, Problem, ValidationError


class LpStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ITERATION_LIMIT = "iteration_limit"


class LpError(RuntimeError):
    """A relaxation LP did not come back optimal."""

    def __init__(self, status: LpStatus, context: str):
        self.status = status
        super().__init__(f"{context}: LP finished with status {status.value}")


@dataclass(frozen=True)
class LpProblem:
    """Equality-constrained LP with per-variable bounds."""

    c: np.ndarray
    a_eq: np.ndarray
    b_eq: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float)
        a = np.atleast_2d(np.asarray(self.a_eq, dtype=float))
        b = np.atleast_1d(np.asarray(self.b_eq, dtype=float))
        lo = np.asarray(self.lower, dtype=float)
        hi = np.asarray(self.upper, dtype=float)
        n = c.size
        if a.shape[1] != n:
            raise ValueError(f"a_eq has {a.shape[1]} columns for {n} variables")
        if b.size != a.shape[0]:
            raise ValueError(f"b_eq has {b.size} entries for {a.shape[0]} rows")
        if lo.shape != (n,) or hi.shape != (n,):
            raise ValueError("bounds must match the variable count")
        if np.any(lo > hi):
            raise ValueError("lower bound exceeds upper bound")
        for name, arr in (("c", c), ("a_eq", a), ("b_eq", b), ("lower", lo), ("upper", hi)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return self.c.size

    @property
    def rows(self) -> int:
        return self.a_eq.shape[0]


@dataclass(frozen=True)
class LpSolution:
    x: np.ndarray
    objective: float
    status: LpStatus
    iterations: int
    #: Row duals y = c_B^T B^-1 of the optimal basis (None unless OPTIMAL):
    #: the reduced costs c - a_eq^T y are >= 0 at lower bounds, <= 0 at
    #: upper bounds and 0 on basic variables.
    duals: np.ndarray | None = None


_DTOL = 1e-9  # reduced-cost optimality tolerance
_PTOL = 1e-11  # pivot-direction tolerance in the ratio test
_DEGENERATE_STEP = 1e-12  # a basis change moving no further is degenerate
_BLAND_AFTER = 50  # consecutive degenerate basis changes before Bland pricing


def simplex_solve(
    problem: LpProblem, max_iterations: int = 10**6, *, start_duals: np.ndarray | None = None
) -> LpSolution:
    """Solve a bounded-variable LP by two-phase primal simplex.

    Returns the classic trichotomy in ``status``; an exhausted iteration
    budget is reported as ``ITERATION_LIMIT`` rather than being passed off
    as one of the three outcomes. An optimal solution carries its row
    duals in ``duals``.

    ``start_duals`` warm-starts the nonbasic bounds from the duals of a
    nearby LP with the same rows: each variable whose reduced cost under
    them exceeds the optimality tolerance in magnitude starts at the
    finite bound that reduced cost favours, every other one where the
    cold start puts it. Both phases then run as usual, so the start
    changes the pivot path, not the optimum. Raises ``ValueError`` unless
    ``start_duals`` has shape ``(rows,)`` and finite entries.
    """
    n, rows = problem.n, problem.rows
    lo = np.concatenate([problem.lower, np.zeros(rows)])
    hi = np.concatenate([problem.upper, np.full(rows, np.inf)])

    # Nonbasic start: every structural variable at a finite bound.
    finite_lo, finite_hi = np.isfinite(problem.lower), np.isfinite(problem.upper)
    from_upper = ~finite_lo & finite_hi
    if start_duals is not None:
        start_duals = np.asarray(start_duals, dtype=float)
        if start_duals.shape != (rows,) or not np.isfinite(start_duals).all():
            raise ValueError(f"start_duals needs shape ({rows},) and finite entries, got shape {start_duals.shape}")
        # Each variable moves to the finite bound its reduced cost favours.
        reduced = problem.c - problem.a_eq.T @ start_duals
        from_upper &= ~((reduced > _DTOL) & finite_lo)
        from_upper |= (reduced < -_DTOL) & finite_hi
    x = np.zeros(n + rows)
    x[:n] = np.where(from_upper, problem.upper, np.where(finite_lo, problem.lower, 0.0))

    residual = problem.b_eq - problem.a_eq @ x[:n]
    signs = np.where(residual >= 0.0, 1.0, -1.0)
    a_full = np.hstack([problem.a_eq, np.diag(signs)])
    basis = list(range(n, n + rows))
    x[n:] = np.abs(residual)

    phase1_cost = np.concatenate([np.zeros(n), np.ones(rows)])
    iterations, status, _ = _simplex_core(a_full, problem.b_eq, phase1_cost, lo, hi, basis, x, max_iterations)
    if status is not LpStatus.OPTIMAL:
        return LpSolution(x[:n].copy(), float("nan"), status, iterations)
    if float(phase1_cost @ x) > 1e-8 * (1.0 + float(np.abs(problem.b_eq).max(initial=0.0))):
        return LpSolution(x[:n].copy(), float("nan"), LpStatus.INFEASIBLE, iterations)

    # Phase II: artificials pinned at zero, real cost in.
    lo[n:] = 0.0
    hi[n:] = 0.0
    x[n:] = np.where(np.isin(np.arange(n, n + rows), basis), x[n:], 0.0)
    phase2_cost = np.concatenate([problem.c, np.zeros(rows)])
    more, status, duals = _simplex_core(
        a_full, problem.b_eq, phase2_cost, lo, hi, basis, x, max_iterations - iterations
    )
    iterations += more
    x_struct = np.clip(x[:n], problem.lower, problem.upper)
    objective = float(problem.c @ x_struct) if status is LpStatus.OPTIMAL else float("nan")
    return LpSolution(x_struct, objective, status, iterations, duals)


def _simplex_core(a_full, b_eq, cost, lo, hi, basis, x, budget) -> tuple[int, LpStatus, np.ndarray | None]:
    """Run simplex pivots in place; returns (iterations, status, duals), the
    duals y of the final basis when the status is OPTIMAL, else None."""
    identity = np.eye(a_full.shape[0])
    columns = np.ascontiguousarray(a_full.T)  # a row take gathers columns
    movable = hi - lo > 0.0  # pinned variables never re-enter
    nonbasic = np.ones(a_full.shape[1], dtype=bool)
    nonbasic[basis] = False
    # A nonbasic variable sits at a bound (a free one at 0), so x gives its
    # direction: +1 at a movable lower bound, -1 at a movable upper bound,
    # else 0 (free ones are priced apart); eligible at direction * reduced < -_DTOL.
    free = (~np.isfinite(lo) & ~np.isfinite(hi)).nonzero()[0]
    direction = np.where(nonbasic & movable, np.where(x == hi, -1.0, 1.0), 0.0)
    direction[free] = 0.0
    iterations = 0
    degenerate_run = 0
    refactor = True
    while True:
        if iterations >= budget:
            if not refactor:  # the last pivot flipped: its x_B is not in x yet
                x[basis] = x_basic
            return iterations, LpStatus.ITERATION_LIMIT, None
        iterations += 1

        if refactor:
            # One factorization per basis serves x_B, the duals, the entering
            # columns and the pricing candidates; a bound flip keeps all of it.
            refactor = False
            nonbasic_idx = nonbasic.nonzero()[0]
            a_nonbasic = columns.take(nonbasic_idx, axis=0).T
            x_nonbasic = x.take(nonbasic_idx)  # patched in place by each flip
            b_inv = solve_linear(a_full[:, basis], identity)
            y = b_inv.T @ cost[np.asarray(basis)]
            reduced = cost - a_full.T @ y
            eligible = direction * reduced < -_DTOL
            if free.size:
                eligible[free] = nonbasic[free] & (np.abs(reduced[free]) > _DTOL)
            # A flip keeps the reduced costs and only makes the flipped
            # variable ineligible, so it zeroes that candidate's gain.
            candidates = eligible.nonzero()[0]
            gains = np.abs(reduced[candidates])
            live = candidates.size
            lo_basic, hi_basic = lo[basis].tolist(), hi[basis].tolist()
        rhs = b_eq - a_nonbasic @ x_nonbasic
        x_basic = b_inv @ rhs

        if live == 0:
            x[basis] = x_basic
            return iterations, LpStatus.OPTIMAL, y
        if degenerate_run >= _BLAND_AFTER:
            pick = int((gains > 0.0).argmax())  # Bland: smallest eligible index
        else:
            # Dantzig: largest |reduced cost|, ties to the smallest index.
            pick = int(gains.argmax())
        entering = int(candidates[pick])

        sigma = float(direction[entering]) or (1.0 if reduced[entering] < 0 else -1.0)  # free: downhill

        w = b_inv @ columns[entering]
        delta = (-sigma * w).tolist()  # per-unit motion of the basic values

        # Candidate steps: every blocked basic variable, plus the entering
        # variable flipping to its own opposite bound.
        best_t = math.inf
        best_index = -1  # variable index, for Bland tie-breaking
        best_pos = -1
        for pos, (var, value, step) in enumerate(zip(basis, x_basic.tolist(), delta)):
            if step > _PTOL:
                limit = hi_basic[pos]
                t = (limit - value) / step if math.isfinite(limit) else math.inf
            elif step < -_PTOL:
                limit = lo_basic[pos]
                t = (value - limit) / (-step) if math.isfinite(limit) else math.inf
            else:
                continue
            t = max(t, 0.0)
            if t < best_t - 1e-12 or (t <= best_t + 1e-12 and (best_index < 0 or var < best_index)):
                best_t, best_index, best_pos = t, var, pos

        flip_t = float(hi[entering] - lo[entering])  # inf unless both bounds are finite
        if math.isfinite(flip_t) and (
            flip_t < best_t - 1e-12
            or (flip_t <= best_t + 1e-12 and (best_index < 0 or entering < best_index))
        ):
            best_t, best_index, best_pos = flip_t, entering, -1

        if not math.isfinite(best_t):
            x[basis] = x_basic
            return iterations, LpStatus.UNBOUNDED, None

        if best_pos < 0:
            # Bound flip: no basis change, and a strict objective decrease.
            degenerate_run = 0
            gains[pick] = 0.0
            live -= 1
            direction[entering] = -direction[entering]
            x[entering] = hi[entering] if direction[entering] < 0 else lo[entering]
            x_nonbasic[nonbasic_idx.searchsorted(entering)] = x[entering]
            continue

        degenerate_run = degenerate_run + 1 if best_t <= _DEGENERATE_STEP else 0
        leaving = basis[best_pos]
        x[basis] = x_basic
        x[entering] = x[entering] + sigma * best_t
        x[leaving] = hi[leaving] if delta[best_pos] > 0 else lo[leaving]
        direction[entering] = 0.0
        direction[leaving] = (-1.0 if delta[best_pos] > 0 else 1.0) if movable[leaving] else 0.0
        basis[best_pos] = entering
        nonbasic[entering], nonbasic[leaving] = False, True
        refactor = True


# ---------------------------------------------------------------------------
# Steering-task LPs
# ---------------------------------------------------------------------------


def _transition_maps(prob: Problem, horizon: float, n_intervals: int):
    """Per-interval endpoint influence maps under exact ZOH discretization.

    Returns (maps, drift_end) with ``maps[k] = a_d^(N-1-k) @ b_d`` and
    ``drift_end = a_d^N @ A``: the final state is
    ``drift_end + sum_k maps[k] @ u_k``.
    """
    dt = horizon / n_intervals
    e = prob.zoh_flow(dt)
    a_d, b_d = e[: prob.d, : prob.d], e[: prob.d, prob.d :]
    maps = np.empty((n_intervals, prob.d, prob.m))
    maps[n_intervals - 1] = b_d
    for k in range(n_intervals - 2, -1, -1):
        maps[k] = a_d @ maps[k + 1]
    drift = prob.A.copy()
    for _ in range(n_intervals):
        drift = a_d @ drift
    return maps, drift


def _require_box(prob: Problem, what: str) -> Box:
    if not isinstance(prob.U, Box):
        raise ValidationError("U", f"{what} is defined for box input sets only")
    return prob.U


def _input_columns(prob: Problem, box: Box, horizon: float, n_intervals: int):
    """Endpoint columns of the inputs, one per interval and channel in that
    order, shape (d, n_intervals * m), with their box bounds and the drift
    (see :func:`_transition_maps`)."""
    maps, drift = _transition_maps(prob, horizon, n_intervals)
    columns = maps.transpose(1, 0, 2).reshape(prob.d, -1)
    return columns, np.tile(box.lower, n_intervals), np.tile(box.upper, n_intervals), drift


def build_l1_lp(prob: Problem, n_intervals: int) -> LpProblem:
    """Assemble the L1-cost relaxation on a uniform n_intervals grid.

    Variables are interleaved positive/negative parts per sample and
    channel; the d equality rows pin the exact discretized endpoint.
    """
    if n_intervals < 1:
        raise ValueError("n_intervals must be at least 1")
    box = _require_box(prob, "the L1 relaxation")
    columns, lower, upper, drift = _input_columns(prob, box, prob.horizon, n_intervals)
    return LpProblem(
        c=np.full(2 * columns.shape[1], prob.horizon / n_intervals),
        a_eq=np.stack([columns, -columns], axis=-1).reshape(prob.d, -1),
        b_eq=prob.B - drift,
        lower=np.zeros(2 * columns.shape[1]),
        upper=np.stack([upper, -lower], axis=-1).ravel(),
    )


def l1_solve(prob: Problem, n_intervals: int) -> tuple[PiecewiseConstantControl, float]:
    """Minimize the integral of |u| over the discretized steering task.

    Returns the reassembled n_intervals-segment control and the LP cost.
    """
    lp = build_l1_lp(prob, n_intervals)
    sol = simplex_solve(lp)
    if sol.status is not LpStatus.OPTIMAL:
        raise LpError(sol.status, "L1 relaxation")
    parts = sol.x.reshape(n_intervals, prob.m, 2)
    values = np.clip(parts[:, :, 0] - parts[:, :, 1], prob.U.lower, prob.U.upper)
    breakpoints = np.linspace(prob.a, prob.b, n_intervals + 1)
    return PiecewiseConstantControl(breakpoints, values), sol.objective


def linf_feasibility(prob: Problem, horizon: float, n_intervals: int) -> float:
    """Smallest uniform input-scaling s that steers A to B in ``horizon``.

    Solves the gauge form: maximize gamma subject to reaching
    gamma * (B - drift) with u in the unscaled box, then s = 1/gamma.
    A value <= 1 means the task is feasible at that horizon; +inf means
    the endpoint is unreachable in this control class at any scaling.
    """
    return _gauge_scaling(prob, horizon, n_intervals)[0]


def _gauge_scaling(
    prob: Problem, horizon: float, n_intervals: int, start_duals: np.ndarray | None = None
) -> tuple[float, np.ndarray | None]:
    """:func:`linf_feasibility` with the gauge LP's duals beside the scaling
    (None when no LP was needed), its simplex started from ``start_duals``."""
    if not horizon > 0:
        raise ValueError("horizon must be positive")
    box = _require_box(prob, "the feasibility test")
    columns, lower, upper, drift = _input_columns(prob, box, horizon, n_intervals)
    target = prob.B - drift
    if float(np.abs(target).max(initial=0.0)) <= 1e-12:
        return 0.0, None

    a_eq = np.column_stack([columns, -target])
    lower, upper = np.append(lower, 0.0), np.append(upper, np.inf)
    cost = np.zeros(columns.shape[1] + 1)
    cost[-1] = -1.0

    sol = simplex_solve(LpProblem(cost, a_eq, np.zeros(prob.d), lower, upper), start_duals=start_duals)
    if sol.status is not LpStatus.OPTIMAL:
        raise LpError(sol.status, "feasibility scaling")
    gamma = float(sol.x[-1])
    if gamma <= 1e-9:
        return float("inf"), sol.duals
    return 1.0 / gamma, sol.duals
