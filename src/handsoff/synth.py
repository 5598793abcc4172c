"""Hands-off (sparsest) control synthesis for LTI steering tasks.

Optimal controls are bang-off-bang, so the solution space is organized by
*structure*: a short sequence of segment labels, each label either the
zero input or a saturated one. Synthesis enumerates structures sparsest
first (fewest "on" segments, then fewest segments), optimizes the segment
durations of each to meet the endpoint, and keeps the feasible candidate
of smallest support measure.

Structure search is the primary path rather than shooting on the terminal
costate: in singular instances the switching function sits exactly on the
threshold, the pointwise maximizer is a tie set for all time, and no
costate determines the control. Duration optimization resolves the tie;
shooting is demoted to certificate recovery
(:func:`handsoff.certificate.recover_adjoint`).

Durations are fitted by the switching-time method (Kaya & Noakes): the
endpoint is smooth in the segment durations, with the closed-form
derivative ``dz(b)/dtheta_k = exp(F (b - theta_k)) G (v_{k-1} - v_k)`` in
each switch time, so one exponential per segment gives the endpoint and
its Jacobian. Projected Levenberg-Marquardt (Gauss-Newton with damping)
solves for the head durations from Dirichlet draws of the duration
simplex; ball "on" directions join the same solve through the chain rule.
Consecutive structures with the same on-segment and segment counts share
their free variables, so the starts of a whole run of them are stacked,
advanced in lockstep and evaluated in one vectorized computation per
iteration. Each structure's fit stops at the first of its starts that
meets the endpoint or once all of its starts have stalled, which ends
infeasible structures early. :func:`_fit_run` alone sets this policy (the
runs, each structure's seed, the starts and iterations of a fit), and the
sweep takes its fits in enumeration order as they stop.

The sweep stops as soon as the incumbent is certified globally optimal.
Every terminal costate p gives a Lagrange dual lower bound g(p) on the
support of every feasible control (:func:`handsoff.certificate.dual_bound`);
the crossing equations of each new incumbent give a candidate p. Once the
incumbent's support is within SUPPORT_TIE / 2 of the best bound, no later
structure can undercut it by the SUPPORT_TIE a takeover needs, so the
remaining structures are recorded as pruned instead of fitted.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from . import lp
from .certificate import (
    CertificateReport, _certify_trajectory, _crossing_least_squares, dual_bound, recover_adjoint
)
from .control_law import AdjointParams
from .model import Ball, Box, PiecewiseConstantControl, Problem, Trajectory, l0_cost
from .sim import endpoint_residual, propagate_exact

#: Segment durations below this fraction of the horizon are dropped when a
#: candidate is assembled into a control.
MIN_SEGMENT = 1e-9

#: Two supports within this absolute tolerance count as tied; the earlier
#: structure in enumeration order wins.
SUPPORT_TIE = 1e-6


class InfeasibleProblemError(RuntimeError):
    """The steering task cannot be met on the given horizon."""


class NoFeasibleStructureError(RuntimeError):
    """No enumerated structure met the endpoint. The message says whether a
    larger segment budget or a longer horizon is the likely remedy."""


class StructureBudgetError(ValueError):
    """The segment budget k_max enumerates too many structures to fit."""


class UnsupportedProblemError(ValueError):
    """A valid problem the sweep cannot fit: free ball directions exist for
    2 or 3 input channels only."""


@dataclass(frozen=True)
class Structure:
    """Candidate segment-label sequence.

    Box labels are concrete input vectors with components in
    {lower_i, 0, upper_i}; ball labels are the strings "off"/"on", the
    "on" direction being optimized jointly with the durations.
    """

    labels: tuple

    def __post_init__(self):
        if len(self.labels) < 1:
            raise ValueError("a structure needs at least one segment")
        for prev, cur in zip(self.labels, self.labels[1:]):
            if prev == cur:
                raise ValueError(f"consecutive identical labels in {self.labels}")

    @property
    def segments(self) -> int:
        return len(self.labels)

    @property
    def n_on(self) -> int:
        return sum(1 for lab in self.labels if not _is_off_label(lab))


def _is_off_label(label) -> bool:
    if label == "off":
        return True
    if label == "on":
        return False
    return all(x == 0.0 for x in label)


@dataclass(frozen=True)
class TrialRecord:
    """One structure's best duration fit during the search, with the
    solver iterations it took. A pruned structure was never fitted: the
    sweep stopped before it (residual and support are nan)."""

    structure: Structure
    residual: float
    support: float
    feasible: bool
    iterations: int
    pruned: bool = False


@dataclass(frozen=True)
class SynthResult:
    """Winning control, its trajectory, recovered multiplier, its
    certificate report, and the best dual lower bound on the support of
    any feasible control (-inf when no multiplier gave one)."""

    control: PiecewiseConstantControl
    trajectory: Trajectory
    support: float
    certificate: AdjointParams | None
    report: CertificateReport | None
    residual: float
    trials: tuple[TrialRecord, ...]
    lower_bound: float

    @property
    def certified(self) -> bool:
        return self.report is not None and self.report.passed

    @property
    def locally_optimal(self) -> bool:
        return self.report is not None and self.report.locally_optimal

    @property
    def gap(self) -> float:
        """Duality gap: how far the support may lie above the optimum."""
        return self.support - self.lower_bound

    @property
    def globally_optimal(self) -> bool:
        return self.gap <= SUPPORT_TIE


def enumerate_structures(m: int, u_set: Box | Ball, k_max: int) -> list[Structure]:
    """All label sequences up to length k_max without consecutive repeats,
    ordered sparsest first: by on-segment count, then length, then the
    generation order (zero label before saturations)."""
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    if isinstance(u_set, Box) or m == 1:
        if isinstance(u_set, Box):
            per_channel = [(0.0, float(u_set.lower[i]), float(u_set.upper[i])) for i in range(m)]
        else:
            per_channel = [(0.0, -float(u_set.radius), float(u_set.radius))]
        labels: list = [tuple(combo) for combo in itertools.product(*per_channel)]
        labels.sort(key=lambda lab: any(x != 0.0 for x in lab))  # zero label first
    else:
        labels = ["off", "on"]

    n_labels = len(labels)
    count = sum(n_labels * (n_labels - 1) ** (k - 1) for k in range(1, k_max + 1))
    if count > 10**6:
        raise StructureBudgetError(f"{count} structures for m={m}, k_max={k_max} exceed 1e6")

    # Label indices of every length-k sequence, in the lexicographic order
    # of the label product: each row is extended by every label but its
    # last one, in label order (index j + (j >= last) skips the last).
    rows = [np.arange(n_labels, dtype=np.min_scalar_type(n_labels))[:, None]]
    skip = rows[0][:-1, 0]
    for _ in range(1, k_max):
        prev = rows[-1]
        nxt = skip[None, :] + (skip[None, :] >= prev[:, -1:])
        rows.append(np.column_stack([np.repeat(prev, n_labels - 1, axis=0), nxt.ravel()]))
    on_label = np.array([not _is_off_label(lab) for lab in labels])
    on_counts = [on_label[r].sum(axis=1) for r in rows]
    # Sparsest first: by on-segment count, then length, then generation order.
    return [
        Structure(tuple(labels[i] for i in row))
        for n_on in range(k_max + 1)
        for r, counts in zip(rows, on_counts)
        for row in r[counts == n_on].tolist()
    ]


# ---------------------------------------------------------------------------
# Batched endpoint evaluation
# ---------------------------------------------------------------------------


def _endpoint_jacobian(
    prob: Problem, values: np.ndarray, durations: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Final states of a batch of candidates from A and their derivatives.

    values (batch, segs, m), durations (batch, segs). Returns the final
    states (batch, d), their derivatives in the segment durations
    (batch, d, segs) and in the segment values (batch, segs, d, m).
    Lengthening segment k by dt adds its end velocity
    F z_{k+1} + G v_k times dt at its end, which the later segment maps Psi
    carry to the final state; the value v_k enters the final state through
    Psi B_d of segment k. One call of the problem's ZOH kernel gives all
    of it.
    """
    batch, segs, m = values.shape
    d = prob.d
    e = prob.zoh_flow(durations.reshape(-1)).reshape(batch, segs, d + m, d + m)
    a_d, b_d = e[..., :d, :d], e[..., :d, d:]
    ends = np.empty((batch, segs, d))
    z = np.broadcast_to(prob.A, (batch, d))
    for k in range(segs):
        z = np.einsum("pij,pj->pi", a_d[:, k], z) + np.einsum("pij,pj->pi", b_d[:, k], values[:, k])
        ends[:, k] = z
    psi = np.empty((batch, segs, d, d))  # psi[:, k]: end of segment k -> final state
    psi[:, -1] = np.eye(d)
    for k in range(segs - 2, -1, -1):
        psi[:, k] = psi[:, k + 1] @ a_d[:, k + 1]
    velocity = ends @ prob.F.T + values @ prob.G.T
    return z, np.einsum("pkij,pkj->pik", psi, velocity), psi @ b_d


def _project_budget_rows(x: np.ndarray, total: float) -> np.ndarray:
    """Row-wise Euclidean projection onto {x >= 0, sum(x) <= total}."""
    clipped = np.maximum(x, 0.0)
    over = clipped.sum(axis=1) > total
    if np.any(over):
        rows = x[over]
        u = -np.sort(-rows, axis=1)
        css = np.cumsum(u, axis=1) - total
        ks = np.arange(1, rows.shape[1] + 1)
        positive = u - css / ks > 0
        rho = rows.shape[1] - 1 - np.argmax(positive[:, ::-1], axis=1)
        tau = css[np.arange(rows.shape[0]), rho] / (rho + 1)
        clipped[over] = np.maximum(rows - tau[:, None], 0.0)
    return clipped


# ---------------------------------------------------------------------------
# Duration optimization
# ---------------------------------------------------------------------------


def _ball_directions(angles: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Unit vectors (batch, m) from (batch, m-1) angle blocks, and their
    derivatives in the angles (batch, m, m-1)."""
    if m == 2:
        c, s = np.cos(angles[:, 0]), np.sin(angles[:, 0])
        return np.stack([c, s], axis=1), np.stack([-s, c], axis=1)[:, :, None]
    if m == 3:
        cp, sp = np.cos(angles[:, 0]), np.sin(angles[:, 0])
        ca, sa = np.cos(angles[:, 1]), np.sin(angles[:, 1])
        dirs = np.stack([sp * ca, sp * sa, cp], axis=1)
        d_polar = np.stack([cp * ca, cp * sa, -sp], axis=1)
        d_azimuth = np.stack([-sp * sa, sp * ca, np.zeros_like(sp)], axis=1)
        return dirs, np.stack([d_polar, d_azimuth], axis=2)
    raise ValueError("free ball directions are supported for m in {2, 3} only")


#: Damping of a Levenberg-Marquardt start, relative to the largest diagonal
#: entry of its J^T J: the first value, the floor, and the value beyond
#: which steps no longer move the start.
_DAMPING_START = 1e-3
_DAMPING_FLOOR = 1e-12
_DAMPING_MAX = 1e10

#: A start stalls after this many iterations in a row without an accepted
#: step that lowers its residual by more than the relative _STALL_GAIN.
_STALL_ITERATIONS = 5
_STALL_GAIN = 1e-9

#: Dirichlet starts and iteration budget of one structure fit (:func:`_fit_run`).
_FIT_STARTS = 20
_FIT_MAXITER = 300

#: Start rows one :func:`_fit_run` batch holds at most; a longer run is
#: fitted in consecutive chunks of whole structures.
_RUN_ROWS = 4096


def _structure_map(prob: Problem, run: list[Structure]):
    """The endpoint map of a run of structures in their free variables.

    Every structure of the run has the same segment count and "on" count,
    so the same free variables x: the head durations (the last segment
    takes the rest of the horizon), then one angle block per ball "on"
    segment. Returns (heads, n_free, evaluate); ``evaluate(x, owner)``
    maps feasible points x (batch, n_free) of the structures
    ``run[owner]`` to durations, segment values, endpoint residual vectors
    and their Jacobian in x (batch, d, n_free): duration columns from
    :func:`_endpoint_jacobian`, angle columns by the chain rule through the
    ZOH input block B_d r d(direction)/d(angle).
    """
    horizon = prob.horizon
    segs = run[0].segments
    heads = segs - 1
    if any(lab in ("off", "on") for st in run for lab in st.labels):
        on_positions = np.array([[k for k, lab in enumerate(st.labels) if lab == "on"] for st in run])
        base_values = np.zeros((len(run), segs, prob.m))
    else:
        on_positions = np.empty((len(run), 0), dtype=int)
        base_values = np.array([[list(lab) for lab in st.labels] for st in run], dtype=float)
    block = prob.m - 1
    angles = [slice(heads + block * j, heads + block * (j + 1)) for j in range(on_positions.shape[1])]
    n_free = heads + block * len(angles)

    def evaluate(x: np.ndarray, owner: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        batch = x.shape[0]
        rows = np.arange(batch)
        head = x[:, :heads]
        durations = np.concatenate([head, np.maximum(horizon - head.sum(axis=1), 0.0)[:, None]], axis=1)
        values = base_values[owner]
        turns = []
        for j, cols in enumerate(angles):
            dirs, d_dirs = _ball_directions(x[:, cols], prob.m)
            values[rows, on_positions[owner, j]] = prob.U.radius * dirs
            turns.append(prob.U.radius * d_dirs)
        z_end, d_tau, d_val = _endpoint_jacobian(prob, values, durations)
        jac = np.empty((batch, prob.d, n_free))
        jac[:, :, :heads] = d_tau[:, :, :-1] - d_tau[:, :, -1:]
        for j, (cols, turn) in enumerate(zip(angles, turns)):
            jac[:, :, cols] = d_val[rows, on_positions[owner, j]] @ turn
        return durations, values, z_end - prob.B, jac

    return heads, n_free, evaluate


def _fit_run(
    prob: Problem, structures: Iterable[Structure], seed: int, stop_residual: float
) -> Iterator[tuple[np.ndarray, np.ndarray, float, int]]:
    """Fit the durations (and ball directions) of a structure sequence to the endpoint.

    Reads ``structures`` lazily and groups each run of consecutive
    structures of one (n_on, segments) shape, which share their free
    variables (:func:`_structure_map`); runs above _RUN_ROWS start rows are
    fitted in consecutive chunks of whole structures. Structure i of the
    sequence draws its _FIT_STARTS Dirichlet starts of the duration simplex
    from ``default_rng(seed + i)``; the starts of a chunk are stacked and
    advanced in lockstep by projected Levenberg-Marquardt, head durations
    kept in {x >= 0, sum(x) <= horizon}. Each structure stops on its own:
    when one of its starts reaches ``stop_residual``, when all of its
    starts have stalled, or after _FIT_MAXITER iterations. Every row's
    arithmetic is independent of the other rows, so each fit is bitwise
    the fit of its structure alone.

    A generator: yields (durations, segment_values, residual, iterations)
    per structure in sequence order, as soon as that structure and every
    earlier one have stopped. A caller that commits each fit as it arrives
    and stops drawing once its sweep is done sees exactly the fits of a
    one-at-a-time sweep, so the winner cannot change; only the structures
    still being fitted in the same chunk did work that is thrown away, and
    no later run is read beyond its first structure.
    """
    horizon = prob.horizon
    edge = MIN_SEGMENT * horizon
    size = max(1, _RUN_ROWS // _FIT_STARTS)  # structures per chunk
    numbered = enumerate(structures, seed)  # (seed + i, structure i)
    runs = (list(run) for _, run in itertools.groupby(numbered, key=lambda item: (item[1].n_on, item[1].segments)))
    chunks = (zip(*run[first : first + size]) for run in runs for first in range(0, len(run), size))
    for seeds, chunk in chunks:
        heads, n_free, evaluate = _structure_map(prob, chunk)
        n_angles = n_free - heads
        per = _FIT_STARTS if n_free else 1
        rows = []
        for structure_seed in seeds:
            rng = np.random.default_rng(structure_seed)
            for _ in range(per):
                split = rng.dirichlet(np.ones(heads + 1)) * horizon
                rows.append(list(split[:heads]) + list(rng.uniform(0.0, np.pi, n_angles)))
        x = np.asarray(rows, dtype=float).reshape(len(rows), n_free)
        owner = np.repeat(np.arange(len(chunk)), per)
        durations, values, res, jac = evaluate(x, owner)
        f = np.linalg.norm(res, axis=1)

        damping = np.full(x.shape[0], _DAMPING_START)
        idle = np.zeros(x.shape[0], dtype=int)
        live = np.full(x.shape[0], n_free > 0)
        stopped_at = np.full(len(chunk), -1)  # each structure's iterations, -1 until it stops
        emitted = 0
        iterations = 0
        while True:
            fitting = (stopped_at < 0) & (iterations < _FIT_MAXITER)
            fitting &= (f.reshape(-1, per).min(axis=1) > stop_residual) & live.reshape(-1, per).any(axis=1)
            stopped_at[(stopped_at < 0) & ~fitting] = iterations
            while emitted < len(chunk) and stopped_at[emitted] >= 0:
                best = emitted * per + int(np.argmin(f[emitted * per : (emitted + 1) * per]))
                yield durations[best], values[best], float(f[best]), int(stopped_at[emitted])
                emitted += 1
            if not fitting.any():
                break
            iterations += 1
            idx = np.flatnonzero(live & np.repeat(fitting, per))
            jt = np.swapaxes(jac[idx], 1, 2)
            grad = (jt @ res[idx][:, :, None])[:, :, 0]
            # Faces of the duration simplex the descent direction presses
            # against stay active: the step keeps those head durations at 0
            # and, when the last segment is at 0, the head sum at the horizon.
            head, head_grad = x[idx, :heads], grad[:, :heads]
            moving = np.ones((idx.size, n_free))
            moving[:, :heads] = ~((head <= edge) & (head_grad > 0.0))
            tangent = moving * (np.arange(n_free) < heads)
            on_sum = (horizon - head.sum(axis=1) <= edge) & ((head_grad * tangent[:, :heads]).sum(axis=1) < 0)
            pull = (on_sum / np.maximum(tangent.sum(axis=1), 1.0))[:, None, None]
            face = moving[:, :, None] * np.eye(n_free) - pull * tangent[:, :, None] * tangent[:, None, :]
            normal = face @ jt @ jac[idx] @ face
            scale = np.maximum(np.diagonal(normal, axis1=1, axis2=2).max(axis=1), 1e-300)
            normal += (damping[idx] * scale)[:, None, None] * np.eye(n_free)
            step = np.linalg.solve(normal, -(face @ grad[:, :, None]))[:, :, 0]
            # A near-singular system can ask for durations far beyond the
            # horizon; shorten such steps to the horizon so that the
            # projection works on numbers of the horizon's size.
            longest = np.abs(step[:, :heads]).max(axis=1, initial=0.0)
            trial = x[idx] + step * (horizon / np.maximum(longest, horizon))[:, None]
            trial[:, :heads] = _project_budget_rows(trial[:, :heads], horizon)
            t_durations, t_values, t_res, t_jac = evaluate(trial, owner[idx])
            t_f = np.linalg.norm(t_res, axis=1)

            better = t_f < f[idx]
            gained = better & (f[idx] - t_f > _STALL_GAIN * f[idx])
            took = idx[better]
            x[took], durations[took], values[took] = trial[better], t_durations[better], t_values[better]
            res[took], jac[took], f[took] = t_res[better], t_jac[better], t_f[better]
            damping[idx] = np.where(better, np.maximum(damping[idx] / 3, _DAMPING_FLOOR), damping[idx] * 10)
            idle[idx] = np.where(gained, 0, idle[idx] + 1)
            live[idx] = (idle[idx] < _STALL_ITERATIONS) & (damping[idx] < _DAMPING_MAX)


def _assemble_control(
    prob: Problem, st: Structure, durations: np.ndarray, values: np.ndarray
) -> PiecewiseConstantControl:
    """Build a control from a duration fit, dropping micro segments and
    merging equal neighbors."""
    keep = durations > MIN_SEGMENT * prob.horizon
    if not np.any(keep):
        keep = durations == durations.max()
    durs = durations[keep]
    vals = values[keep]
    durs = durs * (prob.horizon / durs.sum())  # segments must tile the horizon exactly
    merged_durs = [float(durs[0])]
    merged_vals = [vals[0]]
    for k in range(1, len(durs)):
        if np.array_equal(vals[k], merged_vals[-1]):
            merged_durs[-1] += float(durs[k])
        else:
            merged_durs.append(float(durs[k]))
            merged_vals.append(vals[k])
    breakpoints = prob.a + np.concatenate([[0.0], np.cumsum(merged_durs)])
    breakpoints[-1] = prob.b
    return PiecewiseConstantControl(breakpoints, np.asarray(merged_vals))


#: Slack of :func:`synth_l0`'s gate above the LP feasibility scaling 1. The
#: LP input is constant per interval, so a switch between grid points costs
#: it a miss second order in the interval length: a task that only a
#: full-thrust bang-bang control meets reads slightly above 1 (1.0000029 on
#: a seeded d=2 plant at 200 intervals). A task the slack lets through that
#: no control meets ends in an empty structure search instead.
_GATE_SLACK = 1e-3

#: Scalings up to 1 + _FEASIBLE_SLACK count as feasible: in :func:`min_time`,
#: and in the remedy :func:`synth_l0` names when its sweep finds nothing.
_FEASIBLE_SLACK = 1e-9


def min_time(prob: Problem, tol: float = 1e-3, n_intervals: int = 200) -> float:
    """Shortest horizon (within tol) on which the steering task is feasible.

    Bisects the horizon against the LP feasibility scaling
    (:func:`handsoff.lp.linf_feasibility` <= 1 means feasible), until the
    bracket is at most ``tol`` wide or its midpoint no longer splits it.
    Each gauge LP starts from the duals of the one before: consecutive
    LPs differ only by a small change of horizon, so the bang-off-bang
    start those duals give is close to the next optimum. Returns 0.0 when
    the plant rests at the target and +inf when even the full horizon
    cannot steer A to B. Raises ValueError unless ``tol`` is finite and
    positive.
    """
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    at_rest = np.abs(prob.B - prob.A).max(initial=0.0) <= 1e-12
    if at_rest and np.abs(prob.F @ prob.A).max(initial=0.0) <= 1e-12:
        return 0.0
    scaling, duals = lp._gauge_scaling(prob, prob.horizon, n_intervals)
    if scaling > 1.0 + _FEASIBLE_SLACK:
        return float("inf")
    lo, hi = 0.0, prob.horizon
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        scaling, duals = lp._gauge_scaling(prob, mid, n_intervals, duals)
        if scaling <= 1.0 + _FEASIBLE_SLACK:
            hi = mid
        else:
            lo = mid
    return hi


def synth_l0(
    prob: Problem,
    k_max: int | None = None,
    feas_tol: float = 1e-6,
    zero_tol: float = 1e-9,
    seed: int = 42,
) -> SynthResult:
    """Synthesize a minimum-support control for an LTI steering task.

    Enumerates bang-off-bang structures sparsest first, fits durations for
    each, and returns the feasible candidate of minimal support measure
    (within SUPPORT_TIE, ties go to the earlier structure). A fit becomes
    the incumbent only once its assembled control, propagated exactly,
    meets the endpoint within ``feas_tol``. The winner is handed to
    :func:`handsoff.certificate.recover_adjoint` and certified
    (:func:`handsoff.certificate.certify`) on the trajectory it was
    accepted with; a passing normal certificate marks the result locally
    optimal, which for state-affine dynamics is exactly the sufficiency
    condition.

    For box inputs each new incumbent's normal crossing equations
    (:func:`handsoff.certificate._crossing_least_squares`) give a terminal
    costate, and :func:`handsoff.certificate.dual_bound` at it a lower
    bound on the support of every feasible control; ``lower_bound`` keeps
    the best one, also taken at the certificate's multiplier when that is
    normal. The sweep stops once the incumbent's support is at most
    ``lower_bound + SUPPORT_TIE / 2`` and records the remaining structures
    as pruned. The stop cannot change the winner: by weak duality a later
    exact fit has support at least ``lower_bound``, so it cannot undercut
    the incumbent by the SUPPORT_TIE a takeover needs, and ties stay with
    the earlier structure. One caveat: a fit feasible only to ``feas_tol``
    may undercut the bound g(p) by up to ||p|| * ``feas_tol``, so a later
    fit that the full sweep would have preferred by that margin is not
    tried.

    The fits come from :func:`_fit_run`, which batches each run of
    consecutive structures of one shape and seeds structure i with
    ``seed + i``; they are taken in enumeration order, so the trials, the
    winner and the bound are those of fitting one structure at a time. A
    ball input set in more than 3 channels raises
    :class:`UnsupportedProblemError` before any work.
    """
    if isinstance(prob.U, Ball) and prob.m > 3:
        raise UnsupportedProblemError(
            "sparsest-control synthesis needs a ball input set of at most 3 channels (the ball-direction "
            f"fit handles 2 or 3); this problem's U is a ball in {prob.m} channels"
        )
    if k_max is None:
        k_max = 2 * prob.d + 1
    structures = enumerate_structures(prob.m, prob.U, k_max)
    # One feasibility LP at the full horizon gives min_time's verdict on the
    # horizon without its bisection, up to the grid's gap (_GATE_SLACK). Ball
    # sets skip this gate: the LP feasibility test is box-only, so
    # infeasibility surfaces as an empty structure search instead.
    scaling = lp.linf_feasibility(prob, prob.horizon, 200) if isinstance(prob.U, Box) else 0.0
    if scaling > 1.0 + _GATE_SLACK:
        raise InfeasibleProblemError(
            f"endpoint unreachable on the {prob.horizon:.6g}-unit horizon: "
            f"the minimum transfer time exceeds it (feasibility scaling > {1.0 + _GATE_SLACK:g})"
        )

    trials: list[TrialRecord] = []
    best_support = float("inf")
    lower_bound = float("-inf")
    best: tuple[PiecewiseConstantControl, Trajectory, float] | None = None

    # The fits arrive in enumeration order; a pruned tail is never fitted.
    fits = _fit_run(prob, structures, seed, min(1e-10, 0.01 * feas_tol))
    for st, (durations, values, residual, iterations) in zip(structures, fits):
        control = _assemble_control(prob, st, durations, values)
        support = float(l0_cost(control, zero_tol))
        feasible = residual <= feas_tol
        # Iteration order is sparsest-first, so within the tie window the
        # earlier structure keeps the slot.
        if feasible and support < best_support - SUPPORT_TIE:
            # The fit's residual is of its raw durations; the assembled control must meet B.
            traj = propagate_exact(prob, control)
            reached = endpoint_residual(traj, prob.B)
            if reached <= feas_tol:
                best_support, best = support, (control, traj, reached)
                if isinstance(prob.U, Box):
                    for p in _crossing_least_squares(prob, control, 1):
                        lower_bound = max(lower_bound, dual_bound(prob, p))
            else:
                residual, feasible = reached, False
        trials.append(TrialRecord(st, float(residual), support, bool(feasible), iterations))
        if best_support <= lower_bound + SUPPORT_TIE / 2:
            break
    pruned = structures[len(trials) :]
    trials.extend(TrialRecord(st, float("nan"), float("nan"), False, 0, pruned=True) for st in pruned)

    if best is None:
        if scaling > 1.0 + _FEASIBLE_SLACK:
            hint = (
                f"the feasibility scaling {scaling:.9g} exceeds 1, so the endpoint is likely "
                f"unreachable on the {prob.horizon:.6g}-unit horizon"
            )
        else:
            hint = "try a larger k_max"
        raise NoFeasibleStructureError(
            f"no structure with up to {k_max} segments met the endpoint within {feas_tol:g}; {hint}"
        )

    control, traj, residual = best
    certificate = recover_adjoint(prob, control, seed=seed)
    report = None
    if certificate is not None:
        report = _certify_trajectory(prob, certificate.eta, certificate.p_hat, control, traj)
        if certificate.eta == 1:
            lower_bound = max(lower_bound, dual_bound(prob, certificate.p_hat))
    return SynthResult(
        control=control,
        trajectory=traj,
        support=best_support,
        certificate=certificate,
        report=report,
        residual=float(residual),
        trials=tuple(trials),
        lower_bound=lower_bound,
    )
