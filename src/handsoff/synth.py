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
shooting is demoted to certificate recovery (:func:`recover_adjoint`).

Durations are found by projected Nelder-Mead restarted from Dirichlet
draws of the duration simplex. All restarts advance in lockstep and every
candidate vertex across restarts is evaluated in one vectorized endpoint
computation, which keeps the exhaustive structure sweep fast without
changing its semantics.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import lp
from .certify import CertificateReport, certify as _certify
from .control_law import AdjointParams, bang_off_bang, candidate_distance
from .linalg import ExpKernel, zoh_block
from .model import Ball, Box, PiecewiseConstantControl, Problem, Trajectory, l0_cost
from .sim import breakpoint_mask, endpoint_residual, propagate_exact

#: Segment durations below this fraction of the horizon are dropped when a
#: candidate is assembled into a control.
MIN_SEGMENT = 1e-9

#: Two supports within this absolute tolerance count as tied; the earlier
#: structure in enumeration order wins.
SUPPORT_TIE = 1e-6


class InfeasibleProblemError(RuntimeError):
    """The steering task cannot be met on the given horizon."""


class NoFeasibleStructureError(RuntimeError):
    """No enumerated structure met the endpoint; a larger segment budget
    may be needed."""


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
    """One structure's best duration fit during the search."""

    structure: Structure
    residual: float
    support: float
    feasible: bool


@dataclass(frozen=True)
class SynthResult:
    """Winning control, its trajectory, recovered multiplier and its
    certificate report."""

    control: PiecewiseConstantControl
    trajectory: Trajectory
    support: float
    certificate: AdjointParams | None
    report: CertificateReport | None
    residual: float
    trials: tuple[TrialRecord, ...]

    @property
    def certified(self) -> bool:
        return self.report is not None and self.report.passed

    @property
    def locally_optimal(self) -> bool:
        return self.report is not None and self.report.locally_optimal


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
        raise ValueError(f"structure budget too large: {count} sequences for m={m}, k_max={k_max}")

    sequences: list[Structure] = []
    for k in range(1, k_max + 1):
        for combo in itertools.product(labels, repeat=k):
            if any(a == b for a, b in zip(combo, combo[1:])):
                continue
            sequences.append(Structure(combo))
    sequences.sort(key=lambda st: (st.n_on, st.segments))  # stable: keeps lex order in ties
    return sequences


# ---------------------------------------------------------------------------
# Batched endpoint evaluation
# ---------------------------------------------------------------------------


def _endpoints(zoh: ExpKernel, z0: np.ndarray, values: np.ndarray, durations: np.ndarray) -> np.ndarray:
    """Final states for a batch of candidates: values (batch, segments, m),
    durations (batch, segments), ``zoh`` the kernel of the ZOH block."""
    batch, segs, m = values.shape
    d = z0.size
    e = zoh(durations.reshape(-1))
    a_d = e[:, :d, :d].reshape(batch, segs, d, d)
    b_d = e[:, :d, d:].reshape(batch, segs, d, m)
    z = np.broadcast_to(z0, (batch, d)).copy()
    for k in range(segs):
        z = np.einsum("pij,pj->pi", a_d[:, k], z) + np.einsum("pij,pj->pi", b_d[:, k], values[:, k])
    return z


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


def _lockstep_nelder_mead(
    fn,
    starts: np.ndarray,
    initial_step: np.ndarray,
    maxiter: int = 300,
    xatol: float = 1e-11,
    fatol: float = 1e-13,
    stop_value: float = 0.0,
) -> tuple[np.ndarray, float]:
    """Multi-start Nelder-Mead with all restarts advanced in lockstep.

    ``fn`` maps a (points, n) array to (points,) objective values; each
    iteration evaluates the reflection/expansion/contraction candidates of
    every restart in a single call. Standard coefficients (reflect 1,
    expand 2, contract 1/2, shrink 1/2). Returns the best point found.
    """
    starts = np.atleast_2d(np.asarray(starts, dtype=float))
    n_starts, dim = starts.shape
    simplex = np.repeat(starts[:, None, :], dim + 1, axis=1)
    for i in range(dim):
        simplex[:, i + 1, i] += initial_step[i]
    fvals = fn(simplex.reshape(-1, dim)).reshape(n_starts, dim + 1)

    for _ in range(maxiter):
        order = np.argsort(fvals, axis=1)
        fvals = np.take_along_axis(fvals, order, axis=1)
        simplex = np.take_along_axis(simplex, order[:, :, None], axis=1)

        if float(fvals[:, 0].min()) <= stop_value:
            break
        f_spread = fvals[:, -1] - fvals[:, 0]
        x_spread = np.abs(simplex - simplex[:, :1, :]).max(axis=(1, 2))
        if np.all((f_spread <= fatol) & (x_spread <= xatol)):
            break

        centroid = simplex[:, :-1, :].mean(axis=1)
        worst = simplex[:, -1, :]
        direction = centroid - worst
        candidates = np.stack(
            [
                centroid + direction,  # reflect
                centroid + 2.0 * direction,  # expand
                centroid + 0.5 * direction,  # outside contraction
                centroid - 0.5 * direction,  # inside contraction
            ]
        )
        f_cand = fn(candidates.reshape(-1, dim)).reshape(4, n_starts)
        f_r, f_e, f_co, f_ci = f_cand
        x_r, x_e, x_co, x_ci = candidates

        f_best, f_second, f_worst = fvals[:, 0], fvals[:, -2], fvals[:, -1]
        new_x = worst.copy()
        new_f = f_worst.copy()

        expand_zone = f_r < f_best
        take_e = expand_zone & (f_e < f_r)
        take_r = (expand_zone & ~take_e) | ((f_r >= f_best) & (f_r < f_second))
        out_zone = (f_r >= f_second) & (f_r < f_worst)
        take_co = out_zone & (f_co <= f_r)
        in_zone = f_r >= f_worst
        take_ci = in_zone & (f_ci < f_worst)
        shrink = (out_zone & ~take_co) | (in_zone & ~take_ci)

        for mask, xx, ff in (
            (take_e, x_e, f_e),
            (take_r, x_r, f_r),
            (take_co, x_co, f_co),
            (take_ci, x_ci, f_ci),
        ):
            new_x[mask] = xx[mask]
            new_f[mask] = ff[mask]
        simplex[:, -1, :] = np.where(shrink[:, None], simplex[:, -1, :], new_x)
        fvals[:, -1] = np.where(shrink, fvals[:, -1], new_f)

        if np.any(shrink):
            idx = np.flatnonzero(shrink)
            simplex[idx, 1:, :] = simplex[idx, :1, :] + 0.5 * (
                simplex[idx, 1:, :] - simplex[idx, :1, :]
            )
            fvals[idx, 1:] = fn(simplex[idx, 1:, :].reshape(-1, dim)).reshape(idx.size, dim)

    flat = int(np.argmin(fvals))
    row, col = divmod(flat, fvals.shape[1])
    return simplex[row, col].copy(), float(fvals[row, col])


# ---------------------------------------------------------------------------
# Duration optimization
# ---------------------------------------------------------------------------


def _box_labels(st: Structure) -> np.ndarray:
    return np.array([list(lab) for lab in st.labels], dtype=float)


def _ball_directions(angles: np.ndarray, m: int) -> np.ndarray:
    """Unit vectors from (batch, m-1) angle blocks."""
    if m == 2:
        return np.stack([np.cos(angles[:, 0]), np.sin(angles[:, 0])], axis=1)
    if m == 3:
        polar, azimuth = angles[:, 0], angles[:, 1]
        return np.stack(
            [np.sin(polar) * np.cos(azimuth), np.sin(polar) * np.sin(azimuth), np.cos(polar)],
            axis=1,
        )
    raise ValueError("free ball directions are supported for m in {2, 3} only")


def _fit_structure(
    prob: Problem,
    st: Structure,
    init: np.ndarray | None,
    starts: int,
    seed: int,
    stop_residual: float,
    maxiter: int,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Optimize durations (and ball directions) of one structure.

    Returns (durations, segment_values, residual)."""
    horizon = prob.horizon
    segs = st.segments
    zoh = ExpKernel(zoh_block(prob.F, prob.G))
    rng = np.random.default_rng(seed)

    is_ball = any(lab in ("off", "on") for lab in st.labels)
    if is_ball:
        if not isinstance(prob.U, Ball) or prob.m not in (2, 3):
            raise ValueError("off/on labels require a ball input set with m in {2, 3}")
        on_positions = [k for k, lab in enumerate(st.labels) if lab == "on"]
        angle_block = prob.m - 1
        n_angles = angle_block * len(on_positions)
        radius = prob.U.radius
        base_values = None
    else:
        on_positions = []
        n_angles = 0
        base_values = _box_labels(st)

    n_free = segs - 1 + n_angles

    def assemble(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        batch = x.shape[0]
        if segs == 1:
            durations = np.full((batch, 1), horizon)
        else:
            head = _project_budget_rows(x[:, : segs - 1], horizon)
            durations = np.concatenate(
                [head, np.maximum(horizon - head.sum(axis=1), 0.0)[:, None]], axis=1
            )
        if base_values is not None:
            values = np.broadcast_to(base_values, (batch, segs, prob.m)).copy()
        else:
            values = np.zeros((batch, segs, prob.m))
            for j, k in enumerate(on_positions):
                block = x[:, segs - 1 + angle_block * j : segs - 1 + angle_block * (j + 1)]
                values[:, k, :] = radius * _ball_directions(block, prob.m)
        return durations, values

    def objective(x: np.ndarray) -> np.ndarray:
        durations, values = assemble(np.atleast_2d(x))
        z_end = _endpoints(zoh, prob.A, values, durations)
        return np.linalg.norm(z_end - prob.B, axis=1)

    if n_free == 0:
        x = np.zeros((1, 0))
        durations, values = assemble(x)
        return durations[0], values[0], float(objective(x)[0])

    rows = []
    if init is not None:
        init = np.asarray(init, dtype=float)
        rows.append(list(init[: segs - 1]) + [0.0] * n_angles)
    while len(rows) < starts:
        split = rng.dirichlet(np.ones(segs)) * horizon
        rows.append(list(split[: segs - 1]) + list(rng.uniform(0.0, np.pi, n_angles)))
    x0 = np.asarray(rows, dtype=float)

    step = np.concatenate([np.full(segs - 1, 0.15 * horizon), np.full(n_angles, 0.6)])
    best_x, best_f = _lockstep_nelder_mead(
        objective,
        x0,
        initial_step=step,
        maxiter=maxiter,
        xatol=1e-11 * max(1.0, horizon),
        fatol=1e-13,
        stop_value=stop_residual,
    )
    durations, values = assemble(best_x[None, :])
    return durations[0], values[0], float(best_f)


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


def _min_time_shortcut(prob: Problem, n_intervals: int) -> float | None:
    """What :func:`min_time` returns when no bisection is needed, else None.

    0.0 when the plant rests at the target, +inf when even the full
    horizon cannot steer A to B (one LP). None means the full horizon is
    feasible; the bisection never returns more than it, so None alone
    already says ``min_time(prob) <= prob.horizon``.
    """
    if np.allclose(prob.A, prob.B) and np.allclose(prob.F @ prob.A, 0.0):
        return 0.0
    if lp.linf_feasibility(prob, prob.horizon, n_intervals) > 1.0 + 1e-9:
        return float("inf")
    return None


def min_time(prob: Problem, tol: float = 1e-3, n_intervals: int = 200) -> float:
    """Shortest horizon (within tol) on which the steering task is feasible.

    Bisects the horizon against the LP feasibility scaling
    (:func:`handsoff.lp.linf_feasibility` <= 1 means feasible). Returns
    +inf when even the full horizon cannot steer A to B.
    """
    shortcut = _min_time_shortcut(prob, n_intervals)
    if shortcut is not None:
        return shortcut
    lo, hi = 0.0, prob.horizon
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if lp.linf_feasibility(prob, mid, n_intervals) <= 1.0 + 1e-9:
            hi = mid
        else:
            lo = mid
    return hi


def synth_l0(
    prob: Problem,
    k_max: int | None = None,
    feas_tol: float = 1e-6,
    zero_tol: float = 1e-9,
    starts: int = 20,
    seed: int = 42,
) -> SynthResult:
    """Synthesize a minimum-support control for an LTI steering task.

    Enumerates bang-off-bang structures sparsest first, fits durations for
    each, and returns the feasible candidate of minimal support measure
    (ties go to the earlier structure, then the smaller first breakpoint).
    The winner is handed to :func:`recover_adjoint` and
    :func:`handsoff.certify.certify`; a passing normal certificate marks
    the result locally optimal, which for state-affine dynamics is exactly
    the sufficiency condition.
    """
    if k_max is None:
        k_max = 2 * prob.d + 1
    if isinstance(prob.U, Box):
        # One feasibility LP at the full horizon gives min_time's verdict
        # on the horizon without its bisection. Ball sets skip this gate:
        # the LP feasibility test is box-only, so infeasibility surfaces as
        # an empty structure search instead.
        if _min_time_shortcut(prob, n_intervals=200) == float("inf"):
            raise InfeasibleProblemError(
                f"endpoint unreachable on the {prob.horizon:.6g}-unit horizon: "
                "the minimum transfer time exceeds it (feasibility scaling > 1)"
            )

    structures = enumerate_structures(prob.m, prob.U, k_max)
    trials: list[TrialRecord] = []
    best_support: float | None = None
    best_fit: tuple[Structure, np.ndarray, np.ndarray] | None = None

    for order, st in enumerate(structures):
        durations, values, residual = _fit_structure(
            prob,
            st,
            init=None,
            starts=starts,
            seed=seed + order,
            stop_residual=min(1e-10, 0.01 * feas_tol),
            maxiter=300,
        )
        control = _assemble_control(prob, st, durations, values)
        support = l0_cost(control, zero_tol)
        feasible = residual <= feas_tol
        trials.append(TrialRecord(st, float(residual), float(support), bool(feasible)))
        if not feasible:
            continue
        # Iteration order is sparsest-first, so within the tie window the
        # earlier structure keeps the slot.
        if best_support is None or support < best_support - SUPPORT_TIE:
            best_support = float(support)
            best_fit = (st, durations, values)

    if best_fit is None:
        raise NoFeasibleStructureError(
            f"no structure with up to {k_max} segments met the endpoint within {feas_tol:g}; "
            "try a larger k_max"
        )

    st, durations, values = best_fit
    control = _assemble_control(prob, st, durations, values)
    traj = propagate_exact(prob, control)
    residual = endpoint_residual(traj, prob.B)
    support = l0_cost(control, zero_tol)

    certificate = recover_adjoint(prob, control, seed=seed)
    report = None if certificate is None else _certify(prob, certificate.eta, certificate.p_hat, control)
    return SynthResult(
        control=control,
        trajectory=traj,
        support=float(support),
        certificate=certificate,
        report=report,
        residual=float(residual),
        trials=tuple(trials),
    )


def recover_adjoint(
    prob: Problem,
    control: PiecewiseConstantControl,
    grid_n: int = 1001,
    loss_tol: float = 1e-6,
    starts: int = 50,
    seed: int = 42,
) -> AdjointParams | None:
    """Search for a multiplier (eta, p_hat) consistent with a control.

    The consistency loss is the summed distance between the control
    samples and the bang-off-bang candidate set implied by the switching
    function. For box inputs the primary route is direct: every off/bang
    transition of the control pins the switching value to its threshold
    at that instant, and those crossing conditions are linear in the
    terminal costate, so least squares recovers the exact multiplier.
    When no transition system exists or its solution fails the loss test
    (e.g. the control is not bang-off-bang shaped), a multi-start
    Nelder-Mead search over the loss takes over.

    Tries the normal case first, then the abnormal one restricted to the
    unit sphere. Returns None when no multiplier reaches the loss
    tolerance; that is a verdict (the control fails the maximum
    principle), not an error.
    """
    grid = np.linspace(prob.a, prob.b, grid_n)
    keep = breakpoint_mask(grid, control)
    grid = grid[keep]
    u_samples = control.sample(grid)

    costate_flow = ExpKernel(prob.F.T)
    w_maps = np.matmul(prob.G.T[None, :, :], costate_flow(prob.b - grid))  # (n, m, d)

    def loss_batch(p_batch: np.ndarray, eta: int, normalize: bool) -> np.ndarray:
        p = np.atleast_2d(p_batch)
        norms = np.linalg.norm(p, axis=1, keepdims=True)
        if normalize:
            p = p / np.maximum(norms, 1e-12)
        s = np.einsum("nmd,pd->pnm", w_maps, p)
        total = candidate_distance(prob.U, bang_off_bang(prob.U, s, eta), u_samples).sum(axis=1)
        if normalize:
            total = np.where(norms[:, 0] < 1e-9, np.inf, total)
        return total

    d = prob.d
    deterministic = [sign * np.eye(d)[i] for i in range(d) for sign in (1.0, -1.0)]
    deterministic.append(np.ones(d) / np.sqrt(d))
    rng = np.random.default_rng(seed)

    for eta in (1, 0):
        normalize = eta == 0
        if isinstance(prob.U, Box):
            p_direct = _crossing_least_squares(prob, control, eta, costate_flow)
            if p_direct is not None and float(np.linalg.norm(p_direct)) >= 1e-9:
                if float(loss_batch(p_direct[None, :], eta, normalize)[0]) <= loss_tol:
                    return AdjointParams(eta, p_direct)

        rows = [np.asarray(v, dtype=float) for v in deterministic]
        while len(rows) < starts:
            rows.append(rng.normal(size=d) * rng.uniform(0.3, 5.0))
        x0 = np.asarray(rows)

        direct = loss_batch(x0, eta, normalize)
        if float(direct.min()) <= loss_tol:
            return AdjointParams(eta, x0[int(np.argmin(direct))])

        best_x, best_f = _lockstep_nelder_mead(
            lambda x: loss_batch(x, eta, normalize),
            x0,
            initial_step=np.full(d, 0.4),
            maxiter=250,
            xatol=1e-10,
            fatol=1e-13,
            stop_value=min(loss_tol * 1e-3, 1e-10),
        )
        if best_f <= loss_tol and float(np.linalg.norm(best_x)) >= 1e-9:
            return AdjointParams(eta, best_x)
    return None


def _crossing_least_squares(
    prob: Problem, control: PiecewiseConstantControl, eta: int, costate_flow: ExpKernel
) -> np.ndarray | None:
    """Terminal costate from the switching-threshold crossings of a control.

    At an interior breakpoint where the input moves between the zero
    vector and a saturation v, the gain of the switching value must sit on
    the threshold: <s(theta), v> = 1 in the normal case. At an abnormal
    sign change of channel i, s_i(theta) = 0. Each condition is one linear
    equation in p_hat; the least-squares solution of the stack is exact
    whenever the control really is an extremal. Returns None when no
    transition yields an equation (constant controls) so the caller falls
    back to the search.
    """
    rows = []
    targets = []
    values = control.values
    # s(theta_k) = w_maps[k - 1] @ p_hat at each interior breakpoint theta_k
    w_maps = np.matmul(prob.G.T, costate_flow(prob.b - control.breakpoints[1:-1]))
    for k in range(1, values.shape[0]):
        w_t = w_maps[k - 1]
        before, after = values[k - 1], values[k]
        if np.array_equal(before, after):
            continue
        if eta == 1:
            if before.any() and after.any():
                continue  # bang-to-bang jumps have no normal-case crossing
            bang = before if before.any() else after
            # <s, v> = 1 scaled so that the largest coefficient of v is 1:
            # with one channel this is the equation s_i = 1 / v_i.
            scale = bang[np.argmax(np.abs(bang))]
            rows.append((bang / scale) @ w_t)
            targets.append(1.0 / scale)
        else:
            for i in np.flatnonzero(np.sign(before) * np.sign(after) < 0.0):
                rows.append(w_t[i])
                targets.append(0.0)
    if not rows:
        return None
    solution, *_ = np.linalg.lstsq(np.asarray(rows), np.asarray(targets), rcond=None)
    return solution
