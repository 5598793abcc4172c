"""Maximum-principle certification of candidate extremals.

A candidate is a multiplier pair (eta, p_hat) together with a control and
its trajectory. The checker verifies every first-order condition:

* nontriviality -- (eta, p(t)) never vanishes; for LTI costates the flow
  is invertible, so p_hat != 0 already settles it, and the minimum costate
  norm over the grid is checked anyway;
* the adjoint equation -- analytic costate against a fourth-order
  central-difference defect for LTI plants, backward RK4 integration
  against the Jacobian relation for general dynamics;
* pointwise Hamiltonian maximization -- the achieved Hamiltonian against
  the supremum over the admissible set, sampled along the trajectory with
  switching instants excluded (the condition holds almost everywhere, so
  measure-zero instants must not fail a certificate);
* constancy of the Hamiltonian off breakpoints;
* the endpoint condition.

One pass serves every check: :func:`handsoff.sim.hamiltonian_profile`
evaluates the costates (analytic for LTI plants, one backward RK4 pass
over three stacked Jacobian calls for callback dynamics), the Hamiltonian
and the off-breakpoint mask along the trajectory once, and the checks
compare those samples. Only the LTI adjoint check uses its own uniform grid of N
samples, built from about 2 sqrt(N) exponentials: anchor costates every
B = ceil(sqrt(N)) samples from :func:`handsoff.control_law.adjoint_on_grid`,
each carried to the B - 1 samples below it by the short flows
exp(F^T j h), j < B, in one matrix product.
``synth_l0`` certifies its winner on the trajectory it already has.

Transversality is vacuous for fixed endpoints (the terminal costate is
unconstrained), so it reports true by construction. A passing normal
certificate on state-affine dynamics is also a local-optimality
certificate, reported via ``locally_optimal``.

Failed checks are reported, never raised: an invalid candidate is a
result, not an error. For the same reason :func:`certify` takes the raw
multiplier components instead of an :class:`AdjointParams` (whose
constructor rejects the trivial pair): feeding it eta = 0, p_hat = 0
yields a report with ``nontriviality`` false.

:func:`dual_bound` turns a normal multiplier into a global statement: by
Lagrange duality every terminal costate gives a lower bound on the support
of every feasible control, and at the multiplier of a normal extremal the
bound equals the extremal's support.

:func:`recover_adjoint` finds the multiplier a control is to be judged
with, and judges each candidate by the certificate's own Hamiltonian test:
candidates from the control's threshold crossings
(:func:`_crossing_least_squares`), then a fixed screen.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .control_law import (
    TIE_TOL, AdjointParams, _input_grid, adjoint_on_grid, bang_off_bang, hamiltonian_gap, hamiltonian_values
)
from .linalg import sorted_unique
from .model import ZERO_TOL, Box, PiecewiseConstantControl, Problem, Trajectory, _off_mask
from .sim import (
    HamiltonianProfile,
    NonlinearDynamics,
    breakpoint_mask,
    endpoint_residual,
    hamiltonian_profile,
    propagate_exact,
    propagate_rk4,
    trajectory_grid,
)

#: Default tolerance applied to every residual check; one order above the
#: propagator accuracy budget.
DEFAULT_TOL = 1e-6

#: Input grid size of the Hamiltonian maximum check for callback dynamics.
_HMAX_INPUTS = 1001


@dataclass(frozen=True)
class CertificateReport:
    eta: int
    p_hat: np.ndarray
    adjoint_residual: float
    hmax_violation: float
    constancy_spread: float
    endpoint_residual: float
    nontriviality: bool
    transversality: bool
    passed: bool
    locally_optimal: bool

    def to_dict(self) -> dict:
        return {**asdict(self), "p_hat": [float(x) for x in np.atleast_1d(self.p_hat)]}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def check_adjoint(
    prob: Problem,
    ap: AdjointParams,
    traj: Trajectory | None = None,
    grid_n: int = 10001,
    dynamics: NonlinearDynamics | None = None,
) -> float:
    """Maximum defect of the adjoint equation pdot = -(dphi/dz)^T p.

    LTI: the analytic costate is checked for consistency against its own
    fourth-order central finite differences on ``grid_n`` uniform samples
    (at least 5). With B = ceil(sqrt(grid_n)), the anchor costates at
    b - k B h come from :func:`adjoint_on_grid`, and the short flows
    exp(F^T j h), j < B, carry each anchor to the samples below it, since
    exp(F^T (k B + j) h) = exp(F^T j h) exp(F^T k B h). Nonlinear: requires
    the trajectory; the costate is integrated backward and a central
    difference defect is measured with the (supplied or finite-difference)
    Jacobian.
    """
    if grid_n < 5:
        raise ValueError(f"the fourth-order stencil needs grid_n >= 5 samples, got {grid_n}")
    if dynamics is None:
        h = (prob.b - prob.a) / (grid_n - 1)
        block = math.isqrt(grid_n - 1) + 1
        far = adjoint_on_grid(prob, ap, prob.b - h * block * np.arange(-(-grid_n // block)))
        near = prob.costate_flow(h * np.arange(block))
        # Row k*B + j of the stack is the costate j + k B steps before b.
        lagged = (near.reshape(-1, prob.d) @ far.T).reshape(block, prob.d, -1).transpose(2, 0, 1)
        # A contiguous copy: the stencil below runs faster on it, to the same bits.
        p = np.ascontiguousarray(lagged.reshape(-1, prob.d)[grid_n - 1 :: -1])
        # Fourth-order central differences: the second-order stencil's
        # truncation error h^2/6 |F^3 p| alone exceeds the tolerance on
        # exact extremals of fast plants; this one's is h^4/30 |F^5 p|.
        deriv = (p[:-4] - 8.0 * p[1:-3] + 8.0 * p[3:-1] - p[4:]) / (12.0 * h)
        defect = deriv + p[2:-2] @ prob.F
        return float(np.abs(defect).max())
    if traj is None:
        raise ValueError("nonlinear adjoint check requires the trajectory")
    return _adjoint_defect(traj, hamiltonian_profile(prob, ap, traj, None, dynamics))


def _adjoint_defect(traj: Trajectory, ex: HamiltonianProfile) -> float:
    """Central-difference defect of the backward-integrated costate, at the
    samples whose two neighbours are equally spaced (segment joins are not)."""
    c, h = ex.costates, np.diff(traj.grid)
    h0, h1 = h[:-1], h[1:]
    even = np.abs(h1 - h0) <= 1e-12 * np.maximum(h0, h1)
    defect = (c[2:] - c[:-2]) / (h0 + h1)[:, None] + np.einsum("nji,nj->ni", ex.jacobians[1:], c[1:-1])
    return float(np.abs(defect[even]).max(initial=0.0))


def check_hamiltonian_max(
    prob: Problem,
    ap: AdjointParams,
    traj: Trajectory,
    u: PiecewiseConstantControl,
    dynamics: NonlinearDynamics | None = None,
) -> float:
    """Largest shortfall of the achieved Hamiltonian below its supremum.

    Samples every trajectory grid point away from switching instants. For
    LTI plants the shortfall is exact: the largest
    :func:`handsoff.control_law.hamiltonian_gap` of the switching values
    and inputs. For general dynamics the supremum is taken over an input
    grid of _HMAX_INPUTS points per axis, in one phi call per sample.
    """
    return _hmax_shortfall(prob, ap, traj, hamiltonian_profile(prob, ap, traj, u, dynamics), dynamics)


def _hmax_shortfall(
    prob: Problem,
    ap: AdjointParams,
    traj: Trajectory,
    ex: HamiltonianProfile,
    dynamics: NonlinearDynamics | None,
) -> float:
    """:func:`check_hamiltonian_max` on an evaluated extremal."""
    keep = np.flatnonzero(ex.off_breakpoint)
    if dynamics is None:
        gaps = hamiltonian_gap(prob.U, ex.costates[keep] @ prob.G, ap.eta, traj.controls[keep])
        return float(np.max(gaps))

    if keep.size > 301:  # callback dynamics: thin the sample set
        keep = keep[sorted_unique(np.linspace(0, keep.size - 1, 301).astype(int))]
    inputs = _input_grid(prob.U, prob.m, _HMAX_INPUTS)
    shortfall = 0.0
    for i in keep:
        velocities = dynamics._call(np.broadcast_to(traj.states[i], (len(inputs), prob.d)), inputs)
        p = np.broadcast_to(ex.costates[i], velocities.shape)
        values = hamiltonian_values(prob, ap.eta, p, None, inputs, velocities)
        shortfall = max(shortfall, float(values.max() - ex.values[i]))
    return shortfall


def certify(
    prob: Problem,
    eta: int,
    p_hat: np.ndarray,
    control: PiecewiseConstantControl,
    dynamics: NonlinearDynamics | None = None,
    tol: float = DEFAULT_TOL,
    rk4_steps: int = 20000,
) -> CertificateReport:
    """Run every certificate check on a candidate (eta, p_hat, control).

    Each residual (adjoint, Hamiltonian shortfall, constancy spread,
    endpoint) passes when it is at most ``tol``. The trajectory is
    propagated internally (exactly for LTI, RK4 for the nonlinear path).
    Check failures are recorded in the report; only a dimension mismatch
    raises. The trivial multiplier (0, 0) yields a failed report with
    ``nontriviality`` false and the residuals at +inf.
    """
    p_hat = np.atleast_1d(np.asarray(p_hat, dtype=float))
    if p_hat.shape != (prob.d,):
        raise ValueError(f"p_hat must be a {prob.d}-vector, got shape {p_hat.shape}")
    if eta not in (0, 1):
        raise ValueError(f"eta must be 0 or 1, got {eta}")
    prob.validate_control(control)
    if dynamics is None:
        traj = propagate_exact(prob, control)
    else:
        dynamics._check_problem(prob)
        traj = propagate_rk4(dynamics, control, prob.A, rk4_steps)
    return _certify_trajectory(prob, eta, p_hat, control, traj, dynamics, tol)


def _certify_trajectory(
    prob: Problem,
    eta: int,
    p_hat: np.ndarray,
    control: PiecewiseConstantControl,
    traj: Trajectory,
    dynamics: NonlinearDynamics | None = None,
    tol: float = DEFAULT_TOL,
) -> CertificateReport:
    """:func:`certify` on the control's already propagated trajectory."""
    end_res = endpoint_residual(traj, prob.B)
    if eta == 0 and float(np.linalg.norm(p_hat)) == 0.0:
        adjoint_res = hmax = constancy = float("inf")
        nontrivial = False
    else:
        ap = AdjointParams(eta, p_hat)
        p_hat = ap.p_hat
        ex = hamiltonian_profile(prob, ap, traj, control, dynamics)
        adjoint_res = check_adjoint(prob, ap) if dynamics is None else _adjoint_defect(traj, ex)
        hmax = _hmax_shortfall(prob, ap, traj, ex, dynamics)
        constancy = ex.spread()
        # The costate of a nontrivial terminal vector never vanishes for LTI
        # flows; verify numerically so the nonlinear path gets the same check.
        nontrivial = eta == 1 or float(np.linalg.norm(ex.costates, axis=1).min()) > 0.0

    passed = nontrivial and all(r <= tol for r in (adjoint_res, hmax, constancy, end_res))
    return CertificateReport(
        eta=int(eta),
        p_hat=p_hat,
        adjoint_residual=float(adjoint_res),
        hmax_violation=float(hmax),
        constancy_spread=float(constancy),
        endpoint_residual=float(end_res),
        nontriviality=bool(nontrivial),
        transversality=True,
        passed=bool(passed),
        locally_optimal=bool(passed and eta == 1 and (dynamics is None or dynamics.affine_in_state)),
    )


#: :func:`dual_bound` brackets crossings on this many grid cells, or on 8
#: per unit of ||F||_1 times the horizon when that is more.
_BOUND_CELLS = 128

#: Gauss-Legendre nodes per smooth piece and the most safeguarded Newton
#: steps per crossing in :func:`dual_bound`.
_GAUSS_NODES = 8
_NEWTON_STEPS = 8


def dual_bound(prob: Problem, p_hat: np.ndarray) -> float:
    """Lagrange dual lower bound on the support of every feasible control.

    For any terminal costate p, with s(t) = G^T exp(F^T (b - t)) p the
    normal switching function and sigma_U(s) = sup over U of <s, v> (the
    gain of :func:`bang_off_bang`),

        g(p) = <p, B - exp(F h) A> - int_a^b max(0, sigma_U(s(t)) - 1) dt.

    Pointwise inf over v in U of 1[v != 0] - <s, v> is min(0, 1 - sigma_U(s)),
    so a control u that misses B by r has support >= g(p) - <p, r>; one
    that meets B has support - g(p) = int_a^b gamma(s(t), u(t)) dt, the
    integrated :func:`handsoff.control_law.hamiltonian_gap`. So at the
    multiplier of a normal extremal whose Hamiltonian maximum holds, g
    equals its support.

    The integrand is smooth between the crossings sigma_U(s) = 1 and, for
    a box, the sign changes of each s_i (kinks of sigma_U). Both are
    bracketed on a grid and refined by Newton steps on the analytic s,
    falling back to bisection inside the bracket; each smooth piece is
    integrated with Gauss-Legendre, so the bound is accurate to ~1e-12.
    Grid cells whose two end values lie within TIE_TOL of the threshold
    are not refined: there the switching function rides the threshold (a
    singular arc), the integrand is roundoff, and Newton has no slope to
    follow.
    """
    p = np.atleast_1d(np.asarray(p_hat, dtype=float))
    if p.shape != (prob.d,):
        raise ValueError(f"p_hat must be a {prob.d}-vector, got shape {p.shape}")
    ap = AdjointParams(1, p)
    gain_rate = prob.F @ prob.G  # s'(t) = -(F G)^T p(t), since p' = -F^T p

    def profile(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Root functions (n, r) at times t and their time derivatives:
        sigma_U(s) - 1 first, then (box) the channels of s."""
        costate = adjoint_on_grid(prob, ap, t)
        s, s_dot = costate @ prob.G, -costate @ gain_rate
        rule = bang_off_bang(prob.U, s, 1)
        # The support function's derivative is the maximizer (Danskin).
        phi, phi_dot = rule.gain - 1.0, (rule.bang * s_dot).sum(axis=-1)
        if isinstance(prob.U, Box):
            return np.column_stack([phi, s]), np.column_stack([phi_dot, s_dot])
        return phi[:, None], phi_dot[:, None]

    f_norm = float(np.abs(prob.F).sum(axis=0).max())
    cells = max(_BOUND_CELLS, int(np.ceil(8.0 * f_norm * prob.horizon)))
    grid = np.linspace(prob.a, prob.b, cells + 1)
    values, _ = profile(grid)
    v0, v1 = values[:-1], values[1:]
    crossing = ((v0 > 0) != (v1 > 0)) & (np.maximum(np.abs(v0), np.abs(v1)) > TIE_TOL)
    cell, col = np.nonzero(crossing)
    lo, hi = grid[cell], grid[cell + 1]
    f_lo, f_hi = v0[cell, col], v1[cell, col]
    roots = lo + (hi - lo) * f_lo / (f_lo - f_hi)  # regula falsi start
    active = np.ones(roots.size, dtype=bool)
    for _ in range(_NEWTON_STEPS):
        if not active.any():
            break
        idx = np.flatnonzero(active)
        vals, ders = profile(roots[idx])
        f, df = vals[np.arange(idx.size), col[idx]], ders[np.arange(idx.size), col[idx]]
        left = (f > 0) == (f_lo[idx] > 0)  # the root lies right of roots[idx]
        lo[idx] = np.where(left, roots[idx], lo[idx])
        f_lo[idx] = np.where(left, f, f_lo[idx])
        hi[idx] = np.where(left, hi[idx], roots[idx])
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = roots[idx] - f / df
        inside = (newton >= lo[idx]) & (newton <= hi[idx])
        step = np.where(inside, newton, 0.5 * (lo[idx] + hi[idx])) - roots[idx]
        done = (f == 0.0) | (np.abs(step) <= 4.0 * np.finfo(float).eps * max(abs(prob.a), abs(prob.b)))
        roots[idx] = np.where(done, roots[idx], roots[idx] + step)
        active[idx] = ~done

    knots = sorted_unique(np.concatenate([grid, roots]))
    nodes, weights = np.polynomial.legendre.leggauss(_GAUSS_NODES)
    half = 0.5 * np.diff(knots)
    t = (knots[:-1] + half)[:, None] + half[:, None] * nodes[None, :]
    phi = profile(t.ravel())[0][:, 0].reshape(t.shape)
    excess = float((np.maximum(phi, 0.0) @ weights) @ half)
    p_start = adjoint_on_grid(prob, ap, np.array([prob.a]))[0]
    return float(p @ prob.B - p_start @ prob.A) - excess


#: Multipliers :func:`recover_adjoint` scores when no crossing candidate passes.
_SCREEN_POINTS = 50


def recover_adjoint(
    prob: Problem, control: PiecewiseConstantControl, seed: int = 42
) -> AdjointParams | None:
    """Find a multiplier (eta, p_hat) consistent with a control.

    The verdict is the certificate's own Hamiltonian test: the largest
    :func:`handsoff.control_law.hamiltonian_gap` of the control on the
    :func:`handsoff.sim.propagate_exact` grid, off its breakpoints, is at
    most DEFAULT_TOL. For a control meeting the endpoint, support(u) -
    dual_bound(p) is the integral of that gap. For box inputs the
    candidates come from the control's own transitions: each one pins the
    switching function to a threshold at that instant, an equation linear
    in p_hat (:func:`_crossing_least_squares`). Controls without such
    equations, or whose solution fails the test (constant bang controls,
    ball inputs), are scored on a fixed screen instead: the signed unit
    vectors, the normalized ones vector and seeded normals.

    Tries the normal case first, then the abnormal one restricted to the
    unit sphere. Returns None when no candidate passes; that is a verdict
    (no multiplier was found that makes the control an extremal), not an
    error.
    """
    grid = trajectory_grid(prob, control)
    grid = grid[breakpoint_mask(grid, control)]
    u_samples = control.sample(grid)

    w_maps = np.matmul(prob.G.T[None, :, :], prob.costate_flow(prob.b - grid))  # (n, m, d)

    def gap_batch(p_batch: np.ndarray, eta: int) -> np.ndarray:
        p = np.atleast_2d(p_batch)
        norms = np.linalg.norm(p, axis=1, keepdims=True)
        if eta == 0:
            p = p / np.maximum(norms, 1e-12)
        worst = hamiltonian_gap(prob.U, np.einsum("nmd,pd->pnm", w_maps, p), eta, u_samples).max(axis=1)
        return np.where(norms[:, 0] < 1e-9, np.inf, worst) if eta == 0 else worst

    d = prob.d
    deterministic = [sign * np.eye(d)[i] for i in range(d) for sign in (1.0, -1.0)]
    deterministic.append(np.ones(d) / np.sqrt(d))
    rng = np.random.default_rng(seed)

    for eta in (1, 0):
        if isinstance(prob.U, Box):
            for p in _crossing_least_squares(prob, control, eta):
                if np.linalg.norm(p) >= 1e-9 and gap_batch(p, eta)[0] <= DEFAULT_TOL:
                    return AdjointParams(eta, p)

        rows = [np.asarray(v, dtype=float) for v in deterministic]
        while len(rows) < _SCREEN_POINTS:
            rows.append(rng.normal(size=d) * rng.uniform(0.3, 5.0))
        screen = np.asarray(rows)
        gaps = gap_batch(screen, eta)
        if float(gaps.min()) <= DEFAULT_TOL:
            return AdjointParams(eta, screen[int(np.argmin(gaps))])
    return None


def _crossing_least_squares(
    prob: Problem, control: PiecewiseConstantControl, eta: int
) -> np.ndarray:
    """Terminal costates from the switching-threshold crossings of a control.

    At an interior breakpoint where the input moves between the zero
    vector and a saturation v, the gain of the switching value must sit on
    the threshold: <s(theta), v> = 1 in the normal case. At an abnormal
    sign change of channel i, s_i(theta) = 0. Each condition is one linear
    equation in p_hat. The normal candidate is the least-squares solution
    of the stack, exact whenever the control really is a normal extremal.
    The abnormal equations are homogeneous, so their candidates are the
    unit vector of least squared residual (the last right-singular vector
    of the stack) with both signs. Returns the candidates as rows (k, d),
    none when no transition yields an equation (constant controls).
    """
    rows = []
    targets = []
    values = control.values
    # The support measure's zero rule: roundoff within ZERO_TOL of 0, as
    # L1 solutions and CSV round trips leave on off segments, is neither
    # "on" nor a sign.
    on = ~_off_mask(values, ZERO_TOL)
    signs = np.sign(values) * ~_off_mask(values[:, :, None], ZERO_TOL)
    # s(theta_k) = w_maps[k - 1] @ p_hat at each interior breakpoint theta_k
    w_maps = np.matmul(prob.G.T, prob.costate_flow(prob.b - control.breakpoints[1:-1]))
    for k in range(1, values.shape[0]):
        w_t = w_maps[k - 1]
        if eta == 1:
            if on[k - 1] == on[k]:
                continue  # off-to-off and bang-to-bang have no normal-case crossing
            bang = values[k - 1] if on[k - 1] else values[k]
            # <s, v> = 1 scaled so that the largest coefficient of v is 1:
            # with one channel this is the equation s_i = 1 / v_i.
            scale = bang[np.argmax(np.abs(bang))]
            rows.append((bang / scale) @ w_t)
            targets.append(1.0 / scale)
        else:
            rows.extend(w_t[signs[k - 1] * signs[k] < 0.0])
    if not rows:
        return np.empty((0, prob.d))
    if eta == 1:
        solution, *_ = np.linalg.lstsq(np.asarray(rows), np.asarray(targets), rcond=None)
        return solution[None, :]
    null = np.linalg.svd(np.asarray(rows))[2][-1]
    return np.stack([null, -null])
