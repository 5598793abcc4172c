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
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .control_law import TIE_TOL, AdjointParams, adjoint_on_grid, bang_off_bang, hamiltonian_values
from .model import Box, PiecewiseConstantControl, Problem, Trajectory
from .sim import (
    NonlinearDynamics,
    breakpoint_mask,
    endpoint_residual,
    propagate_exact,
    propagate_rk4,
)

#: Default tolerance applied to every residual check; one order above the
#: propagator accuracy budget.
DEFAULT_TOL = 1e-6


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
        return {
            "eta": self.eta,
            "p_hat": [float(x) for x in np.atleast_1d(self.p_hat)],
            "adjoint_residual": self.adjoint_residual,
            "hmax_violation": self.hmax_violation,
            "constancy_spread": self.constancy_spread,
            "endpoint_residual": self.endpoint_residual,
            "nontriviality": self.nontriviality,
            "transversality": self.transversality,
            "passed": self.passed,
            "locally_optimal": self.locally_optimal,
        }

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
    fourth-order central finite differences. Nonlinear: requires the
    trajectory; the costate is integrated backward and a central difference
    defect is measured with the (supplied or finite-difference) Jacobian.
    """
    if dynamics is None:
        grid = np.linspace(prob.a, prob.b, grid_n)
        h = grid[1] - grid[0]
        p = adjoint_on_grid(prob, ap, grid)
        # Fourth-order central differences: the second-order stencil's
        # truncation error h^2/6 |F^3 p| alone exceeds the tolerance on
        # exact extremals of fast plants; this one's is h^4/30 |F^5 p|.
        deriv = (p[:-4] - 8.0 * p[1:-3] + 8.0 * p[3:-1] - p[4:]) / (12.0 * h)
        defect = deriv + p[2:-2] @ prob.F
        return float(np.abs(defect).max())
    if traj is None:
        raise ValueError("nonlinear adjoint check requires the trajectory")
    costates = _backward_adjoint(dynamics, traj, ap.p_hat)
    grid = traj.grid
    defect_max = 0.0
    for i in range(1, grid.size - 1):
        h0, h1 = grid[i] - grid[i - 1], grid[i + 1] - grid[i]
        if abs(h1 - h0) > 1e-12 * max(h0, h1):
            continue  # skip unequal spacing at segment joins
        deriv = (costates[i + 1] - costates[i - 1]) / (h0 + h1)
        jac = dynamics.jacobian(traj.states[i], traj.controls[i])
        defect_max = max(defect_max, float(np.abs(deriv + jac.T @ costates[i]).max()))
    return defect_max


def _backward_adjoint(dyn: NonlinearDynamics, traj: Trajectory, p_hat: np.ndarray) -> np.ndarray:
    """Backward RK4 integration of the adjoint along a sampled trajectory."""
    grid = traj.grid
    n = grid.size
    costates = np.empty((n, dyn.d))
    costates[-1] = p_hat

    def rhs(i_lo: int, i_hi: int, frac: float, p: np.ndarray) -> np.ndarray:
        z = (1.0 - frac) * traj.states[i_lo] + frac * traj.states[i_hi]
        u = traj.controls[i_lo]
        return -dyn.jacobian(z, u).T @ p

    for i in range(n - 2, -1, -1):
        h = grid[i + 1] - grid[i]
        p = costates[i + 1]
        k1 = rhs(i, i + 1, 1.0, p)
        k2 = rhs(i, i + 1, 0.5, p - 0.5 * h * k1)
        k3 = rhs(i, i + 1, 0.5, p - 0.5 * h * k2)
        k4 = rhs(i, i + 1, 0.0, p - h * k3)
        costates[i] = p - (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return costates


def check_hamiltonian_max(
    prob: Problem,
    ap: AdjointParams,
    traj: Trajectory,
    u: PiecewiseConstantControl,
    grid_n: int = 1001,
    dynamics: NonlinearDynamics | None = None,
    zero_tol: float = 1e-9,
) -> float:
    """Largest shortfall of the achieved Hamiltonian below its supremum.

    Samples every trajectory grid point away from switching instants. For
    LTI plants the supremum over the input set is exact (linear part at a
    vertex or along the switching direction, versus the zero input with
    its eta bonus); for general dynamics it is taken over an input grid.
    """
    if grid_n < 101:
        raise ValueError("grid_n must be at least 101")
    keep = breakpoint_mask(traj.grid, u)
    grid = traj.grid[keep]
    states = traj.states[keep]
    controls = traj.controls[keep]
    if dynamics is None:
        costates = adjoint_on_grid(prob, ap, grid)
        achieved = hamiltonian_values(prob, ap.eta, costates, states, controls, zero_tol=zero_tol)
        drift = np.einsum("ij,ij->i", costates, states @ prob.F.T)
        gain = bang_off_bang(prob.U, costates @ prob.G, ap.eta).gain
        sup = drift + np.maximum(gain, float(ap.eta))
        return float(np.max(sup - achieved))

    from .control_law import _input_grid

    costates = _backward_adjoint(dynamics, traj, ap.p_hat)[keep]
    if grid.size > 301:  # callback dynamics: thin the sample set
        pick = np.unique(np.linspace(0, grid.size - 1, 301).astype(int))
        grid, states, controls, costates = grid[pick], states[pick], controls[pick], costates[pick]
    vel = np.stack([np.asarray(dynamics.phi(z, v), dtype=float) for z, v in zip(states, controls)])
    achieved = hamiltonian_values(prob, ap.eta, costates, states, controls, vel, zero_tol)
    inputs = _input_grid(prob.U, prob.m, grid_n)
    zero_row = np.all(inputs == 0.0, axis=1)
    shortfall = 0.0
    for i in range(grid.size):
        p, z = costates[i], states[i]
        values = np.array([p @ np.asarray(dynamics.phi(z, vv), dtype=float) for vv in inputs])
        shortfall = max(shortfall, float((values + ap.eta * zero_row).max() - achieved[i]))
    return shortfall


def check_constancy(values: np.ndarray, mask: np.ndarray | None = None) -> float:
    """Spread (max - min) of a Hamiltonian profile over unflagged samples."""
    values = np.asarray(values, dtype=float)
    if mask is not None:
        values = values[np.asarray(mask, dtype=bool)]
    if values.size == 0:
        return 0.0
    return float(values.max() - values.min())


def certify(
    prob: Problem,
    eta: int,
    p_hat: np.ndarray,
    control: PiecewiseConstantControl,
    dynamics: NonlinearDynamics | None = None,
    adjoint_tol: float = DEFAULT_TOL,
    hmax_tol: float = DEFAULT_TOL,
    constancy_tol: float = DEFAULT_TOL,
    endpoint_tol: float = DEFAULT_TOL,
    rk4_steps: int = 20000,
    zero_tol: float = 1e-9,
) -> CertificateReport:
    """Run every certificate check on a candidate (eta, p_hat, control).

    The trajectory is propagated internally (exactly for LTI, RK4 for the
    nonlinear path). Check failures are recorded in the report; only a
    dimension mismatch raises. The trivial multiplier (0, 0) yields a
    failed report with ``nontriviality`` false and the residuals at +inf.
    """
    p_hat = np.atleast_1d(np.asarray(p_hat, dtype=float))
    if p_hat.shape != (prob.d,):
        raise ValueError(f"p_hat must be a {prob.d}-vector, got shape {p_hat.shape}")
    if eta not in (0, 1):
        raise ValueError(f"eta must be 0 or 1, got {eta}")
    prob.validate_control(control)

    inf = float("inf")
    if eta == 0 and float(np.linalg.norm(p_hat)) == 0.0:
        traj = _propagate(prob, control, dynamics, rk4_steps)
        return CertificateReport(
            eta=0,
            p_hat=p_hat,
            adjoint_residual=inf,
            hmax_violation=inf,
            constancy_spread=inf,
            endpoint_residual=endpoint_residual(traj, prob.B),
            nontriviality=False,
            transversality=True,
            passed=False,
            locally_optimal=False,
        )

    ap = AdjointParams(eta, p_hat)
    traj = _propagate(prob, control, dynamics, rk4_steps)
    end_res = endpoint_residual(traj, prob.B)

    if dynamics is None:
        adjoint_res = check_adjoint(prob, ap)
        costates = adjoint_on_grid(prob, ap, traj.grid)
        vel = None
        affine = True
    else:
        adjoint_res = check_adjoint(prob, ap, traj=traj, dynamics=dynamics)
        costates = _backward_adjoint(dynamics, traj, ap.p_hat)
        vel = np.stack(
            [np.asarray(dynamics.phi(z, u), float) for z, u in zip(traj.states, traj.controls)]
        )
        affine = dynamics.affine_in_state
    values = hamiltonian_values(prob, ap.eta, costates, traj.states, traj.controls, vel, zero_tol)
    constancy = check_constancy(values, breakpoint_mask(traj.grid, control))
    hmax = check_hamiltonian_max(prob, ap, traj, control, dynamics=dynamics, zero_tol=zero_tol)

    # The costate of a nontrivial terminal vector never vanishes for LTI
    # flows; verify numerically so the nonlinear path gets the same check.
    min_costate = float(np.linalg.norm(costates, axis=1).min())
    nontrivial = eta == 1 or min_costate > 0.0

    passed = (
        nontrivial
        and adjoint_res <= adjoint_tol
        and hmax <= hmax_tol
        and constancy <= constancy_tol
        and end_res <= endpoint_tol
    )
    return CertificateReport(
        eta=int(eta),
        p_hat=ap.p_hat,
        adjoint_residual=float(adjoint_res),
        hmax_violation=float(hmax),
        constancy_spread=float(constancy),
        endpoint_residual=float(end_res),
        nontriviality=bool(nontrivial),
        transversality=True,
        passed=bool(passed),
        locally_optimal=bool(passed and eta == 1 and affine),
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
    that meets B has support >= g(p). At the multiplier of a normal
    extremal whose Hamiltonian maximum holds, g equals its support.

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
        inside = (newton > lo[idx]) & (newton < hi[idx])
        step = np.where(inside, newton, 0.5 * (lo[idx] + hi[idx])) - roots[idx]
        done = (f == 0.0) | (np.abs(step) <= 4.0 * np.finfo(float).eps * max(abs(prob.a), abs(prob.b)))
        roots[idx] = np.where(done, roots[idx], roots[idx] + step)
        active[idx] = ~done

    knots = np.union1d(grid, roots)
    nodes, weights = np.polynomial.legendre.leggauss(_GAUSS_NODES)
    half = 0.5 * np.diff(knots)
    t = (knots[:-1] + half)[:, None] + half[:, None] * nodes[None, :]
    phi = profile(t.ravel())[0][:, 0].reshape(t.shape)
    excess = float((np.maximum(phi, 0.0) @ weights) @ half)
    p_start = adjoint_on_grid(prob, ap, np.array([prob.a]))[0]
    return float(p @ prob.B - p_start @ prob.A) - excess


def _propagate(prob, control, dynamics, rk4_steps) -> Trajectory:
    if dynamics is None:
        return propagate_exact(prob, control)
    return propagate_rk4(dynamics, control, prob.A, rk4_steps)
