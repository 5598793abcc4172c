"""Trajectory propagation and along-trajectory Hamiltonian evaluation.

LTI plants are propagated exactly: each grid state is evaluated from the
state at its control segment's start through the zero-order-hold pair of
its offset (one exponential-kernel call for all offsets), so the only
error is the matrix exponential's. General dynamics go through a
classical fixed-step fourth-order Runge-Kutta integrator whose step grid
is aligned with the control breakpoints (a segment never straddles a
control discontinuity). Fixed-step keeps regression numbers reproducible.
RK4 calls the callbacks once per stage; every later pass calls them on
stacked points, a few times per trajectory (:class:`NonlinearDynamics`).

:func:`hamiltonian_profile` evaluates a candidate extremal along its
trajectory once, into one record (:class:`HamiltonianProfile`); trajectory
CSVs and certificates read it.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .control_law import AdjointParams, adjoint_on_grid, hamiltonian_values
from .linalg import sorted_unique
from .model import PiecewiseConstantControl, Problem, Trajectory, write_csv

#: Grid samples used by default when propagating for plots/certificates.
DEFAULT_GRID = 1000

#: Relative half-width (fraction of the horizon) of the exclusion window
#: around control breakpoints. Pointwise optimality holds almost
#: everywhere, so switching instants must not poison a profile.
BREAKPOINT_WINDOW = 1e-6


class BlowUpError(RuntimeError):
    """Integration produced a non-finite state."""


@dataclass(frozen=True)
class NonlinearDynamics:
    """User-supplied dynamics zdot = phi(z, u) for certification.

    The callbacks take stacked points, z of shape (..., d) and u of shape
    (..., m) with one leading shape (a single point has the leading shape
    ()), and return phi of shape (..., d) and the state Jacobian d(phi)/dz
    of shape (..., d, d); any other result raises ValueError. ``jac_z`` is
    optional; when absent a central finite difference is used.
    ``affine_in_state`` marks plants whose phi(., u) is affine for every
    admissible u, which is what the local-optimality test needs.
    """

    d: int
    m: int
    phi: Callable[[np.ndarray, np.ndarray], np.ndarray]
    jac_z: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    affine_in_state: bool = False

    def _call(self, z: np.ndarray, u: np.ndarray, jacobian: bool = False) -> np.ndarray:
        """phi, or jac_z, at stacked points: the one caller of the callbacks."""
        name, fn, tail = ("jac_z", self.jac_z, (self.d, self.d)) if jacobian else ("phi", self.phi, (self.d,))
        out = np.asarray(fn(z, u), dtype=float)
        if out.shape != np.shape(z)[:-1] + tail:
            raise ValueError(
                f"{name} must map z of shape (..., d) and u of shape (..., m) to shape (...{', d' * len(tail)}) "
                f"with d = {self.d}; got {out.shape} for z of shape {np.shape(z)}"
            )
        return out

    def jacobian(self, z: np.ndarray, u: np.ndarray) -> np.ndarray:
        return self._fd_jacobian(z, u) if self.jac_z is None else self._call(z, u, jacobian=True)

    def _fd_jacobian(self, z: np.ndarray, u: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        step = np.sqrt(np.finfo(float).eps) * (1.0 + np.linalg.norm(z, axis=-1, keepdims=True))
        jac = np.empty(z.shape + (self.d,))
        for i, dz in enumerate(np.eye(self.d)):
            jac[..., i] = (self._call(z + step * dz, u) - self._call(z - step * dz, u)) / (2.0 * step)
        if not np.all(np.isfinite(jac)):
            raise BlowUpError("finite-difference Jacobian produced non-finite entries")
        return jac

    def jacobian_defect(self, z: np.ndarray, u: np.ndarray) -> float:
        """Max deviation between the supplied Jacobian and central finite
        differences; 0.0 when no callback was supplied. The only smoothness
        check available to the caller."""
        if self.jac_z is None:
            return 0.0
        return float(np.abs(self.jacobian(z, u) - self._fd_jacobian(z, u)).max())

    def _check_problem(self, prob: Problem) -> None:
        if (self.d, self.m) != (prob.d, prob.m):
            raise ValueError(f"dynamics have (d, m) = ({self.d}, {self.m}), the problem ({prob.d}, {prob.m})")


def linear_dynamics(prob: Problem) -> NonlinearDynamics:
    """Wrap an LTI problem's vector field in the callback interface."""
    f, g = prob.F, prob.G
    return NonlinearDynamics(
        prob.d, prob.m, phi=lambda z, u: z @ f.T + u @ g.T,
        jac_z=lambda z, u: np.broadcast_to(f, np.shape(z)[:-1] + f.shape), affine_in_state=True,
    )


def trajectory_grid(prob: Problem, u: PiecewiseConstantControl, samples: int = DEFAULT_GRID) -> np.ndarray:
    """The horizon's ``samples`` uniform points with every breakpoint of u inserted."""
    return sorted_unique(np.concatenate([np.linspace(prob.a, prob.b, samples), u.breakpoints]))


def propagate_exact(
    prob: Problem, u: PiecewiseConstantControl, samples: int = DEFAULT_GRID
) -> Trajectory:
    """Exact piecewise propagation of the LTI plant under a PWC control.

    The output grid is :func:`trajectory_grid`; states at grid points are
    exact up to matrix-exponential accuracy. Grid controls use the right-limit
    value. Each grid state is reached from the start of its control segment.
    """
    prob.validate_control(u)
    grid = trajectory_grid(prob, u, samples)
    d, n_seg = prob.d, u.values.shape[0]
    # Grid point i > 0 lies in the segment in effect at grid[i - 1]; segment
    # k owns steps starts[k]:ends[k] and starts from grid point starts[k].
    seg = np.clip(np.searchsorted(u.breakpoints, grid[:-1], side="right") - 1, 0, n_seg - 1)
    ends = np.searchsorted(seg, np.arange(n_seg), side="right")
    starts = np.concatenate([[0], ends[:-1]])
    e = prob.zoh_flow(grid[1:] - grid[starts[seg]])
    drive = np.einsum("nij,nj->ni", e[:, :d, d:], u.values[seg])
    states = np.empty((grid.size, d))
    states[0] = prob.A
    for lo, hi in zip(starts, ends):
        states[lo + 1 : hi + 1] = e[lo:hi, :d, :d] @ states[lo] + drive[lo:hi]
    return Trajectory(grid=grid, states=states, controls=u.sample(grid))


def propagate_rk4(
    dyn: NonlinearDynamics,
    u: PiecewiseConstantControl,
    initial_state: np.ndarray,
    steps: int,
) -> Trajectory:
    """Classical fixed-step RK4 under a piecewise-constant control.

    ``steps`` is the total step budget over the horizon; it is distributed
    proportionally across control segments so breakpoints always land on
    the step grid. Raises :class:`BlowUpError` on non-finite states.
    """
    if steps < 10:
        raise ValueError(f"steps must be at least 10, got {steps}")
    z = np.atleast_1d(np.asarray(initial_state, dtype=float)).copy()
    horizon = u.b - u.a
    times = [u.a]
    states = [z.copy()]
    for k in range(u.values.shape[0]):
        t0, t1 = u.breakpoints[k], u.breakpoints[k + 1]
        v = u.values[k]
        n_sub = max(1, int(round(steps * (t1 - t0) / horizon)))
        h = (t1 - t0) / n_sub
        for j in range(n_sub):
            k1 = dyn._call(z, v)
            k2 = dyn._call(z + 0.5 * h * k1, v)
            k3 = dyn._call(z + 0.5 * h * k2, v)
            k4 = dyn._call(z + h * k3, v)
            z = z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.all(np.isfinite(z)):
                raise BlowUpError(f"state blew up near t = {t0 + (j + 1) * h:.6g}")
            times.append(t0 + (j + 1) * h)
            states.append(z.copy())
    grid = np.asarray(times)
    return Trajectory(grid=grid, states=np.asarray(states), controls=u.sample(grid))


def endpoint_residual(traj: Trajectory, target: np.ndarray) -> float:
    """Euclidean distance between the final state and the target endpoint."""
    return float(np.linalg.norm(traj.states[-1] - np.atleast_1d(np.asarray(target, float))))


@dataclass(frozen=True)
class HamiltonianProfile:
    """A candidate extremal sampled on its trajectory grid.

    ``values`` is the Hamiltonian <p, zdot> + eta [u == 0] at each sample.
    ``off_breakpoint`` masks the samples that are safely away from control
    switching instants; constancy and maximization statements apply to
    those only. ``costates`` holds p at each sample, and ``jacobians``,
    for callback dynamics only, d(phi)/dz at (z_i, u_i) for i < n - 1.
    """

    values: np.ndarray
    off_breakpoint: np.ndarray
    costates: np.ndarray | None = None
    jacobians: np.ndarray | None = None

    def spread(self) -> float:
        kept = self.values[self.off_breakpoint]
        return float(kept.max() - kept.min()) if kept.size else 0.0


def breakpoint_mask(grid: np.ndarray, u: PiecewiseConstantControl) -> np.ndarray:
    """True for grid samples farther than BREAKPOINT_WINDOW times the
    horizon from any interior breakpoint of u."""
    interior = u.breakpoints[1:-1]
    if interior.size == 0:
        return np.ones(grid.size, dtype=bool)
    dist = np.min(np.abs(grid[:, None] - interior[None, :]), axis=1)
    return dist > BREAKPOINT_WINDOW * (u.b - u.a)


def hamiltonian_profile(
    prob: Problem,
    ap: AdjointParams,
    traj: Trajectory,
    u: PiecewiseConstantControl | None,
    dynamics: NonlinearDynamics | None = None,
) -> HamiltonianProfile:
    """Costates and Hamiltonian of the extremal candidate (ap, traj) on the
    trajectory grid, with the off-breakpoint mask (without a control every
    sample is kept); along a genuine extremal the values are constant off
    switching instants. LTI plants use the analytic costate; callback
    dynamics use one backward RK4 pass, which also yields the Jacobians
    the adjoint defect needs."""
    keep = np.ones(traj.grid.size, dtype=bool) if u is None else breakpoint_mask(traj.grid, u)
    if dynamics is None:
        costates, jacobians, velocities = adjoint_on_grid(prob, ap, traj.grid), None, None
    else:
        dynamics._check_problem(prob)
        velocities = dynamics._call(traj.states, traj.controls)
        costates, jacobians = _backward_adjoint(dynamics, traj, ap.p_hat)
    values = hamiltonian_values(prob, ap.eta, costates, traj.states, traj.controls, velocities)
    return HamiltonianProfile(values, keep, costates, jacobians)


def _backward_adjoint(
    dyn: NonlinearDynamics, traj: Trajectory, p_hat: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Backward RK4 integration of pdot = -J(z, u)^T p along a sampled trajectory.

    Step i runs from grid[i + 1] back to grid[i] under u_i with the state
    interpolated linearly, so it needs the Jacobians at every step's two
    ends and midpoint (which k2 and k3 share): three stacked calls. Returns
    the costates and the Jacobians at (z_i, u_i) for i < n - 1.
    """
    grid, states, u = traj.grid, traj.states, traj.controls[:-1]
    ends, mids = dyn.jacobian(states[1:], u), dyn.jacobian(0.5 * states[:-1] + 0.5 * states[1:], u)
    jacobians = dyn.jacobian(states[:-1], u)
    costates = np.empty((grid.size, dyn.d))
    costates[-1] = p_hat
    for i in range(grid.size - 2, -1, -1):
        h, p = grid[i + 1] - grid[i], costates[i + 1]
        k1 = -ends[i].T @ p
        k2 = -mids[i].T @ (p - 0.5 * h * k1)
        k3 = -mids[i].T @ (p - 0.5 * h * k2)
        k4 = -jacobians[i].T @ (p - h * k3)
        costates[i] = p - (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return costates, jacobians


def save_trajectory(
    traj: Trajectory,
    path: str | Path,
    prob: Problem | None = None,
    ap: AdjointParams | None = None,
) -> None:
    """Write a trajectory CSV: t, states, controls, and (when a multiplier
    is supplied) switching components and the Hamiltonian."""
    d = traj.states.shape[1]
    m = traj.controls.shape[1]
    header = ["t"] + [f"z_{i + 1}" for i in range(d)] + [f"u_{i + 1}" for i in range(m)]
    columns = [traj.grid, traj.states, traj.controls]
    if ap is not None:
        if prob is None:
            raise ValueError("writing switching columns requires the problem")
        ex = hamiltonian_profile(prob, ap, traj, None)
        header += [f"s_{i + 1}" for i in range(m)] + ["H"]
        columns += [ex.costates @ prob.G, ex.values[:, None]]
    table = np.column_stack([np.atleast_2d(c.T).T if c.ndim == 1 else c for c in columns])
    write_csv(path, header, table)
