"""Pointwise maximization of the hands-off Hamiltonian.

For the LTI plant the costate flows backward from a terminal vector
``p_hat`` as ``p(t) = exp((b - t) F^T) p_hat``, and the input enters the
Hamiltonian only through the switching function ``s(t) = G^T p(t)``. The
candidate optimal inputs at each instant follow one bang-off-bang rule,
:func:`bang_off_bang`. In the normal case (eta = 1) the zero input earns
one unit of Hamiltonian value, and the bonus belongs to the whole input
vector (v = 0), as in the support measure ``l0_cost``: the input saturates
only when the best achievable ``<s, v>`` over the admissible set clears 1.
For one channel this is the per-channel threshold |s| * bound > 1. In the
abnormal case (eta = 0) the zero bonus is absent and the rule degenerates
to plain sign-based saturation.

Threshold equalities produce tie sets containing both the zero input and
the saturated one, and a channel with zero switching value is free over its
whole interval; singular instances live entirely inside these ties, so the
rule keeps the full set instead of picking a representative. Recovery and
certification measure maximization by one shortfall, :func:`hamiltonian_gap`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .linalg import sorted_unique
from .model import ZERO_TOL, Ball, Box, Problem, _off_mask

#: Width of the band around a threshold inside which a switching value is
#: classified as a tie. Exact floating-point equality would be meaningless.
TIE_TOL = 1e-9

#: Samples per kernel call in :func:`adjoint_on_grid`.
GRID_BLOCK = 1024


@dataclass(frozen=True)
class AdjointParams:
    """Multiplier pair (eta, p_hat) behind a candidate extremal.

    eta is the cost multiplier (1 = normal, 0 = abnormal). The pair must
    be nontrivial; abnormal multipliers are stored unit-normalized since
    the eta = 0 maximization is invariant under positive scaling.
    """

    eta: int
    p_hat: np.ndarray

    def __post_init__(self):
        if self.eta not in (0, 1):
            raise ValueError(f"eta must be 0 or 1, got {self.eta}")
        p = np.atleast_1d(np.asarray(self.p_hat, dtype=float)).copy()
        norm = float(np.linalg.norm(p))
        if self.eta == 0:
            if norm == 0.0:
                raise ValueError("nontriviality violated: eta = 0 requires p_hat != 0")
            p = p / norm
        p.setflags(write=False)
        object.__setattr__(self, "p_hat", p)
        object.__setattr__(self, "eta", int(self.eta))


def adjoint_at(prob: Problem, ap: AdjointParams, t: float) -> np.ndarray:
    """Costate at time t: exp((b - t) F^T) p_hat."""
    _check_time(prob, t)
    return prob.costate_flow(prob.b - t) @ ap.p_hat


def adjoint_on_grid(prob: Problem, ap: AdjointParams, grid: np.ndarray) -> np.ndarray:
    """Costate sampled on a time grid, shape (len(grid), d).

    Each sample is an independent exponential, so accuracy does not depend
    on grid ordering or spacing. The problem's costate kernel evaluates the
    grid in blocks of :data:`GRID_BLOCK` samples, so memory stays flat in
    the grid length.
    """
    lags = prob.b - np.asarray(grid, dtype=float)
    flow = prob.costate_flow
    costates = np.empty((lags.size, prob.d))
    for start in range(0, lags.size, GRID_BLOCK):
        costates[start : start + GRID_BLOCK] = flow(lags[start : start + GRID_BLOCK]) @ ap.p_hat
    return costates


def hamiltonian_values(
    prob: Problem,
    eta: int,
    costates: np.ndarray,
    states: np.ndarray | None,
    controls: np.ndarray,
    velocities: np.ndarray | None = None,
) -> np.ndarray:
    """<p_i, phi(z_i, u_i)> + eta * [u_i == 0] per sample; phi defaults to
    F z + G u, and the states are read only then.

    An input counts as zero when every component is within ZERO_TOL of 0.
    """
    if velocities is None:
        velocities = states @ prob.F.T + controls @ prob.G.T
    return np.einsum("ij,ij->i", costates, velocities) + eta * _off_mask(controls, ZERO_TOL)


def switching_function(prob: Problem, ap: AdjointParams, t: float) -> np.ndarray:
    """Input-space image of the costate: G^T p(t), one value per channel."""
    return prob.G.T @ adjoint_at(prob, ap, t)


def pointwise_hamiltonian(
    prob: Problem,
    ap: AdjointParams,
    z: np.ndarray,
    v: np.ndarray,
    t: float,
    phi=None,
) -> float:
    """Hamiltonian value <p(t), phi(z, v)> + eta * [v == 0].

    ``phi`` defaults to the problem's linear dynamics; pass a callback to
    evaluate the Hamiltonian of general dynamics with the same costate.
    The zero indicator uses :data:`handsoff.model.ZERO_TOL` so solver
    outputs with roundoff still collect the hands-off bonus.
    """
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if not prob.U.contains(v):
        raise ValueError(f"input {v} outside the admissible set")
    z = np.atleast_1d(np.asarray(z, dtype=float))
    vel = None if phi is None else np.asarray(phi(z, v), dtype=float)[None]
    p = adjoint_at(prob, ap, t)
    return float(hamiltonian_values(prob, ap.eta, p[None], z[None], v[None], vel)[0])


# ---------------------------------------------------------------------------
# The bang-off-bang rule
# ---------------------------------------------------------------------------


class Maximizer(NamedTuple):
    """Pointwise Hamiltonian maximizers at stacked switching values (..., m).

    The *bang set* holds every admissible v with v_i = bang_i on the
    channels that are not free; a free channel ranges over its whole
    interval (a free ball is the whole ball), since it does not move
    <s, v>. The maximizer set is the bang set where ``on``, plus the zero
    input where ``zero``.
    """

    bang: np.ndarray  # (..., m)
    free: np.ndarray  # (..., m), bool
    gain: np.ndarray  # (...), sup over U of <s, v>
    zero: np.ndarray  # (...), bool
    on: np.ndarray  # (...), bool


def bang_off_bang(u_set: Box | Ball, s: np.ndarray, eta: int, tie_tol: float = TIE_TOL) -> Maximizer:
    """The bang-off-bang rule at switching values s of shape (..., m).

    Box: bang_i is the bound on the side of s_i, and channel i is free when
    |s_i| <= tie_tol. Ball: the bang vector is r s / ||s||, and the whole
    ball is free when ||s|| <= tie_tol. The gain sup <s, v> is attained on
    the bang set. Normal case: the zero input earns the unit bonus, so the
    bang set wins when gain > 1 + tie_tol, zero wins when gain < 1 - tie_tol,
    and both tie inside the band. Abnormal case: the bang set alone.
    """
    if eta not in (0, 1):
        raise ValueError(f"eta must be 0 or 1, got {eta}")
    s = np.asarray(s, dtype=float)
    if isinstance(u_set, Box):
        if s.shape[-1:] != (u_set.dim,):
            raise ValueError(f"switching value has shape {s.shape}, box has {u_set.dim} channels")
        bang = np.where(s > 0, u_set.upper, u_set.lower)
        gain = (s * bang).sum(axis=-1)
        free = np.abs(s) <= tie_tol
    else:
        norm = np.linalg.norm(s, axis=-1)
        bang = u_set.radius * s / np.maximum(norm, 1e-300)[..., None]
        gain = u_set.radius * norm
        free = np.broadcast_to((norm <= tie_tol)[..., None], s.shape)
    if eta == 0:
        return Maximizer(bang, free, gain, np.zeros(gain.shape, bool), np.ones(gain.shape, bool))
    return Maximizer(bang, free, gain, ~(gain > 1.0 + tie_tol), ~(gain < 1.0 - tie_tol))


def hamiltonian_gap(u_set: Box | Ball, s: np.ndarray, eta: int, u: np.ndarray) -> np.ndarray:
    """Shortfall gamma(s, u) = max(sigma_U(s), eta) - <s, u> - eta [u == 0] of
    the Hamiltonian at inputs u below its maximum over U, shapes (..., m).

    sigma_U is the gain of :func:`bang_off_bang`; the state term <p, F z>
    is the same for every input, so it cancels. For a control u meeting
    the endpoint, support(u) - dual_bound(p) = int gamma(s_p(t), u(t)) dt.
    """
    s, u = np.asarray(s, dtype=float), np.asarray(u, dtype=float)
    peak = np.maximum(bang_off_bang(u_set, s, eta).gain, float(eta))
    return peak - (s * u).sum(axis=-1) - eta * _off_mask(u, ZERO_TOL)


@dataclass(frozen=True)
class Candidates:
    """The maximizer set at one instant (:func:`bang_off_bang` fields)."""

    u_set: Box | Ball = field(compare=False, repr=False)
    bang: tuple[float, ...]
    free: tuple[bool, ...]
    zero: bool
    on: bool

    def vectors(self) -> list[np.ndarray]:
        """Discrete candidate inputs: the zero input, then the bang set with
        every free box channel at its bounds and at 0 (a free ball: 0)."""
        origin = (0.0,) * len(self.bang)
        points = [origin] if self.zero else []
        if self.on and isinstance(self.u_set, Ball):
            points.append(origin if self.free[0] else self.bang)
        elif self.on:
            box = self.u_set
            spans = [
                (float(lo), 0.0, float(hi)) if f else (b,)
                for b, f, lo, hi in zip(self.bang, self.free, box.lower, box.upper)
            ]
            points.extend(itertools.product(*spans))
        return [np.array(p) for p in dict.fromkeys(points)]


def candidates_at(prob: Problem, ap: AdjointParams, t: float, tie_tol: float = TIE_TOL) -> Candidates:
    """Bang-off-bang maximizer set at time t for the problem's input set."""
    rule = bang_off_bang(prob.U, switching_function(prob, ap, t), ap.eta, tie_tol)
    return Candidates(
        prob.U, tuple(rule.bang.tolist()), tuple(rule.free.tolist()), bool(rule.zero), bool(rule.on)
    )


# ---------------------------------------------------------------------------
# Brute-force oracle
# ---------------------------------------------------------------------------


def _input_grid(u_set: Box | Ball, m: int, grid_n: int) -> np.ndarray:
    """Dense admissible-input grid with the zero vector included exactly; a box
    axis gets at most floor(1001^(2/m)) points, and every vertex stays."""
    if isinstance(u_set, Box):
        if m > 3:
            raise ValueError("brute-force grid supports at most 3 box channels")
        axes = []
        for i in range(m):
            ax = np.linspace(u_set.lower[i], u_set.upper[i], min(grid_n, int(1001 ** (2 / m))))
            axes.append(sorted_unique(np.concatenate([ax, [0.0]])))
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([g.ravel() for g in mesh], axis=1)
    r = u_set.radius
    if m == 1:
        ax = np.linspace(-r, r, grid_n)
        return sorted_unique(np.concatenate([ax, [0.0]]))[:, None]
    if m == 2:
        n_ang = max(16, int(np.sqrt(grid_n) * 4))
        n_rad = max(8, grid_n // n_ang)
        angles = np.linspace(0.0, 2 * np.pi, n_ang, endpoint=False)
        radii = np.linspace(0.0, r, n_rad)
        pts = np.array([[rr * np.cos(a), rr * np.sin(a)] for rr in radii for a in angles])
        return np.vstack([pts, np.zeros((1, 2))])
    if m == 3:
        n_side = max(6, int(round(grid_n ** (1.0 / 3.0))))
        ax = np.linspace(-r, r, n_side)
        mesh = np.meshgrid(ax, ax, ax, indexing="ij")
        pts = np.stack([g.ravel() for g in mesh], axis=1)
        pts = pts[np.linalg.norm(pts, axis=1) <= r + 1e-12]
        return np.vstack([pts, np.zeros((1, 3))])
    raise ValueError("brute-force grid supports ball inputs only up to dimension 3")


def argmax_hamiltonian_bruteforce(
    prob: Problem,
    ap: AdjointParams,
    z: np.ndarray,
    t: float,
    grid_n: int = 10001,
    tie_tol: float = TIE_TOL,
) -> list[np.ndarray]:
    """Grid search of the pointwise Hamiltonian maximizers.

    Serves as the independent oracle for the analytic bang-off-bang rules:
    returns every grid input within ``tie_tol`` of the grid maximum.
    """
    if grid_n < 2:
        raise ValueError("grid_n must be at least 2")
    _check_time(prob, t)
    grid = _input_grid(prob.U, prob.m, grid_n)
    p = adjoint_at(prob, ap, t)
    z = np.atleast_1d(np.asarray(z, dtype=float))
    drift = float(p @ (prob.F @ z))
    lin = grid @ (prob.G.T @ p)
    bonus = ap.eta * np.all(grid == 0.0, axis=1)
    values = drift + lin + bonus
    best = values.max()
    return [grid[i].copy() for i in np.flatnonzero(values >= best - tie_tol)]


def _check_time(prob: Problem, t: float) -> None:
    if t < prob.a - 1e-12 or t > prob.b + 1e-12:
        raise ValueError(f"time {t} outside horizon [{prob.a}, {prob.b}]")
