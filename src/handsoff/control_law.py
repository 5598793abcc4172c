"""Pointwise maximization of the hands-off Hamiltonian.

For the LTI plant the costate flows backward from a terminal vector
``p_hat`` as ``p(t) = exp((b - t) F^T) p_hat``, and the input enters the
Hamiltonian only through the switching function ``s(t) = G^T p(t)``. The
candidate optimal inputs at each instant follow a bang-off-bang rule: in
the normal case (eta = 1) staying at zero is worth one unit of Hamiltonian
value, so a channel saturates only when the switching value clears the
threshold |s_i| * bound > 1; in the abnormal case (eta = 0) the zero bonus
is absent and the rule degenerates to plain sign-based saturation.

Threshold equalities produce tie sets containing both the zero input and
the saturated one; singular instances live entirely inside these ties, so
the candidate containers below keep the full set instead of picking a
representative.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .linalg import mat_exp
from .model import Ball, Box, Problem

#: Width of the band around a threshold inside which a switching value is
#: classified as a tie. Exact floating-point equality would be meaningless.
TIE_TOL = 1e-9


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
    return mat_exp(prob.F.T, prob.b - t) @ ap.p_hat


def adjoint_on_grid(prob: Problem, ap: AdjointParams, grid: np.ndarray) -> np.ndarray:
    """Costate sampled on a time grid, shape (len(grid), d).

    Each sample is an independent exponential, so accuracy does not depend
    on grid ordering or spacing.
    """
    return mat_exp(prob.F.T, prob.b - np.asarray(grid, dtype=float)) @ ap.p_hat


def hamiltonian_values(
    prob: Problem,
    eta: int,
    costates: np.ndarray,
    states: np.ndarray,
    controls: np.ndarray,
    velocities: np.ndarray | None = None,
    zero_tol: float = 1e-9,
) -> np.ndarray:
    """<p_i, phi(z_i, u_i)> + eta * [u_i == 0] per sample; phi defaults to F z + G u."""
    if velocities is None:
        velocities = states @ prob.F.T + controls @ prob.G.T
    bonus = eta * np.all(np.abs(controls) <= zero_tol, axis=1)
    return np.einsum("ij,ij->i", costates, velocities) + bonus


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
    zero_tol: float = 1e-9,
) -> float:
    """Hamiltonian value <p(t), phi(z, v)> + eta * [v == 0].

    ``phi`` defaults to the problem's linear dynamics; pass a callback to
    evaluate the Hamiltonian of general dynamics with the same costate.
    The zero indicator uses ``zero_tol`` so solver outputs with roundoff
    still collect the hands-off bonus.
    """
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if not prob.U.contains(v):
        raise ValueError(f"input {v} outside the admissible set")
    z = np.atleast_1d(np.asarray(z, dtype=float))
    vel = None if phi is None else np.asarray(phi(z, v), dtype=float)[None]
    p = adjoint_at(prob, ap, t)
    return float(hamiltonian_values(prob, ap.eta, p[None], z[None], v[None], vel, zero_tol)[0])


# ---------------------------------------------------------------------------
# Candidate sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChannelCandidates:
    """Candidate values for one input channel.

    ``whole_interval`` marks the abnormal degenerate case (zero switching
    value) where every admissible value maximizes; ``values`` then holds
    the interval endpoints and 0 as discrete representatives.
    """

    values: tuple[float, ...]
    whole_interval: bool = False
    bounds: tuple[float, float] = (0.0, 0.0)

    def distance(self, x: float) -> float:
        if self.whole_interval and self.bounds[0] <= x <= self.bounds[1]:
            return 0.0
        return min(abs(x - c) for c in self.values)


@dataclass(frozen=True)
class BoxCandidates:
    """Per-channel candidate sets for a box-constrained input."""

    channels: tuple[ChannelCandidates, ...]

    def vectors(self) -> list[np.ndarray]:
        """All discrete candidate input vectors (Cartesian product)."""
        return [np.array(combo) for combo in itertools.product(*(c.values for c in self.channels))]

    def distance(self, v: np.ndarray) -> float:
        """Euclidean distance from v to the candidate set."""
        v = np.atleast_1d(np.asarray(v, dtype=float))
        return float(np.sqrt(sum(c.distance(x) ** 2 for c, x in zip(self.channels, v))))


@dataclass(frozen=True)
class BallCandidates:
    """Candidate input vectors for a ball-constrained input."""

    points: tuple[tuple[float, ...], ...]
    whole_ball: bool = False
    radius: float = 0.0

    def vectors(self) -> list[np.ndarray]:
        return [np.array(p) for p in self.points]

    def distance(self, v: np.ndarray) -> float:
        v = np.atleast_1d(np.asarray(v, dtype=float))
        if self.whole_ball and np.linalg.norm(v) <= self.radius:
            return 0.0
        return min(float(np.linalg.norm(v - np.array(p))) for p in self.points)


def bang_off_bang_box(
    s: np.ndarray, eta: int, box: Box, tie_tol: float = TIE_TOL
) -> BoxCandidates:
    """Candidate maximizer set for a box input at switching value s.

    Normal case (eta = 1), per channel: saturate high when the best
    achievable product s_i * v exceeds 1, stay at zero when it falls
    short, and keep both in the tie band. Abnormal case (eta = 0): plain
    sign rule, with the whole interval admissible at s_i = 0.
    """
    s = np.atleast_1d(np.asarray(s, dtype=float))
    if eta not in (0, 1):
        raise ValueError(f"eta must be 0 or 1, got {eta}")
    if s.size != box.dim:
        raise ValueError(f"switching value has {s.size} channels, box has {box.dim}")
    channels = []
    for i in range(box.dim):
        lo, hi = float(box.lower[i]), float(box.upper[i])
        bang = hi if s[i] > 0 else lo
        gain = s[i] * bang  # best achievable <s_i, v_i>, always >= 0
        if eta == 1:
            if gain > 1.0 + tie_tol:
                cands = (bang,)
            elif gain < 1.0 - tie_tol:
                cands = (0.0,)
            else:
                cands = (0.0, bang)
            channels.append(ChannelCandidates(cands, bounds=(lo, hi)))
        else:
            if abs(s[i]) <= tie_tol:
                channels.append(
                    ChannelCandidates((lo, 0.0, hi), whole_interval=True, bounds=(lo, hi))
                )
            else:
                channels.append(ChannelCandidates((bang,), bounds=(lo, hi)))
    return BoxCandidates(tuple(channels))


def bang_off_bang_ball(
    w: np.ndarray, eta: int, radius: float, tie_tol: float = TIE_TOL
) -> BallCandidates:
    """Candidate maximizer set for a ball input at switching value w.

    The best achievable inner product is radius * ||w||, attained along
    w/||w||; the normal case compares it against the unit zero bonus.
    """
    w = np.atleast_1d(np.asarray(w, dtype=float))
    if eta not in (0, 1):
        raise ValueError(f"eta must be 0 or 1, got {eta}")
    norm = float(np.linalg.norm(w))
    zero = tuple(np.zeros(w.size))
    if norm <= tie_tol:
        if eta == 1:
            return BallCandidates((zero,), radius=radius)
        return BallCandidates((zero,), whole_ball=True, radius=radius)
    bang = tuple(radius * w / norm)
    gain = radius * norm
    if eta == 0:
        return BallCandidates((bang,), radius=radius)
    if gain > 1.0 + tie_tol:
        return BallCandidates((bang,), radius=radius)
    if gain < 1.0 - tie_tol:
        return BallCandidates((zero,), radius=radius)
    return BallCandidates((zero, bang), radius=radius)


def candidates_at(
    prob: Problem, ap: AdjointParams, t: float, tie_tol: float = TIE_TOL
) -> BoxCandidates | BallCandidates:
    """Bang-off-bang candidate set at time t for the problem's input set."""
    s = switching_function(prob, ap, t)
    if isinstance(prob.U, Box):
        return bang_off_bang_box(s, ap.eta, prob.U, tie_tol)
    return bang_off_bang_ball(s, ap.eta, prob.U.radius, tie_tol)


# ---------------------------------------------------------------------------
# Brute-force oracle
# ---------------------------------------------------------------------------


def _input_grid(u_set: Box | Ball, m: int, grid_n: int) -> np.ndarray:
    """Dense admissible-input grid with the zero vector included exactly."""
    if isinstance(u_set, Box):
        if m > 3:
            raise ValueError("brute-force grid supports at most 3 box channels")
        axes = []
        for i in range(m):
            ax = np.linspace(u_set.lower[i], u_set.upper[i], grid_n)
            axes.append(np.unique(np.concatenate([ax, [0.0]])))
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([g.ravel() for g in mesh], axis=1)
    r = u_set.radius
    if m == 1:
        ax = np.linspace(-r, r, grid_n)
        return np.unique(np.concatenate([ax, [0.0]]))[:, None]
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
