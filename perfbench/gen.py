"""Seeded input generators for the benchmark workloads.

Everything here uses numpy and scipy only, never ``handsoff``: both sides
of a before/after comparison receive byte-identical inputs, and the
ground truth that comes with an input (an extremal's multiplier, the
expected certificate verdict) does not depend on the code under test.

Problem files follow the documented JSON layout and controls the segment
CSV layout (17 significant digits), written by this module's own writers.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.linalg import expm
from scipy.optimize import brentq


@dataclass
class Plant:
    F: np.ndarray
    G: np.ndarray
    a: float
    b: float
    A: np.ndarray
    B: np.ndarray
    lower: float = -1.0
    upper: float = 1.0

    @property
    def d(self) -> int:
        return self.F.shape[0]

    def to_dict(self) -> dict:
        return {
            "F": self.F.tolist(),
            "G": self.G.tolist(),
            "a": self.a,
            "b": self.b,
            "A": self.A.tolist(),
            "B": self.B.tolist(),
            "U": {"kind": "box", "lower": [self.lower], "upper": [self.upper]},
        }


@dataclass
class Control:
    """Piecewise-constant single-input control: values[k] on [bp[k], bp[k+1])."""

    breakpoints: np.ndarray
    values: np.ndarray


@dataclass
class StoredCase:
    """One certify_stored input with the generator's ground truth."""

    name: str
    plant: Plant
    control: Control
    p_hat: np.ndarray
    extremal: bool  # True: exact normal extremal, certificate must pass
    note: str = ""
    files: dict = field(default_factory=dict)


def example_1() -> Plant:
    """The paper's scalar integrator: 3 -> 0 in 5 time units."""
    return Plant(np.zeros((1, 1)), np.ones((1, 1)), 0.0, 5.0, np.array([3.0]), np.zeros(1))


def example_2() -> Plant:
    """The paper's double integrator: (10, -3) -> 0 in 5 time units."""
    return Plant(
        np.array([[0.0, 1.0], [0.0, 0.0]]),
        np.array([[0.0], [1.0]]),
        0.0,
        5.0,
        np.array([10.0, -3.0]),
        np.zeros(2),
    )


# Neighbourhood half-width of the d=3 plant family around the seed-0 plant.
D3_SPREAD = 0.01


def plant_d3(seed: int) -> Plant:
    """Random stable d=3 box plant, steered to the origin in 6 time units.

    Seed 0 is the reference plant drawn from ``default_rng(0)``. Every
    other seed draws a uniform perturbation of half-width ``D3_SPREAD`` of
    every entry of F, G and A around it. Keeping the family in one
    neighbourhood keeps the solver's work per plant comparable across
    seeds, which is what lets a run-to-run spread be small while the seed
    still changes every input.
    """
    base = np.random.default_rng(0)
    F = base.uniform(-1, 1, (3, 3)) - 1.5 * np.eye(3)
    G = base.uniform(-1, 1, (3, 1))
    A = base.uniform(-1, 1, 3)
    if seed != 0:
        rng = np.random.default_rng([seed, 3])
        F = F + rng.uniform(-D3_SPREAD, D3_SPREAD, F.shape)
        G = G + rng.uniform(-D3_SPREAD, D3_SPREAD, G.shape)
        A = A + rng.uniform(-D3_SPREAD, D3_SPREAD, A.shape)
    return Plant(F, G, 0.0, 6.0, A, np.zeros(3))


# ---------------------------------------------------------------------------
# Exact propagation (scipy expm of the augmented block matrix)
# ---------------------------------------------------------------------------


def zoh(F: np.ndarray, G: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
    d, m = G.shape
    aug = np.zeros((d + m, d + m))
    aug[:d, :d] = F
    aug[:d, d:] = G
    e = expm(aug * dt)
    return e[:d, :d], e[:d, d:]


def endpoint(plant: Plant, control: Control) -> np.ndarray:
    z = plant.A.astype(float).copy()
    bp = control.breakpoints
    for k in range(bp.size - 1):
        a_d, b_d = zoh(plant.F, plant.G, float(bp[k + 1] - bp[k]))
        z = a_d @ z + b_d @ np.atleast_1d(control.values[k])
    return z


# ---------------------------------------------------------------------------
# Exact normal extremals and perturbed copies
# ---------------------------------------------------------------------------


def _switching(plant: Plant, p_hat: np.ndarray, t: float) -> float:
    return float(plant.G[:, 0] @ expm(plant.F.T * (plant.b - t)) @ p_hat)


def _costates(step: np.ndarray, p_hat: np.ndarray, n: int) -> np.ndarray:
    """Rows k = 0 .. n-1 of step^k p_hat, from about 2 sqrt(n) products:
    a block of short steps, moved along by powers of one long step."""
    d = p_hat.size
    block = int(np.ceil(np.sqrt(n)))
    short = np.empty((block, d))
    short[0] = p_hat
    for r in range(1, block):
        short[r] = step @ short[r - 1]
    leap = np.linalg.matrix_power(step, block)
    long = np.empty((-(-n // block), d, d))
    long[0] = np.eye(d)
    for q in range(1, long.shape[0]):
        long[q] = leap @ long[q - 1]
    return np.matmul(long, short.T).transpose(0, 2, 1).reshape(-1, d)[:n]


def _switching_grid(plant: Plant, p_hat: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    grid = np.linspace(plant.a, plant.b, n)
    step = expm(plant.F.T * (grid[1] - grid[0]))
    p = _costates(step, p_hat, n)[::-1]
    return grid, p @ plant.G[:, 0]


# check_adjoint's defaults: a 10001-point grid and a 1e-6 tolerance.
ADJOINT_GRID = 10001
ADJOINT_TOL = 1e-6
# An extremal's predicted defect must clear the tolerance by 25% on either
# side, far more than the predictor's agreement with the checker (about
# 1e-6 relative) and the recovered multiplier's error (1e-6 relative).
DEFECT_ABOVE = 1.25 * ADJOINT_TOL
DEFECT_BELOW = 0.8 * ADJOINT_TOL


def adjoint_defect(plant: Plant, p_hat: np.ndarray, n: int = ADJOINT_GRID) -> float:
    """The defect check_adjoint reports for an exact LTI costate.

    The checker compares p(t) = exp(F^T (b - t)) p_hat with its central
    differences on an n-point uniform grid. For the exact costate the
    defect at grid point t is M p(t), M = (exp(-F^T h) - exp(F^T h)) / 2h
    + F^T, which is the truncation error of the difference (about
    h^2/6 |F^3 p|), not an adjoint error.
    """
    h = (plant.b - plant.a) / (n - 1)
    ft = plant.F.T
    M = (expm(-ft * h) - expm(ft * h)) / (2.0 * h) + ft
    # Row k is p at b - k h; the checker measures the interior points only.
    p = _costates(expm(ft * h), p_hat, n)[1:n - 1]
    return float(np.abs(p @ M.T).max())


MIN_SEGMENT = 0.1
MIN_SLOPE = 0.2
MAX_SWITCHES = 8
# Scan spacing (0.01 on the 5-unit horizon) is a tenth of MIN_SEGMENT, so no
# pair of crossings hides between two scan points.
SCAN_POINTS = 501


def _try_extremal(rng: np.random.Generator, d: int, horizon: float, above: bool):
    # A skew-symmetric part makes the costate oscillate, so the switching
    # function crosses the threshold often enough for most draws to pass.
    W = rng.uniform(-1, 1, (d, d))
    F = rng.uniform(-0.5, 0.5, (d, d)) + (W - W.T)
    G = rng.uniform(-1, 1, (d, 1))
    plant = Plant(F, G, 0.0, horizon, rng.uniform(-1, 1, d), np.zeros(d))
    q = rng.normal(size=d)
    grid, s = _switching_grid(plant, q, SCAN_POINTS)
    peak = float(np.abs(s).max())
    if peak < 1e-6:
        return None
    scale = rng.uniform(1.5, 3.0) / peak
    p_hat = q * scale
    s = s * scale
    gap = np.abs(s) - 1.0
    idx = np.flatnonzero(np.sign(gap[:-1]) != np.sign(gap[1:]))
    if not d <= idx.size <= MAX_SWITCHES:
        return None
    defect = adjoint_defect(plant, p_hat)
    if not (defect >= DEFECT_ABOVE if above else defect <= DEFECT_BELOW):
        return None

    def f(t: float) -> float:
        return abs(_switching(plant, p_hat, t)) - 1.0

    roots = []
    for i in idx:
        if f(grid[i]) * f(grid[i + 1]) >= 0.0:
            return None  # the scan and the exact switching function disagree
        t = brentq(f, grid[i], grid[i + 1], xtol=1e-15, maxiter=200)
        h = 1e-5
        slope = (f(t + h) - f(t - h)) / (2 * h)
        if abs(slope) < MIN_SLOPE:
            return None
        roots.append(t)
    bp = np.concatenate([[plant.a], roots, [plant.b]])
    if np.diff(bp).min() < MIN_SEGMENT:
        return None
    mids = 0.5 * (bp[:-1] + bp[1:])
    values = np.array([np.sign(v) if abs(v) > 1.0 else 0.0 for v in (_switching(plant, p_hat, t) for t in mids)])
    control = Control(bp, values[:, None])
    plant.B = endpoint(plant, control)
    return plant, control, p_hat


def extremal_case(rng: np.random.Generator, d: int, name: str, above: bool) -> StoredCase:
    """An exact normal extremal: u = sign(s) where |s| > 1, else 0.

    s(t) = G^T exp(F^T (b - t)) p_hat. Breakpoints are the roots of
    |s| = 1, found to machine precision; B is the exact endpoint of the
    control, so (eta=1, p_hat, u) satisfies every maximum-principle
    condition exactly. Draws are rejected until the control has between d
    and MAX_SWITCHES transversal crossings and no segment shorter than
    MIN_SEGMENT, and until its predicted adjoint-check defect lies on the
    side of the tolerance that ``above`` asks for, clear of it.
    """
    while True:
        found = _try_extremal(rng, d, 5.0, above)
        if found is not None:
            plant, control, p_hat = found
            note = f"d={d}, adjoint-check defect {'above' if above else 'below'} tolerance"
            return StoredCase(name, plant, control, p_hat, True, note)


def perturbed_case(base: StoredCase, k: int, sign: float, name: str) -> StoredCase | None:
    """The extremal with interior breakpoint k shifted, endpoint re-propagated.

    The shift is 30% of the shorter neighbouring segment, in direction
    ``sign``. On the shifted interval the control disagrees with the
    bang-off-bang law of p_hat; the copy is returned only if the
    Hamiltonian-maximum condition fails there by at least MIN_MARGIN.
    """
    bp = base.control.breakpoints.copy()
    shift = 0.3 * min(bp[k] - bp[k - 1], bp[k + 1] - bp[k]) * sign
    old = bp[k]
    bp[k] = old + shift
    margin = abs(abs(_switching(base.plant, base.p_hat, 0.5 * (old + bp[k]))) - 1.0)
    if margin < MIN_MARGIN:
        return None
    control = Control(bp, base.control.values.copy())
    plant = Plant(base.plant.F, base.plant.G, base.plant.a, base.plant.b, base.plant.A, np.zeros(base.plant.d))
    plant.B = endpoint(plant, control)
    return StoredCase(name, plant, control, base.p_hat, False, f"{base.note}, breakpoint {k} shifted {shift:+.4f}")


MIN_MARGIN = 1e-3


def defect_above(i: int) -> bool:
    """Whether extremal i is drawn with its adjoint-check defect above the
    tolerance: i = 1 and 5 modulo 12 (d = 3 and d = 4), 6 of 34 extremals,
    close to the share the unstratified draws had (3-10 of 34)."""
    return i % 12 in (1, 5)


def stored_cases(seed: int, n_plants: int) -> list[StoredCase]:
    """n_plants extremals on plants with d cycling 2, 3, 4, each followed
    by two perturbed copies that move two different breakpoints.

    Two perturbed copies per extremal put the median op inside the group
    of plain certify calls and the 90th percentile inside the group of
    extremal ops, so neither percentile sits on the border between the
    two groups' latencies. Which extremals the known check_adjoint false
    negative hits is fixed by ``defect_above``, so every seed has the same
    number of them.
    """
    rng = np.random.default_rng([seed, 4])
    cases = []
    i = 0
    while len(cases) < 3 * n_plants:
        d = 2 + i % 3
        ext = extremal_case(rng, d, f"ext{i:03d}", defect_above(i))
        copies = []
        for k in rng.permutation(np.arange(1, ext.control.breakpoints.size - 1)):
            sign = 1.0 if rng.random() < 0.5 else -1.0
            copy = perturbed_case(ext, int(k), sign, f"pert{i:03d}{'ab'[len(copies)]}")
            if copy is not None:
                copies.append(copy)
            if len(copies) == 2:
                cases += [ext, *copies]
                i += 1
                break
    return cases


# ---------------------------------------------------------------------------
# Writers
# ---------------------------------------------------------------------------


def write_problem(plant: Plant, path: Path) -> None:
    path.write_text(json.dumps(plant.to_dict(), indent=2) + "\n", encoding="utf-8")


def write_control(control: Control, path: Path) -> None:
    bp = control.breakpoints
    lines = ["t_start,t_end,u_1"]
    for k in range(bp.size - 1):
        lines.append(f"{bp[k]:.17g},{bp[k + 1]:.17g},{float(control.values[k, 0]):.17g}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def digest(paths: list[Path]) -> str:
    """sha256 over the names and bytes of every generated input file."""
    h = hashlib.sha256()
    for p in sorted(paths, key=lambda q: q.name):
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]
