"""Independent reference answers, built from numpy and scipy only.

The exact zero-order-hold maps come from ``scipy.linalg.expm`` of the
augmented block matrix, the LPs are solved by HiGHS (``scipy.optimize.
linprog``), and controls are read back from the CSV files the program
wrote, so a check never trusts a number the program computed for itself.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
from scipy.optimize import linprog

from gen import Control, Plant, endpoint, zoh

# Samples with |u| at or below this count as off, as in the CLI's default
# --zero-tol.
ZERO_TOL = 1e-9


def read_control(path: Path) -> Control:
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    breakpoints = np.concatenate([rows[:1, 0], rows[:, 1]])
    return Control(breakpoints, rows[:, 2:])


def support(control: Control) -> float:
    on = np.any(np.abs(control.values) > ZERO_TOL, axis=1)
    return float(np.diff(control.breakpoints)[on].sum())


def l1_cost(control: Control) -> float:
    return float((np.abs(control.values).sum(axis=1) * np.diff(control.breakpoints)).sum())


def endpoint_residual(plant: Plant, control: Control) -> float:
    return float(np.linalg.norm(endpoint(plant, control) - plant.B))


def _grid_maps(plant: Plant, horizon: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Columns M_k with z(horizon) = drift + sum_k M_k u_k on n uniform intervals."""
    a_d, b_d = zoh(plant.F, plant.G, horizon / n)
    maps = np.empty((plant.d, n))
    col = b_d[:, 0]
    for k in range(n - 1, -1, -1):
        maps[:, k] = col
        col = a_d @ col
    drift = np.linalg.matrix_power(a_d, n) @ plant.A
    return maps, drift


def l1_reference(plant: Plant, n: int) -> dict:
    """HiGHS vertex of the L1 relaxation on the exact-ZOH grid.

    Dual simplex returns a basic solution, so the support is that of an
    LP vertex: a feasible control and an upper bound on the L0 optimum.
    """
    maps, drift = _grid_maps(plant, plant.b - plant.a, n)
    dt = (plant.b - plant.a) / n
    res = linprog(
        np.full(2 * n, dt),
        A_eq=np.hstack([maps, -maps]),
        b_eq=plant.B - drift,
        bounds=[(0.0, plant.upper)] * n + [(0.0, -plant.lower)] * n,
        method="highs-ds",
    )
    if res.status != 0:
        raise RuntimeError(f"HiGHS L1 reference failed: {res.message}")
    u = res.x[:n] - res.x[n:]
    return {"cost": float(res.fun), "support": float(dt * np.count_nonzero(np.abs(u) > ZERO_TOL))}


def _feasible(plant: Plant, horizon: float, n: int) -> bool:
    """The program's gauge test: max gamma with gamma*(B - drift) reachable."""
    maps, drift = _grid_maps(plant, horizon, n)
    target = plant.B - drift
    if float(np.abs(target).max()) <= 1e-12:
        return True
    cost = np.zeros(n + 1)
    cost[-1] = -1.0
    res = linprog(
        cost,
        A_eq=np.hstack([maps, -target[:, None]]),
        b_eq=np.zeros(plant.d),
        bounds=[(plant.lower, plant.upper)] * n + [(0.0, None)],
        method="highs-ds",
    )
    if res.status != 0:
        raise RuntimeError(f"HiGHS feasibility reference failed: {res.message}")
    gamma = float(res.x[-1])
    return gamma > 1e-9 and 1.0 / gamma <= 1.0 + 1e-9


def min_time_reference(plant: Plant, tol: float = 1e-3, n: int = 200) -> float:
    """The same bisection as the program's ``min-time``, on HiGHS."""
    full = plant.b - plant.a
    if not _feasible(plant, full, n):
        return float("inf")
    lo, hi = 0.0, full
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if _feasible(plant, mid, n):
            hi = mid
        else:
            lo = mid
    return hi
