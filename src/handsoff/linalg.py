"""Small dense linear algebra kernels.

Everything here operates on desk-scale matrices (state dimensions of a
few to ~20). Every matrix exponential in the library is exp(M t) for one
M at many t, computed by one kernel, :class:`ExpKernel`; exact
zero-order-hold discretization of ``zdot = F z + G u`` is that kernel on
the augmented block matrix of :func:`zoh_block`. A problem's two kernels
are built once and kept on it (``Problem.costate_flow`` and
``Problem.zoh_flow``). A partial-pivoting linear solve signals numerical
singularity instead of returning garbage.
"""

from __future__ import annotations

import numpy as np


class SingularMatrixError(ValueError):
    """Raised when a pivot falls below the singularity threshold."""


#: Partial-pivoting threshold below which a matrix is declared singular.
PIVOT_TOL = 1e-12

#: Taylor terms of :class:`ExpKernel`; at 1-norm <= 0.5 the rest is < 1e-31.
EXP_TERMS = 24

_TAYLOR_CAP = 40


def _squarings(norms: np.ndarray) -> np.ndarray:
    """Halvings that bring each 1-norm down to at most 0.5."""
    return np.ceil(np.log2(np.maximum(norms, 0.5) / 0.5)).astype(int)


def _square_up(e: np.ndarray, squarings: np.ndarray) -> np.ndarray:
    """Square each stacked exponential of the scaled argument back up.

    The samples are sorted once by squaring count, so the ones still
    squaring in round j are a contiguous suffix of the stack; each round
    squares the same 2-D blocks a masked gather would, to the same bits.
    """
    rounds = int(squarings.max()) if squarings.size else 0
    if rounds == 0:
        return e
    order = np.argsort(squarings, kind="stable")
    counts = squarings[order]
    es = e[order]
    for j in range(rounds):
        first = int(np.searchsorted(counts, j, side="right"))
        es[first:] = es[first:] @ es[first:]
    e[order] = es
    return e


class ExpKernel:
    """exp(M t) for one square matrix M at a scalar or a 1-D array of t.

    Built once from the Taylor powers M^k / k! (k < :data:`EXP_TERMS`).
    Each sample t is halved until |t| ||M||_1 <= 0.5, summed as one
    product of t-powers against the stored powers, and squared back up,
    independently of the other samples. Accurate to ~1e-12 relative for
    ||M t|| up to 1e3; t = 0 gives exactly I.
    """

    def __init__(self, m: np.ndarray):
        a = np.asarray(m, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"matrix exponential needs a square matrix, got shape {a.shape}")
        self.norm = float(np.abs(a).sum(axis=0).max())
        powers = [np.eye(a.shape[0])]
        for k in range(1, EXP_TERMS):
            powers.append(powers[-1] @ a / k)
        self.powers = np.stack(powers)

    def __call__(self, t: float | np.ndarray) -> np.ndarray:
        """(n, n) for a scalar t, (len(t), n, n) for a 1-D array."""
        ts = np.asarray(t, dtype=float)
        if ts.ndim > 1:
            raise ValueError(f"t must be a scalar or a 1-D array, got shape {ts.shape}")
        flat = np.atleast_1d(ts)
        squarings = _squarings(self.norm * np.abs(flat))
        tt = flat / 2.0**squarings
        tp = tt[:, None] ** np.arange(self.powers.shape[0])[None, :]
        e = _square_up(np.einsum("pt,tij->pij", tp, self.powers), squarings)
        return e if ts.ndim else e[0]


def mat_exp(m: np.ndarray, t: float | np.ndarray = 1.0) -> np.ndarray:
    """exp(m*t) of a square matrix: (n, n) for a scalar t, (len(t), n, n)
    for a 1-D array. One :class:`ExpKernel` built and called once."""
    return ExpKernel(m)(t)


def mat_exp_stack(ms: np.ndarray) -> np.ndarray:
    """exp() of a stack of distinct square matrices, shape (batch, n, n).

    Machine-terminated Taylor series vectorized over the leading axis,
    with the same per-matrix scaling and squaring as :class:`ExpKernel`.
    """
    a = np.array(ms, dtype=float)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError(f"mat_exp_stack requires shape (batch, n, n), got {a.shape}")
    squarings = _squarings(np.abs(a).sum(axis=1).max(axis=1))
    a = a / (2.0 ** squarings)[:, None, None]

    n = a.shape[1]
    result = np.broadcast_to(np.eye(n), a.shape).copy()
    term = result.copy()
    for k in range(1, _TAYLOR_CAP):
        term = term @ a / k
        result = result + term
        if np.abs(term).max(initial=0.0) <= 1e-18:
            break
    return _square_up(result, squarings)


def zoh_block(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Augmented block matrix ``[[F, G], [0, 0]]`` of ``zdot = F z + G u``.

    Its exponential at t holds ``exp(F t)`` top left and
    ``int_0^t exp(F s) ds @ G`` top right (Van Loan 1978).
    """
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    if g.ndim == 1:
        g = g[:, None]
    d = f.shape[0]
    if f.shape != (d, d):
        raise ValueError(f"F must be square, got shape {f.shape}")
    if g.shape[0] != d:
        raise ValueError(f"G has {g.shape[0]} rows, expected {d}")
    return np.block([[f, g], [np.zeros((g.shape[1], d + g.shape[1]))]])


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """The sorted distinct entries of an array without NaN: ``np.unique``'s
    own sort-and-compare, minus its NaN and masked-array branches, whose
    lazy ``numpy.ma`` import costs a process ~20 ms on first use."""
    x = np.sort(np.ravel(values))
    keep = np.empty(x.shape, dtype=bool)
    keep[:1] = True
    keep[1:] = x[1:] != x[:-1]
    return x[keep]


def _first_argmax(values: list[float]) -> int:
    """``np.argmax`` of a list: the first largest entry, or the first NaN."""
    best = 0
    for i, v in enumerate(values):
        if v != v:
            return i
        if v > values[best]:
            best = i
    return best


def solve_linear(m: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``m @ x = rhs`` by Gaussian elimination with partial pivoting.

    The elimination runs on Python floats, row by row, with the operations
    of an array elimination in the same order: the first row of largest
    |entry| pivots, and each update multiplies, then subtracts. Its rows
    are written back before the back-substitution, so the result is
    bitwise what the array elimination gives, at a fraction of its cost
    on a simplex basis. Raises :class:`SingularMatrixError` when the best
    available pivot has magnitude at or below :data:`PIVOT_TOL`.
    """
    a = np.array(m, dtype=float)
    b = np.array(rhs, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError(f"solve_linear requires a square matrix, got shape {a.shape}")
    one_d = b.ndim == 1
    if one_d:
        b = b[:, None]
    if b.shape[0] != n:
        raise ValueError(f"rhs has {b.shape[0]} rows, expected {n}")

    rows_a, rows_b = a.tolist(), b.tolist()
    for col in range(n):
        pivot_row = col + _first_argmax([abs(row[col]) for row in rows_a[col:]])
        pivot = rows_a[pivot_row][col]
        if abs(pivot) <= PIVOT_TOL:
            raise SingularMatrixError(
                f"pivot {abs(pivot):.3e} at column {col} below threshold {PIVOT_TOL:g}"
            )
        rows_a[col], rows_a[pivot_row] = rows_a[pivot_row], rows_a[col]
        rows_b[col], rows_b[pivot_row] = rows_b[pivot_row], rows_b[col]
        top_a, top_b = rows_a[col][col:], rows_b[col]
        for r in range(col + 1, n):
            row = rows_a[r]
            factor = row[col] / pivot
            row[col:] = [v - factor * p for v, p in zip(row[col:], top_a)]
            rows_b[r] = [v - factor * p for v, p in zip(rows_b[r], top_b)]
    for i in range(n):
        a[i], b[i] = rows_a[i], rows_b[i]

    x = np.zeros_like(b)
    for row in range(n - 1, -1, -1):
        x[row] = (b[row] - a[row, row + 1:] @ x[row + 1:]) / a[row, row]
    return x[:, 0] if one_d else x
