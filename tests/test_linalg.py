"""Matrix exponential, ZOH discretization, and linear solve checks.

The exponential is verified against a plain truncated Taylor series with
compensated summation (no scaling or squaring, so the code paths share
nothing); the ZOH input map is verified against adaptive quadrature of
the integrand using scipy's independent expm.
"""

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg

from handsoff import linalg
from handsoff.linalg import (
    PIVOT_TOL,
    ExpKernel,
    SingularMatrixError,
    _square_up,
    mat_exp,
    mat_exp_stack,
    solve_linear,
    sorted_unique,
    zoh_block,
)


def taylor_exp_oracle(m: np.ndarray, t: float, terms: int = 60) -> np.ndarray:
    """exp(m*t) by direct Taylor summation with Kahan compensation."""
    a = np.asarray(m, dtype=float) * t
    n = a.shape[0]
    total = np.zeros((n, n))
    comp = np.zeros((n, n))
    term = np.eye(n)
    for k in range(terms):
        y = term - comp
        s = total + y
        comp = (s - total) - y
        total = s
        term = term @ a / (k + 1)
    return total


def quad_zoh_oracle(f: np.ndarray, g: np.ndarray, dt: float) -> np.ndarray:
    """int_0^dt exp(F s) ds @ G entrywise by adaptive quadrature."""
    d, m = g.shape
    out = np.empty((d, m))
    for i in range(d):
        for j in range(m):
            out[i, j] = scipy.integrate.quad(
                lambda s: float((scipy.linalg.expm(f * s) @ g)[i, j]),
                0.0,
                dt,
                epsabs=1e-13,
                epsrel=1e-13,
            )[0]
    return out


class TestMatExp:
    def test_zero_matrix(self):
        for d in (1, 2, 4):
            assert np.array_equal(mat_exp(np.zeros((d, d)), 3.7), np.eye(d))

    def test_double_integrator_transition(self):
        # F^2 = 0, so the costate transition is I + (b - t) F^T.
        f = np.array([[0.0, 1.0], [0.0, 0.0]])
        for tau in (0.0, 0.7, 2.5, 5.0):
            expected = np.array([[1.0, 0.0], [tau, 1.0]])
            assert np.abs(mat_exp(f.T, tau) - expected).max() < 1e-15

    def test_against_taylor_oracle(self):
        rng = np.random.default_rng(7)
        m = rng.uniform(-1.0, 1.0, (3, 3))
        got = mat_exp(m, 0.7)
        want = taylor_exp_oracle(m, 0.7)
        assert np.abs(got - want).max() < 1e-12

    def test_semigroup_property(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            m = rng.uniform(-1.0, 1.0, (3, 3))
            s, t = rng.uniform(0.1, 2.0, 2)
            lhs = mat_exp(m, s + t)
            rhs = mat_exp(m, s) @ mat_exp(m, t)
            assert np.abs(lhs - rhs).max() < 1e-10

    def test_inverse_property(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            m = rng.uniform(-1.0, 1.0, (2, 2))
            t = rng.uniform(0.1, 3.0)
            prod = mat_exp(m, -t) @ mat_exp(m, t)
            assert np.abs(prod - np.eye(2)).max() < 1e-10

    def test_nilpotent_is_exact(self):
        m = np.array([[0.0, 2.0], [0.0, 0.0]])  # m @ m = 0
        for t in (0.3, 1.0, 10.0, 100.0):
            assert np.abs(mat_exp(m, t) - (np.eye(2) + m * t)).max() < 1e-12 * max(1.0, t)

    def test_large_argument(self):
        m = np.array([[0.0, 1.0], [-1.0, 0.0]])  # rotation generator
        t = 1000.0
        got = mat_exp(m, t)
        want = np.array([[np.cos(t), np.sin(t)], [-np.sin(t), np.cos(t)]])
        assert np.abs(got - want).max() < 1e-10

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            mat_exp(np.zeros((2, 3)))

    def test_stack_matches_single(self):
        rng = np.random.default_rng(17)
        mats = rng.uniform(-1.0, 1.0, (8, 3, 3)) * rng.uniform(0.1, 4.0, (8, 1, 1))
        stacked = mat_exp_stack(mats)
        for i in range(8):
            assert np.abs(stacked[i] - mat_exp(mats[i])).max() < 1e-12
        # Vector t: each sample is bit-identical to the scalar call.
        m = np.array([[0.0, 2.0, -0.3], [-2.0, 0.0, 0.4], [0.3, -0.4, 0.0]])  # exp(m t) orthogonal
        ts = np.array([0.0, 1e-3, -0.7, 2.5, -4.0, 400.0, -400.0])  # ||m t||_1 up to 960
        stacked = mat_exp(m, ts)
        assert stacked.shape == (ts.size, 3, 3)
        assert np.array_equal(stacked[0], np.eye(3))
        for i, t in enumerate(ts):
            assert np.array_equal(stacked[i], mat_exp(m, t))
            want = scipy.linalg.expm(m * t)
            assert np.abs(stacked[i] - want).max() < 1e-12


def zoh_pair(f: np.ndarray, g: np.ndarray, dt) -> tuple[np.ndarray, np.ndarray]:
    """(exp(F dt), int_0^dt exp(F s) ds G): the blocks of one exponential
    of the ZOH block, read off as ``Problem.zoh_flow``'s callers do."""
    e = mat_exp(zoh_block(f, g), dt)
    d = f.shape[0]
    return e[..., :d, :d], e[..., :d, d:]


class TestDiscretizeZoh:
    def test_scalar_integrator(self):
        a_d, b_d = zoh_pair(np.zeros((1, 1)), np.ones((1, 1)), 0.37)
        assert np.isclose(a_d[0, 0], 1.0)
        assert np.isclose(b_d[0, 0], 0.37)

    def test_double_integrator_closed_form(self):
        f = np.array([[0.0, 1.0], [0.0, 0.0]])
        g = np.array([[0.0], [1.0]])
        dt = 0.8
        a_d, b_d = zoh_pair(f, g, dt)
        assert np.abs(a_d - np.array([[1.0, dt], [0.0, 1.0]])).max() < 1e-15
        assert np.abs(b_d - np.array([[dt**2 / 2.0], [dt]])).max() < 1e-15

    def test_against_quadrature_oracle(self):
        rng = np.random.default_rng(23)
        f = rng.uniform(-1.0, 1.0, (2, 2)) - 1.5 * np.eye(2)
        g = rng.uniform(-1.0, 1.0, (2, 1))
        a_d, b_d = zoh_pair(f, g, 0.1)
        assert np.abs(a_d - scipy.linalg.expm(f * 0.1)).max() < 1e-12
        assert np.abs(b_d - quad_zoh_oracle(f, g, 0.1)).max() < 1e-10

    def test_step_composition(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            f = rng.uniform(-1.0, 1.0, (2, 2))
            g = rng.uniform(-1.0, 1.0, (2, 1))
            dt1, dt2 = rng.uniform(0.05, 1.0, 2)
            a1, b1 = zoh_pair(f, g, dt1)
            a2, b2 = zoh_pair(f, g, dt2)
            a12, b12 = zoh_pair(f, g, dt1 + dt2)
            assert np.abs(a12 - a2 @ a1).max() < 1e-10
            assert np.abs(b12 - (a2 @ b1 + b2)).max() < 1e-10

    def test_stack_matches_single(self):
        f = np.array([[0.0, 1.0], [-0.4, -0.3]])
        g = np.array([[0.2], [1.0]])
        dts = np.array([1e-4, 0.3, 2.0, 5.0])
        a_s, b_s = zoh_pair(f, g, dts)
        assert a_s.shape == (4, 2, 2) and b_s.shape == (4, 2, 1)
        for i, dt in enumerate(dts):
            a_d, b_d = zoh_pair(f, g, float(dt))
            assert np.array_equal(a_s[i], a_d)
            assert np.array_equal(b_s[i], b_d)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            zoh_block(np.zeros((2, 2)), np.zeros((3, 1)))
        with pytest.raises(ValueError):
            zoh_block(np.zeros((2, 3)), np.zeros((2, 1)))


class TestSolveLinear:
    def test_identity(self):
        rhs = np.array([4.0, -2.0, 0.5])
        assert np.array_equal(solve_linear(np.eye(3), rhs), rhs)

    def test_diagonal(self):
        x = solve_linear(np.diag([2.0, 4.0]), np.array([2.0, 4.0]))
        assert np.allclose(x, [1.0, 1.0])

    def test_residual_on_random_systems(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            m = rng.uniform(-1.0, 1.0, (4, 4)) + 4.0 * np.eye(4)
            rhs = rng.uniform(-5.0, 5.0, 4)
            x = solve_linear(m, rhs)
            resid = np.abs(m @ x - rhs).max()
            assert resid <= 1e-10 * (1.0 + np.abs(rhs).max())

    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            solve_linear(np.array([[1.0, 2.0], [2.0, 4.0]]), np.array([1.0, 2.0]))

    def test_pivoting_handles_zero_diagonal(self):
        m = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert np.allclose(solve_linear(m, np.array([2.0, 3.0])), [3.0, 2.0])


# The array elimination that solve_linear replaced, kept verbatim as the
# reference its scalar elimination must match bit for bit.
def _array_solve_linear(m: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``m @ x = rhs`` by Gaussian elimination with partial pivoting.

    Raises :class:`SingularMatrixError` when the best available pivot has
    magnitude at or below :data:`PIVOT_TOL`.
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

    for col in range(n):
        pivot_row = col + int(np.argmax(np.abs(a[col:, col])))
        pivot = a[pivot_row, col]
        if abs(pivot) <= PIVOT_TOL:
            raise SingularMatrixError(
                f"pivot {abs(pivot):.3e} at column {col} below threshold {PIVOT_TOL:g}"
            )
        if pivot_row != col:
            a[[col, pivot_row]] = a[[pivot_row, col]]
            b[[col, pivot_row]] = b[[pivot_row, col]]
        factors = a[col + 1:, col] / pivot
        a[col + 1:, col:] -= factors[:, None] * a[col, col:]
        b[col + 1:] -= factors[:, None] * b[col]

    x = np.zeros_like(b)
    for row in range(n - 1, -1, -1):
        x[row] = (b[row] - a[row, row + 1:] @ x[row + 1:]) / a[row, row]
    return x[:, 0] if one_d else x


def _basis_like(rng: np.random.Generator, n: int) -> np.ndarray:
    """A simplex-basis-shaped matrix: dense columns beside +-unit columns of
    the artificials, in a random column order."""
    m = rng.uniform(-2.0, 2.0, (n, n))
    for j in rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False):
        m[:, j] = 0.0
        m[rng.integers(n), j] = rng.choice([-1.0, 1.0])
    return m


class TestSolveLinearReference:
    def test_bitwise_equal_to_array_elimination(self):
        rng = np.random.default_rng(1609)
        for n in range(1, 9):
            for trial in range(60):
                m = _basis_like(rng, n) if trial % 2 else rng.normal(size=(n, n)) * 10.0 ** rng.integers(-3, 4)
                for rhs in (rng.normal(size=n), np.eye(n), rng.normal(size=(n, 3))):
                    try:
                        want = _array_solve_linear(m, rhs)
                    except SingularMatrixError as err:
                        with pytest.raises(SingularMatrixError) as got:
                            solve_linear(m, rhs)
                        assert str(got.value) == str(err)
                        continue
                    got = solve_linear(m, rhs)
                    assert got.shape == want.shape
                    assert np.array_equal(got, want)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_singular_at_the_same_column(self, n):
        rng = np.random.default_rng(n)
        for col in range(n):
            m = rng.uniform(-1.0, 1.0, (n, n))
            m[:, col] = m[:, :col] @ rng.uniform(-1.0, 1.0, col)  # dependent on the columns before
            for rhs in (np.ones(n), np.eye(n)):
                with pytest.raises(SingularMatrixError) as want:
                    _array_solve_linear(m, rhs)
                with pytest.raises(SingularMatrixError) as got:
                    solve_linear(m, rhs)
                assert str(got.value) == str(want.value)
                assert f"at column {col} " in str(got.value)

    def test_ties_and_non_finite_entries_pivot_alike(self):
        cases = [
            np.array([[1.0, 2.0], [-1.0, 3.0]]),  # |pivot| tie: the first row
            np.array([[0.0, 1.0], [0.0, 2.0]]),  # zero column
            np.array([[1e-13, 2.0], [np.nan, 3.0]]),  # NaN pivots, as np.argmax picks it
            np.array([[np.inf, 2.0], [np.nan, 3.0]]),
            np.array([[1e-13, 2.0], [np.inf, 3.0]]),
        ]
        for m in cases:
            for rhs in (np.array([1.0, -2.0]), np.eye(2)):
                try:
                    with np.errstate(all="ignore"):
                        want = _array_solve_linear(m, rhs)
                except SingularMatrixError as err:
                    with pytest.raises(SingularMatrixError) as got:
                        solve_linear(m, rhs)
                    assert str(got.value) == str(err)
                    continue
                with np.errstate(all="ignore"):
                    got = solve_linear(m, rhs)
                assert np.array_equal(got, want, equal_nan=True)

    def test_empty_system(self):
        assert solve_linear(np.zeros((0, 0)), np.zeros(0)).shape == (0,)


# The masked squaring loop that _square_up replaced, kept verbatim as the
# reference its suffix squaring must match bit for bit.
def _masked_square_up(e: np.ndarray, squarings: np.ndarray) -> np.ndarray:
    """Square each stacked exponential of the scaled argument back up."""
    for j in range(int(squarings.max()) if squarings.size else 0):
        moving = squarings > j
        part = e[moving]
        e[moving] = part @ part
    return e


class TestSquareUpReference:
    def test_bitwise_equal_on_random_stacks(self):
        rng = np.random.default_rng(2003)
        for n in range(1, 7):
            for size in (0, 1, 2, 7, 40):
                e = rng.normal(size=(size, n, n)) * 0.4
                for squarings in (
                    rng.integers(0, 9, size),  # unsorted
                    np.sort(rng.integers(0, 9, size)),
                    np.zeros(size, dtype=int),
                    np.full(size, 5),
                ):
                    want = _masked_square_up(e.copy(), squarings.copy())
                    got = _square_up(e.copy(), squarings.copy())
                    assert got.shape == want.shape
                    assert np.array_equal(got, want)

    def test_kernels_bitwise_equal(self, monkeypatch):
        rng = np.random.default_rng(2004)
        cases = []
        for n in range(1, 7):
            m = rng.normal(size=(n, n)) * rng.uniform(0.1, 3.0)
            ts = rng.uniform(-20.0, 20.0, 30)
            cases += [(m, ts), (m, np.sort(ts)), (m, np.zeros(5)), (m, ts[:0]), (m, float(ts[0])), (m, 0.0)]
        stacks = [rng.normal(size=(k, n, n)) * rng.uniform(0.01, 30.0) for n in range(1, 7) for k in (0, 1, 9)]

        def evaluate():
            return [ExpKernel(m)(t) for m, t in cases] + [mat_exp_stack(ms) for ms in stacks]

        got = evaluate()
        monkeypatch.setattr(linalg, "_square_up", _masked_square_up)
        want = evaluate()
        for g, w in zip(got, want):
            assert g.shape == w.shape
            assert np.array_equal(g, w)


class TestSortedUnique:
    def test_equals_numpy_unique(self):
        rng = np.random.default_rng(2005)
        for size in (0, 1, 5, 60):
            x = rng.integers(-4, 5, size).astype(float)
            for values in (x, np.concatenate([x, [0.0, -0.0, 0.0]]), x.astype(int), rng.normal(size=size)):
                got, want = sorted_unique(values), np.unique(values)
                assert got.dtype == want.dtype
                assert np.array_equal(got, want)
                assert np.array_equal(np.signbit(got), np.signbit(want))
