"""Bounded-variable simplex against a vertex-enumeration oracle, plus the
L1-relaxation and feasibility-scaling builders on the benchmarks."""

import itertools

import numpy as np
import pytest

from conftest import d3_plant
from handsoff import lp
from handsoff.lp import (
    _DEGENERATE_STEP,
    _DTOL,
    _PTOL,
    LpProblem,
    LpStatus,
    build_l1_lp,
    l1_solve,
    linf_feasibility,
    simplex_solve,
    solve_linear,
)
from handsoff.model import Ball, Box, PiecewiseConstantControl, Problem, l0_cost
from handsoff.problems import example_1, example_2
from handsoff.sim import endpoint_residual, propagate_exact
from handsoff.synth import min_time


def vertex_enumeration_oracle(p: LpProblem) -> float:
    """Optimal objective by brute force over all basic solutions.

    Every vertex of {a_eq x = b_eq, lo <= x <= hi} picks `rows` basic
    columns and pins the rest at a bound. Only viable for tiny instances.
    """
    n, rows = p.n, p.rows
    best = np.inf
    nonbasic_count = n - rows
    for basis in itertools.combinations(range(n), rows):
        b_mat = p.a_eq[:, basis]
        if abs(np.linalg.det(b_mat)) < 1e-10:
            continue
        others = [j for j in range(n) if j not in basis]
        for pattern in itertools.product((0, 1), repeat=nonbasic_count):
            x = np.empty(n)
            for j, side in zip(others, pattern):
                x[j] = p.lower[j] if side == 0 else p.upper[j]
            rhs = p.b_eq - p.a_eq[:, others] @ x[others]
            xb = np.linalg.solve(b_mat, rhs)
            x[list(basis)] = xb
            if np.all(x >= p.lower - 1e-9) and np.all(x <= p.upper + 1e-9):
                best = min(best, float(p.c @ x))
    return best


def random_bounded_lp(rng: np.random.Generator, n: int, rows: int) -> LpProblem:
    a = rng.uniform(-2.0, 2.0, (rows, n))
    x_feas = rng.uniform(0.0, 1.0, n)  # guarantees feasibility
    return LpProblem(
        c=rng.uniform(-1.0, 1.0, n),
        a_eq=a,
        b_eq=a @ x_feas,
        lower=np.zeros(n),
        upper=np.ones(n),
    )


def random_mixed_bound_lp(rng: np.random.Generator, n: int, rows: int) -> LpProblem:
    """Feasible bounded-variable LP with shifted boxes and some infinite
    upper bounds; those columns cost more than zero, so the optimum is
    finite."""
    lower = rng.uniform(-1.0, 0.0, n)
    upper = lower + rng.uniform(0.5, 2.0, n)
    open_top = rng.random(n) < 0.25
    upper[open_top] = np.inf
    c = rng.uniform(-1.0, 1.0, n)
    c[open_top] = rng.uniform(0.1, 1.0, int(open_top.sum()))
    a = rng.uniform(-2.0, 2.0, (rows, n))
    x_feas = lower + rng.uniform(0.0, 0.5, n)
    return LpProblem(c=c, a_eq=a, b_eq=a @ x_feas, lower=lower, upper=upper)


def feasibility_lp(prob: Problem, horizon: float, n_intervals: int, monkeypatch) -> LpProblem:
    """The gauge LP that linf_feasibility solves."""
    seen = []
    with monkeypatch.context() as m:
        m.setattr(lp, "simplex_solve", lambda q, **kw: seen.append(q) or simplex_solve(q, **kw))
        linf_feasibility(prob, horizon, n_intervals)
    return seen[0]


def random_reference_lp(rng: np.random.Generator) -> LpProblem:
    """Random LP with shifted, pinned, open-topped and free variables and a
    right-hand side that is sometimes out of reach, so that optimal,
    infeasible and unbounded outcomes all occur."""
    n = int(rng.integers(2, 41))
    rows = int(rng.integers(1, min(n, 8) + 1))
    lower = rng.uniform(-1.0, 0.0, n)
    upper = lower + rng.uniform(0.0, 2.0, n)
    pinned = rng.random(n) < 0.05
    upper[pinned] = lower[pinned]
    x_feas = lower + rng.uniform(0.0, 1.0, n) * (upper - lower)
    upper[rng.random(n) < 0.2] = np.inf
    lower[rng.random(n) < 0.1] = -np.inf
    a = rng.uniform(-2.0, 2.0, (rows, n))
    b = a @ x_feas if rng.random() < 0.7 else rng.uniform(-3.0, 3.0, rows)
    return LpProblem(rng.uniform(-1.0, 1.0, n), a, b, lower, upper)


def assert_same_solution(got, want):
    assert got.status is want.status
    assert got.iterations == want.iterations
    assert np.array_equal(got.objective, want.objective, equal_nan=True)
    assert np.array_equal(got.x, want.x)
    assert (got.duals is None) == (want.duals is None)
    assert got.duals is None or np.array_equal(got.duals, want.duals)


@pytest.fixture(params=["dantzig", "bland"])
def pricing(request, monkeypatch):
    """Run a test under the default pricing and under Bland pricing from
    the first pivot (the anti-cycling fallback, otherwise rarely reached)."""
    if request.param == "bland":
        monkeypatch.setattr(lp, "_BLAND_AFTER", 0)
    return request.param


class TestSimplexCore:
    def test_pinned_single_variable(self):
        p = LpProblem(c=[1.0], a_eq=[[1.0]], b_eq=[1.0], lower=[0.0], upper=[2.0])
        s = simplex_solve(p)
        assert s.status is LpStatus.OPTIMAL
        assert s.x[0] == pytest.approx(1.0)
        assert s.objective == pytest.approx(1.0)

    def test_degenerate_optimal_face(self):
        p = LpProblem(
            c=[-1.0, -1.0], a_eq=[[1.0, 1.0]], b_eq=[1.0], lower=[0.0, 0.0], upper=[1.0, 1.0]
        )
        s = simplex_solve(p)
        assert s.status is LpStatus.OPTIMAL
        assert s.objective == pytest.approx(-1.0)

    def test_infeasible(self):
        p = LpProblem(c=[0.0], a_eq=[[1.0]], b_eq=[5.0], lower=[0.0], upper=[1.0])
        assert simplex_solve(p).status is LpStatus.INFEASIBLE

    def test_unbounded(self):
        p = LpProblem(
            c=[-1.0, 0.0],
            a_eq=[[0.0, 1.0]],
            b_eq=[0.0],
            lower=[0.0, 0.0],
            upper=[np.inf, np.inf],
        )
        assert simplex_solve(p).status is LpStatus.UNBOUNDED

    def test_negative_rhs_phase_one(self):
        p = LpProblem(
            c=[1.0, 1.0], a_eq=[[1.0, -1.0]], b_eq=[-0.5], lower=[0.0, 0.0], upper=[2.0, 2.0]
        )
        s = simplex_solve(p)
        assert s.status is LpStatus.OPTIMAL
        assert s.objective == pytest.approx(0.5)

    def test_beale_cycling_example(self, pricing):
        # Beale's degenerate LP, on which Dantzig pricing with a naive
        # leaving rule cycles. Optimum: x = (3/4, 0, 0, 1, 0, 1, 0).
        p = LpProblem(
            c=[0.0, 0.0, 0.0, -0.75, 20.0, -0.5, 6.0],
            a_eq=[
                [1.0, 0.0, 0.0, 0.25, -8.0, -1.0, 9.0],
                [0.0, 1.0, 0.0, 0.5, -12.0, -0.5, 3.0],
                [0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0],
            ],
            b_eq=[0.0, 0.0, 1.0],
            lower=np.zeros(7),
            upper=np.full(7, np.inf),
        )
        s = simplex_solve(p)
        assert s.status is LpStatus.OPTIMAL
        assert s.objective == pytest.approx(-1.25, abs=1e-12)

    def test_matches_highs(self, pricing):
        optimize = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(547)
        for _ in range(50):
            p = random_mixed_bound_lp(rng, n=40, rows=6)
            want = optimize.linprog(
                p.c,
                A_eq=p.a_eq,
                b_eq=p.b_eq,
                bounds=list(zip(p.lower, np.where(np.isinf(p.upper), None, p.upper))),
                method="highs",
            )
            assert want.status == 0
            got = simplex_solve(p)
            assert got.status is LpStatus.OPTIMAL
            assert got.objective == pytest.approx(want.fun, abs=1e-8)

    def test_matches_vertex_enumeration(self):
        rng = np.random.default_rng(503)
        solved = 0
        for _ in range(30):
            p = random_bounded_lp(rng, n=8, rows=5)
            want = vertex_enumeration_oracle(p)
            got = simplex_solve(p)
            assert got.status is LpStatus.OPTIMAL
            assert got.objective == pytest.approx(want, abs=1e-8)
            solved += 1
        assert solved == 30

    def test_larger_random_instances_consistent(self):
        # 10x20 instances: optimality certified by the reduced-cost signs
        # being clean is implicit; spot-check the equality residual and
        # that the objective is no worse than a known feasible point.
        rng = np.random.default_rng(509)
        for _ in range(10):
            n, rows = 20, 10
            a = rng.uniform(-2.0, 2.0, (rows, n))
            x_feas = rng.uniform(0.0, 1.0, n)
            p = LpProblem(
                c=rng.uniform(-1.0, 1.0, n),
                a_eq=a,
                b_eq=a @ x_feas,
                lower=np.zeros(n),
                upper=np.ones(n),
            )
            s = simplex_solve(p)
            assert s.status is LpStatus.OPTIMAL
            resid = np.abs(p.a_eq @ s.x - p.b_eq).max()
            assert resid <= 1e-8 * (1.0 + np.abs(p.b_eq).max())
            assert np.all(s.x >= -1e-10) and np.all(s.x <= 1.0 + 1e-10)
            assert s.objective <= float(p.c @ x_feas) + 1e-9

    def test_iteration_limit_status(self):
        rng = np.random.default_rng(521)
        p = random_bounded_lp(rng, n=10, rows=4)
        s = simplex_solve(p, max_iterations=1)
        assert s.status is LpStatus.ITERATION_LIMIT


class TestBuildL1:
    def test_benchmark_shape(self, ex2):
        p = build_l1_lp(ex2, 500)
        assert p.n == 2 * 500
        assert p.rows == 2

    def test_single_interval_reachability(self):
        prob = Problem(
            F=np.zeros((1, 1)),
            G=np.ones((1, 1)),
            a=0.0,
            b=1.0,
            A=np.zeros(1),
            B=np.array([0.5]),
            U=Box(np.array([-1.0]), np.array([1.0])),
        )
        control, cost = l1_solve(prob, 1)
        assert cost == pytest.approx(0.5, abs=1e-10)
        # B outside one-step reach: infeasible LP.
        prob2 = Problem(
            F=prob.F, G=prob.G, a=0.0, b=1.0, A=np.zeros(1), B=np.array([1.5]), U=prob.U
        )
        from handsoff.lp import LpError

        with pytest.raises(LpError):
            l1_solve(prob2, 1)

    def test_stationary_task_costs_nothing(self):
        prob = Problem(
            F=np.zeros((2, 2)),
            G=np.eye(2),
            a=0.0,
            b=3.0,
            A=np.zeros(2),
            B=np.zeros(2),
            U=Box(-np.ones(2), np.ones(2)),
        )
        control, cost = l1_solve(prob, 20)
        assert cost == pytest.approx(0.0, abs=1e-12)
        assert np.abs(control.values).max() <= 1e-10

    def test_columns_follow_interval_channel_layout(self, monkeypatch):
        # Column 2(k m + i) is channel i of interval k's endpoint map, and
        # the next one its negative part; the feasibility LP has one column
        # per (k, i) in the same order, then the gauge variable.
        rng = np.random.default_rng(5)
        box = Box(np.array([-1.0, -0.5]), np.array([1.0, 2.0]))
        prob = Problem(F=rng.uniform(-1, 1, (3, 3)), G=rng.uniform(-1, 1, (3, 2)), a=0.0, b=4.0,
                       A=rng.uniform(-1, 1, 3), B=0.2 * rng.uniform(-1, 1, 3), U=box)
        n = 7
        maps, _ = lp._transition_maps(prob, prob.horizon, n)
        p = build_l1_lp(prob, n)
        gauge = feasibility_lp(prob, prob.horizon, n, monkeypatch)
        for k in range(n):
            for i in range(2):
                col = k * 2 + i
                assert np.array_equal(p.a_eq[:, 2 * col], maps[k][:, i])
                assert np.array_equal(p.a_eq[:, 2 * col + 1], -maps[k][:, i])
                assert (p.upper[2 * col], p.upper[2 * col + 1]) == (box.upper[i], -box.lower[i])
                assert np.array_equal(gauge.a_eq[:, col], maps[k][:, i])
                assert (gauge.lower[col], gauge.upper[col]) == (box.lower[i], box.upper[i])
        assert not p.lower.any()
        assert (gauge.lower[-1], gauge.upper[-1], gauge.c[-1]) == (0.0, np.inf, -1.0)

    def test_ball_rejected(self, ex2):
        ball_prob = Problem(
            F=ex2.F, G=ex2.G, a=ex2.a, b=ex2.b, A=ex2.A, B=ex2.B, U=Ball(1.0)
        )
        with pytest.raises(ValueError):
            build_l1_lp(ball_prob, 10)


class TestL1Solve:
    def test_singular_benchmark_cost(self, ex2):
        control, cost = l1_solve(ex2, 1000)
        assert cost == pytest.approx(3.0, abs=1e-3)
        assert cost >= 3.0 - 1e-9  # integral of u alone already forces 3

    def test_scalar_benchmark_cost(self, ex1):
        control, cost = l1_solve(ex1, 1000)
        assert cost == pytest.approx(3.0, abs=1e-3)

    def test_reassembled_control_feasible(self, ex2):
        control, _ = l1_solve(ex2, 1000)
        assert isinstance(ex2.U, Box)
        assert np.all(control.values >= ex2.U.lower - 1e-10)
        assert np.all(control.values <= ex2.U.upper + 1e-10)
        traj = propagate_exact(ex2, control)
        assert endpoint_residual(traj, ex2.B) <= 1e-5

    def test_split_complementarity(self, ex1, ex2):
        for prob in (ex1, ex2):
            lp_prob = build_l1_lp(prob, 200)
            sol = simplex_solve(lp_prob)
            assert sol.status is LpStatus.OPTIMAL
            parts = sol.x.reshape(-1, 2)
            assert np.abs(parts[:, 0] * parts[:, 1]).max() <= 1e-9

    def test_two_channel_plant(self):
        # Independent channels: each must deliver its own mass, so the
        # minimal integral of |u| is the sum of the distances.
        prob = Problem(
            F=np.zeros((2, 2)),
            G=np.eye(2),
            a=0.0,
            b=3.0,
            A=np.array([1.0, -1.0]),
            B=np.zeros(2),
            U=Box(-np.ones(2), np.ones(2)),
        )
        control, cost = l1_solve(prob, 300)
        assert cost == pytest.approx(2.0, abs=1e-6)
        assert control.values.shape == (300, 2)
        traj = propagate_exact(prob, control)
        assert endpoint_residual(traj, prob.B) <= 1e-8

    @pytest.mark.parametrize("n_intervals, max_pivots", [(1000, 1500), (2000, 3000)])
    def test_singular_benchmark_pivot_count(self, ex2, n_intervals, max_pivots):
        # Pivot counts are deterministic; Bland pricing alone needs
        # 14,539 and 55,319 here, growing with the square of the grid.
        sol = simplex_solve(build_l1_lp(ex2, n_intervals))
        assert sol.status is LpStatus.OPTIMAL
        assert sol.iterations <= max_pivots

    def test_bland_fallback_engages(self, ex2, monkeypatch):
        # Falling back from the first pivot prices by smallest index
        # throughout: same optimum, several times the pivots.
        dantzig = simplex_solve(build_l1_lp(ex2, 200))
        monkeypatch.setattr(lp, "_BLAND_AFTER", 0)
        bland = simplex_solve(build_l1_lp(ex2, 200))
        assert bland.status is LpStatus.OPTIMAL
        assert bland.objective == pytest.approx(dantzig.objective, abs=1e-12)
        assert bland.iterations > 2 * dantzig.iterations

    def test_grid_refinement_stabilizes(self, ex2):
        costs = {n: l1_solve(ex2, n)[1] for n in (250, 500, 1000, 2000)}
        gaps = [
            abs(costs[250] - costs[500]),
            abs(costs[500] - costs[1000]),
            abs(costs[1000] - costs[2000]),
        ]
        assert gaps[0] + 1e-12 >= gaps[1] >= gaps[2] - 1e-12


class TestFeasibilityScaling:
    def test_scalar_full_horizon(self, ex1):
        s = linf_feasibility(ex1, 5.0, 1000)
        assert s == pytest.approx(3.0 / 5.0, abs=1e-3)

    def test_scalar_minimum_time_boundary(self, ex1):
        s = linf_feasibility(ex1, 3.0, 1000)
        assert s == pytest.approx(1.0, abs=1e-3)

    def test_stationary_target(self):
        prob = Problem(
            F=np.zeros((1, 1)),
            G=np.ones((1, 1)),
            a=0.0,
            b=2.0,
            A=np.array([1.0]),
            B=np.array([1.0]),
            U=Box(np.array([-1.0]), np.array([1.0])),
        )
        assert linf_feasibility(prob, 2.0, 100) == 0.0

    def test_unreachable_direction_is_inf(self):
        # Second state has no actuation and no coupling: unreachable.
        prob = Problem(
            F=np.zeros((2, 2)),
            G=np.array([[1.0], [0.0]]),
            a=0.0,
            b=1.0,
            A=np.zeros(2),
            B=np.array([0.0, 1.0]),
            U=Box(np.array([-1.0]), np.array([1.0])),
        )
        assert linf_feasibility(prob, 1.0, 50) == np.inf


def dual_objective(p: LpProblem, y: np.ndarray) -> float:
    """The bounded-variable LP's dual function at y: b @ y plus, per
    variable, the least value of its reduced cost times x over its bounds
    (a reduced cost within _DTOL counts as zero)."""
    reduced = p.c - p.a_eq.T @ y
    at = np.where(reduced > 0, p.lower, p.upper)
    live = np.abs(reduced) > _DTOL
    return float(p.b_eq @ y + reduced[live] @ at[live])


class TestDuals:
    def test_dual_feasible_and_strong_duality(self):
        # Over the reference suite: the duals price every variable toward a
        # finite bound it sits at, and the dual function meets the primal
        # objective. Where the optimum is nondegenerate (exactly `rows`
        # variables strictly between their bounds, on a regular basis) the
        # duals are unique, so HiGHS must report the same ones.
        optimize = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(1103)
        optimal = nondegenerate = 0
        for _ in range(200):
            p = random_reference_lp(rng)
            sol = simplex_solve(p)
            if sol.status is not LpStatus.OPTIMAL:
                assert sol.duals is None
                continue
            optimal += 1
            assert sol.duals.shape == (p.rows,)
            reduced = p.c - p.a_eq.T @ sol.duals
            up, down = reduced > _DTOL, reduced < -_DTOL
            assert np.array_equal(sol.x[up], p.lower[up])
            assert np.array_equal(sol.x[down], p.upper[down])
            assert dual_objective(p, sol.duals) == pytest.approx(sol.objective, rel=1e-9, abs=1e-9)

            interior = (sol.x > p.lower + 1e-7) & (sol.x < p.upper - 1e-7)
            if interior.sum() != p.rows or np.linalg.cond(p.a_eq[:, interior]) > 1e8:
                continue
            nondegenerate += 1
            bounds = [(lo if np.isfinite(lo) else None, hi if np.isfinite(hi) else None)
                      for lo, hi in zip(p.lower, p.upper)]
            want = optimize.linprog(p.c, A_eq=p.a_eq, b_eq=p.b_eq, bounds=bounds, method="highs")
            assert want.status == 0
            assert np.allclose(sol.duals, want.eqlin.marginals, rtol=1e-9, atol=1e-9)
        assert optimal >= 100 and nondegenerate >= 100

    def test_benchmark_duals(self, ex1, ex2):
        # The L1 optima of the benchmarks meet their dual values.
        for prob in (ex1, ex2, d3_plant()):
            p = build_l1_lp(prob, 200)
            sol = simplex_solve(p)
            assert dual_objective(p, sol.duals) == pytest.approx(sol.objective, rel=1e-9)

    def test_warm_start_from_coarse_duals(self):
        # ROADMAP item 1's pin: the 200-interval duals start the 600-interval
        # L1 LP of the d=3 plant a few pivots from its optimum.
        d3 = d3_plant()
        coarse = simplex_solve(build_l1_lp(d3, 200))
        cold = simplex_solve(build_l1_lp(d3, 600))
        warm = simplex_solve(build_l1_lp(d3, 600), start_duals=coarse.duals)
        assert cold.iterations == 387
        assert warm.status is LpStatus.OPTIMAL
        assert warm.iterations <= 50
        assert warm.objective == pytest.approx(cold.objective, rel=1e-9)

    def test_any_start_reaches_the_same_outcome(self):
        # The start moves only the pivot path: from arbitrary duals every LP
        # of the reference suite ends with the cold run's status and optimum.
        rng = np.random.default_rng(1103)
        starts = np.random.default_rng(1109)
        for _ in range(200):
            p = random_reference_lp(rng)
            cold = simplex_solve(p)
            warm = simplex_solve(p, start_duals=starts.normal(0.0, 1.0, p.rows))
            assert warm.status is cold.status
            if cold.status is LpStatus.OPTIMAL:
                assert warm.objective == pytest.approx(cold.objective, rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("duals", [np.zeros(3), np.zeros((2, 1)), [0.0, np.nan], [np.inf, 0.0]])
    def test_start_duals_checked(self, duals):
        p = random_bounded_lp(np.random.default_rng(5), 6, 2)
        with pytest.raises(ValueError, match=r"shape \(2,\) and finite entries"):
            simplex_solve(p, start_duals=duals)


def test_solution_bounds_clipped(ex2):
    lp_prob = build_l1_lp(ex2, 100)
    sol = simplex_solve(lp_prob)
    assert sol.status is LpStatus.OPTIMAL
    assert np.all(sol.x >= lp_prob.lower) and np.all(sol.x <= lp_prob.upper)


# The simplex core as it was when every pivot refactored the basis and
# regathered the nonbasic columns, bound flips included. Kept verbatim as
# the reference that the basis-keeping core must match bit for bit. It
# reads Bland's threshold from this module; the tests below mirror lp's.
# Its first line reads each variable's bound status from x and the bounds,
# which simplex_solve no longer passes in.
_BLAND_AFTER = lp._BLAND_AFTER
_AT_LOWER, _AT_UPPER, _FREE = 0, 1, 2


def _per_pivot_simplex_core(a_full, b_eq, cost, lo, hi, basis, x, budget) -> tuple[int, LpStatus]:
    """Run simplex pivots in place; returns (iterations, status)."""
    stat = np.where(np.isfinite(lo) | np.isfinite(hi), np.where(x == hi, _AT_UPPER, _AT_LOWER), _FREE)
    total = a_full.shape[1]
    identity = np.eye(a_full.shape[0])
    iterations = 0
    degenerate_run = 0
    while True:
        if iterations >= budget:
            return iterations, LpStatus.ITERATION_LIMIT, None
        iterations += 1

        basic_mask = np.zeros(total, dtype=bool)
        basic_mask[basis] = True
        # One factorization per pivot serves x_B, the duals and the
        # entering column.
        b_inv = solve_linear(a_full[:, basis], identity)
        rhs = b_eq - a_full[:, ~basic_mask] @ x[~basic_mask]
        x[basis] = b_inv @ rhs

        y = b_inv.T @ cost[np.asarray(basis)]
        reduced = cost - a_full.T @ y

        nonbasic = ~basic_mask
        movable = hi - lo > 0.0  # pinned variables never re-enter
        eligible = nonbasic & (
            ((stat == _FREE) & (np.abs(reduced) > _DTOL))
            | (movable & (stat == _AT_LOWER) & (reduced < -_DTOL))
            | (movable & (stat == _AT_UPPER) & (reduced > _DTOL))
        )
        candidates_idx = np.flatnonzero(eligible)
        if candidates_idx.size == 0:
            return iterations, LpStatus.OPTIMAL, y
        if degenerate_run >= _BLAND_AFTER:
            entering = int(candidates_idx[0])  # Bland: smallest index
        else:
            # Dantzig: largest |reduced cost|, ties to the smallest index.
            entering = int(candidates_idx[np.argmax(np.abs(reduced[candidates_idx]))])

        if stat[entering] == _FREE:
            sigma = 1.0 if reduced[entering] < 0 else -1.0
        else:
            sigma = 1.0 if stat[entering] == _AT_LOWER else -1.0

        w = b_inv @ a_full[:, entering]
        delta = -sigma * w  # per-unit motion of the basic values

        # Candidate steps: every blocked basic variable, plus the entering
        # variable flipping to its own opposite bound.
        best_t = np.inf
        best_index = -1  # variable index, for Bland tie-breaking
        best_pos = -1
        for pos, var in enumerate(basis):
            if delta[pos] > _PTOL:
                limit = hi[var]
                t = (limit - x[var]) / delta[pos] if np.isfinite(limit) else np.inf
            elif delta[pos] < -_PTOL:
                limit = lo[var]
                t = (x[var] - limit) / (-delta[pos]) if np.isfinite(limit) else np.inf
            else:
                continue
            t = max(t, 0.0)
            if t < best_t - 1e-12 or (t <= best_t + 1e-12 and (best_index < 0 or var < best_index)):
                best_t, best_index, best_pos = t, var, pos

        flip_t = hi[entering] - lo[entering] if stat[entering] != _FREE else np.inf
        if np.isfinite(flip_t) and (
            flip_t < best_t - 1e-12
            or (flip_t <= best_t + 1e-12 and (best_index < 0 or entering < best_index))
        ):
            best_t, best_index, best_pos = flip_t, entering, -1

        if not np.isfinite(best_t):
            return iterations, LpStatus.UNBOUNDED, None

        if best_pos < 0:
            # Bound flip: no basis change, and a strict objective decrease.
            degenerate_run = 0
            stat[entering] = _AT_UPPER if stat[entering] == _AT_LOWER else _AT_LOWER
            x[entering] = hi[entering] if stat[entering] == _AT_UPPER else lo[entering]
            continue

        degenerate_run = degenerate_run + 1 if best_t <= _DEGENERATE_STEP else 0
        leaving = basis[best_pos]
        x[entering] = x[entering] + sigma * best_t
        x[leaving] = hi[leaving] if delta[best_pos] > 0 else lo[leaving]
        stat[leaving] = _AT_UPPER if delta[best_pos] > 0 else _AT_LOWER
        basis[best_pos] = entering


class TestBasisKeptAcrossFlips:
    def test_matches_per_pivot_reference(self, pricing, monkeypatch):
        # Under Bland pricing ex2 and the d=3 plant take 14,539 and 16,557
        # pivots at the Dantzig grids, so they run on 200 intervals there.
        monkeypatch.setitem(globals(), "_BLAND_AFTER", lp._BLAND_AFTER)
        ex1, ex2, d3 = example_1(), example_2(), d3_plant()
        short = Problem(F=ex1.F, G=ex1.G, a=ex1.a, b=ex1.a + 2.999, A=ex1.A, B=ex1.B, U=ex1.U)
        dantzig = pricing == "dantzig"
        cases = [
            (build_l1_lp(ex1, 1000), 603),
            (build_l1_lp(ex2, 1000 if dantzig else 200), 1030 if dantzig else None),
            (build_l1_lp(d3, 600 if dantzig else 200), 387 if dantzig else None),
            (feasibility_lp(d3, d3.horizon, 200, monkeypatch), None),
            (build_l1_lp(short, 1000), None),
            (feasibility_lp(short, short.horizon, 200, monkeypatch), None),
        ]
        rng = np.random.default_rng(1103)
        cases += [(random_reference_lp(rng), None) for _ in range(200)]
        outcomes = set()
        for problem, pivots in cases:
            got = simplex_solve(problem)
            with monkeypatch.context() as m:
                m.setattr(lp, "_simplex_core", _per_pivot_simplex_core)
                want = simplex_solve(problem)
            assert_same_solution(got, want)
            assert pivots is None or got.iterations == pivots
            outcomes.add(got.status)
        assert outcomes == {LpStatus.OPTIMAL, LpStatus.INFEASIBLE, LpStatus.UNBOUNDED}

    def test_warm_starts_match_per_pivot_reference(self, monkeypatch):
        # On the L1 LPs a warm start is the one path on which variables begin
        # at their upper bounds: min_time's chained gauge LPs on the d=3
        # plant, then the reference suite started from random duals.
        solved = []  # (warm-started, pivots)

        def both(problem, **kwargs):
            got = simplex_solve(problem, **kwargs)
            with monkeypatch.context() as m:
                m.setattr(lp, "_simplex_core", _per_pivot_simplex_core)
                want = simplex_solve(problem, **kwargs)
            assert_same_solution(got, want)
            solved.append((kwargs.get("start_duals") is not None, got.iterations))
            return got

        with monkeypatch.context() as m:
            m.setattr(lp, "simplex_solve", both)
            assert min_time(d3_plant()) == 2.40087890625
        assert sum(warm for warm, _ in solved) == 13 and sum(n for _, n in solved) == 280
        rng, starts = np.random.default_rng(1103), np.random.default_rng(1109)
        for _ in range(200):
            p = random_reference_lp(rng)
            both(p, start_duals=starts.normal(0.0, 1.0, p.rows))

    def test_iteration_limit_matches_reference(self, monkeypatch):
        problem = build_l1_lp(example_2(), 200)
        for budget in (1, 2, 57, 200):
            got = simplex_solve(problem, max_iterations=budget)
            with monkeypatch.context() as m:
                m.setattr(lp, "_simplex_core", _per_pivot_simplex_core)
                want = simplex_solve(problem, max_iterations=budget)
            assert_same_solution(got, want)

    @pytest.mark.parametrize(
        "example, n_intervals, pivots, max_factorizations",
        [("ex1", 1000, 603, 3), ("ex2", 1000, 1030, 431), ("ex2", 2000, 2055, 855)],
    )
    def test_one_factorization_per_basis(self, request, monkeypatch, example, n_intervals, pivots,
                                         max_factorizations):
        # Most pivots on these grids are bound flips, which keep the basis.
        calls = []
        monkeypatch.setattr(lp, "solve_linear", lambda m, rhs: calls.append(m.shape) or solve_linear(m, rhs))
        sol = simplex_solve(build_l1_lp(request.getfixturevalue(example), n_intervals))
        assert sol.status is LpStatus.OPTIMAL
        assert sol.iterations == pivots
        assert 0 < len(calls) <= max_factorizations
