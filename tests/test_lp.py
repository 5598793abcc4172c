"""Bounded-variable simplex against a vertex-enumeration oracle, plus the
L1-relaxation and feasibility-scaling builders on the benchmarks."""

import itertools

import numpy as np
import pytest

from handsoff import lp
from handsoff.lp import (
    LpProblem,
    LpStatus,
    build_l1_lp,
    l1_solve,
    linf_feasibility,
    simplex_solve,
)
from handsoff.model import Ball, Box, PiecewiseConstantControl, Problem, l0_cost
from handsoff.sim import endpoint_residual, propagate_exact


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
        seen = []
        monkeypatch.setattr(lp, "simplex_solve", lambda q: seen.append(q) or simplex_solve(q))
        linf_feasibility(prob, prob.horizon, n)
        gauge = seen[0]
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


def test_solution_bounds_clipped(ex2):
    lp_prob = build_l1_lp(ex2, 100)
    sol = simplex_solve(lp_prob)
    assert sol.status is LpStatus.OPTIMAL
    assert np.all(sol.x >= lp_prob.lower) and np.all(sol.x <= lp_prob.upper)
