"""Structure enumeration, duration fitting, sparsest-first synthesis, and
multiplier recovery on the benchmark tasks."""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import brentq

from conftest import ball_plant, d3_plant, random_problem
from handsoff import lp
from handsoff.linalg import ExpKernel
from handsoff.lp import linf_feasibility
from handsoff.model import Ball, Box, PiecewiseConstantControl, Problem, l0_cost
from handsoff.sim import endpoint_residual, propagate_exact
from handsoff.synth import (
    SUPPORT_TIE,
    InfeasibleProblemError,
    Structure,
    _assemble_control,
    _fit_run,
    _structure_map,
    enumerate_structures,
    min_time,
    recover_adjoint,
    synth_l0,
)

UNIT_BOX = Box(np.array([-1.0]), np.array([1.0]))


class TestMinTime:
    def test_scalar_benchmark(self, ex1):
        assert min_time(ex1, tol=1e-3) == pytest.approx(3.0, abs=2e-3)

    def test_stationary(self, ex1):
        prob = Problem(F=ex1.F, G=ex1.G, a=0.0, b=5.0, A=ex1.A, B=ex1.A, U=ex1.U)
        assert min_time(prob) == 0.0

    def test_double_integrator_analytic(self, ex2):
        # Bang-bang time-optimal transfer of (10, -3) to the origin:
        # u = -1 until the switching curve z1 = z2^2/2, then u = +1.
        # Switch at t = (sqrt(58) - 6) / 2, arrival T = t + (3 + t).
        t_switch = (np.sqrt(58.0) - 6.0) / 2.0
        analytic = 2.0 * t_switch + 3.0
        got = min_time(ex2, tol=1e-3, n_intervals=500)
        assert got == pytest.approx(analytic, abs=2e-2)
        assert 0.0 < got < 5.0

    def test_deterministic(self, ex2):
        assert min_time(ex2) == min_time(ex2)

    def test_infeasible_signal(self, ex1):
        short = Problem(F=ex1.F, G=ex1.G, a=0.0, b=2.0, A=ex1.A, B=ex1.B, U=ex1.U)
        assert min_time(short) == np.inf

    def test_far_from_origin_is_not_at_rest(self, ex1):
        # A and B agree to 5e-6 relative, yet 5 units of |u| <= 1 apart.
        far = Problem(F=ex1.F, G=ex1.G, a=0.0, b=10.0, A=np.array([1e6]), B=np.array([1e6 + 5.0]), U=ex1.U)
        assert linf_feasibility(far, 1.0, 200) == pytest.approx(5.0)
        assert min_time(far, tol=1e-3) == pytest.approx(5.0, abs=2e-3)

    @pytest.mark.parametrize("tol", [0.0, -1.0, np.nan, np.inf])
    def test_tol_must_be_finite_and_positive(self, ex1, tol):
        with pytest.raises(ValueError, match="tol"):
            min_time(ex1, tol=tol)

    def test_tol_below_float_spacing_terminates(self, ex1):
        # The bisection stops once the midpoint no longer splits the bracket.
        assert min_time(ex1, tol=1e-300) == pytest.approx(3.0, abs=2e-3)

    def test_warm_bisection_matches_cold(self, ex1, ex2):
        short = Problem(F=ex1.F, G=ex1.G, a=0.0, b=2.0, A=ex1.A, B=ex1.B, U=ex1.U)
        for prob in (ex1, ex2, d3_plant(), short):
            assert min_time(prob, 1e-3, 200) == cold_min_time(prob, 1e-3, 200)

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**31), d=st.integers(1, 3), m=st.integers(1, 2), stable=st.booleans(),
           reach=st.floats(0.05, 1.0))
    @example(seed=0, d=1, m=1, stable=True, reach=1.0)  # unreachable on its horizon
    @example(seed=3, d=1, m=2, stable=False, reach=1.0)
    def test_warm_bisection_matches_cold_on_box_plants(self, seed, d, m, stable, reach):
        prob = random_problem(np.random.default_rng(seed), d, m, stable)
        prob = Problem(F=prob.F, G=prob.G, a=prob.a, b=prob.b, A=prob.A,
                       B=prob.A + reach * (prob.B - prob.A), U=prob.U)
        assert min_time(prob, 1e-3, 100) == cold_min_time(prob, 1e-3, 100)

    def test_warm_bisection_pivots(self, monkeypatch):
        # Started cold, the 14 gauge LPs take 1,657 pivots in all on this plant.
        pivots = []
        solve = lp.simplex_solve

        def counting(q, **kw):
            sol = solve(q, **kw)
            pivots.append(sol.iterations)
            return sol

        monkeypatch.setattr(lp, "simplex_solve", counting)
        min_time(d3_plant(), 1e-3, 200)
        assert len(pivots) == 14
        assert sum(pivots) <= 400


def cold_min_time(prob: Problem, tol: float, n_intervals: int) -> float:
    """min_time's bisection with every gauge LP started cold."""
    if np.abs(prob.B - prob.A).max() <= 1e-12 and np.abs(prob.F @ prob.A).max() <= 1e-12:
        return 0.0
    if linf_feasibility(prob, prob.horizon, n_intervals) > 1.0 + 1e-9:
        return np.inf
    lo, hi = 0.0, prob.horizon
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if linf_feasibility(prob, mid, n_intervals) <= 1.0 + 1e-9:
            hi = mid
        else:
            lo = mid
    return hi


@pytest.fixture(scope="module")
def d3_synth():
    return synth_l0(d3_plant(), k_max=4)


def test_one_lp_gate_matches_min_time(ex1, ex2):
    # synth_l0 gates on one feasibility LP at the full horizon instead of
    # the whole bisection; both must give the same verdict on the horizon.
    short = Problem(F=ex1.F, G=ex1.G, a=0.0, b=2.0, A=ex1.A, B=ex1.B, U=ex1.U)
    verdicts = []
    for prob in (ex1, short, ex2, d3_plant()):
        gate_passes = linf_feasibility(prob, prob.horizon, 200) <= 1.0 + 1e-9
        assert gate_passes == (min_time(prob, 1e-3, 200) <= prob.horizon)
        verdicts.append(gate_passes)
    assert verdicts == [True, False, True, True]


class TestEnumerateStructures:
    def test_single_segment_census(self):
        got = enumerate_structures(1, UNIT_BOX, 1)
        assert [st.labels for st in got] == [((0.0,),), ((-1.0,),), ((1.0,),)]

    def test_contains_off_on_off(self):
        got = enumerate_structures(1, UNIT_BOX, 3)
        assert Structure(((0.0,), (1.0,), (0.0,))) in got

    def test_count_up_to_two_segments(self):
        assert len(enumerate_structures(1, UNIT_BOX, 2)) == 9

    def test_sparsest_first_ordering(self):
        got = enumerate_structures(1, UNIT_BOX, 3)
        keys = [(st.n_on, st.segments) for st in got]
        assert keys == sorted(keys)

    def test_overflow_guard(self):
        with pytest.raises(ValueError):
            enumerate_structures(6, Box(-np.ones(6), np.ones(6)), 12)

    def test_no_consecutive_repeats(self):
        for st in enumerate_structures(1, UNIT_BOX, 4):
            for a, b in zip(st.labels, st.labels[1:]):
                assert a != b

    def test_ball_scalar_reduces_to_box_labels(self):
        got = enumerate_structures(1, Ball(2.0), 1)
        assert [st.labels for st in got] == [((0.0,),), ((-2.0,),), ((2.0,),)]

    def test_ball_multichannel_markers(self):
        got = enumerate_structures(2, Ball(1.0), 2)
        assert Structure(("off", "on")) in got
        assert Structure(("on", "off")) in got

    @staticmethod
    def filtered_product(labels, k_max):
        """The reference: every label product, repeats dropped, sorted
        stably by (on-segment count, length)."""
        sequences = [
            Structure(combo)
            for k in range(1, k_max + 1)
            for combo in itertools.product(labels, repeat=k)
            if all(a != b for a, b in zip(combo, combo[1:]))
        ]
        return sorted(sequences, key=lambda st: (st.n_on, st.segments))

    def test_matches_filtered_product(self):
        two_channel = Box(np.array([-1.0, -0.5]), np.array([2.0, 1.0]))
        two_labels = [(0.0, 0.0), (0.0, -0.5), (0.0, 1.0), (-1.0, 0.0), (-1.0, -0.5),
                      (-1.0, 1.0), (2.0, 0.0), (2.0, -0.5), (2.0, 1.0)]
        cases = [(1, UNIT_BOX, [(0.0,), (-1.0,), (1.0,)], 7),
                 (2, two_channel, two_labels, 4),
                 (2, Ball(1.0), ["off", "on"], 6)]
        for m, u_set, labels, k_top in cases:
            for k_max in range(1, k_top + 1):
                assert enumerate_structures(m, u_set, k_max) == self.filtered_product(labels, k_max)


def fit_alone(prob, st, seed=42):
    """One structure fitted on its own: (durations, values, residual,
    iterations) of a one-structure sequence."""
    return next(_fit_run(prob, [st], seed, 1e-10))


def solve_durations(prob, st):
    """Durations and endpoint residual of one structure fit."""
    durations, _values, residual, _iterations = fit_alone(prob, st)
    return durations, residual


class TestSolveDurations:
    def test_singular_benchmark_switch_times(self, ex2):
        st = Structure(((0.0,), (1.0,), (0.0,)))
        durations, residual = solve_durations(ex2, st)
        assert residual <= 1e-8
        assert durations[0] == pytest.approx(11.0 / 6.0, abs=1e-9)
        assert durations[1] == pytest.approx(3.0, abs=1e-9)
        assert durations[2] == pytest.approx(1.0 / 6.0, abs=1e-9)

    def test_scalar_benchmark_placement(self, ex1):
        st = Structure(((-1.0,), (0.0,)))
        durations, residual = solve_durations(ex1, st)
        assert residual <= 1e-9
        assert durations[0] == pytest.approx(3.0, abs=1e-6)
        assert durations[1] == pytest.approx(2.0, abs=1e-6)

    def test_zero_structure_misses(self, ex2):
        st = Structure(((0.0,),))
        durations, residual = solve_durations(ex2, st)
        assert residual == pytest.approx(np.sqrt(34.0), abs=1e-9)

    def test_durations_tile_horizon(self, ex2):
        st = Structure(((0.0,), (1.0,), (0.0,), (-1.0,)))
        durations, _ = solve_durations(ex2, st)
        assert durations.sum() == pytest.approx(5.0, abs=1e-9)
        assert np.all(durations >= -1e-12)


#: The owner index of one point of a one-structure run.
ONE = np.zeros(1, dtype=int)


def jacobian_by_differences(evaluate, x, h=1e-6):
    """Central differences of the endpoint residual in each free variable."""
    cols = []
    for i in range(x.size):
        up, down = x.copy(), x.copy()
        up[i] += h
        down[i] -= h
        cols.append((evaluate(up[None], ONE)[2][0] - evaluate(down[None], ONE)[2][0]) / (2.0 * h))
    return np.stack(cols, axis=1)


class TestEndpointJacobian:
    def test_box_structure_matches_differences(self):
        prob = d3_plant()
        heads, n_free, evaluate = _structure_map(prob, [Structure(((-1.0,), (0.0,), (1.0,), (-1.0,)))])
        assert (heads, n_free) == (3, 3)
        x = np.array([0.9, 2.5, 1.1])  # last segment: 1.5
        jac = evaluate(x[None], ONE)[3][0]
        assert np.allclose(jac, jacobian_by_differences(evaluate, x), rtol=1e-7, atol=1e-8)

    def test_two_channel_ball_structure_matches_differences(self):
        rng = np.random.default_rng(0)
        prob = Problem(
            F=rng.uniform(-1, 1, (3, 3)),
            G=rng.uniform(-1, 1, (3, 2)),
            a=0.0,
            b=5.0,
            A=rng.uniform(-1, 1, 3),
            B=np.zeros(3),
            U=Ball(1.5),
        )
        heads, n_free, evaluate = _structure_map(prob, [Structure(("on", "off", "on"))])
        assert (heads, n_free) == (2, 4)
        x = np.array([1.2, 1.7, 0.4, 2.3])  # two head durations, then one angle per "on"
        durations, values, _, jac = evaluate(x[None], ONE)
        assert np.allclose(values[0, 0], 1.5 * np.array([np.cos(0.4), np.sin(0.4)]))
        assert durations[0, 2] == pytest.approx(2.1)
        assert np.allclose(jac[0], jacobian_by_differences(evaluate, x), rtol=1e-7, atol=1e-8)


def two_channel_plant() -> Problem:
    """A seeded stable 2-channel plant with an asymmetric box."""
    rng = np.random.default_rng(5)
    return Problem(F=rng.uniform(-1, 1, (2, 2)) - np.eye(2), G=rng.uniform(-1, 1, (2, 2)), a=0, b=4,
                   A=rng.uniform(-1, 1, 2), B=np.zeros(2), U=Box([-1.0, -0.5], [1.0, 1.0]))


class TestFitRun:
    def assert_fits_alone(self, prob, k_max):
        # Structure i of the sequence fits as it does alone at seed 42 + i.
        structures = enumerate_structures(prob.m, prob.U, k_max)
        fits = list(_fit_run(prob, structures, 42, 1e-10))
        assert len(fits) == len(structures)
        for i, (st, (durations, values, residual, iterations)) in enumerate(zip(structures, fits)):
            alone = fit_alone(prob, st, 42 + i)
            assert np.array_equal(durations, alone[0]) and np.array_equal(values, alone[1])
            assert residual == alone[2] and iterations == alone[3]

    @pytest.mark.parametrize("name, k_max", [("ex1", 3), ("ex2", 5), ("d3", 4), ("two_channel", 2), ("ball", 3)])
    def test_every_structure_fits_as_alone(self, name, k_max, ex1, ex2):
        prob = {"ex1": ex1, "ex2": ex2, "d3": d3_plant(), "two_channel": two_channel_plant(),
                "ball": ball_plant()}[name]
        self.assert_fits_alone(prob, k_max)

    def test_run_split_by_the_row_cap(self, monkeypatch):
        # The d=3 plant at k_max 4 (longest run: 12 structures of 20 starts),
        # fitted at most two structures (40 start rows) at a time.
        from handsoff import synth

        batches = []
        real = synth._endpoint_jacobian
        monkeypatch.setattr(synth, "_endpoint_jacobian", lambda p, v, d: batches.append(len(v)) or real(p, v, d))
        monkeypatch.setattr(synth, "_RUN_ROWS", 40)
        self.assert_fits_alone(d3_plant(), 4)
        assert max(batches) == 40

    def test_runs_are_read_lazily(self, monkeypatch):
        # synth_l0 prunes by no longer drawing fits, so drawing the fits of
        # the first runs must not start a later one. A box sweep opens with
        # the all-off structure, then the two one-segment saturations: their
        # three fits take two runs and read one structure past them, the
        # first of the next run, to close the second.
        from handsoff import synth

        prob = d3_plant()
        read, runs = [], []

        def sequence():
            for st in enumerate_structures(prob.m, prob.U, 4):
                read.append(st)
                yield st

        real = synth._structure_map
        monkeypatch.setattr(synth, "_structure_map", lambda p, run: runs.append(list(run)) or real(p, run))
        fits = _fit_run(prob, sequence(), 42, 1e-10)
        for _ in range(3):
            next(fits)
        assert [[st.labels for st in run] for run in runs] == [[((0.0,),)], [((-1.0,),), ((1.0,),)]]
        assert len(read) == 4

    def test_endpoint_evaluations(self, ex2, monkeypatch):
        # Measured: 563 and 20 evaluations, down from 1,790 and 52 with one
        # structure per batch; the solver iterations are those of that sweep.
        from handsoff import synth

        calls = []
        real = synth._endpoint_jacobian
        monkeypatch.setattr(synth, "_endpoint_jacobian", lambda p, v, d: calls.append(1) or real(p, v, d))
        for prob, k_max, most, iterations in ((d3_plant(), 4, 600, 1745), (ex2, None, 25, 43)):
            calls.clear()
            result = synth_l0(prob, k_max=k_max)
            assert len(calls) <= most
            assert sum(t.iterations for t in result.trials) == iterations


def test_fits_are_controls():
    # On this d=3 plant a near-singular Gauss-Newton system asks for a head
    # duration of ~1e286. Projected onto the duration simplex unshortened,
    # that step loses all precision, and the fit reports residual 0 for a
    # control 0.38 off the target. Every fit must report the residual of
    # the control it returns.
    prob = Problem(
        F=np.array(
            [
                [-1.225738618386997, -0.4635572780869678, -0.9196880126351336],
                [-0.9714985386445703, -0.8808141631173063, 0.8313890063960359],
                [0.22015410179190456, 0.4541935937364461, -1.4156227256025034],
            ]
        ),
        G=np.array([[0.8668496549792102], [0.6227746708077503], [-0.9866002837726013]]),
        a=0.0,
        b=6.0,
        A=np.array([0.7085008951527487, -0.9394516015224599, 0.45044124128347485]),
        B=np.zeros(3),
        U=UNIT_BOX,
    )
    for order, st in enumerate(enumerate_structures(1, UNIT_BOX, 4)):
        durations, values, residual, _ = fit_alone(prob, st, 42 + order)
        assert np.all(durations >= 0.0) and durations.sum() == pytest.approx(6.0, abs=1e-12)
        traj = propagate_exact(prob, _assemble_control(prob, st, durations, values))
        assert endpoint_residual(traj, prob.B) == pytest.approx(residual, abs=1e-9)


class TestSynthL0:
    def test_scalar_benchmark(self, ex1_synth):
        assert ex1_synth.support == pytest.approx(3.0, abs=1e-6)
        assert ex1_synth.residual <= 1e-6
        assert ex1_synth.certified and ex1_synth.locally_optimal
        assert ex1_synth.certificate.eta == 1

    def test_singular_benchmark(self, ex2_synth):
        assert ex2_synth.support == pytest.approx(3.0, abs=1e-6)
        bps = ex2_synth.control.breakpoints
        assert bps[1] == pytest.approx(11.0 / 6.0, abs=1e-3)
        assert bps[2] == pytest.approx(29.0 / 6.0, abs=1e-3)
        assert np.array_equal(ex2_synth.control.values.ravel(), [0.0, 1.0, 0.0])
        assert ex2_synth.certified and ex2_synth.locally_optimal
        assert ex2_synth.certificate.eta == 1
        assert np.allclose(ex2_synth.certificate.p_hat, [0.0, 1.0], atol=1e-6)

    def test_shrunk_horizon_infeasible(self, ex1):
        short = Problem(F=ex1.F, G=ex1.G, a=0.0, b=2.0, A=ex1.A, B=ex1.B, U=ex1.U)
        with pytest.raises(InfeasibleProblemError):
            synth_l0(short)

    def test_full_thrust_endpoint_passes_the_gate(self):
        # B is the endpoint of u = sign(G^T p(t)), a bang-bang control whose
        # switch falls between the gate LP's grid points: the 200-interval
        # scaling reads 1.0000029, yet the exact control meets B.
        free = random_problem(np.random.default_rng(2002))
        flow = ExpKernel(free.F.T)
        lam = np.random.default_rng(2003).normal(size=2)

        def s(t):
            return float(free.G[:, 0] @ flow(free.b - t) @ lam)

        grid = np.linspace(free.a, free.b, 2001)
        values = flow(free.b - grid) @ lam @ free.G[:, 0]
        flips = np.flatnonzero(np.sign(values[:-1]) != np.sign(values[1:]))
        bps = np.concatenate([[free.a], [brentq(s, grid[i], grid[i + 1], xtol=1e-15) for i in flips], [free.b]])
        u = PiecewiseConstantControl(bps, np.sign([s(t) for t in 0.5 * (bps[:-1] + bps[1:])])[:, None])
        prob = Problem(F=free.F, G=free.G, a=free.a, b=free.b, A=free.A, B=propagate_exact(free, u).states[-1], U=free.U)
        assert 1.0 + 1e-9 < linf_feasibility(prob, prob.horizon, 200) < 1.0 + 1e-5
        assert min_time(prob) == float("inf")  # min_time keeps the LP's verdict
        result = synth_l0(prob)
        assert endpoint_residual(propagate_exact(prob, result.control), prob.B) <= 1e-6
        assert result.support <= prob.horizon + 1e-9

    def test_search_log_soundness(self, ex2_synth):
        feasible = [t for t in ex2_synth.trials if t.feasible]
        assert feasible
        assert ex2_synth.support <= min(t.support for t in feasible) + 1e-6

    def test_result_control_feasible_and_admissible(self, ex2, ex2_synth):
        ex2.validate_control(ex2_synth.control)
        traj = propagate_exact(ex2, ex2_synth.control)
        assert endpoint_residual(traj, ex2.B) <= 1e-6

    def test_l0_no_worse_than_l1_support(self, ex2, ex2_synth):
        from handsoff.lp import l1_solve

        control, _ = l1_solve(ex2, 1000)
        assert ex2_synth.support <= l0_cost(control) + 1e-9

    def test_ball_planar_task(self):
        # Driftless 2-channel plant with a unit ball input: steering a unit
        # distance takes 1 time unit at full thrust, so support 1 on a
        # 2-unit horizon.
        prob = Problem(
            F=np.zeros((2, 2)),
            G=np.eye(2),
            a=0.0,
            b=2.0,
            A=np.array([1.0, 0.0]),
            B=np.zeros(2),
            U=Ball(1.0),
        )
        result = synth_l0(prob, k_max=3)
        assert result.support == pytest.approx(1.0, abs=1e-3)
        traj = propagate_exact(prob, result.control)
        assert endpoint_residual(traj, prob.B) <= 1e-6

    def test_four_channel_ball_refused_up_front(self, monkeypatch):
        # Free ball directions exist for 2 or 3 channels; a 4-channel ball
        # used to reach the fit and fail there.
        from handsoff import synth

        def no_fit(*args, **kwargs):
            raise AssertionError("the sweep started")

        monkeypatch.setattr(synth, "_fit_run", no_fit)
        prob = Problem(F=-np.eye(2), G=np.ones((2, 4)), a=0.0, b=2.0, A=np.ones(2), B=np.zeros(2), U=Ball(1.0))
        with pytest.raises(synth.UnsupportedProblemError, match=r"2 or 3\); this problem's U is a ball in 4"):
            synth_l0(prob)

    def test_roadmap_d3_plant(self, d3_synth):
        # 0.901608 bounds the support of the Nelder-Mead duration search
        # (0.9016076492); the winning structure's exact support is
        # 0.9016076482. The incumbents are not extremals, so their bounds
        # stay well below the optimum (~0.7828) and nothing is pruned.
        assert d3_synth.support <= 0.901608 + SUPPORT_TIE
        assert d3_synth.residual <= 1e-6
        assert not d3_synth.certified
        assert np.isfinite(d3_synth.lower_bound) and d3_synth.lower_bound <= 0.7828
        assert d3_synth.gap > 0.1 and not d3_synth.globally_optimal
        assert not any(t.pruned for t in d3_synth.trials)

    def test_misreported_fit_not_returned(self, ex1, monkeypatch):
        # A fit that claims to meet the endpoint with the all-off structure
        # (support 0) must be caught by propagating its control.
        from handsoff import synth

        real_fit = synth._fit_run

        def lying_fit(prob, run, *args, **kwargs):
            for st, (durations, values, residual, iterations) in zip(run, real_fit(prob, run, *args, **kwargs)):
                yield durations, values, 0.0 if st.n_on == 0 else residual, iterations

        monkeypatch.setattr(synth, "_fit_run", lying_fit)
        result = synth_l0(ex1)
        assert result.support == pytest.approx(3.0, abs=1e-6)
        assert result.residual <= 1e-6
        off = result.trials[0]
        assert off.structure.n_on == 0 and not off.feasible and off.residual > 1e-6

    def test_sweep_iteration_budget(self, ex1_synth, ex2_synth):
        # Solver iterations are deterministic, so a convergence regression
        # shows here without timing noise (measured: 3 and 43; 67 and 1,038
        # before the sweep stopped at the dual bound).
        assert len(ex1_synth.trials) == 21 and len(ex2_synth.trials) == 93
        assert sum(t.iterations for t in ex1_synth.trials) <= 10
        assert sum(t.iterations for t in ex2_synth.trials) <= 100

    def test_benchmarks_globally_optimal(self, ex1_synth, ex2_synth):
        for result in (ex1_synth, ex2_synth):
            assert abs(result.gap) <= 1e-9 and result.globally_optimal

    def test_sweep_stops_at_winner(self, ex1):
        # 49,149 structures at k_max 14; the bound at the winner, fit 4,
        # certifies it, and every later structure is left unfitted.
        result = synth_l0(ex1, k_max=14)
        fitted = [t for t in result.trials if not t.pruned]
        assert len(result.trials) == len(enumerate_structures(1, UNIT_BOX, 14)) == 49149
        assert len(fitted) == 4 and result.trials[3] is fitted[-1]
        assert result.trials[3].feasible and result.trials[3].support == result.support
        assert all(t.pruned and t.iterations == 0 and not t.feasible for t in result.trials[4:])
        assert result.globally_optimal

    def test_pruning_keeps_the_winner(self, ex1, ex2, ex1_synth, ex2_synth, d3_synth, monkeypatch):
        # The stop rule may only skip work: a full sweep (every bound -inf)
        # must return the same winner, bit for bit.
        from handsoff import synth

        cases = [(ex1, None, ex1_synth), (ex2, None, ex2_synth), (d3_plant(), 4, d3_synth)]
        cases += [(prob, 4, synth_l0(prob, k_max=4)) for prob in map(d3_plant, (531, 534, 547))]
        monkeypatch.setattr(synth, "dual_bound", lambda prob, p_hat: float("-inf"))
        for prob, k, got in cases:
            full = synth_l0(prob, k_max=k)
            assert not any(t.pruned for t in full.trials)
            assert len(full.trials) == len(got.trials)
            assert np.array_equal(full.control.breakpoints, got.control.breakpoints)
            assert np.array_equal(full.control.values, got.control.values)
            assert full.support == got.support

    def test_seed_determinism(self, ex1, ex1_synth):
        rerun = synth_l0(ex1, seed=42)
        assert np.array_equal(rerun.control.breakpoints, ex1_synth.control.breakpoints)
        assert np.array_equal(rerun.control.values, ex1_synth.control.values)


class TestRecoverAdjoint:
    def test_singular_benchmark_multiplier(self, ex2, ex2_control):
        ap = recover_adjoint(ex2, ex2_control)
        assert ap is not None
        assert ap.eta == 1
        assert np.allclose(ap.p_hat, [0.0, 1.0], atol=1e-6)

    def test_scalar_benchmark_multiplier(self, ex1, ex1_control):
        ap = recover_adjoint(ex1, ex1_control)
        assert ap is not None
        assert ap.eta == 1
        assert ap.p_hat[0] == pytest.approx(-1.0, abs=1e-6)

    def test_sign_violating_control_has_no_multiplier(self, ex1):
        # Feasible control mixing +1 and -1 thrusts: the switching value
        # would have to sit at both thresholds at once.
        u = PiecewiseConstantControl(
            [0.0, 0.5, 4.0, 5.0], [[1.0], [-1.0], [0.0]]
        )
        traj = propagate_exact(ex1, u)
        assert endpoint_residual(traj, ex1.B) <= 1e-12  # it is feasible
        assert recover_adjoint(ex1, u) is None

    def test_brute_force_confirms_absence(self, ex1):
        # Independent scan over the scalar costate: no admissible value
        # puts all three control levels used above at the Hamiltonian
        # maximum. Abnormal multipliers live on the unit sphere, so for
        # eta = 0 only the two signs need scanning.
        from handsoff.control_law import hamiltonian_gap

        u = PiecewiseConstantControl([0.0, 0.5, 4.0, 5.0], [[1.0], [-1.0], [0.0]])
        grid = np.linspace(0.05, 4.95, 197)
        samples = u.sample(grid)
        for eta, p_values in ((1, np.linspace(-3.0, 3.0, 1201)), (0, np.array([-1.0, 1.0]))):
            s = np.broadcast_to(
                p_values[:, None, None], (p_values.size, grid.size, 1)
            )
            worst = hamiltonian_gap(ex1.U, s, eta, samples).max(axis=1)
            assert worst.min() > 1e-3

    def test_two_channel_extremal(self):
        # Double integrator with both channels actuated: (1, 1) until the
        # whole-vector gain <s(t), (1, 1)> = 0.45 + 0.25 (5 - t) of the
        # multiplier (0.25, 0.2) falls through 1 at t = 2.8, then off.
        from handsoff.certificate import certify

        F = np.array([[0.0, 1.0], [0.0, 0.0]])
        box = Box(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
        u = PiecewiseConstantControl([0.0, 2.8, 5.0], [[1.0, 1.0], [0.0, 0.0]])
        free = Problem(F=F, G=np.eye(2), a=0.0, b=5.0, A=np.zeros(2), B=np.zeros(2), U=box)
        end = propagate_exact(free, u).states[-1]
        prob = Problem(F=F, G=np.eye(2), a=0.0, b=5.0, A=np.zeros(2), B=end, U=box)
        assert certify(prob, 1, np.array([0.25, 0.2]), u).passed
        ap = recover_adjoint(prob, u)
        assert ap is not None and ap.eta == 1
        assert certify(prob, ap.eta, ap.p_hat, u).passed

    def test_abnormal_bang_bang_extremal(self):
        # Double integrator, +1 then -1 with no off arc: only an abnormal
        # switching function s(t) = (2 - t) p_1 + p_2, zero at the switch
        # t = 1, admits it, so the multiplier is the null vector (1, -1)/sqrt(2).
        from handsoff.certificate import certify

        F = np.array([[0.0, 1.0], [0.0, 0.0]])
        G = np.array([[0.0], [1.0]])
        u = PiecewiseConstantControl([0.0, 1.0, 2.0], [[1.0], [-1.0]])
        free = Problem(F=F, G=G, a=0.0, b=2.0, A=np.zeros(2), B=np.zeros(2), U=UNIT_BOX)
        end = propagate_exact(free, u).states[-1]
        prob = Problem(F=F, G=G, a=0.0, b=2.0, A=np.zeros(2), B=end, U=UNIT_BOX)
        ap = recover_adjoint(prob, u)
        assert ap is not None and ap.eta == 0
        assert np.abs(ap.p_hat - np.array([1.0, -1.0]) / np.sqrt(2.0)).max() <= 1e-12
        report = certify(prob, ap.eta, ap.p_hat, u)
        assert report.passed and not report.locally_optimal

    @pytest.mark.parametrize("off", [0.0, 1e-12, -1e-12, 1e-10])
    def test_transformed_plant_off_roundoff(self, ex2, off):
        # ex2 in the coordinates T z: the multiplier is T^-T (0, 1). Off
        # segments carrying roundoff within ZERO_TOL, as L1 solutions and
        # CSV round trips leave, still give the crossing equations; they
        # used to lose them and fall through to the screen, which misses.
        from handsoff.certificate import certify

        t = np.array([[1.0, 0.7], [-0.4, 1.3]])
        prob = Problem(F=t @ ex2.F @ np.linalg.inv(t), G=t @ ex2.G, a=ex2.a, b=ex2.b, A=t @ ex2.A, B=t @ ex2.B,
                       U=ex2.U)
        u = PiecewiseConstantControl([0.0, 11.0 / 6.0, 29.0 / 6.0, 5.0], [[off], [1.0], [off]])
        p_true = np.linalg.solve(t.T, [0.0, 1.0])
        assert certify(prob, 1, p_true, u).passed
        ap = recover_adjoint(prob, u)
        assert ap is not None and ap.eta == 1
        assert np.abs(ap.p_hat - p_true).max() <= 1e-9

    def test_recovered_multiplier_certifies(self, ex1, ex2, ex1_control, ex2_control):
        from handsoff.certificate import certify

        for prob, control in ((ex1, ex1_control), (ex2, ex2_control)):
            ap = recover_adjoint(prob, control)
            assert ap is not None
            report = certify(prob, ap.eta, ap.p_hat, control)
            assert report.passed

    def test_damped_plant_crossing_recovery(self):
        # Non-nilpotent drift: the switching thresholds must be hit at the
        # control's own transition times; the crossing equations recover
        # the exact multiplier where a sampled search can stall on a
        # near-miss plateau.
        prob = Problem(
            F=np.array([[0.0, 1.0], [0.0, -0.4]]),
            G=np.array([[0.0], [1.0]]),
            a=0.0,
            b=6.0,
            A=np.array([4.0, 0.0]),
            B=np.zeros(2),
            U=UNIT_BOX,
        )
        result = synth_l0(prob)
        assert result.residual <= 1e-6
        assert result.certified and result.locally_optimal
        from handsoff.certificate import certify

        report = certify(prob, result.certificate.eta, result.certificate.p_hat, result.control)
        assert report.hmax_violation <= 1e-9
        assert report.constancy_spread <= 1e-9


class TestOptimizerInternals:
    def test_budget_projection_properties(self):
        from handsoff.synth import _project_budget_rows

        rng = np.random.default_rng(817)
        total = 5.0
        x = rng.uniform(-4.0, 8.0, (200, 4))
        proj = _project_budget_rows(x, total)
        assert np.all(proj >= 0.0)
        assert np.all(proj.sum(axis=1) <= total + 1e-9)
        # No feasible point is closer than the projection.
        for _ in range(200):
            y = rng.uniform(0.0, total, 4)
            if y.sum() > total:
                y = y * (total / y.sum())
            d_proj = np.linalg.norm(x - proj, axis=1)
            d_y = np.linalg.norm(x - y[None, :], axis=1)
            assert np.all(d_proj <= d_y + 1e-9)


class TestStructureType:
    def test_rejects_consecutive_repeats(self):
        with pytest.raises(ValueError):
            Structure(((0.0,), (0.0,)))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Structure(())

    def test_on_count(self):
        st = Structure(((0.0,), (1.0,), (0.0,), (-1.0,)))
        assert st.n_on == 2
        assert Structure(("off", "on")).n_on == 1
