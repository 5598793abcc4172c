"""Certificate checks: adjoint defect, Hamiltonian maximization and
constancy, nontriviality, and the assembled verdicts."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from scipy.integrate import quad
from scipy.linalg import expm
from scipy.optimize import brentq

from conftest import d3_plant, pendulum_jac, pendulum_phi, random_control, random_problem
from handsoff import certificate, sim
from handsoff.certificate import (
    certify,
    check_adjoint,
    check_hamiltonian_max,
    dual_bound,
)
from handsoff.control_law import AdjointParams, _input_grid, adjoint_on_grid, hamiltonian_gap, hamiltonian_values
from handsoff.linalg import ExpKernel, sorted_unique
from handsoff.lp import l1_solve
from handsoff.model import Ball, Box, PiecewiseConstantControl, Problem, l0_cost
from handsoff.sim import (
    HamiltonianProfile,
    NonlinearDynamics,
    endpoint_residual,
    hamiltonian_profile,
    linear_dynamics,
    propagate_exact,
)
from handsoff.synth import NoFeasibleStructureError, synth_l0


class TestCheckAdjoint:
    def test_singular_certificate_constant_costate(self, ex2):
        # p_hat = (0, 1) makes the whole costate constant for this plant.
        ap = AdjointParams(1, np.array([0.0, 1.0]))
        assert check_adjoint(ex2, ap) <= 1e-6

    def test_driftless_costate_at_roundoff(self, ex1):
        ap = AdjointParams(1, np.array([2.0]))
        assert check_adjoint(ex1, ap) <= 1e-12

    def test_random_plants_agree_with_differences(self):
        rng = np.random.default_rng(601)
        for _ in range(10):
            prob = random_problem(rng, d=2, m=1)
            ap = AdjointParams(1, rng.uniform(-1.0, 1.0, 2))
            assert check_adjoint(prob, ap, grid_n=10001) <= 1e-6

    def test_fast_plant_exact_extremal_certifies(self):
        # Undamped oscillator at frequency 3 and p_hat = (0, 2): the switching
        # value is s(t) = 2 cos(3 (b - t)), so the extremal is +1 / 0 / -1 with
        # switches where |s| = 1. |F^3 p| = 54 puts the second-order stencil's
        # truncation error h^2/6 |F^3 p| at 2.25e-6, above the tolerance.
        w, b = 3.0, 5.0
        f = np.array([[0.0, w], [-w, 0.0]])
        g = np.array([[0.0], [1.0]])
        box = Box(np.array([-1.0]), np.array([1.0]))
        crossings = b - np.arange(14, 0, -1) * np.pi / (3.0 * w)
        bps = np.concatenate([[0.0], crossings, [b]])
        s = 2.0 * np.cos(w * (b - 0.5 * (bps[:-1] + bps[1:])))
        u = PiecewiseConstantControl(bps, np.where(np.abs(s) > 1.0, np.sign(s), 0.0)[:, None])
        start = np.array([1.0, 0.0])
        free = Problem(F=f, G=g, a=0.0, b=b, A=start, B=np.zeros(2), U=box)
        prob = Problem(F=f, G=g, a=0.0, b=b, A=start, B=propagate_exact(free, u).states[-1], U=box)

        report = certify(prob, 1, np.array([0.0, 2.0]), u)
        assert report.adjoint_residual <= 1e-9
        assert report.passed and report.locally_optimal
        for wrong in ([0.0, 2.2], [0.3, 2.0], [0.0, -2.0]):
            assert not certify(prob, 1, np.array(wrong), u).passed

    def test_grid_floor_enforced(self, ex2):
        ap = AdjointParams(1, np.array([0.3, 0.9]))
        for grid_n in (1, 4):
            with pytest.raises(ValueError, match="fourth-order stencil"):
                check_adjoint(ex2, ap, grid_n=grid_n)
        assert check_adjoint(ex2, ap, grid_n=5) >= 0.0

    def test_fast_plant_truncation_matches_per_sample_reference(self):
        # ||F||_1 (b - a) = 350: at 10001 samples the stencil's truncation
        # error (~7.4e-8) dominates roundoff, so both schemes must see it.
        base = random_problem(np.random.default_rng(0), d=3)
        f = base.F * 350.0 / (np.abs(base.F).sum(axis=0).max() * base.horizon)
        prob = Problem(F=f, G=base.G, a=base.a, b=base.b, A=base.A, B=base.B, U=base.U)
        ap = AdjointParams(1, np.array([0.5, 0.0, 0.0]))
        reference = _per_sample_adjoint_defect(prob, ap, 10001)
        assert 5e-8 <= reference <= 1e-7
        assert check_adjoint(prob, ap) == pytest.approx(reference, rel=1e-3)

    def test_kernel_samples_per_lti_check(self, ex2, monkeypatch):
        # ceil(N / B) anchors plus B short flows, B = ceil(sqrt(N)).
        samples = []
        call = ExpKernel.__call__

        def counted(kernel, t):
            samples.append(np.size(t))
            return call(kernel, t)

        monkeypatch.setattr(ExpKernel, "__call__", counted)
        check_adjoint(ex2, AdjointParams(1, np.array([0.3, 0.9])), grid_n=10001)
        assert sum(samples) <= 202

    def test_callback_defect_matches_pointwise_loop(self):
        # The per-sample loop with fresh Jacobian calls is the reference for
        # the vectorized defect over the backward pass's stored Jacobians.
        prob, dyn, u, ap = _sin_plant()
        traj = sim.propagate_rk4(dyn, u, prob.A, 200)
        costates = sim._backward_adjoint(dyn, traj, ap.p_hat)[0]
        grid, reference = traj.grid, 0.0
        for i in range(1, grid.size - 1):
            h0, h1 = grid[i] - grid[i - 1], grid[i + 1] - grid[i]
            if abs(h1 - h0) > 1e-12 * max(h0, h1):
                continue
            deriv = (costates[i + 1] - costates[i - 1]) / (h0 + h1)
            jac = dyn.jacobian(traj.states[i], traj.controls[i])
            reference = max(reference, float(np.abs(deriv + jac.T @ costates[i]).max()))
        assert reference > 0.0
        assert check_adjoint(prob, ap, traj=traj, dynamics=dyn) == pytest.approx(reference, rel=1e-12)

    def test_nonlinear_path_matches_linear(self, ex2, ex2_control):
        dyn = linear_dynamics(ex2)
        traj = propagate_exact(ex2, ex2_control, samples=2000)
        ap = AdjointParams(1, np.array([0.3, 0.9]))
        assert check_adjoint(ex2, ap, traj=traj, dynamics=dyn) <= 1e-5


def _per_sample_adjoint_defect(prob: Problem, ap: AdjointParams, grid_n: int) -> float:
    """The LTI adjoint defect with one exponential per grid sample."""
    grid = np.linspace(prob.a, prob.b, grid_n)
    h = grid[1] - grid[0]
    p = adjoint_on_grid(prob, ap, grid)
    deriv = (p[:-4] - 8.0 * p[1:-3] + 8.0 * p[3:-1] - p[4:]) / (12.0 * h)
    return float(np.abs(deriv + p[2:-2] @ prob.F).max())


def _assert_adjoint_check_agrees(prob: Problem, p_hat: np.ndarray) -> None:
    # The defect is linear in p, so its roundoff floor scales with the
    # largest costate; 1e-9 is that floor for |p| <= 1.
    ap = AdjointParams(1, p_hat)
    scale = max(1.0, float(np.abs(adjoint_on_grid(prob, ap, np.linspace(prob.a, prob.b, 101))).max()))
    for grid_n in (5, 7, 101, 1001, 10001):
        reference = _per_sample_adjoint_defect(prob, ap, grid_n)
        assert abs(check_adjoint(prob, ap, grid_n=grid_n) - reference) <= 1e-9 * scale + 1e-3 * reference


class TestAdjointAnchors:
    """The anchored LTI adjoint check against one exponential per sample."""

    def test_paper_examples(self, ex1, ex2):
        _assert_adjoint_check_agrees(ex1, np.array([-1.0]))
        _assert_adjoint_check_agrees(ex2, np.array([0.3, 0.9]))

    def test_roadmap_d3_plant(self):
        prob, _, p_hat = _roadmap_d3_candidate()
        _assert_adjoint_check_agrees(prob, p_hat)

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**31), d=st.integers(1, 4), stable=st.booleans())
    def test_random_plants(self, seed, d, stable):
        rng = np.random.default_rng(seed)
        prob = random_problem(rng, d=d, stable=stable)
        _assert_adjoint_check_agrees(prob, rng.uniform(-1.0, 1.0, d))


class TestCheckHamiltonianMax:
    def test_singular_certificate_no_shortfall(self, ex2, ex2_control):
        ap = AdjointParams(1, np.array([0.0, 1.0]))
        traj = propagate_exact(ex2, ex2_control)
        assert check_hamiltonian_max(ex2, ap, traj, ex2_control) <= 1e-9

    def test_scalar_certificate_no_shortfall(self, ex1, ex1_control):
        ap = AdjointParams(1, np.array([-1.0]))
        traj = propagate_exact(ex1, ex1_control)
        assert check_hamiltonian_max(ex1, ap, traj, ex1_control) <= 1e-9

    def test_wrong_sign_control_shortfall(self, ex1):
        # With p0 = -1, thrusting at +1 scores H = -1 against the sup of 1.
        ap = AdjointParams(1, np.array([-1.0]))
        u = PiecewiseConstantControl([0.0, 2.0, 5.0], [[1.0], [0.0]])
        traj = propagate_exact(ex1, u)
        assert check_hamiltonian_max(ex1, ap, traj, u) >= 2.0 - 1e-9


def _roadmap_d3_candidate():
    """The ROADMAP d=3 plant with a bang-off-bang control and a multiplier
    that is not its certificate, so every residual is nonzero."""
    prob = d3_plant()
    u = PiecewiseConstantControl([0.0, 1.0, 2.5, 4.0, 6.0], [[0.0], [-1.0], [0.0], [1.0]])
    return prob, u, np.array([0.2, -0.5, 0.7])


def _ex2_fd_dynamics(ex2):
    """ex2 through the callback interface, with finite-difference Jacobians
    and no state-affinity claim."""
    f, g = ex2.F, ex2.G
    return NonlinearDynamics(d=2, m=1, phi=lambda z, u: z @ f.T + u @ g.T, affine_in_state=False)


def _sin_plant():
    """A 3-state plant zdot = F z + sin(z) + G u with its Jacobian, a
    control and a multiplier that leave every residual nonzero."""
    rng = np.random.default_rng(11)
    f = rng.uniform(-1.0, 1.0, (3, 3))
    g = rng.uniform(-1.0, 1.0, (3, 1))
    # Stacked matrix-vector products, so a stack of points gets the floats
    # that each point alone gets.
    dyn = NonlinearDynamics(
        d=3,
        m=1,
        phi=lambda z, u: (f @ z[..., None] + g @ u[..., None])[..., 0] + np.sin(z),
        jac_z=lambda z, u: f + np.cos(z)[..., None] * np.eye(3),
    )
    prob = Problem(F=f, G=g, a=0.0, b=2.0, A=rng.uniform(-1, 1, 3), B=np.zeros(3), U=Box([-1.0], [1.0]))
    u = PiecewiseConstantControl([0.0, 0.7, 2.0], [[1.0], [-0.5]])
    return prob, dyn, u, AdjointParams(1, rng.uniform(-1.0, 1.0, 3))


class TestOnePass:
    """certify evaluates the extremal along its trajectory once and every
    check reads those samples."""

    def test_callback_certify_integrates_the_adjoint_once(self, ex2, ex2_control, monkeypatch):
        calls = []
        backward = sim._backward_adjoint

        def counted(*args):
            calls.append(args)
            return backward(*args)

        monkeypatch.setattr(sim, "_backward_adjoint", counted)
        report = certify(
            ex2, 1, np.array([0.0, 1.0]), ex2_control, dynamics=_ex2_fd_dynamics(ex2), rk4_steps=100
        )
        assert report.passed
        assert len(calls) == 1

    def test_backward_pass_evaluates_three_jacobians_per_step(self, ex2, ex2_control):
        # Both ends and the shared midpoint of k2 and k3, each one stacked
        # call over every step; the adjoint defect reuses the start-of-step
        # Jacobians instead of asking again.
        count = [0]

        def jac(z, u):
            count[0] += 1
            return np.broadcast_to(ex2.F, np.shape(z)[:-1] + (2, 2))

        f, g = ex2.F, ex2.G
        dyn = NonlinearDynamics(d=2, m=1, phi=lambda z, u: z @ f.T + u @ g.T, jac_z=jac)
        certify(ex2, 1, np.array([0.3, 0.9]), ex2_control, dynamics=dyn, rk4_steps=100)
        assert count[0] == 3

    def test_lti_certify_evaluates_trajectory_costates_once(self, ex2, ex2_control, monkeypatch):
        grids = []
        analytic = adjoint_on_grid

        def counted(prob, ap, grid):
            grids.append(np.asarray(grid).size)
            return analytic(prob, ap, grid)

        monkeypatch.setattr(sim, "adjoint_on_grid", counted)
        monkeypatch.setattr(certificate, "adjoint_on_grid", counted)
        certify(ex2, 1, np.array([0.3, 0.9]), ex2_control)
        traj = propagate_exact(ex2, ex2_control)
        # The trajectory grid once, and the adjoint check's anchors: one per
        # block of ceil(sqrt(10001)) = 101 samples of its own grid.
        assert len(grids) == 2 and traj.grid.size in grids
        grids.remove(traj.grid.size)
        assert grids[0] <= math.isqrt(10000) + 2

    def test_synth_certifies_without_propagating_again(self, ex2, monkeypatch):
        def refuse(*args):
            raise AssertionError("certification propagated the winner again")

        monkeypatch.setattr(certificate, "propagate_exact", refuse)
        result = synth_l0(ex2)
        assert result.report is not None and result.report.passed

    @pytest.mark.parametrize("plant", ["ex2", "d3"])
    @pytest.mark.parametrize("eta", [1, 0])
    def test_report_equals_the_public_checks(self, plant, eta, ex2, ex2_control):
        if plant == "ex2":
            prob, u, p_hat = ex2, ex2_control, np.array([0.3, 0.9])
        else:
            prob, u, p_hat = _roadmap_d3_candidate()
        report = certify(prob, eta, p_hat, u)
        ap = AdjointParams(eta, p_hat)
        traj = propagate_exact(prob, u)
        assert report.hmax_violation > 0.0 and report.constancy_spread > 0.0
        assert report.hmax_violation == check_hamiltonian_max(prob, ap, traj, u)
        assert report.constancy_spread == hamiltonian_profile(prob, ap, traj, u).spread()
        assert report.adjoint_residual == check_adjoint(prob, ap)

    def test_callback_report_equals_the_public_checks(self, ex2, ex2_control):
        dyn = _ex2_fd_dynamics(ex2)
        ap = AdjointParams(1, np.array([0.3, 0.9]))
        report = certify(ex2, 1, ap.p_hat, ex2_control, dynamics=dyn, rk4_steps=100)
        traj = sim.propagate_rk4(dyn, ex2_control, ex2.A, 100)
        assert report.adjoint_residual == check_adjoint(ex2, ap, traj=traj, dynamics=dyn)
        assert report.hmax_violation == check_hamiltonian_max(ex2, ap, traj, ex2_control, dynamics=dyn)


def _pendulum_problem() -> Problem:
    """The pendulum's steering task; F is a placeholder, the callback drives."""
    return Problem(
        F=np.zeros((2, 2)), G=np.array([[0.0], [1.0]]), a=0.0, b=4.0, A=np.zeros(2), B=np.zeros(2), U=Box([-1.0], [1.0])
    )


def _callback_case(case: str, ex2, ex2_control):
    """(problem, dynamics with a Jacobian, control, multiplier) with nonzero residuals."""
    if case == "ex2":
        return ex2, linear_dynamics(ex2), ex2_control, AdjointParams(1, np.array([0.3, 0.9]))
    if case == "sin":
        return _sin_plant()
    swing = PiecewiseConstantControl([0.0, 1.0, 2.5, 4.0], [[1.0], [0.0], [-0.7]])
    pendulum = NonlinearDynamics(d=2, m=1, phi=pendulum_phi, jac_z=pendulum_jac)
    return _pendulum_problem(), pendulum, swing, AdjointParams(1, np.array([0.3, 0.5]))


def _counting(dyn: NonlinearDynamics):
    """dyn with counted callbacks, and the counts."""
    calls = {"phi": 0, "jac_z": 0}

    def phi(z, u):
        calls["phi"] += 1
        return dyn.phi(z, u)

    def jac_z(z, u):
        calls["jac_z"] += 1
        return dyn.jac_z(z, u)

    return replace(dyn, phi=phi, jac_z=None if dyn.jac_z is None else jac_z), calls


def _per_sample_backward_adjoint(dyn, traj, p_hat):
    """The backward RK4 pass with three Jacobian calls per step (the
    reference for the stacked pass)."""
    grid, states = traj.grid, traj.states
    n = grid.size
    costates = np.empty((n, dyn.d))
    jacobians = np.empty((n - 1, dyn.d, dyn.d))
    costates[-1] = p_hat
    for i in range(n - 2, -1, -1):
        h, p, u = grid[i + 1] - grid[i], costates[i + 1], traj.controls[i]
        end = dyn.jacobian(states[i + 1], u)
        mid = dyn.jacobian(0.5 * states[i] + 0.5 * states[i + 1], u)
        jacobians[i] = dyn.jacobian(states[i], u)
        k1 = -end.T @ p
        k2 = -mid.T @ (p - 0.5 * h * k1)
        k3 = -mid.T @ (p - 0.5 * h * k2)
        k4 = -jacobians[i].T @ (p - h * k3)
        costates[i] = p - (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return costates, jacobians


def _per_input_hmax_shortfall(prob, ap, traj, ex, dynamics):
    """The callback Hamiltonian shortfall with one phi call per sample and
    input (the reference for one stacked call per sample)."""
    keep = np.flatnonzero(ex.off_breakpoint)
    if keep.size > 301:
        keep = keep[sorted_unique(np.linspace(0, keep.size - 1, 301).astype(int))]
    inputs = _input_grid(prob.U, prob.m, 1001)
    shortfall = 0.0
    for i in keep:
        p, z = ex.costates[i], traj.states[i]
        velocities = np.array([np.asarray(dynamics.phi(z, v), dtype=float) for v in inputs])
        values = hamiltonian_values(prob, ap.eta, np.broadcast_to(p, velocities.shape), None, inputs, velocities)
        shortfall = max(shortfall, float(values.max() - ex.values[i]))
    return shortfall


class TestCallbackContract:
    """Callbacks take stacked points: each pass over a trajectory makes a
    few stacked calls and reproduces the per-sample loops it replaced."""

    @pytest.mark.parametrize("fd", [False, True])
    @pytest.mark.parametrize("case", ["ex2", "sin", "pendulum"])
    def test_stacked_passes_match_per_sample_loops(self, case, fd, ex2, ex2_control):
        prob, dyn, u, ap = _callback_case(case, ex2, ex2_control)
        if fd:
            dyn = replace(dyn, jac_z=None)
        traj = sim.propagate_rk4(dyn, u, prob.A, 60)
        counted, calls = _counting(dyn)
        ex = hamiltonian_profile(prob, ap, traj, u, counted)
        # One velocity call, and three Jacobians (2 d phi calls each by differences).
        assert calls == ({"phi": 1 + 6 * prob.d, "jac_z": 0} if fd else {"phi": 1, "jac_z": 3})
        shortfall = certificate._hmax_shortfall(prob, ap, traj, ex, counted)
        assert calls["phi"] == 1 + (6 * prob.d if fd else 0) + np.count_nonzero(ex.off_breakpoint)
        costates, jacobians = _per_sample_backward_adjoint(dyn, traj, ap.p_hat)
        reference = _per_input_hmax_shortfall(prob, ap, traj, ex, dyn)
        assert reference > 0.0
        if fd:  # differences amplify the rounding of stacked products
            assert np.abs(ex.costates - costates).max() <= 1e-9
            assert np.abs(ex.jacobians - jacobians).max() <= 1e-9
            assert abs(shortfall - reference) <= 1e-9
        else:
            assert np.array_equal(ex.costates, costates) and np.array_equal(ex.jacobians, jacobians)
            assert shortfall == reference

    @pytest.mark.parametrize("fd", [False, True])
    def test_certify_calls_outside_rk4(self, fd, ex2, ex2_control):
        # One velocity call, three Jacobians and one call per kept sample
        # (thinned to 301) beside RK4's four per step.
        dyn = linear_dynamics(ex2)
        counted, calls = _counting(replace(dyn, jac_z=None, affine_in_state=False) if fd else dyn)
        sim.propagate_rk4(counted, ex2_control, ex2.A, 500)
        rk4_calls, calls["phi"] = calls["phi"], 0
        report = certify(ex2, 1, np.array([0.0, 1.0]), ex2_control, dynamics=counted, rk4_steps=500)
        assert report.passed
        assert calls == {"phi": rk4_calls + 302 + (12 if fd else 0), "jac_z": 0 if fd else 3}

    def test_single_point_callback_raises(self):
        prob, rest = _pendulum_problem(), PiecewiseConstantControl([0.0, 4.0], [[0.0]])
        single = NonlinearDynamics(
            d=2, m=1, phi=lambda z, u: np.array([z[1], -np.sin(z[0]) + u[0]]), jac_z=pendulum_jac
        )
        with pytest.raises(ValueError, match=r"phi must map z of shape \(\.\.\., d\)"):
            certify(prob, 1, np.array([0.0, 0.5]), rest, dynamics=single, rk4_steps=100)
        traj = sim.propagate_rk4(single, rest, prob.A, 100)
        with pytest.raises(ValueError, match=r"phi must map z of shape \(\.\.\., d\)"):
            check_hamiltonian_max(prob, AdjointParams(1, np.array([0.0, 0.5])), traj, rest, dynamics=single)

    @pytest.mark.parametrize("d, m", [(3, 1), (1, 1), (2, 2)])
    def test_dimensions_must_match_the_problem(self, d, m, ex2, ex2_control):
        dyn = NonlinearDynamics(d=d, m=m, phi=lambda z, u: -z)
        pattern = rf"\(d, m\) = \({d}, {m}\), the problem \(2, 1\)"
        with pytest.raises(ValueError, match=pattern):
            certify(ex2, 1, np.array([0.0, 1.0]), ex2_control, dynamics=dyn, rk4_steps=100)
        traj = propagate_exact(ex2, ex2_control)
        with pytest.raises(ValueError, match=pattern):
            check_hamiltonian_max(ex2, AdjointParams(1, np.array([0.0, 1.0])), traj, ex2_control, dynamics=dyn)

    def test_three_channel_box_matches_the_exact_gap(self):
        # F = 0 makes RK4 and the backward pass exact and the costate
        # constant; the capped box grid keeps every vertex and 0, where a
        # Hamiltonian affine in u peaks.
        rng = np.random.default_rng(29)
        box = Box([-1.0, -0.5, -2.0], [0.5, 1.0, 1.5])
        prob = Problem(F=np.zeros((3, 3)), G=rng.uniform(-1.0, 1.0, (3, 3)), a=0.0, b=3.0, A=np.zeros(3), B=np.zeros(3), U=box)
        u = PiecewiseConstantControl([0.0, 1.0, 2.0, 3.0], [[0.5, 0.0, -2.0], [0.0, 0.0, 0.0], [-0.3, 1.0, 0.7]])
        p_hat = rng.uniform(-1.0, 1.0, 3)
        exact = certify(prob, 1, p_hat, u)
        callback = certify(prob, 1, p_hat, u, dynamics=linear_dynamics(prob), rk4_steps=12)
        assert exact.hmax_violation > 0.0
        assert abs(callback.hmax_violation - exact.hmax_violation) <= 1e-9


class TestCheckConstancy:
    """The constancy check is the spread of the sampled extremal."""

    def test_constant_profile(self):
        assert HamiltonianProfile(np.full(100, 2.5), np.ones(100, dtype=bool)).spread() == 0.0

    def test_masked_spike_ignored(self):
        values = np.ones(50)
        values[10] = 7.0
        mask = np.ones(50, dtype=bool)
        mask[10] = False
        assert HamiltonianProfile(values, mask).spread() == 0.0

    def test_linear_drift_measured(self):
        values = np.linspace(0.0, 0.1, 11)
        assert HamiltonianProfile(values, np.ones(11, dtype=bool)).spread() == pytest.approx(0.1)


class TestCertify:
    def test_singular_benchmark_passes(self, ex2, ex2_control):
        report = certify(ex2, 1, np.array([0.0, 1.0]), ex2_control)
        assert report.passed
        assert report.locally_optimal
        assert report.constancy_spread <= 1e-9
        assert report.transversality

    def test_abnormal_constant_control_infeasible(self, ex1):
        # The abnormal branch forces a saturated constant control, which
        # cannot meet the endpoint; the certificate fails on the endpoint.
        u = PiecewiseConstantControl([0.0, 5.0], [[1.0]])
        report = certify(ex1, 0, np.array([1.0]), u)
        assert not report.passed
        assert report.endpoint_residual > 1.0

    def test_trivial_pair_rejected_by_nontriviality(self, ex2, ex2_control):
        report = certify(ex2, 0, np.zeros(2), ex2_control)
        assert not report.nontriviality
        assert not report.passed
        assert not report.locally_optimal

    def test_abnormal_scaling_invariance(self, ex2, ex2_control):
        r1 = certify(ex2, 0, np.array([0.0, 1.0]), ex2_control)
        r2 = certify(ex2, 0, np.array([0.0, 2.0]), ex2_control)
        assert r1.passed == r2.passed
        assert r1.hmax_violation == pytest.approx(r2.hmax_violation, abs=1e-12)

    def test_indicator_bonus_is_load_bearing(self, ex2, ex2_control):
        # Forcing the abnormal branch on the singular certificate removes
        # the zero bonus: off segments now fall a full unit short.
        normal = certify(ex2, 1, np.array([0.0, 1.0]), ex2_control)
        abnormal = certify(ex2, 0, np.array([0.0, 1.0]), ex2_control)
        assert normal.hmax_violation <= 1e-9
        assert abnormal.hmax_violation >= 1.0 - 1e-9
        assert not abnormal.passed

    def test_costate_never_vanishes(self, ex2, ex2_control):
        rng = np.random.default_rng(607)
        for _ in range(10):
            p_hat = rng.uniform(-2.0, 2.0, 2)
            if np.linalg.norm(p_hat) < 1e-6:
                continue
            ap = AdjointParams(1, p_hat)
            traj = propagate_exact(ex2, ex2_control, samples=200)
            costates = adjoint_on_grid(ex2, ap, traj.grid)
            assert np.linalg.norm(costates, axis=1).min() > 0.0

    def test_nonlinear_path_verdicts_match(self, ex2, ex2_control):
        dyn = linear_dynamics(ex2)
        linear = certify(ex2, 1, np.array([0.0, 1.0]), ex2_control)
        wrapped = certify(
            ex2, 1, np.array([0.0, 1.0]), ex2_control, dynamics=dyn, rk4_steps=5000
        )
        assert wrapped.passed == linear.passed
        assert wrapped.locally_optimal  # affine_in_state is set by the wrapper

    def test_nonlinear_without_affinity_not_locally_optimal(self, ex2, ex2_control):
        from handsoff.sim import NonlinearDynamics

        f, g = ex2.F, ex2.G
        dyn = NonlinearDynamics(
            d=2, m=1, phi=lambda z, u: z @ f.T + u @ g.T, affine_in_state=False
        )
        report = certify(ex2, 1, np.array([0.0, 1.0]), ex2_control, dynamics=dyn, rk4_steps=5000)
        assert report.passed
        assert not report.locally_optimal

    def test_genuinely_nonlinear_equilibrium_certificate(self):
        # Pendulum at its stable equilibrium: staying put under zero input
        # is an extremal. The costate rotates harmonically with norm 1/2,
        # so the input-linear term never beats the zero bonus; the field is
        # not state-affine, so no local-optimality claim is made.
        from handsoff.model import Box
        from handsoff.sim import NonlinearDynamics

        pendulum = NonlinearDynamics(
            d=2,
            m=1,
            phi=pendulum_phi,
            jac_z=pendulum_jac,
            affine_in_state=False,
        )
        prob = Problem(
            F=np.zeros((2, 2)),  # placeholder; the callback drives everything
            G=np.array([[0.0], [1.0]]),
            a=0.0,
            b=4.0,
            A=np.zeros(2),
            B=np.zeros(2),
            U=Box(np.array([-1.0]), np.array([1.0])),
        )
        rest = PiecewiseConstantControl([0.0, 4.0], [[0.0]])
        report = certify(prob, 1, np.array([0.0, 0.5]), rest, dynamics=pendulum, rk4_steps=4000)
        assert report.passed
        assert not report.locally_optimal
        assert report.constancy_spread <= 1e-6

    def test_dimension_mismatch_raises(self, ex2, ex2_control):
        with pytest.raises(ValueError):
            certify(ex2, 1, np.array([1.0]), ex2_control)

    def test_report_json_round_trip(self, ex2, ex2_control):
        import json

        report = certify(ex2, 1, np.array([0.0, 1.0]), ex2_control)
        data = json.loads(report.to_json())
        assert set(data) == {
            "eta",
            "p_hat",
            "adjoint_residual",
            "hmax_violation",
            "constancy_spread",
            "endpoint_residual",
            "nontriviality",
            "transversality",
            "passed",
            "locally_optimal",
        }
        assert data["passed"] is True


def test_synth_outputs_certify(ex1, ex2, ex1_synth, ex2_synth):
    for prob, result in ((ex1, ex1_synth), (ex2, ex2_synth)):
        assert result.certificate is not None
        report = certify(prob, result.certificate.eta, result.certificate.p_hat, result.control)
        assert report.passed


def quadrature_bound(prob: Problem, p: np.ndarray) -> float:
    """The dual bound by scipy: expm for the costate, a fine scan refined by
    brentq for the crossings sigma_U(s) = 1 and the box kinks s_i = 0, and
    quad on every piece between them."""

    def switching(t):
        return prob.G.T @ expm(prob.F.T * (prob.b - t)) @ p

    def roots(s):
        if isinstance(prob.U, Box):
            sigma = np.maximum(prob.U.upper * s, prob.U.lower * s).sum(axis=-1)
            return np.column_stack([sigma - 1.0, s])
        return (prob.U.radius * np.linalg.norm(s, axis=-1) - 1.0)[:, None]

    scan = np.linspace(prob.a, prob.b, 4001)
    values = roots((expm(prob.F.T[None] * (prob.b - scan)[:, None, None]) @ p) @ prob.G)
    points = [prob.a, prob.b]
    for j, col in enumerate(values.T):
        for k in np.flatnonzero(np.sign(col[:-1]) != np.sign(col[1:])):
            points.append(brentq(lambda t: roots(switching(t)[None])[0, j], scan[k], scan[k + 1], xtol=1e-15))
    points = np.unique(points)
    excess = sum(
        quad(lambda t: max(0.0, roots(switching(t)[None])[0, 0]), lo, hi, epsabs=1e-13, epsrel=1e-13)[0]
        for lo, hi in zip(points[:-1], points[1:])
    )
    return float(p @ (prob.B - expm(prob.F * prob.horizon) @ prob.A)) - excess


def with_input_set(prob: Problem, u_set) -> Problem:
    return Problem(F=prob.F, G=prob.G, a=prob.a, b=prob.b, A=prob.A, B=prob.B, U=u_set)


class TestDualBound:
    @pytest.mark.parametrize("family", ["box1", "box2", "ball"])
    def test_matches_quadrature(self, family):
        rng = np.random.default_rng({"box1": 701, "box2": 702, "ball": 703}[family])
        for _ in range(3):
            d = int(rng.integers(2, 4))
            m = 1 if family == "box1" else 2
            prob = random_problem(rng, d=d, m=m)
            if family == "box2":
                prob = with_input_set(prob, Box(-rng.uniform(0.3, 2.0, 2), rng.uniform(0.3, 2.0, 2)))
            elif family == "ball":
                prob = with_input_set(prob, Ball(float(rng.uniform(0.5, 2.0))))
            p = rng.normal(size=d) * 2.0
            ref = quadrature_bound(prob, p)
            assert dual_bound(prob, p) == pytest.approx(ref, abs=1e-10 * max(1.0, abs(ref)))

    def test_two_channel_extremal_support(self):
        # The extremal of test_two_channel_extremal (test_synth.py): (1, 1)
        # until t = 2.8, then off, with multiplier (0.25, 0.2).
        F = np.array([[0.0, 1.0], [0.0, 0.0]])
        box = Box(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
        u = PiecewiseConstantControl([0.0, 2.8, 5.0], [[1.0, 1.0], [0.0, 0.0]])
        free = Problem(F=F, G=np.eye(2), a=0.0, b=5.0, A=np.zeros(2), B=np.zeros(2), U=box)
        prob = Problem(F=F, G=np.eye(2), a=0.0, b=5.0, A=np.zeros(2), B=propagate_exact(free, u).states[-1], U=box)
        assert certify(prob, 1, np.array([0.25, 0.2]), u).passed
        assert dual_bound(prob, np.array([0.25, 0.2])) == pytest.approx(2.8, abs=1e-9)

    def test_certified_benchmarks_close_the_gap(self, ex1, ex2, ex1_synth, ex2_synth):
        # Both benchmarks are singular: sigma_U(s) rides the threshold for
        # the whole horizon, within roundoff of the recovered multiplier.
        for prob, result in ((ex1, ex1_synth), (ex2, ex2_synth)):
            assert result.certified and result.certificate.eta == 1
            assert dual_bound(prob, result.certificate.p_hat) == pytest.approx(result.support, abs=1e-9)
        for jitter in (-1e-15, 0.0, 1e-15):
            assert dual_bound(ex2, np.array([jitter, 1.0 + jitter])) == pytest.approx(3.0, abs=1e-12)

    def test_newton_step_onto_bracket_end_is_kept(self):
        # Near this multiplier a Newton iterate lands exactly on its
        # bracket end. Treating that as outside the bracket took a
        # bisection step away from the converged root (error 7.7e-10).
        prob, _, _ = _roadmap_d3_candidate()
        p = np.array([11.451053961683096, 5.654545853972791, 14.683843085517829])
        assert dual_bound(prob, p) == pytest.approx(quadrature_bound(prob, p), abs=1e-12)

    def test_rejects_wrong_dimension(self, ex2):
        with pytest.raises(ValueError):
            dual_bound(ex2, np.array([1.0]))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1))
def test_duality_gap_is_integrated_hamiltonian_gap(seed):
    # For a control u that meets B, support(u) - g(p) is the integral of
    # gamma(s_p(t), u(t)): a cell-wise trapezoid on 20,001 points plus the
    # breakpoints, each cell at the input in effect on it.
    rng = np.random.default_rng(seed)
    d, m = int(rng.integers(1, 4)), int(rng.integers(1, 3))
    free = with_input_set(random_problem(rng, d=d, m=m), Box(-rng.uniform(1.0, 2.0, m), rng.uniform(1.0, 2.0, m)))
    u = random_control(rng, free.a, free.b, m)
    prob = Problem(F=free.F, G=free.G, a=free.a, b=free.b, A=free.A, B=propagate_exact(free, u).states[-1], U=free.U)
    p = rng.normal(size=d) * 2.0
    grid = sorted_unique(np.concatenate([np.linspace(prob.a, prob.b, 20001), u.breakpoints]))
    s = adjoint_on_grid(prob, AdjointParams(1, p), grid) @ prob.G
    held = u.sample(0.5 * (grid[:-1] + grid[1:]))
    cells = hamiltonian_gap(prob.U, s[:-1], 1, held) + hamiltonian_gap(prob.U, s[1:], 1, held)
    integral = float(0.5 * cells @ np.diff(grid))
    assert l0_cost(u) - dual_bound(prob, p) == pytest.approx(integral, abs=1e-5)


def _weak_duality_case(seed: int, d: int) -> tuple[Problem, float, float]:
    """A feasible box plant (B is the endpoint of a random admissible
    control), the support of its cleaned L1 vertex control with that
    control's endpoint miss."""
    rng = np.random.default_rng(seed)
    free = random_problem(rng, d=d, m=1)
    u = random_control(rng, free.a, free.b)
    prob = Problem(F=free.F, G=free.G, a=free.a, b=free.b, A=free.A, B=propagate_exact(free, u).states[-1], U=free.U)
    vertex, _ = l1_solve(prob, 200)
    clean = PiecewiseConstantControl(vertex.breakpoints, np.where(np.abs(vertex.values) > 1e-9, vertex.values, 0.0))
    return prob, float(l0_cost(clean)), float(endpoint_residual(propagate_exact(prob, clean), prob.B))


@pytest.fixture(scope="module")
def weak_duality_cases():
    cases = []
    for seed, d in ((811, 1), (812, 2), (813, 2), (814, 3), (815, 3)):
        prob, vertex_support, vertex_miss = _weak_duality_case(seed, d)
        try:
            synth = synth_l0(prob, k_max=3)
        except NoFeasibleStructureError:
            synth = None
        cases.append((prob, vertex_support, vertex_miss, synth))
    return cases


@settings(max_examples=60, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(case=st.integers(0, 4), raw=st.lists(st.floats(-4.0, 4.0), min_size=3, max_size=3))
def test_weak_duality(weak_duality_cases, case, raw):
    # A control that misses B by r has support >= g(p) - <p, r>.
    prob, vertex_support, vertex_miss, synth = weak_duality_cases[case]
    p = np.array(raw[: prob.d])
    bound = dual_bound(prob, p)
    norm = float(np.linalg.norm(p))
    assert bound <= vertex_support + norm * vertex_miss + 1e-9
    if synth is not None:
        assert bound <= synth.support + norm * synth.residual + 1e-9
        assert synth.lower_bound <= synth.support + 1e-9
