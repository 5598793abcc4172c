"""Exact LTI propagation, RK4 for callback dynamics, and the Hamiltonian
profile along trajectories."""

import numpy as np
import pytest
import scipy.linalg

from conftest import pendulum_jac, pendulum_phi, random_control, random_problem
from handsoff.control_law import AdjointParams
from handsoff.model import Box, PiecewiseConstantControl, Problem
from handsoff.sim import (
    BlowUpError,
    NonlinearDynamics,
    endpoint_residual,
    hamiltonian_profile,
    linear_dynamics,
    propagate_exact,
    propagate_rk4,
    save_trajectory,
)


class TestPropagateExact:
    def test_reference_control_hits_origin(self, ex2, ex2_control):
        traj = propagate_exact(ex2, ex2_control)
        assert endpoint_residual(traj, ex2.B) < 1e-9
        assert np.array_equal(traj.states[0], ex2.A)

    def test_zero_control_driftless(self, ex1):
        u = PiecewiseConstantControl([0.0, 5.0], [[0.0]])
        traj = propagate_exact(ex1, u)
        assert np.abs(traj.states - 3.0).max() < 1e-14

    def test_example_1_steering(self, ex1, ex1_control):
        traj = propagate_exact(ex1, ex1_control)
        assert endpoint_residual(traj, ex1.B) < 1e-12

    def test_grid_contains_breakpoints(self, ex2, ex2_control):
        traj = propagate_exact(ex2, ex2_control)
        for bp in ex2_control.breakpoints:
            assert np.any(np.isclose(traj.grid, bp, atol=0.0))

    def test_breakpoint_refinement_invariance(self, ex2, ex2_control):
        traj = propagate_exact(ex2, ex2_control)
        # Split the middle segment; values unchanged.
        bps = np.insert(ex2_control.breakpoints, 2, 3.0)
        vals = np.insert(ex2_control.values, 1, 1.0, axis=0)
        split = PiecewiseConstantControl(bps, vals)
        traj2 = propagate_exact(ex2, split)
        shared = np.intersect1d(traj.grid, traj2.grid)
        for t in shared:
            i = int(np.flatnonzero(traj.grid == t)[0])
            j = int(np.flatnonzero(traj2.grid == t)[0])
            assert np.abs(traj.states[i] - traj2.states[j]).max() < 1e-11

    def test_endpoint_affine_superposition(self):
        rng = np.random.default_rng(401)
        for _ in range(20):
            prob = random_problem(rng, d=2, m=1)
            bps = np.array([0.0, 1.0, prob.b])
            v1 = rng.uniform(-0.5, 0.5, (2, 1))
            v2 = rng.uniform(-0.5, 0.5, (2, 1))
            lam = rng.uniform(0.0, 1.0)
            mix = lam * v1 + (1 - lam) * v2

            def end(vals):
                u = PiecewiseConstantControl(bps, vals)
                return propagate_exact(prob, u, samples=40).states[-1]

            blended = lam * end(v1) + (1 - lam) * end(v2)
            assert np.abs(end(mix) - blended).max() < 1e-9

    def test_matches_expm_stepping_oracle(self):
        # Independent oracle: step grid point to grid point with scipy's
        # expm of the augmented matrix [[F, G], [0, 0]].
        rng = np.random.default_rng(409)
        prob = random_problem(rng, d=3, m=2)
        interior = np.sort(rng.uniform(prob.a, prob.b, 39))
        # Two breakpoints inside one grid cell: a segment whose only grid
        # point after its start is its end.
        interior = np.append(interior, interior[10] + 1e-4)
        breakpoints = np.concatenate([[prob.a], np.sort(interior), [prob.b]])
        values = rng.uniform(-1.0, 1.0, (breakpoints.size - 1, 2))
        values[rng.random(breakpoints.size - 1) < 0.3] = 0.0
        u = PiecewiseConstantControl(breakpoints, values)
        traj = propagate_exact(prob, u, samples=200)
        per_segment = np.bincount(
            np.searchsorted(u.breakpoints, traj.grid[1:], side="left") - 1, minlength=u.values.shape[0]
        )
        assert per_segment.min() == 1

        aug = np.zeros((5, 5))
        aug[:3, :3] = prob.F
        aug[:3, 3:] = prob.G
        z = prob.A.copy()
        for i in range(1, traj.grid.size):
            e = scipy.linalg.expm(aug * (traj.grid[i] - traj.grid[i - 1]))
            z = e[:3, :3] @ z + e[:3, 3:] @ u.sample(traj.grid[i - 1])
            assert np.abs(traj.states[i] - z).max() < 1e-11

    def test_dimension_mismatch_rejected(self, ex2):
        u = PiecewiseConstantControl([0.0, 5.0], [[0.0, 0.0]])
        with pytest.raises(Exception):
            propagate_exact(ex2, u)


class TestPropagateRk4:
    def test_linear_callback_matches_exact(self, ex2, ex2_control):
        traj_exact = propagate_exact(ex2, ex2_control)
        dyn = linear_dynamics(ex2)
        traj_rk4 = propagate_rk4(dyn, ex2_control, ex2.A, steps=2000)
        assert np.abs(traj_rk4.states[-1] - traj_exact.states[-1]).max() < 1e-6

    def test_constant_dynamics(self):
        dyn = NonlinearDynamics(d=2, m=1, phi=lambda z, u: np.zeros(2))
        u = PiecewiseConstantControl([0.0, 1.0], [[0.0]])
        traj = propagate_rk4(dyn, u, np.array([1.0, -1.0]), steps=50)
        assert np.abs(traj.states - np.array([1.0, -1.0])).max() == 0.0

    def test_exponential_decay(self):
        dyn = NonlinearDynamics(d=1, m=1, phi=lambda z, u: -z)
        u = PiecewiseConstantControl([0.0, 1.0], [[0.0]])
        traj = propagate_rk4(dyn, u, np.array([1.0]), steps=200)
        assert abs(traj.states[-1, 0] - np.exp(-1.0)) < 1e-8

    def test_order_four_convergence(self):
        # Single-segment controls keep the per-segment step counts exactly
        # doubling; the base step must be fine enough for the asymptotic
        # regime but coarse enough to stay above roundoff.
        rng = np.random.default_rng(409)
        ratios = []
        for _ in range(8):
            prob = random_problem(rng, d=2, m=1)
            u = PiecewiseConstantControl(
                [prob.a, prob.b], rng.uniform(-1.0, 1.0, (1, 1))
            )
            exact = propagate_exact(prob, u, samples=50).states[-1]
            dyn = linear_dynamics(prob)
            err = {}
            for steps in (64, 128):
                end = propagate_rk4(dyn, u, prob.A, steps=steps).states[-1]
                err[steps] = np.linalg.norm(end - exact)
            if err[128] > 1e-12:  # below that, roundoff contaminates the ratio
                ratios.append(err[64] / err[128])
        assert ratios, "all test plants integrated too exactly to measure order"
        for ratio in ratios:
            assert 10.0 <= ratio <= 24.0

    def test_blowup_signal(self):
        dyn = NonlinearDynamics(d=1, m=1, phi=lambda z, u: z * z * 1e6)
        u = PiecewiseConstantControl([0.0, 10.0], [[0.0]])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(BlowUpError):
                propagate_rk4(dyn, u, np.array([10.0]), steps=100)

    def test_step_floor_enforced(self, ex1_control):
        dyn = NonlinearDynamics(d=1, m=1, phi=lambda z, u: u)
        with pytest.raises(ValueError):
            propagate_rk4(dyn, ex1_control, np.array([3.0]), steps=5)


class TestJacobians:
    PHI = staticmethod(pendulum_phi)

    def test_defect_zero_without_callback(self):
        dyn = NonlinearDynamics(d=2, m=1, phi=self.PHI)
        assert dyn.jacobian_defect(np.array([0.3, -0.1]), np.array([0.2])) == 0.0

    def test_correct_callback_consistent(self):
        dyn = NonlinearDynamics(
            d=2,
            m=1,
            phi=self.PHI,
            jac_z=pendulum_jac,
        )
        assert dyn.jacobian_defect(np.array([0.3, -0.1]), np.array([0.2])) < 1e-6

    def test_wrong_callback_flagged(self):
        dyn = NonlinearDynamics(
            d=2, m=1, phi=self.PHI, jac_z=lambda z, u: np.broadcast_to(np.eye(2), np.shape(z)[:-1] + (2, 2))
        )
        assert dyn.jacobian_defect(np.array([0.3, -0.1]), np.array([0.2])) > 0.5

    def test_fd_fallback_matches_analytic(self):
        dyn = NonlinearDynamics(d=2, m=1, phi=self.PHI)
        got = dyn.jacobian(np.array([0.3, -0.1]), np.array([0.2]))
        want = np.array([[0.0, 1.0], [-np.cos(0.3), 0.0]])
        assert np.abs(got - want).max() < 1e-6

    def test_stacked_points_match_single_points(self):
        rng = np.random.default_rng(5)
        z, u = rng.uniform(-1.0, 1.0, (4, 3, 2)), rng.uniform(-1.0, 1.0, (4, 3, 1))
        for dyn in (NonlinearDynamics(d=2, m=1, phi=self.PHI), NonlinearDynamics(2, 1, self.PHI, pendulum_jac)):
            got = dyn.jacobian(z, u)
            assert got.shape == (4, 3, 2, 2)
            for idx in np.ndindex(4, 3):
                assert np.array_equal(got[idx], dyn.jacobian(z[idx], u[idx]))

    def test_result_shape_outside_the_contract_raises(self):
        z, u = np.zeros((5, 2)), np.zeros((5, 1))
        single = NonlinearDynamics(d=2, m=1, phi=lambda z, u: np.zeros(2), jac_z=lambda z, u: np.eye(2))
        with pytest.raises(ValueError, match=r"jac_z must map z of shape \(\.\.\., d\).*got \(2, 2\)"):
            single.jacobian(z, u)
        with pytest.raises(ValueError, match=r"phi must map z of shape \(\.\.\., d\).*got \(2,\)"):
            NonlinearDynamics(d=2, m=1, phi=single.phi).jacobian(z, u)


class TestEndpointResidual:
    def test_exact_hit(self, ex1, ex1_control):
        traj = propagate_exact(ex1, ex1_control)
        assert endpoint_residual(traj, np.array([traj.states[-1, 0]])) == 0.0

    def test_reference_residual(self, ex2, ex2_control):
        traj = propagate_exact(ex2, ex2_control)
        assert endpoint_residual(traj, ex2.B) <= 1e-9

    def test_zero_control_misses(self, ex2):
        u = PiecewiseConstantControl([0.0, 5.0], [[0.0]])
        traj = propagate_exact(ex2, u)
        # Drift alone: z(5) = (10 - 15, -3).
        assert endpoint_residual(traj, ex2.B) == pytest.approx(np.sqrt(34.0), abs=1e-10)


class TestHamiltonianProfile:
    def test_singular_certificate_constant_one(self, ex2, ex2_control):
        ap = AdjointParams(1, np.array([0.0, 1.0]))
        traj = propagate_exact(ex2, ex2_control)
        prof = hamiltonian_profile(ex2, ap, traj, ex2_control)
        kept = prof.values[prof.off_breakpoint]
        assert np.abs(kept - 1.0).max() < 1e-9

    def test_zero_dynamics_constant_eta(self):
        prob = Problem(
            F=np.zeros((1, 1)),
            G=np.ones((1, 1)),
            a=0.0,
            b=2.0,
            A=np.zeros(1),
            B=np.zeros(1),
            U=Box(np.array([-1.0]), np.array([1.0])),
        )
        u = PiecewiseConstantControl([0.0, 2.0], [[0.0]])
        ap = AdjointParams(1, np.array([0.0]))
        prof = hamiltonian_profile(prob, ap, propagate_exact(prob, u), u)
        assert np.abs(prof.values - 1.0).max() == 0.0

    def test_example_1_certificate(self, ex1, ex1_control):
        ap = AdjointParams(1, np.array([-1.0]))
        traj = propagate_exact(ex1, ex1_control)
        prof = hamiltonian_profile(ex1, ap, traj, ex1_control)
        kept = prof.values[prof.off_breakpoint]
        assert np.abs(kept - 1.0).max() < 1e-12

    def test_spread_helper(self):
        from handsoff.sim import HamiltonianProfile

        prof = HamiltonianProfile(
            values=np.array([1.0, 1.1, 0.9, 5.0]),
            off_breakpoint=np.array([True, True, True, False]),
        )
        assert prof.spread() == pytest.approx(0.2)


def test_trajectory_csv_columns(tmp_path, ex2, ex2_control):
    traj = propagate_exact(ex2, ex2_control)
    ap = AdjointParams(1, np.array([0.0, 1.0]))
    path = tmp_path / "traj.csv"
    save_trajectory(traj, path, prob=ex2, ap=ap)
    header = path.read_text().splitlines()[0].split(",")
    assert header == ["t", "z_1", "z_2", "u_1", "s_1", "H"]
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert data.shape[1] == 6
    # Hamiltonian column is constant 1 along the certificate.
    assert np.abs(data[:, 5] - 1.0).max() < 1e-9


def test_trajectory_csv_bytes_match_per_row_text(tmp_path, ex2, ex2_control):
    # The whole file is one format operation; each row formatted on its own
    # gives the same text.
    traj = propagate_exact(ex2, ex2_control)
    ap = AdjointParams(1, np.array([0.0, 1.0]))
    ex = hamiltonian_profile(ex2, ap, traj, None)
    path = tmp_path / "traj.csv"
    for with_ap in (False, True):
        save_trajectory(traj, path, prob=ex2, ap=ap if with_ap else None)
        columns = [traj.grid[:, None], traj.states, traj.controls]
        header = "t,z_1,z_2,u_1"
        if with_ap:
            columns += [ex.costates @ ex2.G, ex.values[:, None]]
            header += ",s_1,H"
        table = np.hstack(columns)
        row = ",".join(["%.17g"] * table.shape[1])
        lines = [header] + [row % tuple(r) for r in table.tolist()]
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()
