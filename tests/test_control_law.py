"""Costate flow, switching function, and bang-off-bang selection rules,
cross-checked against the brute-force Hamiltonian argmax."""

import itertools

import numpy as np
import pytest

from conftest import random_problem
from handsoff.control_law import (
    AdjointParams,
    adjoint_at,
    argmax_hamiltonian_bruteforce,
    _input_grid,
    bang_off_bang,
    candidates_at,
    hamiltonian_gap,
    pointwise_hamiltonian,
    switching_function,
)
from handsoff.model import Ball, Box, Problem


class TestAdjointParams:
    def test_rejects_trivial_pair(self):
        with pytest.raises(ValueError):
            AdjointParams(0, np.zeros(2))

    def test_abnormal_normalized(self):
        ap = AdjointParams(0, np.array([3.0, 4.0]))
        assert np.allclose(ap.p_hat, [0.6, 0.8])

    def test_normal_kept_verbatim(self):
        ap = AdjointParams(1, np.array([0.0, 2.0]))
        assert np.array_equal(ap.p_hat, [0.0, 2.0])

    def test_rejects_bad_eta(self):
        with pytest.raises(ValueError):
            AdjointParams(2, np.array([1.0]))


class TestAdjointFlow:
    def test_blocked_grid_matches_one_kernel_call(self):
        from handsoff.control_law import GRID_BLOCK, adjoint_on_grid
        from handsoff.linalg import ExpKernel

        prob = random_problem(np.random.default_rng(5), d=4, m=1)
        ap = AdjointParams(1, np.array([0.5, -1.0, 2.0, 0.25]))
        grid = np.linspace(prob.a, prob.b, 3 * GRID_BLOCK + 17)
        whole = ExpKernel(prob.F.T)(prob.b - grid) @ ap.p_hat
        blocked = adjoint_on_grid(prob, ap, grid)
        assert blocked.shape == whole.shape
        assert np.abs(blocked - whole).max() <= 1e-14 * np.abs(whole).max()

    def test_terminal_value(self, ex2):
        ap = AdjointParams(1, np.array([0.3, -0.7]))
        assert np.allclose(adjoint_at(ex2, ap, ex2.b), ap.p_hat)

    def test_double_integrator_closed_form(self, ex2):
        # p1 constant, p2(t) = p1*(b - t) + p2(b).
        ap = AdjointParams(1, np.array([2.0, -1.0]))
        for t in (0.0, 1.3, 4.9):
            p = adjoint_at(ex2, ap, t)
            assert p[0] == pytest.approx(2.0, abs=1e-14)
            assert p[1] == pytest.approx(2.0 * (5.0 - t) - 1.0, abs=1e-12)

    def test_driftless_plant_constant(self, ex1):
        ap = AdjointParams(1, np.array([0.4]))
        for t in (0.0, 2.5, 5.0):
            assert adjoint_at(ex1, ap, t)[0] == pytest.approx(0.4, abs=0)

    def test_time_outside_horizon_rejected(self, ex2):
        ap = AdjointParams(1, np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            adjoint_at(ex2, ap, 5.5)


class TestSwitchingFunction:
    def test_singular_certificate_is_constant_one(self, ex2):
        ap = AdjointParams(1, np.array([0.0, 1.0]))
        for t in np.linspace(0.0, 5.0, 11):
            assert switching_function(ex2, ap, t)[0] == pytest.approx(1.0, abs=1e-13)

    def test_ramp_for_first_component(self, ex2):
        ap = AdjointParams(1, np.array([1.0, 0.0]))
        for t in (0.0, 2.0, 5.0):
            assert switching_function(ex2, ap, t)[0] == pytest.approx(5.0 - t, abs=1e-12)

    def test_terminal_value_is_gtp(self, ex2):
        ap = AdjointParams(1, np.array([0.8, -0.2]))
        assert switching_function(ex2, ap, 5.0)[0] == pytest.approx(-0.2, abs=1e-14)


class TestPointwiseHamiltonian:
    def test_zero_input_collects_bonus(self, ex2):
        ap = AdjointParams(1, np.array([0.0, 1.0]))
        z = np.array([1.0, -2.0])
        # <p, F z> = p1 * z2 = 0 here, so H = eta.
        assert pointwise_hamiltonian(ex2, ap, z, np.array([0.0]), 1.0) == pytest.approx(1.0)

    def test_unit_input_on_singular_certificate(self, ex2):
        ap = AdjointParams(1, np.array([0.0, 1.0]))
        z = np.array([0.0, 0.7])
        assert pointwise_hamiltonian(ex2, ap, z, np.array([1.0]), 2.0) == pytest.approx(1.0)

    def test_linear_in_costate_scale(self, ex2):
        z = np.array([0.5, 0.5])
        v = np.array([0.5])
        base = pointwise_hamiltonian(ex2, AdjointParams(1, np.array([1.0, 2.0])), z, v, 1.0)
        # eta = 1 bonus is zero for nonzero v, so doubling p doubles H.
        doubled = pointwise_hamiltonian(ex2, AdjointParams(1, np.array([2.0, 4.0])), z, v, 1.0)
        assert doubled == pytest.approx(2.0 * base, rel=1e-12)

    def test_rejects_inadmissible_input(self, ex2):
        ap = AdjointParams(1, np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            pointwise_hamiltonian(ex2, ap, np.zeros(2), np.array([1.5]), 1.0)

    def test_callback_dynamics_path(self, ex2):
        # A callback phi equal to the plant's own field must reproduce the
        # linear evaluation; a shifted field must show the shift.
        ap = AdjointParams(1, np.array([0.5, -0.3]))
        z = np.array([1.0, 2.0])
        v = np.array([0.25])
        linear = pointwise_hamiltonian(ex2, ap, z, v, 1.5)
        same = pointwise_hamiltonian(
            ex2, ap, z, v, 1.5, phi=lambda zz, vv: ex2.F @ zz + ex2.G @ vv
        )
        assert same == pytest.approx(linear, abs=1e-12)
        shifted = pointwise_hamiltonian(
            ex2, ap, z, v, 1.5, phi=lambda zz, vv: ex2.F @ zz + ex2.G @ vv + 1.0
        )
        p = np.array([0.5, 0.5 * (5.0 - 1.5) - 0.3])
        assert shifted - linear == pytest.approx(p.sum(), abs=1e-12)


def rule(u_set, s, eta):
    return bang_off_bang(u_set, np.atleast_1d(np.asarray(s, dtype=float)), eta)


def identity_plant(box):
    """F = 0, G = I: the switching value is p_hat itself at every t."""
    m = box.dim
    return Problem(F=np.zeros((m, m)), G=np.eye(m), a=0.0, b=1.0, A=np.zeros(m), B=np.zeros(m), U=box)


class TestBoxLaw:
    BOX = Box(np.array([-1.0]), np.array([1.0]))

    def test_saturates_above_threshold(self):
        r = rule(self.BOX, 2.0, 1)
        assert r.on and not r.zero and r.bang.tolist() == [1.0]

    def test_off_inside_band(self):
        for s in (0.5, -0.99):
            r = rule(self.BOX, s, 1)
            assert r.zero and not r.on

    def test_tie_set_at_threshold(self):
        for s, bang in ((1.0, 1.0), (-1.0, -1.0)):
            r = rule(self.BOX, s, 1)
            assert r.zero and r.on and r.bang.tolist() == [bang]

    def test_abnormal_sign_rule(self):
        for s, bang in ((-3.0, -1.0), (0.2, 1.0)):
            r = rule(self.BOX, s, 0)
            assert r.on and not r.zero and r.bang.tolist() == [bang] and not r.free.any()

    def test_abnormal_degenerate_channel(self):
        # At s = 0 the abnormal maximizer is the whole interval.
        r = rule(self.BOX, 0.0, 0)
        assert r.on and r.free.all()
        assert hamiltonian_gap(self.BOX, [0.0], 0, [[0.37], [-1.0], [1.0]]).tolist() == [0.0] * 3
        # A free channel beside a saturated one: any value of the free one
        # maximizes, a value short of the bang on the other does not.
        box = Box(np.array([-1.0, -2.0]), np.array([1.5, 1.0]))
        gaps = hamiltonian_gap(box, [0.0, 2.0], 1, [[0.37, 1.0], [-1.0, 1.0], [1.5, 1.0], [0.37, 0.5]])
        assert gaps.tolist() == [0.0, 0.0, 0.0, 1.0]

    def test_gap_in_tie_band(self):
        # Around the threshold s = 1 the zero input and the bang both fall
        # short by at most |s - 1|; the opposite bound by s + max(s, 1).
        for s in (1.0 - 5e-10, 1.0, 1.0 + 5e-10):
            gaps = hamiltonian_gap(self.BOX, [s], 1, [[0.0], [1.0], [-1.0]])
            assert gaps[0] == pytest.approx(max(s - 1.0, 0.0), abs=1e-15)
            assert gaps[1] == pytest.approx(max(1.0 - s, 0.0), abs=1e-15)
            assert gaps[2] == pytest.approx(2.0, abs=2e-9)

    def test_general_box_threshold_scaling(self):
        box = Box(np.array([-0.5]), np.array([2.0]))
        # Saturation requires s * upper > 1, i.e. s > 0.5 on the high side;
        # on the low side s * lower > 1 needs s < -2.
        cases = ((0.6, True, 2.0), (0.4, False, 2.0), (-2.5, True, -0.5), (-1.5, False, -0.5))
        for s, saturates, bang in cases:
            r = rule(box, s, 1)
            assert (bool(r.on), bool(r.zero)) == (saturates, not saturates)
            assert r.bang.tolist() == [bang]

    def test_candidates_lie_in_set(self):
        rng = np.random.default_rng(211)
        box = Box(np.array([-1.0, -2.0]), np.array([1.5, 1.0]))
        prob = identity_plant(box)
        for _ in range(200):
            ap = AdjointParams(int(rng.integers(0, 2)), rng.uniform(-3.0, 3.0, 2))
            for vec in candidates_at(prob, ap, 0.5).vectors():
                assert box.contains(vec)

    def test_vectorized_matches_pointwise(self):
        rng = np.random.default_rng(223)
        box = Box(np.array([-1.0, -2.0]), np.array([1.5, 1.0]))
        s = rng.uniform(-2.0, 2.0, (7, 5, 2))
        u = rng.uniform(-1.0, 1.0, (5, 2))
        for eta in (0, 1):
            stacked = bang_off_bang(box, s, eta)
            gap = hamiltonian_gap(box, s, eta, u)
            assert gap.shape == (7, 5)
            for i, j in np.ndindex(7, 5):
                single = bang_off_bang(box, s[i, j], eta)
                assert single.gain == stacked.gain[i, j]
                assert hamiltonian_gap(box, s[i, j], eta, u[j]) == gap[i, j]


class TestInputGrid:
    def test_box_axes_are_capped_keeping_vertices_and_zero(self):
        # floor(1001^(2/m)) points per axis: about a million inputs at most.
        for m, side in ((1, 10001), (2, 1001), (3, 100)):
            box = Box(-np.arange(1.0, m + 1.0), 0.7 * np.arange(1.0, m + 1.0))
            grid = _input_grid(box, m, 10001)
            axes = [np.unique(grid[:, i]) for i in range(m)]
            assert [ax.size for ax in axes] == [side + 1] * m  # the axis points and 0
            assert grid.shape == ((side + 1) ** m, m)
            for vertex in itertools.product(*zip(box.lower, box.upper)):
                assert np.any(np.all(grid == vertex, axis=1))
            assert np.any(np.all(grid == 0.0, axis=1))


class TestBallLaw:
    BALL = Ball(1.0)

    def test_off_inside_band(self):
        r = rule(self.BALL, [0.3, 0.4], 1)
        assert r.zero and not r.on

    def test_normalized_direction(self):
        r = rule(self.BALL, [3.0, 4.0], 1)
        assert r.on and not r.zero and np.allclose(r.bang, [0.6, 0.8])

    def test_zero_switching_value(self):
        r = rule(self.BALL, [0.0, 0.0], 1)
        assert r.zero and not r.on
        r0 = rule(self.BALL, [0.0, 0.0], 0)
        assert r0.on and r0.free.all()
        assert hamiltonian_gap(self.BALL, [0.0, 0.0], 0, [0.3, -0.5]) == 0.0
        assert hamiltonian_gap(self.BALL, [0.0, 0.0], 1, [[0.0, 0.0], [0.3, -0.5]]).tolist() == [0.0, 1.0]

    def test_tie_keeps_both(self):
        r = rule(self.BALL, [1.0, 0.0], 1)
        assert r.zero and r.on

    def test_radius_scales_threshold(self):
        # radius 2: saturation when 2 * ||s|| > 1.
        r = rule(Ball(2.0), [0.6, 0.0], 1)
        assert r.on and not r.zero and np.allclose(r.bang, [2.0, 0.0])
        assert rule(Ball(2.0), [0.4, 0.0], 1).zero


class TestBruteForceOracle:
    def test_strong_negative_costate_saturates(self, ex1):
        ap = AdjointParams(1, np.array([-2.0]))
        got = argmax_hamiltonian_bruteforce(ex1, ap, np.array([0.0]), 1.0, 10001)
        assert len(got) == 1 and got[0][0] == pytest.approx(-1.0)

    def test_weak_costate_stays_off(self, ex1):
        ap = AdjointParams(1, np.array([0.5]))
        got = argmax_hamiltonian_bruteforce(ex1, ap, np.array([0.0]), 1.0, 10001)
        assert len(got) == 1 and got[0][0] == 0.0

    def test_indicator_only(self, ex2):
        ap = AdjointParams(1, np.array([0.0, 0.0]))
        got = argmax_hamiltonian_bruteforce(ex2, ap, np.zeros(2), 1.0, 1001)
        assert len(got) == 1 and np.allclose(got[0], 0.0)

    def test_analytic_law_contained_in_argmax(self):
        rng = np.random.default_rng(307)
        prob = random_problem(rng, d=2, m=1, stable=False)
        violations = 0
        for _ in range(250):
            p_hat = rng.uniform(-3.0, 3.0, 2)
            if np.linalg.norm(p_hat) < 1e-6:
                continue
            eta = int(rng.integers(0, 2))
            t = rng.uniform(prob.a, prob.b)
            ap = AdjointParams(eta, p_hat)
            analytic = candidates_at(prob, ap, t)
            brute = argmax_hamiltonian_bruteforce(prob, ap, np.zeros(2), t, 10001)
            for vec in analytic.vectors():
                dist = min(np.abs(vec - b).max() for b in brute)
                # Grid resolution bounds how close a grid argmax can be.
                if dist > 2.5e-4:
                    violations += 1
        assert violations == 0

    def test_abnormal_scale_invariance(self, ex2):
        rng = np.random.default_rng(311)
        for _ in range(100):
            p_hat = rng.uniform(-2.0, 2.0, 2)
            if np.linalg.norm(p_hat) < 1e-3:
                continue
            t = rng.uniform(0.0, 5.0)
            base = candidates_at(ex2, AdjointParams(0, p_hat), t)
            for alpha in (0.5, 2.0, 10.0):
                scaled = candidates_at(ex2, AdjointParams(0, alpha * p_hat), t)
                assert scaled == base

    def test_off_band_unique_zero(self, ex2):
        rng = np.random.default_rng(313)
        s = rng.uniform(-1.0 + 1e-6, 1.0 - 1e-6, (200, 1))
        r = bang_off_bang(ex2.U, s, 1)
        assert r.zero.all() and not r.on.any()

    def test_two_channel_box_inside_argmax(self):
        # The first draw is the whole-vector case: 0.6 per channel misses
        # the unit threshold, but <s, (1, 1)> = 1.2 clears it.
        rng = np.random.default_rng(401)
        draws = [(np.array([0.6, 0.6]), 1, Box(-np.ones(2), np.ones(2)))]
        for _ in range(150):
            box = Box(-rng.uniform(0.3, 2.0, 2), rng.uniform(0.3, 2.0, 2))
            draws.append((rng.uniform(-2.0, 2.0, 2), int(rng.integers(0, 2)), box))
        for s, eta, box in draws:
            prob = identity_plant(box)
            ap = AdjointParams(eta, s)
            brute = argmax_hamiltonian_bruteforce(prob, ap, np.zeros(2), 0.5, 201)
            for vec in candidates_at(prob, ap, 0.5).vectors():
                assert min(np.abs(vec - b).max() for b in brute) <= 1e-12, (s, eta, box, vec)

    def test_gap_is_shortfall_below_grid_maximum(self):
        # A box's input grid holds every vertex, so its best Hamiltonian
        # value is the supremum, and gamma is each input's shortfall below it.
        rng = np.random.default_rng(409)
        for _ in range(40):
            box = Box(-rng.uniform(0.3, 2.0, 2), rng.uniform(0.3, 2.0, 2))
            s, eta = rng.uniform(-2.0, 2.0, 2), int(rng.integers(0, 2))
            grid = _input_grid(box, 2, 41)
            values = grid @ s + eta * np.all(grid == 0.0, axis=1)
            assert np.abs(hamiltonian_gap(box, s, eta, grid) - (values.max() - values)).max() <= 1e-12
