"""Domain types, support-measure costs, and serialization round trips."""

import json

import numpy as np
import pytest

from conftest import random_control
from handsoff.model import (
    Ball,
    Box,
    PiecewiseConstantControl,
    Problem,
    ValidationError,
    l0_cost,
    l1_cost,
    load_control,
    load_problem,
    save_control,
    zero_time,
)

EX2_JSON = {
    "F": [[0.0, 1.0], [0.0, 0.0]],
    "G": [[0.0], [1.0]],
    "a": 0.0,
    "b": 5.0,
    "A": [10.0, -3.0],
    "B": [0.0, 0.0],
    "U": {"kind": "box", "lower": [-1.0], "upper": [1.0]},
}


class TestLoadProblem:
    def test_loads_benchmark_file(self, tmp_path):
        path = tmp_path / "prob.json"
        path.write_text(json.dumps(EX2_JSON))
        prob = load_problem(path)
        assert prob.d == 2 and prob.m == 1
        assert prob.b == 5.0
        assert np.array_equal(prob.A, [10.0, -3.0])
        assert isinstance(prob.U, Box)

    def test_empty_horizon_rejected(self, tmp_path):
        bad = dict(EX2_JSON, b=0.0)
        path = tmp_path / "prob.json"
        path.write_text(json.dumps(bad))
        with pytest.raises(ValidationError) as err:
            load_problem(path)
        assert err.value.field == "b"

    def test_zero_on_box_boundary_rejected(self, tmp_path):
        bad = dict(EX2_JSON, U={"kind": "box", "lower": [0.0], "upper": [1.0]})
        path = tmp_path / "prob.json"
        path.write_text(json.dumps(bad))
        with pytest.raises(ValidationError) as err:
            load_problem(path)
        assert "lower" in err.value.field

    def test_missing_key_names_field(self, tmp_path):
        bad = {k: v for k, v in EX2_JSON.items() if k != "G"}
        path = tmp_path / "prob.json"
        path.write_text(json.dumps(bad))
        with pytest.raises(ValidationError) as err:
            load_problem(path)
        assert err.value.field == "G"

    def test_dimension_mismatch_named(self, tmp_path):
        bad = dict(EX2_JSON, A=[1.0, 2.0, 3.0])
        path = tmp_path / "prob.json"
        path.write_text(json.dumps(bad))
        with pytest.raises(ValidationError) as err:
            load_problem(path)
        assert err.value.field == "A"

    @pytest.mark.parametrize("u_set", [Ball(1.0), Box([], [])])
    def test_no_input_channel_rejected(self, u_set):
        # A G without columns used to pass: solve-l0 then died in the
        # duration fit (ball U) or called the task infeasible (box U).
        with pytest.raises(ValidationError) as err:
            Problem(F=-np.eye(2), G=np.zeros((2, 0)), a=0.0, b=1.0, A=np.ones(2), B=np.zeros(2), U=u_set)
        assert err.value.field == "G"

    def test_malformed_json_raises(self, tmp_path):
        path = tmp_path / "prob.json"
        path.write_text("{not json")
        with pytest.raises(json.JSONDecodeError):
            load_problem(path)

    def test_non_numeric_entry_rejected(self, tmp_path):
        bad = dict(EX2_JSON, F=[["x", 1.0], [0.0, 0.0]])
        path = tmp_path / "prob.json"
        path.write_text(json.dumps(bad))
        with pytest.raises(ValidationError):
            load_problem(path)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("field", ["F", "G", "a", "b", "A", "B", "U.lower", "U.upper", "U.radius"])
    def test_non_finite_entry_names_field(self, tmp_path, field, value):
        data = json.loads(json.dumps(EX2_JSON))
        key, _, bound = field.partition(".")
        if bound == "radius":
            data["U"] = {"kind": "ball", "radius": value}
        elif bound:
            data["U"][bound] = [value]
        else:
            data[key] = np.full(np.shape(data[key]), value).tolist()
        path = tmp_path / "prob.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValidationError) as err:
            load_problem(path)
        assert err.value.field == field

    def test_ball_set(self, tmp_path):
        data = dict(EX2_JSON, U={"kind": "ball", "radius": 2.0})
        path = tmp_path / "prob.json"
        path.write_text(json.dumps(data))
        prob = load_problem(path)
        assert isinstance(prob.U, Ball)
        assert prob.U.contains([1.0, 1.0]) and not prob.U.contains([2.0, 1.0])


class TestL0Cost:
    def test_reference_support_is_three(self, ex2_control):
        assert l0_cost(ex2_control) == pytest.approx(3.0, abs=1e-12)

    def test_zero_control(self):
        u = PiecewiseConstantControl([0.0, 5.0], [[0.0]])
        assert l0_cost(u) == 0.0

    def test_example_1_family_member(self, ex1_control):
        assert l0_cost(ex1_control) == pytest.approx(3.0, abs=1e-12)

    def test_zero_tol_classification(self):
        u = PiecewiseConstantControl([0.0, 1.0, 2.0], [[1e-12], [1.0]])
        assert l0_cost(u, zero_tol=1e-9) == pytest.approx(1.0)
        assert l0_cost(u, zero_tol=0.0) == pytest.approx(2.0)

    def test_support_plus_zero_time_is_horizon(self):
        rng = np.random.default_rng(101)
        for _ in range(200):
            u = random_control(rng, 0.0, 5.0, m=int(rng.integers(1, 3)))
            total = l0_cost(u) + zero_time(u)
            assert abs(total - 5.0) <= 1e-12

    def test_monotone_under_support_growth(self):
        rng = np.random.default_rng(103)
        for _ in range(50):
            u = random_control(rng, 0.0, 5.0)
            off_idx = [
                k
                for k in range(u.values.shape[0])
                if np.all(u.values[k] == 0.0) and u.breakpoints[k + 1] - u.breakpoints[k] > 0.1
            ]
            if not off_idx:
                continue
            k = off_idx[0]
            # Split the off segment and switch its first half on.
            mid = 0.5 * (u.breakpoints[k] + u.breakpoints[k + 1])
            bps = np.insert(u.breakpoints, k + 1, mid)
            vals = np.insert(u.values, k, 0.7, axis=0)
            grown = PiecewiseConstantControl(bps, vals)
            assert l0_cost(grown) >= l0_cost(u)

    def test_clarke_cost_identity(self, ex2_control):
        # The indicator-integral objective support - (b - a) is minus the zero time.
        support = l0_cost(ex2_control)
        assert support - 5.0 == pytest.approx(-zero_time(ex2_control), abs=1e-12)
        assert support == pytest.approx(3.0)
        assert l1_cost(ex2_control) == pytest.approx(3.0)

    def test_two_channel_support_is_whole_vector(self):
        # Channel 1 is on for 1.5 s and channel 2 for 2 s, overlapping for
        # 0.5 s: the support is the 3 s the input vector is nonzero, not
        # the per-channel sum 3.5 s.
        u = PiecewiseConstantControl(
            [0.0, 1.0, 1.5, 3.0, 5.0],
            [[1.0, 0.0], [1.0, 0.5], [0.0, 0.5], [0.0, 0.0]],
        )
        assert l0_cost(u) == pytest.approx(3.0, abs=1e-12)


class TestControlSerialization:
    def test_round_trip_reference(self, ex2_control, tmp_path):
        path = tmp_path / "u.csv"
        save_control(ex2_control, path)
        loaded = load_control(path)
        assert np.array_equal(loaded.breakpoints, ex2_control.breakpoints)
        assert np.array_equal(loaded.values, ex2_control.values)

    def test_round_trip_random(self, tmp_path):
        rng = np.random.default_rng(109)
        for i in range(25):
            u = random_control(rng, -1.0, 3.0, m=int(rng.integers(1, 4)))
            path = tmp_path / f"u{i}.csv"
            save_control(u, path)
            loaded = load_control(path)
            assert np.array_equal(loaded.breakpoints, u.breakpoints)
            assert np.array_equal(loaded.values, u.values)

    def test_bytes_match_per_cell_text(self, tmp_path):
        # The whole file is one format operation; each cell formatted on its
        # own gives the same text.
        rng = np.random.default_rng(1610)
        path = tmp_path / "u.csv"
        for _ in range(25):
            u = random_control(rng, -1.0, 3.0, m=int(rng.integers(1, 4)), max_segments=40)
            values = u.values * 10.0 ** rng.integers(-300, 300, u.values.shape)
            values[rng.random(values.shape) < 0.1] = -0.0
            u = PiecewiseConstantControl(u.breakpoints, values)
            save_control(u, path)
            lines = ["t_start,t_end," + ",".join(f"u_{i + 1}" for i in range(u.m))]
            for k in range(u.values.shape[0]):
                cells = [f"{u.breakpoints[k]:.17g}", f"{u.breakpoints[k + 1]:.17g}"]
                cells += [f"{x:.17g}" for x in u.values[k]]
                lines.append(",".join(cells))
            assert path.read_bytes() == ("\n".join(lines) + "\n").encode()

    def test_single_zero_segment(self, tmp_path):
        u = PiecewiseConstantControl([0.0, 2.0], [[0.0]])
        path = tmp_path / "u.csv"
        save_control(u, path)
        loaded = load_control(path)
        assert np.array_equal(loaded.breakpoints, u.breakpoints)
        assert np.array_equal(loaded.values, u.values)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "u.csv"
        path.write_text("t_start,t_end,u_1\n")
        with pytest.raises(ValidationError):
            load_control(path)

    def test_non_tiling_segments_rejected(self, tmp_path):
        path = tmp_path / "u.csv"
        path.write_text("t_start,t_end,u_1\n0,1,0.5\n2,3,0.0\n")
        with pytest.raises(ValidationError):
            load_control(path)


class TestControlContainer:
    def test_breakpoints_must_increase(self):
        with pytest.raises(ValidationError):
            PiecewiseConstantControl([0.0, 2.0, 1.0], [[0.0], [1.0]])

    def test_right_open_sampling(self, ex2_control):
        theta1 = 11.0 / 6.0
        assert ex2_control.sample(theta1)[0] == 1.0  # right limit at the switch
        assert ex2_control.sample(theta1 - 1e-9)[0] == 0.0
        assert ex2_control.sample(5.0)[0] == 0.0  # final instant takes last segment

    def test_validate_against_problem(self, ex2, ex2_control):
        ex2.validate_control(ex2_control)
        bad = PiecewiseConstantControl([0.0, 5.0], [[2.0]])
        with pytest.raises(ValidationError):
            ex2.validate_control(bad)

    def test_validate_names_first_bad_box_segment(self, ex2):
        u = PiecewiseConstantControl([0.0, 1.0, 2.0, 3.0, 5.0], [[0.5], [1.0 + 1e-9], [1.5], [-2.0]])
        with pytest.raises(ValidationError) as info:
            ex2.validate_control(u)
        assert str(info.value) == "values: segment 2 value [1.5] outside the admissible set"

    def test_validate_names_first_bad_ball_segment(self):
        disk = Problem(F=np.zeros((2, 2)), G=np.eye(2), a=0.0, b=4.0, A=np.zeros(2), B=np.zeros(2), U=Ball(1.0))
        u = PiecewiseConstantControl([0.0, 1.0, 2.0, 3.0, 4.0], [[0.6, 0.8], [0.0, 0.0], [1.0, 0.5], [3.0, 0.0]])
        with pytest.raises(ValidationError) as info:
            disk.validate_control(u)
        assert str(info.value) == "values: segment 2 value [1.  0.5] outside the admissible set"

    @pytest.mark.parametrize("u_set", [Box([-1.0, -0.5], [2.0, 1.0]), Ball(1.5)])
    def test_validate_agrees_with_contains(self, u_set):
        # Values within a few ulps of the boundary, where a differently
        # rounded test would disagree with the per-value one.
        rng = np.random.default_rng(11)
        prob = Problem(F=np.zeros((2, 2)), G=np.eye(2), a=0.0, b=1.0, A=np.zeros(2), B=np.zeros(2), U=u_set)
        edge = np.array([[-1.0, -0.5], [2.0, 1.0]]) if isinstance(u_set, Box) else None
        verdicts = set()
        for _ in range(300):
            if edge is None:
                direction = rng.normal(size=2)
                v = (1.5 + 1e-9) * direction / np.linalg.norm(direction)
            else:
                v = edge[rng.integers(0, 2, 2), [0, 1]] + np.sign(rng.normal(size=2)) * 1e-9
            v = v + rng.integers(-4, 5, 2) * np.spacing(v)
            u = PiecewiseConstantControl([0.0, 1.0], [v])
            inside = u_set.contains(v)
            verdicts.add(inside)
            try:
                prob.validate_control(u)
                assert inside
            except ValidationError:
                assert not inside
        assert verdicts == {True, False}

    def test_immutable_arrays(self, ex2_control):
        with pytest.raises(ValueError):
            ex2_control.values[0, 0] = 7.0


def test_problem_immutable(ex2):
    with pytest.raises(ValueError):
        ex2.F[0, 0] = 5.0


def test_l1_cost_two_channels():
    u = PiecewiseConstantControl([0.0, 1.0, 3.0], [[1.0, -0.5], [0.0, 0.25]])
    assert l1_cost(u) == pytest.approx(1.0 * 1.5 + 2.0 * 0.25, abs=1e-14)


class TestProblemKernels:
    def test_built_once_and_equal_to_fresh_kernels(self, ex2):
        from handsoff.linalg import ExpKernel, mat_exp, zoh_block

        assert ex2.costate_flow is ex2.costate_flow
        assert ex2.zoh_flow is ex2.zoh_flow
        ts = np.array([0.0, 0.3, 5.0, 40.0])
        assert np.array_equal(ex2.costate_flow(ts), ExpKernel(ex2.F.T)(ts))
        assert np.array_equal(ex2.costate_flow(0.3), mat_exp(ex2.F.T, 0.3))
        assert np.array_equal(ex2.zoh_flow(ts), ExpKernel(zoh_block(ex2.F, ex2.G))(ts))
        # A cache lives on its problem only: a problem with another plant
        # gets its own kernels.
        other = Problem(F=2.0 * ex2.F, G=ex2.G, a=ex2.a, b=ex2.b, A=ex2.A, B=ex2.B, U=ex2.U)
        assert other.costate_flow is not ex2.costate_flow
        assert np.array_equal(other.costate_flow(1.0), mat_exp(other.F.T, 1.0))

    def test_kernel_builds_per_call(self, monkeypatch):
        # Noise-free counters: each call below builds at most the fresh
        # problem's two kernels (the LP needs only the ZOH one).
        from handsoff import linalg
        from handsoff.certificate import certify
        from handsoff.lp import l1_solve
        from handsoff.problems import example_2
        from handsoff.synth import synth_l0

        builds = []
        init = linalg.ExpKernel.__init__

        def counted(kernel, m):
            builds.append(m.shape)
            init(kernel, m)

        monkeypatch.setattr(linalg.ExpKernel, "__init__", counted)
        result = synth_l0(example_2())
        assert result.certified and len(builds) <= 2
        builds.clear()
        l1_solve(example_2(), 1000)
        assert len(builds) <= 1
        builds.clear()
        report = certify(example_2(), 1, result.certificate.p_hat, result.control)
        assert report.passed and len(builds) <= 2
