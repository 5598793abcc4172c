"""Command-line surface: exit codes, emitted artifacts, determinism."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from handsoff.cli import main
from handsoff.model import load_problem, save_problem
from handsoff.problems import example_1, example_2


@pytest.fixture(scope="module")
def ex1_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("probs") / "ex1.json"
    save_problem(example_1(), path)
    return path


@pytest.fixture(scope="module")
def ex2_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("probs") / "ex2.json"
    save_problem(example_2(), path)
    return path


@pytest.fixture(scope="module")
def ex2_run(tmp_path_factory):
    """One shared `example ex2` run; several tests inspect its artifacts."""
    out = tmp_path_factory.mktemp("ex2_run")
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(["example", "ex2", "--out", str(out)])
    return code, _parse_kv(buf.getvalue()), out


def _parse_kv(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        if "=" in line:
            key, value = line.split("=", 1)
            out[key] = value
    return out


def _run(capsys, argv):
    code = main(argv)
    return code, _parse_kv(capsys.readouterr().out)


class TestSolveCommands:
    def test_solve_l0_scalar(self, capsys, tmp_path, ex1_file):
        code, kv = _run(capsys, ["solve-l0", str(ex1_file), "--out", str(tmp_path)])
        assert code == 0
        assert float(kv["support"]) == pytest.approx(3.0, abs=1e-4)
        assert kv["certified"] == "true"
        assert (tmp_path / "ex1_l0_control.csv").exists()
        assert (tmp_path / "ex1_l0_trajectory.csv").exists()
        assert (tmp_path / "ex1_l0_solution.json").exists()

    def test_solve_l0_infeasible_horizon(self, capsys, tmp_path):
        prob = example_1()
        from handsoff.model import Problem

        short = Problem(F=prob.F, G=prob.G, a=0.0, b=2.0, A=prob.A, B=prob.B, U=prob.U)
        path = tmp_path / "short.json"
        save_problem(short, path)
        code = main(["solve-l0", str(path), "--out", str(tmp_path)])
        capsys.readouterr()
        assert code == 2

    def test_solve_l0_unreachable_inside_gate_slack(self, capsys, tmp_path):
        # 2.999 units is just short of ex1's minimum time 3: the LP scaling
        # lies inside the gate's slack, so the sweep runs and finds nothing.
        # The error must blame the horizon, not the segment budget.
        from handsoff.lp import linf_feasibility
        from handsoff.model import Problem
        from handsoff.synth import min_time

        prob = example_1()
        short = Problem(F=prob.F, G=prob.G, a=0.0, b=2.999, A=prob.A, B=prob.B, U=prob.U)
        scaling = linf_feasibility(short, short.horizon, 200)
        assert 1.0 + 1e-9 < scaling <= 1.0 + 1e-3
        assert min_time(short) == np.inf
        path = tmp_path / "short.json"
        save_problem(short, path)
        code = main(["solve-l0", str(path), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert f"feasibility scaling {scaling:.9g} exceeds 1" in err
        assert "likely unreachable on the 2.999-unit horizon" in err
        assert "k_max" not in err

    def test_solve_l1_scalar(self, capsys, tmp_path, ex1_file):
        code, kv = _run(
            capsys, ["solve-l1", str(ex1_file), "--intervals", "500", "--out", str(tmp_path)]
        )
        assert code == 0
        assert float(kv["l1_cost"]) == pytest.approx(3.0, abs=1e-3)
        assert (tmp_path / "ex1_l1_control.csv").exists()

    def test_malformed_problem_file(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{oops")
        assert main(["solve-l0", str(path)]) == 1
        capsys.readouterr()

    def test_missing_file(self, capsys):
        assert main(["solve-l0", "/nonexistent/prob.json"]) == 1
        capsys.readouterr()

    def test_bad_intervals_range(self, capsys, ex1_file):
        assert main(["solve-l1", str(ex1_file), "--intervals", "1"]) == 1
        capsys.readouterr()


class TestCertifyCommand:
    def test_reference_certificate_passes(self, capsys, tmp_path, ex2_file, ex2_run):
        _, _, out = ex2_run
        control = out / "ex2_l0_control.csv"
        code = main(
            ["certify", str(ex2_file), str(control), "--eta", "1", "--phat", "0,1"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["passed"] is True
        assert payload["locally_optimal"] is True

    def test_wrong_multiplier_fails(self, capsys, tmp_path, ex2_file, ex2_run):
        _, _, out = ex2_run
        control = out / "ex2_l0_control.csv"
        code = main(
            ["certify", str(ex2_file), str(control), "--eta", "1", "--phat", "1,0"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 3
        assert payload["passed"] is False

    def test_trivial_multiplier_fails(self, capsys, ex2_file, ex2_run):
        _, _, out = ex2_run
        control = out / "ex2_l0_control.csv"
        code = main(
            ["certify", str(ex2_file), str(control), "--eta", "0", "--phat", "0,0"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 3
        assert payload["nontriviality"] is False

    def test_phat_dimension_checked(self, capsys, ex2_file, ex2_run):
        _, _, out = ex2_run
        control = out / "ex2_l0_control.csv"
        code = main(["certify", str(ex2_file), str(control), "--eta", "1", "--phat", "1"])
        capsys.readouterr()
        assert code == 1

    @pytest.mark.parametrize("eta, phat", [("1", "nan,1"), ("1", "0,-inf"), ("0", "inf,0")])
    def test_phat_must_be_finite(self, capsys, ex2_file, ex2_run, eta, phat):
        # A NaN multiplier used to exit 3 with NaN in the report, which is
        # not JSON; an infinite one also warned of an invalid division.
        control = ex2_run[2] / "ex2_l0_control.csv"
        code = main(["certify", str(ex2_file), str(control), "--eta", eta, "--phat", phat])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == f"error: --phat components must be finite, got {phat}\n"

    def test_non_numeric_control_cell(self, capsys, tmp_path, ex2_file):
        # float() used to escape load_control with a traceback.
        control = tmp_path / "bad.csv"
        control.write_text("t_start,t_end,u_1\n0,2,0\n2,5,abc\n")
        code = main(["certify", str(ex2_file), str(control), "--eta", "1", "--phat", "0,1"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("error: invalid problem or control file: row: segment row 2 ")


class TestSingularityCommand:
    def test_benchmark_parameters_shorter_horizon(self, capsys):
        code, kv = _run(capsys, ["singularity", "--xi1", "10", "--xi2", "-3", "--horizon", "4.8"])
        assert code == 0
        assert kv["cond1_xi1_gt_half_xi2_sq"] == "true"
        assert kv["cond2_xi2_negative"] == "true"
        assert kv["cond3_horizon_bound"] == "true"
        assert kv["singular"] == "true"

    def test_first_condition_fails(self, capsys):
        code, kv = _run(capsys, ["singularity", "--xi1", "1", "--xi2", "-3", "--horizon", "1"])
        assert code == 0
        assert kv["cond1_xi1_gt_half_xi2_sq"] == "false"
        assert kv["singular"] == "false"

    def test_third_condition_fails_at_full_horizon(self, capsys):
        code, kv = _run(capsys, ["singularity", "--xi1", "10", "--xi2", "-3", "--horizon", "5"])
        assert code == 0
        assert kv["cond1_xi1_gt_half_xi2_sq"] == "true"
        assert kv["cond2_xi2_negative"] == "true"
        assert kv["cond3_horizon_bound"] == "false"
        assert kv["singular"] == "false"


    # Non-finite conditions used to print all-false, and a negative horizon
    # singular=true.
    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("xi1", "nan", "--xi1 must be finite"),
            ("xi1", "-inf", "--xi1 must be finite"),
            ("xi2", "nan", "--xi2 must be finite"),
            ("xi2", "inf", "--xi2 must be finite"),
            ("horizon", "-5", "--horizon must be finite and positive"),
            ("horizon", "0", "--horizon must be finite and positive"),
            ("horizon", "nan", "--horizon must be finite and positive"),
            ("horizon", "inf", "--horizon must be finite and positive"),
        ],
    )
    def test_bad_input_is_usage_error(self, capsys, flag, value, message):
        args = {"xi1": "10", "xi2": "-3", "horizon": "4.8", flag: value}
        assert main(["singularity"] + [f"--{k}={v}" for k, v in args.items()]) == 1
        captured = capsys.readouterr()
        assert message in captured.err and captured.out == ""


class TestExampleCommand:
    def test_ex2_end_to_end(self, ex2_run):
        code, kv, out = ex2_run
        assert code == 0
        assert float(kv["l0_support"]) == pytest.approx(3.0, abs=1e-4)
        bps = [float(x) for x in kv["l0_breakpoints"].split(",")]
        assert bps[1] == pytest.approx(11.0 / 6.0, abs=1e-3)
        assert bps[2] == pytest.approx(29.0 / 6.0, abs=1e-3)
        assert float(kv["l0_endpoint_residual"]) <= 1e-6
        assert float(kv["l1_cost"]) == pytest.approx(3.0, abs=1e-3)
        # Non-sparsity of the relaxation, directly or by witness.
        if kv["l1_nonsparse"] == "witness":
            assert float(kv["witness_cost"]) <= 3.0 + 1e-6
            assert float(kv["witness_support"]) >= 4.0
            assert float(kv["witness_residual"]) <= 1e-6
        else:
            assert float(kv["l1_support"]) > 3.05
        assert (out / "ex2_comparison.svg").exists()
        assert (out / "ex2.json").exists()

    def test_emitted_control_recertifies(self, ex2_run, ex2_file, capsys):
        code, kv, out = ex2_run
        sidecar = json.loads((out / "ex2_l0_solution.json").read_text())
        assert sidecar["certified"] is True
        phat = ",".join(str(x) for x in sidecar["p_hat"])
        code2 = main(
            [
                "certify",
                str(ex2_file),
                str(out / "ex2_l0_control.csv"),
                "--eta",
                str(sidecar["eta"]),
                "--phat",
                phat,
            ]
        )
        capsys.readouterr()
        assert code2 == 0

    def test_benchmarks_report_closed_gap(self, capsys, tmp_path, ex1_file, ex2_run):
        code, kv = _run(capsys, ["solve-l0", str(ex1_file), "--out", str(tmp_path)])
        _, ex2_kv, ex2_out = ex2_run
        assert code == 0
        for gap, bound in ((kv["gap"], kv["lower_bound"]), (ex2_kv["l0_gap"], ex2_kv["l0_lower_bound"])):
            assert abs(float(gap)) <= 1e-9 and float(bound) == pytest.approx(3.0, abs=1e-9)
        for sidecar in (tmp_path / "ex1_l0_solution.json", ex2_out / "ex2_l0_solution.json"):
            data = json.loads(sidecar.read_text())
            assert abs(data["gap"]) <= 1e-9 and data["globally_optimal"] is True
            assert data["lower_bound"] == pytest.approx(3.0, abs=1e-9)

    def test_unknown_example_name(self, capsys):
        assert main(["example", "ex9"]) == 1
        capsys.readouterr()

    def test_kmax_beyond_structure_budget(self, tmp_path, capsys):
        # --kmax 20 is in range but enumerates 3,145,725 structures for
        # one channel: a usage error, not a traceback.
        assert main(["example", "ex1", "--kmax", "20", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: --kmax")

    def test_determinism_bit_identical(self, tmp_path, capsys):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["example", "ex1", "--out", str(out1)]) == 0
        assert main(["example", "ex1", "--out", str(out2)]) == 0
        capsys.readouterr()
        for name in ("ex1_l0_control.csv", "ex1_l1_control.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_synthesis_commands_share_options():
    from handsoff.cli import build_parser

    parser = build_parser()
    names = ("kmax", "feas_tol", "zero_tol", "seed")
    argv = ["--kmax", "3", "--feas-tol", "1e-7", "--zero-tol", "1e-8", "--seed", "7"]
    for tail in ([], argv):
        l0 = vars(parser.parse_args(["solve-l0", "p.json", *tail]))
        example = vars(parser.parse_args(["example", "ex1", *tail]))
        assert {k: l0[k] for k in names} == {k: example[k] for k in names}


class TestParserReuse:
    # main() builds its parser once per process; sequential calls must not
    # see each other's options.
    def test_certify_tol_resets_to_default(self, capsys, monkeypatch, ex2_file, ex2_run):
        from handsoff import cli

        tols = []
        certify = cli.certify
        monkeypatch.setattr(cli, "certify", lambda *a, tol: tols.append(tol) or certify(*a, tol=tol))
        argv = ["certify", str(ex2_file), str(ex2_run[2] / "ex2_l0_control.csv"), "--eta", "1", "--phat", "0,1"]
        assert main([*argv, "--tol", "1e-3"]) == 0
        assert main(argv) == 0
        capsys.readouterr()
        assert tols == [1e-3, 1e-6]

    def test_usage_error_then_valid_call(self, capsys, ex1_file):
        assert main(["certify"]) == 1
        assert main(["solve-l1", str(ex1_file), "--intervals", "1"]) == 1
        capsys.readouterr()
        code, kv = _run(capsys, ["min-time", str(ex1_file)])
        assert code == 0
        assert float(kv["min_time"]) == pytest.approx(3.0, abs=1e-2)

    def test_kmax_resets_to_default(self, capsys, monkeypatch, tmp_path, ex1_file):
        from handsoff import cli

        kmaxes = []
        synth_l0 = cli.synth_l0
        monkeypatch.setattr(cli, "synth_l0", lambda prob, k_max, **kw: kmaxes.append(k_max) or synth_l0(prob, k_max, **kw))
        assert main(["solve-l0", str(ex1_file), "--kmax", "3", "--out", str(tmp_path)]) == 0
        assert main(["example", "ex1", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        assert kmaxes == [3, None]


def test_commands_never_import_numpy_ma(tmp_path, ex1_file):
    # np.unique and np.union1d import numpy.ma on first use (~20 ms per
    # process); no command needs them. The parser is built on the first
    # main() call, not at import.
    root = Path(__file__).resolve().parent.parent
    out = str(tmp_path)
    commands = [
        ["example", "ex1", "--out", out],
        ["solve-l0", str(ex1_file), "--out", out],
        ["solve-l1", str(ex1_file), "--intervals", "200", "--out", out],
        ["certify", str(ex1_file), str(tmp_path / "ex1_l0_control.csv"), "--eta", "1", "--phat=-1"],
        ["min-time", str(ex1_file)],
        ["singularity", "--xi1", "1", "--xi2", "-1", "--horizon", "1"],
    ]
    script = (
        "import sys\n"
        "from handsoff import cli\n"
        "assert cli._parser.cache_info().currsize == 0\n"
        f"for argv in {commands!r}:\n"
        "    code = cli.main(argv)\n"
        "    print('after', argv[0], code, 'numpy.ma' in sys.modules)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    lines = [line.split()[1:] for line in proc.stdout.splitlines() if line.startswith("after ")]
    assert [line[0] for line in lines] == [argv[0] for argv in commands]
    assert [line[2] for line in lines] == ["False"] * len(commands), proc.stdout


class TestMinTimeCommand:
    def test_scalar_benchmark(self, capsys, ex1_file):
        code, kv = _run(capsys, ["min-time", str(ex1_file)])
        assert code == 0
        assert float(kv["min_time"]) == pytest.approx(3.0, abs=1e-2)

    def test_usage_error_when_missing_args(self, capsys):
        assert main(["certify"]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
    def test_bad_tol_is_usage_error(self, capsys, ex1_file, tol):
        assert main(["min-time", str(ex1_file), f"--tol={tol}"]) == 1
        assert "--tol must be finite and positive" in capsys.readouterr().err

    def test_tiny_tol_finishes(self, capsys, ex1_file):
        # The bracket stops shrinking at adjacent floats, not at 1e-300.
        code, kv = _run(capsys, ["min-time", str(ex1_file), "--tol", "1e-300"])
        assert code == 0
        assert float(kv["min_time"]) == pytest.approx(3.0, abs=1e-2)


class TestToleranceRanges:
    # Out-of-range tolerances used to pass through: a failed certificate
    # (exit 3), "infeasible" (exit 2), or a support of 5 for 3 (exit 0).
    @pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf"])
    def test_certify_tol(self, capsys, ex2_file, ex2_run, tol):
        control = ex2_run[2] / "ex2_l0_control.csv"
        argv = ["certify", str(ex2_file), str(control), "--eta", "1", "--phat", "0,1", f"--tol={tol}"]
        assert main(argv) == 1
        assert "--tol must be finite and positive" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve-l0", "example"])
    @pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf"])
    def test_feas_tol(self, capsys, ex1_file, command, tol):
        target = str(ex1_file) if command == "solve-l0" else "ex1"
        assert main([command, target, f"--feas-tol={tol}"]) == 1
        assert "--feas-tol must be finite and positive" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve-l0", "solve-l1", "example"])
    @pytest.mark.parametrize("tol", ["nan", "-1", "-inf", "inf"])
    def test_zero_tol(self, capsys, ex1_file, command, tol):
        target = "ex1" if command == "example" else str(ex1_file)
        assert main([command, target, f"--zero-tol={tol}"]) == 1
        assert "--zero-tol must be finite and nonnegative" in capsys.readouterr().err

    def test_zero_tol_zero_counts_exact_zeros(self, capsys, tmp_path, ex1_file):
        code, kv = _run(capsys, ["example", "ex1", "--zero-tol", "0", "--out", str(tmp_path)])
        assert code == 0
        assert float(kv["l0_support"]) == pytest.approx(3.0, abs=1e-6)
        code, kv = _run(capsys, ["solve-l1", str(ex1_file), "--zero-tol", "0", "--out", str(tmp_path)])
        assert code == 0
        assert float(kv["support"]) == pytest.approx(3.0, abs=1e-6)


@pytest.mark.parametrize("command", ["solve-l0", "example"])
def test_negative_seed_is_usage_error(capsys, tmp_path, ex1_file, command):
    # numpy's generator used to reject it with a traceback, after `example`
    # had written its problem file.
    out = tmp_path / "out"
    target = str(ex1_file) if command == "solve-l0" else "ex1"
    assert main([command, target, "--seed", "-1", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "error: --seed must be nonnegative, got -1" in err and "Traceback" not in err
    assert not out.exists() or not any(out.iterdir())


class TestBallProblem:
    SPEC = {"F": [[0.0]], "G": [[1.0]], "a": 0.0, "b": 4.0, "A": [2.0], "B": [0.0], "U": {"kind": "ball", "radius": 1.0}}

    def test_solve_l0_ball_input(self, capsys, tmp_path):
        path = tmp_path / "ball.json"
        path.write_text(json.dumps(self.SPEC))
        code, kv = _run(capsys, ["solve-l0", str(path), "--out", str(tmp_path)])
        assert code == 0
        assert float(kv["support"]) == pytest.approx(2.0, abs=1e-4)
        assert kv["certified"] == "true"

    @pytest.mark.parametrize("command", ["solve-l1", "min-time"])
    def test_box_only_command_is_usage_error(self, capsys, tmp_path, command):
        # The LP layer is box-only; both commands used to die with a traceback.
        path = tmp_path / "ball.json"
        path.write_text(json.dumps(self.SPEC))
        argv = [command, str(path)] + (["--out", str(tmp_path)] if command == "solve-l1" else [])
        assert main(argv) == 1
        assert "invalid problem" not in capsys.readouterr().err and not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("command", ["solve-l1", "min-time"])
    def test_box_only_command_names_itself(self, capsys, tmp_path, command):
        # The ball problem file is valid; the message names the command and
        # what it needs instead of blaming the file.
        path = tmp_path / "ball.json"
        path.write_text(json.dumps(self.SPEC))
        assert main([command, str(path)]) == 1
        err = capsys.readouterr().err
        assert err == f'error: {command} needs a box input set (U kind "box"); this problem\'s U is a ball\n'

    def test_four_channel_ball_is_usage_error(self, capsys, tmp_path):
        # A valid ball problem in 4 channels used to end in a traceback from
        # the ball-direction fit; the message names its channel limit.
        spec = {**self.SPEC, "G": [[1.0, 0.5, -0.5, 0.25]]}
        path = tmp_path / "ball4.json"
        path.write_text(json.dumps(spec))
        assert main(["solve-l0", str(path), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "2 or 3" in err and "4 channels" in err
        assert "invalid problem" not in err and not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("u_set", [{"kind": "ball", "radius": 1.0}, {"kind": "box", "lower": [], "upper": []}])
    def test_no_input_channel_is_invalid(self, capsys, tmp_path, u_set):
        # A G without columns used to end in a numpy traceback (ball U, exit
        # 1) or in "infeasible" from the gate (box U, exit 2).
        spec = {"F": [[-1.0, 0.0], [0.0, -1.0]], "G": [[], []], "a": 0.0, "b": 4.0,
                "A": [2.0, 0.0], "B": [0.0, 0.0], "U": u_set}
        path = tmp_path / "no_input.json"
        path.write_text(json.dumps(spec))
        out = tmp_path / "out"
        assert main(["solve-l0", str(path), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: invalid problem or control file: G: ") and captured.out == ""
        assert not out.exists() or not any(out.iterdir())

    def test_negative_phat_component_parses(self, capsys, ex2_file, ex2_run):
        _, _, out = ex2_run
        control = out / "ex2_l0_control.csv"
        code = main(
            ["certify", str(ex2_file), str(control), "--eta", "1", "--phat", "-0.5,1"]
        )
        capsys.readouterr()
        assert code == 3  # parses fine; the multiplier is simply wrong


class TestNonFiniteProblem:
    # Non-finite entries used to pass validation: solve-l1 printed a zero
    # cost and min-time min_time=inf, and solve-l0 warned its way to
    # "infeasible".
    @pytest.mark.parametrize(
        "command, field, value",
        [("solve-l0", "F", np.nan), ("solve-l1", "G", np.nan), ("min-time", "B", np.inf), ("certify", "A", np.nan)],
    )
    def test_rejected_naming_the_field(self, capsys, tmp_path, ex2_file, ex2_run, command, field, value):
        data = json.loads(ex2_file.read_text())
        data[field] = np.full(np.shape(data[field]), value).tolist()
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        argv = {
            "solve-l0": ["solve-l0", str(path), "--out", str(tmp_path)],
            "solve-l1": ["solve-l1", str(path), "--out", str(tmp_path)],
            "min-time": ["min-time", str(path)],
            "certify": ["certify", str(path), str(ex2_run[2] / "ex2_l0_control.csv"), "--eta", "1", "--phat", "0,1"],
        }[command]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert f"{field}: entries must be finite" in captured.err and captured.out == ""


def test_runtime_needs_only_numpy(tmp_path):
    # scipy is a test dependency, never a runtime one: with its import
    # blocked, a full example run must still succeed.
    root = Path(__file__).resolve().parent.parent
    script = (
        "import sys; sys.modules['scipy'] = None\n"
        "from handsoff import cli\n"
        f"sys.exit(cli.main(['example', 'ex2', '--out', {str(tmp_path)!r}]))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
