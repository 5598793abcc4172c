"""handsoff benchmark: four oracle-checked workloads, one process, one client.

Usage (from the repository root):

    python3 perfbench/run.py --workload paper_examples --seed 0 --seconds 18 --trace 0

The benchmark imports ``handsoff`` from ``src/`` next to this directory,
generates the workload's inputs from ``--seed`` (numpy/scipy only), runs
the workload's fixed op list through the CLI entry point and the public
API in a closed loop (each op starts when the previous one has ended),
repeating the list while another pass fits in ``--seconds``, and checks
every output against an oracle that does not use ``handsoff``. Op and
set-up times are normalised to a reference host speed (speed.py); the raw
wall times are reported beside them.

The last stdout line is the result: with ``--trace 0`` it carries the
end-to-end metrics of BENCHMARK.json, with ``--trace 1`` the per-layer
ones. With ``--trace 1`` the op list runs once untraced and once traced,
and the public calls of each traced op are timed again on the same inputs.
The lines above the result print every metric by name and unit and the
failing inputs; the full report (with the input digest and the machine)
and the spans go to ``.perfbench_work/`` under the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_SNIPPET = "import sys; sys.path.insert(0, sys.argv[1]); import handsoff, handsoff.cli"

WORKLOAD_NAMES = ("paper_examples", "l1_fine_grid", "sparse_d3", "certify_stored")
# ROADMAP counters the traced run cross-checks: (workload, key, expected).
ROADMAP_COUNTERS = [
    ("paper_examples", "structures:ex2", 93),
    ("paper_examples", "pivots:ex2@1000", 14539),
    ("l1_fine_grid", "pivots:ex2@2000", 55319),
]


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def environment() -> dict:
    sha = None
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
        sha = proc.stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "handsoff").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    import numpy
    import scipy

    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest()[:16],
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
    }


def setup(workload_cls, seed: int, work: Path, spot_slowdown):
    """Set up SETUP_REPEATS times; return the last workload and the samples.

    One sample is a fresh interpreter importing handsoff (process start to
    import done) plus generating and writing the workload's inputs. Samples
    are (normalised, raw) seconds, normalised by probes taken just before
    and just after the sample.
    """
    samples, wl, files = [], None, []
    for i in range(SETUP_REPEATS):
        before = spot_slowdown()
        start = time.perf_counter()
        # No timeout: with one, subprocess polls the child in sleeps of up
        # to 50 ms, which quantises the sample.
        subprocess.run([sys.executable, "-c", IMPORT_SNIPPET, str(SRC)], check=True)
        wl = workload_cls(seed, work / f"setup{i}")
        files = wl.prepare()
        end = time.perf_counter()
        slowdown = 0.5 * (before + spot_slowdown())
        samples.append(((end - start) / slowdown, end - start))
    return wl, files, samples


def run_pass(wl, ops, tracer, sampler, ctr=None) -> dict:
    """One pass over the op list; ops are timed, checks are not.

    ``timings`` are normalised op times (see speed.py), ``raw`` wall times.
    """
    intervals, outs = [], []
    for op in ops:
        t0 = time.perf_counter()
        with tracer.span("op", op.id):
            try:
                out = op.run(tracer)
            except Exception:  # a crashing op is a failed op; keep measuring the rest
                out = {"error": traceback.format_exc()}
        intervals.append((t0, time.perf_counter()))
        outs.append(out)
        if ctr is not None and "error" not in out:
            wl.replay(tracer, op, out, out.get("cli_span"), ctr)
    timings = [sampler.normalise(t0, t1) for t0, t1 in intervals]
    raw = [t1 - t0 for t0, t1 in intervals]
    slowdown = [sampler.slowdown(t0, t1) for t0, t1 in intervals]
    verdicts = []
    for op, out in zip(ops, outs):
        if "error" in out:
            verdicts.append(("crash", [out["error"].strip().splitlines()[-1]], []))
            continue
        try:
            v = wl.check(op, out)
            verdicts.append(("ok" if not v.failed else "failed", v.reasons, v.known))
        except Exception:  # an unreadable output is a failed op
            verdicts.append(("crash", [traceback.format_exc().strip().splitlines()[-1]], []))
    quality = []
    for op, out, (status, _, _) in zip(ops, outs, verdicts):
        if status != "crash":
            q = wl.quality(op, out)
            if q is not None:
                quality.append(q)
    return {"wall": sum(timings), "wall_raw": sum(raw), "timings": timings, "raw": raw, "slowdown": slowdown,
            "outs": outs, "verdicts": verdicts, "quality": quality}


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def summarize(wl, ops, passes: list[dict]) -> dict:
    """Times over every pass; verdicts per op.

    ``attempted`` is the number of ops in the op list and ``failed`` the
    number of them that failed their checks in any pass, so both depend on
    the seed only, not on how many passes fitted in the run. An op is a
    known false negative when every failing verdict it got was that alone.
    """
    latencies = [t for p in passes for t in p["timings"]]
    raw = [t for p in passes for t in p["raw"]]
    failing, failed_ops, known_ops, crashed_ops = [], set(), set(), set()
    for index, p in enumerate(passes):
        for op, (status, reasons, known_reasons) in zip(ops, p["verdicts"]):
            if status == "ok":
                continue
            failed_ops.add(op.id)
            if status == "crash":
                crashed_ops.add(op.id)
            if known_reasons and not reasons:
                known_ops.add(op.id)
            failing.append({"op": op.id, "pass": index, "reasons": reasons,
                            "known_false_negative": known_reasons})
    plain_ops = {entry["op"] for entry in failing if entry["reasons"]}
    quality = passes[0]["quality"]  # deterministic per seed: one pass is enough
    l0 = len(quality)
    return {
        "attempted": len(ops),
        "failed": len(failed_ops),
        "known_false_negatives": len(known_ops - plain_ops),
        "crashed": len(crashed_ops),
        "failing": failing,
        "wall_s": statistics.median(p["wall"] for p in passes),
        "pass_walls": [p["wall"] for p in passes],
        "op_p50_s": percentile(latencies, 0.5),
        "op_p90_s": percentile(latencies, 0.9),
        "wall_raw_s": statistics.median(p["wall_raw"] for p in passes),
        "op_p50_raw_s": percentile(raw, 0.5),
        "op_p90_raw_s": percentile(raw, 0.9),
        "slowdown_median": statistics.median(s for p in passes for s in p["slowdown"]),
        "op_samples": len(latencies),
        "failed_share": len(failed_ops) / len(ops),
        "l0_solves": l0,
        "certified_share": sum(q["certified"] for q in quality) / l0 if l0 else None,
        "support_excess": sum(q["support_excess"] for q in quality) / l0 if l0 else None,
    }


def per_layer(tracer, ctr, untraced_wall: float, traced_wall: float, wl_name: str) -> tuple[dict, dict]:
    n = ctr.n
    total = tracer.total
    self_times = tracer.self_times()
    simplex_s = total("lp.simplex_solve")
    pivots = int(n.get("lp.pivots", 0))
    recover_calls = n.get("synth.recover_calls", 0)
    values = {
        "cli.self_s": self_times.get("cli", 0.0),
        "model.load_s": total("model.load_problem") + total("model.load_control"),
        "model.save_s": total("model.save_control") + total("model.save_problem"),
        "model.bytes_written": int(n.get("model.bytes_written", 0)),
        "sim.propagate_exact_s": total("sim.propagate_exact"),
        "sim.save_trajectory_s": total("sim.save_trajectory"),
        "sim.grid_points": int(n.get("sim.grid_points", 0)),
        "linalg.mat_exp_stack_s": total("linalg.mat_exp_stack"),
        "linalg.mat_exp_stack_flops": int(n.get("linalg.mat_exp_stack_flops", 0)),
        "linalg.solve_linear_s": statistics.median(ctr.solve_linear_per_call),
        "linalg.solve_linear_calls": 3 * pivots,
        "lp.build_s": total("lp.build_l1_lp"),
        "lp.simplex_s": simplex_s,
        "lp.pivots": pivots,
        "lp.pivots_per_s": pivots / simplex_s,
        "lp.linf_feasibility_s": total("lp.linf_feasibility"),
        "synth.gate_s": total("synth.min_time"),
        "synth.recover_s": total("synth.recover_adjoint"),
        "synth.recover_found_ratio": n.get("synth.recover_found", 0) / recover_calls,
        "synth.structures": int(n.get("synth.structures", 0)),
        "trace.overhead_s": traced_wall - untraced_wall,
    }
    # Layers this workload does not exercise are reported as null here.
    structures = n.get("synth.structures", 0)
    sweep = tracer.self_total("synth.synth_l0")
    certify_calls = n.get("certify.calls", 0)
    extra = {
        "synth.sweep_s (derived)": sweep if structures else None,
        "synth.feasible_ratio": n.get("synth.feasible", 0) / structures if structures else None,
        "synth.fit_s_per_structure (derived)": sweep / structures if structures else None,
        "certify.certify_s": total("certify.certify") if certify_calls else None,
        "certify.check_adjoint_s": total("certify.check_adjoint") if certify_calls else None,
        "certify.check_hamiltonian_max_s": total("certify.check_hamiltonian_max") if certify_calls else None,
        "certify.pass_ratio": n.get("certify.passed", 0) / certify_calls if certify_calls else None,
        "certify.adjoint_residual_max": n.get("certify.adjoint_residual_max") if certify_calls else None,
        "sim.hamiltonian_profile_s": total("sim.hamiltonian_profile") if certify_calls else None,
        "layer_self_s (derived)": self_times,
        "replay_mismatches": ctr.mismatches,
        "lp_solves": ctr.pivot_log,
    }
    for name in sorted({s["name"] for s in tracer.spans if s["name"].startswith("cli.")}):
        extra[f"{name}_s"] = total(name)
    checks = []
    for workload, key, expected in ROADMAP_COUNTERS:
        if workload == wl_name:
            got = n.get(key)
            checks.append({"counter": key, "roadmap": expected, "measured": got, "match": got == expected})
    extra["roadmap_counter_check"] = checks
    return values, extra


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "handsoff" / "__init__.py").is_file():
        fail(f"no handsoff sources under {SRC}; run from a full checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for var in BLAS_VARS:
        os.environ.setdefault(var, "1")
    os.environ.pop("HANDSOFF_SEED", None)  # the CLI would let it override --seed
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401  harness dependencies load before the setup samples
    import scipy.optimize  # noqa: F401

    import gen
    import handsoff
    import spans
    import speed
    import workloads

    if Path(handsoff.__file__).resolve().parent != (SRC / "handsoff").resolve():
        fail(f"imported handsoff from {handsoff.__file__}, not from {SRC}")

    work = ROOT / ".perfbench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    wl, files, setup_samples = setup(workloads.WORKLOADS[args.workload], args.seed, work, speed.spot_slowdown)
    ops = wl.ops()
    wl.references()
    with speed.SpeedSampler() as sampler:
        if args.trace:
            untraced = run_pass(wl, ops, spans.NullTracer(), sampler)
            tracer, ctr = spans.Tracer(), workloads.Counters()
            traced = run_pass(wl, ops, tracer, sampler, ctr)
            passes = [untraced, traced]
        else:
            passes = []
            start = time.perf_counter()
            while True:
                passes.append(run_pass(wl, ops, spans.NullTracer(), sampler))
                if time.perf_counter() - start + passes[-1]["wall_raw"] > args.seconds:
                    break

    # Peak memory of set-up and ops, before the self-check adds its own.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    summary = summarize(wl, ops, passes)
    try:
        self_check = bool(wl.corrupt(ops[0], passes[0]["outs"][0]).reasons)
    except Exception:  # a checker that cannot run has not caught anything
        self_check = False
    # correct: every check ran, the planted wrong answer was caught, and every
    # failed op is the listed check_adjoint false negative (still counted in
    # failed). Any other oracle failure or crash makes the run incorrect.
    correct = self_check and summary["crashed"] == 0 and summary["failed"] == summary["known_false_negatives"]

    e2e = {
        "setup_s": (statistics.median(s for s, _ in setup_samples), "s"),
        "wall_s": (summary["wall_s"], "s"),
        "op_p50_s": (summary["op_p50_s"], "s"),
        "op_p90_s": (summary["op_p90_s"], "s"),
        "op_samples": (summary["op_samples"], "count"),
        "failed_share": (summary["failed_share"], "ratio"),
        "certified_share": (summary["certified_share"], "ratio"),
        "support_excess": (summary["support_excess"], "time"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_raw_s": (statistics.median(r for _, r in setup_samples), "s"),
        "wall_raw_s": (summary["wall_raw_s"], "s"),
        "op_p50_raw_s": (summary["op_p50_raw_s"], "s"),
        "op_p90_raw_s": (summary["op_p90_raw_s"], "s"),
        "host_slowdown": (summary["slowdown_median"], "ratio"),
    }
    report = {
        "workload": args.workload,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == args.workload),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "input_digest": gen.digest(files),
        "environment": environment(),
        "setup_samples_s": setup_samples,
        "passes": len(passes),
        "pass_walls_s": summary["pass_walls"],
        "first_pass_ops": [
            {"op": op.id, "seconds": t, "raw_seconds": raw, "slowdown": slow}
            for op, t, raw, slow in zip(ops, passes[0]["timings"], passes[0]["raw"], passes[0]["slowdown"])
        ],
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "known_false_negatives": summary["known_false_negatives"],
        "failing_inputs": summary["failing"],
        "self_check_caught_wrong_answer": self_check,
        "correct": correct,
    }
    if args.trace:
        layer_values, layer_extra = per_layer(tracer, ctr, untraced["wall"], traced["wall"], args.workload)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        report["per_layer"] = {k: {"value": v, "unit": units.get(k)} for k, v in layer_values.items()}
        report["per_layer_extra"] = layer_extra
        tracer.write(work / "spans.json")
    (work / "report.json").write_text(json.dumps(report, indent=1, default=str) + "\n", encoding="utf-8")

    env = report["environment"]
    print(f"workload {args.workload} seed {args.seed} inputs {report['input_digest']} "
          f"src {env['src_sha256']} passes {len(passes)}")
    print(f"machine {env['cpu_model']}, nproc {env['nproc']}, python {env['python']}, "
          f"numpy {env['numpy']}, scipy {env['scipy']}, BLAS threads {env['blas_threads']}")
    for name, (value, unit) in e2e.items():
        print(f"  {name:16s} {'n/a' if value is None else format(value, '.6g'):>14s} {unit}")
    if args.trace:
        for name, entry in report["per_layer"].items():
            print(f"  {name:28s} {entry['value']:>14.6g} {entry['unit']}")
    for entry in summary["failing"]:
        if entry["pass"] > 0:
            break
        print(f"  failed {entry['op']}: {'; '.join(entry['reasons'] + entry['known_false_negative'])}")
    print(f"  report {work.relative_to(ROOT) / 'report.json'}")

    # The result carries exactly the metrics BENCHMARK.json declares.
    source = report["per_layer"] if args.trace else report["end_to_end"]
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": source[m["name"]]["value"], "unit": m["unit"]} for m in declared}
    print(json.dumps({"correct": correct, "attempted": summary["attempted"], "failed": summary["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
