"""signspectra benchmark: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a source checkout: the package is imported from ``src/``.  Each
run starts a fresh Python process that imports signspectra and calls
``signspectra.cli_io.main`` with the argv a user would type, pass after
pass, until a further pass would end after ``--seconds``.  Outputs are
checked here, after timing, by ``checks.py``.

With ``--trace 0`` the end-to-end metrics of BENCHMARK.json are reported
(timings are medians over the run's passes); ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics.  The last
line of stdout is the result JSON; the lines before it are for people.
The exit code is 0 when the run completed and every check passed, 1 when
a check failed (the result line still prints, with ``"correct": false``) or
no result could be produced, and 2 when the checkout has no sources.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import checks
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# Fresh set-up-only processes per untraced run, besides the run process;
# half start before it and half after, so the median spans the run.
SETUP_PROCESSES = 8
CHILD_TIMEOUT_S = 150
# least share of a traced pass's wall time its span self times must cover
SELF_COVER = 0.9
PINNED_THREADS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED_THREADS)
    env["PYTHONPATH"] = SRC
    env.pop("PYTHONHOME", None)
    return env


def spawn_child(plan: dict, workdir: str, tag: str) -> dict:
    plan_path = os.path.join(workdir, f"{tag}.plan.json")
    result_path = os.path.join(workdir, f"{tag}.result.json")
    with open(plan_path, "w", encoding="utf-8") as fh:
        json.dump(plan, fh)
    env = child_env()
    env["PERFBENCH_SPAWN_NS"] = str(time.monotonic_ns())
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "child.py"), plan_path, result_path],
        env=env, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
    )
    try:
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"benchmark process exceeded {CHILD_TIMEOUT_S} s")
    if code != 0:
        raise RuntimeError(f"benchmark process exited with {code}")
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    if os.path.dirname(os.path.dirname(result["signspectra"])) != SRC:
        raise RuntimeError(f"imported signspectra from {result['signspectra']}, not {SRC}")
    return result


def setup_sample(result: dict) -> dict:
    """Set-up time of a fresh process, measured and scaled, and its calibration points."""
    return {key: result[key] for key in ("setup_s", "setup_ref_s", "setup_points")}


def read_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, else None."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None  # not the HEAD of some enclosing repository
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {
        "commit": read_commit(),
        "env": PINNED_THREADS,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
    }


def check_passes(workload, ops, passes) -> tuple[list[dict], list[str]]:
    """Per pass: attempted, failed, items; plus every problem found.

    Every data file must match its manifest digest.  A data file that is
    byte-identical to one already checked gets that file's verdict; any
    other file is checked in full.
    """
    problems = []
    tallies = []
    verdicts = {}
    for p in passes:
        failed = items = 0
        for op, got in zip(ops, p["ops"]):
            if got["exit"] != 0:
                bad = [f"{' '.join(op.argv)}: exit {got['exit']}"]
                if got["error"]:
                    bad.append(got["error"])
            else:
                digest, bad = checks.check_manifest(os.path.join(p["outdir"], op.out))
                key = (op.out, digest)
                if key not in verdicts:
                    try:
                        verdicts[key] = workload.check(op, p["outdir"])
                    except (KeyError, IndexError, TypeError, ValueError) as exc:
                        verdicts[key] = (0, [f"{op.out}: malformed output: {exc!r}"])
                done, content = verdicts[key]
                bad = bad + content
                items += done
            if bad:
                failed += 1
                problems += bad
        tallies.append({"attempted": len(ops), "failed": failed, "items": items})
    return tallies, problems


def summarize(values: list[float]) -> str:
    # too few samples per run for a tail percentile with ten samples beyond it
    return (f"median {statistics.median(values):.6g} "
            f"(min {min(values):.6g}, max {max(values):.6g}, {len(values)} samples)")


def end_to_end(setups, passes, tallies, peak_rss_mb) -> dict:
    """Timings in reference seconds (see calibrate.py), as medians."""
    rates = [t["items"] / p["wall_ref_s"] for t, p in zip(tallies, passes)]
    # Laplace's rule of succession: never 0, so the relative bound applies;
    # the raw counts are the result's "attempted" and "failed".
    errors = [(t["failed"] + 1) / (t["attempted"] + 2) for t in tallies]
    return {
        "setup_s": statistics.median(s["setup_ref_s"] for s in setups),
        "wall_s": statistics.median(p["wall_ref_s"] for p in passes),
        "cpu_s": statistics.median(p["cpu_ref_s"] for p in passes),
        "items_per_s": statistics.median(rates),
        "peak_rss_mb": peak_rss_mb,
        "error_rate": statistics.median(errors),
    }


def per_layer(passes, workload) -> tuple[dict, list[str]]:
    """Medians over the traced passes, and problems with the trace itself.

    Self times telescope to the root spans, which lie inside the pass, so
    their sum must not exceed the pass's wall time, and must cover nearly
    all of it (else the root boundary was missed).  Every layer the
    workload reaches must count some work (else a boundary went silent,
    say because a caller stopped looking the function up where it is
    wrapped).
    """
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    problems = []
    for p in traced:
        if not SELF_COVER * p["wall_s"] <= p["self_sum_s"] <= p["wall_s"]:
            problems.append(
                f"traced self times sum to {p['self_sum_s']:.6f} s, outside "
                f"[{SELF_COVER}, 1] times the pass wall time {p['wall_s']:.6f} s"
            )
        silent = [name for name in workload.reaches if not p["layers"][name]]
        if silent:
            problems.append(f"traced pass counted no work at {', '.join(silent)}")
    metrics = {}
    for name in traced[0]["layers"]:
        metrics[name] = statistics.median(p["layers"][name] for p in traced)
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    plain_wall = statistics.median(p["wall_s"] for p in plain)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.untraced_wall_s"] = plain_wall
    metrics["trace.overhead_s"] = traced_wall - plain_wall
    metrics["trace.self_sum_s"] = statistics.median(p["self_sum_s"] for p in traced)
    return metrics, problems


def with_units(metrics: dict, declared: list[dict]) -> dict:
    """The metrics with their BENCHMARK.json units; the names must match."""
    units = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} "
                           "are not both computed and declared in BENCHMARK.json")
    return {name: {"value": metrics[name], "unit": units[name]} for name in units}


def run(args) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    workload = workloads.WORKLOADS[args.workload]()
    ops = workload.ops(args.seed)
    probe = getattr(workload, "defect_probe", None)
    probes = [probe] if probe else []
    os.makedirs(os.path.join(HERE, "work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(HERE, "work"))
    try:
        setup_only = SETUP_PROCESSES // 2 if not args.trace else 0
        setups = [setup_sample(spawn_child({"setup_only": True}, workdir, f"setup{i}"))
                  for i in range(setup_only)]
        plan = {
            "workdir": workdir,
            "ops": [op.argv for op in ops],
            "seconds": args.seconds,
            "trace": bool(args.trace),
            "kernel": workload.kernel,
            "probes": probes,
        }
        result = spawn_child(plan, workdir, "run")
        setups.append(setup_sample(result))
        setups += [setup_sample(spawn_child({"setup_only": True}, workdir, f"setup{i}"))
                   for i in range(setup_only, 2 * setup_only)]
        passes = result["passes"]
        tallies, problems = check_passes(workload, ops, passes)
        if args.trace:
            metrics, trace_problems = per_layer(passes, workload)
            metrics = with_units(metrics, declared["per_layer"])
            problems += trace_problems
        else:
            metrics = end_to_end(setups, passes, tallies, result["peak_rss_mb"])
            metrics = with_units(metrics, declared["end_to_end"])
        sha = {}
        for op in ops:
            path = os.path.join(passes[0]["outdir"], op.out)
            if os.path.exists(path):
                sha[op.out] = checks.sha256(path)
        details = {
            "workload": workload.name,
            "items": workload.items,
            "seed": args.seed,
            "passes": len(passes),
            "pass_wall_s": [p["wall_s"] for p in passes],
            "pass_wall_ref_s": [p["wall_ref_s"] for p in passes],
            "pass_cpu_s": [p["cpu_s"] for p in passes],
            "pass_traced": [p["traced"] for p in passes],
            "calibration_kernel": workload.kernel,
            "pass_calibration_points": [p["points"] for p in passes],
            "setup_s_samples": [s["setup_s"] for s in setups],
            "setup_ref_s_samples": [s["setup_ref_s"] for s in setups],
            "setup_calibration_points": [s["setup_points"] for s in setups],
            "known_defect_probe": [
                {"argv": argv, "exit": got["exit"]} for argv, got in zip(probes, result["probes"])
            ],
            "sha256_first_pass": sha,
            "environment": environment(),
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"metrics": metrics, "tallies": tallies, "problems": problems, "details": details}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "signspectra", "cli_io.py")):
        print(f"error: no signspectra sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    try:
        out = run(args)
    except (RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for problem in out["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    for name, metric in out["metrics"].items():
        print(f"{name:34s} {metric['value']:.6g} {metric['unit']}")
    details = out["details"]
    for key in ("pass_wall_ref_s", "pass_wall_s", "pass_cpu_s"):
        values = [v for v, t in zip(details[key], details["pass_traced"]) if not t]
        print(f"{'untraced ' + key:34s} {summarize(values)}")
    print(f"{'setup_s_samples':34s} {summarize(details['setup_s_samples'])}")
    print("details: " + json.dumps(details, sort_keys=True))
    print(json.dumps({
        "correct": not out["problems"],
        "attempted": sum(t["attempted"] for t in out["tallies"]),
        "failed": sum(t["failed"] for t in out["tallies"]),
        "metrics": out["metrics"],
    }))
    return 1 if out["problems"] else 0


if __name__ == "__main__":
    sys.exit(main())
