"""One fresh benchmark process: set-up time, then timed CLI passes.

Usage: child.py PLAN.json RESULT.json.  The parent sets PERFBENCH_SPAWN_NS
to its CLOCK_MONOTONIC reading just before starting this process, so
``setup_s`` spans interpreter start-up and ``import signspectra``.  Nothing
but the standard modules below is imported before signspectra.
"""

import os
import sys
import time

import signspectra

SETUP_S = (time.monotonic_ns() - int(os.environ["PERFBENCH_SPAWN_NS"])) / 1e9

import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

from signspectra import cli_io  # noqa: E402

import calibrate  # noqa: E402

SETUP_POINTS = 3


def invoke(argv: list[str], outdir: str) -> dict:
    """Run one CLI invocation in-process with its stdout and stderr discarded."""
    argv = [a.replace("{out}", outdir) for a in argv]
    error = None
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
            contextlib.redirect_stderr(sink):
        try:
            code = cli_io.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an escaped exception is a failed operation
            code, error = None, traceback.format_exc()
    return {"exit": code, "error": error}


def run_pass(plan: dict, index: int, tracer, cal: calibrate.Calibration) -> dict:
    """One pass: every CLI invocation of the workload, in order.

    An untraced pass takes calibration points before, during and after the
    invocations; the time of those during is taken off the pass's wall and
    CPU time.  A traced pass takes none during, so that none fall in spans.
    """
    outdir = os.path.join(plan["workdir"], f"pass{index}")
    os.mkdir(outdir)
    points = [cal.point()]
    sampler = calibrate.Sampler(cal)
    c0, t0 = time.process_time(), time.perf_counter()
    with tracer.installed() if tracer is not None else sampler:
        ops = [invoke(op, outdir) for op in plan["ops"]]
    wall = time.perf_counter() - t0 - sampler.wall_s
    cpu = time.process_time() - c0 - sampler.cpu_s
    points += sampler.points + [cal.point()]
    result = {
        "outdir": outdir,
        "wall_s": wall,
        "cpu_s": cpu,
        "wall_ref_s": cal.scale(wall, points),
        "cpu_ref_s": cal.scale(cpu, points),
        "points": points,
        "traced": tracer is not None,
        "ops": ops,
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        result["self_sum_s"] = tracer.self_sum()
    return result


def main(plan_path: str, result_path: str) -> None:
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    # points taken right after set-up scale it to reference seconds
    setup_cal = calibrate.Calibration(calibrate.SETUP_KERNEL)
    setup_points = [setup_cal.point() for _ in range(SETUP_POINTS)]
    result = {
        "setup_s": SETUP_S,
        "setup_ref_s": setup_cal.scale(SETUP_S, setup_points),
        "setup_points": setup_points,
        "signspectra": os.path.abspath(signspectra.__file__),
    }
    if not plan.get("setup_only"):
        same = plan["kernel"] == calibrate.SETUP_KERNEL
        cal = setup_cal if same else calibrate.Calibration(plan["kernel"])
        # A traced run alternates an untraced and a traced pass, so the
        # overhead is measured under the same conditions.
        tracing = None
        if plan["trace"]:
            import tracing
        passes = []
        start = time.perf_counter()
        while True:
            unit = time.perf_counter()
            passes.append(run_pass(plan, len(passes), None, cal))
            if tracing is not None:
                passes.append(run_pass(plan, len(passes), tracing.Tracer(), cal))
            now = time.perf_counter()
            # stop before a further unit would end after the run's budget
            if now - start + (now - unit) > plan["seconds"]:
                break
        result["passes"] = passes
        result["probes"] = [invoke(argv, plan["workdir"]) for argv in plan["probes"]]
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
