"""The process that runs one workload's jobs.

One client, closed loop: each job starts when the previous one returned.
Every round runs the same job list in the same order and starts with the
library's function caches empty (as a fresh palgebra process would find
them); algebras built in set-up stay built.  The first round's outputs are
kept for the checks; later rounds must reproduce them exactly.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import statistics
import sys
from time import perf_counter, process_time


def import_palgebra(src_dir: str):
    """Import palgebra from this checkout's src, and from nowhere else."""
    sys.path.insert(0, src_dir)
    import palgebra
    import palgebra.cli  # noqa: F401  (jobs call the CLI's main)

    where = os.path.realpath(palgebra.__file__)
    if not where.startswith(os.path.realpath(src_dir) + os.sep):
        raise SystemExit(f"palgebra imported from {where}, not from {src_dir}")
    return palgebra


def setup(workload: str, src_dir: str, work_dir: str):
    """Import the library, read the jobs, build the workload's fixed
    algebras.  This is what setup_s times in a fresh interpreter."""
    import inputs

    pa = import_palgebra(src_dir)
    with open(os.path.join(work_dir, "jobs.json"), encoding="utf-8") as fh:
        jobs = json.load(fh)
    fixed = {}
    if workload == "quasi":
        fixed = {spec: pa.cli.load_algebra(spec) for spec in inputs.FIXED}
    return pa, jobs, fixed


def clear_caches() -> None:
    for name, mod in list(sys.modules.items()):
        if name == "palgebra" or name.startswith("palgebra."):
            for obj in list(vars(mod).values()):
                clear = getattr(obj, "cache_clear", None)
                if callable(clear):
                    clear()


def run_job(pa, fixed, job):
    kind = job["kind"]
    if kind == "eq":
        e = pa.Equation(pa.parse(job["lhs"]), pa.parse(job["rhs"]))
        return pa.check_identity(e, job["level"], want_witness=job["witness"]).to_json_dict()
    if kind == "nf":
        return pa.to_text(pa.normal_form(pa.parse(job["term"]), job["level"]))
    if kind == "quasi":
        q = pa.QuasiIdentity.from_json_dict(job["qi"])
        return pa.check_quasi_identity(q, fixed[job["spec"]], job["strategy"]).to_json_dict()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = pa.cli.main(job["argv"])
    return {"exit": code, "stdout": out.getvalue()}


# A calibration sample is taken after the first job that ends at least this
# much CPU time after the previous sample, so that the samples cover the
# run about evenly (about 4% of the run's CPU time, none of it in a job).
CALIBRATE_EVERY_S = 0.05


def calibrate() -> float:
    """CPU ms of a fixed pure-Python loop of 20,000 iterations: how fast
    the host runs this process at this moment."""
    t0 = process_time()
    acc = 0
    for i in range(20_000):
        acc = (acc + i * i) % 7919
    return (process_time() - t0) * 1000


def run(workload, src_dir, work_dir, seconds, trace, result_path) -> None:
    pa, jobs, fixed = setup(workload, src_dir, work_dir)
    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
    outputs: dict[int, object] = {}
    latencies: list[float] = []
    round_cpu: list[tuple[bool, float]] = []
    calibration: list[float] = []
    failed_runs: dict[int, int] = {}
    attempted = 0
    # Jobs are timed on the process's CPU clock, which leaves out the time
    # the host gave the CPU to others; --seconds is wall time.  A round's
    # time is the sum of its jobs' times.  The traced run alternates plain
    # and traced rounds, starting plain, so that the overhead is measured
    # on neighbouring rounds.
    run_start = perf_counter()
    last_sample = process_time()
    calibration.append(calibrate())
    while perf_counter() - run_start < seconds or (trace and len(round_cpu) < 2):
        traced = trace and len(round_cpu) % 2 == 1
        clear_caches()
        if traced:
            tracer.install()
        first = not round_cpu
        cpu = 0.0
        for job in jobs:
            if traced:
                tracer.job = job["id"]
            t0 = process_time()
            try:
                out = run_job(pa, fixed, job)
            except Exception as exc:  # a failed job; the run goes on
                out = {"error": f"{type(exc).__name__}: {exc}"}
            t1 = process_time()
            attempted += 1
            cpu += t1 - t0
            if not traced:
                latencies.append(t1 - t0)
            if t1 - last_sample >= CALIBRATE_EVERY_S:
                calibration.append(calibrate())
                last_sample = process_time()
            if first:
                outputs[job["id"]] = out
            # An execution fails if it raised or differs from the first one.
            if (isinstance(out, dict) and "error" in out) or out != outputs[job["id"]]:
                failed_runs[job["id"]] = failed_runs.get(job["id"], 0) + 1
        if traced:
            tracer.uninstall()
        round_cpu.append((traced, cpu))
    result = {
        "rounds": len(round_cpu),
        "round_cpu": round_cpu,
        "latencies": latencies,
        "attempted": attempted,
        "failed_runs": {str(k): v for k, v in failed_runs.items()},
        "outputs": {str(k): v for k, v in outputs.items()},
        "calibration": calibration,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if trace:
        plain = [c for t, c in round_cpu[1:] if not t] or [round_cpu[0][1]]
        traced_cpu = [c for t, c in round_cpu if t]
        layers = tracer.layer_metrics(len(traced_cpu))
        layers["bench.trace_overhead_pct"] = 100 * (
            statistics.median(traced_cpu) / statistics.median(plain) - 1)
        result["layers"] = layers
        result["spans"] = tracer.spans
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
