"""palgebra benchmark: identities, structures and quasi-identities.

    python3 bench/run.py --workload identities --seed 1 --seconds 35 --trace 0

Run from the root of a checkout.  The workload's inputs are made from the
seed; set-up time is the median of several fresh interpreters that import
palgebra from ./src and build the workload's fixed algebras; then one
worker process runs the workload's rounds for --seconds and every distinct
job's output is checked.  Times are CPU times scaled to a reference host
speed by a calibration loop run all through the run (README.md, "Clock").
The last line of stdout is the result as JSON:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
Results and spans are also written to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("identities", "structures", "quasi")
SETUP_SAMPLES = 9
# The calibration loop's CPU time at the reference speed the reported times
# are scaled to: 100 ns per iteration (see "Clock" in README.md).
CALIBRATION_REFERENCE_MS = 2.0


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal roles: the set-up probe and the worker process.
    ap.add_argument("--role", choices=("main", "probe", "worker"), default="main",
                    help=argparse.SUPPRESS)
    ap.add_argument("--work", help=argparse.SUPPRESS)
    ap.add_argument("--result", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def child_env() -> dict:
    """The caller's environment without PALGEBRA_* overrides, so that caps
    and budgets are the library's defaults."""
    return {k: v for k, v in os.environ.items() if not k.startswith("PALGEBRA_")}


def child(args, role: str, extra=()):
    return [sys.executable, os.path.abspath(__file__), "--role", role,
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--work", args.work, *extra]


class ChildFailed(Exception):
    pass


def run_child(cmd, timeout: float) -> None:
    """Run a probe or the worker to its end; ChildFailed if it fails."""
    try:
        proc = subprocess.run(cmd, env=child_env(), timeout=timeout,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{cmd[3]} still running after {timeout} s; stopped") from None
    if proc.returncode != 0:
        raise ChildFailed(f"{cmd[3]} failed:\n{proc.stderr.decode()[-4000:]}")


def children_cpu() -> float:
    use = resource.getrusage(resource.RUSAGE_CHILDREN)
    return use.ru_utime + use.ru_stime


def setup_samples(args, count: int) -> list[float]:
    """CPU times of fresh interpreters doing the workload's set-up."""
    samples = []
    for _ in range(count):
        t0 = children_cpu()
        run_child(child(args, "probe"), timeout=60)
        samples.append(children_cpu() - t0)
    return samples


def layer_unit(name: str) -> str:
    return "ms" if name.endswith("_ms") else "%" if name.endswith("_pct") else "count"


def quantile(values, q: float) -> float:
    """The q-quantile by the nearest-rank rule."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, int(q * len(ordered) + 0.5) - 1))]


def main(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "palgebra", "__init__.py")):
        sys.stderr.write(f"no palgebra sources under {SRC}; run from a checkout\n")
        return 2
    sys.path.insert(0, HERE)
    import checks
    import inputs
    import worker

    os.makedirs(OUT, exist_ok=True)
    args.work = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(args.work)
    try:
        jobs = inputs.make_jobs(args.workload, args.seed, args.work)
        with open(os.path.join(args.work, "jobs.json"), "w", encoding="utf-8") as fh:
            json.dump(jobs, fh)
        # Set-up is sampled before and after the worker, so that its median
        # spans the run rather than one moment of the host's speed.
        probes = 0 if args.trace else SETUP_SAMPLES
        setup = setup_samples(args, probes // 2)
        result_path = os.path.join(args.work, "worker.json")
        # Room for the timed rounds, one whole round past --seconds and set-up.
        run_child(child(args, "worker", ["--result", result_path]),
                  timeout=args.seconds * 2 + 60)
        setup += setup_samples(args, probes - probes // 2)
        with open(result_path, encoding="utf-8") as fh:
            res = json.load(fh)
        pa = worker.import_palgebra(SRC)
        wrong = checks.check_outputs(jobs, res["outputs"], pa)
    except ChildFailed as exc:
        sys.stderr.write(f"{exc}\n")
        return 1
    finally:
        shutil.rmtree(args.work, ignore_errors=True)

    rounds = res["rounds"]
    # A job whose first output raised or failed its check failed in every
    # round; any other job failed in the rounds where it raised or its
    # output differed from the first.
    failed = sum(rounds if job["id"] in wrong
                 else res["failed_runs"].get(str(job["id"]), 0) for job in jobs)
    attempted = res["attempted"]
    for job_id, why in sorted(wrong.items()):
        sys.stderr.write(f"job {job_id} failed: {why}\n")

    # The host's speed swings by a third within seconds and from one run to
    # the next, and every job's CPU time swings with it.  The calibration
    # loop, run between jobs all through the run, sees the same swings, so
    # the run's times are scaled by its mean to the reference speed.
    speed = statistics.mean(res["calibration"])
    scale = CALIBRATION_REFERENCE_MS / speed
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "rounds": rounds, "jobs_per_round": len(jobs),
              "calibration_ms": speed, "calibration_samples": len(res["calibration"]),
              "time_scale": scale}
    if args.trace:
        layers = {name: value * scale if name.endswith("_ms") else value
                  for name, value in res["layers"].items()}
        layers["bench.ref_loop_ms"] = speed
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in layers.items()}
        report["spans"] = res["spans"]
    else:
        lat = [scale * x for x in res["latencies"]]
        timed = scale * sum(cpu for _, cpu in res["round_cpu"])
        p90 = quantile(lat, 0.9)
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "results_per_s": {"value": (attempted - failed) / timed, "unit": "1/s"},
            "latency_p50_ms": {"value": 1000 * quantile(lat, 0.5), "unit": "ms"},
            "latency_p90_ms": {"value": 1000 * p90, "unit": "ms"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MiB"},
        }
        report["latency_samples"] = len(lat)
        report["beyond_p90"] = sum(1 for x in lat if x > p90)
    report["metrics"] = metrics
    report["round_cpu"] = res["round_cpu"]
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    summary = {k: v for k, v in report.items()
               if k not in ("spans", "metrics", "round_cpu")}
    print(json.dumps(summary))
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    a = parse_args(sys.argv[1:])
    if a.role == "main":
        sys.exit(main(a))
    sys.path.insert(0, HERE)
    import worker

    if a.role == "probe":
        worker.setup(a.workload, SRC, a.work)
    else:
        worker.run(a.workload, SRC, a.work, a.seconds, a.trace, a.result)
