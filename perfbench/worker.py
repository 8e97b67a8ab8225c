"""Run one workload in this process and print its measurements.

``run.py`` starts this script once per workload, in a fresh process, so
that set-up time and peak memory belong to that workload alone.  The
script prints ``ready`` once ``bilapsym`` is imported and the seeded
inputs are built, then one JSON line with the results.

Modes:
  setup   stop after ``ready`` (a set-up time sample)
  run     untraced passes, closed loop, while another pass fits in --seconds
  trace   one untraced pass, then one traced pass with per-layer metrics
  record  one pass that writes the digests of the seed-independent results

Every timed pass runs under ``speed.SpeedSampler``, which also gives the
pass time adjusted for load from other processes on the host.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _import_harness():
    if not (SRC / "bilapsym" / "__init__.py").is_file():
        sys.exit(f"perfbench: no bilapsym sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import speed
    import tracer
    import workloads

    return speed, tracer, workloads


def run_pass(jobs, digests, tracer=None) -> tuple[float, float, list[str], list]:
    """One closed-loop pass over the jobs: seconds, seconds adjusted to the
    reference speed, failed job names, and results (kept only when tracing,
    for the coefficient sizes)."""
    failed: list[str] = []
    results: list = []
    with speed.SpeedSampler() as sampler:
        start = time.perf_counter()
        for index, job in enumerate(jobs):
            if tracer is None:
                ok, _ = workloads.run_job(job, digests)
            else:
                tracer.job = index
                with tracer.span(tracer_mod.JOB_SPAN):
                    ok, result = workloads.run_job(job, digests)
                results.append(result)
            if not ok:
                failed.append(job.name)
        seconds = time.perf_counter() - start
    return seconds, sampler.adjusted(seconds), failed, results


def _record(jobs) -> list[str]:
    digests = workloads.load_digests() if workloads.DIGESTS_PATH.exists() else {}
    failed = []
    for job in jobs:
        result = job.run()
        if not job.check(result):
            failed.append(job.name)
        elif job.digested:
            digests[job.name] = workloads.digest(workloads.canonical(result))
    if not failed:
        text = json.dumps(dict(sorted(digests.items())), indent=1)
        workloads.DIGESTS_PATH.write_text(text + "\n")
    return failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--mode", choices=("setup", "run", "trace", "record"), default="run")
    args = parser.parse_args(argv)

    jobs = workloads.build_jobs(args.workload, args.seed)
    print("ready", flush=True)
    if args.mode == "setup":
        return 0
    if args.mode == "record":
        failed = _record(jobs)
        print(json.dumps({"attempted": len(jobs), "failed": len(failed), "failures": failed}))
        return 1 if failed else 0

    digests = workloads.load_digests()
    out: dict = {"passes_s": [], "adjusted_s": [], "failures": []}
    while True:
        seconds, adjusted, failed, _ = run_pass(jobs, digests)
        out["passes_s"].append(seconds)
        out["adjusted_s"].append(adjusted)
        out["failures"].extend(failed)
        used = sum(out["passes_s"])
        if args.mode == "trace" or used + statistics.median(out["passes_s"]) > args.seconds:
            break
    attempted = len(jobs) * len(out["passes_s"])

    if args.mode == "trace":
        tracer = tracer_mod.Tracer()
        with tracer.installed(callers=[workloads]):
            traced_s, traced_adjusted, failed, results = run_pass(jobs, digests, tracer)
        out["failures"].extend(failed)
        attempted += len(jobs)
        layers = tracer.layer_metrics()
        layers["exactpoly.max_coeff_bits"] = max(
            (workloads.max_coeff_bits(workloads.canonical(r)) for r in results if r is not None),
            default=0,
        )
        layers["bench.traced_wall_s"] = traced_s
        layers["bench.trace_overhead_frac"] = traced_adjusted / out["adjusted_s"][0] - 1
        out["layers"] = layers

    out["attempted"] = attempted
    out["failed"] = len(out["failures"])
    out["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    speed, tracer_mod, workloads = _import_harness()
    sys.exit(main())
