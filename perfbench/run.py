"""Benchmark of bilapsym: run workloads, check them exactly, print metrics.

Usage, from the root of the repository:

  python3 perfbench/run.py --workload enumerate --seed 1 --seconds 30 --trace 0

``--workload all`` runs every workload, one after another.  Each workload
runs in a fresh child process (``worker.py``), and at most one child runs
at a time.  With ``--trace 0`` the end-to-end metrics of BENCHMARK.json are
printed; with ``--trace 1`` the per-layer metrics of a traced pass.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give, per workload, the seed, the Python version, nproc, every pass time
(raw and adjusted for host load, see ``speed.py``), the set-up samples, the
raw median ``wall_s`` and ``failed_frac`` with its base.  The exit code is 1 when
any job fails its exact check or its digest, and 2 when a workload could
not be run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).with_name("worker.py")
SETUP_PROBES = 5  # set-up-only children per untraced run, besides the workload child
TIME_LIMIT_S = 170.0  # one invocation per workload must end within this


class WorkerError(RuntimeError):
    pass


def _spawn(args: list[str], deadline: float) -> tuple[float, dict | None]:
    """Start one worker; return its set-up time (process start until it
    prints ``ready``) and its final JSON line, if any."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *args], cwd=ROOT, stdout=subprocess.PIPE, bufsize=0
    )
    try:
        buf = b""
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            while b"\n" not in buf:
                if not sel.select(max(0.0, deadline - time.perf_counter())):
                    raise WorkerError(f"worker {args} timed out")
                chunk = os.read(proc.stdout.fileno(), 65536)
                if not chunk:
                    break
                buf += chunk
        setup_s = time.perf_counter() - start
        rest, _ = proc.communicate(timeout=max(0.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise WorkerError(f"worker {args} timed out") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    lines = (buf + rest).decode().splitlines()
    if proc.returncode != 0 or not lines or lines[0] != "ready":
        raise WorkerError(f"worker {args} exited with code {proc.returncode}")
    return setup_s, (json.loads(lines[-1]) if len(lines) > 1 else None)


def measure(workload: str, seed: int, seconds: float, trace: bool, spec: dict):
    """Run one workload; return (metrics, attempted, failed, info)."""
    deadline = time.perf_counter() + TIME_LIMIT_S
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    info: dict = {"workload": workload, "seed": seed, "trace": int(trace),
                  "python": platform.python_version(), "nproc": os.cpu_count()}
    if trace:
        _, out = _spawn(common + ["--mode", "trace"], deadline)
        values = out["layers"]
        wanted = spec["per_layer"]
        info["traced_wall_s"] = values["bench.traced_wall_s"]
    else:
        setups = [_spawn(common + ["--mode", "setup"], deadline)[0] for _ in range(SETUP_PROBES)]
        setup_s, out = _spawn(common + ["--mode", "run"], deadline)
        setups.append(setup_s)
        values = {
            "adj_wall_s": statistics.median(out["adjusted_s"]),
            "setup_s": statistics.median(setups),
            "peak_rss_mib": out["peak_rss_mib"],
        }
        wanted = spec["end_to_end"]
        info["setup_samples_s"] = setups
    info.update({
        "passes_s": out["passes_s"],
        "adjusted_s": out["adjusted_s"],
        "wall_s": {"value": statistics.median(out["passes_s"]), "unit": "s"},
        "failed_frac": {"value": out["failed"] / out["attempted"], "unit": "ratio",
                        "failed": out["failed"], "attempted": out["attempted"]},
        "failures": out["failures"][:20],
    })
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    return metrics, out["attempted"], out["failed"], info


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description="Benchmark of bilapsym.")
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    chosen = names if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics: dict = {}
    for workload in chosen:
        try:
            m, a, f, info = measure(workload, args.seed, args.seconds, bool(args.trace), spec)
        except WorkerError as err:
            print(f"perfbench: {err}", file=sys.stderr)
            return 2
        print(json.dumps({**info, "metrics": m}), flush=True)
        attempted += a
        failed += f
        prefix = f"{workload}." if len(chosen) > 1 else ""
        metrics.update({prefix + k: v for k, v in m.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
