"""Benchmark of netgains: four workloads, end-to-end and per-layer figures.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; ``netgains`` is imported from its ``src/``.
Each workload runs in a fresh worker process (``worker.py``); set-up time is
the median of several more fresh processes that only set up.  Without
``--workload`` all four run in turn.  Each workload prints a line with every
figure, raw and host-speed corrected, and then a result line:
``{"correct", "attempted", "failed", "metrics"}``.  The same detail goes to
``bench/out/<workload>-seed<n>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
WORKLOADS = ("xval-sweep", "gain-enum", "rqmc-points", "cli-mix")
END_TO_END = {"setup_s": "s", "work_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms", "peak_rss_mib": "MiB"}
SETUP_PROBES = 7
WORKER_TIMEOUT_S = 130
PROBE_TIMEOUT_S = 5  # set-up takes under half a second


def _worker(argv: list[str], timeout: float) -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"  # the same dict layouts in every run
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), *argv],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(argv)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: int, trace: int) -> dict:
    argv = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    detail = _worker(argv, WORKER_TIMEOUT_S)
    if trace:
        metrics = {k: {"value": v, "unit": tracing.PER_LAYER[k]} for k, v in detail.pop("per_layer").items()}
    else:
        probes = [_worker([*argv, "--probe"], PROBE_TIMEOUT_S) for _ in range(SETUP_PROBES)]
        detail["setup_probes"] = probes
        detail["raw_setup_s"] = statistics.median(p["setup_s"] for p in probes)
        setup = statistics.median(p["setup_s"] / p["setup_slowness"] for p in probes)
        values = {"setup_s": setup, **{k: detail[k] for k in END_TO_END if k != "setup_s"}}
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END.items()}
    detail["metrics"] = metrics
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"{name}-seed{seed}-trace{trace}.json"), "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    return detail


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, help="default: all four in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "netgains", "__init__.py")):
        print(f"error: no netgains sources in {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    for name in (args.workload,) if args.workload else WORKLOADS:
        try:
            detail = run_workload(name, args.seed, args.seconds, args.trace)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        print(json.dumps({k: v for k, v in detail.items() if k != "setup_probes"}))
        print(json.dumps({
            "correct": detail["problem_count"] == 0,
            "attempted": detail["attempted"],
            "failed": detail["failed"],
            "metrics": detail["metrics"],
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
