"""Reference figures for the cases ROADMAP.md's baseline names.

    python3 bench/baseline.py

Times, once each and single-threaded: the 1000-net acceptance sweep,
``enumerate_gains(sobol_net(7, 10), 12)``, points of ``sobol_net(7, 20)``
and each scramble kind on them, and a cold ``--json analyze`` of the shift
net.  Each figure is given raw and divided by the calibration loop's
slowness around it (see ``calib``).  Prints one JSON object.  Takes about
two minutes; it is not part of the benchmark's runs.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import json  # noqa: E402
import subprocess  # noqa: E402

import calib  # noqa: E402
import workloads  # noqa: E402

ng = workloads._ng()


def timed(fn, stream=False):
    before = [calib.sample(stream) for _ in range(5)]
    start = time.perf_counter()
    fn()
    raw = time.perf_counter() - start
    after = [calib.sample(stream) for _ in range(5)]
    slow = calib.slowness(before + after, stream)
    return {"raw_s": round(raw, 4), "corrected_s": round(raw / slow, 4), "slowness": round(slow, 3)}


def main() -> None:
    out = {}
    out["sweep_1000_nets"] = timed(lambda: ng.suites.sweep_records(1000, max_s=4, max_m=6, min_m=2, seed=20260810))
    sobol = ng.samples.sobol_net(7, 10)
    report = []
    out["enumerate_gains_sobol_7_10_depth_12"] = timed(lambda: report.append(ng.gains.enumerate_gains(sobol, 12)))
    out["enumerate_gains_sobol_7_10_depth_12"]["visits"] = report[0].visited
    big = ng.samples.sobol_net(7, 20)
    points = []
    out["generate_points_sobol_7_20"] = timed(lambda: points.append(ng.netgen.generate_points(big)), stream=True)
    for kind in ng.scramble.ScrambleKind:
        spec = ng.scramble.ScrambleSpec(kind=kind, seed=1)
        out[f"scramble_{kind.value}_sobol_7_20"] = timed(lambda: ng.scramble.scramble(points[0], spec), stream=True)
    points.clear()
    shift = os.path.join(workloads.OUT_DIR, "baseline-shift.txt")
    os.makedirs(workloads.OUT_DIR, exist_ok=True)
    with open(shift, "w", encoding="utf-8") as fh:
        fh.write(ng.samples.SHIFT_NET_RAW)
    cmd = [sys.executable, "-m", "netgains.cli", "--json", "analyze", "--raw", shift]
    runs = [timed(lambda: subprocess.run(cmd, env=workloads.cli_env(), check=True, capture_output=True))
            for _ in range(5)]
    os.remove(shift)
    out["cli_analyze_shift_net_median_of_5"] = sorted(runs, key=lambda r: r["corrected_s"])[2]
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()
