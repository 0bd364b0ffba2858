"""One workload in a fresh, single-threaded process.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--probe]

Sets up (timed from the first line of this file), then runs whole rounds of
the workload's ops until ``--seconds`` have passed and at least
``MIN_OPS`` ops ran.  The calibration loop runs between ops.  Checks run
outside the timed calls.  With ``--probe`` it stops after set-up.  With
``--trace 1`` every second round runs with the tracer on, so the run also
measures the tracing overhead.  Prints one JSON line.
"""

import time

_START = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import argparse  # noqa: E402
import gzip  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402

import calib  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

MIN_OPS = 100  # so the 90th percentile has at least ten ops beyond it
CAL_EVERY_S = 0.05  # time between calibration samples
CAL_WINDOW = 3  # an op is corrected by the median of the samples this close to it
SETUP_CAL_SAMPLES = 9
PERCENTILE_WINDOW = 0.05


def _percentile(sorted_values, q):
    """The ``q``-th percentile, smoothed: the mean of the values ranked within
    ``PERCENTILE_WINDOW`` of ``n`` of its nearest rank.

    A round repeats a few kinds of op, so their times form clusters, and a
    nearest rank that falls between two clusters jumps with the extreme of
    one of them; the mean over the window does not.
    """
    n = len(sorted_values)
    rank = max(0, -(-n * q // 100) - 1)
    half = max(1, round(PERCENTILE_WINDOW * n))
    window = sorted_values[max(0, rank - half): rank + half + 1]
    return sum(window) / len(window)


def _judge(op, i, out, first):
    """Problems and fault problems of op ``i``'s output.

    The first round runs the op's checks; later rounds must reproduce the
    first round's digest and then share its verdict.
    """
    summary = op.summary(out)
    if i not in first:
        found = op.check(out)
        fault = op.fault_check(out) if op.fault_check else []
        first[i] = (summary, found, fault)
        return found, fault
    if summary != first[i][0]:
        return [f"{op.label} (op {i}) differs from its first round"], []
    return first[i][1], first[i][2]


def run(args) -> dict:
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
        tracer.on = True
    wl = workloads.build(args.workload, args.seed)
    setup_s = time.perf_counter() - _START
    if tracer is not None:
        tracer.on = False
        wl.tracer = tracer
    setup_cal = [calib.sample(wl.streams) for _ in range(SETUP_CAL_SAMPLES)]
    if args.probe:
        wl.cleanup()
        return {"setup_s": setup_s, "setup_slowness": calib.slowness(setup_cal, wl.streams)}

    cal: list[float] = []
    ops = []  # [label, seconds, work, calibration index, traced]
    problems: list[str] = []
    faults: dict[str, int] = {}
    first: dict[int, tuple] = {}  # op index -> (digest, problems, fault problems)
    failed = 0
    rounds = 0
    last_cal = float("-inf")
    begin = time.perf_counter()
    try:
        while True:
            traced = tracer is not None and rounds % 2 == 1
            for i, op in enumerate(wl.ops):
                if time.perf_counter() - last_cal >= CAL_EVERY_S:
                    cal.append(calib.sample(wl.streams))
                    last_cal = time.perf_counter()
                arg = op.prepare()
                if traced:
                    tracer.op, tracer.on = len(ops), True
                t0 = time.perf_counter()
                try:
                    out = op.call(arg)
                    error = None
                except Exception:  # a failing op is reported, the run goes on
                    out, error = None, traceback.format_exc(limit=3)
                dt = time.perf_counter() - t0
                if traced:
                    tracer.on = False
                ops.append([op.label, dt, 0 if error else op.work(out), len(cal) - 1, traced])
                if error:
                    found, fault = [f"{op.label} raised: {error}"], []
                else:
                    try:
                        found, fault = _judge(op, i, out, first)
                    except Exception:  # an output the checks cannot read is a wrong output
                        found, fault = [f"{op.label} check raised: {traceback.format_exc(limit=3)}"], []
                problems += found
                if fault:
                    faults[workloads.REPLICATE_SEED_FAULT] = faults.get(workloads.REPLICATE_SEED_FAULT, 0) + 1
                if found or fault:
                    failed += 1
            rounds += 1
            if (time.perf_counter() - begin >= args.seconds and len(ops) >= MIN_OPS
                    and (tracer is None or rounds >= 2)):
                break
        cal.append(calib.sample(wl.streams))
        usage = resource.getrusage(resource.RUSAGE_CHILDREN if wl.rss_of_children else resource.RUSAGE_SELF)
        peak_rss_mib = usage.ru_maxrss / 1024.0
        try:
            problems += wl.finish()
        except Exception:  # as above, for the reference checks after the rounds
            problems.append(f"reference checks raised: {traceback.format_exc(limit=3)}")
    finally:
        wl.cleanup()

    # per-op slowness: median of the calibration samples around the op
    slow = [calib.slowness(cal[max(0, c - CAL_WINDOW): c + CAL_WINDOW + 1], wl.streams) for _, _, _, c, _ in ops]

    def figures(selected):
        raw = [ops[i][1] for i in selected]
        work = sum(ops[i][2] for i in selected)
        corrected = sorted(ops[i][1] / slow[i] for i in selected)
        raw_sorted = sorted(raw)
        return {
            "work_per_s": work / sum(corrected),
            "op_p50_ms": 1e3 * _percentile(corrected, 50),
            "op_p90_ms": 1e3 * _percentile(corrected, 90),
            "raw_work_per_s": work / sum(raw),
            "raw_op_p50_ms": 1e3 * _percentile(raw_sorted, 50),
            "raw_op_p90_ms": 1e3 * _percentile(raw_sorted, 90),
        }

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": rounds,
        "ops_per_round": len(wl.ops),
        "attempted": len(ops),
        "failed": failed,
        "faults": faults,
        "problems": problems[:20],
        "problem_count": len(problems),
        "setup_s": setup_s,
        "setup_slowness": calib.slowness(setup_cal, wl.streams),
        "slowness": calib.slowness(cal, wl.streams),
        "calibration_median_s": statistics.median(cal),
        "calibration_samples": len(cal),
        "peak_rss_mib": peak_rss_mib,
    }
    untraced = [i for i, row in enumerate(ops) if not row[4]]
    result.update(figures(untraced))
    if tracer is not None:
        traced = [i for i, row in enumerate(ops) if row[4]]
        result["traced_work_per_s"] = figures(traced)["work_per_s"]
        result["tracing_overhead"] = result["work_per_s"] / result["traced_work_per_s"]
        traced_slow = statistics.median(slow[i] for i in traced)
        command_ms: dict[str, list[float]] = {}
        for i in traced:
            if ops[i][0].startswith("cli."):
                command_ms.setdefault(ops[i][0].split(".")[1], []).append(1e3 * ops[i][1])
        for child in wl.child_totals:
            tracer.merge(child)
        result["per_layer"] = tracing.layer_metrics(tracer, rounds // 2, traced_slow, command_ms)
        result["spans"] = _write_spans(args, tracer, wl.child_totals)
    return result


def _write_spans(args, tracer, children) -> str:
    """Spans of this process and of the traced CLI children, one per line."""
    os.makedirs(workloads.OUT_DIR, exist_ok=True)
    path = os.path.join(workloads.OUT_DIR, f"{args.workload}-seed{args.seed}.spans.jsonl.gz")
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
        tracer.write_spans(fh)
        for child in children:
            fh.writelines(child["spans"])
    return os.path.relpath(path, workloads.ROOT)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help="stop after set-up")
    args = parser.parse_args()
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
