"""Passes of one workload in a fresh interpreter.

Started by ``run.py``; not meant to be run by hand.  It imports
``semitoric`` from ``<checkout>/src``, generates the workload from the seed,
prints ``ready`` (the end of set-up), runs every task in a closed loop with
one client, checks every answer after each pass, and prints one JSON line
with the figures.

``--seconds S`` repeats the pass while the next task should end within ``S``
seconds (the last pass may stop part-way); without it the worker makes one
pass.  Except when it counts ``Fraction`` constructions, the worker samples
the host's speed with ``gauge.Gauge`` meanwhile.  A set-up-only worker
prints one spot reading of the gauge after ``ready``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def serialize(report):
    """The CLI's report format: sorted keys, two-space indent."""
    return json.dumps(report, sort_keys=True, indent=2, separators=(",", ": "))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "plain", "traced", "count"), required=True)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace-out")
    args = ap.parse_args()

    sys.path[:0] = [str(SRC), str(HERE)]
    import semitoric
    import semitoric.cli
    if Path(semitoric.__file__).resolve().parent != SRC / "semitoric":
        sys.exit(f"imported semitoric from {semitoric.__file__}, not from {SRC}")
    import workloads

    tasks = workloads.make_tasks(args.workload, args.seed, Path(semitoric.__file__).parent)
    print("ready", flush=True)
    if args.mode == "setup":
        from gauge import spot
        print(json.dumps({"gauge_s": spot()}), flush=True)
        return

    tracer = fractions = gauge = None
    run_serialized = serialize
    if args.mode == "traced":
        from tracer import Tracer
        tracer = Tracer(semitoric)
        tracer.install()
        run_serialized = tracer.wrap("cli.serialize", "cli", serialize)
    if args.mode == "count":
        from tracer import count_fractions
        fractions = count_fractions()
    else:
        from gauge import Gauge
        gauge = Gauge()

    def one(task):
        report = task.run(semitoric, task.doc)
        run_serialized(report)
        return report

    # spans[i] = (start, end) of each run of task i
    spans, walls, errors = [[] for _ in tasks], [], []
    attempted = failed = 0
    peak_rss_mb = None
    begin = time.perf_counter()
    if gauge is not None:
        gauge.start()
    while True:
        reports = []
        first = time.perf_counter()
        for i, task in enumerate(tasks):
            start = time.perf_counter()
            # stop before a task that would not end within the budget
            if walls and start - begin + spans[i][-1][1] - spans[i][-1][0] > args.seconds:
                break
            try:
                if tracer is None:
                    reports.append(one(task))
                else:
                    reports.append(tracer.run_task(i, task.kind, one, task))
            except Exception:
                reports.append(None)
                errors.append(f"{task.kind}: {traceback.format_exc(limit=-3)}")
                failed += 1
            spans[i].append((start, time.perf_counter()))
        attempted += len(reports)
        if len(reports) == len(tasks):
            walls.append(time.perf_counter() - first)
        if peak_rss_mb is None:
            # ru_maxrss is in KiB on Linux; the first pass holds the cold caches
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        for task, report in zip(tasks, reports):
            if report is None:
                continue
            try:
                problems = task.check(task.doc, report)
            except Exception:
                problems = [f"check raised: {traceback.format_exc(limit=-3)}"]
            if problems:
                failed += 1
                errors.append(f"{task.kind}: {'; '.join(problems)}")
        if args.seconds is None or len(reports) < len(tasks):
            break
    if gauge is not None:
        gauge.stop()

    out = {
        "pass_wall_s": walls,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "peak_rss_mb": peak_rss_mb,
    }
    if gauge is not None:
        # each task's time in each pass, less the gauge's own samples, and the
        # gauge's median sample around it
        out["task_reps"] = [[gauge.judge(start, end) for start, end in times]
                            for times in spans]
        out["gauge"] = gauge.summary()
    if fractions is not None:
        out["fractions"] = fractions[0]
    if tracer is not None:
        out["layers"] = tracer.metrics()
        if args.trace_out:
            tracer.dump(args.trace_out, {"workload": args.workload, "seed": args.seed,
                                         "tasks": [t.kind for t in tasks],
                                         "wall_s": walls[0]})
    print(json.dumps(out), flush=True)


if __name__ == "__main__":
    main()
