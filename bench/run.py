"""Benchmark of the semitoric pipeline: end-to-end and per-layer figures.

Run from the root of a checkout (stdlib only, nothing to build):

    python3 bench/run.py --workload divisors --seed 1 --seconds 38 --trace 0

Workloads (see ``workloads.py``; each is a closed loop with one client, one
process and one thread):

* ``divisors`` -- 56 divisors, 7 on each of P2, Bl P2, P1xP1, F2, P3, Bl P3,
  (P1)^3 and P4, as in acceptance criterion 2: ``divisor analyze --verify``
  on each, ``divisor sigma-d`` on the semiample ones.  H->V vertex
  enumeration by brute force (``solve_linear``) does most of the work.
* ``jacobian`` -- Fermat quintic ``ring dims`` at levels 0-3, quintic and
  crepant P(1,1,2,2,2) ``threefold h3`` with all four Gram blocks, Fermat
  cubic ``cup pair``: the only workload on the sparse echelon, graded
  pieces, residues and cup pairings.
* ``hodge`` -- 11 K3 hulls (lattice points of the anticanonical polytope of
  P(1,w)), the 6 weighted-P4 ``h21`` pairs, and the 7-dimensional
  ``mirror check``: V->H work (one LP per point, facets from vertex
  subsets, point enumeration, duality), the opposite direction.

Left out on purpose: weighted-P4 Newton polytopes whose weights do not
divide the degree.  Their hulls take 13-46 s each (one LP per lattice
point; P(1,1,1,1,3) takes 45.5 s), too slow for a run until the
double-description kernel of ROADMAP item 3 lands.

The seed only changes inputs: the divisor representatives (within fixed
linear-equivalence classes), the Fermat coefficients, the hodge task order.

``--trace 0`` starts 16 set-up-only processes, half before and half after
one fresh worker process that repeats the workload's pass for the rest of
``--seconds`` (the last pass may stop part-way), and reports:

* ``wall_s`` -- first task start to last task end of one pass: the sum over
  tasks of each task's median time over the passes, scaled to the nominal
  host speed (below);
* ``task_p50_ms`` -- the median over tasks of those times; the task count
  is printed with it;
* ``setup_s`` -- process spawn (interpreter start, ``import semitoric``,
  input generation) to the first task, scaled to the nominal host speed,
  median over the set-up-only processes;
* ``peak_rss_mb`` -- peak resident memory of the worker after its first
  pass, which fills the library's per-object caches.

Why scaled: the shared 2-vCPU cloud machine this was tuned on swings
between a fast phase and phases up to ~2x slower (other tenants) within
seconds, and its slow phases can last minutes, so raw times of the same
code spread past any allowed bound (27-37 % over ten runs of ``divisors``
with the fastest of 3-5 passes per task).  A gauge (``gauge.py``) times a
fixed piece of pure-Python work every 25 ms inside the worker; each task
time is scaled by how slow the gauge was around it.  The unscaled figures
are printed too.

Every task is checked by an independent route; a task that raises or fails
its check counts in ``failed`` (``failed_frac`` = failed / attempted is
printed; it must be 0).

``--trace 1`` runs two untraced passes, two passes with every public
function of every module wrapped from outside (``tracer.py``), alternately,
and one pass that only counts ``Fraction`` constructions, each in a fresh
process.  It reports the per-layer metrics of the faster traced pass, the
tracing overhead (traced minus untraced ``wall_s``, each from two passes as
above) and writes the span trees
to ``bench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from gauge import NOMINAL_S, scale

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
RUN_LIMIT_S = 170    # every run ends well inside 180 s
SETUP_ONLY = 16      # set-up-only processes per run, for the setup_s median


class HarnessError(Exception):
    pass


def spawn(workload, seed, mode, deadline, trace_out=None, seconds=None):
    """Run one worker process; returns (setup seconds, result dict)."""
    cmd = [sys.executable, "-I", str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode]
    if trace_out:
        cmd += ["--trace-out", str(trace_out)]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - start))
        line = proc.stdout.readline() if ready else ""
        setup = time.perf_counter() - start
        if line.strip() != "ready":
            raise HarnessError(f"{mode} worker did not get ready")
        out, _ = proc.communicate(timeout=max(0.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise HarnessError(f"{mode} pass did not finish within the run limit") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise HarnessError(f"{mode} worker exited with code {proc.returncode}")
    return setup, json.loads(out.strip().splitlines()[-1])


def measure(workload, seed, seconds, deadline):
    start = time.perf_counter()

    def setups(n):
        # each set-up time at the nominal host speed, by the gauge read right after
        return [scale(t, r["gauge_s"])
                for t, r in (spawn(workload, seed, "setup", deadline) for _ in range(n))]

    setup = setups(SETUP_ONLY // 2)
    budget = seconds - 2 * (time.perf_counter() - start)
    _, result = spawn(workload, seed, "plain", deadline, seconds=max(budget, 1.0))
    setup += setups(SETUP_ONLY - len(setup))
    tasks = task_times([result])
    raw = [statistics.median(net for net, _ in reps) for reps in result["task_reps"]]
    metrics = {
        "wall_s": (sum(tasks), "s"),
        "task_p50_ms": (statistics.median(tasks) * 1000, "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    gauge = result["gauge"]
    passes = result["pass_wall_s"]
    notes = [f"full_passes={len(passes)} tasks_per_pass={len(tasks)} "
             f"setup_samples={len(setup)}",
             "full pass wall_s, not scaled: " + " ".join(f"{w:.3f}" for w in passes),
             f"median task times summed, not scaled: {sum(raw):.3f} s",
             f"gauge: {gauge['samples']} samples, 5th percentile {gauge['p05_s'] * 1e6:.1f} us, "
             f"median {gauge['median_s'] * 1e6:.1f} us, nominal {NOMINAL_S * 1e6:.1f} us"]
    return [result], metrics, notes


def task_times(results):
    """Each task's median time over all its runs in ``results``, scaled to the
    nominal host speed by the gauge samples around each run."""
    per_task = zip(*(r["task_reps"] for r in results))
    return [statistics.median(scale(net, speed) for reps in runs for net, speed in reps)
            for runs in per_task]


def trace(workload, seed, deadline):
    OUT.mkdir(exist_ok=True)
    plain, traced = [], []
    for k in range(2):
        plain.append(spawn(workload, seed, "plain", deadline)[1])
        path = OUT / f"trace-{workload}-seed{seed}-{k}.json"
        traced.append(spawn(workload, seed, "traced", deadline, path)[1])
        traced[-1]["trace_file"] = path.relative_to(ROOT)
    _, counted = spawn(workload, seed, "count", deadline)
    untraced_s = sum(task_times(plain))
    traced_s = sum(task_times(traced))
    overhead = traced_s - untraced_s
    # the layer figures of the traced pass least slowed by the host
    chosen = min(traced, key=lambda p: p["gauge"]["median_s"])
    metrics = {name: (value, _unit(name)) for name, value in chosen["layers"].items()}
    metrics["fractions.new.calls"] = (counted["fractions"], "count")
    metrics["trace.wall_s"] = (traced_s, "s")
    metrics["trace.untraced_wall_s"] = (untraced_s, "s")
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.overhead_frac"] = (overhead / untraced_s, "ratio")
    notes = [f"tracing overhead: {overhead:+.3f} s ({overhead / untraced_s:+.1%}) of "
             f"{untraced_s:.3f} s untraced, scaled, median of two passes each",
             f"span tree: {chosen['trace_file']}"]
    return plain + traced + [counted], metrics, notes


def _unit(name):
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("yield", "ratio")):
        return "ratio"
    return "count"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "semitoric" / "__init__.py").is_file():
        print(f"no semitoric sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + RUN_LIMIT_S
    try:
        if args.trace:
            passes, metrics, notes = trace(args.workload, args.seed, deadline)
        else:
            passes, metrics, notes = measure(args.workload, args.seed, args.seconds, deadline)
    except HarnessError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    print(f"workload={args.workload} seed={args.seed} nproc={os.cpu_count()} "
          f"python={platform.python_version()} one fresh worker process per pass set")
    for note in notes:
        print(note)
    for err in sorted({e for p in passes for e in p["errors"]}):
        print(f"FAILED {err}")
    print(f"failed_frac = {failed / attempted} ({failed} of {attempted} tasks)")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
