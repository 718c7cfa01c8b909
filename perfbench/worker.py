"""Runs one workload in a fresh process and prints one JSON line of raw results.

    python3 perfbench/worker.py --workload NAME --seed N --mode MODE \
        --seconds S --spawned-at EPOCH_SECONDS

run.py starts this with ``src`` on PYTHONPATH.  Modes:

* ``setup``  - only set up; report seconds since ``--spawned-at``;
* ``timed``  - set up, then run passes back to back until ``--seconds`` have
  elapsed (at least one), checking each pass's outputs after it;
* ``traced`` - traced passes for ``--seconds`` (at least one), then untraced
  passes for ``--untraced-seconds`` as far as they fit in ``--time-limit``,
  checking every pass.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import resource
import statistics
import sys
import time
import traceback

from tracing import Tracer, point_spans, span_names
from workloads import WORKLOADS, Check

#: slack left when deciding whether one more pass fits in the time limit
_MARGIN_S = 10.0


def _passes(workload, seed, state, seconds, traced, start_by=math.inf):
    """Closed loop of passes; returns [(wall_s or None, Check, Tracer or None)].

    Passes run until ``seconds`` have elapsed (at least one), but none starts
    after the perf_counter time ``start_by``.  A traced pass also repeats the
    set-up under the tracer (tagged "setup", not part of wall_s), so that
    set-up spans are recorded too.
    """
    out = []
    end = time.perf_counter() + seconds
    while time.perf_counter() < start_by:
        tracer = Tracer() if traced else None
        wall = None
        try:
            with tracer.installed() if traced else contextlib.nullcontext():
                if traced:
                    with tracer.tag("setup"):
                        state = workload.setup(seed)
                t0 = time.perf_counter()
                output = workload.run(state, tracer)
                wall = time.perf_counter() - t0
            check = workload.check(state, output)
        except Exception:
            check = Check()
            check.outcome(False, traceback.format_exc())
        out.append((wall, check, tracer))
        if time.perf_counter() >= end:
            break
    return out


def _summary(passes):
    attempted = sum(c.attempted for _, c, _ in passes)
    failed = sum(c.failed for _, c, _ in passes)
    accuracy = {}
    for _, c, _ in passes:
        for k, v in c.accuracy.items():
            accuracy[k] = max(accuracy.get(k, 0.0), v)
    return {
        "walls": [w for w, _, _ in passes if w is not None],
        "attempted": attempted,
        "failed": failed,
        "accuracy": accuracy,
        "problems": [p for _, c, _ in passes for p in c.problems],
    }


def _per_layer(passes):
    """Per-layer metrics of the traced passes, per pass (trace.overhead_ratio
    needs untraced walls and is added by run.py)."""
    tracers = [t for _, _, t in passes]
    spans = [t.spans() for t in tracers]
    first = spans[0]
    counts = [
        {name: (rec["calls"], rec["points"]) for name, rec in s.items()} for s in spans
    ]
    problems = []
    if any(c != counts[0] for c in counts[1:]):
        problems.append("span calls/points differ between traced passes of one run")
    with_points = point_spans()
    metrics = {}
    for name in span_names():
        metrics[f"{name}.self_s"] = statistics.fmean(s[name]["self_s"] for s in spans)
        metrics[f"{name}.busy_s"] = statistics.fmean(s[name]["busy_s"] for s in spans)
        metrics[f"{name}.calls"] = first[name]["calls"]
        if name in with_points:
            metrics[f"{name}.points"] = first[name]["points"]
    jet = first["exprlang.eval_jet"]
    metrics["exprlang.eval_jet.points_per_call"] = jet["points"] / jet["calls"] if jet["calls"] else 0.0
    inv_points = first["massmodel.inverse"]["points"]
    inv_forward = tracers[0].edges().get(("massmodel.inverse", "massmodel.forward"), 0)
    metrics["massmodel.inverse.forward_calls_per_point"] = inv_forward / inv_points if inv_points else 0.0
    metrics["cli.cmd_verify.concurrency"] = statistics.fmean(
        t.concurrency()["cli.cmd_verify"] for t in tracers
    )
    busy_total = sum(rec["busy_s"] for rec in first.values()) or 1.0
    detail = {
        "busy_share": {name: rec["busy_s"] / busy_total for name, rec in first.items()},
        "by_tag": tracers[0].by_tag(),
        "edges": [
            {"parent": parent, "span": span, "calls": calls}
            for (parent, span), calls in sorted(tracers[0].edges().items(), key=str)
        ],
    }
    return metrics, detail, problems


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "timed", "traced"))
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--untraced-seconds", type=float, default=0.0)
    parser.add_argument("--time-limit", type=float, default=math.inf)
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    workload = WORKLOADS[args.workload]
    state = workload.setup(args.seed)
    result = {"setup_s": time.time() - args.spawned_at}
    if args.mode == "timed":
        result.update(_summary(_passes(workload, args.seed, state, args.seconds, traced=False)))
    elif args.mode == "traced":
        traced = _passes(workload, args.seed, state, args.seconds, traced=True)
        # untraced passes for trace.overhead_ratio, only where one still fits
        # in the time limit (a pass takes less than the slowest traced one)
        slowest = max((w for w, _, _ in traced if w is not None), default=0.0)
        start_by = started + args.time_limit - slowest - _MARGIN_S
        untraced = _passes(
            workload, args.seed, state, args.untraced_seconds, traced=False, start_by=start_by
        ) if args.untraced_seconds > 0 else []
        result.update(_summary(traced + untraced))
        result["untraced_walls"] = [w for w, _, _ in untraced if w is not None]
        result["traced_walls"] = [w for w, _, _ in traced if w is not None]
        if len(result["walls"]) < len(untraced) + len(traced):
            result["problems"].append("a pass raised; no per-layer metrics")
        else:
            metrics, detail, problems = _per_layer(traced)
            result.update(per_layer=metrics, trace_detail=detail)
            result["problems"] += problems
    if args.mode != "setup":
        import numpy
        import scipy

        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["versions"] = {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        }
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
