"""pctsolve benchmark: time to a verified answer, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src`` (no install step).  Each run starts the workload in fresh worker
processes (perfbench/worker.py); the load is a closed loop of back-to-back
passes from one single-threaded process.

Workloads (perfbench/workloads.py):

* ``readme_verify``     - ``cli.cmd_verify`` on the README's two-run config
  (coth_sq x Poeschl-Teller at 20 001 points, custom 1/(1 + a x^2) x Morse
  at 40 001 points); dominated by the custom mapping.
* ``sweep_verify``      - ``cli.cmd_verify`` on all 27 ``presets.COMBO_TABLE``
  runs, 3 levels each; never touches the custom mapping.

Both inputs are fixed configs: ``--seed`` is accepted and recorded, but
selects nothing.

With ``--trace 0`` the last line of standard output carries the end-to-end
metrics, measured with tracing off:

* ``setup_s``       - median, over several fresh processes, of the time from
  process start to pctsolve imported and the inputs parsed and validated;
* ``wall_s``        - median seconds per pass;
* ``wall_s_max``    - the slowest pass (the highest percentile the few
  passes of a run support; a readme_verify pass outlasts ``--seconds``,
  so those runs make one pass);
* ``peak_rss_mb``   - peak resident memory of the worker;
* ``success_ratio`` - outcomes passing their oracle check / outcomes
  attempted (an outcome is one config run or one mapped point);
* ``max_energy_rel_err``, ``max_orth_dev``, ``max_residual`` - from the
  verify report, over runs expected to pass;
* ``max_map_err``   - max |f_closed(x) - y| over the x -> y pairs the custom
  mapping produced.

An accuracy metric a workload does not measure (``max_map_err`` on
sweep_verify, which has no custom profile) is reported as 1.0 and listed
under ``not_measured`` in the results file, so that every workload reports
the same metrics.

With ``--trace 1`` a separate run wraps the public callables of each pctsolve
module (perfbench/tracing.py) and reports, per span, ``self_s``, ``busy_s``,
``calls`` and (for spans taking x or y) ``points``, per traced pass, plus
derived ratios.  ``trace.overhead_ratio`` divides the median traced pass time
by the median untraced pass time of the untraced runs of the same code and
workload in this checkout; without such runs, the traced run times untraced
passes itself where they fit in the time limit, and reports 0 if none fits.
The run fails its self-check if ``calls``/``points`` differ between its
traced passes, or from those of an earlier traced run of the same code,
workload and seed in this checkout (kept in .perfbench/).

Every run writes its details - environment, per-pass times, sample counts,
problems, the per-run trace breakdown - to .perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"

ACCURACY_METRICS = ("max_energy_rel_err", "max_orth_dev", "max_residual", "max_map_err")
NOT_MEASURED = 1.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "wall_s_max": "s",
    "peak_rss_mb": "MB",
    "success_ratio": "ratio",
    "max_energy_rel_err": "ratio",
    "max_orth_dev": "1",
    "max_residual": "1",
    "max_map_err": "1",
}

#: fresh processes timed for setup_s, besides the measuring worker itself
SETUP_PROBES = 5

#: every child must have finished this long after the run started
TIME_LIMIT_S = 170.0


class BenchError(Exception):
    pass


def _environment():
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "platform": platform.platform(),
    }


def _spawn(workload, seed, mode, deadline, seconds=0.0, untraced_seconds=0.0):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--mode", mode,
        "--seconds", repr(seconds), "--untraced-seconds", repr(untraced_seconds),
        "--time-limit", repr(deadline - time.monotonic()), "--spawned-at", repr(time.time()),
    ]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"{mode} worker for {workload} exceeded the time limit")
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker for {workload} exited with code {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def _code_hash():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _check_counts_repeat(code, workload, seed, per_layer):
    """Compare this run's span counts with an earlier traced run of the same
    code, workload and seed; remember them if there is none."""
    counts = {k: v for k, v in per_layer.items() if k.endswith((".calls", ".points"))}
    path = OUT / "trace_counts.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    key = f"{code}/{workload}/{seed}"
    if key in known:
        diff = sorted(k for k in counts if known[key].get(k) != counts[k])
        return [f"span counts differ from an earlier traced run: {diff}"] if diff else []
    known[key] = counts
    OUT.mkdir(exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return []


def _stored_walls(code, workload):
    """Pass times of earlier untraced runs of the same code and workload."""
    walls = []
    for path in sorted(OUT.glob(f"results/{workload}-seed*-trace0.json")):
        record = json.loads(path.read_text())
        if record.get("code") == code:
            walls += record["pass_walls_s"]
    return walls


def _declared_metrics(trace):
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        return None
    spec = json.loads(path.read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run(workload, seed, seconds, trace):
    deadline = time.monotonic() + TIME_LIMIT_S
    code = _code_hash()
    if trace:
        # the untraced baseline comes from earlier untraced runs of the same
        # code when there are any, else from untraced passes in this run
        stored = _stored_walls(code, workload)
        raw = _spawn(
            workload, seed, "traced", deadline,
            seconds=seconds / 2, untraced_seconds=0.0 if stored else seconds / 2,
        )
        metrics = raw.get("per_layer", {})
        untraced = stored or raw["untraced_walls"]
        if metrics:
            # 0 when no untraced pass fitted in the time limit
            metrics["trace.overhead_ratio"] = (
                statistics.median(raw["traced_walls"]) / statistics.median(untraced) if untraced else 0.0
            )
            raw["problems"] += _check_counts_repeat(code, workload, seed, metrics)
        details = {
            "untraced_walls_s": untraced,
            "untraced_walls_from": "earlier untraced runs" if stored else "this run",
            "traced_walls_s": raw["traced_walls"],
            "trace": raw.pop("trace_detail", None),
        }
    else:
        setups = [_spawn(workload, seed, "setup", deadline)["setup_s"] for _ in range(SETUP_PROBES)]
        raw = _spawn(workload, seed, "timed", deadline, seconds=seconds)
        setups.append(raw["setup_s"])
        walls = raw["walls"] or [0.0]  # every pass raised: reported as incorrect
        accuracy = raw["accuracy"]
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls),
            "wall_s_max": max(walls),
            "peak_rss_mb": raw["peak_rss_mb"],
            "success_ratio": 1.0 - raw["failed"] / max(raw["attempted"], 1),
        }
        for m in ACCURACY_METRICS:
            metrics[m] = accuracy.get(m, NOT_MEASURED)
        details = {
            "setup_samples_s": setups,
            "pass_walls_s": raw["walls"],
            "not_measured": [m for m in ACCURACY_METRICS if m not in accuracy],
        }
    declared = _declared_metrics(trace)
    if declared is not None and sorted(declared) != sorted(metrics):
        raw["problems"].append(
            f"metrics differ from BENCHMARK.json: {sorted(set(declared) ^ set(metrics))}"
        )
    summary = {
        "correct": raw["failed"] == 0 and not raw["problems"],
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {k: {"value": v, "unit": _unit(k)} for k, v in metrics.items()},
    }
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "code": code,
        "environment": {**_environment(), **raw.get("versions", {})},
        "passes": len(raw["walls"]),
        "problems": raw["problems"],
        **details,
        "summary": summary,
    }
    OUT.joinpath("results").mkdir(parents=True, exist_ok=True)
    OUT.joinpath("results", f"{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1)
    )
    return record


def _unit(name):
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith((".calls", ".points")):
        return "count"
    return "ratio"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "pctsolve" / "__init__.py").is_file():
        print(f"error: no pctsolve sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        record = run(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for problem in record["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    print("environment: " + json.dumps(record["environment"], sort_keys=True))
    print(json.dumps(record["summary"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
