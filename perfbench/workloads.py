"""The benchmark's workloads, with their oracle checks.

Each workload provides

* ``setup(seed)`` - import pctsolve and parse and validate the inputs; this
  is what ``setup_s`` times;
* ``run(state, tracer)`` - one pass, the time to a verified answer; this is
  what ``wall_s`` times;
* ``check(state, output)`` - oracle checks of the pass's outputs against
  closed forms the benchmark computes itself; never timed.

The inputs are fixed configs; ``seed`` selects nothing.  A check returns a
``Check``: the outcomes attempted (a config run or a mapped point) and
failed, the accuracy metrics the workload measures, and a description of
each problem found.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np

#: the two-run config of the README's "Command line" section
README_CONFIG = {
    "schema_version": 1,
    "runs": [
        {
            "name": "coth-pt",
            "mass": {"kind": "coth_sq", "alpha": 1.0, "q": 2.0},
            "reference": {"kind": "poschl_teller", "U0": 6.0, "alpha": 1.0},
            "grid": {"n_points": 20001, "levels": 3},
        },
        {
            "name": "custom",
            "mass": {
                "kind": "custom",
                "expression": "1/(1 + a*x^2)",
                "parameters": {"a": 0.25},
                "domain": [-80.0, 80.0],
            },
            "reference": {"kind": "morse", "D": 8.0, "alpha": 1.0},
            "grid": {"n_points": 40001, "levels": 3},
        },
    ],
}

#: |f - f_closed| above this fails a mapped point
MAP_TOLERANCE = 1e-8

#: points of the grid on which a custom mapping is compared with its closed form
MAP_CHECK_POINTS = 41


@dataclass
class Check:
    attempted: int = 0
    failed: int = 0
    accuracy: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)

    def outcome(self, ok, problem):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)

    def accuracy_max(self, metric, value):
        self.accuracy[metric] = max(self.accuracy.get(metric, 0.0), float(value))


# ---------------------------------------------------------------------------
# closed-form mapping f(x) = int sqrt(m) dx of the README's custom profile


def _f_rational(x, a):
    """m = 1/(1 + a x^2):  f = asinh(sqrt(a) x) / sqrt(a)."""
    return np.arcsinh(math.sqrt(a) * x) / math.sqrt(a)


def _check_map(check, label, profile, f_closed, xs, ys):
    """One outcome per point: the program mapped x to y; f_closed(x) must be y.

    The program anchors f at the midpoint of the profile domain (f = 0
    there); the closed form is shifted to the same anchor.
    """
    lo, hi = profile.domain()
    anchor = f_closed(0.5 * (lo + hi))
    for x, y in zip(np.atleast_1d(xs).tolist(), np.atleast_1d(ys).tolist()):
        err = abs(f_closed(x) - anchor - y)
        ok = lo <= x <= hi and err <= MAP_TOLERANCE
        check.outcome(ok, f"{label}: x = {x!r} maps to y = {y!r}, |f_closed(x) - y| = {err:.3g}")
        check.accuracy_max("max_map_err", err)


def _check_report(check, report, expected_pass):
    """One outcome per run: its verdict must equal the expected verdict.

    Accuracy metrics come from the runs expected to pass.
    """
    for run in report["runs"]:
        name = run["name"]
        want = expected_pass[name]
        check.outcome(run["pass"] == want, f"run {name}: pass={run['pass']}, expected {want}")
        if not want:
            continue
        for level in run["levels"]:
            check.accuracy_max("max_energy_rel_err", level["rel_error"])
        check.accuracy_max("max_orth_dev", run["orthonormality_max_dev"])
        for r in run["residual_norms"]:
            if r is not None:
                check.accuracy_max("max_residual", r)


# ---------------------------------------------------------------------------
# readme_verify


class ReadmeVerify:
    name = "readme_verify"

    def setup(self, seed):
        from pctsolve import cli

        return {"config": cli.load_config(json.dumps(README_CONFIG))}

    def run(self, state, tracer=None):
        from pctsolve import cli

        return cli.cmd_verify(state["config"])

    def check(self, state, output):
        text, code = output
        check = Check()
        _check_report(check, json.loads(text), {run["name"]: True for run in state["config"]["runs"]})
        if code != 0:
            check.problems.append(f"exit code {code}, expected 0")
        # the custom run's mapping against its closed form, on a small grid
        from pctsolve.massmodel import MappingFunction

        custom = next(r for r in state["config"]["runs"] if r["name"] == "custom")
        profile = custom["profile"]
        xs = np.linspace(*custom["domain"], MAP_CHECK_POINTS)
        ys = MappingFunction(profile).forward(xs)
        f_closed = functools.partial(_f_rational, **profile.parameters)
        _check_map(check, "custom", profile, f_closed, xs, ys)
        return check


# ---------------------------------------------------------------------------
# sweep_verify


class SweepVerify:
    name = "sweep_verify"

    def setup(self, seed):
        from pctsolve import cli, presets

        runs = []
        for spec in presets.COMBO_TABLE:
            mass = {"kind": spec.profile_kind, "alpha": spec.mass_alpha, "q": spec.q}
            if spec.domain is not None:
                mass["domain"] = list(spec.domain)
            reference = {"kind": spec.reference_kind, **presets.REFERENCE_PARAMS[spec.reference_kind]}
            runs.append(
                {
                    "name": spec.name,
                    "mass": mass,
                    "reference": reference,
                    "grid": {"n_points": spec.n_points, "levels": 3},
                }
            )
        config = cli.load_config(json.dumps({"schema_version": 1, "runs": runs}))
        return {
            "config": config,
            "expected": {spec.name: spec.feasible for spec in presets.COMBO_TABLE},
        }

    def run(self, state, tracer=None):
        from pctsolve import cli

        return cli.cmd_verify(state["config"])

    def check(self, state, output):
        text, code = output
        check = Check()
        _check_report(check, json.loads(text), state["expected"])
        want_code = 0 if all(state["expected"].values()) else 1
        if code != want_code:
            check.problems.append(f"exit code {code}, expected {want_code}")
        return check


WORKLOADS = {w.name: w for w in (ReadmeVerify(), SweepVerify())}
