"""The reports keep their values: ``pct verify`` on the README and the
27-run sweep configs and on the sweep's seven feasible q = 1 runs,
``pct transform`` on the README config and ``pct discrepancy`` on criterion
9's audit config, against tests/golden.json (written by tests/make_golden.py).

Each field is compared at its own tolerance, wide enough for the spread of
numpy, scipy and libm versions and narrow enough to catch a changed
computation.  Pass flags and verdicts must match exactly.  The largest
deviation per field goes to the terminal summary (see conftest), so a CI
log shows the spread on that job's versions.
"""

import json
import math

from conftest import PRESETS, record_golden
from make_golden import GOLDEN, reports
from pctsolve import presets
from pctsolve.refpotentials import REFERENCES

#: runs whose solve bisects (the refinement's certificate fails); their
#: energies carry bisection's tolerance ulp * ||T||_1, 2.0e-2 to 3.2e-2 here
_BISECTED = {spec.name for spec in presets.COMBO_TABLE if not spec.feasible}


def _closed_form(name, n):
    """E_n of a sweep run: its reference's closed-form energy."""
    kind = PRESETS[name].reference_kind
    return REFERENCES[kind](**presets.REFERENCE_PARAMS[kind]).energy(n)


def _rel(a, b):
    return abs(a - b) / abs(b) if b else abs(a)


def _compare(golden, got):
    """{field: [(deviation, fraction of its tolerance, where)]} and the
    problems found: an exact field that differs, or a deviation beyond its
    tolerance."""
    devs = {}
    problems = []

    def check(field, where, dev, tol):
        devs.setdefault(field, []).append((dev, dev / tol, where))
        if not dev <= tol:
            problems.append(f"{where}: {field} deviates by {dev:.3g}, tolerance {tol:.3g}")

    def exact(where, a, b):
        if a != b:
            problems.append(f"{where}: {a!r}, golden {b!r}")

    for report in ("verify_readme", "verify_sweep"):
        exact(report, [r["name"] for r in got[report]], [r["name"] for r in golden[report]])
        for run, want in zip(got[report], golden[report]):
            where = f"{report} {run['name']}"
            exact(f"{where} pass", run["pass"], want["pass"])
            exact(f"{where} levels", len(run["energies"]), len(want["energies"]))
            for n, (e, e0) in enumerate(zip(run["energies"], want["energies"])):
                if run["name"] in _BISECTED:
                    check("bisected energy", f"{where} E{n}", abs(e - e0), 0.05)
                else:
                    check("energy", f"{where} E{n}", _rel(e, e0), 1e-9)
            # the energies' tolerances carried through |E - E_n| / |E_n|
            for n, (r, r0) in enumerate(zip(run["rel_errors"], want["rel_errors"])):
                if run["name"] in _BISECTED:
                    tol = 0.05 / abs(_closed_form(run["name"], n))
                    check("bisected rel_error", f"{where} E{n}", abs(r - r0), tol)
                else:
                    check("rel_error", f"{where} E{n}", abs(r - r0), 1e-9)
            # the Gram matrix is symmetric bit for bit: its upper triangle
            for i, (row, row0) in enumerate(zip(run["gram"], want["gram"])):
                for j in range(i, len(row)):
                    check("gram", f"{where} <{i}|{j}>", abs(row[j] - row0[j]), 1e-12)
            for n, (r, r0) in enumerate(zip(run["residuals"], want["residuals"])):
                exact(f"{where} residual {n} resolved", r is None, r0 is None)
                if r is not None and r0 is not None:
                    # norms near the stencil's rounding floor move with libm
                    check("residual", f"{where} r{n}", abs(r - r0), 0.5 * r0 + 1e-7)
    report = "verify_q1_reduction"
    exact(report, [r["name"] for r in got[report]], [r["name"] for r in golden[report]])
    for run, want in zip(got[report], golden[report]):
        # rounding-level deviations; a broken reduction moves them past 1e-12
        dev = abs(run["q1_reduction_max_dev"] - want["q1_reduction_max_dev"])
        check("q1_reduction_max_dev", f"{report} {run['name']}", dev, 1e-12)
    report = "transform_readme"
    exact(report, [r["name"] for r in got[report]], [r["name"] for r in golden[report]])
    for run, want in zip(got[report], golden[report]):
        exact(f"{report} {run['name']} rows", len(run["rows"]), len(want["rows"]))
        for i, (row, row0) in enumerate(zip(run["rows"], want["rows"])):
            # |delta| / max(1, |v|): the first coth-pt row lies 3.2e-9 from the
            # coth_sq branch point, where one ulp of x moves m by 3.4e-8 of m
            dev = max(abs(a - b) / max(1.0, abs(b)) for a, b in zip(row, row0))
            check("transform row", f"{report} {run['name']} row {i}", dev, 1e-7)
    report = "discrepancy_audit"
    exact(report, [r["name"] for r in got[report]], [r["name"] for r in golden[report]])
    for run, want in zip(got[report], golden[report]):
        where = f"{report} {run['name']}"
        exact(f"{where} verdict", run["verdict"], want["verdict"])
        check("max deviation", where, _rel(run["max_deviation"], want["max_deviation"]), 1e-9)
    return devs, problems


def test_reports_match_golden():
    devs, problems = _compare(json.loads(GOLDEN.read_text()), reports())
    for field, rows in devs.items():
        # NaN sorts last and is reported as the largest
        record_golden(field, max(rows, key=lambda row: (math.isnan(row[1]), row[1])))
    assert not problems, "\n".join(problems)
