"""Shared fixtures and helpers, and the terminal-summary hook for the
acceptance criteria and the golden report values."""

import json
import sys
from pathlib import Path

import numpy as np

from pctsolve import cli, eigensolver, presets
from pctsolve.errors import PctError, PoleError
from pctsolve.pctengine import TargetSystem

# the benchmark's modules (perfbench/tracing.py, perfbench/workloads.py)
# import under their own names
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

#: the rows of ``presets.COMBO_TABLE`` by run name
PRESETS = {spec.name: spec for spec in presets.COMBO_TABLE}

#: the nine default runs: each profile x reference pair at q = 1 or, where
#: q = 1 is infeasible, at the pair's smallest feasible q
DEFAULT_RUNS = (
    "asymptotically_vanishing-morse-q1",
    "asymptotically_vanishing-poschl_teller-q1",
    "asymptotically_vanishing-hulthen-q1",
    "tanh_sq-morse-q0.5",
    "tanh_sq-poschl_teller-q0.5",
    "tanh_sq-hulthen-q1",
    "coth_sq-morse-q1",
    "coth_sq-poschl_teller-q1",
    "coth_sq-hulthen-q1",
)

CRITERION_RESULTS = {}
#: per golden field, its largest (deviation, fraction of tolerance, where)
GOLDEN_SPREAD = {}


def preset_run(spec):
    """The config run of a ``presets.ComboSpec``."""
    mass = {"kind": spec.profile_kind, "alpha": spec.mass_alpha, "q": spec.q}
    if spec.domain is not None:
        mass["domain"] = list(spec.domain)
    return {
        "name": spec.name,
        "mass": mass,
        "reference": {"kind": spec.reference_kind, **presets.REFERENCE_PARAMS[spec.reference_kind]},
        "grid": {"n_points": spec.n_points, "levels": 3},
    }


def load_runs(runs):
    return cli.load_config(json.dumps({"schema_version": 1, "runs": runs}))


def preset_target(spec):
    """The TargetSystem of a ``presets.ComboSpec``, built as ``pct verify``
    builds it: its config run through ``cli.load_config``, then
    ``TargetSystem.build``."""
    (run,) = load_runs([preset_run(spec)])["runs"]
    return TargetSystem.build(run["profile"], run["reference"], run["levels"])


def count_log(monkeypatch, log=None, rows=None):
    """Log the eigensolver's Sturm counts to ``log`` (a new list if None) as
    ("count", x, the count up to x), in call order, and return it; given a
    list ``rows``, also append to it, per logged count, (the rows handed to
    its LDL^T factorisations, the matrix's rows).

    A logged count is one that factorises: a ``_count_up_to`` call at or
    below the Gershgorin edge returns 0 without one and is left out.  The
    count is the one the solver sees, capped at one past the number of
    levels of the solve (its ``most`` + 1).  A count that stops at the
    Gershgorin tail takes the rows up to it, row p; one that goes on from
    there takes row p twice, and one made again over every row takes the
    rows up to p and then every row."""
    log = [] if log is None else log
    sizes = []

    def factorised(diag, off, x, most, first=None, _fn=eigensolver._ldlt):
        sizes.append(diag.size)
        return _fn(diag, off, x, most, first)

    def counted(diag, off, gl, x, most, tail=None, _fn=eigensolver._count_up_to):
        start = len(sizes)
        n = _fn(diag, off, gl, x, most, tail)
        if x > gl:
            log.append(("count", x, n))
            if rows is not None:
                rows.append((sum(sizes[start:]), diag.size))
        return n

    monkeypatch.setattr(eigensolver, "_ldlt", factorised)
    monkeypatch.setattr(eigensolver, "_count_up_to", counted)
    return log


def solve_log(monkeypatch, log=None):
    """Log the eigensolver's shifted solves, one per Rayleigh step, to
    ``log`` (a new list if None) as ("solve", the shift, whether it
    solved), in call order, and return it."""
    log = [] if log is None else log

    def solved(diag, off, mu, x, _fn=eigensolver._solve_shifted):
        ok = _fn(diag, off, mu, x)
        log.append(("solve", mu, ok))
        return ok

    monkeypatch.setattr(eigensolver, "_solve_shifted", solved)
    return log


def bisect_log(monkeypatch, log=None):
    """Log the eigensolver's bisections to ``log`` (a new list if None) as
    ("bisect", the lower end of the interval, its upper end, the absolute
    tolerance), in call order, and return it.

    An entry is logged when the bisection starts: in a log shared with
    ``count_log``, the bisection's own Sturm counts follow it."""
    log = [] if log is None else log

    def bisected(diag, off, gl, lo, hi, n_levels, abstol, tail, _fn=eigensolver._bisect):
        log.append(("bisect", lo, hi, abstol))
        return _fn(diag, off, gl, lo, hi, n_levels, abstol, tail)

    monkeypatch.setattr(eigensolver, "_bisect", bisected)
    return log


def _outcome(fn):
    try:
        with np.errstate(all="ignore"):
            return fn(), None
    except (PctError, ArithmeticError) as exc:
        return None, exc


def assert_value_matches_jet(value, jet):
    """``value()`` gives ``jet().value`` bit for bit, or raises the same
    error class.  ``jet()`` alone may raise only where a derivative is
    undefined (qmath's squared-ratio poles)."""
    v, v_err = _outcome(value)
    j, j_err = _outcome(lambda: jet().value)
    if v_err is not None:
        assert type(j_err) is type(v_err), (v_err, j_err)
    elif j_err is not None:
        assert isinstance(j_err, PoleError) and "_sq_q" in str(j_err), j_err
    else:
        assert type(v) is type(j)
        v, j = np.asarray(v, dtype=float), np.asarray(j, dtype=float)
        assert v.shape == j.shape
        assert np.array_equal(v.view(np.int64), j.view(np.int64)), (v, j)


def node_count(psi, threshold=1e-6):
    """Number of sign changes of psi, ignoring near-zero samples."""
    psi = np.asarray(psi, dtype=float)
    big = np.abs(psi) > threshold * np.max(np.abs(psi))
    signs = np.sign(psi[big])
    return int(np.sum(signs[1:] * signs[:-1] < 0))


def record_criterion(number, ok, detail):
    """Register the outcome of one acceptance criterion for the summary."""
    CRITERION_RESULTS[number] = (bool(ok), detail)


def record_golden(field, largest):
    """Register a golden field's largest (deviation, fraction of its
    tolerance, where) for the summary."""
    GOLDEN_SPREAD[field] = largest


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if CRITERION_RESULTS:
        terminalreporter.section("acceptance criteria")
        for number in sorted(CRITERION_RESULTS):
            ok, detail = CRITERION_RESULTS[number]
            verdict = "PASS" if ok else "FAIL"
            terminalreporter.write_line(f"criterion {number}: {verdict} - {detail}")
    if GOLDEN_SPREAD:
        terminalreporter.section("golden report values")
        for field, (dev, share, where) in GOLDEN_SPREAD.items():
            terminalreporter.write_line(
                f"{field}: largest deviation {dev:.3g} ({share:.3g} of tolerance) at {where}"
            )
