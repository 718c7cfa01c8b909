"""Shared fixtures and the acceptance-criteria summary hook."""

import numpy as np

from pctsolve.errors import PctError, PoleError

CRITERION_RESULTS = {}


def _outcome(fn):
    try:
        with np.errstate(all="ignore"):
            return fn(), None
    except (PctError, ArithmeticError) as exc:
        return None, exc


def assert_value_matches_jet(value, jet):
    """``value()`` gives ``jet().value`` bit for bit, or raises the same
    error class.  ``jet()`` alone may raise only where a derivative is
    undefined (qmath's squared-ratio poles) or overflows a Python float."""
    v, v_err = _outcome(value)
    j, j_err = _outcome(lambda: jet().value)
    if v_err is not None:
        assert type(j_err) is type(v_err), (v_err, j_err)
    elif j_err is not None:
        derivative_only = type(j_err) is OverflowError or (
            isinstance(j_err, PoleError) and "_sq_q" in str(j_err)
        )
        assert derivative_only, j_err
    else:
        assert type(v) is type(j)
        v, j = np.asarray(v, dtype=float), np.asarray(j, dtype=float)
        assert v.shape == j.shape
        assert np.array_equal(v.view(np.int64), j.view(np.int64)), (v, j)


def record_criterion(number, ok, detail):
    """Register the outcome of one acceptance criterion for the summary."""
    CRITERION_RESULTS[number] = (bool(ok), detail)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not CRITERION_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(CRITERION_RESULTS):
        ok, detail = CRITERION_RESULTS[number]
        verdict = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"criterion {number}: {verdict} - {detail}")
