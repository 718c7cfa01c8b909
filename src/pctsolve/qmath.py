"""q-deformed hyperbolic functions and classical orthogonal polynomials.

The deformed family is

    cosh_q(x) = (e^x + q e^-x)/2        sinh_q(x) = (e^x - q e^-x)/2

with tanh_q, coth_q, sech_q, csch_q the obvious ratios; q = 1 recovers the
standard hyperbolic functions.  The polynomials (generalized Laguerre and
Jacobi) are evaluated by their ascending three-term recurrences.

cosh_q and sinh_q raise RangeOverflowError when their own values overflow.
The ratios (tanh_q, coth_q, sech_q, csch_q), the squares sech_sq_q and
csch_sq_q and the logs log_cosh_q and log_sinh_q factor e^|x| out first and
stay finite for any |x|; they are the one implementation of these forms,
shared by massmodel's built-in profiles and exprlang's q-jets.

All functions accept scalars or numpy arrays and are pure.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ArgumentError, DomainError, PoleError, RangeOverflowError

#: denominators smaller than this trigger a PoleError
POLE_THRESHOLD = 1e-300


def _as_float(x):
    return np.asarray(x, dtype=float)


def _ret(a):
    """Unwrap 0-d arrays so scalar input gives scalar output."""
    a = np.asarray(a)
    return float(a) if a.ndim == 0 else a


def _finite_or_raise(name, value):
    if not np.all(np.isfinite(value)):
        raise RangeOverflowError(f"{name}: result left the floating range")
    return value


def cosh_q(x, q):
    """(e^x + q e^-x)/2."""
    x = _as_float(x)
    with np.errstate(over="ignore"):
        val = 0.5 * (np.exp(x) + q * np.exp(-x))
    return _ret(_finite_or_raise("cosh_q", val))


def sinh_q(x, q):
    """(e^x - q e^-x)/2."""
    x = _as_float(x)
    with np.errstate(over="ignore"):
        val = 0.5 * (np.exp(x) - q * np.exp(-x))
    return _ret(_finite_or_raise("sinh_q", val))


def _ratio(name, num, den):
    if np.min(np.abs(den)) < POLE_THRESHOLD:
        raise PoleError(f"{name}: denominator vanishes")
    return _ret(num / den)


def _scaled(x, q):
    """(u, e, c, s) with e = e^{-2|u|}, cosh_q(u) = e^{|u|} c/2 and
    sinh_q(u) = e^{|u|} s/2: c = 1 + q e, s = 1 - q e for u >= 0 and
    c = e + q, s = e - q below, bounded for every u."""
    u = _as_float(x)
    e = np.exp(-2.0 * np.abs(u))
    pos = u >= 0
    qe = q * e
    c = np.where(pos, 1.0 + qe, e + q)
    s = np.where(pos, 1.0 - qe, e - q)
    return u, e, c, s


def tanh_q(x, q):
    """sinh_q(x)/cosh_q(x)."""
    _, _, c, s = _scaled(x, q)
    return _ratio("tanh_q", s, c)


def coth_q(x, q):
    """cosh_q(x)/sinh_q(x); pole where sinh_q vanishes (x = ln(q)/2 for q > 0)."""
    _, _, c, s = _scaled(x, q)
    return _ratio("coth_q", 1.0, s / c)


def sech_q(x, q):
    """1/cosh_q(x)."""
    u, _, c, _ = _scaled(x, q)
    return _ratio("sech_q", 2.0 * np.exp(-np.abs(u)), c)


def csch_q(x, q):
    """1/sinh_q(x); pole where sinh_q vanishes."""
    u, _, _, s = _scaled(x, q)
    return _ratio("csch_q", 2.0 * np.exp(-np.abs(u)), s)


def sech_sq_q(x, q):
    """1/cosh_q(x)^2."""
    _, e, c, _ = _scaled(x, q)
    return _ratio("sech_sq_q", 4.0 * e, c**2)


def csch_sq_q(x, q):
    """1/sinh_q(x)^2; pole where sinh_q vanishes."""
    _, e, _, s = _scaled(x, q)
    return _ratio("csch_sq_q", 4.0 * e, s**2)


def log_cosh_q(x, q):
    """ln cosh_q(x) for q > 0."""
    u, e, c, _ = _scaled(x, q)
    return _ret(np.abs(u) - math.log(2.0) + np.where(u >= 0, np.log1p(q * e), np.log(c)))


def log_sinh_q(x, q):
    """ln sinh_q(x) on the branch where sinh_q > 0 (x > ln(q)/2); NaN or -inf
    elsewhere."""
    u, e, _, s = _scaled(x, q)
    with np.errstate(invalid="ignore", divide="ignore"):
        tail = np.where(u >= 0, np.log1p(-q * e), np.log(s))
    return _ret(np.abs(u) - math.log(2.0) + tail)


def arcsinh_q(y, q):
    """Inverse of sinh_q on its increasing branch: ln(y + sqrt(y^2 + q)).

    For q > 0 this is the global inverse; for q <= 0 only the branch with
    y + sqrt(y^2 + q) > 0 is represented.
    """
    y = _as_float(y)
    rad = y * y + q
    if np.any(rad < 0):
        raise DomainError("arcsinh_q: y^2 + q < 0")
    s = np.sqrt(rad)
    # y + s suffers cancellation for y << 0; use (y + s)(s - y) = q there
    with np.errstate(divide="ignore", invalid="ignore"):
        arg = np.where(y >= 0, y + s, q / (s - y))
    if np.any(~(arg > 0)):
        raise DomainError("arcsinh_q: argument off the increasing branch")
    return _ret(np.log(arg))


def arccosh_q(y, q):
    """Inverse of cosh_q on its increasing branch (x >= ln(q)/2 for q > 0):
    ln(y + sqrt(y^2 - q))."""
    y = _as_float(y)
    rad = y * y - q
    if np.any(rad < 0):
        raise DomainError("arccosh_q: y^2 - q < 0")
    arg = y + np.sqrt(rad)
    if np.any(~(arg > 0)):
        raise DomainError("arccosh_q: argument off the increasing branch")
    return _ret(np.log(arg))


def _check_degree(n):
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 0:
        raise ArgumentError(f"polynomial degree must be a non-negative integer, got {n!r}")


def laguerre_assoc(n, t, z):
    """Generalized Laguerre polynomial L_n^t(z) by the three-term recurrence

        (k+1) L_{k+1} = (2k + 1 + t - z) L_k - (k + t) L_{k-1}.
    """
    _check_degree(n)
    z = _as_float(z)
    p_prev = np.ones_like(z)
    if n == 0:
        return _ret(p_prev)
    p = 1.0 + t - z
    for k in range(1, n):
        p, p_prev = ((2 * k + 1 + t - z) * p - (k + t) * p_prev) / (k + 1), p
    return _ret(p)


def jacobi(n, a, b, z):
    """Jacobi polynomial P_n^{(a,b)}(z) by the standard three-term recurrence."""
    _check_degree(n)
    z = _as_float(z)
    p_prev = np.ones_like(z)
    if n == 0:
        return _ret(p_prev)
    p = 0.5 * (a - b) + 0.5 * (a + b + 2) * z
    for k in range(2, n + 1):
        c = 2 * k + a + b
        a1 = 2 * k * (k + a + b) * (c - 2)
        a2 = (c - 1) * (a * a - b * b)
        a3 = (c - 1) * c * (c - 2)
        a4 = 2 * (k + a - 1) * (k + b - 1) * c
        p, p_prev = ((a2 + a3 * z) * p - a4 * p_prev) / a1, p
    return _ret(p)
