"""q-deformed hyperbolic functions and classical orthogonal polynomials.

The deformed family (A. Arai, J. Math. Anal. Appl. 158, 63 (1991)) is

    cosh_q(x) = (e^x + q e^-x)/2        sinh_q(x) = (e^x - q e^-x)/2

with tanh_q, coth_q, sech_q, csch_q their ratios.  For q > 0 (any other q
is a DomainError) each is written once, as its standard counterpart at
u = x - ln(q)/2 times a power of sqrt(q): cosh_q(x) = sqrt(q) cosh(u),
tanh_q(x) = tanh(u), and so on.  cosh_q and sinh_q raise RangeOverflowError
when their values overflow; the ratios, the squares and the logs (ln cosh_q,
ln sinh_q) factor e^|u| out and stay finite for any |x|, for massmodel's
built-in profiles and exprlang's q-jets alike.  The Laguerre and Jacobi
polynomials use their ascending three-term recurrences.  All functions
accept scalars or numpy arrays and are pure.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, PoleError, RangeOverflowError, require_count

#: denominators smaller than this trigger a PoleError
POLE_THRESHOLD = 1e-300


def _as_float(x):
    return np.asarray(x, dtype=float)


def _ret(a):
    """Unwrap 0-d arrays so scalar input gives scalar output."""
    a = np.asarray(a)
    return float(a) if a.ndim == 0 else a


def _shift(x, q):
    """(u, r) = (x - ln(q)/2, sqrt(q)): the standard functions' argument and
    the scale of cosh_q and sinh_q."""
    if not (math.isfinite(q) and q > 0):
        raise DomainError(f"the q-deformed functions need q finite and > 0, got q = {q!r}")
    return _as_float(x) - 0.5 * math.log(q), math.sqrt(q)


def _ratio(name, num, den):
    if np.min(np.abs(den)) < POLE_THRESHOLD:
        raise PoleError(f"{name}: denominator vanishes")
    return _ret(num / den)


def _sech(u):
    """sech u = 2 e^-|u| / (1 + e^-2|u|), finite for every u."""
    h = np.exp(-np.abs(u))
    return 2.0 * h / (1.0 + h * h)


def _times_sqrt_q(name, standard, x, q):
    u, r = _shift(x, q)
    with np.errstate(over="ignore"):
        val = r * standard(u)
    if not np.all(np.isfinite(val)):
        raise RangeOverflowError(f"{name}: result left the floating range")
    return _ret(val)


def cosh_q(x, q):
    """(e^x + q e^-x)/2 = sqrt(q) cosh(u)."""
    return _times_sqrt_q("cosh_q", np.cosh, x, q)


def sinh_q(x, q):
    """(e^x - q e^-x)/2 = sqrt(q) sinh(u)."""
    return _times_sqrt_q("sinh_q", np.sinh, x, q)


def tanh_q(x, q):
    """sinh_q(x)/cosh_q(x) = tanh(u)."""
    u, _ = _shift(x, q)
    return _ret(np.tanh(u))


def coth_q(x, q):
    """cosh_q(x)/sinh_q(x) = coth(u); pole at u = 0 (x = ln(q)/2)."""
    u, _ = _shift(x, q)
    return _ratio("coth_q", 1.0, np.tanh(u))


def sech_q(x, q):
    """1/cosh_q(x) = sech(u)/sqrt(q)."""
    u, r = _shift(x, q)
    return _ret(_sech(u) / r)


def csch_q(x, q):
    """1/sinh_q(x) = sech(u)/(sqrt(q) tanh(u)); its pole is coth_q's."""
    u, r = _shift(x, q)
    return _ratio("csch_q", _sech(u) / r, np.tanh(u))


def sech_sq_q(x, q):
    """1/cosh_q(x)^2 = sech(u)^2/q."""
    u, _ = _shift(x, q)
    return _ret(_sech(u) ** 2 / q)


def csch_sq_q(x, q):
    """1/sinh_q(x)^2 = (sech(u)/tanh(u))^2/q; its pole is coth_q's, and just
    outside it the square overflows to inf."""
    u, _ = _shift(x, q)
    c = _ratio("csch_sq_q", _sech(u), np.tanh(u))
    with np.errstate(over="ignore"):
        return _ret(c * c / q)


def log_cosh_q(x, q):
    """ln cosh_q(x) = ln sqrt(q) + |u| - ln 2 + ln(1 + e^-2|u|)."""
    u, r = _shift(x, q)
    a = np.abs(u)
    return _ret(math.log(r) + (a - math.log(2.0) + np.log1p(np.exp(-2.0 * a))))


def log_sinh_q(x, q):
    """ln sinh_q(x) = ln sqrt(q) + u - ln 2 + ln(1 - e^-2u) on the branch
    u > 0 where sinh_q > 0, and its limit -inf at and below the zero u = 0."""
    u, r = _shift(x, q)
    a = np.maximum(u, 0.0)
    with np.errstate(divide="ignore"):
        return _ret(math.log(r) + (a - math.log(2.0) + np.log(-np.expm1(-2.0 * a))))


def arcsinh_q(y, q):
    """Inverse of sinh_q: ln(q)/2 + arcsinh(y/sqrt(q))."""
    x0, r = _shift(0.0, q)  # x0 = -ln(q)/2
    return _ret(np.arcsinh(_as_float(y) / r) - x0)


def arccosh_q(y, q):
    """Inverse of cosh_q on its increasing branch x >= ln(q)/2:
    ln(q)/2 + arccosh(y/sqrt(q))."""
    x0, r = _shift(0.0, q)
    t = _as_float(y) / r
    if np.any(~(t >= 1.0)):
        raise DomainError("arccosh_q: y below the minimum sqrt(q) of cosh_q")
    return _ret(np.arccosh(t) - x0)


def laguerre_assoc(n, t, z):
    """Generalized Laguerre polynomial L_n^t(z) by the three-term recurrence

        (k+1) L_{k+1} = (2k + 1 + t - z) L_k - (k + t) L_{k-1}.
    """
    require_count("polynomial degree", n, 0)
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
    require_count("polynomial degree", n, 0)
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
