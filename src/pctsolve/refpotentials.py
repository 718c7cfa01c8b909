"""Exactly solvable constant-mass reference problems.

Each reference solves, in units hbar = mass = 1,

    Phi'' + 2 [eps - V(y)] Phi = 0

on its natural domain, i.e. H = -(1/2) d^2/dy^2 + V(y).  Provided families:

* Morse              V(y) = D (e^{-2 a y} - 2 e^{-a y}),  y in R
* Poeschl-Teller     V(y) = -U0 / cosh^2(a y),            y in R
* Hulthen            V(y) = -V0 e^{-a y} / (1 - e^{-a y}), y > 0

All three support a finite ladder of bound states with closed-form energies
and eigenfunctions built from generalized Laguerre / Jacobi polynomials.
Each eigenfunction is scaled to unit L2 norm on the reference domain by its
closed-form norm (log-Gamma via ``math.lgamma``), so Phi_n(y) is a pointwise
function of y: a sample does not depend on the other points passed with it.
``eigenfunction(n, y)`` also takes a sequence of levels n and then returns
one state per level, computing the arrays that do not depend on the level
once; each state is bit-identical to its own single-level call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, ConfigError, DomainError
from .qmath import jacobi, laguerre_assoc

MORSE = "morse"
POSCHL_TELLER = "poschl_teller"
HULTHEN = "hulthen"


def _check_level(n, n_max, kind):
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 0:
        raise ArgumentError(f"level index must be a non-negative integer, got {n!r}")
    if n > n_max:
        raise ArgumentError(
            f"{kind} potential with these parameters has levels 0..{n_max}, got n={n}"
        )


def _levels(n, n_max, kind):
    """(the levels n names, whether n is a single level): n is one level
    index or a sequence of them, each checked."""
    single = isinstance(n, (int, np.integer)) or not np.iterable(n)
    levels = (n,) if single else tuple(n)
    for k in levels:
        _check_level(k, n_max, kind)
    return levels, single


@dataclass(frozen=True)
class Morse:
    """Morse oscillator V(y) = D (e^{-2 a y} - 2 e^{-a y}) with well depth D > 0."""

    D: float
    alpha: float = 1.0

    def __post_init__(self):
        if not self.D > 0 or not self.alpha > 0:
            raise ConfigError("Morse requires D > 0 and alpha > 0")
        if self._dbar() <= 0.5:
            raise ConfigError("Morse well too shallow to bind a state")

    def _dbar(self):
        return math.sqrt(2.0 * self.D) / self.alpha

    @property
    def n_max(self):
        # beta = dbar - n - 1/2 must stay positive
        return int(math.floor(self._dbar() - 0.5 - 1e-12))

    def y_domain(self):
        return (-math.inf, math.inf)

    def potential(self, y):
        y = np.asarray(y, dtype=float)
        e = np.exp(-self.alpha * y)
        return self.D * (e * e - 2.0 * e)

    def energy(self, n):
        _check_level(n, self.n_max, MORSE)
        beta = self._dbar() - n - 0.5
        return -0.5 * self.alpha**2 * beta * beta

    def eigenfunction(self, n, y):
        """Unit-norm bound state: z^beta e^{-z/2} L_n^{2 beta}(z) / sqrt(N),
        z = 2 dbar e^{-a y}, N = Gamma(n + 2 beta + 1) / (a n! 2 beta); a
        tuple of them for a sequence of levels n, sharing log z and z."""
        levels, single = _levels(n, self.n_max, MORSE)
        y = np.asarray(y, dtype=float)
        dbar = self._dbar()
        logz = math.log(2.0 * dbar) - self.alpha * y
        z = np.exp(np.minimum(logz, 700.0))
        # the envelope kills everything past z ~ 1600; clip z there so the
        # polynomial cannot overflow into 0 * inf
        z_poly = np.minimum(z, 2000.0)
        half_z = 0.5 * z
        states = []
        for k in levels:
            beta = dbar - k - 0.5
            log_norm = (
                math.lgamma(k + 2.0 * beta + 1.0)
                - math.lgamma(k + 1.0)
                - math.log(2.0 * beta * self.alpha)
            )
            # envelope and 1/sqrt(N) in log form; deep in the inner wall (z
            # huge) the exponential underflows to 0
            env = np.exp(beta * logz - half_z - 0.5 * log_norm)
            states.append(env * laguerre_assoc(k, 2.0 * beta, z_poly))
        return states[0] if single else tuple(states)


@dataclass(frozen=True)
class PoschlTeller:
    """Poeschl-Teller well V(y) = -U0 / cosh^2(a y) with depth U0 > 0."""

    U0: float
    alpha: float = 1.0

    def __post_init__(self):
        if not self.U0 > 0 or not self.alpha > 0:
            raise ConfigError("Poeschl-Teller requires U0 > 0 and alpha > 0")

    def _s(self):
        return 0.5 * (math.sqrt(1.0 + 8.0 * self.U0 / self.alpha**2) - 1.0)

    @property
    def n_max(self):
        s = self._s()
        n = int(math.ceil(s - 1e-12)) - 1
        if n < 0:
            raise ConfigError("Poeschl-Teller well too shallow to bind a state")
        return n

    def y_domain(self):
        return (-math.inf, math.inf)

    def potential(self, y):
        y = np.asarray(y, dtype=float)
        c = np.cosh(self.alpha * y)
        return -self.U0 / (c * c)

    def energy(self, n):
        _check_level(n, self.n_max, POSCHL_TELLER)
        beta = self._s() - n
        return -0.5 * self.alpha**2 * beta * beta

    def eigenfunction(self, n, y):
        """Unit-norm bound state: (1 - z^2)^{beta/2} P_n^{(beta,beta)}(z) / sqrt(N),
        z = tanh(a y), N = 2^{2 beta} Gamma(n + beta + 1)^2 / (a beta n! Gamma(n + 2 beta + 1));
        a tuple of them for a sequence of levels n, sharing z and log cosh(a y)."""
        levels, single = _levels(n, self.n_max, POSCHL_TELLER)
        y = np.asarray(y, dtype=float)
        u = self.alpha * y
        z = np.tanh(u)
        # (1 - z^2)^{beta/2} = sech^{beta} and 1/sqrt(N) in log form, with
        # log cosh(u) = |u| + log(1 + e^{-2|u|}) - log 2 finite for large |u|
        au = np.abs(u)
        log_cosh = au + np.log1p(np.exp(-2.0 * au)) - math.log(2.0)
        states = []
        for k in levels:
            beta = self._s() - k
            log_norm = (
                2.0 * beta * math.log(2.0)
                + 2.0 * math.lgamma(k + beta + 1.0)
                - math.lgamma(k + 1.0)
                - math.lgamma(k + 2.0 * beta + 1.0)
                - math.log(self.alpha * beta)
            )
            env = np.exp(-beta * log_cosh - 0.5 * log_norm)
            states.append(env * jacobi(k, beta, beta, z))
        return states[0] if single else tuple(states)


@dataclass(frozen=True)
class Hulthen:
    """Hulthen potential V(y) = -V0 e^{-a y}/(1 - e^{-a y}) on the half line y > 0."""

    V0: float
    alpha: float = 1.0

    def __post_init__(self):
        if not self.V0 > 0 or not self.alpha > 0:
            raise ConfigError("Hulthen requires V0 > 0 and alpha > 0")
        if self._beta_sq() <= 1.0:
            raise ConfigError("Hulthen well too shallow to bind a state")

    def _beta_sq(self):
        return 2.0 * self.V0 / self.alpha**2

    @property
    def n_max(self):
        # bound states need (n + 1)^2 < beta^2
        b = math.sqrt(self._beta_sq())
        return int(math.ceil(b - 1e-12)) - 2

    def y_domain(self):
        return (0.0, math.inf)

    def potential(self, y):
        y = np.asarray(y, dtype=float)
        if np.any(y <= 0):
            raise DomainError("Hulthen potential is defined for y > 0 only")
        e = np.exp(-self.alpha * y)
        return -self.V0 * e / (1.0 - e)

    def energy(self, n):
        _check_level(n, self.n_max, HULTHEN)
        nbar = n + 1
        return -self.alpha**2 / 8.0 * ((self._beta_sq() - nbar * nbar) / nbar) ** 2

    def eigenfunction(self, n, y):
        """Unit-norm bound state: z^w (1 - z) P_n^{(2w, 1)}(1 - 2z) / sqrt(N),
        z = e^{-a y}, with w = (beta^2 - (n+1)^2) / (2 (n+1)) and
        N = (n+1)^2 / (2 a w (n + 2w + 1)(n + w + 1)); a tuple of them for a
        sequence of levels n, sharing z, 1 - z and 1 - 2z."""
        levels, single = _levels(n, self.n_max, HULTHEN)
        y = np.asarray(y, dtype=float)
        if np.any(y <= 0):
            raise DomainError("Hulthen eigenfunction is defined for y > 0 only")
        z = np.exp(-self.alpha * y)
        one_minus_z = 1.0 - z
        t = 1.0 - 2.0 * z
        states = []
        for k in levels:
            nbar = k + 1
            w = (self._beta_sq() - nbar * nbar) / (2.0 * nbar)
            scale = math.sqrt(2.0 * self.alpha * w * (k + 2.0 * w + 1.0) * (k + w + 1.0)) / nbar
            # np.power, not **: a numpy scalar's ** is libm pow, which can
            # differ in the last bit from the array loop
            states.append(scale * np.power(z, w) * one_minus_z * jacobi(k, 2.0 * w, 1.0, t))
        return states[0] if single else tuple(states)


#: the reference classes by kind string; their dataclass fields are the
#: parameters a config must give
REFERENCES = {MORSE: Morse, POSCHL_TELLER: PoschlTeller, HULTHEN: Hulthen}

REFERENCE_KINDS = tuple(REFERENCES)


def make_reference(kind, **params):
    """Factory keyed by kind string; raises ConfigError for unknown kinds."""
    if kind not in REFERENCE_KINDS:
        raise ConfigError(f"unknown reference potential kind {kind!r}")
    try:
        return REFERENCES[kind](**params)
    except TypeError as exc:
        raise ConfigError(f"bad parameters for reference {kind!r}: {exc}")
