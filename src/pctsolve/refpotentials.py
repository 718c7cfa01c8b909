"""Exactly solvable constant-mass reference problems.

Each reference solves, in units hbar = mass = 1,

    Phi'' + 2 [eps - V(y)] Phi = 0

on its natural domain, i.e. H = -(1/2) d^2/dy^2 + V(y).  Provided families:

* Morse              V(y) = D (e^{-2 a y} - 2 e^{-a y}),  y in R
* Poeschl-Teller     V(y) = -U0 / cosh^2(a y),            y in R
* Hulthen            V(y) = -V0 e^{-a y} / (1 - e^{-a y}), y > 0

All three are shape invariant: a finite ladder of bound states
eps_n = -(a kappa_n)^2 / 2, n = 0..n_max, where kappa_n > 0 is the decay
exponent of Phi_n, so each continuum starts at 0.  ``Reference`` owns the
rules that follow from that; each family gives kappa_n, n_max, V and its
eigenfunctions, built from generalized Laguerre / Jacobi polynomials.
Each eigenfunction is scaled to unit L2 norm on the reference domain by its
closed-form norm (log-Gamma via ``math.lgamma``), so Phi_n(y) is a pointwise
function of y: a sample does not depend on the other points passed with it.
``eigenfunction(n, y)`` also takes a sequence of levels n and then returns
one state per level, computing the arrays that do not depend on the level
once; each state is bit-identical to its own single-level call.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, ConfigError, DomainError, require_count, require_positive
from .qmath import jacobi, laguerre_assoc


@dataclass(frozen=True)
class Reference:
    """A shape-invariant reference: a frozen dataclass whose fields (each
    finite and > 0) are its parameters, with a ``kind`` string, the decay
    exponents ``_kappa(n)`` of its levels n = 0..``n_max``, ``potential(y)``
    and ``eigenfunction(n, y)``.  Construction fails unless the well binds
    a state."""

    #: the reference domain is the open interval (y_lo, inf)
    y_lo = -math.inf

    def __post_init__(self):
        for field in dataclasses.fields(self):
            require_positive(f"{self.kind} reference", field.name, getattr(self, field.name))
        if self.n_max < 0:
            raise ConfigError(f"{self.kind} well too shallow to bind a state")

    def _points(self, y):
        """y as a float array inside the reference domain (y_lo, inf), where
        no NaN is."""
        y = np.asarray(y, dtype=float)
        if y.size and not (self.y_lo < np.min(y) and np.max(y) < math.inf):
            raise DomainError(f"{self.kind} reference is defined for {self.y_lo:g} < y < inf only")
        return y

    def _per_level(self, n, value):
        """value(n) for one level index n, or a tuple of value(k) for a
        sequence of levels n; each level is checked to lie in 0..n_max."""
        single = isinstance(n, (int, np.integer)) or not np.iterable(n)
        levels = (n,) if single else tuple(n)
        n_max = self.n_max
        for k in levels:
            require_count("level index", k, 0)
            if k > n_max:
                raise ArgumentError(
                    f"{self.kind} potential with these parameters has levels 0..{n_max}, got n={k}"
                )
        values = tuple(map(value, levels))
        return values[0] if single else values

    def energy(self, n):
        """eps_n = -(a kappa_n)^2 / 2 of the one level n."""
        (kappa,) = self._per_level([n], self._kappa)
        return -0.5 * self.alpha**2 * kappa * kappa

    def separation(self, levels):
        """A value between E_{levels-1} and the next level: the midpoint of the
        two, or for the top bound state half its energy, since the continuum
        starts at 0."""
        require_count("levels", levels, 1)
        top = self.energy(levels - 1)
        if levels - 1 < self.n_max:
            return 0.5 * (top + self.energy(levels))
        return 0.5 * top


@dataclass(frozen=True)
class Morse(Reference):
    """Morse oscillator V(y) = D (e^{-2 a y} - 2 e^{-a y}) with well depth D > 0."""

    D: float
    alpha: float = 1.0
    kind = "morse"

    def _dbar(self):
        return math.sqrt(2.0 * self.D) / self.alpha

    def _kappa(self, n):
        return self._dbar() - n - 0.5

    @property
    def n_max(self):
        return int(math.floor(self._kappa(0) - 1e-12))

    def potential(self, y):
        e = np.exp(-self.alpha * self._points(y))
        return self.D * (e * e - 2.0 * e)

    def eigenfunction(self, n, y):
        """Unit-norm bound state: z^kappa e^{-z/2} L_n^{2 kappa}(z) / sqrt(N),
        z = 2 dbar e^{-a y}, kappa = dbar - n - 1/2, N = Gamma(n + 2 kappa +
        1) / (a n! 2 kappa); a tuple of them for a sequence of levels n,
        sharing log z and z."""
        logz = math.log(2.0 * self._dbar()) - self.alpha * self._points(y)
        z = np.exp(np.minimum(logz, 700.0))
        # the envelope kills everything past z ~ 1600; clip z there so the
        # polynomial cannot overflow into 0 * inf
        z_poly = np.minimum(z, 2000.0)
        half_z = 0.5 * z

        def state(k):
            kappa = self._kappa(k)
            log_norm = (
                math.lgamma(k + 2.0 * kappa + 1.0)
                - math.lgamma(k + 1.0)
                - math.log(2.0 * kappa * self.alpha)
            )
            # envelope and 1/sqrt(N) in log form; deep in the inner wall (z
            # huge) the exponential underflows to 0
            env = np.exp(kappa * logz - half_z - 0.5 * log_norm)
            return env * laguerre_assoc(k, 2.0 * kappa, z_poly)

        return self._per_level(n, state)


@dataclass(frozen=True)
class PoschlTeller(Reference):
    """Poeschl-Teller well V(y) = -U0 / cosh^2(a y) with depth U0 > 0."""

    U0: float
    alpha: float = 1.0
    kind = "poschl_teller"

    def _kappa(self, n):
        return 0.5 * (math.sqrt(1.0 + 8.0 * self.U0 / self.alpha**2) - 1.0) - n

    @property
    def n_max(self):
        return int(math.ceil(self._kappa(0) - 1e-12)) - 1

    def potential(self, y):
        c = np.cosh(self.alpha * self._points(y))
        return -self.U0 / (c * c)

    def eigenfunction(self, n, y):
        """Unit-norm bound state: (1 - z^2)^{kappa/2} P_n^{(kappa,kappa)}(z) / sqrt(N),
        z = tanh(a y), kappa = s - n with s (s + 1) = 2 U0 / a^2,
        N = 2^{2 kappa} Gamma(n + kappa + 1)^2 / (a kappa n! Gamma(n + 2 kappa + 1));
        a tuple of them for a sequence of levels n, sharing z and log cosh(a y)."""
        u = self.alpha * self._points(y)
        z = np.tanh(u)
        # (1 - z^2)^{kappa/2} = sech^{kappa} and 1/sqrt(N) in log form, with
        # log cosh(u) = |u| + log(1 + e^{-2|u|}) - log 2 finite for large |u|
        au = np.abs(u)
        log_cosh = au + np.log1p(np.exp(-2.0 * au)) - math.log(2.0)

        def state(k):
            kappa = self._kappa(k)
            log_norm = (
                2.0 * kappa * math.log(2.0)
                + 2.0 * math.lgamma(k + kappa + 1.0)
                - math.lgamma(k + 1.0)
                - math.lgamma(k + 2.0 * kappa + 1.0)
                - math.log(self.alpha * kappa)
            )
            env = np.exp(-kappa * log_cosh - 0.5 * log_norm)
            return env * jacobi(k, kappa, kappa, z)

        return self._per_level(n, state)


@dataclass(frozen=True)
class Hulthen(Reference):
    """Hulthen potential V(y) = -V0 e^{-a y}/(1 - e^{-a y}) on the half line y > 0."""

    V0: float
    alpha: float = 1.0
    kind = "hulthen"
    y_lo = 0.0

    def _beta_sq(self):
        return 2.0 * self.V0 / self.alpha**2

    def _kappa(self, n):
        nbar = n + 1
        return (self._beta_sq() - nbar * nbar) / (2.0 * nbar)

    @property
    def n_max(self):
        # bound states need (n + 1)^2 < beta^2
        return int(math.ceil(math.sqrt(self._beta_sq()) - 1e-12)) - 2

    def potential(self, y):
        e = np.exp(-self.alpha * self._points(y))
        return -self.V0 * e / (1.0 - e)

    def eigenfunction(self, n, y):
        """Unit-norm bound state: z^w (1 - z) P_n^{(2w, 1)}(1 - 2z) / sqrt(N),
        z = e^{-a y}, with w = kappa = (beta^2 - (n+1)^2) / (2 (n+1)) and
        N = (n+1)^2 / (2 a w (n + 2w + 1)(n + w + 1)); a tuple of them for a
        sequence of levels n, sharing ln z = -a y, z, 1 - z and 1 - 2z.

        z^w is exp(w ln z): a quarter of pow's time, with an error that
        grows like ulp |w ln z| (pow's stays within an ulp), a few ulps
        relative where the state is not negligible.  A numpy scalar's exp
        runs the same loop as an array's, so a sample at y does not depend
        on the points passed with it."""
        log_z = -self.alpha * self._points(y)
        z = np.exp(log_z)
        one_minus_z = 1.0 - z
        t = 1.0 - 2.0 * z

        def state(k):
            w = self._kappa(k)
            scale = math.sqrt(2.0 * self.alpha * w * (k + 2.0 * w + 1.0) * (k + w + 1.0)) / (k + 1)
            phi = scale * np.exp(w * log_z) * one_minus_z
            # P_0 = 1: level 0 skips the multiply by ones
            return phi * jacobi(k, 2.0 * w, 1.0, t) if k else phi

        return self._per_level(n, state)


#: the reference classes by kind string; their dataclass fields are the
#: parameters a config must give
REFERENCES = {cls.kind: cls for cls in (Morse, PoschlTeller, Hulthen)}

REFERENCE_KINDS = tuple(REFERENCES)

