"""Position-dependent mass profiles and their mapping functions.

Built-in profiles (alpha and q finite and > 0):

* ``asymptotically_vanishing``  m(x) = alpha^2 / (x^2 + q), on the whole line;
* ``tanh_sq``                   m(x) = tanh_q(alpha x)^2, on x > ln(q)/(2 alpha);
* ``coth_sq``                   m(x) = coth_q(alpha x)^2, on x > ln(q)/(2 alpha);

plus ``custom`` profiles defined by an expression string evaluated with
second-order jets.  ``MassProfile.mass`` gives m alone (a closed form, or
the expression's value walk) to the callers that need no derivative: the
mapping, the eigensolver's midpoint masses and the weight m^{-1/4};
``MassProfile.mass_jet`` gives (m, m', m'').  Each profile carries the
strictly increasing mapping function f(x) = int sqrt(m) dx (closed form for
the built-ins, a Gauss-Legendre table for customs) together with its
inverse.

Everything this module knows about a built-in family -- its mass, mass jet,
f and f^{-1}, natural lower bound with f's limit there and q = 1 standard
forms -- lives in one ``Family`` record in ``FAMILIES``; ``custom`` is the
one other path.  The overflow-safe q-hyperbolics the closed forms use come
from ``qmath``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import exprlang, qmath
from .eigensolver import Grid
from .errors import ConfigError, DomainError, PctError, require_positive
from .exprlang import Jet2
from .qmath import _ret

ASYMPTOTICALLY_VANISHING = "asymptotically_vanishing"
TANH_SQ = "tanh_sq"
COTH_SQ = "coth_sq"
CUSTOM = "custom"

_VALIDATION_SAMPLES = 401


def outside(x, lo, hi, tol=1e-12):
    """Whether some x lies below lo - tol (1 + |lo|) or above
    hi + tol (1 + |hi|), or is NaN.

    The tolerances come from the bounds, so min(x) and max(x) decide: a NaN
    makes both NaN and fails, and an infinite x fails beyond a finite end.
    """
    x = np.asarray(x, dtype=float)
    if x.size == 0:
        return False
    return not (
        np.min(x) >= lo - tol * (1.0 + abs(lo)) and np.max(x) <= hi + tol * (1.0 + abs(hi))
    )


# ---------------------------------------------------------------------------
# built-in profile families


@dataclass(frozen=True)
class Family:
    """Closed forms of one built-in mass family, in terms of (alpha, q)."""

    #: (x, alpha, q) -> m, bit-identical to the m of ``jet``
    mass: Callable
    #: (x, alpha, q) -> (m, m', m'')
    jet: Callable
    #: (x, alpha, q) -> f(x) = int sqrt(m) dx
    forward: Callable
    #: (y, alpha, q) -> f^{-1}(y), guarded against rounding at its branch
    inverse: Callable
    #: (alpha, q) -> (x_lo, y_lo): the natural lower bound of x (the branch
    #: point or -inf) and f's limit there, exact where f(x_lo) is not
    lower: Callable
    #: (x, alpha) -> (m, f, correction) at q = 1 via plain numpy hyperbolics
    standard: Callable


def _branch_point(a, q):
    """Zero ln(q)/(2 alpha) of sinh_q(alpha x)."""
    return math.log(q) / (2.0 * a)


def _exp_inverse(y, a, arc):
    """x = arc(e^u)/alpha for u = alpha y, switching to the asymptote
    x = y + ln(2)/alpha where e^u would overflow."""
    u = a * y
    big = u > 350.0
    arg = np.exp(np.minimum(u, 350.0))
    return np.where(big, y + math.log(2.0) / a, np.asarray(arc(arg)) / a)


def _vanishing_mass(x, a, q):
    return a * a / (x * x + q)


def _vanishing_jet(x, a, q):
    d = x * x + q
    m = a * a / d
    m1 = -2.0 * a * a * x / d**2
    m2 = a * a * (6.0 * x * x - 2.0 * q) / d**3
    return m, m1, m2


def _vanishing_standard(x, a):
    m = a * a / (x * x + 1.0)
    f = a * np.arcsinh(x)
    corr = -(1.0 + 1.0 / (x * x + 1.0)) / (8.0 * a * a)
    return m, f, corr


def _tanh_sq_mass(x, a, q):
    t = qmath.tanh_q(a * x, q)
    return t * t


def _tanh_sq_jet(x, a, q):
    u = a * x
    t = qmath.tanh_q(u, q)
    ic2 = qmath.sech_sq_q(u, q)
    m = t * t
    m1 = 2.0 * a * q * t * ic2
    m2 = 2.0 * a * a * q * (1.0 - 3.0 * t * t) * ic2
    return m, m1, m2


def _tanh_sq_standard(x, a):
    u = a * x
    t = np.tanh(u)
    m = t * t
    f = (np.abs(u) + np.log1p(np.exp(-2.0 * np.abs(u))) - math.log(2.0)) / a
    s2 = np.sinh(u) ** 2
    corr = -(a * a / 2.0) * (1.25 / (s2 * s2) + 1.0 / s2)
    return m, f, corr


def _coth_sq_mass(x, a, q):
    ct = qmath.coth_q(a * x, q)
    return ct * ct


def _coth_sq_jet(x, a, q):
    u = a * x
    ct = qmath.coth_q(u, q)
    is2 = qmath.csch_sq_q(u, q)
    m = ct * ct
    m1 = -2.0 * a * q * ct * is2
    m2 = 2.0 * a * a * q * (3.0 * ct * ct - 1.0) * is2
    return m, m1, m2


def _coth_sq_standard(x, a):
    u = a * x
    t = np.tanh(u)
    m = 1.0 / (t * t)
    f = (np.log(np.abs(np.sinh(u)))) / a
    c2 = np.cosh(u) ** 2
    s2 = np.sinh(u) ** 2
    corr = a * a * (2.0 * c2 + 2.0 * s2 - 3.0) / (8.0 * c2 * c2)
    return m, f, corr


FAMILIES = {
    ASYMPTOTICALLY_VANISHING: Family(
        mass=_vanishing_mass,
        jet=_vanishing_jet,
        forward=lambda x, a, q: a * qmath.arcsinh_q(x, q),
        inverse=lambda y, a, q: qmath.sinh_q(y / a, q),
        lower=lambda a, q: (-math.inf, -math.inf),
        standard=_vanishing_standard,
    ),
    TANH_SQ: Family(
        mass=_tanh_sq_mass,
        jet=_tanh_sq_jet,
        forward=lambda x, a, q: qmath.log_cosh_q(a * x, q) / a,
        # rounding may put e^{alpha y} just below the branch value sqrt(q)
        inverse=lambda y, a, q: _exp_inverse(
            y, a, lambda t: qmath.arccosh_q(np.maximum(t, math.sqrt(q)), q)
        ),
        lower=lambda a, q: (_branch_point(a, q), _branch_point(a, q)),  # f(x_q) = x_q
        standard=_tanh_sq_standard,
    ),
    COTH_SQ: Family(
        mass=_coth_sq_mass,
        jet=_coth_sq_jet,
        forward=lambda x, a, q: qmath.log_sinh_q(a * x, q) / a,
        inverse=lambda y, a, q: _exp_inverse(y, a, lambda t: qmath.arcsinh_q(t, q)),
        lower=lambda a, q: (_branch_point(a, q), -math.inf),
        standard=_coth_sq_standard,
    ),
}

BUILTIN_KINDS = tuple(FAMILIES)


# ---------------------------------------------------------------------------
# mass profiles


@dataclass(frozen=True)
class MassProfile:
    """A positive, twice-differentiable mass function m(x).

    ``x_min``/``x_max`` bound the working domain; for built-ins they may be
    None (unbounded on that side, up to the profile's natural limits).
    """

    kind: str
    alpha: float = 1.0
    q: float = 1.0
    x_min: Optional[float] = None
    x_max: Optional[float] = None
    expression: Optional[str] = None
    parameters: dict = field(default_factory=dict)

    # constructors ----------------------------------------------------------

    @classmethod
    def custom(cls, expression, x_min, x_max, parameters=None):
        return cls(
            CUSTOM,
            x_min=x_min,
            x_max=x_max,
            expression=expression,
            parameters=dict(parameters or {}),
        )

    def __post_init__(self):
        if self.kind == CUSTOM:
            if self.expression is None:
                raise ConfigError("custom mass profile requires an expression", field="expression")
            if not all(v is not None and math.isfinite(v) for v in (self.x_min, self.x_max)):
                raise ConfigError("custom mass profile requires a finite domain", field="domain")
            object.__setattr__(self, "_ast", exprlang.parse(self.expression))
        elif self.kind not in BUILTIN_KINDS:
            raise ConfigError(f"unknown mass profile kind {self.kind!r}", field="kind")
        else:
            require_positive(f"{self.kind} mass profile", "alpha", self.alpha)
            require_positive(f"{self.kind} mass profile", "q", self.q)
        if self.x_min is not None and self.x_max is not None:
            if not self.x_min < self.x_max:
                raise ConfigError("mass profile domain is empty", field="domain")
            if not math.isfinite(self.x_max - self.x_min):
                raise ConfigError(
                    "mass profile domain is too wide: x_max - x_min is not finite", field="domain"
                )
        lo, hi = self.natural_domain()
        for name, v in (("x_min", self.x_min), ("x_max", self.x_max)):
            if v is not None and not (lo < v < hi or v == hi == math.inf):
                raise ConfigError(
                    f"{name}={v} outside the profile's natural domain ({lo}, {hi})",
                    field="domain",
                )
        self._validate_by_sampling()

    # geometry --------------------------------------------------------------

    def natural_domain(self):
        if self.kind == CUSTOM:
            return (-math.inf, math.inf)
        return (FAMILIES[self.kind].lower(self.alpha, self.q)[0], math.inf)

    def domain(self):
        lo, hi = self.natural_domain()
        if self.x_min is not None:
            lo = self.x_min
        if self.x_max is not None:
            hi = self.x_max
        return lo, hi

    def _check_in_domain(self, x):
        lo, hi = self.domain()
        if outside(x, lo, hi):
            raise DomainError(
                f"x outside the {self.kind} profile domain [{lo}, {hi}]"
            )

    def _validate_by_sampling(self):
        lo, hi = self.domain()
        if not (math.isfinite(lo) and math.isfinite(hi)):
            # unbounded built-in: probe a representative box
            bp = self.natural_domain()[0]
            lo = bp + 1e-3 / self.alpha if math.isfinite(bp) else max(lo, -10.0 / self.alpha)
            hi = min(hi, 10.0 / self.alpha) if math.isinf(hi) else hi
            hi = max(hi, lo + 1.0)
        xs = np.linspace(lo, hi, _VALIDATION_SAMPLES)
        try:
            # a family jet may overflow here (coth_sq at alpha = 1e300): the
            # finiteness check below reports it, not a RuntimeWarning
            with np.errstate(all="ignore"):
                jet = self.mass_jet(xs)
        except PctError as exc:
            raise ConfigError(f"mass profile not evaluable on its domain: {exc}")
        vals = np.asarray(jet.value, dtype=float)
        if not np.all(np.isfinite(vals)) or not np.all(
            np.isfinite(np.asarray(jet.d1, dtype=float))
        ) or not np.all(np.isfinite(np.asarray(jet.d2, dtype=float))):
            raise ConfigError("mass profile has non-finite values on its domain")
        if not np.all(vals > 0):
            raise ConfigError("mass profile must be positive on its domain")

    # evaluation ------------------------------------------------------------

    def mass_jet(self, x) -> Jet2:
        """(m, m', m'') at x; closed forms for built-ins, jets for customs."""
        self._check_in_domain(x)
        x = np.asarray(x, dtype=float)
        if self.kind == CUSTOM:
            jet = exprlang.eval_jet(self._ast, x, self.parameters)
            return Jet2(*(_shaped(c, x) for c in (jet.value, jet.d1, jet.d2)))
        m, m1, m2 = FAMILIES[self.kind].jet(x, self.alpha, self.q)
        return Jet2(_ret(m), _ret(m1), _ret(m2))

    def mass(self, x):
        """m(x) alone, for callers that need no derivative.

        Bit-identical to ``mass_jet(x).value``; it raises the same error
        where m itself is undefined, while an error only m' or m'' would hit
        is left to ``mass_jet`` (which profile validation uses).
        """
        self._check_in_domain(x)
        x = np.asarray(x, dtype=float)
        if self.kind == CUSTOM:
            return _shaped(exprlang.eval_value(self._ast, x, self.parameters), x)
        return _ret(FAMILIES[self.kind].mass(x, self.alpha, self.q))

    def correction(self, x):
        """PCT correction potential (1/8m)[m''/m - (7/4)(m'/m)^2]."""
        return jet_correction(self.mass_jet(x))


def _shaped(c, x):
    """c as a float or, for array x, a fresh array of x's shape: constant
    sub-expressions of a custom profile collapse to scalars."""
    c = np.asarray(c, dtype=float)
    return np.broadcast_to(c, x.shape).copy() if x.ndim else float(c)


def jet_correction(jet: Jet2):
    """The correction potential (1/8m)[m''/m - (7/4)(m'/m)^2] of a mass jet."""
    m, m1, m2 = jet.value, jet.d1, jet.d2
    r = m1 / m
    return (m2 / m - 1.75 * r * r) / (8.0 * m)


# ---------------------------------------------------------------------------
# mapping functions


#: panels the custom table starts with, its per-panel tolerance (one panel
#: against its two halves) and the panel count past which it gives up
_TABLE_PANELS = 1024
_TABLE_TOL = 1e-11
_TABLE_MAX_PANELS = 2**17
#: intervals integrated per mass evaluation (8 nodes each)
_QUADRATURE_BLOCK = 4096
_INVERSE_BISECTION_TOL = 1e-12

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)


def _integrate_sqrt_m(profile, a, b):
    """int_a^b sqrt(m) dx for each pair of the 1-D arrays a, b (8-point
    Gauss-Legendre), in blocks that bound the size of one mass evaluation."""
    out = np.empty(a.shape)
    for s in range(0, a.size, _QUADRATURE_BLOCK):
        lo = a[s : s + _QUADRATURE_BLOCK, None]
        hi = b[s : s + _QUADRATURE_BLOCK, None]
        half = 0.5 * (hi - lo)
        vals = np.sqrt(profile.mass(0.5 * (lo + hi) + half * _GL_NODES))
        # an elementwise sum, not a matrix product: BLAS may sum a row in an
        # order that depends on the number of rows
        out[s : s + _QUADRATURE_BLOCK] = half[:, 0] * (vals * _GL_WEIGHTS).sum(axis=-1)
    return out


class MappingFunction:
    """The strictly increasing coordinate change y = f(x) with f' = sqrt(m).

    Closed forms for the built-in profiles.  A custom profile gets a table of
    f at uniform knots over its domain (a ``Grid``'s points, so a domain too
    narrow for them is a ``ConfigError``), f = 0 at the middle knot: each panel
    is integrated with 8-point Gauss-Legendre, and the panel count doubles
    until every panel agrees with the sum of its two halves.  f(x) is the
    value at the nearest knot plus a Gauss-Legendre integral from that knot
    to x, and f^{-1} bisects inside the bracketing table interval, all points
    at once.
    """

    def __init__(self, profile: MassProfile):
        self.profile = profile
        if profile.kind == CUSTOM:
            lo, hi = profile.domain()
            n = _TABLE_PANELS
            knots = Grid(lo, hi, n + 1).points
            whole = _integrate_sqrt_m(profile, knots[:-1], knots[1:])
            while True:
                knots = Grid(lo, hi, 2 * n + 1).points
                halves = _integrate_sqrt_m(profile, knots[:-1], knots[1:])
                if np.all(np.abs(halves[0::2] + halves[1::2] - whole) <= _TABLE_TOL):
                    break
                n *= 2
                if n > _TABLE_MAX_PANELS:
                    raise PctError(
                        f"custom mass profile {profile.expression!r}: f = int sqrt(m) dx "
                        f"does not converge to {_TABLE_TOL:g} per panel within "
                        f"{_TABLE_MAX_PANELS} panels on [{lo}, {hi}]"
                    )
                whole = halves
            # summed outward from the middle knot, where f = 0, in extended
            # precision where the platform has it: summed in double, the
            # 1 024 additions of a 2 049-knot table reach 7 ulp at the ends
            left = -np.cumsum(halves[n - 1 :: -1], dtype=np.longdouble)[::-1]
            right = np.cumsum(halves[n:], dtype=np.longdouble)
            self._knots = knots
            self._table = np.concatenate([left, [0.0], right]).astype(float)

    # forward ---------------------------------------------------------------

    def forward(self, x):
        """y = f(x)."""
        p = self.profile
        p._check_in_domain(x)
        x = np.asarray(x, dtype=float)
        if p.kind != CUSTOM:
            return _ret(FAMILIES[p.kind].forward(x, p.alpha, p.q))
        flat = x.ravel()
        k = self._knots
        j = np.clip(np.rint((flat - k[0]) / (k[1] - k[0])), 0, k.size - 1).astype(np.intp)
        y = self._table[j] + _integrate_sqrt_m(p, k[j], flat)
        return _ret(y.reshape(x.shape))

    # range -----------------------------------------------------------------

    def y_range(self):
        """Attainable (y_lo, y_hi) given the profile's domain bounds."""
        p = self.profile
        lo, hi = p.domain()
        if p.kind == CUSTOM:
            return float(self._table[0]), float(self._table[-1])
        if p.x_min is None:
            y_lo = FAMILIES[p.kind].lower(p.alpha, p.q)[1]
        else:
            y_lo = float(self.forward(lo))
        y_hi = float(self.forward(hi)) if math.isfinite(hi) else math.inf
        return y_lo, y_hi

    # inverse ---------------------------------------------------------------

    def inverse(self, y):
        """The unique x in the domain with f(x) = y."""
        y = np.asarray(y, dtype=float)
        y_lo, y_hi = self.y_range()
        # an infinite y is outside every range: f(x) is finite at each x
        if outside(y, y_lo, y_hi, 1e-9) or not np.all(np.isfinite(y)):
            raise DomainError(f"y outside the mapping range [{y_lo}, {y_hi}]")
        p = self.profile
        if p.kind == CUSTOM:
            x = self._bisect(y.ravel()).reshape(y.shape)
        else:
            x = FAMILIES[p.kind].inverse(y, p.alpha, p.q)
        lo, hi = p.domain()
        x = np.clip(x, lo, hi)
        return _ret(x)

    def _bisect(self, y):
        """Bisection for the 1-D array y inside the bracketing table
        intervals; each point stops once its own bracket is tight."""
        j = np.clip(np.searchsorted(self._table, y), 1, self._table.size - 1)
        lo, hi = self._knots[j - 1], self._knots[j]
        # the sign f - y takes at the bracket's lower end
        side = self._table[j - 1] - y
        side[side == 0] = -1.0
        while True:
            act = np.flatnonzero(hi - lo > _INVERSE_BISECTION_TOL * (1.0 + np.abs(lo)))
            if act.size == 0:
                return 0.5 * (lo + hi)
            mid = 0.5 * (lo[act] + hi[act])
            below = (self.forward(mid) - y[act]) * side[act] > 0
            lo[act[below]] = mid[below]
            hi[act[~below]] = mid[~below]
