"""Point canonical transformation of a reference problem to a target problem.

Given a mass profile m(x) and an exactly solvable constant-mass reference
with bound states (eps_n, Phi_n), the coordinate change y = f(x) with
f' = sqrt(m) and the weight g = m^{-1/4} produce a target system sharing the
spectrum exactly:

    E_n   = eps_n
    V(x)  = V_ref(f(x)) + (1/8m)[m''/m - (7/4)(m'/m)^2]
    Psi_n(x) = m(x)^{1/4} Phi_n(f(x))

The module also carries a verbatim evaluator for a published table of
per-case composite potentials, used only by the discrepancy audit — several
of those printed formulas disagree with the construction above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import massmodel, qmath
from .eigensolver import (
    Grid,
    d1_numerator,
    overlap,
    residual_norm,
    solve_effective_mass,
    trapezoid_dot,
)
from .errors import ConfigError, DomainError
from .massmodel import MappingFunction, MassProfile
from .refpotentials import Morse, PoschlTeller

_DECAY = 1e-8


@dataclass(frozen=True)
class Fields:
    """A target system sampled at x (see ``TargetSystem.fields``)."""

    mass: object
    f: object
    correction: object
    potential: object
    #: unnormalized Psi_n(x), one per requested level
    states: tuple


@dataclass(frozen=True)
class TargetSystem:
    """An exactly solvable position-dependent-mass problem on [x_min, x_max]."""

    profile: MassProfile
    reference: object
    mapping: MappingFunction
    x_min: float
    x_max: float

    @classmethod
    def build(cls, profile, reference, domain=None, levels=3):
        """The target on ``domain``, or on the domain suggested for its
        lowest ``levels`` states."""
        mapping = MappingFunction(profile)
        if domain is None:
            domain = suggest_domain(profile, reference, levels, mapping=mapping)
        x_min, x_max = float(domain[0]), float(domain[1])
        if not x_min < x_max:
            raise ConfigError("target domain is empty")
        lo, hi = profile.domain()
        if x_min < lo or x_max > hi:
            raise ConfigError("target domain exceeds the mass profile domain")
        y_lo, y_hi = float(mapping.forward(x_min)), float(mapping.forward(x_max))
        r_lo, r_hi = reference.y_domain()
        # the reference domain is open: a half line excludes its end point
        if not r_lo < y_lo <= y_hi < r_hi:
            raise DomainError(
                "reference-domain violation: f maps the target domain to "
                f"[{y_lo:.6g}, {y_hi:.6g}] outside the reference domain "
                f"({r_lo}, {r_hi})"
            )
        ts = cls(profile, reference, mapping, x_min, x_max)
        xs = np.linspace(x_min, x_max, 201)
        corr = np.asarray(profile.correction(xs), dtype=float)
        if not np.all(np.isfinite(corr)):
            raise ConfigError("correction potential is not finite on the domain")
        return ts

    def _check_x(self, x):
        if massmodel.outside(x, self.x_min, self.x_max):
            raise DomainError("x outside the target system domain")

    def fields(self, x, levels=()):
        """m, f, the correction, V and the unnormalized Psi_n for each n in
        ``levels``, all at x from one mass jet, one f(x) and one reference
        call for all levels."""
        self._check_x(x)
        jet = self.profile.mass_jet(x)
        f = self.mapping.forward(x)
        corr = massmodel.jet_correction(jet)
        m = np.asarray(jet.value, dtype=float)
        levels = tuple(levels)
        states = ()
        if levels:
            m_root4 = m**0.25
            states = tuple(
                m_root4 * np.asarray(phi, dtype=float)
                for phi in self.reference.eigenfunction(levels, f)
            )
        return Fields(m, f, corr, self.reference.potential(f) + corr, states)

    def potential(self, x):
        """V_ref(f(x)) plus the mass-induced correction."""
        return self.fields(x).potential

    def energy(self, n):
        """E_n of the target: the reference energy, exactly."""
        return self.reference.energy(n)

    def wavefunction(self, n, x):
        """Unnormalized Psi_n(x) = m(x)^{1/4} Phi_n(f(x))."""
        return self.fields(x, (n,)).states[0]

    def sample(self, n_points, levels):
        """(grid, fields, states) on the uniform n_points grid of the domain:
        the fields with Psi_0..Psi_{levels-1}, and those states scaled to unit
        trapezoid norm."""
        grid = Grid(self.x_min, self.x_max, n_points)
        fields = self.fields(grid.points, range(levels))
        h = grid.h
        states = tuple(psi / math.sqrt(trapezoid_dot(psi, psi, h)) for psi in fields.states)
        return grid, fields, states


# ---------------------------------------------------------------------------
# finite-difference verification


@dataclass(frozen=True)
class Verification:
    """A target system checked against the finite-difference solver (see
    ``verify``)."""

    grid: Grid
    fields: Fields
    #: Psi_n scaled to unit trapezoid norm on the grid
    states: tuple
    #: the solver's lowest eigenvalues, ascending
    energies: np.ndarray
    #: per level, the RMS ODE residual of Psi_n over its peak, or None where
    #: the grid resolves no window of the state
    residuals: tuple
    #: the overlap (Gram) matrix <Psi_i|Psi_j>
    gram: tuple

    @property
    def orthonormality_max_dev(self):
        """max |<Psi_i|Psi_j> - delta_ij|."""
        return max(
            abs(g - (1.0 if i == j else 0.0))
            for i, row in enumerate(self.gram)
            for j, g in enumerate(row)
        )


def verify(ts, n_points, levels):
    """Solve ``ts`` on its uniform n_points grid for the lowest ``levels``
    energies, seeded by the analytic states and bounded by the analytic
    separation from the next level, and evaluate those states' ODE residuals
    and overlaps."""
    grid, fields, states = ts.sample(n_points, levels)
    xs = grid.points
    m_mid = np.asarray(ts.profile.mass(0.5 * (xs[:-1] + xs[1:])), dtype=float)
    m, v = fields.mass, fields.potential
    result = solve_effective_mass(
        grid, m_mid, v, levels, guesses=states, bound=ts.reference.separation(levels)
    )
    residuals = []
    # m' by residual_norm's own stencil: its numerator once per run, divided
    # in each window by that window's h (which may differ from grid.h in the
    # last bit)
    dm = d1_numerator(m)
    for n in range(levels):
        # restrict to where the state carries amplitude: outside that window
        # the residual only measures V * (numerically zero) near domain walls
        psi = states[n]
        peak = float(np.max(np.abs(psi)))
        energy = ts.energy(n)
        resolved = grid.h * np.sqrt(m * np.maximum(np.abs(v - energy), 1.0)) < 0.02
        live = np.flatnonzero((np.abs(psi) > 1e-6 * peak) & resolved)
        if live.size == 0 or live[-1] - live[0] < 16:
            # grid too coarse to resolve the state anywhere
            residuals.append(None)
            continue
        i0 = max(int(live[0]) - 2, 0)
        i1 = min(int(live[-1]) + 3, grid.n_points)
        sub = Grid(xs[i0], xs[i1 - 1], i1 - i0)
        m1 = np.full(i1 - i0, np.nan)
        m1[2:-2] = dm[i0 : i1 - 4] / (12 * sub.h)
        r = residual_norm(sub, psi[i0:i1], energy, m[i0:i1], v[i0:i1], mass_d1=m1)
        residuals.append(r / peak)
    # <a|b> = <b|a> bit for bit: each product a*b is commutative
    gram = [[0.0] * levels for _ in range(levels)]
    for i in range(levels):
        for j in range(i, levels):
            gram[i][j] = gram[j][i] = overlap(grid, states[i], states[j])
    return Verification(
        grid, fields, states, result.energies, tuple(residuals), tuple(map(tuple, gram))
    )


# ---------------------------------------------------------------------------
# consistency check of the transformation algebra


def pct_identity_residual(profile: MassProfile, x, h=1e-3):
    """Residual of the reduction of (1/2m) F(f, g) to the correction term.

    F(f, g) = g''/g - (f''/f') (g'/g) with g = m^{-1/4} and f' = sqrt(m);
    g and f' are differentiated numerically (4th-order stencil) so the check
    is independent of the closed-form mass derivatives.  For a correct mass
    jet the result is at rounding level.
    """
    x = np.asarray(x, dtype=float)
    lo, hi = profile.domain()
    dist = np.minimum(x - lo, hi - x)  # inf on unbounded sides
    step = np.asarray(np.minimum(h * (1.0 + np.abs(x)), dist / 2.5))
    if np.any(step <= 0):
        raise DomainError("sample point too close to the profile boundary")
    offsets = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    pts = x[..., None] + offsets * step[..., None]
    m = np.asarray(profile.mass(pts.ravel()), dtype=float).reshape(pts.shape)
    g = m**-0.25
    fp = np.sqrt(m)
    s = step
    g0 = g[..., 2]
    g1 = (-g[..., 4] + 8 * g[..., 3] - 8 * g[..., 1] + g[..., 0]) / (12 * s)
    g2 = (
        -g[..., 4] + 16 * g[..., 3] - 30 * g[..., 2] + 16 * g[..., 1] - g[..., 0]
    ) / (12 * s * s)
    f2 = (-fp[..., 4] + 8 * fp[..., 3] - 8 * fp[..., 1] + fp[..., 0]) / (12 * s)
    big_f = g2 / g0 - (f2 / fp[..., 2]) * (g1 / g0)
    corr = np.asarray(profile.correction(x), dtype=float)
    res = np.abs(big_f / (2.0 * m[..., 2]) + corr)
    return float(res) if res.ndim == 0 else res


# ---------------------------------------------------------------------------
# domain suggestion


def suggest_domain(profile, reference, n_levels=3, mapping=None):
    """Default x-domain: the highest requested reference state, pushed through
    f^{-1}, decays below 1e-8 (relative) at both ends."""
    if mapping is None:
        mapping = MappingFunction(profile)
    n_top = min(n_levels - 1, reference.n_max)
    r_lo, r_hi = reference.y_domain()
    m_lo, m_hi = mapping.y_range()
    y_lo = max(r_lo, m_lo)
    y_hi = min(r_hi, m_hi)
    # probe window for the reference states
    probe_lo = y_lo + 1e-9 if math.isfinite(y_lo) else -80.0
    probe_hi = min(y_hi, 200.0)
    ys = np.linspace(probe_lo, probe_hi, 8001)
    total = np.zeros_like(ys)
    for phi in reference.eigenfunction(range(n_top + 1), ys):
        total += np.abs(np.asarray(phi, dtype=float))
    mask = total > _DECAY * np.max(total)
    i0, i1 = int(np.argmax(mask)), len(mask) - 1 - int(np.argmax(mask[::-1]))
    w_lo, w_hi = ys[max(i0 - 1, 0)], ys[min(i1 + 1, len(ys) - 1)]
    # hard walls (reference half-line or mapping infimum) stay in the window
    if math.isfinite(r_lo):
        w_lo = max(m_lo + 1e-9, r_lo + _DECAY)
    elif math.isfinite(m_lo) and w_lo < m_lo + 1e-9:
        w_lo = m_lo + 1e-9
    x_lo = float(mapping.inverse(w_lo))
    x_hi = float(mapping.inverse(w_hi))
    lo, hi = profile.domain()
    return max(x_lo, lo), min(x_hi, hi)


# ---------------------------------------------------------------------------
# deformation-free (q = 1) evaluation path


def standard_profile_values(profile: MassProfile, x):
    """(m, f, correction) via plain numpy hyperbolics; requires q = 1.

    Used to confirm that the deformed evaluation collapses to the standard
    one when the deformation parameter is 1.
    """
    if profile.kind == massmodel.CUSTOM:
        raise ConfigError("custom profiles have no standard-hyperbolic form")
    if profile.q != 1.0:
        raise ConfigError("standard evaluation requires q = 1")
    x = np.asarray(x, dtype=float)
    return massmodel.FAMILIES[profile.kind].standard(x, profile.alpha)


# ---------------------------------------------------------------------------
# published per-case composite potentials (discrepancy audit only)


def printed_target_potential(profile: MassProfile, reference, x):
    """Evaluate the published composite target potential verbatim.

    These closed forms assume the mass-profile rate constant and the
    reference rate constant are the same symbol; the audit configures them
    equal.  Custom profiles have no printed formula.
    """
    if profile.kind == massmodel.CUSTOM:
        raise ConfigError("no printed target potential exists for custom profiles")
    x = np.asarray(x, dtype=float)
    a, q = profile.alpha, profile.q
    if profile.kind == massmodel.ASYMPTOTICALLY_VANISHING:
        corr = (1.0 + q / (x * x + q)) / (8.0 * a * a)
        root = x + np.sqrt(x * x + q)
        if isinstance(reference, Morse):
            base = reference.D * ((1.0 + a * a * root) ** 2 - 1.0)
        elif isinstance(reference, PoschlTeller):
            base = -reference.U0 / (x * x + q)
        else:
            base = -reference.V0 / (-1.0 + a * a * root)
        return base + corr
    s = qmath.sinh_q(a * x, q)
    c = qmath.cosh_q(a * x, q)
    if profile.kind == massmodel.TANH_SQ:
        corr = -(a * a / 2.0) / s**4 * (1.25 + s * s)
        w = c
    else:
        corr = -(a * a / 2.0) * (1.0 / (s * s) + 2.25 / c**4)
        w = s
    if isinstance(reference, Morse):
        base = reference.D * ((1.0 + w) ** 2 - 1.0)
    elif isinstance(reference, PoschlTeller):
        base = -4.0 * reference.U0 / (w + 1.0 / w) ** 2
    else:
        base = -reference.V0 / (-1.0 + w)
    return base + corr

