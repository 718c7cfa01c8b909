"""Point canonical transformation of a reference problem to a target problem.

Given a mass profile m(x) and an exactly solvable constant-mass reference
with bound states (eps_n, Phi_n), the coordinate change y = f(x) with
f' = sqrt(m) and the weight g = m^{-1/4} produce a target system sharing the
spectrum exactly:

    E_n   = eps_n
    V(x)  = V_ref(f(x)) + (1/8m)[m''/m - (7/4)(m'/m)^2]
    Psi_n(x) = m(x)^{1/4} Phi_n(f(x))

A target spans its mass profile's domain when the profile bounds both ends,
else the window ``suggest_domain`` gives, where its lowest states decay.

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
    d2_numerator,
    overlap,
    residual_norm,
    solve_effective_mass,
    trapezoid_dot,
)
from .errors import ConfigError, DomainError, require_count
from .massmodel import MappingFunction, MassProfile
from .refpotentials import Morse, PoschlTeller

_DECAY = 1e-8


@dataclass(frozen=True)
class Fields:
    """A target system sampled at x (see ``TargetSystem.fields``)."""

    x: object
    mass: object
    f: object
    correction: object
    potential: object
    #: Psi_n(x) per requested level (``sample`` scales them to unit norm)
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
    def build(cls, profile, reference, levels=3):
        """The target on its profile's domain when both ends are set, as a
        custom profile's are, else on the one ``suggest_domain`` gives for
        its lowest ``levels`` states.  A narrower window of a custom profile
        is a profile with that domain, whose f = 0 at its midpoint: a
        different, still exactly solvable, target."""
        mapping = MappingFunction(profile)
        if profile.x_min is not None and profile.x_max is not None:
            x_min, x_max = profile.x_min, profile.x_max
        else:
            x_min, x_max = suggest_domain(mapping, reference, levels)
        y_lo, y_hi = float(mapping.forward(x_min)), float(mapping.forward(x_max))
        # the reference domain is open: a half line excludes its end point
        if not reference.y_lo < y_lo <= y_hi < math.inf:
            raise DomainError(
                "reference-domain violation: f maps the target domain to "
                f"[{y_lo:.6g}, {y_hi:.6g}] outside the reference domain "
                f"({reference.y_lo}, inf)"
            )
        return cls(profile, reference, mapping, x_min, x_max)

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
            # sqrt(sqrt(m)), in place: cheaper than pow, and within an ulp
            m_root4 = np.sqrt(m, out=np.empty_like(m))
            np.sqrt(m_root4, out=m_root4)
            states = tuple(
                m_root4 * np.asarray(phi, dtype=float)
                for phi in self.reference.eigenfunction(levels, f)
            )
        return Fields(x, m, f, corr, self.reference.potential(f) + corr, states)

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
        """(grid, fields) on the uniform n_points grid of the domain, the
        fields with Psi_0..Psi_{levels-1} scaled to unit trapezoid norm; a
        ConfigError where V or a state's norm overflows, or a norm is 0."""
        require_count("levels", levels, 0)
        grid = Grid(self.x_min, self.x_max, n_points)
        with np.errstate(all="ignore"):
            fields = self.fields(grid.points, range(levels))
            norms = [trapezoid_dot(psi, psi, grid.h) for psi in fields.states]
        if not np.all(np.isfinite(fields.potential)):
            raise ConfigError(f"the target potential V is not finite on the {n_points}-point grid")
        for n, (psi, norm) in enumerate(zip(fields.states, norms)):
            if not (math.isfinite(norm) and norm > 0):
                raise ConfigError(f"Psi_{n} has no finite, nonzero norm on the grid")
            psi /= math.sqrt(norm)
        return grid, fields


# ---------------------------------------------------------------------------
# finite-difference verification


@dataclass(frozen=True)
class Verification:
    """A target system checked against the finite-difference solver (see
    ``verify``)."""

    grid: Grid
    #: the sampled target, its states at unit trapezoid norm
    fields: Fields
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
    grid, fields = ts.sample(n_points, levels)
    xs, states = fields.x, fields.states
    m_mid = np.asarray(ts.profile.mass(0.5 * (xs[:-1] + xs[1:])), dtype=float)
    m, v = fields.mass, fields.potential
    energies = solve_effective_mass(
        grid, m_mid, v, levels, guesses=states, bound=ts.reference.separation(levels)
    )
    residuals = []
    for n in range(levels):
        # restrict to where the state carries amplitude: outside that window
        # the residual only measures V * (numerically zero) near domain walls
        psi = states[n]
        amplitude = np.abs(psi)
        peak = float(np.max(amplitude))
        energy = ts.energy(n)
        # no sample outside the first and last that carry amplitude is
        # live, so the resolution test runs between them only
        carried = amplitude > 1e-6 * peak
        lo = int(np.argmax(carried))
        hi = carried.size - int(np.argmax(carried[::-1]))
        resolved = grid.h * np.sqrt(m[lo:hi] * np.maximum(np.abs(v[lo:hi] - energy), 1.0)) < 0.02
        live = lo + np.flatnonzero(carried[lo:hi] & resolved)
        if live.size == 0 or live[-1] - live[0] < 16:
            # grid too coarse to resolve the state anywhere
            residuals.append(None)
            continue
        i0 = max(int(live[0]) - 2, 0)
        i1 = min(int(live[-1]) + 3, grid.n_points)
        sub = Grid(xs[i0], xs[i1 - 1], i1 - i0)
        r = residual_norm(sub, psi[i0:i1], energy, m[i0:i1], v[i0:i1])
        residuals.append(r / peak)
    # <a|b> = <b|a> bit for bit: each product a*b is commutative
    gram = [[0.0] * levels for _ in range(levels)]
    for i in range(levels):
        for j in range(i, levels):
            gram[i][j] = gram[j][i] = overlap(grid, states[i], states[j])
    return Verification(grid, fields, energies, tuple(residuals), tuple(map(tuple, gram)))


# ---------------------------------------------------------------------------
# consistency check of the transformation algebra


#: ``pct_identity_residual``'s stencil step at x is this times 1 + |x|
_IDENTITY_STEP = 1e-3


def pct_identity_residual(profile: MassProfile, x):
    """Residual of the reduction of (1/2m) F(f, g) to the correction term.

    F(f, g) = g''/g - (f''/f') (g'/g) with g = m^{-1/4} and f' = sqrt(m);
    g and f' are differentiated numerically (4th-order stencil) so the check
    is independent of the closed-form mass derivatives.  For a correct mass
    jet the result is at rounding level.
    """
    x = np.asarray(x, dtype=float)
    lo, hi = profile.domain()
    dist = np.minimum(x - lo, hi - x)  # inf on unbounded sides
    step = np.asarray(np.minimum(_IDENTITY_STEP * (1.0 + np.abs(x)), dist / 2.5))
    if np.any(step <= 0):
        raise DomainError("sample point too close to the profile boundary")
    # the five samples of each x along the first axis, the stencils' axis
    pts = x + np.multiply.outer(np.array([-2.0, -1.0, 0.0, 1.0, 2.0]), step)
    m = np.asarray(profile.mass(pts.ravel()), dtype=float).reshape(pts.shape)
    g = m**-0.25
    fp = np.sqrt(m)
    g1 = d1_numerator(g)[0] / (12 * step)
    g2 = d2_numerator(g)[0] / (12 * step * step)
    f2 = d1_numerator(fp)[0] / (12 * step)
    big_f = g2 / g[2] - (f2 / fp[2]) * (g1 / g[2])
    corr = np.asarray(profile.correction(x), dtype=float)
    res = np.abs(big_f / (2.0 * m[2]) + corr)
    return float(res) if res.ndim == 0 else res


# ---------------------------------------------------------------------------
# domain suggestion


def suggest_domain(mapping, reference, n_levels=3):
    """Default x-domain of the target with mapping f: the highest of the
    lowest ``n_levels`` reference states, pushed through f^{-1}, decays below
    1e-8 (relative) at both ends.  f^{-1} keeps the ends in the profile's
    domain."""
    require_count("n_levels", n_levels, 1)
    n_top = min(n_levels - 1, reference.n_max)
    m_lo, m_hi = mapping.y_range()
    y_lo = max(reference.y_lo, m_lo)
    # probe window for the reference states
    probe_lo = y_lo + 1e-9 if math.isfinite(y_lo) else -80.0
    probe_hi = min(m_hi, 200.0)
    ys = np.linspace(probe_lo, probe_hi, 8001)
    total = np.zeros_like(ys)
    for phi in reference.eigenfunction(range(n_top + 1), ys):
        total += np.abs(np.asarray(phi, dtype=float))
    mask = total > _DECAY * np.max(total)
    i0, i1 = int(np.argmax(mask)), len(mask) - 1 - int(np.argmax(mask[::-1]))
    w_lo, w_hi = ys[max(i0 - 1, 0)], ys[min(i1 + 1, len(ys) - 1)]
    # hard walls stay in the window: a reference half-line's here, a mapping
    # infimum's by the probe's start
    if math.isfinite(reference.y_lo):
        w_lo = max(m_lo + 1e-9, reference.y_lo + _DECAY)
    return float(mapping.inverse(w_lo)), float(mapping.inverse(w_hi))


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
    # the correction term and the argument w of the leading term, per family
    if profile.kind == massmodel.ASYMPTOTICALLY_VANISHING:
        corr = (1.0 + q / (x * x + q)) / (8.0 * a * a)
        w = a * a * (x + np.sqrt(x * x + q))
    elif profile.kind == massmodel.TANH_SQ:
        s = qmath.sinh_q(a * x, q)
        corr = -(a * a / 2.0) / s**4 * (1.25 + s * s)
        w = qmath.cosh_q(a * x, q)
    else:
        w = qmath.sinh_q(a * x, q)
        corr = -(a * a / 2.0) * (1.0 / (w * w) + 2.25 / qmath.cosh_q(a * x, q) ** 4)
    # the leading term, per reference
    if isinstance(reference, Morse):
        base = reference.D * ((1.0 + w) ** 2 - 1.0)
    elif isinstance(reference, PoschlTeller):
        if profile.kind == massmodel.ASYMPTOTICALLY_VANISHING:
            base = -reference.U0 / (x * x + q)
        else:
            base = -4.0 * reference.U0 / (w + 1.0 / w) ** 2
    else:
        base = -reference.V0 / (-1.0 + w)
    return base + corr
