"""Finite-difference bound-state solver for constant and position-dependent mass.

The constant-mass problem -(1/2) psi'' + V psi = E psi and the
position-dependent-mass problem in kinetic ordering

    -(1/2) d/dx [ (1/m) d psi/dx ] + V psi = E psi

are discretized on a uniform grid with Dirichlet ends.  The flux form keeps
the matrix symmetric tridiagonal.

A solve given guesses of the lowest states (``guesses``) refines each one by
Rayleigh-quotient iteration, one tridiagonal solve (LAPACK ``gtsv``) per
step, and keeps the result only if it is certified: the intervals
[mu_k - r_k, mu_k + r_k] (r_k the residual norm) are pairwise disjoint, and
one Sturm count (LAPACK ``stebz`` without bisection) finds exactly as many
eigenvalues up to the top of the highest interval.  The energies are then
the mu_k, each within r_k of a distinct one of the lowest eigenvalues.  A
solve without guesses, or whose guesses fail the certificate, finds the
lowest eigenvalues by bisection (LAPACK ``stebz``), to its default absolute
tolerance ulp * ||T||_1.  Either way the eigenvectors cost an inverse
iteration on top, so they are computed on the first access to
``EigenResult.states`` and never for a caller that reads only the energies.

Inner products and norms here are ufunc reductions (``np.sum(a * b)``), not
BLAS calls: a threaded BLAS dot can stall for milliseconds on a busy host.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal, eigvalsh_tridiagonal
from scipy.linalg.lapack import dgtsv, dstebz

from .errors import ArgumentError, ConfigError, GridMismatchError


@dataclass(frozen=True)
class Grid:
    """Uniform grid with n_points nodes spanning [x_min, x_max]."""

    x_min: float
    x_max: float
    n_points: int

    def __post_init__(self):
        if not self.x_min < self.x_max:
            raise ConfigError("grid requires x_min < x_max")
        if self.n_points < 16:
            raise ConfigError("grid requires at least 16 points")

    @property
    def h(self):
        return (self.x_max - self.x_min) / (self.n_points - 1)

    @property
    def points(self):
        return np.linspace(self.x_min, self.x_max, self.n_points)


@dataclass(frozen=True)
class GridFunction:
    """Samples of a function on a Grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.n_points,):
            raise GridMismatchError(
                f"values shape {v.shape} does not match grid with "
                f"{self.grid.n_points} points"
            )
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class EigenResult:
    """Lowest eigenvalues of a tridiagonal problem, ascending, and its states.

    ``energies`` are certified Rayleigh quotients when the solve's guesses
    passed the certificate, and otherwise bisection values, which carry
    bisection's absolute tolerance ulp * ||T||_1 (large for a matrix with
    steep walls: about 4e-4 at ||T||_1 = 1.9e12).

    ``states`` holds the matching eigenvectors as L2-normalized columns of
    shape (n_points, n_levels), zero at both ends, each signed so that its
    first appreciable sample is positive.  They are computed on first access
    (the eigenvalues stay the ones already found) and then kept.
    """

    grid: Grid
    energies: np.ndarray
    scheme: str
    #: the interior matrix: diagonal and off-diagonal
    diag: np.ndarray
    off: np.ndarray

    @functools.cached_property
    def states(self):
        n_levels = self.energies.size
        _, vecs = eigh_tridiagonal(
            self.diag, self.off, select="i", select_range=(0, n_levels - 1)
        )
        h = self.grid.h
        states = np.zeros((self.grid.n_points, n_levels))
        for k in range(n_levels):
            v = vecs[:, k]
            interior = np.concatenate([[0.0], v, [0.0]])
            norm = math.sqrt(np.trapezoid(interior * interior, dx=h))
            interior /= norm
            # deterministic sign: first appreciable sample positive
            idx = np.argmax(np.abs(interior) > 1e-8 * np.max(np.abs(interior)))
            if interior[idx] < 0:
                interior = -interior
            states[:, k] = interior
        return states

    def state(self, n):
        return self.states[:, n]


#: Rayleigh-quotient steps (tridiagonal solves) per guess at most
_RQI_STEPS = 4
_EPS = np.finfo(float).eps


def _tridiagonal_product(diag, off, x):
    y = diag * x
    y[:-1] += off * x[1:]
    y[1:] += off * x[:-1]
    return y


def _rayleigh_refine(diag, off, row_abs, x):
    """Rayleigh-quotient iteration from x: (mu, r) of the iterate with the
    smallest residual r = ||T x - mu x||, x of unit norm.

    r includes the rounding floor of its own evaluation, 4 eps ||(|T| x)||
    with |T| taken as the absolute row sums ``row_abs``.  The iteration
    stops when the computed residual is down to that floor, when r stops
    falling, or after ``_RQI_STEPS`` solves.  A guess with no usable
    direction (zero, inf or nan) gives (nan, inf).
    """
    best = (math.nan, math.inf)
    for step in range(_RQI_STEPS + 1):
        norm = math.sqrt(np.sum(x * x))
        if not 0.0 < norm < math.inf:
            break
        x = x / norm
        res = _tridiagonal_product(diag, off, x)
        mu = float(np.sum(x * res))
        res -= mu * x
        computed = math.sqrt(np.sum(res * res))
        scaled = np.multiply(row_abs, x, out=res)
        floor = 4.0 * _EPS * math.sqrt(np.sum(scaled * scaled))
        if not computed + floor < best[1]:
            break
        best = (mu, computed + floor)
        if computed <= floor or step == _RQI_STEPS:
            break
        # the shifted diagonal and x are this step's own arrays: solve in place
        _, _, _, x, info = dgtsv(off, diag - mu, off, x, overwrite_d=1, overwrite_b=1)
        if info != 0:
            break
    return best


def _certified_energies(diag, off, guesses):
    """The lowest len(guesses) eigenvalues refined from the interiors of
    ``guesses`` (grid samples, ends included), or None unless certified.

    Certified: the intervals mu_k +- r_k are pairwise disjoint, so each holds
    a distinct eigenvalue, and a Sturm count finds exactly that many
    eigenvalues in (Gershgorin lower bound, top of the highest interval], so
    they are the lowest ones.
    """
    # every eigenvalue lies above the lowest Gershgorin disc edge, here
    # lowered past its own rounding
    row_abs = np.zeros_like(diag)
    row_abs[:-1] += np.abs(off)
    row_abs[1:] += np.abs(off)
    gl = float(np.min(diag - row_abs))
    row_abs += np.abs(diag)
    gl -= 2.0 * _EPS * float(np.max(row_abs))
    mu, r = np.array([_rayleigh_refine(diag, off, row_abs, g[1:-1]) for g in guesses]).T
    order = np.argsort(mu)
    mu, r = mu[order], r[order]
    if not np.all(np.isfinite(r)):
        return None
    if np.any(mu[1:] - r[1:] <= mu[:-1] + r[:-1]):
        return None
    vu = float(mu[-1] + r[-1])
    # an absolute tolerance wider than (gl, vu] makes stebz count, not bisect
    count, _, _, _, info = dstebz(diag, off, 1, gl, vu, 1, 1, 2.0 * (vu - gl), b"E")
    if info != 0 or count != mu.size:
        return None
    return mu


def _solve_tridiagonal(grid, diag, off, n_levels, scheme, guesses=None):
    if n_levels < 1:
        raise ArgumentError("n_levels must be >= 1")
    vals = None
    if guesses is not None:
        guesses = [np.asarray(g, dtype=float) for g in guesses]
        if len(guesses) != n_levels or any(g.shape != (grid.n_points,) for g in guesses):
            raise GridMismatchError(
                f"guesses must be {n_levels} arrays of the grid's {grid.n_points} points"
            )
        vals = _certified_energies(diag, off, guesses)
    if vals is None:
        vals = eigvalsh_tridiagonal(diag, off, select="i", select_range=(0, n_levels - 1))
    return EigenResult(grid, vals, scheme, diag, off)


def solve_constant_mass(grid, potential_values, n_levels):
    """Lowest eigenpairs of -(1/2) psi'' + V psi with Dirichlet ends."""
    v = np.asarray(potential_values, dtype=float)
    if v.shape != (grid.n_points,):
        raise GridMismatchError("potential samples do not match the grid")
    h = grid.h
    diag = 1.0 / h**2 + v[1:-1]
    off = np.full(grid.n_points - 3, -0.5 / h**2)
    return _solve_tridiagonal(grid, diag, off, n_levels, "constant-mass")


def solve_effective_mass(grid, mass_at_midpoints, potential_values, n_levels, guesses=None):
    """Lowest eigenpairs of -(1/2)(psi'/m)' + V psi, mass sampled at midpoints.

    ``mass_at_midpoints`` holds m(x_i + h/2) for i = 0..n-2; the flux
    coefficients a = 1/m keep the stencil symmetric.  ``guesses``, if given,
    holds n_levels samples on the grid of states close to the lowest ones;
    they seed the certified refinement (see the module docstring).
    """
    v = np.asarray(potential_values, dtype=float)
    m = np.asarray(mass_at_midpoints, dtype=float)
    if v.shape != (grid.n_points,):
        raise GridMismatchError("potential samples do not match the grid")
    if m.shape != (grid.n_points - 1,):
        raise GridMismatchError("midpoint mass samples do not match the grid")
    if not np.all(m > 0):
        raise ConfigError("mass must be positive at every midpoint")
    a = 1.0 / m
    h = grid.h
    diag = (a[:-1] + a[1:]) / (2.0 * h * h) + v[1:-1]
    off = -a[1:-1] / (2.0 * h * h)
    return _solve_tridiagonal(grid, diag, off, n_levels, "flux-form", guesses)


def d1_numerator(values):
    """12 h times the 4th-order central first derivative of uniform samples,
    at the interior nodes 2..n-3 (the stencil ``residual_norm`` uses)."""
    f = values
    return -f[4:] + 8 * f[3:-1] - 8 * f[1:-3] + f[:-4]


def _fd_derivatives(values, h):
    """Interior 4th-order first and second derivatives of uniform samples."""
    f = values
    d1 = np.full_like(f, np.nan)
    d2 = np.full_like(f, np.nan)
    d1[2:-2] = d1_numerator(f) / (12 * h)
    d2[2:-2] = (-f[4:] + 16 * f[3:-1] - 30 * f[2:-2] + 16 * f[1:-3] - f[:-4]) / (
        12 * h * h
    )
    return d1, d2


def residual_norm(grid, psi, energy, mass_values, potential_values, mass_d1=None):
    """RMS residual of psi'' - (m'/m) psi' + 2 m (E - V) psi on interior nodes.

    Derivatives of psi (and of m, unless ``mass_d1`` supplies them at the
    interior nodes) use 4th-order central differences; the outermost two
    nodes on each side are excluded.
    """
    psi = np.asarray(psi, dtype=float)
    m = np.asarray(mass_values, dtype=float)
    v = np.asarray(potential_values, dtype=float)
    h = grid.h
    p1, p2 = _fd_derivatives(psi, h)
    if mass_d1 is None:
        m1, _ = _fd_derivatives(m, h)
    else:
        m1 = np.asarray(mass_d1, dtype=float)
    sl = slice(2, -2)
    r = p2[sl] - (m1[sl] / m[sl]) * p1[sl] + 2.0 * m[sl] * (energy - v[sl]) * psi[sl]
    return math.sqrt(float(np.mean(r * r)))


def overlap(grid, psi_a, psi_b):
    """Trapezoid inner product <a|b> on the grid."""
    a = np.asarray(psi_a, dtype=float)
    b = np.asarray(psi_b, dtype=float)
    if a.shape != (grid.n_points,) or b.shape != (grid.n_points,):
        raise GridMismatchError("state samples do not match the grid")
    return float(np.trapezoid(a * b, dx=grid.h))


def node_count(psi, threshold=1e-6):
    """Number of sign changes of psi, ignoring near-zero samples."""
    psi = np.asarray(psi, dtype=float)
    big = np.abs(psi) > threshold * np.max(np.abs(psi))
    signs = np.sign(psi[big])
    return int(np.sum(signs[1:] * signs[:-1] < 0))
