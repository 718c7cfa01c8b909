"""Finite-difference bound-state solver for constant and position-dependent mass.

The constant-mass problem -(1/2) psi'' + V psi = E psi and the
position-dependent-mass problem in kinetic ordering

    -(1/2) d/dx [ (1/m) d psi/dx ] + V psi = E psi

are discretized on a uniform grid with Dirichlet ends.  The flux form keeps
the matrix symmetric tridiagonal.  A solve finds the lowest eigenvalues by
bisection alone (LAPACK ``stebz``); the eigenvectors cost an inverse
iteration on top of that, so they are computed on the first access to
``EigenResult.states`` and never for a caller that reads only the energies.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal, eigvalsh_tridiagonal

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


def _solve_tridiagonal(grid, diag, off, n_levels, scheme):
    if n_levels < 1:
        raise ArgumentError("n_levels must be >= 1")
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


def solve_effective_mass(grid, mass_at_midpoints, potential_values, n_levels):
    """Lowest eigenpairs of -(1/2)(psi'/m)' + V psi, mass sampled at midpoints.

    ``mass_at_midpoints`` holds m(x_i + h/2) for i = 0..n-2; the flux
    coefficients a = 1/m keep the stencil symmetric.
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
    return _solve_tridiagonal(grid, diag, off, n_levels, "flux-form")


def _fd_derivatives(values, h):
    """Interior 4th-order first and second derivatives of uniform samples."""
    f = values
    d1 = np.full_like(f, np.nan)
    d2 = np.full_like(f, np.nan)
    d1[2:-2] = (-f[4:] + 8 * f[3:-1] - 8 * f[1:-3] + f[:-4]) / (12 * h)
    d2[2:-2] = (-f[4:] + 16 * f[3:-1] - 30 * f[2:-2] + 16 * f[1:-3] - f[:-4]) / (
        12 * h * h
    )
    return d1, d2


def residual_norm(grid, psi, energy, mass_values, potential_values, mass_d1=None):
    """RMS residual of psi'' - (m'/m) psi' + 2 m (E - V) psi on interior nodes.

    Derivatives of psi (and of m, unless ``mass_d1`` supplies them
    analytically) use 4th-order central differences; the outermost two nodes
    on each side are excluded.
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
