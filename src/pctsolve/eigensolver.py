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
the mu_k, each within r_k of a distinct one of the lowest eigenvalues.

A solve given ``bound`` as well, a value expected to separate the wanted
eigenvalues from the next one (``pctengine.verify`` takes it from the
analytic spectrum), makes its Sturm count at ``bound`` first.  A count
other than the number of guesses means the matrix's spectrum below
``bound`` is not the expected one, and the solve goes to bisection without
refining; otherwise intervals at or below ``bound`` are certified by that
same count, and only an interval reaching above it is counted again at its
top.  A solve without guesses, or whose guesses fail the certificate, finds
the lowest eigenvalues by bisection (LAPACK ``stebz``), to its default
absolute tolerance ulp * ||T||_1.  Either way the eigenvectors cost an
inverse iteration on top, so they are computed on the first access to
``EigenResult.states`` and never for a caller that reads only the energies.

The refinement works on unnormalised iterates, in arrays each thread keeps
from one solve to the next.  Its inner products are ``np.einsum`` sums of products, one pass
without a temporary array, and not BLAS calls: a threaded BLAS dot can stall
for milliseconds on a busy host (8 ms at 40 000 points, against 0.03 ms for
``np.sum(x * x)``, on a 2-vCPU Intel Xeon VM).  Their rounding is carried
into the certified radii.

The LAPACK routines (``dgtsv``, ``dstebz``, ``dstein``) come from scipy's
compiled ``scipy.linalg._flapack`` extension, loaded directly from
``scipy/linalg`` (found from the top-level package's spec, which imports
nothing) and registered under its own name, so a later ``import
scipy.linalg`` shares the very same module.  No scipy package init runs:
``scipy.linalg``'s loads scipy's array-API layer (``numpy.f2py``,
``numpy.testing``, ``numpy.ma``) and, on a 2-vCPU Intel Xeon VM (Python
3.11.7, numpy 2.4.6, scipy 1.17.1), doubled the start-up of a ``pct
verify`` process (0.26 s to 0.50 s) and raised its peak RSS from 45.7 MB
to 68.6 MB.  The calls and arguments are those of scipy's
``eigvalsh_tridiagonal`` and ``eigh_tridiagonal``, so the results are
bit-identical.  Like scipy's ``check_finite``, a solve rejects a matrix with
a non-finite entry, here as ``RangeOverflowError``.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
import threading
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, ConfigError, GridMismatchError, RangeOverflowError


def _load_flapack():
    """scipy's ``scipy.linalg._flapack`` extension module, without running
    any scipy package init: the top-level ``scipy``'s spec gives its
    directory without importing it, and ``linalg`` lies inside."""
    name = "scipy.linalg._flapack"
    module = sys.modules.get(name)
    if module is None:
        (root,) = importlib.util.find_spec("scipy").submodule_search_locations
        finder = importlib.machinery.FileFinder(
            os.path.join(root, "linalg"),
            (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES),
        )
        spec = finder.find_spec(name)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[name] = module
    return module


_flapack = _load_flapack()
dgtsv, dstebz, dstein = _flapack.dgtsv, _flapack.dstebz, _flapack.dstein


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
class EigenResult:
    """Lowest eigenvalues of a tridiagonal problem, ascending, and its states.

    ``energies`` are certified Rayleigh quotients when the solve's guesses
    passed the certificate, and otherwise bisection values, which carry
    bisection's absolute tolerance ulp * ||T||_1 (large for a matrix with
    steep walls: about 4e-4 at ||T||_1 = 1.9e12).  A solve given ``bound``
    whose Sturm count at it differs from the number of levels always gives
    bisection values.

    ``states`` holds the matching eigenvectors as L2-normalized columns of
    shape (n_points, n_levels), zero at both ends, each signed so that its
    first appreciable sample is positive.  They are computed on first access
    (the eigenvalues stay the ones already found) and then kept.
    """

    grid: Grid
    energies: np.ndarray
    #: the interior matrix: diagonal and off-diagonal
    diag: np.ndarray
    off: np.ndarray

    @functools.cached_property
    def states(self):
        n_levels = self.energies.size
        # scipy's eigh_tridiagonal: block-ordered bisection, inverse
        # iteration, then ascending order
        w, iblock, isplit = _bisect(self.diag, self.off, n_levels, b"B")
        vecs, info = dstein(self.diag, self.off, w, iblock, isplit)
        _check_info(info, "dstein")
        vecs = vecs[:, np.argsort(w)]
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


def _check_info(info, routine):
    if info != 0:
        raise np.linalg.LinAlgError(f"LAPACK {routine} failed (info={info})")


def _bisect(diag, off, n_levels, order):
    """The lowest n_levels eigenvalues by stebz bisection at its default
    tolerance, called as scipy's eigh_tridiagonal calls it: (w, iblock,
    isplit), w ascending for ``order`` b"E" and by block for b"B"."""
    m, w, iblock, isplit, info = dstebz(diag, off, 2, 0.0, 1.0, 1, n_levels, 0.0, order)
    _check_info(info, "dstebz")
    return w[:m], iblock, isplit


def _tridiagonal_product(diag, off, x, out, tmp):
    """T x into ``out``; ``tmp`` (n - 1 long) is scratch."""
    np.multiply(diag, x, out=out)
    np.multiply(off, x[1:], out=tmp)
    out[:-1] += tmp
    np.multiply(off, x[:-1], out=tmp)
    out[1:] += tmp
    return out


def _dot(a, b):
    """sum(a * b) in one pass, without a temporary array or a BLAS call."""
    return float(np.einsum("i,i", a, b))


_workspaces = threading.local()


def _workspace(n):
    """This thread's (4, n) block for a certified refinement, kept from one
    solve to the next of the same size.  Its rows are the iterate, T x (then
    the residual), scratch, and the absolute row sums of T.

    A grid-sized block allocated and freed in every solve makes malloc hand
    memory back and fault it in again: measured on the 27-run sweep, 13 000
    to 26 000 minor page faults per pass, against 3 800 to 5 000 with the
    block kept (the exact counts follow the heap's layout).  Every entry is
    written before it is read, so nothing carries from one solve to the
    next, and one block per thread keeps concurrent solves apart.
    """
    block = getattr(_workspaces, "block", None)
    if block is None or block.shape[1] != n:
        block = _workspaces.block = np.empty((4, n))
    return block


def _rayleigh_refine(diag, off, row_abs_sq, floor_scale, x, tx, tmp):
    """Rayleigh-quotient iteration from ``x``, in place, with ``tx`` and
    ``tmp`` as scratch of its size: (mu, r) of the iterate v with the
    smallest bound r >= ||T v - mu v|| / ||v||.

    The iterates are not normalised; their norms enter only as scalars.  r
    includes the rounding floor of the residual's own evaluation,
    4 eps ||(|T| v)|| / ||v|| with |T| taken as the absolute row sums (given
    squared after scaling by a power of two, which ``floor_scale``, 4 eps
    times the inverse scale, undoes), and the rounding of the sums of
    squares: a sum of n products, in any order, is within n eps / (1 - n eps)
    of its exact value (Higham, Accuracy and Stability of Numerical
    Algorithms, eq. 3.5), which the factor ``slack`` covers for the two sums
    under each root.
    The iteration stops when the computed residual is down to the floor,
    when r stops falling, or after ``_RQI_STEPS`` solves.  A guess with no
    usable direction (zero, inf or nan) gives (nan, inf).
    """
    slack = 1.0 + 4.0 * (x.size + 2) * _EPS
    best = (math.nan, math.inf)
    for step in range(_RQI_STEPS + 1):
        s = _dot(x, x)
        if not 0.0 < s < math.inf:
            break
        _tridiagonal_product(diag, off, x, tx, tmp[:-1])
        mu = _dot(x, tx) / s
        tx -= np.multiply(x, mu, out=tmp)
        computed = math.sqrt(_dot(tx, tx) / s)
        floor = floor_scale * math.sqrt(float(np.einsum("i,i,i", row_abs_sq, x, x)) / s)
        r = (computed + floor) * slack
        if not r < best[1]:
            break
        best = (mu, r)
        if computed <= floor or step == _RQI_STEPS:
            break
        # the shifted diagonal is this step's own array: solve in place
        _, _, _, x, info = dgtsv(off, diag - mu, off, x, overwrite_d=1, overwrite_b=1)
        if info != 0:
            break
    return best


def _count_up_to(diag, off, lo, hi):
    """The number of eigenvalues in (lo, hi] by one Sturm count, or None if
    stebz fails (as it does for hi <= lo)."""
    # an absolute tolerance wider than (lo, hi] makes stebz count, not bisect
    count, _, _, _, info = dstebz(diag, off, 1, lo, hi, 1, 1, 2.0 * (hi - lo), b"E")
    return count if info == 0 else None


def _certified_energies(diag, off, guesses, bound=None):
    """The lowest len(guesses) eigenvalues refined from the interiors of
    ``guesses`` (grid samples, ends included), or None unless certified.

    Certified: the intervals mu_k +- r_k are pairwise disjoint, so each holds
    a distinct eigenvalue, and exactly that many eigenvalues lie in
    (Gershgorin lower bound, top of the highest interval], so they are the
    lowest ones.  Given ``bound``, a value expected to separate the wanted
    eigenvalues from the rest, the first step is a Sturm count up to it: a
    count other than len(guesses) returns None before any refinement.  When
    every interval then lies at or below ``bound``, that same count is the
    certificate; an interval reaching above it is counted up to its top, as
    without ``bound``.  The guesses themselves are left unchanged.
    """
    x, tx, tmp, row_abs = _workspace(diag.size)
    # every eigenvalue lies above the lowest Gershgorin disc edge, here
    # lowered past its own rounding
    abs_off = np.abs(off, out=tx[:-1])
    row_abs[:-1] = abs_off
    row_abs[-1] = 0.0
    row_abs[1:] += abs_off
    gl = float(np.min(np.subtract(diag, row_abs, out=tmp)))
    row_abs += np.abs(diag, out=tmp)
    row_max = float(np.max(row_abs))
    gl -= 2.0 * _EPS * row_max
    n_levels = len(guesses)
    if bound is not None and _count_up_to(diag, off, gl, bound) != n_levels:
        return None
    # the row sums scaled below 1 by an exact power of two before squaring,
    # so no square overflows; scaling by a power of two commutes with
    # rounding, so the floor is the unscaled one bit for bit wherever that
    # one neither overflows nor underflows
    exp = max(math.frexp(row_max)[1], 0)
    row_abs *= math.ldexp(1.0, -exp)
    row_abs_sq = np.multiply(row_abs, row_abs, out=row_abs)
    floor_scale = math.ldexp(4.0 * _EPS, exp)
    refined = []
    for g in guesses:
        np.copyto(x, g[1:-1])
        refined.append(_rayleigh_refine(diag, off, row_abs_sq, floor_scale, x, tx, tmp))
    mu, r = np.array(refined).T
    order = np.argsort(mu)
    mu, r = mu[order], r[order]
    if not np.all(np.isfinite(r)):
        return None
    if np.any(mu[1:] - r[1:] <= mu[:-1] + r[:-1]):
        return None
    top = float(mu[-1] + r[-1])
    if bound is not None and top <= bound:
        return mu
    if _count_up_to(diag, off, gl, top) != n_levels:
        return None
    return mu


def solve_constant_mass(grid, potential_values, n_levels):
    """Lowest eigenpairs of -(1/2) psi'' + V psi with Dirichlet ends: the
    effective-mass solve at m = 1, whose matrix entries 2/(2h^2) = 1/h^2 and
    1/(-2h^2) = -0.5/h^2 are exact."""
    return solve_effective_mass(grid, np.ones(grid.n_points - 1), potential_values, n_levels)


def solve_effective_mass(
    grid, mass_at_midpoints, potential_values, n_levels, guesses=None, bound=None
):
    """Lowest eigenpairs of -(1/2)(psi'/m)' + V psi, mass sampled at midpoints.

    ``mass_at_midpoints`` holds m(x_i + h/2) for i = 0..n-2; the flux
    coefficients a = 1/m keep the stencil symmetric.  ``guesses``, if given,
    holds n_levels samples on the grid of states close to the lowest ones;
    they seed the certified refinement (see the module docstring).
    ``bound``, used only with guesses, is a value expected to lie between
    the n_levels-th eigenvalue and the next: a solve with fewer or more
    eigenvalues up to it goes straight to bisection.
    """
    v = np.asarray(potential_values, dtype=float)
    m = np.asarray(mass_at_midpoints, dtype=float)
    if v.shape != (grid.n_points,):
        raise GridMismatchError("potential samples do not match the grid")
    if m.shape != (grid.n_points - 1,):
        raise GridMismatchError("midpoint mass samples do not match the grid")
    # NaN fails the test, as it fails m > 0
    if not np.min(m) > 0:
        raise ConfigError("mass must be positive at every midpoint")
    a = 1.0 / m
    h = grid.h
    diag = np.add(a[:-1], a[1:])
    diag /= 2.0 * h * h
    diag += v[1:-1]
    # a / (-c) is -a / c bit for bit
    off = a[1:-1] / (-2.0 * h * h)
    if not 1 <= n_levels <= diag.size:
        raise ArgumentError(f"n_levels must be between 1 and the {diag.size} interior points")
    if not (np.isfinite(diag).all() and np.isfinite(off).all()):
        raise RangeOverflowError("the finite-difference matrix has a non-finite entry")
    vals = None
    if guesses is not None:
        guesses = [np.asarray(g, dtype=float) for g in guesses]
        if len(guesses) != n_levels or any(g.shape != (grid.n_points,) for g in guesses):
            raise GridMismatchError(
                f"guesses must be {n_levels} arrays of the grid's {grid.n_points} points"
            )
        vals = _certified_energies(diag, off, guesses, bound)
    if vals is None:
        vals = _bisect(diag, off, n_levels, b"E")[0]
    return EigenResult(grid, vals, diag, off)


def d1_numerator(values):
    """12 h times the 4th-order central first derivative of uniform samples
    (along the first axis), at the interior nodes 2..n-3."""
    out, scratch = -values[4:], np.empty_like(values[4:])
    out += np.multiply(values[3:-1], 8, out=scratch)
    out -= np.multiply(values[1:-3], 8, out=scratch)
    out += values[:-4]
    return out


def d2_numerator(values):
    """12 h^2 times the 4th-order central second derivative of uniform
    samples (along the first axis), at the interior nodes 2..n-3."""
    out, scratch = -values[4:], np.empty_like(values[4:])
    out += np.multiply(values[3:-1], 16, out=scratch)
    out -= np.multiply(values[2:-2], 30, out=scratch)
    out += np.multiply(values[1:-3], 16, out=scratch)
    out -= values[:-4]
    return out


def residual_norm(grid, psi, energy, mass_values, potential_values, mass_d1=None):
    """RMS residual of psi'' - (m'/m) psi' + 2 m (E - V) psi on interior nodes.

    Derivatives of psi (and of m, unless ``mass_d1`` supplies m' at the grid
    nodes) use 4th-order central differences; the outermost two nodes on
    each side are excluded, and only the interior is computed, in place and
    in the operation order of the formula.
    """
    psi = np.asarray(psi, dtype=float)
    m = np.asarray(mass_values, dtype=float)
    v = np.asarray(potential_values, dtype=float)
    h = grid.h
    sl = slice(2, -2)
    p1 = d1_numerator(psi)
    p1 /= 12 * h
    p2 = d2_numerator(psi)
    p2 /= 12 * h * h
    if mass_d1 is None:
        m1 = d1_numerator(m)
        m1 /= 12 * h
    else:
        m1 = np.asarray(mass_d1, dtype=float)[sl]
    w = np.empty_like(p1)
    p1 *= np.divide(m1, m[sl], out=w)  # r = p2 - (m1 / m) p1 + 2 m (E - v) psi
    p2 -= p1
    np.multiply(m[sl], 2.0, out=w)
    w *= np.subtract(energy, v[sl], out=p1)
    w *= psi[sl]
    p2 += w
    p2 *= p2
    return math.sqrt(float(np.mean(p2)))


def trapezoid_dot(a, b, h):
    """The trapezoid rule for the integral of a * b over samples spaced h,
    as h (sum a_i b_i - (a_0 b_0 + a_{n-1} b_{n-1}) / 2): one pass, without
    a product array."""
    return h * (_dot(a, b) - 0.5 * (a[0] * b[0] + a[-1] * b[-1]))


def overlap(grid, psi_a, psi_b):
    """Trapezoid inner product <a|b> on the grid."""
    a = np.asarray(psi_a, dtype=float)
    b = np.asarray(psi_b, dtype=float)
    if a.shape != (grid.n_points,) or b.shape != (grid.n_points,):
        raise GridMismatchError("state samples do not match the grid")
    return float(trapezoid_dot(a, b, grid.h))


def node_count(psi, threshold=1e-6):
    """Number of sign changes of psi, ignoring near-zero samples."""
    psi = np.asarray(psi, dtype=float)
    big = np.abs(psi) > threshold * np.max(np.abs(psi))
    signs = np.sign(psi[big])
    return int(np.sum(signs[1:] * signs[:-1] < 0))
