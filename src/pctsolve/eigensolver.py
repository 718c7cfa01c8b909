"""Finite-difference bound-state solver for constant and position-dependent mass.

The constant-mass problem -(1/2) psi'' + V psi = E psi and the
position-dependent-mass problem in kinetic ordering

    -(1/2) d/dx [ (1/m) d psi/dx ] + V psi = E psi

are discretized on a uniform grid with Dirichlet ends.  The flux form keeps
the matrix symmetric tridiagonal.

A seeded solve is given guesses of the lowest states (``guesses``) and
``bound``, a value expected to separate the wanted eigenvalues from the next
(``pctengine.verify`` takes both from the analytic solution).  One Sturm
count up to ``bound`` certifies it: when the count is the number of
guesses, each guess is refined by Rayleigh-quotient iteration, one solve
of (T - mu I) y = x per step through the count's LDL^T factorisation
(LAPACK ``pttrs`` on it), and the mu_k are kept if the
intervals [mu_k - r_k, mu_k + r_k] (r_k the residual norm) are pairwise
disjoint and end at or below ``bound``: each holds a distinct eigenvalue,
and the count leaves no other below.  Any other outcome bisects inside a
bracket (lo, hi] from two doubling walks away from ``bound``, capped at the
Gershgorin bounds: lo is the highest point whose Sturm count is 0, hi the
lowest whose count is the wanted number or more.  That bisection stops at
the absolute tolerance ulp * ||T||_1.  A ``bound`` within that tolerance of
0 gives the walks no scale to step by, so that solve, like an unseeded one,
bisects over the Gershgorin interval instead, to LAPACK's tightest absolute
tolerance, twice the underflow threshold: a huge ||T||_1 sends most seeded
solves there, and makes ulp * ||T||_1 meaningless (about 2e184 on a well
walled by entries of 1e200, whose ground state is 0.5).  A solve gives
eigenvalues only, never eigenvectors.

Bisection is by Sturm counts alone (Barth, Martin and Wilkinson, Numer.
Math. 9, 386, 1967), with LAPACK's stopping rules: a level stops once its
interval (a, b] is at most max(tolerance, floor, 2 ulp max(|a|, |b|)) wide,
or once no float lies strictly between a and b, and gives the interval's
midpoint.  The floor is LAPACK's DBL_MIN big^2, big = max(1, max |e|),
formed as (DBL_MIN big) big, each product rounded once, so that no
off-diagonal is squared; past big = ulp / DBL_MIN (about 1e292) it is held
at ulp big, as it would otherwise exceed the counts' own resolution of a
few ulp * ||T||_1 and cut the bisection short (by 2% on the lowest level of
a box whose off-diagonals are 5e303).  A solve rejects a matrix whose
||T||_1 leaves the float range, as ``RangeOverflowError``: the Gershgorin
interval would not be finite.

A Sturm count up to x is the number of non-positive pivots of the LDL^T
factorisation of T - x I, by Sylvester's law of inertia the number of
eigenvalues up to x.  LAPACK ``pttrf`` factorises one shifted copy in place
and stops at its first pivot <= 0; the count takes that pivot as negative (a
zero one too), updates the next diagonal entry as pttrf would and restarts on
the rest.  Pivot d_i is (a_i - x) - (e_{i-1} / d_{i-1}) e_{i-1}, a and e T's
diagonal and off-diagonal, from four operations each rounded once, so the
computed count is the exact one of a matrix whose entries differ from those
of T - x I by a few ulps each (Kahan 1966; Demmel, Dhillon and Ren, ETNA 3,
1995): it is T's count at any x more than a few ulp * ||T||_1 from every
eigenvalue.  Every caller needs only whether a count is 0, or which of the
wanted levels lie up to x, so a count stops at one pivot past the number of
levels.  A count up to a point at or below the Gershgorin lower bound is 0
without a factorisation.

The count up to x = ``bound`` alone is cut short, at a stop row.  Let g_j =
a_j - |e_{j-1}| - |e_j| be the Gershgorin disc edges (e_{-1} = e_{n-1} =
0), each lowered by 4 ulp ||T||_1, and p the last row with g_p <= x.  Every
row j > p has a_j - x > |e_{j-1}| + |e_j|, so if the pivot d_p >= |e_p|,
then by induction d_{j+1} = (a_{j+1} - x) - (e_j / d_j) e_j >= (a_{j+1} -
x) - |e_j| > |e_{j+1}|: every later pivot is positive, and rows 0..p alone
give the count.  The computed pivots obey the same induction: |e_j / d_j|
<= 1 rounds to at most 1, the update to at most |e_j|, and rounding is
monotone, so it suffices that the computed a_j - x exceeds the exact
|e_{j-1}| + |e_j|.  The margin sees to that: g_j's own rounding is within
1.5 ulp ||T||_1, and that of a_j - x within ulp ||T||_1, as x lies above
the Gershgorin lower bound and below a_j.  So the cut-off count is the
computed full count, bit for bit, not only the exact count of a nearby
matrix.  p is the factorisation's stop row: the pass that reaches it ends
there, and a count whose d_p is below |e_p| goes on with pttrf's own
update of row p + 1, the very operations of one factorisation over every
row, so again the full count bit for bit, with no row factorised twice.  A
zero pivot at row p - 1 makes d_p +inf, the limit of the pivots that
follow negative ones, and the count stops there too.  On the matrices
``pct verify`` builds, most rows lie in the classically forbidden tails:
the count at the separation factorises 13% and 53% of the rows of the
README config's two runs.  The bracket's and the bisection's counts
factorise every row (see the ledger below).

What the kept mechanisms pay, measured in process on the 27 solves of one
``sweep_verify`` pass (the benchmark's ``pct verify`` of
``presets.COMBO_TABLE``), medians of 10 alternated rounds on a 2-vCPU
Intel Xeon VM, where the solves take 93 ms a pass and the bisections of
the four infeasible runs 12.6 ms of it:

- the bracket: bisecting over the Gershgorin interval instead (about
  1e14 wide on those runs, whose spectra lie near -6..0) takes the
  bisections to 34.8 ms and the solves to 115 ms;
- the cut-off of the count at the separation: without it the solves take
  99 ms;
- without both, 120 ms.  Cutting the bracket's and the bisections' counts
  short as well would save 0.35 ms.

A Rayleigh step's solve runs the same restarted factorisation to the end,
storing each restart's multiplier e_j / p as pttrf would, and hands the
pivots and multipliers to ``pttrs``.  The first step shifts by the guess's
energy functional x^T T x / x^T x, formed as (sum a_i x_i^2 + 2 sum e_i x_i
x_{i+1}) / ||x||^2 without T x, and solves at once; the guess's own
residual is evaluated only when no iterate follows it, as the answer.
Inverse iteration needs no pivoting on a symmetric tridiagonal T - mu I
(Parlett, The Symmetric Eigenvalue Problem, ch. 4; Dhillon and Parlett,
Linear Algebra Appl. 387, 1, 2004): a large solution is the point, and the
honest residual bounds whatever the factorisation loses.  A zero pivot
fails the solve, and the iteration stops with its best step so far.

The refinement works on unnormalised iterates, in arrays each thread keeps
from one solve to the next, rescaled by a power of two whenever the squared
norm leaves (2^-600, 2^600), so that a matrix near the float range cannot
underflow or overflow them.  Its inner products are ``np.einsum`` sums of
products, one pass without a temporary array, and not BLAS calls: a
threaded BLAS dot can stall for milliseconds on a busy host (8 ms at 40 000
points, against 0.03 ms for ``np.sum(x * x)``, on a 2-vCPU Intel Xeon VM).
Their rounding is carried into the certified radii.

The LAPACK routines (``dpttrf``, ``dpttrs``) come from scipy's
compiled ``scipy.linalg._flapack`` extension, loaded directly from
``scipy/linalg`` (found from the top-level package's spec, which imports
nothing) and registered under its own name: a later ``import scipy.linalg``
shares the very same module.  No scipy package init runs: ``scipy.linalg``'s
loads scipy's array-API layer (``numpy.f2py``, ``numpy.testing``,
``numpy.ma``) and, on a 2-vCPU Intel Xeon VM (Python 3.11.7, numpy 2.4.6,
scipy 1.17.1), doubled the start-up of a ``pct verify`` process (0.26 s to
0.50 s) and raised its peak RSS from 45.7 MB to 68.6 MB.  A failed LAPACK
call raises ``PctError``.  Like scipy's ``check_finite``, a solve rejects a
matrix with a non-finite entry, here as ``RangeOverflowError``.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
import threading
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, ConfigError, GridMismatchError, PctError, RangeOverflowError
from .errors import require_count


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
dpttrf, dpttrs = _flapack.dpttrf, _flapack.dpttrs

#: the smallest grid a solve accepts
MIN_GRID_POINTS = 16


@dataclass(frozen=True)
class Grid:
    """Uniform grid with n_points nodes spanning [x_min, x_max].

    The one rule for uniform points, a solve's and the knots of a custom
    mass's f table (``massmodel.MappingFunction``) alike: consecutive points
    are distinct, and h^2 is a normal float, since the matrix divides by
    2 h^2."""

    x_min: float
    x_max: float
    n_points: int

    def __post_init__(self):
        # NaN fails the test, as does a width that overflows to inf
        if not 0.0 < self.x_max - self.x_min < math.inf:
            raise ConfigError("grid requires x_min < x_max a finite distance apart")
        require_count("grid n_points", self.n_points, MIN_GRID_POINTS, ConfigError)
        span = f"{self.n_points} grid points on [{self.x_min!r}, {self.x_max!r}]"
        if not self.h * self.h >= sys.float_info.min:
            raise ConfigError(f"{span}: the spacing h = {self.h:.3g} is too small, h^2 underflows")
        # above 4 eps max(|x_min|, |x_max|), h outweighs the rounding of any
        # two neighbours (a few eps each), so only a finer grid is looked at
        wide = self.h > 4.0 * _EPS * max(abs(self.x_min), abs(self.x_max))
        if not (wide or np.all(np.diff(self.points) > 0)):
            raise ConfigError(f"{span}: consecutive points coincide, the domain is too narrow")

    @property
    def h(self):
        return (self.x_max - self.x_min) / (self.n_points - 1)

    @property
    def points(self):
        return np.linspace(self.x_min, self.x_max, self.n_points)


#: Rayleigh-quotient steps (tridiagonal solves) per guess at most
_RQI_STEPS = 4
# a Python float, so that the Gershgorin ends and the bisection's widths are
# too: a width past the float range is then inf without a numpy warning
_EPS = float(np.finfo(float).eps)


def _check_info(info, routine):
    if info != 0:
        raise PctError(f"LAPACK {routine} failed (info={info})")


def _tridiagonal_product(diag, off, x, out, tmp):
    """T x into ``out``; ``tmp`` (n - 1 long) is scratch."""
    np.multiply(diag, x, out=out)
    np.multiply(off, x[1:], out=tmp)
    out[:-1] += tmp
    np.multiply(off, x[:-1], out=tmp)
    out[1:] += tmp
    return out


def _dot(a, b, c=None):
    """sum(a * b), or sum(a * b * c), in one pass, without a temporary array
    or a BLAS call."""
    if c is None:
        return float(np.einsum("i,i", a, b))
    return float(np.einsum("i,i,i", a, b, c))


_workspaces = threading.local()


def _workspace(n):
    """This thread's (4, n) block for a certified solve, kept from one
    solve to the next of the same size.  Its rows are the iterate, T x (then
    the residual), scratch (first the lowered Gershgorin disc edges), and
    the absolute row sums of T.

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


def _scaled_norm_sq(x):
    """||x||^2, after rescaling x in place by a power of two if the squared
    norm leaves (2^-600, 2^600)."""
    s = _dot(x, x)
    if not 2.0**-600 < s < 2.0**600:
        x *= math.ldexp(1.0, -(math.frexp(s)[1] // 2))
        s = _dot(x, x)
    return s


def _rayleigh_refine(diag, off, row_abs_sq, floor_scale, guess, x, tx, tmp):
    """Rayleigh-quotient iteration from ``guess`` in ``x``, with ``tx`` and
    ``tmp`` as scratch of its size: (mu, r) of the iterate v with the
    smallest bound r >= ||T v - mu v|| / ||v|| among those evaluated.

    The iterates are not normalised, only rescaled by a power of two when
    ||x||^2 leaves (2^-600, 2^600); their norms enter only as scalars.  r
    includes the rounding floor of the residual's own evaluation,
    4 eps ||(|T| v)|| / ||v|| with |T| taken as the absolute row sums (given
    squared after scaling by a power of two, which ``floor_scale``, 4 eps
    times the inverse scale, undoes), and the rounding of the sums of
    squares: a sum of n products, in any order, is within n eps / (1 - n eps)
    of its exact value (Higham, Accuracy and Stability of Numerical
    Algorithms, eq. 3.5), which the factor ``slack`` covers for the two sums
    under each root.

    Step 0 shifts by the guess's energy functional
    (sum a_i x_i^2 + 2 sum e_i x_i x_{i+1}) / ||x||^2, two sums of products
    without T x, and solves at once: the guess's own residual is evaluated
    only when no iterate follows it (that solve fails, or its result is
    zero or not finite), and is then the answer.  Each
    later iterate is evaluated, and the iteration stops when the computed
    residual is down to the floor, when r stops falling, or after
    ``_RQI_STEPS`` solves.  A guess with no usable direction (zero, inf or
    nan) gives (nan, inf).
    """
    slack = 1.0 + 4.0 * (x.size + 2) * _EPS
    np.copyto(x, guess)
    s = _scaled_norm_sq(x)
    if not 0.0 < s < math.inf:
        return math.nan, math.inf
    solves = 0
    mu = (_dot(diag, x, x) + 2.0 * _dot(off, x[:-1], x[1:])) / s
    if math.isfinite(mu) and _solve_shifted(diag, off, mu, x):
        s = _scaled_norm_sq(x)
        if 0.0 < s < math.inf:
            solves = _RQI_STEPS - 1
        else:
            np.copyto(x, guess)
            s = _scaled_norm_sq(x)
    best = (math.nan, math.inf)
    while True:
        _tridiagonal_product(diag, off, x, tx, tmp[:-1])
        mu = _dot(x, tx) / s
        tx -= np.multiply(x, mu, out=tmp)
        computed = math.sqrt(_dot(tx, tx) / s)
        floor = floor_scale * math.sqrt(_dot(row_abs_sq, x, x) / s)
        r = (computed + floor) * slack
        if not r < best[1]:
            break
        best = (mu, r)
        if computed <= floor or not solves or not _solve_shifted(diag, off, mu, x):
            break
        solves -= 1
        s = _scaled_norm_sq(x)
        if not 0.0 < s < math.inf:
            break
    return best


def _ldlt(diag, off, x, most, stop=None):
    """The LDL^T factorisation of T - x I, restarted past each pivot <= 0,
    in new arrays: (d, e, count, solvable), d the pivots, e the multipliers,
    count the number of pivots <= 0 (see the module docstring).

    Each pass is one ``pttrf`` call, over the rows from its start to
    ``stop`` and, once past it, to the last row; it ends at its first pivot
    <= 0 or at that row.  The factorisation stops once count reaches
    ``most`` + 1, at the last row, or at row ``stop`` when its pivot is at
    least |e_stop|: every later pivot is then positive, and the rows past
    it are left shifted but not factorised.  A zero pivot counts as
    negative; solvable is False when a pivot <= 0 was zero or -inf, and
    otherwise, with count <= ``most`` and no ``stop``, d and e are the whole
    factorisation, as LAPACK ``pttrs`` takes it."""
    n = diag.size
    stop = n - 1 if stop is None else stop
    # a shift past the float range gives an infinite entry of the right sign
    with np.errstate(over="ignore"):
        d = np.subtract(diag, x)
    e = off.copy()
    count = start = 0
    solvable = True
    while True:
        end = stop if start <= stop else n - 1
        info = 0
        # the wrapper takes no 1 x 1 matrix: a one-row pass is its own pivot
        if start < end:
            _, _, info = dpttrf(d[start : end + 1], e[start:end], overwrite_d=1, overwrite_e=1)
            _check_info(min(info, 0), "dpttrf")
        # info > 0 is the pass's first pivot <= 0, its rows counted from 1
        j = start + info - 1 if info else end
        pivot = float(d[j])
        if pivot <= 0.0:
            count += 1
            solvable = solvable and -math.inf < pivot < 0.0
        if count > most or j == n - 1:
            return d, e, count, solvable
        # pttrf stopped before it wrote e[j]: T's entry is off[j]
        b = float(off[j])
        if j == stop and pivot >= abs(b):
            return d, e, count, solvable
        if pivot != 0.0:
            # pttrf's own update: the passes make one factorisation's operations
            e[j] = mult = b / pivot
            d[j + 1] = float(d[j + 1]) - mult * b
        elif b != 0.0:
            # a zero pivot is the limit of negative ones: the next pivot is
            # +inf, positive, and the update past it leaves the next row as
            # it is
            d[j + 1] = math.inf
        start = j + 1


def _count_up_to(diag, off, gl, x, most, stop=None):
    """The number of eigenvalues up to x by one LDL^T count, gl lying below
    every eigenvalue: 0 for x <= gl, without a factorisation, and ``most``
    + 1 once that many pivots <= 0 are seen.  ``stop``, a row past which
    every lowered Gershgorin disc edge lies above x, is the factorisation's
    stop row (see the module docstring)."""
    if x <= gl:
        return 0
    return _ldlt(diag, off, x, most, stop)[2]


def _solve_shifted(diag, off, mu, x):
    """Solve (T - mu I) y = x for y in place, through the LDL^T
    factorisation of T - mu I; False, with x left as it was, at a pivot that
    is zero or -inf.  A pivot of +inf or nan comes only from a shift past
    the float range; a nan reaches y, whose norm the refinement checks
    next."""
    d, e, _, solvable = _ldlt(diag, off, mu, diag.size)
    if solvable:
        _, info = dpttrs(d, e, x, overwrite_b=1)
        _check_info(info, "dpttrs")
    return solvable


def _bisect(diag, off, gl, lo, hi, n_levels, abstol):
    """The lowest n_levels eigenvalues, ascending, by bisection of (lo, hi]
    on Sturm counts alone, to absolute tolerance ``abstol`` (see the module
    docstring for the stopping rule); gl lies below every eigenvalue, no
    eigenvalue lies up to lo, and n_levels or more lie up to hi.

    Level k keeps an interval (a_k, b_k] with at most k eigenvalues up to
    a_k and more than k up to b_k.  Each count, at the midpoint of the
    lowest open level's interval, narrows every level's interval that holds
    that midpoint: levels share one interval until a count parts them, so
    any two intervals are the same or disjoint and in order, as in LAPACK's
    bisection, and the counts of one midpoint cannot move an interval past
    another's."""
    big = max(1.0, float(np.max(np.abs(off))))
    tol = max(abstol, sys.float_info.min * big * min(big, _EPS / sys.float_info.min))
    a, b = [lo] * n_levels, [hi] * n_levels
    for k in range(n_levels):
        mid = 0.5 * a[k] + 0.5 * b[k]
        # max(-a, b) is max(|a|, |b|) for a < b
        while a[k] < mid < b[k] and b[k] - a[k] > max(tol, 2.0 * _EPS * max(-a[k], b[k])):
            count = _count_up_to(diag, off, gl, mid, n_levels)
            for j in range(k, n_levels):
                if a[j] < mid < b[j]:
                    (b if count > j else a)[j] = mid
            mid = 0.5 * a[k] + 0.5 * b[k]
    return np.array([0.5 * x + 0.5 * y for x, y in zip(a, b)])


def _bracket(diag, off, n_levels, bound, count, gl, gu):
    """(lo, hi), no eigenvalue up to lo and n_levels or more up to hi, from
    two walks away from ``bound``.

    ``count`` is the Sturm count up to ``bound``, already made; gl and gu
    bound the spectrum.  lo walks down from ``bound`` by 8 |bound|,
    16 |bound|, ... and hi up by |bound|, 2 |bound|, ..., capped at gl and
    gu, until counts show no eigenvalue up to lo and at least n_levels up to
    hi.  On a matrix with steep walls the Gershgorin interval is about 1e14
    wide, and the bracket saves most of bisection's halvings.
    """
    lo, n, step = bound, count, 8.0 * abs(bound)
    while n > 0:
        lo = max(bound - step, gl)
        n = _count_up_to(diag, off, gl, lo, n_levels)
        step *= 2.0
    hi, n, step = bound, count, abs(bound)
    while n < n_levels:
        hi = min(bound + step, gu)
        n = diag.size if hi == gu else _count_up_to(diag, off, gl, hi, n_levels)
        step *= 2.0
    return lo, hi


def _gershgorin(diag, off, row_abs, edges):
    """(gl, gu, ||T||_1): every eigenvalue lies in (gl, gu].  Fills
    ``row_abs`` with the absolute row sums of T, and ``edges`` with its
    Gershgorin disc edges a_j - |e_{j-1}| - |e_j|, lowered by 4 ulp ||T||_1
    (see the module docstring); both have T's n rows.  A norm past the
    float range raises ``RangeOverflowError``."""
    # |e_{j-1}| + |e_j| into edges, with row_abs as scratch until |a_j|
    abs_off = np.abs(off, out=row_abs[:-1])
    edges[:-1] = abs_off
    edges[-1] = 0.0
    edges[1:] += abs_off
    np.abs(diag, out=row_abs)
    with np.errstate(over="ignore"):
        row_abs += edges
    np.subtract(diag, edges, out=edges)
    row_max = float(np.max(row_abs))
    # every eigenvalue lies above the lowest disc edge, here lowered past its
    # own rounding, and below the largest absolute row sum, here raised past it
    gl = float(np.min(edges)) - 2.0 * _EPS * row_max
    gu = row_max * (1.0 + 4.0 * _EPS)
    if gu == math.inf:
        raise RangeOverflowError("the finite-difference matrix's norm ||T||_1 overflows")
    edges -= 4.0 * _EPS * row_max
    return gl, gu, row_max


def _certified_energies(diag, off, n_levels, guesses, bound):
    """The lowest n_levels eigenvalues, refined from the interiors of
    ``guesses`` (grid samples, ends included) where one Sturm count
    certifies them, and otherwise by bisection; ``guesses`` and ``bound``
    are both None for an unseeded solve, which bisects over the Gershgorin
    interval.

    ``bound`` is a value expected to separate the wanted eigenvalues from
    the rest.  The count up to it comes first; only when it is n_levels
    are the guesses refined, and the refined mu_k are kept when the
    intervals mu_k +- r_k are pairwise disjoint, so each holds a distinct
    eigenvalue, and the highest ends at or below ``bound``, so that count
    leaves no other eigenvalue below them (Sylvester's law of inertia).
    Any other outcome bisects inside ``_bracket``'s (lo, hi] to tolerance
    ulp * ||T||_1, or, for a ``bound`` within that of 0, over the
    Gershgorin interval to twice the underflow threshold.  The guesses
    themselves are left unchanged.
    """
    x, tx, tmp, row_abs = _workspace(diag.size)
    gl, gu, row_max = _gershgorin(diag, off, row_abs, tmp)
    if guesses is not None:
        # the count's stop row: the last whose lowered disc edge, in tmp, is
        # at most bound (the last row if none is, when the count is 0)
        stop = diag.size - 1 - int(np.argmax((tmp <= bound)[::-1]))
        count = _count_up_to(diag, off, gl, bound, n_levels, stop)
        if count == n_levels:
            # the row sums scaled below 1 by an exact power of two before
            # squaring, so no square overflows; scaling by a power of two
            # commutes with rounding, so the floor is the unscaled one bit for
            # bit wherever that one neither overflows nor underflows
            exp = max(math.frexp(row_max)[1], 0)
            row_abs *= math.ldexp(1.0, -exp)
            row_abs_sq = np.multiply(row_abs, row_abs, out=row_abs)
            floor_scale = math.ldexp(4.0 * _EPS, exp)
            refined = [
                _rayleigh_refine(diag, off, row_abs_sq, floor_scale, g[1:-1], x, tx, tmp)
                for g in guesses
            ]
            mu, r = np.array(refined).T
            order = np.argsort(mu)
            mu, r = mu[order], r[order]
            if (
                np.all(np.isfinite(r))
                and np.all(mu[1:] - r[1:] > mu[:-1] + r[:-1])
                and mu[-1] + r[-1] <= bound
            ):
                return mu
        # a bound within the tolerance of 0 gives the walks no scale to
        # step by: some 40 counts to leave it, dearer than the halvings
        # they would save
        if abs(bound) > _EPS * gu:
            lo, hi = _bracket(diag, off, n_levels, bound, count, gl, gu)
            return _bisect(diag, off, gl, lo, hi, n_levels, _EPS * row_max)
    return _bisect(diag, off, gl, gl, gu, n_levels, 2.0 * sys.float_info.min)


def tridiagonal_matrix(grid, mass_at_midpoints, potential_values, n_levels):
    """(diag, off), the interior rows of the matrix of -(1/2)(psi'/m)' + V psi
    with Dirichlet ends, checked for a solve of its lowest n_levels
    eigenvalues.  ``mass_at_midpoints`` holds m(x_i + h/2) for i = 0..n-2;
    the flux coefficients a = 1/m keep the stencil symmetric."""
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
    diag = (a[:-1] + a[1:]) / (2.0 * h * h) + v[1:-1]
    # a / (-c) is -a / c bit for bit
    off = a[1:-1] / (-2.0 * h * h)
    require_count("n_levels", n_levels, 1)
    if n_levels > diag.size:
        raise ArgumentError(f"n_levels must be between 1 and the {diag.size} interior points")
    if not (np.isfinite(diag).all() and np.isfinite(off).all()):
        raise RangeOverflowError("the finite-difference matrix has a non-finite entry")
    return diag, off


def solve_constant_mass(grid, potential_values, n_levels):
    """Lowest eigenvalues of -(1/2) psi'' + V psi with Dirichlet ends: the
    effective-mass solve at m = 1, whose matrix entries 2/(2h^2) = 1/h^2 and
    1/(-2h^2) = -0.5/h^2 are exact, h^2 the rounded product h * h."""
    return solve_effective_mass(grid, np.ones(grid.n_points - 1), potential_values, n_levels)


def solve_effective_mass(
    grid, mass_at_midpoints, potential_values, n_levels, guesses=None, bound=None
):
    """The lowest n_levels eigenvalues of -(1/2)(psi'/m)' + V psi, ascending,
    mass sampled at midpoints (see ``tridiagonal_matrix``).

    ``guesses`` and ``bound`` come together or not at all (``ArgumentError``
    otherwise, or for a bound that is not finite): n_levels samples on the
    grid of states close to the lowest ones, and a value expected to lie
    between the n_levels-th eigenvalue and the next.  They seed the
    certified refinement, one Sturm count at ``bound`` certifying it; every
    other outcome bisects inside a bracket whose two ends Sturm counts
    certify (see the module docstring).  A failed LAPACK call raises
    ``PctError``.

    The energies are certified Rayleigh quotients when the guesses passed
    the certificate, and otherwise bisection values.  Those bisected inside
    the bracket carry the absolute tolerance ulp * ||T||_1 (large for a
    matrix with steep walls: about 4e-4 at ||T||_1 = 1.9e12).  An unseeded
    solve's, and those of a solve whose ``bound`` is within that tolerance
    of 0, are bisected over the Gershgorin interval until each interval is
    2 ulp of its ends wide, or twice the underflow threshold.
    """
    if (guesses is None) != (bound is None):
        raise ArgumentError("guesses and bound must be given together")
    diag, off = tridiagonal_matrix(grid, mass_at_midpoints, potential_values, n_levels)
    if guesses is not None:
        bound = float(bound)
        if not math.isfinite(bound):
            raise ArgumentError(f"bound must be finite, not {bound}")
        guesses = [np.asarray(g, dtype=float) for g in guesses]
        if len(guesses) != n_levels or any(g.shape != (grid.n_points,) for g in guesses):
            raise GridMismatchError(
                f"guesses must be {n_levels} arrays of the grid's {grid.n_points} points"
            )
    return _certified_energies(diag, off, n_levels, guesses, bound)


def d1_numerator(v):
    """12 h times the 4th-order central first derivative of uniform samples
    v (along the first axis), at the interior nodes 2..n-3."""
    return -v[4:] + 8 * v[3:-1] - 8 * v[1:-3] + v[:-4]


def d2_numerator(v):
    """12 h^2 times the 4th-order central second derivative of uniform
    samples v (along the first axis), at the interior nodes 2..n-3."""
    return -v[4:] + 16 * v[3:-1] - 30 * v[2:-2] + 16 * v[1:-3] - v[:-4]


def residual_norm(grid, psi, energy, mass_values, potential_values):
    """RMS residual of psi'' - (m'/m) psi' + 2 m (E - V) psi on interior nodes.

    Derivatives of psi and m use 4th-order central differences; the
    outermost two nodes on each side are excluded, and the residual is
    computed on the interior only, as written above.  Every sample array
    must have the grid's n_points entries.
    """
    psi, m, v = (np.asarray(a, dtype=float) for a in (psi, mass_values, potential_values))
    if any(a.shape != (grid.n_points,) for a in (psi, m, v)):
        raise GridMismatchError("residual samples do not match the grid")
    h = grid.h
    # in place in three buffers: psi's two stencils from the sums and
    # differences of its four shifted slices, 8 (psi_+1 - psi_-1) -
    # (psi_+2 - psi_-2) and 16 (psi_+1 + psi_-1) - (psi_+2 + psi_-2) - 30 psi
    r, p1, t = (np.empty(psi.size - 4) for _ in range(3))
    np.subtract(psi[3:-1], psi[1:-3], out=p1)
    p1 *= 8.0
    p1 -= np.subtract(psi[4:], psi[:-4], out=t)
    np.add(psi[3:-1], psi[1:-3], out=r)
    r *= 16.0
    r -= np.add(psi[4:], psi[:-4], out=t)
    r -= np.multiply(psi[2:-2], 30.0, out=t)
    # psi'' - (m'/m) psi' is (r - (t / m) p1 / 12) / (12 h^2), t m's
    # first-derivative stencil
    np.subtract(m[3:-1], m[1:-3], out=t)
    t *= 8.0
    t -= m[4:]
    t += m[:-4]
    t /= m[2:-2]
    p1 *= t
    p1 /= 12.0
    r -= p1
    r /= 12.0 * h * h
    # plus 2 m (E - V) psi
    np.subtract(energy, v[2:-2], out=t)
    t *= m[2:-2]
    t *= psi[2:-2]
    t *= 2.0
    r += t
    return math.sqrt(_dot(r, r) / r.size)


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
