import json
import math
import os
import subprocess
import sys
import textwrap
import threading
import warnings

import numpy as np
import pytest
from conftest import bisect_log, count_log, solve_log
from hypothesis import assume, example, given, settings, strategies as st
from numpy.polynomial.hermite import hermval
from scipy.linalg import eigh_tridiagonal, eigvalsh_tridiagonal
from scipy.linalg.lapack import dstebz
from test_cli import README_RUNS

import pctsolve
from pctsolve import eigensolver
from pctsolve.eigensolver import (
    Grid,
    d1_numerator,
    d2_numerator,
    overlap,
    residual_norm,
    solve_constant_mass,
    solve_effective_mass,
    tridiagonal_matrix,
)
from pctsolve.errors import (
    ArgumentError,
    ConfigError,
    GridMismatchError,
    RangeOverflowError,
)


class TestGrid:
    def test_spacing_and_points(self):
        grid = Grid(0.0, 1.0, 101)
        assert grid.h == pytest.approx(0.01)
        assert grid.points[0] == 0.0 and grid.points[-1] == 1.0

    def test_validation(self):
        with pytest.raises(ConfigError):
            Grid(1.0, 0.0, 100)
        with pytest.raises(ConfigError):
            Grid(0.0, 1.0, 8)
        with pytest.raises(ConfigError, match="n_points must be an integer"):
            Grid(0.0, 1.0, 16.0)
        with pytest.raises(ConfigError, match="consecutive points coincide"):
            Grid(1.0, 1.0 + 2e-16, 201)
        with pytest.raises(ConfigError, match="h\\^2 underflows"):
            Grid(0.0, 1e-300, 201)

    def test_accepts_only_distinct_points(self):
        # Grid looks at its points only when h <= 4 eps max(|x_min|, |x_max|);
        # coincident neighbours appear below about 1 eps
        rng = np.random.default_rng(7)
        eps = np.finfo(float).eps
        rejected = 0
        for _ in range(2000):
            n = int(rng.integers(16, 3000))
            x_min = float(rng.uniform(-1.0, 1.0) * 2.0 ** rng.integers(-300, 300))
            x_max = x_min + float(rng.uniform(0.5, 6.0)) * eps * abs(x_min) * (n - 1)
            distinct = bool(np.all(np.diff(np.linspace(x_min, x_max, n)) > 0))
            try:
                Grid(x_min, x_max, n)
            except ConfigError:
                rejected += 1
                assert not distinct
            else:
                assert distinct
        assert 0 < rejected < 2000

    @pytest.mark.parametrize(
        "x_min, x_max",
        [(0.0, math.inf), (-1e308, 1e308), (math.nan, 1.0)],
        ids=["infinite-end", "width-overflows", "nan-end"],
    )
    def test_width_must_be_finite(self, x_min, x_max):
        # an infinite width gives h = inf, and a solve on it a silent [0.]
        with pytest.raises(ConfigError, match="finite distance"):
            Grid(x_min, x_max, 100)


class TestConstantMass:
    def test_harmonic_oscillator(self):
        # -(1/2) psi'' + (1/2) x^2 psi = E psi  ->  E_n = n + 1/2
        grid = Grid(-10.0, 10.0, 16001)
        energies = solve_constant_mass(grid, 0.5 * grid.points**2, 4)
        assert np.allclose(energies, [0.5, 1.5, 2.5, 3.5], rtol=1e-6)

    def test_particle_in_a_box(self):
        # V = 0 with Dirichlet walls: E_n = (n+1)^2 pi^2 / (2 L^2)
        grid = Grid(0.0, 1.0, 2001)
        energies = solve_constant_mass(grid, np.zeros(grid.n_points), 3)
        exact = np.array([1, 4, 9]) * math.pi**2 / 2.0
        assert np.allclose(energies, exact, rtol=1e-5)

    @settings(max_examples=20, deadline=None)
    @given(st.floats(-5, 5))
    def test_potential_shift_shifts_energies(self, c):
        grid = Grid(-6.0, 6.0, 501)
        v = 0.5 * grid.points**2
        base = solve_constant_mass(grid, v, 2)
        shifted = solve_constant_mass(grid, v + c, 2)
        assert np.allclose(shifted, base + c, rtol=1e-9, atol=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(
        st.floats(-50.0, 50.0),
        st.floats(1e-2, 1e2),
        st.integers(16, 2001),
        st.floats(-1e3, 1e3),
    )
    def test_unit_mass_entries_are_exact(self, x_min, width, n_points, c):
        # at m = 1 the flux-form entries (1 + 1)/(2h^2) and 1/(-2h^2) are the
        # three-point stencil's 1/h^2 and -0.5/h^2 bit for bit, h^2 the
        # rounded product h * h (Python's h**2 goes through C pow, which can
        # be an ulp away from it)
        grid = Grid(x_min, x_min + width, n_points)
        v = 0.5 * grid.points**2 + c
        diag, off = eigensolver.tridiagonal_matrix(grid, np.ones(n_points - 1), v, 1)
        hh = grid.h * grid.h
        assert np.array_equal(diag, 1 / hh + v[1:-1])
        assert np.array_equal(off, np.full(n_points - 3, -0.5 / hh))
        # so the solve is the textbook constant-mass one
        assert_unseeded(solve_constant_mass(grid, v, 2), diag, off)


class TestEffectiveMass:
    def test_reduces_to_constant_mass(self):
        grid = Grid(-8.0, 8.0, 2001)
        v = 0.5 * grid.points**2
        mid = np.ones(grid.n_points - 1)
        a = solve_effective_mass(grid, mid, v, 3)
        b = solve_constant_mass(grid, v, 3)
        assert np.allclose(a, b, rtol=1e-10)

    def test_heavy_box_scaling(self):
        # constant mass M: box levels scale as 1/M
        grid = Grid(0.0, 1.0, 2001)
        v = np.zeros(grid.n_points)
        energies = solve_effective_mass(grid, np.full(grid.n_points - 1, 4.0), v, 2)
        exact = np.array([1, 4]) * math.pi**2 / 8.0
        assert np.allclose(energies, exact, rtol=1e-5)

    def test_validation(self):
        grid = Grid(0.0, 1.0, 64)
        v = np.zeros(64)
        with pytest.raises(GridMismatchError):
            solve_effective_mass(grid, np.ones(64), v, 1)
        with pytest.raises(GridMismatchError, match="potential"):
            tridiagonal_matrix(grid, np.ones(63), np.zeros(63), 1)
        with pytest.raises(ConfigError):
            solve_effective_mass(grid, np.zeros(63), v, 1)
        with pytest.raises(ArgumentError):
            solve_effective_mass(grid, np.ones(63), v, 0)


class TestMatrixChecks:
    """What scipy's wrappers checked before calling LAPACK, the solve checks
    itself, once, before either path."""

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("seeded", [False, True], ids=["bisection", "certified"])
    def test_non_finite_potential(self, bad, seeded):
        grid = Grid(-8.0, 8.0, 1001)
        v = 0.5 * grid.points**2
        v[500] = bad
        # the oscillator's separation of levels 0 and 1 is 1
        seed = {"guesses": [np.exp(-0.5 * grid.points**2)], "bound": 1.0} if seeded else {}
        with pytest.raises(RangeOverflowError):
            solve_effective_mass(grid, np.ones(1000), v, 1, **seed)
        with pytest.raises(RangeOverflowError):
            solve_constant_mass(grid, v, 1)

    def test_opposite_infinities_rejected(self):
        grid = Grid(-8.0, 8.0, 1001)
        v = 0.5 * grid.points**2
        v[100], v[101] = math.inf, -math.inf
        with pytest.raises(RangeOverflowError):
            solve_constant_mass(grid, v, 1)

    @pytest.mark.parametrize("seeded", [False, True], ids=["bisection", "certified"])
    def test_norm_past_the_float_range_rejected(self, seeded):
        # a mass of 8.3e-305 makes off-diagonals of -6e307 and a diagonal of
        # 1.2e308, each finite, but rows whose absolute sums overflow: the
        # Gershgorin interval that bisection starts from would not be finite
        grid = Grid(0.0, 1.0, 101)
        x = grid.points
        seed = {"guesses": [x * (1 - x)], "bound": 1e305} if seeded else {}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RangeOverflowError, match="overflows"):
                solve_effective_mass(grid, np.full(100, 8.3e-305), np.zeros(101), 1, **seed)

    def test_huge_finite_entries_accepted(self):
        # the diagonal's sum overflows although every entry is finite
        grid = Grid(-8.0, 8.0, 1001)
        v = 0.5 * grid.points**2
        v[[100, 101]] = 1e308
        np.testing.assert_allclose(solve_constant_mass(grid, v, 2), [0.5, 1.5], rtol=1e-4)

    def test_huge_finite_entries_refined_without_warning(self):
        # the |T| row sums reach 1e200, whose squares leave the float range
        # unless scaled first; the refinement cannot certify (T v overflows
        # in its norm) and the solve falls back, warning-free, to bisection:
        # a bound of 1 is within ulp * ||T||_1 (about 2e184) of 0, so over
        # the Gershgorin interval, to the tightest tolerance.  The walls at
        # nodes 100 and 900 cut the well to the grid between them
        grid = Grid(-5.0, 5.0, 1001)
        x = grid.points
        v = 0.5 * x * x
        v[[100, 900]] = 1e200
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = solve_effective_mass(
                grid, np.ones(1000), v, 1, guesses=[np.exp(-0.5 * x * x)], bound=1.0
            )
            walled = solve_constant_mass(Grid(x[100], x[900], 801), v[100:901], 1)
        np.testing.assert_allclose(res, walled, rtol=1e-10)

    def test_rounding_floor_is_the_unscaled_one(self, monkeypatch):
        # one Rayleigh step from an eigenvector, where the rounding floor
        # 4 eps ||(|T| v)|| / ||v|| is most of the radius: the scaled squares
        # must give the floor of the unscaled row sums
        grid = Grid(-8.0, 8.0, 1001)
        mid = 0.5 * (grid.points[:-1] + grid.points[1:])
        m = 1.0 + 0.5 / (1.0 + mid * mid)
        v = 0.5 * grid.points**2
        d, e = eigensolver.tridiagonal_matrix(grid, m, v, 1)
        _, vec = eigh_tridiagonal(d, e, select="i", select_range=(0, 0))
        u = vec[:, 0]
        radii = []
        refine = eigensolver._rayleigh_refine
        monkeypatch.setattr(eigensolver, "_RQI_STEPS", 0)
        monkeypatch.setattr(
            eigensolver, "_rayleigh_refine", lambda *a: radii.append(refine(*a)[1]) or (0.0, 1.0)
        )
        solve_effective_mass(grid, m, v, 1, guesses=[np.concatenate([[0.0], u, [0.0]])], bound=1.0)
        tu = d * u
        tu[:-1] += e * u[1:]
        tu[1:] += e * u[:-1]
        s = u @ u
        resid = tu - (u @ tu / s) * u
        row = np.abs(d)
        row[:-1] += np.abs(e)
        row[1:] += np.abs(e)
        computed = math.sqrt(resid @ resid / s)
        floor = 4.0 * np.finfo(float).eps * math.sqrt(np.sum((row * u) ** 2) / s)
        assert floor > 5.0 * computed
        assert radii == [pytest.approx(computed + floor, rel=1e-6)]

    def test_more_levels_than_interior_points(self):
        grid = Grid(0.0, 1.0, 16)
        assert solve_constant_mass(grid, np.zeros(16), 14).size == 14
        with pytest.raises(ArgumentError):
            solve_constant_mass(grid, np.zeros(16), 15)
        for bad in (True, 2.5):
            with pytest.raises(ArgumentError, match="n_levels must be an integer"):
                solve_constant_mass(grid, np.zeros(16), bad)


def _run_fresh(code):
    """Run ``code`` in a fresh interpreter that imports this pctsolve; its
    standard output parsed as JSON."""
    src = os.path.dirname(os.path.dirname(pctsolve.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(out.stdout)


class TestLapackLoading:
    """The LAPACK routines are scipy's own extension module, loaded without
    ``scipy.linalg``'s package init."""

    def test_verify_never_imports_scipy_linalg(self):
        config = json.dumps({"schema_version": 1, "runs": README_RUNS})
        loaded = _run_fresh(
            f"""
            import json, sys
            import pctsolve.cli as cli
            from pctsolve.eigensolver import Grid, solve_constant_mass

            # not even the top-level package's init runs
            assert "scipy" not in sys.modules
            seen = ["scipy.linalg" in sys.modules]
            text, code = cli.cmd_verify(cli.load_config({config!r}))
            assert code == 0 and json.loads(text)["pass"] is True
            grid = Grid(-8.0, 8.0, 501)
            assert solve_constant_mass(grid, 0.5 * grid.points**2, 2).shape == (2,)
            seen.append("scipy.linalg" in sys.modules)
            print(json.dumps(seen))
            """
        )
        assert loaded == [False, False]

    @pytest.mark.parametrize("first", ["pctsolve.eigensolver", "scipy.linalg.lapack"])
    def test_routines_are_scipys(self, first):
        same = _run_fresh(
            f"""
            import importlib, json
            importlib.import_module({first!r})
            from pctsolve import eigensolver
            from scipy.linalg import lapack
            print(json.dumps([eigensolver._flapack is lapack._flapack] + [
                getattr(eigensolver, name) is getattr(lapack, name)
                for name in ("dpttrf", "dpttrs")
            ]))
            """
        )
        assert same == [True, True, True]


class TestResidual:
    def test_exact_eigenstate_small_residual(self):
        # ground state of the harmonic oscillator in closed form
        grid = Grid(-8.0, 8.0, 16001)
        x = grid.points
        psi = np.exp(-0.5 * x * x)
        v = 0.5 * x * x
        ones = np.ones_like(x)
        r = residual_norm(grid, psi, 0.5, ones, v)
        assert r < 1e-9

    def test_wrong_energy_large_residual(self):
        grid = Grid(-8.0, 8.0, 16001)
        x = grid.points
        psi = np.exp(-0.5 * x * x)
        ones = np.ones_like(x)
        r = residual_norm(grid, psi, 1.7, ones, 0.5 * x * x)
        assert r > 1e-2

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(16, 200),
        st.floats(-1e3, 1e3),
        st.integers(0, 2**32 - 1),
    )
    def test_equals_the_formula_as_written(self, n, energy, seed):
        # the in-place evaluation against psi'' - (m'/m) psi' + 2 m (E - V)
        # psi from the stencils: each sample's terms rounded in another
        # order, so each differs by a few eps of the sum of the terms'
        # absolute values, and the RMS by at most the RMS of those
        rng = np.random.default_rng(seed)
        grid = Grid(-1.0, 1.0 + rng.uniform(0.0, 9.0), n)
        psi = rng.standard_normal(n)
        m = rng.uniform(0.1, 10.0, n)
        v = rng.uniform(-1e3, 1e3, n)
        h = grid.h
        p1 = d1_numerator(psi) / (12 * h)
        m1 = d1_numerator(m) / (12 * h)
        mi, vi, psii = m[2:-2], v[2:-2], psi[2:-2]
        r = d2_numerator(psi) / (12 * h * h) - m1 / mi * p1 + mi * 2.0 * (energy - vi) * psii
        a = np.abs
        terms = (
            (a(psi[4:]) + 16 * a(psi[3:-1]) + 30 * a(psii) + 16 * a(psi[1:-3]) + a(psi[:-4]))
            / (12 * h * h)
            + (a(m[4:]) + 8 * a(m[3:-1]) + 8 * a(m[1:-3]) + a(m[:-4]))
            * (a(psi[4:]) + 8 * a(psi[3:-1]) + 8 * a(psi[1:-3]) + a(psi[:-4]))
            / (144 * h * h * mi)
            + 2.0 * mi * (abs(energy) + a(vi)) * a(psii)
        )
        want = math.sqrt(np.mean(r * r))
        tol = 16 * np.finfo(float).eps * math.sqrt(np.mean(terms * terms))
        assert abs(residual_norm(grid, psi, energy, m, v) - want) <= tol

    @pytest.mark.parametrize("short", ["psi", "mass", "potential"])
    def test_samples_must_match_the_grid(self, short):
        # 10 samples on a 16-point grid: a short psi would be differenced
        # with the grid's h, a short mass broadcast against it
        grid = Grid(0.0, 1.0, 16)
        args = {"psi": np.ones(16), "mass": np.ones(16), "potential": np.ones(16)}
        args[short] = np.ones(10)
        with pytest.raises(GridMismatchError):
            residual_norm(grid, args["psi"], 1.0, args["mass"], args["potential"])

    def test_too_few_samples_raise_without_a_warning(self):
        # 4 samples leave no interior node: the mean of nothing, nan
        grid = Grid(0.0, 1.0, 16)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GridMismatchError):
                residual_norm(grid, np.ones(4), 1.0, np.ones(4), np.ones(4))


class TestOverlap:
    def test_one_pass_trapezoid_rule(self):
        grid = Grid(-3.0, 5.0, 4001)
        x = grid.points
        a, b = np.exp(-0.5 * (x - 1.0) ** 2), np.cos(x) + 0.5
        got = overlap(grid, a, b)
        assert got == pytest.approx(np.trapezoid(a * b, dx=grid.h), rel=1e-14)
        # <a|b> = <b|a> bit for bit
        assert overlap(grid, b, a) == got
        # the end points carry half weight
        ends = np.zeros_like(x)
        ends[[0, -1]] = 1.0
        assert overlap(grid, ends, np.ones_like(x)) == grid.h

    def test_samples_must_match_the_grid(self):
        grid = Grid(0.0, 1.0, 16)
        with pytest.raises(GridMismatchError):
            overlap(grid, np.ones(16), np.ones(15))


def gershgorin(diag, off):
    """(the lowest Gershgorin disc edge, ||T||_1) of a tridiagonal matrix."""
    rows = np.zeros(diag.size)
    rows[:-1] += np.abs(off)
    rows[1:] += np.abs(off)
    return float(np.min(diag - rows)), float(np.max(np.abs(diag) + rows))


def split_at_bisection(log):
    """(the entries before a log's one bisection, that bisection's entry),
    of a log shared by ``conftest.count_log`` and ``conftest.bisect_log``:
    every entry after it is one of the bisection's own Sturm counts."""
    (at,) = [i for i, entry in enumerate(log) if entry[0] == "bisect"]
    assert all(entry[0] == "count" for entry in log[at + 1 :])
    return log[:at], log[at]


def stebz_count(diag, off, x):
    """stebz's count of the eigenvalues up to x: a value-range call from
    below the Gershgorin interval whose absolute tolerance, the largest
    float, is wider than that range, so that stebz counts and does not
    bisect."""
    gl, norm = gershgorin(diag, off)
    lo = gl - norm - 1.0
    if x <= lo:
        return 0
    m, _, _, _, info = dstebz(diag, off, 1, lo, x, 1, 1, sys.float_info.max, b"E")
    assert info == 0
    return m


#: a tridiagonal entry: 0, an integer, or a float of either sign between
#: 1e-3 and 1e3
_ENTRY = st.one_of(
    st.just(0.0), st.integers(-4, 4).map(float), st.floats(1e-3, 1e3), st.floats(-1e3, -1e-3)
)


def assert_unseeded(energies, diag, off):
    """``energies`` are the lowest eigenvalues of T, ascending, as an
    unseeded solve gives them: bisected over the Gershgorin interval until
    each interval is 2 ulp of its ends wide, on counts exact for entries a
    few ulps away, so within 2 ulp of the value plus 2 ulp * ||T||_1 (the
    counts' resolution) of scipy's bisection at the same, tightest
    tolerance."""
    tight = eigvalsh_tridiagonal(
        diag, off, select="i", select_range=(0, energies.size - 1), tol=2 * sys.float_info.min
    )
    eps = np.finfo(float).eps
    assert np.all(np.diff(energies) >= 0)
    tol = 2 * eps * np.abs(tight) + 2 * eps * gershgorin(diag, off)[1]
    assert np.all(np.abs(energies - tight) <= tol), (energies, tight)


class TestBisection:
    """A solve without guesses bisects by Sturm counts over the Gershgorin
    interval, to the tightest tolerance."""

    def test_energies_agree_with_tight_bisection(self):
        grid = Grid(-8.0, 8.0, 3001)
        mid = 0.5 * (grid.points[:-1] + grid.points[1:])
        m = 1.0 + 0.5 / (1.0 + mid * mid)
        v = 0.5 * grid.points**2
        a = 1.0 / m
        h = grid.h
        diag = (a[:-1] + a[1:]) / (2.0 * h * h) + v[1:-1]
        off = -a[1:-1] / (2.0 * h * h)
        assert_unseeded(solve_effective_mass(grid, m, v, 4), diag, off)

    def test_split_matrix_energies_in_ascending_order(self):
        # an infinite midpoint mass decouples the two halves, and the right
        # half's well is 0.3 deeper: its levels 0.2 and 1.2 interleave with
        # the left half's 0.5 and 1.5
        grid = Grid(-8.0, 8.0, 801)
        x = grid.points
        m = np.ones(grid.n_points - 1)
        m[399] = np.inf
        v = 0.5 * (x + 4.0) ** 2 * (x < 0) + (0.5 * (x - 4.0) ** 2 - 0.3) * (x >= 0)
        energies = solve_effective_mass(grid, m, v, 4)
        diag, off = eigensolver.tridiagonal_matrix(grid, m, v, 4)
        assert off[398] == 0.0
        assert_unseeded(energies, diag, off)
        np.testing.assert_allclose(energies, [0.2, 0.5, 1.2, 1.5], atol=1e-3)

    def test_off_diagonals_near_5e151(self):
        # h = 1e-78: off-diagonals -1/(2 h^2) = -5e151, whose squares leave
        # the float range; the counts never form them.  The box's levels
        # are (2 / h^2) sin^2(k pi / 200) on 100 intervals
        grid = Grid(0.0, 1e-76, 101)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            energies = solve_constant_mass(grid, np.zeros(101), 2)
        np.testing.assert_allclose(energies, [4.934396e152, 1.973272e153], rtol=1e-6)
        fd = 2.0 / (grid.h * grid.h) * np.sin(np.array([1, 2]) * np.pi / 200) ** 2
        np.testing.assert_allclose(energies, fd, rtol=1e-12)

    def test_off_diagonals_near_5e303(self):
        # a mass of 1e-300 makes off-diagonals -5e303: LAPACK's floor
        # DBL_MIN e^2 would be 5.5e299, a tenth of the lowest level, and stop
        # the bisection 2% short; held at ulp e, it leaves the levels to
        # 1e-12 of the box's (2 / (m h^2)) sin^2(k pi / 200)
        grid = Grid(0.0, 1.0, 101)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            energies = solve_effective_mass(grid, np.full(100, 1e-300), np.zeros(101), 2)
        fd = 2.0 / (1e-300 * grid.h * grid.h) * np.sin(np.array([1, 2]) * np.pi / 200) ** 2
        np.testing.assert_allclose(energies, fd, rtol=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(2, 24).flatmap(
            lambda n: st.tuples(
                st.lists(_ENTRY, min_size=n, max_size=n),
                st.lists(_ENTRY, min_size=n - 1, max_size=n - 1),
                st.integers(1, n),
            )
        ),
        st.integers(-200, 200),
    )
    def test_equals_dense_eigenvalues(self, case, exponent):
        # scaled by 2^exponent, exact zero off-diagonals (split matrices)
        # included; numpy's dense eigenvalues are within a few n ulp *
        # ||T||_1, and so is the bisection, whose counts are exact for
        # entries a few ulps away
        diag, off = (np.ldexp(np.array(v), exponent) for v in case[:2])
        n_levels = case[2]
        exact = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))[:n_levels]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            energies = eigensolver._certified_energies(diag, off, n_levels, None, None)
        eps = np.finfo(float).eps
        tol = 8 * diag.size * eps * gershgorin(diag, off)[1] + 2 * eps * np.abs(exact)
        assert np.all(np.diff(energies) >= 0)
        assert np.all(np.abs(energies - exact) <= tol), (energies, exact)


def gershgorin_tail(diag, off):
    """(gl, the Gershgorin tail) of a tridiagonal matrix, as a solve forms
    them (``eigensolver._gershgorin``)."""
    gl, _, _, tail = eigensolver._gershgorin(diag, off, np.empty(diag.size), np.empty(diag.size))
    return gl, tail


#: tail block sizes for the small matrices of ``TestSturmCount``: a block
#: of a solve's 64 rows holds every row of them
SMALL_TAIL_BLOCKS = (1, 3)


class TestSturmCount:
    """The LDL^T count up to x is stebz's count, and the eigenvalues' (of
    the dense matrix, by numpy), at every x more than 8 n eps ||T||_1 from
    each eigenvalue, without a floating-point warning.  Capped at ``most``,
    it is the count or ``most`` + 1, whichever is less.  Cut off at the
    Gershgorin tail, in blocks of one or three rows, it is the full count at
    every x, bit for bit."""

    @staticmethod
    def assert_counts_agree(diag, off, shifts):
        diag, off = np.asarray(diag, dtype=float), np.asarray(off, dtype=float)
        exact = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
        margin = 8 * diag.size * np.finfo(float).eps * gershgorin(diag, off)[1]
        with warnings.catch_warnings(), pytest.MonkeyPatch.context() as patch:
            warnings.simplefilter("error")
            tails = []
            for block in SMALL_TAIL_BLOCKS:
                patch.setattr(eigensolver, "_TAIL_BLOCK", block)
                tails.append((block, *gershgorin_tail(diag, off)))
            for x in shifts:
                # a distance past the float range is inf, and far enough
                with np.errstate(over="ignore"):
                    assert np.min(np.abs(exact - x)) > margin, x
                count = eigensolver._count_up_to(diag, off, -math.inf, x, diag.size)
                assert count == stebz_count(diag, off, x) == np.sum(exact <= x), x
                capped = [
                    eigensolver._count_up_to(diag, off, -math.inf, x, most)
                    for most in range(diag.size)
                ]
                assert capped == [min(count, most + 1) for most in range(diag.size)], x
                for block, gl, tail in tails:
                    patch.setattr(eigensolver, "_TAIL_BLOCK", block)
                    cut = eigensolver._count_up_to(diag, off, gl, x, diag.size, tail)
                    assert cut == count, (x, block)
                    for most in range(diag.size):
                        cut = eigensolver._count_up_to(diag, off, gl, x, most, tail)
                        assert cut == capped[most], (x, most, block)

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(2, 24).flatmap(
            lambda n: st.tuples(
                st.lists(_ENTRY, min_size=n, max_size=n),
                st.lists(_ENTRY, min_size=n - 1, max_size=n - 1),
            )
        ),
        st.integers(-200, 200),
        st.integers(0, 24),
        st.floats(0.0, 1.0),
    )
    def test_equals_stebz(self, matrix, exponent, k, t):
        # scaled by 2^exponent; x a point of the k-th gap of the spectrum,
        # ||T||_1 wide at either end
        diag, off = (np.ldexp(np.array(v), exponent) for v in matrix)
        exact = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
        norm = gershgorin(diag, off)[1]
        ends = np.concatenate([[exact[0] - norm], exact, [exact[-1] + norm]])
        k = min(k, diag.size)
        x = float(ends[k] + t * (ends[k + 1] - ends[k]))
        assume(np.min(np.abs(exact - x)) > 8 * diag.size * np.finfo(float).eps * norm)
        self.assert_counts_agree(diag, off, [x])

    @pytest.mark.parametrize(
        "diag, off, shifts",
        [
            # pivots exactly 0: at x = 1 rows 0, 2, 4 and 6, at x = 0 and 3
            # rows 2 and 6; in the second matrix at x = 1 row 2, at x = 4
            # rows 2 and 5
            ([1.0, 2.0] * 4, [1.0] * 7, [0.0, 1.0, 3.0]),
            ([2.0, 3.0, 2.0, 0.0, 2.0, 4.0, 1.0], [1.0, 1.0, 2.0, 1.0, 0.0, 1.0], [1.0, 4.0]),
            # a zero pivot in the next-to-last row: the last one's is +inf
            ([1.0, 5.0], [2.0], [0.0, 1.0, 6.0]),
            # walls of 1e200 in a well: ||T||_1 leaves only shifts far from
            # the well's eigenvalues
            ([2.0] * 3 + [1e200] + [2.0] * 4 + [1e200] + [2.0] * 3, [-1.0] * 11,
             [-1e199, 1e199, 5e199, 3e200]),
            # off-diagonals near 1e-160, whose squares are subnormal
            ([1.0, 2.0, 2.0, 3.0, 0.5], [1e-160, -3e-160, 1e-160, 2e-160],
             [0.75, 1.0 - 1e-12, 1.0 + 1e-12, 1.5, 2.0 - 1e-12, 2.0 + 1e-12, 2.5, 4.0]),
            # T - x I overflows at the ends: an infinite pivot of the right sign
            ([-1.5e308, 1.0, 2.0, 1.5e308], [1.0, 1.0, 1.0], [-1e308, 1e308]),
            # at x = 0 the Gershgorin tail starts at row 3: the pivots of rows
            # 0..2 are 1, 1, 0, an exact zero at row p = 2
            ([1.0, 2.0, 1.0, 10.0, 10.0, 10.0], [1.0] * 5, [0.0]),
            # the same at row p - 1 = 1, the pivot of row p = 2 then +inf:
            # its diagonal entry, left as it was, is 1.5 or 0.5, above and
            # below |e_p| = 1
            ([1.0, 1.0, 1.5, 10.0, 10.0], [1.0] * 4, [0.0]),
            ([1.0, 1.0, 0.5, 10.0, 10.0], [1.0] * 4, [0.0]),
            # a well whose tails dominate: rows 0..14 of 25 up to 0.5
            (1.0 + 0.5 * np.linspace(-6.0, 6.0, 25) ** 2, [-0.5] * 24,
             [0.3, 0.5, 1.5, 4.0, 17.0, 19.0]),
        ],
        ids=["integer-zero-pivots", "integer-zero-pivots-2", "zero-pivot-next-to-last",
             "walls-1e200", "off-diagonals-1e-160", "shift-past-the-float-range",
             "zero-pivot-at-the-tail", "zero-pivot-before-the-tail",
             "zero-pivot-before-the-tail-2", "dominant-tails"],
    )
    def test_equals_stebz_on_edge_cases(self, diag, off, shifts):
        self.assert_counts_agree(diag, off, shifts)

    @pytest.mark.parametrize(
        "diag, off, x, most, block, calls",
        [
            # stops at row p = 14, whose pivot is at least |e_p|
            (1.0 + 0.5 * np.linspace(-6.0, 6.0, 25) ** 2, [-0.5] * 24, 0.5, 24, 1,
             [(15, False)]),
            # the same in blocks of 4 rows: p = 15, the last row of block 3
            (1.0 + 0.5 * np.linspace(-6.0, 6.0, 25) ** 2, [-0.5] * 24, 0.5, 24, 4,
             [(16, False)]),
            # d_p < |e_p|: goes on from row p = 13 with its pivot carried over
            (1.0 + 0.5 * np.linspace(-6.0, 6.0, 25) ** 2, [-0.5] * 24, 0.3, 24, 1,
             [(14, False), (12, True)]),
            # ``most`` reached inside rows 0..p
            (1.0 + 0.5 * np.linspace(-6.0, 6.0, 25) ** 2, [-0.5] * 24, 4.0, 0, 1, [(18, False)]),
            # no tail: every G_i <= x, or one block of every row
            (1.0 + 0.5 * np.linspace(-6.0, 6.0, 25) ** 2, [-0.5] * 24, 19.0, 24, 1,
             [(25, False)]),
            (1.0 + 0.5 * np.linspace(-6.0, 6.0, 25) ** 2, [-0.5] * 24, 0.5, 24, 64,
             [(25, False)]),
            # a zero pivot at row p, below |e_p|: made again over every row
            ([1.0, 2.0, 1.0, 10.0, 10.0, 10.0], [1.0] * 5, 0.0, 6, 1, [(3, False), (6, False)]),
            # past a zero pivot at row p - 1, row p's entry 1.5 >= |e_p|, and
            # 0.5 < |e_p|
            ([1.0, 1.0, 1.5, 10.0, 10.0], [1.0] * 4, 0.0, 5, 1, [(3, False)]),
            ([1.0, 1.0, 0.5, 10.0, 10.0], [1.0] * 4, 0.0, 5, 1, [(3, False), (5, False)]),
        ],
        ids=["stops", "stops-in-blocks", "goes-on", "most-reached", "no-tail", "one-block",
             "zero-pivot-at-row-p", "zero-pivot-before-row-p", "zero-pivot-before-row-p-2"],
    )
    def test_cut_off_paths(self, monkeypatch, diag, off, x, most, block, calls):
        # the factorisations a cut-off count makes, as (rows, whether a
        # pivot is carried over), and its count, the full one
        diag, off = np.asarray(diag, dtype=float), np.asarray(off, dtype=float)
        monkeypatch.setattr(eigensolver, "_TAIL_BLOCK", block)
        gl, tail = gershgorin_tail(diag, off)
        full = eigensolver._count_up_to(diag, off, -math.inf, x, most)
        made = []
        ldlt = eigensolver._ldlt

        def logged(d, e, shift, cap, first=None):
            made.append((d.size, first is not None))
            return ldlt(d, e, shift, cap, first)

        monkeypatch.setattr(eigensolver, "_ldlt", logged)
        assert eigensolver._count_up_to(diag, off, gl, x, most, tail) == full
        assert made == calls

    @settings(max_examples=300, deadline=None)
    @given(
        st.tuples(st.integers(1, 12), st.integers(1, 12)).flatmap(
            lambda sizes: st.tuples(
                st.lists(_ENTRY, min_size=sizes[0], max_size=sizes[0]),
                st.lists(_ENTRY, min_size=sum(sizes) - 1, max_size=sum(sizes) - 1),
                st.lists(st.floats(2.0, 1e6), min_size=sizes[1], max_size=sizes[1]),
            )
        ),
        st.sampled_from([0, 11, 16]),
        st.integers(-200, 200),
        st.integers(1, 12),
        st.floats(0.0, 1.0),
    )
    def test_cut_off_count_equals_the_full_count(self, case, wall, exponent, k, t):
        # a well of ``_ENTRY`` rows and a tail whose diagonal entries are
        # 2^wall times a value above 2: past the rows' off-diagonal sums
        # (2e3 at most) at wall 11 or 16, and at wall 0 only where those
        # are small (walls of 1e200 are among the edge cases).  x is a
        # point of the k-th gap of the spectrum, as in test_equals_stebz, k
        # at most the well's rows, all scaled by 2^exponent: some counts
        # stop at row p, most go on from there
        head, off, walls = case
        diag = np.concatenate([head, np.ldexp(np.array(walls), wall)])
        diag, off = np.ldexp(diag, exponent), np.ldexp(np.array(off), exponent)
        exact = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
        norm = gershgorin(diag, off)[1]
        ends = np.concatenate([[exact[0] - norm], exact, [exact[-1] + norm]])
        k = min(k, len(head))
        x = float(ends[k] + t * (ends[k + 1] - ends[k]))
        assume(np.min(np.abs(exact - x)) > 8 * diag.size * np.finfo(float).eps * norm)
        self.assert_counts_agree(diag, off, [x])


def _solve_case(draw_n):
    """(diag, off, b) of an n-row tridiagonal matrix from ``_ENTRY``, n drawn
    by ``draw_n``, and a right-hand side of entries 0 or between 1e-3 and 1
    in magnitude, whose solution keeps clear of the subnormal range."""
    rhs = st.one_of(st.just(0.0), st.floats(1e-3, 1.0), st.floats(-1.0, -1e-3))
    return draw_n.flatmap(
        lambda n: st.tuples(
            st.lists(_ENTRY, min_size=n, max_size=n),
            st.lists(_ENTRY, min_size=n - 1, max_size=n - 1),
            st.lists(rhs, min_size=n, max_size=n),
        )
    )


class TestShiftedSolve:
    """The Rayleigh step's solve of (T - mu I) y = b through the LDL^T
    factorisation that the Sturm count restarts past each pivot <= 0.

    Unpivoted, the factorisation is backward stable relative to its own
    factors: the computed y solves (A + dA) y = b with |dA| <= c u |L||D||L^T|,
    A = T - mu I with its diagonal rounded, c a small constant (4 + O(u) for
    an unpivoted tridiagonal LU solve: Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., ch. 9).  The tests take c = 8 n, far
    above it.  Against a dense solve, whose own error is bounded the same
    way by ||A||, the forward error is then at most
    ||A^-1|| c u (|| |L||D||L^T| || ||y|| + 2 ||A|| ||y_dense||): the condition
    number times the factorisation's growth.  It is not kappa(A) u alone:
    on [[t, 1], [1, 0]], kappa near 1, the pivots t and -1/t lose u / t."""

    @staticmethod
    def factors(diag, off, mu):
        """(A, |L||D||L^T|, solvable) of T - mu I as the solve factorises it."""
        d, e, _, solvable = eigensolver._ldlt(diag, off, mu, diag.size)
        with np.errstate(over="ignore"):
            shifted = diag - mu
        a = np.diag(shifted) + np.diag(off, 1) + np.diag(off, -1)
        lower = np.abs(np.eye(diag.size) + np.diag(e, -1))
        # a multiplier past the float range (an entry over a subnormal
        # pivot) meets a zero in the product: nan, unbounded growth
        with np.errstate(invalid="ignore"):
            return a, lower @ np.diag(np.abs(d)) @ lower.T, solvable

    @settings(max_examples=300, deadline=None)
    @given(
        _solve_case(st.integers(2, 24)),
        st.integers(-200, 200),
        st.integers(0, 24),
        st.one_of(st.floats(0.0, 1.0), st.integers(-4, 4)),
    )
    # mu = 3e-323 over zero diagonal entries: subnormal pivots, a multiplier
    # -59 / -3e-323 past the float range, and a y of nan
    @example(
        ([0.0] * 8 + [1.0] + [0.0] * 5, [0.0] * 9 + [-59.0, 1.0, 0.0, 1.0], [0.0] * 13 + [1.0]),
        0,
        10,
        2.225073858507203e-309,
    )
    def test_equals_a_dense_solve(self, case, exponent, k, where):
        # mu a point of the k-th gap of the spectrum (``where`` a float in
        # [0, 1], as in TestSturmCount) or ``where`` ulps from the k-th
        # eigenvalue (an integer), in ulps of u ||T||_1 at least, the
        # accuracy to which numpy gives an eigenvalue
        diag, off = (np.ldexp(np.array(v), exponent) for v in case[:2])
        b = np.array(case[2])
        norm = gershgorin(diag, off)[1]
        assume(np.any(b) and norm > 0)
        exact = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
        u = np.finfo(float).eps / 2
        if isinstance(where, float):
            ends = np.concatenate([[exact[0] - norm], exact, [exact[-1] + norm]])
            k = min(k, diag.size)
            mu = float(ends[k] + where * (ends[k + 1] - ends[k]))
        else:
            lam = float(exact[min(k, diag.size - 1)])
            mu = lam + where * float(np.spacing(max(abs(lam), u * norm)))
        y = b.copy()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            solved = eigensolver._solve_shifted(diag, off, mu, y)
            a, grown, solvable = self.factors(diag, off, mu)
        assert solved == solvable
        if not solved:
            # a zero pivot: the right-hand side is left as it was
            assert np.array_equal(y, b)
            return
        c = 8 * diag.size * u
        a_norm = float(np.linalg.norm(a, 2))
        grown_norm = float(np.linalg.norm(grown, 2)) if np.all(np.isfinite(grown)) else math.inf
        sigma = float(np.linalg.svd(a, compute_uv=False)[-1])
        # the forward bound is below ||y|| / 2 where sigma_min(A) is well
        # above the backward error; a shift within ulps of an eigenvalue
        # leaves it above, and y may then leave the float range
        informative = c * (grown_norm + 2.0 * a_norm) < 0.5 * sigma
        if not np.all(np.isfinite(y)):
            assert not informative
            return
        # backward error, whatever the conditioning: the residual of y, and
        # the rounding of A y in evaluating it, scaled by max |y| so that
        # nothing overflows
        top = float(np.max(np.abs(y)))
        residual = float(np.linalg.norm(b / top - a @ (y / top)))
        assert residual <= c * (grown_norm + a_norm) * float(np.linalg.norm(y / top))
        if informative:
            dense = np.linalg.solve(a, b)
            y_norm, dense_norm = float(np.linalg.norm(y)), float(np.linalg.norm(dense))
            tol = c * (grown_norm * y_norm + 2.0 * a_norm * dense_norm) / sigma
            assert float(np.linalg.norm(y - dense)) <= tol

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(0, 16).flatmap(
            lambda k: st.tuples(
                st.lists(st.sampled_from([-4.0, -2.0, -1.0, -0.5, 0.5, 1.0, 2.0, 4.0]),
                         min_size=k, max_size=k),
                st.lists(st.sampled_from([-3.0, -2.0, -1.0, 1.0, 2.0, 3.0]),
                         min_size=k, max_size=k),
            )
        ),
        st.lists(st.tuples(_ENTRY, _ENTRY), max_size=8),
        st.integers(-200, 200),
        st.integers(-4, 4),
    )
    def test_zero_pivot_is_a_failure(self, head, rest, exponent, shift):
        # rows 0..k of T - mu I are L D L^T built from pivots p (powers of
        # two) and multipliers l (small integers), with pivot k exactly 0:
        # diagonal p_i + l_{i-1}^2 p_{i-1}, off-diagonal l_i p_i; ``rest``
        # adds rows below, (diagonal, off-diagonal above) each.  Every
        # operation of the factorisation down to row k is exact, scaled by
        # 2^exponent and shifted by an integer multiple of it alike
        p, l = (np.array(v) for v in head)
        assume(p.size + len(rest) >= 1)
        below = np.array(rest).reshape(-1, 2)
        shifted = np.concatenate(
            [np.concatenate([p, [0.0]]) + np.concatenate([[0.0], l * l * p]), below[:, 0]]
        )
        off = np.concatenate([l * p, below[:, 1]])
        shifted, off = np.ldexp(shifted, exponent), np.ldexp(off, exponent)
        mu = math.ldexp(float(shift), exponent)
        diag = shifted + mu
        assert np.array_equal((diag - mu)[: p.size + 1], shifted[: p.size + 1])
        b = np.ones(diag.size)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert eigensolver._solve_shifted(diag, off, mu, b) is False
        assert np.array_equal(b, np.ones(diag.size))

    def test_failed_first_solve_gives_the_guess_residual(self, monkeypatch):
        # the zero-pivot problem below: the first solve, at the energy
        # functional's exact 0, fails, and the refinement gives the guess's
        # own (mu, r), the one it gives with no solve allowed: 0 and a
        # radius just above sqrt(2), the residual of a unit vector
        grid, m, v, guess, bound = self.zero_pivot_problem()

        def solve():
            return solve_effective_mass(grid, m, v, 1, guesses=[guess], bound=bound)

        refined = TestCertifiedRefinement.refinements(monkeypatch, solve)
        assert refined == TestCertifiedRefinement.refinements(monkeypatch, solve, steps=0)
        ((mu, r),) = refined
        assert mu == 0.0 and r == pytest.approx(math.sqrt(2.0), rel=1e-12) and r > math.sqrt(2.0)

    #: the diagonal of test_zero_pivot_in_a_seeded_solve_falls_back's matrix
    ZERO_PIVOT_DIAG = (1.0, 2.0, 2.0, 2.0, 2.0, 2.0, 1.0, 2.0, 2.0, 0.0, 2.0, 2.0, 2.0, 2.0)

    @classmethod
    def zero_pivot_problem(cls):
        """(grid, mass, potential, guess, bound): see
        test_zero_pivot_in_a_seeded_solve_falls_back."""
        grid = Grid(0.0, 15.0, 16)
        v = np.concatenate([[0.0], np.array(cls.ZERO_PIVOT_DIAG) - 2.0, [0.0]])
        guess = np.zeros(16)
        guess[10] = 1.0
        # between the lowest two eigenvalues, -0.835 and -0.177
        return grid, np.full(15, 0.5), v, guess, -0.5

    def test_zero_pivot_in_a_seeded_solve_falls_back(self, monkeypatch):
        # h = 1 and m = 1/2 make off-diagonals -1 and a diagonal 2 + V: the
        # integer diagonal below, and a guess at its interior row 9, whose
        # Rayleigh quotient is exactly 0.  The pivots of T - 0 I are 1 down
        # to row 5 and exactly 0 at row 6: the one solve fails, the
        # iterate's interval 0 +- sqrt(2) reaches above the bound, and the
        # solve returns the bracketed bisection's values
        grid, m, v, guess, bound = self.zero_pivot_problem()
        diag = np.array(self.ZERO_PIVOT_DIAG)
        log = count_log(monkeypatch)
        solve_log(monkeypatch, log)
        bisected = []
        bisect = eigensolver._bisect
        monkeypatch.setattr(
            eigensolver, "_bisect", lambda *a: bisected.append(bisect(*a)) or bisected[-1]
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            energies = solve_effective_mass(grid, m, v, 1, guesses=[guess], bound=bound)
        assert np.array_equal(eigensolver.tridiagonal_matrix(grid, m, v, 1)[0], diag)
        assert log[:2] == [("count", bound, 1), ("solve", 0.0, False)]
        assert all(entry[0] == "count" for entry in log[2:])
        assert len(bisected) == 1 and energies is bisected[0]
        t = np.diag(diag) - np.eye(14, k=1) - np.eye(14, k=-1)
        assert energies[0] == pytest.approx(np.linalg.eigvalsh(t)[0], abs=1e-12)

    def test_refined_at_off_diagonals_near_5e151(self, monkeypatch):
        # h = 1e-78: off-diagonals -1/(2 h^2) = -5e151, whose squares leave
        # the float range; the Rayleigh steps' solves never form them
        grid = Grid(0.0, 1e-76, 101)
        width = grid.x_max
        # the box's sines are exact eigenvectors of this matrix and would
        # take no step: each is mixed with 1% of the next sine of its parity
        t = np.pi * grid.points / width
        guesses = [np.sin(k * t) + 0.01 * np.sin((k + 2) * t) for k in (1, 2)]
        # the box's continuum separation of levels 2 and 3
        bound = 0.5 * (np.pi / width) ** 2 * (4 + 9) / 2
        solves = solve_log(monkeypatch)
        bisections = bisect_log(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            energies = solve_effective_mass(
                grid, np.ones(100), np.zeros(101), 2, guesses=guesses, bound=bound
            )
        assert bisections == []
        assert solves and all(ok for _, _, ok in solves)
        np.testing.assert_allclose(energies, [4.934396e152, 1.973272e153], rtol=1e-6)

    def test_iterates_rescaled_near_the_float_range(self, monkeypatch):
        # h = 1e-78 again, from polynomial guesses: each solve divides the
        # iterate's norm by about ||T|| |lambda - mu|, and without a rescale
        # ||x||^2 went 3.3, 7.9e-302, 0, ending the iteration with level 2
        # 2.3e-5 from its eigenvalue, inside a loose certified radius.  The
        # box's levels are (2 / h^2) sin^2(k pi / 200) on 100 intervals
        grid = Grid(0.0, 1e-76, 101)
        t = grid.points / grid.x_max
        # between the continuum box's levels 2 and 3
        bound = 0.5 * (np.pi / grid.x_max) ** 2 * 6.5
        bisections = bisect_log(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            energies = solve_effective_mass(
                grid, np.ones(100), np.zeros(101), 2,
                guesses=[t * (1 - t), t * (1 - t) * (0.5 - t)], bound=bound,
            )
        assert bisections == []
        fd = 2.0 / (grid.h * grid.h) * np.sin(np.array([1, 2]) * np.pi / 200) ** 2
        assert energies[1] == pytest.approx(1.9732716e153, rel=1e-7)
        np.testing.assert_allclose(energies, fd, rtol=1e-9)


class TestCertifiedRefinement:
    """Guessed states are refined by Rayleigh-quotient iteration; the result
    is used only when one Sturm count at the bound certifies it, and
    otherwise the solve bisects inside a bracket below the bound."""

    LEVELS = 4
    #: the constant-mass oscillator's separation of levels LEVELS - 1 and
    #: LEVELS, (LEVELS - 1/2 + LEVELS + 1/2) / 2, which also separates
    #: ``problem``'s: 3.108 < 4 < 4.032
    BOUND = float(LEVELS)

    @staticmethod
    def problem():
        grid = Grid(-8.0, 8.0, 1001)
        mid = 0.5 * (grid.points[:-1] + grid.points[1:])
        m = 1.0 + 0.5 / (1.0 + mid * mid)
        return grid, m, 0.5 * grid.points**2

    @classmethod
    def matrix(cls, shift=0.0):
        """(diag, off) of ``problem``, its potential shifted by ``shift``."""
        grid, m, v = cls.problem()
        return eigensolver.tridiagonal_matrix(grid, m, v + shift, cls.LEVELS)

    @staticmethod
    def hermite_functions(grid, levels):
        """The constant-mass oscillator states: close to, not equal to, the
        position-dependent-mass states of ``problem``."""
        x = grid.points
        return [hermval(x, np.eye(n + 1)[n]) * np.exp(-0.5 * x * x) for n in levels]

    def assert_fell_back(self, monkeypatch, guesses):
        """The solve made one bisection of a bracket up to BOUND, at the
        bracket's tolerance ulp * ||T||_1, whose energies are within that
        tolerance of a tight one; the Sturm counts before it are returned."""
        grid, m, v = self.problem()
        log = count_log(monkeypatch)
        bisect_log(monkeypatch, log)
        energies = solve_effective_mass(
            grid, m, v, self.LEVELS, guesses=guesses, bound=self.BOUND
        )
        counts, (_, _, hi, abstol) = split_at_bisection(log)
        tol = np.finfo(float).eps * gershgorin(*self.matrix())[1]
        assert (hi, abstol) == (self.BOUND, pytest.approx(tol, rel=1e-15))
        tight = eigvalsh_tridiagonal(
            *self.matrix(), select="i", select_range=(0, self.LEVELS - 1), tol=1e-13
        )
        assert np.all(np.abs(energies - tight) <= tol)
        return counts

    def test_good_guesses_give_the_tight_bisection_values(self, monkeypatch):
        grid, m, v = self.problem()
        guesses = self.hermite_functions(grid, range(self.LEVELS))
        log = count_log(monkeypatch)
        bisect_log(monkeypatch, log)
        energies = solve_effective_mass(
            grid, m, v, self.LEVELS, guesses=guesses, bound=self.BOUND
        )
        tight = eigvalsh_tridiagonal(
            *self.matrix(), select="i", select_range=(0, self.LEVELS - 1), tol=1e-13
        )
        np.testing.assert_allclose(energies, tight, rtol=1e-12, atol=0)
        # the one count at the bound, and no bisection
        assert log == [("count", self.BOUND, self.LEVELS)]

    def test_guesses_missing_the_ground_state_fail(self, monkeypatch):
        grid, _, _ = self.problem()
        guesses = self.hermite_functions(grid, range(1, self.LEVELS + 1))
        counts = self.assert_fell_back(monkeypatch, guesses)
        # the refined states are the next levels up, the highest above the
        # bound; the bracket's lower end, 8 |bound| below it, lies under the
        # Gershgorin edge (about 0) and takes no count
        assert counts == [("count", self.BOUND, self.LEVELS)]

    def test_duplicate_guesses_fail(self, monkeypatch):
        grid, _, _ = self.problem()
        counts = self.assert_fell_back(monkeypatch, self.hermite_functions(grid, (0, 1, 1, 2)))
        # two intervals hold the same eigenvalue: only the count at the bound
        assert counts == [("count", self.BOUND, self.LEVELS)]

    @pytest.mark.parametrize("bad", [math.nan, 0.0])
    def test_unusable_guess_falls_back(self, monkeypatch, bad):
        grid, _, _ = self.problem()
        guesses = self.hermite_functions(grid, range(self.LEVELS))
        guesses[2] = np.full(grid.n_points, bad)
        counts = self.assert_fell_back(monkeypatch, guesses)
        assert counts == [("count", self.BOUND, self.LEVELS)]

    @pytest.mark.parametrize("first", [0, 1], ids=["certified", "fallback"])
    def test_guesses_left_unchanged(self, monkeypatch, first):
        grid, m, v = self.problem()
        guesses = np.array(self.hermite_functions(grid, range(first, first + self.LEVELS)))
        kept = guesses.copy()
        guesses.flags.writeable = False
        log = count_log(monkeypatch)
        bisect_log(monkeypatch, log)
        solve_effective_mass(grid, m, v, self.LEVELS, guesses=guesses, bound=self.BOUND)
        # the one count at the bound, then the fallback's bisection
        bisected = any(entry[0] == "bisect" for entry in log)
        assert bisected == bool(first)
        before = split_at_bisection(log)[0] if bisected else log
        assert before == [("count", self.BOUND, self.LEVELS)]
        assert np.array_equal(guesses, kept)

    @staticmethod
    def refinements(monkeypatch, solve, steps=None):
        """The (mu, r) of each guess's refinement in ``solve()``, with
        ``_RQI_STEPS`` set to ``steps`` unless None."""
        refined = []
        refine = eigensolver._rayleigh_refine
        with monkeypatch.context() as patch:
            if steps is not None:
                patch.setattr(eigensolver, "_RQI_STEPS", steps)

            def logged(*args):
                refined.append(refine(*args))
                return refined[-1]

            patch.setattr(eigensolver, "_rayleigh_refine", logged)
            solve()
        return refined

    def test_first_shift_is_the_energy_functional(self, monkeypatch):
        # each refinement's first solve shifts by (sum a x^2 + 2 sum e x x') /
        # x.x, two sums of n products: within (n + 3) eps (|x| |T| |x|) / x.x
        # of x.(T x) / x.x, whose own rounding is as large, for n interior
        # points
        grid, m, v = self.problem()
        guesses = self.hermite_functions(grid, range(self.LEVELS))
        log = []
        refine = eigensolver._rayleigh_refine
        monkeypatch.setattr(
            eigensolver, "_rayleigh_refine", lambda *a: log.append(("refine",)) or refine(*a)
        )
        solve_log(monkeypatch, log)
        solve_effective_mass(grid, m, v, self.LEVELS, guesses=guesses, bound=self.BOUND)
        starts = [i for i, entry in enumerate(log) if entry[0] == "refine"]
        assert len(starts) == self.LEVELS
        diag, off = self.matrix()
        eps = np.finfo(float).eps
        for g, i in zip(guesses, starts):
            kind, mu0, _ = log[i + 1]
            assert kind == "solve"
            x = g[1:-1]
            tx = diag * x
            tx[:-1] += off * x[1:]
            tx[1:] += off * x[:-1]
            s = x @ x
            ax = np.abs(x)
            tax = np.abs(diag) * ax
            tax[:-1] += np.abs(off) * ax[1:]
            tax[1:] += np.abs(off) * ax[:-1]
            tol = 2 * (x.size + 3) * eps * (ax @ tax) / s
            assert abs(mu0 - x @ tx / s) <= tol
            assert mu0 != pytest.approx(0.0)

    def test_first_iterate_not_finite_falls_back_to_the_guess(self, monkeypatch):
        # a first solve that leaves nan: the guess is copied again and its
        # own (mu, r) is the answer, as with no solve allowed
        grid, m, v = self.problem()
        guesses = self.hermite_functions(grid, range(self.LEVELS))

        def solve():
            return solve_effective_mass(
                grid, m, v, self.LEVELS, guesses=guesses, bound=self.BOUND
            )

        own = self.refinements(monkeypatch, solve, steps=0)
        shifted = eigensolver._solve_shifted

        def poisoned(diag, off, mu, x):
            ok = shifted(diag, off, mu, x)
            x[3] = math.nan
            return ok

        monkeypatch.setattr(eigensolver, "_solve_shifted", poisoned)
        assert self.refinements(monkeypatch, solve) == own
        assert all(math.isfinite(r) for _, r in own)

    def test_concurrent_solves_share_no_workspace(self):
        # each thread refines in its own buffers: with a short switch
        # interval, a shared workspace would mix the threads' iterates
        problems = []
        for n_points in (801, 1001, 1201):
            grid = Grid(-8.0, 8.0, n_points)
            mid = 0.5 * (grid.points[:-1] + grid.points[1:])
            problems.append(
                (grid, 1.0 + 0.5 / (1.0 + mid * mid), 0.5 * grid.points**2,
                 self.hermite_functions(grid, range(self.LEVELS)))
            )
        want = [
            solve_effective_mass(g, m, v, self.LEVELS, guesses=s, bound=self.BOUND)
            for g, m, v, s in problems
        ]
        failures = []

        def worker(k):
            for _ in range(20):
                g, m, v, s = problems[k % len(problems)]
                got = solve_effective_mass(g, m, v, self.LEVELS, guesses=s, bound=self.BOUND)
                if not np.array_equal(got, want[k % len(problems)]):
                    failures.append(k)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert failures == []

    def test_solves_at_alternating_sizes_repeat_bit_for_bit(self, monkeypatch):
        # a thread's block is replaced when the size changes: with every
        # entry written before it is read, sizes A, B, A, B (seeded noisy
        # guesses, certified without bisection) repeat their energies
        rng = np.random.default_rng(17)
        problems = []
        for n_points in (801, 1201):
            grid = Grid(-8.0, 8.0, n_points)
            mid = 0.5 * (grid.points[:-1] + grid.points[1:])
            guesses = [
                s + 1e-3 * rng.standard_normal(n_points)
                for s in self.hermite_functions(grid, range(self.LEVELS))
            ]
            problems.append((grid, 1.0 + 0.5 / (1.0 + mid * mid), 0.5 * grid.points**2, guesses))

        bisections = bisect_log(monkeypatch)
        got = [
            solve_effective_mass(g, m, v, self.LEVELS, guesses=s, bound=self.BOUND)
            for g, m, v, s in problems + problems
        ]
        assert bisections == []
        assert np.array_equal(got[0], got[2])
        assert np.array_equal(got[1], got[3])

    def test_guess_shape_checked(self):
        grid, m, v = self.problem()
        with pytest.raises(GridMismatchError):
            solve_effective_mass(
                grid, m, v, 2, guesses=self.hermite_functions(grid, range(3)), bound=2.0
            )

    @pytest.mark.parametrize("given", ["guesses", "bound"])
    def test_guesses_and_bound_come_together(self, given):
        grid, m, v = self.problem()
        seed = {"guesses": self.hermite_functions(grid, range(self.LEVELS)), "bound": self.BOUND}
        with pytest.raises(ArgumentError, match="together"):
            solve_effective_mass(grid, m, v, self.LEVELS, **{given: seed[given]})

    @pytest.mark.parametrize("bound", [math.nan, math.inf, -math.inf, 1e308])
    def test_bound_must_be_finite(self, bound):
        # a bound that is not finite is the caller's error, not a LAPACK
        # failure; one of 1e308 is counted up to, and falls back to the
        # bisection inside the bracket (gl, 1e308]
        grid = Grid(-5.0, 5.0, 1001)
        x = grid.points
        m, v = np.ones(1000), 0.5 * x * x
        seed = {"guesses": [np.exp(-0.5 * x * x)], "bound": bound}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if not math.isfinite(bound):
                with pytest.raises(ArgumentError, match="bound"):
                    solve_effective_mass(grid, m, v, 1, **seed)
                return
            (energy,) = solve_effective_mass(grid, m, v, 1, **seed)
        diag, off = eigensolver.tridiagonal_matrix(grid, m, v, 1)
        (tight,) = eigvalsh_tridiagonal(diag, off, select="i", select_range=(0, 0), tol=1e-13)
        assert energy == pytest.approx(0.49999688, abs=1e-8)
        assert abs(energy - tight) <= np.finfo(float).eps * gershgorin(diag, off)[1]


class TestSeparationBound:
    """The first step is one Sturm count up to ``bound``, a value between the
    wanted eigenvalues and the next.  A count other than the number of
    levels goes to one bisection, without refining, inside a bracket that
    further counts certify, or at a bound of 0 over the Gershgorin interval
    as an unseeded solve does;
    refined intervals at or below it are certified by that same count, and
    an interval reaching above it goes to the bracket below it."""

    LEVELS = TestCertifiedRefinement.LEVELS

    @pytest.fixture
    def case(self, monkeypatch):
        """(solve, the lowest LEVELS + 3 eigenvalues, the solver's log):
        ``solve(bound, shift=0.0)`` solves the seeded problem, its potential
        shifted by ``shift``, with read-only guesses, checks that they are
        unchanged and gives the result.  A Sturm count is logged as
        ("count", its upper end, the count) by ``conftest.count_log``, a
        Rayleigh step's solve as ("solve", its shift) by
        ``conftest.solve_log`` and a bisection as ("bisect", lower end,
        upper end, tolerance) by ``conftest.bisect_log``, followed by its
        own counts.  Every bisection must have its lower end below its
        upper end."""
        grid, m, v = TestCertifiedRefinement.problem()
        exact = eigvalsh_tridiagonal(
            *TestCertifiedRefinement.matrix(),
            select="i",
            select_range=(0, self.LEVELS + 2),
            tol=1e-13,
        )
        guesses = np.array(TestCertifiedRefinement.hermite_functions(grid, range(self.LEVELS)))
        kept = guesses.copy()
        guesses.flags.writeable = False
        log = []
        bisect_log(monkeypatch, log)
        count_log(monkeypatch, log)
        solve_log(monkeypatch, log)

        def solve(bound, shift=0.0):
            log.clear()
            energies = solve_effective_mass(
                grid, m, v + shift, self.LEVELS, guesses=guesses, bound=bound
            )
            assert np.array_equal(guesses, kept)
            assert all(lo < hi for kind, lo, hi, *_ in log if kind == "bisect"), "empty interval"
            return energies

        return solve, exact, log

    def assert_bracketed(self, energies, exact, log, bound, count):
        """The solve counted at ``bound`` first, refined nothing, and found
        the lowest eigenvalues to bisection's tolerance by one bisection, at
        the bracket's tolerance ulp * ||T||_1, over a bracket whose ends the
        counts certify; its lower end is returned."""
        assert log[0] == ("count", bound, count)
        assert all(entry[0] != "solve" for entry in log)
        counts, (_, lo, hi, abstol) = split_at_bisection(log)
        assert all(entry[0] == "count" for entry in counts)
        at = {x: n for _, x, n in counts}
        gl, norm = gershgorin(*TestCertifiedRefinement.matrix())
        tol = np.finfo(float).eps * norm
        assert abstol == pytest.approx(tol, rel=1e-15)
        assert lo <= gl or at[lo] == 0
        assert at.get(hi, 0) >= self.LEVELS or hi > exact[self.LEVELS - 1]
        assert np.all(np.abs(energies - exact[: self.LEVELS]) <= tol)
        return lo

    @pytest.mark.parametrize(
        "below", [0, 3, 5, 6], ids=["none", "one-too-few", "one-too-many", "two-too-many"]
    )
    def test_count_off_bisects_inside_a_bracket(self, case, below):
        solve, exact, log = case
        # ``below`` eigenvalues up to the bound: half the lowest one, or
        # halfway between the eigenvalues below - 1 and below
        bound = 0.5 * exact[0] if below == 0 else 0.5 * (exact[below - 1] + exact[below])
        # a count stops one past the number of levels: 6 up to the bound is
        # seen as 5, more than the 4 levels
        seen = min(below, self.LEVELS + 1)
        lo = self.assert_bracketed(solve(bound), exact, log, bound, seen)
        if below == 0:
            # no eigenvalue up to the bound: the lower end starts there and
            # only rises, with the upper end's counts of 0
            assert lo >= bound
        else:
            # this matrix's lowest Gershgorin edge is about 0, within 8 |bound|
            # below the bound: the lower end stops there, without a count
            assert lo <= gershgorin(*TestCertifiedRefinement.matrix())[0]
            assert all(n > 0 for _, _, n in split_at_bisection(log)[0][1:])

    @pytest.mark.parametrize("shift, below", [(0.0, 0), (-1.0, 1)], ids=["above", "straddling"])
    def test_zero_bound_bisects_over_the_gershgorin_interval(self, case, shift, below):
        # a bound of 0 gives the bracket's walks no scale to step by: after
        # the count at 0, the solve bisects over the Gershgorin interval to
        # the tightest tolerance, whether the eigenvalues all lie above 0 or
        # straddle it: the unseeded solve's bisection, bit for bit
        solve, _, log = case
        energies = solve(0.0, shift)
        counts, (_, lo, hi, abstol) = split_at_bisection(log)
        assert counts == [("count", 0.0, below)]
        gl, norm = gershgorin(*TestCertifiedRefinement.matrix(shift))
        assert lo <= gl and hi >= norm and abstol == 2 * sys.float_info.min
        grid, m, v = TestCertifiedRefinement.problem()
        assert np.array_equal(energies, solve_effective_mass(grid, m, v + shift, self.LEVELS))
        assert_unseeded(energies, *TestCertifiedRefinement.matrix(shift))

    def test_bound_below_the_gershgorin_edge(self, case):
        solve, exact, log = case
        gl, norm = gershgorin(*TestCertifiedRefinement.matrix())
        bound = gl - 1.0
        energies = solve(bound)
        # no eigenvalue up to the bound, known without a count: the upper
        # end alone is counted, and the bisection starts at the bound
        assert all(entry[0] != "solve" for entry in log)
        counts, (_, lo, _, abstol) = split_at_bisection(log)
        tol = np.finfo(float).eps * norm
        assert (lo, abstol) == (bound, pytest.approx(tol, rel=1e-15))
        assert all(entry[0] == "count" and entry[1] > bound for entry in counts)
        assert counts[-1][2] >= self.LEVELS
        assert np.all(np.abs(energies - exact[: self.LEVELS]) <= tol)

    def test_certified_by_the_count_at_the_bound(self, case):
        solve, exact, log = case
        # the refinement does not depend on the bound
        other = solve(TestCertifiedRefinement.BOUND)
        bound = 0.5 * (exact[self.LEVELS - 1] + exact[self.LEVELS])
        energies = solve(bound)
        assert [entry for entry in log if entry[0] != "solve"] == [("count", bound, self.LEVELS)]
        assert log[0][0] == "count" and len(log) > 1
        assert np.array_equal(energies, other)
        np.testing.assert_allclose(energies, exact[: self.LEVELS], rtol=1e-12, atol=0)

    def test_interval_above_the_bound_bisects_below_it(self, case, monkeypatch):
        solve, exact, log = case
        # shifted down by 3.3, the bound lies near -0.19 and the Gershgorin
        # edge near -3.3: the walk down counts 2 eigenvalues up to 8 |bound|
        # below the bound and none up to 16 |bound| below it
        shift = -3.3
        exact = exact + shift
        refined = []
        refine = eigensolver._rayleigh_refine
        monkeypatch.setattr(
            eigensolver, "_rayleigh_refine", lambda *a: refined.append(refine(*a)) or refined[-1]
        )
        solve(0.5 * (exact[self.LEVELS - 1] + exact[self.LEVELS]), shift)
        mu, r = max(refined)
        # above the top eigenvalue, below the top interval's upper end
        bound = 0.5 * (exact[self.LEVELS - 1] + mu + r)
        assert exact[self.LEVELS - 1] < bound < mu + r
        energies = solve(bound, shift)
        # the one count at the bound, the refinement, the counts walking down
        # to none, and one bisection up to the bound itself
        before, (_, lo, hi, abstol) = split_at_bisection(log)
        solves = sum(entry[0] == "solve" for entry in before)
        assert solves > 0 and all(entry[0] == "solve" for entry in before[1 : 1 + solves])
        (_, at, n), *walk = [before[0], *before[1 + solves :]]
        assert (at, n) == (bound, self.LEVELS)
        assert [(kind, n) for kind, _, n in walk] == [("count", 2), ("count", 0)]
        tol = np.finfo(float).eps * gershgorin(*TestCertifiedRefinement.matrix(shift))[1]
        assert (lo, hi, abstol) == (walk[-1][1], bound, pytest.approx(tol, rel=1e-15))
        assert np.all(np.abs(energies - exact[: self.LEVELS]) <= tol)
