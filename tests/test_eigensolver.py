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
from hypothesis import given, settings, strategies as st
from numpy.polynomial.hermite import hermval
from scipy.linalg import eigh_tridiagonal, eigvalsh_tridiagonal
from test_cli import README_RUNS

import pctsolve
from pctsolve import eigensolver
from pctsolve.eigensolver import (
    Grid,
    overlap,
    residual_norm,
    solve_constant_mass,
    solve_effective_mass,
    tridiagonal_matrix,
)
from pctsolve.errors import ArgumentError, ConfigError, GridMismatchError, RangeOverflowError


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
        textbook = eigvalsh_tridiagonal(diag, off, select="i", select_range=(0, 1))
        assert np.array_equal(solve_constant_mass(grid, v, 2), textbook)


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
                for name in ("dgtsv", "dstebz")
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


class TestBisection:
    """A solve without guesses gives scipy's eigvalsh_tridiagonal values."""

    def test_energies_are_eigvalsh_tridiagonal_values(self):
        grid = Grid(-8.0, 8.0, 3001)
        mid = 0.5 * (grid.points[:-1] + grid.points[1:])
        m = 1.0 + 0.5 / (1.0 + mid * mid)
        v = 0.5 * grid.points**2
        a = 1.0 / m
        h = grid.h
        diag = (a[:-1] + a[1:]) / (2.0 * h * h) + v[1:-1]
        off = -a[1:-1] / (2.0 * h * h)
        energies = solve_effective_mass(grid, m, v, 4)
        vals = eigvalsh_tridiagonal(diag, off, select="i", select_range=(0, 3))
        assert np.array_equal(energies, vals)

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
        vals = eigvalsh_tridiagonal(diag, off, select="i", select_range=(0, 3))
        assert np.array_equal(energies, vals)
        np.testing.assert_allclose(energies, [0.2, 0.5, 1.2, 1.5], atol=1e-3)


def gershgorin(diag, off):
    """(the lowest Gershgorin disc edge, ||T||_1) of a tridiagonal matrix."""
    rows = np.zeros(diag.size)
    rows[:-1] += np.abs(off)
    rows[1:] += np.abs(off)
    return float(np.min(diag - rows)), float(np.max(np.abs(diag) + rows))


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

    @staticmethod
    def count_sturm_calls(monkeypatch):
        """The eigenvalue counts of the Sturm counts: stebz calls with an
        absolute tolerance (args[7]) wider than their interval, not a
        bisection's, which passes 0 for stebz's default."""
        counts = []

        def counted(*args, _fn=eigensolver.dstebz):
            out = _fn(*args)
            if args[7] > 0:
                counts.append(out[0])
            return out

        monkeypatch.setattr(eigensolver, "dstebz", counted)
        return counts

    def assert_fell_back(self, monkeypatch, guesses):
        """The solve made one value-range bisection up to BOUND, whose
        energies are within its tolerance ulp * ||T||_1 of a tight one."""
        grid, m, v = self.problem()
        ranges = []

        def bisections(*args, _fn=eigensolver.dstebz):
            if args[7] == 0:
                ranges.append((args[2], args[4]))
            return _fn(*args)

        monkeypatch.setattr(eigensolver, "dstebz", bisections)
        energies = solve_effective_mass(
            grid, m, v, self.LEVELS, guesses=guesses, bound=self.BOUND
        )
        assert ranges == [(1, self.BOUND)]
        tight = eigvalsh_tridiagonal(
            *self.matrix(), select="i", select_range=(0, self.LEVELS - 1), tol=1e-13
        )
        tol = np.finfo(float).eps * gershgorin(*self.matrix())[1]
        assert np.all(np.abs(energies - tight) <= tol)

    def test_good_guesses_give_the_tight_bisection_values(self, monkeypatch):
        grid, m, v = self.problem()
        guesses = self.hermite_functions(grid, range(self.LEVELS))
        counts = self.count_sturm_calls(monkeypatch)

        def refuse(*args, _fn=eigensolver.dstebz):
            if args[7] == 0:
                raise AssertionError("fell back to bisection")
            return _fn(*args)

        monkeypatch.setattr(eigensolver, "dstebz", refuse)
        energies = solve_effective_mass(
            grid, m, v, self.LEVELS, guesses=guesses, bound=self.BOUND
        )
        tight = eigvalsh_tridiagonal(
            *self.matrix(), select="i", select_range=(0, self.LEVELS - 1), tol=1e-13
        )
        np.testing.assert_allclose(energies, tight, rtol=1e-12, atol=0)
        assert counts == [self.LEVELS]

    def test_guesses_missing_the_ground_state_fail(self, monkeypatch):
        grid, _, _ = self.problem()
        counts = self.count_sturm_calls(monkeypatch)
        guesses = self.hermite_functions(grid, range(1, self.LEVELS + 1))
        self.assert_fell_back(monkeypatch, guesses)
        # the refined states are the next levels up, the highest above the
        # bound; the bracket's lower end, 8 |bound| below it, lies under the
        # Gershgorin edge (about 0) and takes no count
        assert counts == [self.LEVELS]

    def test_duplicate_guesses_fail(self, monkeypatch):
        grid, _, _ = self.problem()
        counts = self.count_sturm_calls(monkeypatch)
        self.assert_fell_back(monkeypatch, self.hermite_functions(grid, (0, 1, 1, 2)))
        # two intervals hold the same eigenvalue: only the count at the bound
        assert counts == [self.LEVELS]

    @pytest.mark.parametrize("bad", [math.nan, 0.0])
    def test_unusable_guess_falls_back(self, monkeypatch, bad):
        grid, _, _ = self.problem()
        guesses = self.hermite_functions(grid, range(self.LEVELS))
        guesses[2] = np.full(grid.n_points, bad)
        counts = self.count_sturm_calls(monkeypatch)
        self.assert_fell_back(monkeypatch, guesses)
        assert counts == [self.LEVELS]

    @pytest.mark.parametrize("first", [0, 1], ids=["certified", "fallback"])
    def test_guesses_left_unchanged(self, monkeypatch, first):
        grid, m, v = self.problem()
        guesses = np.array(self.hermite_functions(grid, range(first, first + self.LEVELS)))
        kept = guesses.copy()
        guesses.flags.writeable = False
        counts = self.count_sturm_calls(monkeypatch)
        solve_effective_mass(grid, m, v, self.LEVELS, guesses=guesses, bound=self.BOUND)
        assert counts == [self.LEVELS]
        assert np.array_equal(guesses, kept)

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

        def refuse(*args, _fn=eigensolver.dstebz):
            if args[7] == 0:
                raise AssertionError("fell back to bisection")
            return _fn(*args)

        monkeypatch.setattr(eigensolver, "dstebz", refuse)
        got = [
            solve_effective_mass(g, m, v, self.LEVELS, guesses=s, bound=self.BOUND)
            for g, m, v, s in problems + problems
        ]
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
        # failure; one of 1e308 is counted up to without overflowing the
        # count's tolerance, twice the counted width, and falls back to the
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
    further counts certify, or at a bound of 0 over the Gershgorin interval;
    refined intervals at or below it are certified by that same count, and
    an interval reaching above it goes to the bracket below it."""

    LEVELS = TestCertifiedRefinement.LEVELS

    @pytest.fixture
    def case(self, monkeypatch):
        """(solve, the lowest LEVELS + 3 eigenvalues, the LAPACK call log):
        ``solve(bound, shift=0.0)`` solves the seeded problem, its potential
        shifted by ``shift``, with read-only guesses, checks that they are
        unchanged and gives the result.  A stebz call is a count, logged as
        ("count", its upper end, the count), when its absolute tolerance
        (args[7]) is the largest float, and otherwise a bisection, logged as
        ("bisect", its range kind, lower end, upper end).  Every
        value-range call must have its lower end below its upper end."""
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

        def dgtsv(*args, _fn=eigensolver.dgtsv, **kwargs):
            log.append(("dgtsv",))
            return _fn(*args, **kwargs)

        def dstebz(*args, _fn=eigensolver.dstebz):
            assert args[2] != 1 or args[3] < args[4], "empty value range"
            out = _fn(*args)
            if args[7] == sys.float_info.max:
                log.append(("count", args[4], out[0]))
            else:
                log.append(("bisect", args[2], args[3], args[4]))
            return out

        monkeypatch.setattr(eigensolver, "dgtsv", dgtsv)
        monkeypatch.setattr(eigensolver, "dstebz", dstebz)

        def solve(bound, shift=0.0):
            log.clear()
            energies = solve_effective_mass(
                grid, m, v + shift, self.LEVELS, guesses=guesses, bound=bound
            )
            assert np.array_equal(guesses, kept)
            return energies

        return solve, exact, log

    def assert_bracketed(self, energies, exact, log, bound, count):
        """The solve counted at ``bound`` first, refined nothing, and found
        the lowest eigenvalues to bisection's tolerance by one value-range
        bisection over a bracket whose ends the counts certify; its lower
        end is returned."""
        assert log[0] == ("count", bound, count)
        assert ("dgtsv",) not in log
        *counts, (kind, *ends) = log
        assert kind == "bisect" and ends[0] == 1
        assert all(entry[0] == "count" for entry in counts)
        lo, hi = ends[1:]
        at = {x: n for _, x, n in counts}
        gl, norm = gershgorin(*TestCertifiedRefinement.matrix())
        assert lo <= gl or at[lo] == 0
        assert at.get(hi, 0) >= self.LEVELS or hi > exact[self.LEVELS - 1]
        tol = np.finfo(float).eps * norm
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
        lo = self.assert_bracketed(solve(bound), exact, log, bound, below)
        if below == 0:
            # no eigenvalue up to the bound: the lower end starts there and
            # only rises, with the upper end's counts of 0
            assert lo >= bound
        else:
            # this matrix's lowest Gershgorin edge is about 0, within 8 |bound|
            # below the bound: the lower end stops there, without a count
            assert lo <= gershgorin(*TestCertifiedRefinement.matrix())[0]
            assert all(n > 0 for _, _, n in log[1:-1])

    @pytest.mark.parametrize("shift, below", [(0.0, 0), (-1.0, 1)], ids=["above", "straddling"])
    def test_zero_bound_bisects_over_the_gershgorin_interval(self, case, shift, below):
        # a bound of 0 gives the bracket's walks no scale to step by: after
        # the count at 0, the solve bisects by index over the Gershgorin
        # interval to the tightest tolerance, whether the eigenvalues all lie
        # above 0 or straddle it
        solve, _, log = case
        energies = solve(0.0, shift)
        assert log == [("count", 0.0, below), ("bisect", 2, 0.0, 1.0)]
        vals = eigvalsh_tridiagonal(
            *TestCertifiedRefinement.matrix(shift),
            select="i",
            select_range=(0, self.LEVELS - 1),
            tol=2 * sys.float_info.min,
        )
        assert np.array_equal(energies, vals)

    def test_bound_below_the_gershgorin_edge(self, case):
        solve, exact, log = case
        gl, norm = gershgorin(*TestCertifiedRefinement.matrix())
        bound = gl - 1.0
        energies = solve(bound)
        # no eigenvalue up to the bound, known without a count: the upper
        # end alone is counted, and the bisection starts at the bound
        assert ("dgtsv",) not in log
        *counts, (kind, *ends) = log
        assert kind == "bisect" and ends[:2] == [1, bound]
        assert all(entry[0] == "count" and entry[1] > bound for entry in counts)
        assert counts[-1][2] >= self.LEVELS
        tol = np.finfo(float).eps * norm
        assert np.all(np.abs(energies - exact[: self.LEVELS]) <= tol)

    def test_certified_by_the_count_at_the_bound(self, case):
        solve, exact, log = case
        # the refinement does not depend on the bound
        other = solve(TestCertifiedRefinement.BOUND)
        bound = 0.5 * (exact[self.LEVELS - 1] + exact[self.LEVELS])
        energies = solve(bound)
        stebz = [entry for entry in log if entry[0] != "dgtsv"]
        assert stebz == [("count", bound, self.LEVELS)]
        assert len(log) > 1
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
        solves = log.count(("dgtsv",))
        assert solves > 0 and log[1 : 1 + solves] == [("dgtsv",)] * solves
        (_, at, n), *walk, (kind, *ends) = [log[0], *log[1 + solves :]]
        assert (at, n) == (bound, self.LEVELS)
        assert [(kind, n) for kind, _, n in walk] == [("count", 2), ("count", 0)]
        assert kind == "bisect" and ends == [1, walk[-1][1], bound]
        tol = np.finfo(float).eps * gershgorin(*TestCertifiedRefinement.matrix(shift))[1]
        assert np.all(np.abs(energies - exact[: self.LEVELS]) <= tol)
