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
from pctsolve import cli, eigensolver
from pctsolve.eigensolver import (
    Grid,
    node_count,
    overlap,
    residual_norm,
    solve_constant_mass,
    solve_effective_mass,
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


class TestConstantMass:
    def test_harmonic_oscillator(self):
        # -(1/2) psi'' + (1/2) x^2 psi = E psi  ->  E_n = n + 1/2
        grid = Grid(-10.0, 10.0, 16001)
        res = solve_constant_mass(grid, 0.5 * grid.points**2, 4)
        assert np.allclose(res.energies, [0.5, 1.5, 2.5, 3.5], rtol=1e-6)

    def test_particle_in_a_box(self):
        # V = 0 with Dirichlet walls: E_n = (n+1)^2 pi^2 / (2 L^2)
        grid = Grid(0.0, 1.0, 2001)
        res = solve_constant_mass(grid, np.zeros(grid.n_points), 3)
        exact = np.array([1, 4, 9]) * math.pi**2 / 2.0
        assert np.allclose(res.energies, exact, rtol=1e-5)

    def test_states_orthonormal_and_noded(self):
        grid = Grid(-8.0, 8.0, 2001)
        res = solve_constant_mass(grid, 0.5 * grid.points**2, 3)
        for i in range(3):
            assert node_count(res.state(i)) == i
            for j in range(3):
                assert overlap(grid, res.state(i), res.state(j)) == pytest.approx(
                    1.0 if i == j else 0.0, abs=1e-8
                )

    def test_sign_convention_deterministic(self):
        grid = Grid(-8.0, 8.0, 1001)
        a = solve_constant_mass(grid, 0.5 * grid.points**2, 2)
        b = solve_constant_mass(grid, 0.5 * grid.points**2, 2)
        assert np.array_equal(a.states, b.states)

    @settings(max_examples=20, deadline=None)
    @given(st.floats(-5, 5))
    def test_potential_shift_shifts_energies(self, c):
        grid = Grid(-6.0, 6.0, 501)
        v = 0.5 * grid.points**2
        base = solve_constant_mass(grid, v, 2).energies
        shifted = solve_constant_mass(grid, v + c, 2).energies
        assert np.allclose(shifted, base + c, rtol=1e-9, atol=1e-9)


class TestEffectiveMass:
    def test_reduces_to_constant_mass(self):
        grid = Grid(-8.0, 8.0, 2001)
        v = 0.5 * grid.points**2
        mid = np.ones(grid.n_points - 1)
        a = solve_effective_mass(grid, mid, v, 3)
        b = solve_constant_mass(grid, v, 3)
        assert np.allclose(a.energies, b.energies, rtol=1e-10)

    def test_heavy_box_scaling(self):
        # constant mass M: box levels scale as 1/M
        grid = Grid(0.0, 1.0, 2001)
        v = np.zeros(grid.n_points)
        res = solve_effective_mass(grid, np.full(grid.n_points - 1, 4.0), v, 2)
        exact = np.array([1, 4]) * math.pi**2 / 8.0
        assert np.allclose(res.energies, exact, rtol=1e-5)

    def test_validation(self):
        grid = Grid(0.0, 1.0, 64)
        v = np.zeros(64)
        with pytest.raises(GridMismatchError):
            solve_effective_mass(grid, np.ones(64), v, 1)
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
        guesses = [np.exp(-0.5 * grid.points**2)] if seeded else None
        with pytest.raises(RangeOverflowError):
            solve_effective_mass(grid, np.ones(1000), v, 1, guesses=guesses)
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
        np.testing.assert_allclose(solve_constant_mass(grid, v, 2).energies, [0.5, 1.5], rtol=1e-4)

    def test_huge_finite_entries_refined_without_warning(self):
        # the |T| row sums reach 1e200, whose squares leave the float range
        # unless scaled first; the refinement cannot certify (T v overflows
        # in its norm) and the solve falls back to bisection, warning-free
        grid = Grid(-5.0, 5.0, 1001)
        x = grid.points
        v = 0.5 * x * x
        v[[100, 900]] = 1e200
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = solve_effective_mass(grid, np.ones(1000), v, 1, guesses=[np.exp(-0.5 * x * x)])
            plain = solve_effective_mass(grid, np.ones(1000), v, 1)
        assert np.array_equal(res.energies, plain.energies)

    def test_rounding_floor_is_the_unscaled_one(self, monkeypatch):
        # one Rayleigh step from an eigenvector, where the rounding floor
        # 4 eps ||(|T| v)|| / ||v|| is most of the radius: the scaled squares
        # must give the floor of the unscaled row sums
        grid = Grid(-8.0, 8.0, 1001)
        mid = 0.5 * (grid.points[:-1] + grid.points[1:])
        m = 1.0 + 0.5 / (1.0 + mid * mid)
        v = 0.5 * grid.points**2
        plain = solve_effective_mass(grid, m, v, 1)
        d, e = plain.diag, plain.off
        _, vec = eigh_tridiagonal(d, e, select="i", select_range=(0, 0))
        u = vec[:, 0]
        radii = []
        refine = eigensolver._rayleigh_refine
        monkeypatch.setattr(eigensolver, "_RQI_STEPS", 0)
        monkeypatch.setattr(
            eigensolver, "_rayleigh_refine", lambda *a: radii.append(refine(*a)[1]) or (0.0, 1.0)
        )
        solve_effective_mass(grid, m, v, 1, guesses=[np.concatenate([[0.0], u, [0.0]])])
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
        assert solve_constant_mass(grid, np.zeros(16), 14).energies.size == 14
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
            assert solve_constant_mass(grid, 0.5 * grid.points**2, 2).states.shape == (501, 2)
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
                for name in ("dgtsv", "dstebz", "dstein")
            ]))
            """
        )
        assert same == [True, True, True, True]


class TestResidual:
    def test_exact_eigenstate_small_residual(self):
        # ground state of the harmonic oscillator in closed form
        grid = Grid(-8.0, 8.0, 16001)
        x = grid.points
        psi = np.exp(-0.5 * x * x)
        v = 0.5 * x * x
        ones = np.ones_like(x)
        r = residual_norm(grid, psi, 0.5, ones, v, mass_d1=0.0 * ones)
        assert r < 1e-9

    def test_wrong_energy_large_residual(self):
        grid = Grid(-8.0, 8.0, 16001)
        x = grid.points
        psi = np.exp(-0.5 * x * x)
        ones = np.ones_like(x)
        r = residual_norm(grid, psi, 1.7, ones, 0.5 * x * x, mass_d1=0.0 * ones)
        assert r > 1e-2

    def test_numerical_mass_derivative_agrees(self):
        grid = Grid(0.5, 4.0, 8001)
        x = grid.points
        m = 1.0 + 0.3 * np.sin(x)
        m1 = 0.3 * np.cos(x)
        psi = np.exp(-((x - 2.0) ** 2))
        v = x.copy()
        a = residual_norm(grid, psi, -1.0, m, v, mass_d1=m1)
        b = residual_norm(grid, psi, -1.0, m, v)
        assert a == pytest.approx(b, rel=1e-6)


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


class TestLazyStates:
    """Energies come from bisection alone; eigenvectors only on demand."""

    @staticmethod
    def problem():
        grid = Grid(-8.0, 8.0, 3001)
        mid = 0.5 * (grid.points[:-1] + grid.points[1:])
        m = 1.0 + 0.5 / (1.0 + mid * mid)
        v = 0.5 * grid.points**2
        a = 1.0 / m
        h = grid.h
        diag = (a[:-1] + a[1:]) / (2.0 * h * h) + v[1:-1]
        off = -a[1:-1] / (2.0 * h * h)
        return grid, m, v, diag, off

    def test_energies_are_the_eigenpair_solver_values(self):
        grid, m, v, diag, off = self.problem()
        res = solve_effective_mass(grid, m, v, 4)
        vals, _ = eigh_tridiagonal(diag, off, select="i", select_range=(0, 3))
        assert np.array_equal(res.energies, vals)

    def test_states_match_eager_eigenvectors(self):
        grid, m, v, diag, off = self.problem()
        res = solve_effective_mass(grid, m, v, 4)
        _, vecs = eigh_tridiagonal(diag, off, select="i", select_range=(0, 3))
        expected = np.zeros((grid.n_points, 4))
        for k in range(4):
            psi = np.concatenate([[0.0], vecs[:, k], [0.0]])
            psi /= math.sqrt(np.trapezoid(psi * psi, dx=grid.h))
            idx = np.argmax(np.abs(psi) > 1e-8 * np.max(np.abs(psi)))
            if psi[idx] < 0:
                psi = -psi
            expected[:, k] = psi
        assert np.array_equal(res.states, expected)
        assert res.states is res.states
        assert np.array_equal(res.state(2), expected[:, 2])

    def test_split_matrix_states_in_ascending_order(self):
        # an infinite midpoint mass decouples the two halves, and the right
        # half's well is deeper: bisection finds its levels in a later block
        grid = Grid(-8.0, 8.0, 801)
        x = grid.points
        m = np.ones(grid.n_points - 1)
        m[399] = np.inf
        v = 0.5 * (x + 4.0) ** 2 * (x < 0) + (0.5 * (x - 4.0) ** 2 - 0.3) * (x >= 0)
        res = solve_effective_mass(grid, m, v, 4)
        _, vecs = eigh_tridiagonal(res.diag, res.off, select="i", select_range=(0, 3))
        assert res.off[398] == 0.0
        for k in range(4):
            psi = np.concatenate([[0.0], vecs[:, k], [0.0]])
            assert np.array_equal(np.abs(res.state(k)) > 0, np.abs(psi) > 0)
            assert node_count(res.state(k)) == k // 2

    def test_verify_never_computes_eigenvectors(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("eigenvectors computed")

        monkeypatch.setattr(eigensolver, "dstein", refuse)
        run = {
            "name": "coth-pt",
            "mass": {"kind": "coth_sq", "alpha": 1.0, "q": 2.0},
            "reference": {"kind": "poschl_teller", "U0": 6.0, "alpha": 1.0},
            "grid": {"n_points": 2001, "levels": 3},
        }
        config = cli.load_config(json.dumps({"schema_version": 1, "runs": [run]}))
        text, code = cli.cmd_verify(config)
        assert code == 0 and json.loads(text)["pass"] is True
        with pytest.raises(AssertionError, match="eigenvectors computed"):
            solve_constant_mass(Grid(0.0, 1.0, 64), np.zeros(64), 1).states


class TestCertifiedRefinement:
    """Guessed states are refined by Rayleigh-quotient iteration; the result
    is used only when certified, and otherwise the solve is the bisection
    path unchanged."""

    LEVELS = 4

    @staticmethod
    def problem():
        grid = Grid(-8.0, 8.0, 1001)
        mid = 0.5 * (grid.points[:-1] + grid.points[1:])
        m = 1.0 + 0.5 / (1.0 + mid * mid)
        return grid, m, 0.5 * grid.points**2

    @staticmethod
    def hermite_functions(grid, levels):
        """The constant-mass oscillator states: close to, not equal to, the
        position-dependent-mass states of ``problem``."""
        x = grid.points
        return [hermval(x, np.eye(n + 1)[n]) * np.exp(-0.5 * x * x) for n in levels]

    @staticmethod
    def count_sturm_calls(monkeypatch):
        """The eigenvalue counts of the Sturm counts: stebz calls by value
        range (range 1), not the bisection fallback's by index (range 2)."""
        counts = []

        def counted(*args, _fn=eigensolver.dstebz):
            out = _fn(*args)
            if args[2] == 1:
                counts.append(out[0])
            return out

        monkeypatch.setattr(eigensolver, "dstebz", counted)
        return counts

    def assert_fell_back(self, guesses):
        grid, m, v = self.problem()
        res = solve_effective_mass(grid, m, v, self.LEVELS, guesses=guesses)
        plain = solve_effective_mass(grid, m, v, self.LEVELS)
        assert np.array_equal(res.energies, plain.energies)

    def test_good_guesses_give_the_tight_bisection_values(self, monkeypatch):
        grid, m, v = self.problem()
        guesses = self.hermite_functions(grid, range(self.LEVELS))
        counts = self.count_sturm_calls(monkeypatch)

        def refuse(*args, _fn=eigensolver.dstebz):
            if args[2] == 2:
                raise AssertionError("fell back to bisection")
            return _fn(*args)

        monkeypatch.setattr(eigensolver, "dstebz", refuse)
        res = solve_effective_mass(grid, m, v, self.LEVELS, guesses=guesses)
        tight = eigvalsh_tridiagonal(
            res.diag, res.off, select="i", select_range=(0, self.LEVELS - 1), tol=1e-13
        )
        np.testing.assert_allclose(res.energies, tight, rtol=1e-12, atol=0)
        assert counts == [self.LEVELS]

    def test_guesses_missing_the_ground_state_fail(self, monkeypatch):
        grid, _, _ = self.problem()
        counts = self.count_sturm_calls(monkeypatch)
        self.assert_fell_back(self.hermite_functions(grid, range(1, self.LEVELS + 1)))
        # the refined states are the next levels up: one eigenvalue too many
        assert counts == [self.LEVELS + 1]

    def test_duplicate_guesses_fail(self, monkeypatch):
        grid, _, _ = self.problem()
        counts = self.count_sturm_calls(monkeypatch)
        self.assert_fell_back(self.hermite_functions(grid, (0, 1, 1, 2)))
        # two intervals hold the same eigenvalue: rejected before counting
        assert counts == []

    @pytest.mark.parametrize("bad", [math.nan, 0.0])
    def test_unusable_guess_falls_back(self, monkeypatch, bad):
        grid, _, _ = self.problem()
        guesses = self.hermite_functions(grid, range(self.LEVELS))
        guesses[2] = np.full(grid.n_points, bad)
        counts = self.count_sturm_calls(monkeypatch)
        self.assert_fell_back(guesses)
        assert counts == []

    @pytest.mark.parametrize("first", [0, 1], ids=["certified", "fallback"])
    def test_guesses_left_unchanged(self, monkeypatch, first):
        grid, m, v = self.problem()
        guesses = np.array(self.hermite_functions(grid, range(first, first + self.LEVELS)))
        kept = guesses.copy()
        guesses.flags.writeable = False
        counts = self.count_sturm_calls(monkeypatch)
        solve_effective_mass(grid, m, v, self.LEVELS, guesses=guesses)
        assert counts == [self.LEVELS + first]
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
            solve_effective_mass(g, m, v, self.LEVELS, guesses=s).energies
            for g, m, v, s in problems
        ]
        failures = []

        def worker(k):
            for _ in range(20):
                g, m, v, s = problems[k % len(problems)]
                got = solve_effective_mass(g, m, v, self.LEVELS, guesses=s).energies
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
            if args[2] == 2:
                raise AssertionError("fell back to bisection")
            return _fn(*args)

        monkeypatch.setattr(eigensolver, "dstebz", refuse)
        got = [
            solve_effective_mass(g, m, v, self.LEVELS, guesses=s).energies
            for g, m, v, s in problems + problems
        ]
        assert np.array_equal(got[0], got[2])
        assert np.array_equal(got[1], got[3])

    def test_guess_shape_checked(self):
        grid, m, v = self.problem()
        with pytest.raises(GridMismatchError):
            solve_effective_mass(grid, m, v, 2, guesses=self.hermite_functions(grid, range(3)))


class TestSeparationBound:
    """With ``bound``, a value between the wanted eigenvalues and the next,
    the first step is one Sturm count up to it: a count other than the
    number of levels goes straight to bisection, without refining, and
    refined intervals at or below it are certified by that same count."""

    LEVELS = TestCertifiedRefinement.LEVELS

    @pytest.fixture
    def case(self, monkeypatch):
        """(solve, the lowest LEVELS + 2 eigenvalues, the LAPACK call log,
        the bisection energies):
        ``solve(bound)`` solves the seeded problem with read-only guesses
        and checks that they are unchanged."""
        grid, m, v = TestCertifiedRefinement.problem()
        plain = solve_effective_mass(grid, m, v, self.LEVELS)
        exact = eigvalsh_tridiagonal(
            plain.diag, plain.off, select="i", select_range=(0, self.LEVELS + 1), tol=1e-13
        )
        guesses = np.array(TestCertifiedRefinement.hermite_functions(grid, range(self.LEVELS)))
        kept = guesses.copy()
        guesses.flags.writeable = False
        log = []

        def dgtsv(*args, _fn=eigensolver.dgtsv, **kwargs):
            log.append(("dgtsv",))
            return _fn(*args, **kwargs)

        def dstebz(*args, _fn=eigensolver.dstebz):
            out = _fn(*args)
            # value range (1): a count up to args[4]; index range (2): bisection
            log.append(("count", args[4], out[0]) if args[2] == 1 else ("bisect",))
            return out

        monkeypatch.setattr(eigensolver, "dgtsv", dgtsv)
        monkeypatch.setattr(eigensolver, "dstebz", dstebz)

        def solve(bound):
            log.clear()
            res = solve_effective_mass(grid, m, v, self.LEVELS, guesses=guesses, bound=bound)
            assert np.array_equal(guesses, kept)
            return res.energies

        return solve, exact, log, plain.energies

    @pytest.mark.parametrize("gap", [-1, 1], ids=["one-too-few", "one-too-many"])
    def test_count_off_goes_straight_to_bisection(self, case, gap):
        solve, exact, log, bisected = case
        # between the eigenvalues LEVELS - 1 + gap and LEVELS + gap
        top = self.LEVELS - 1 + gap
        bound = 0.5 * (exact[top] + exact[top + 1])
        energies = solve(bound)
        assert log == [("count", bound, self.LEVELS + gap), ("bisect",)]
        assert np.array_equal(energies, bisected)

    def test_certified_by_the_count_at_the_bound(self, case):
        solve, exact, log, _ = case
        unbounded = solve(None)
        bound = 0.5 * (exact[self.LEVELS - 1] + exact[self.LEVELS])
        energies = solve(bound)
        stebz = [entry for entry in log if entry[0] != "dgtsv"]
        assert stebz == [("count", bound, self.LEVELS)]
        assert len(log) > 1
        assert np.array_equal(energies, unbounded)
        np.testing.assert_allclose(energies, exact[: self.LEVELS], rtol=1e-12, atol=0)

    def test_interval_above_the_bound_is_counted_at_its_top(self, case):
        solve, exact, log, _ = case
        unbounded = solve(None)
        ((_, top, count),) = [entry for entry in log if entry[0] == "count"]
        assert count == self.LEVELS
        # above the top eigenvalue, below the top interval's upper end
        bound = 0.5 * (exact[self.LEVELS - 1] + top)
        assert exact[self.LEVELS - 1] < bound < top
        energies = solve(bound)
        counts = [entry for entry in log if entry[0] != "dgtsv"]
        assert counts == [("count", bound, self.LEVELS), ("count", top, self.LEVELS)]
        assert np.array_equal(energies, unbounded)
