import functools
import math

import mpmath as mp
import numpy as np
import pytest
from conftest import node_count

from pctsolve.eigensolver import Grid, residual_norm
from pctsolve.errors import ArgumentError, ConfigError, DomainError
from pctsolve.refpotentials import REFERENCES, Hulthen, Morse, PoschlTeller

MORSE = Morse(D=8.0, alpha=1.0)
PT = PoschlTeller(U0=6.0, alpha=1.0)
HULTHEN = Hulthen(V0=2.0, alpha=0.5)


class TestSpectra:
    def test_morse_energies(self):
        # dbar = sqrt(2D)/a = 4; eps_n = -(a^2/2)(dbar - n - 1/2)^2
        assert MORSE.energy(0) == pytest.approx(-6.125)
        assert MORSE.energy(1) == pytest.approx(-3.125)
        assert MORSE.energy(2) == pytest.approx(-1.125)
        assert MORSE.n_max == 3

    def test_poschl_teller_energies(self):
        # s = (sqrt(1 + 8 U0/a^2) - 1)/2 = 3; eps_n = -(a^2/2)(s - n)^2
        assert PT.energy(0) == pytest.approx(-4.5)
        assert PT.energy(1) == pytest.approx(-2.0)
        assert PT.energy(2) == pytest.approx(-0.5)
        assert PT.n_max == 2

    def test_hulthen_energies(self):
        # beta^2 = 2 V0/a^2 = 16; eps_n = -(a^2/8)[(beta^2 - (n+1)^2)/(n+1)]^2
        assert HULTHEN.energy(0) == pytest.approx(-225.0 / 32.0)
        assert HULTHEN.energy(1) == pytest.approx(-1.125)
        assert HULTHEN.energy(2) == pytest.approx(-49.0 / 288.0)
        assert HULTHEN.n_max == 2

    def test_energies_increase_with_n(self):
        for ref in (MORSE, PT, HULTHEN):
            energies = [ref.energy(n) for n in range(ref.n_max + 1)]
            assert all(a < b < 0 for a, b in zip(energies, energies[1:]))

    def test_level_out_of_range(self):
        with pytest.raises(ArgumentError):
            MORSE.energy(4)
        with pytest.raises(ArgumentError):
            PT.eigenfunction(-1, np.linspace(-1, 1, 5))

    def test_too_shallow_wells(self):
        with pytest.raises(ConfigError):
            Morse(D=0.05, alpha=1.0)
        with pytest.raises(ConfigError):
            Hulthen(V0=0.1, alpha=1.0)


class TestReferenceRules:
    """The rules every reference shares: parameter and binding checks at
    construction, and the level checks of ``energy`` and ``separation``."""

    @pytest.mark.parametrize(
        "kind, name, shallow, deeper",
        [
            ("morse", "D", (0.5 + 1e-13) ** 2 / 2, (0.5 + 1e-9) ** 2 / 2),
            ("poschl_teller", "U0", 1e-13, 1e-9),
            ("hulthen", "V0", (1.0 + 1e-13) / 2, (1.0 + 1e-9) / 2),
        ],
        ids=["morse", "poschl_teller", "hulthen"],
    )
    def test_just_above_the_binding_threshold(self, kind, name, shallow, deeper):
        # the threshold is where kappa_0 reaches 0: dbar = 1/2 (Morse), s = 0
        # (Poeschl-Teller), beta = 1 (Hulthen); a level needs kappa > 1e-12
        with pytest.raises(ConfigError, match=f"{kind} well too shallow to bind a state"):
            REFERENCES[kind](**{name: shallow})
        deeper = REFERENCES[kind](**{name: deeper})
        assert deeper.n_max == 0
        assert deeper.energy(0) < 0.0

    @pytest.mark.parametrize(
        "make, field",
        [
            (lambda: Morse(D=math.inf), "D"),
            (lambda: Hulthen(V0=math.nan), "V0"),
            (lambda: PoschlTeller(U0=6.0, alpha=-math.inf), "alpha"),
            (lambda: Morse(D=8.0, alpha=0.0), "alpha"),
        ],
        ids=["morse-D-inf", "hulthen-V0-nan", "pt-alpha-minus-inf", "morse-alpha-0"],
    )
    def test_every_field_finite_and_positive(self, make, field):
        with pytest.raises(ConfigError, match=f"needs {field} finite and > 0") as info:
            make()
        assert info.value.field == field

    @pytest.mark.parametrize("ref", [MORSE, PT, HULTHEN], ids=lambda r: type(r).__name__)
    def test_energy_takes_one_checked_level(self, ref):
        assert ref.energy(np.int64(ref.n_max)) == ref.energy(ref.n_max)
        for bad in (ref.n_max + 1, -1, 1.0, True, [0], ()):
            with pytest.raises(ArgumentError):
                ref.energy(bad)
        for bad in (0, 2.0, True):
            with pytest.raises(ArgumentError, match=f"levels must be an integer >= 1, got {bad!r}"):
                ref.separation(bad)


REF_GRIDS = {
    "morse": (MORSE, Grid(-3.5, 10.0, 20001)),
    "poschl_teller": (PT, Grid(-14.0, 14.0, 20001)),
    "hulthen": (HULTHEN, Grid(1e-6, 30.0, 20001)),
}


class TestEigenfunctions:
    @pytest.mark.parametrize("name", sorted(REF_GRIDS))
    def test_schrodinger_residual(self, name):
        # Phi'' + 2 (eps - V) Phi = 0 for the closed-form states
        ref, grid = REF_GRIDS[name]
        y = grid.points
        v = np.asarray(ref.potential(y), dtype=float)
        ones = np.ones_like(y)
        for n in range(min(ref.n_max, 2) + 1):
            phi = np.asarray(ref.eigenfunction(n, y), dtype=float)
            phi = phi / np.max(np.abs(phi))
            r = residual_norm(grid, phi, ref.energy(n), ones, v)
            assert r < 1e-5, (name, n, r)

    @pytest.mark.parametrize("name", sorted(REF_GRIDS))
    def test_node_counts(self, name):
        ref, grid = REF_GRIDS[name]
        for n in range(min(ref.n_max, 2) + 1):
            phi = ref.eigenfunction(n, grid.points)
            assert node_count(phi) == n

    @pytest.mark.parametrize("name", sorted(REF_GRIDS))
    def test_unit_norm_on_grid(self, name):
        ref, grid = REF_GRIDS[name]
        phi = np.asarray(ref.eigenfunction(0, grid.points), dtype=float)
        assert np.trapezoid(phi * phi, grid.points) == pytest.approx(1.0, rel=1e-6)

    def test_morse_inner_wall_underflows_to_zero(self):
        phi = MORSE.eigenfunction(2, np.array([-50.0, -10.0]))
        assert np.all(np.isfinite(phi))
        assert phi[0] == 0.0

    def test_hulthen_domain(self):
        with pytest.raises(DomainError):
            HULTHEN.potential(np.array([-0.5, 1.0]))
        with pytest.raises(DomainError):
            HULTHEN.eigenfunction(0, np.array([0.0, 1.0]))
        # an empty y lies inside every domain
        assert HULTHEN.potential(np.array([])).shape == (0,)

    @pytest.mark.parametrize("ref", [MORSE, PT, HULTHEN], ids=lambda r: type(r).__name__)
    @pytest.mark.parametrize("bad", [math.nan, -math.inf, math.inf])
    def test_non_finite_y_rejected(self, ref, bad):
        # the domain is y_lo < y < inf; NaN fails both comparisons
        for y in (bad, np.array([1.0, bad, 2.0])):
            with pytest.raises(DomainError):
                ref.potential(y)
            with pytest.raises(DomainError):
                ref.eigenfunction(0, y)
            with pytest.raises(DomainError):
                ref.eigenfunction([0, 1], y)


#: two parameter sets per reference, the second a deep well, each with
#: breakpoints spanning a window outside which every |Phi_n|^2 is below
#: 1e-20 of its peak
NORM_CASES = {
    "morse": (Morse(D=8.0, alpha=1.0), (-4.0, 0.0, 10.0, 60.0)),
    "morse-deep": (Morse(D=800.0, alpha=1.0), (-2.0, 0.0, 10.0, 60.0)),
    "poschl_teller": (PoschlTeller(U0=6.0, alpha=1.0), (-40.0, -5.0, 5.0, 40.0)),
    "poschl_teller-deep": (PoschlTeller(U0=480.375, alpha=1.0), (-50.0, -5.0, 5.0, 50.0)),
    "hulthen": (Hulthen(V0=2.0, alpha=0.5), (0.0, 0.5, 5.0, 120.0)),
    "hulthen-deep": (Hulthen(V0=210.125, alpha=1.0), (0.0, 0.05, 0.5, 5.0, 100.0)),
}

_GAUSS_LEGENDRE = mp.calculus.quadrature.GaussLegendre(mp.mp)


@functools.lru_cache(maxsize=None)
def gauss_legendre(breaks, pieces=8, degree=6):
    """mpmath's Gauss-Legendre rule at 30 digits on ``pieces`` equal panels
    between consecutive ``breaks``, 3 * 2^(degree-1) nodes each: (float
    nodes, mpf weights)."""
    edges = np.concatenate(
        [np.linspace(a, b, pieces + 1)[:-1] for a, b in zip(breaks, breaks[1:])] + [breaks[-1:]]
    )
    nodes = []
    with mp.workdps(30):
        for lo, hi in zip(edges, edges[1:]):
            nodes += _GAUSS_LEGENDRE.get_nodes(mp.mpf(lo), mp.mpf(hi), degree, mp.mp.prec)
    return np.array([float(y) for y, _ in nodes]), [w for _, w in nodes]


def mp_norm_sq(ref, n, breaks):
    """int |Phi_n|^2 dy over the window of ``breaks``, summed at 30 digits,
    with Phi_n evaluated in one array call at the nodes."""
    ys, weights = gauss_legendre(breaks)
    with mp.workdps(30):
        phi = ref.eigenfunction(n, ys)
        return float(mp.fdot(weights, [mp.mpf(float(p)) ** 2 for p in phi]))


class TestClosedFormNorms:
    """Each Phi_n carries its closed-form norm: a pointwise function of y,
    of unit L2 norm on the reference domain."""

    @pytest.mark.parametrize("name", sorted(NORM_CASES))
    def test_unit_norm_against_mpmath(self, name):
        ref, breaks = NORM_CASES[name]
        errors = [abs(mp_norm_sq(ref, n, breaks) - 1.0) for n in range(ref.n_max + 1)]
        assert max(errors) < 1e-12, (name, errors)

    @pytest.mark.parametrize("name", sorted(NORM_CASES))
    def test_scalar_is_the_array_entry(self, name):
        ref, breaks = NORM_CASES[name]
        ys = np.linspace(breaks[0], breaks[-1], 9)
        if isinstance(ref, Hulthen):
            ys[0] = 1e-9
        for n in range(ref.n_max + 1):
            phi = np.asarray(ref.eigenfunction(n, ys), dtype=float)
            for y, want in zip(ys, phi):
                got = ref.eigenfunction(n, float(y))
                assert np.ndim(got) == 0
                assert np.float64(got).view(np.int64) == want.view(np.int64), (n, y)

    @pytest.mark.parametrize("name", sorted(NORM_CASES))
    def test_levels_in_one_call_are_the_single_level_calls(self, name):
        ref, breaks = NORM_CASES[name]
        ys = np.linspace(breaks[0], breaks[-1], 101)
        if isinstance(ref, Hulthen):
            ys[0] = 1e-9
        levels = list(range(ref.n_max + 1))
        for chosen in (levels, levels[::-1], range(min(2, ref.n_max) + 1)):
            for y in (ys, float(ys[37]), float(ys[-1])):
                states = ref.eigenfunction(chosen, y)
                assert isinstance(states, tuple) and len(states) == len(chosen)
                for n, got in zip(chosen, states):
                    want = ref.eigenfunction(n, y)
                    assert np.ndim(got) == np.ndim(want)
                    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
                    assert np.array_equal(got.view(np.int64), want.view(np.int64)), (n, y)

    @pytest.mark.parametrize("ref", [MORSE, PT, HULTHEN], ids=lambda r: type(r).__name__)
    def test_every_level_of_a_sequence_is_checked(self, ref):
        assert ref.eigenfunction((), np.array([1.0, 2.0])) == ()
        for bad in ([0, ref.n_max + 1], [0, -1], [0, 1.0], [True]):
            with pytest.raises(ArgumentError):
                ref.eigenfunction(bad, 1.0)

    def test_value_ignores_the_other_points(self):
        # with a trapezoid norm over the sample these were 26.52, 1.3226
        # and 0.9834
        alone = MORSE.eigenfunction(0, 0.0)
        assert MORSE.eigenfunction(0, np.array([0.0, 1.0]))[0] == alone
        assert MORSE.eigenfunction(0, np.linspace(-3.5, 10.0, 2701))[700] == alone
        assert alone == pytest.approx(0.98848658, rel=1e-8)

