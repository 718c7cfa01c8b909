import math

import numpy as np
import pytest

from pctsolve.eigensolver import Grid, node_count, residual_norm
from pctsolve.errors import ArgumentError, ConfigError, DomainError
from pctsolve.refpotentials import Hulthen, Morse, PoschlTeller, make_reference

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
            r = residual_norm(grid, phi, ref.energy(n), ones, v, mass_d1=0.0 * ones)
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


class TestFactory:
    def test_make_reference(self):
        assert make_reference("morse", D=8.0, alpha=1.0) == MORSE
        assert make_reference("hulthen", V0=2.0, alpha=0.5) == HULTHEN

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            make_reference("coulomb", Z=1.0)

    def test_bad_fields(self):
        with pytest.raises(ConfigError):
            make_reference("morse", depth=8.0)
