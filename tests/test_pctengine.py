import math

import numpy as np
import pytest
from conftest import count_log, load_runs, node_count, preset_run
from hypothesis import given, settings, strategies as st
from test_cli import README_RUNS

from pctsolve import cli, massmodel, presets
from pctsolve.eigensolver import Grid, trapezoid_dot
from pctsolve.errors import ArgumentError, ConfigError, DomainError
from pctsolve.massmodel import FAMILIES, MappingFunction, MassProfile
from pctsolve.pctengine import (
    TargetSystem,
    pct_identity_residual,
    printed_target_potential,
    suggest_domain,
    verify,
)
from pctsolve.refpotentials import Hulthen, Morse, PoschlTeller

PT_REF = PoschlTeller(U0=6.0, alpha=1.0)
MORSE_REF = Morse(D=8.0, alpha=1.0)
HULTHEN_REF = Hulthen(V0=2.0, alpha=0.5)


class TestIdentityTransform:
    """m = 1 (custom) must reproduce the reference, shifted by the anchor."""

    def build(self):
        profile = MassProfile.custom("1.0", -8.0, 8.0)
        return TargetSystem.build(profile, PT_REF)

    def test_potential_is_shifted_reference(self):
        ts = self.build()
        xs = np.linspace(-6, 6, 41)
        # anchor at the domain midpoint 0: f(x) = x
        assert np.allclose(ts.potential(xs), PT_REF.potential(xs), atol=1e-9)

    def test_wavefunction_is_reference_state(self):
        ts = self.build()
        xs = np.linspace(-6, 6, 801)
        psi = np.asarray(ts.wavefunction(1, xs), dtype=float)
        phi = np.asarray(PT_REF.eigenfunction(1, xs), dtype=float)
        assert np.allclose(psi / np.max(np.abs(psi)), phi / np.max(np.abs(phi)), atol=1e-8)

    def test_energy_passthrough_exact(self):
        ts = self.build()
        for n in range(PT_REF.n_max + 1):
            assert ts.energy(n) == PT_REF.energy(n)


class TestTargetSystem:
    def test_node_counts_preserved(self):
        profile = MassProfile("asymptotically_vanishing", 8.0, 1.0)
        ts = TargetSystem.build(profile, MORSE_REF)
        xs = np.linspace(ts.x_min, ts.x_max, 4001)
        for n in range(3):
            assert node_count(np.asarray(ts.wavefunction(n, xs))) == n

    def test_hulthen_reference_domain_violation(self):
        # f(x_min) <= 0 must be rejected
        profile = MassProfile("asymptotically_vanishing", 8.0, 1.0, -1.0, 5.0)
        with pytest.raises(DomainError):
            TargetSystem.build(profile, HULTHEN_REF)

    def test_hulthen_wall_on_the_domain_edge(self):
        # f(0) = 0 exactly: the open half line y > 0 excludes the left end
        profile = MassProfile("asymptotically_vanishing", 8.0, 1.0, 0.0, 5.0)
        assert MappingFunction(profile).forward(0.0) == 0.0
        with pytest.raises(DomainError, match="reference-domain violation"):
            TargetSystem.build(profile, HULTHEN_REF)

    def test_out_of_domain_evaluation(self):
        profile = MassProfile("asymptotically_vanishing", 8.0, 1.0, -1.0, 3.0)
        ts = TargetSystem.build(profile, MORSE_REF)
        with pytest.raises(DomainError):
            ts.potential(4.0)

    def test_suggest_domain_decays_reference_states(self):
        profile = MassProfile("asymptotically_vanishing", 8.0, 1.0)
        lo, hi = suggest_domain(MappingFunction(profile), MORSE_REF)
        ts = TargetSystem.build(profile, MORSE_REF)
        assert (ts.x_min, ts.x_max) == (lo, hi)
        xs = np.linspace(lo, hi, 4001)
        for n in range(3):
            psi = np.abs(np.asarray(ts.wavefunction(n, xs)))
            edge = max(psi[0], psi[-1])
            assert edge < 1e-5 * np.max(psi)

    @pytest.mark.parametrize("levels", [0, -1, 2.0, True])
    def test_suggest_domain_needs_a_level(self, levels):
        # no level to decay: the whole probe window would map back
        profile = MassProfile("asymptotically_vanishing", 8.0, 1.0)
        with pytest.raises(ArgumentError, match="n_levels"):
            suggest_domain(MappingFunction(profile), MORSE_REF, levels)
        with pytest.raises(ArgumentError, match="n_levels"):
            TargetSystem.build(profile, MORSE_REF, levels=levels)

    @pytest.mark.parametrize(
        "n_points, levels, error", [(2001.0, 3, ConfigError), (2001, 2.0, ArgumentError)]
    )
    def test_verify_takes_integer_counts(self, n_points, levels, error):
        profile = MassProfile("asymptotically_vanishing", 8.0, 1.0, -1.0, 3.0)
        with pytest.raises(error, match="must be an integer"):
            verify(TargetSystem.build(profile, MORSE_REF), n_points, levels)

    def test_composite_value_cross_check(self):
        # V(x) must equal V_ref(f(x)) and the correction composed separately
        profile = MassProfile("tanh_sq", 0.5, 1.0, 1.0, 10.0)
        ts = TargetSystem.build(profile, MORSE_REF)
        x = 2.25
        f = float(ts.mapping.forward(x))
        expected = float(MORSE_REF.potential(f)) + float(profile.correction(x))
        assert float(ts.potential(x)) == pytest.approx(expected, rel=1e-14)


def elementwise_outside(x, lo, hi):
    """The domain rule point by point: some x not within
    [lo - 1e-12 (1 + |lo|), hi + 1e-12 (1 + |hi|)], NaN included."""
    x = np.asarray(x, dtype=float)
    inside = (x >= lo - 1e-12 * (1.0 + abs(lo))) & (x <= hi + 1e-12 * (1.0 + abs(hi)))
    return not bool(np.all(inside))


def near(end):
    """Floats within a few ulps of ``end`` and of ``end`` -+ 1e-12 (1 + |end|)."""
    tol = 1e-12 * (1.0 + abs(end))
    return st.builds(
        lambda base, k: float(base + k * np.spacing(base)),
        st.sampled_from([end, end - tol, end + tol]),
        st.integers(-3, 3),
    )


class TestDomainCheck:
    """The domain checks test min(x) and max(x) alone; their verdict is the
    elementwise rule's, NaN, +-inf and empty arrays included.  A NaN, or an
    infinite x beyond a finite end, is outside."""

    PROFILE = MassProfile.custom("1 + x^2", -2.5, 7.0)
    BUILTIN = MassProfile("tanh_sq", 0.7, 0.5)
    TARGET = TargetSystem.build(
        MassProfile("asymptotically_vanishing", 8.0, 1.0, -1.0, 3.0), MORSE_REF
    )

    @staticmethod
    def samples(lo, hi):
        ends = [e for e in (lo, hi) if math.isfinite(e)]
        element = st.one_of(
            st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0]),
            st.floats(allow_nan=True, allow_infinity=True),
            st.floats(-1e3, 1e3),
            *[near(e) for e in ends],
        )
        return st.one_of(
            element.map(np.float64),
            st.lists(element, max_size=6).map(lambda v: np.array(v, dtype=float)),
        )

    @staticmethod
    def raises(check, x):
        try:
            check(x)
        except DomainError:
            return True
        return False

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_mass_profile(self, data):
        for profile in (self.PROFILE, self.BUILTIN):
            lo, hi = profile.domain()
            x = data.draw(self.samples(lo, hi))
            want = elementwise_outside(x, lo, hi)
            assert massmodel.outside(x, lo, hi) == want
            assert self.raises(profile._check_in_domain, x) == want

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_target_system(self, data):
        ts = self.TARGET
        x = data.draw(self.samples(ts.x_min, ts.x_max))
        assert self.raises(ts._check_x, x) == elementwise_outside(x, ts.x_min, ts.x_max)

    @pytest.mark.parametrize("fill", [math.nan, math.inf, -math.inf])
    def test_non_finite_entries_hide_no_outlier(self, fill):
        ts = self.TARGET
        assert self.raises(ts._check_x, np.array([fill, 0.5]))
        assert self.raises(ts._check_x, np.array([fill, 0.5, 3.5]))
        assert self.raises(ts._check_x, np.array([-1.5, fill, 0.5]))
        assert not self.raises(ts._check_x, np.array([]))

    def test_infinite_point_beyond_a_finite_end(self):
        # a tolerance scaled by |x| would be infinite here and pass the check
        with pytest.raises(DomainError):
            TargetSystem.build(MassProfile("coth_sq", 1.0, 2.0), PT_REF).potential(np.inf)
        with pytest.raises(DomainError):
            MassProfile("tanh_sq", 1.0, 1.0).mass(-np.inf)


class TestFields:
    """One field evaluation gives the same bits as composing V and Psi_n from
    separate mass, f and correction evaluations."""

    SYSTEMS = pytest.mark.parametrize(
        "profile, reference",
        [
            (MassProfile("coth_sq", 1.0, 2.0), PT_REF),
            (MassProfile("asymptotically_vanishing", 8.0, 1.0), HULTHEN_REF),
            (MassProfile.custom("1/(1 + a*x^2)", -20.0, 20.0, {"a": 0.25}), MORSE_REF),
        ],
        ids=[f"profile{i}-reference{i}-None" for i in range(3)],
    )

    @SYSTEMS
    def test_matches_separate_evaluations(self, profile, reference):
        ts = TargetSystem.build(profile, reference)
        xs = np.linspace(ts.x_min, ts.x_max, 301)
        fields = ts.fields(xs, range(3))
        assert fields.x is xs
        f = ts.mapping.forward(xs)
        corr = profile.correction(xs)
        m = np.asarray(profile.mass(xs), dtype=float)
        assert np.array_equal(fields.mass, m)
        assert np.array_equal(fields.f, f)
        assert np.array_equal(fields.correction, corr)
        assert np.array_equal(fields.potential, reference.potential(f) + corr)
        assert np.array_equal(ts.potential(xs), fields.potential)
        for n in range(3):
            psi = np.sqrt(np.sqrt(m)) * np.asarray(reference.eigenfunction(n, f), dtype=float)
            assert np.array_equal(fields.states[n], psi)
            assert np.array_equal(ts.wavefunction(n, xs), psi)

    @SYSTEMS
    def test_sample_scales_the_states_to_unit_norm(self, profile, reference):
        # the grid's fields, each state divided by its trapezoid norm
        ts = TargetSystem.build(profile, reference)
        grid, fields = ts.sample(2001, 3)
        raw = ts.fields(grid.points, range(3))
        assert np.array_equal(fields.x, grid.points)
        for name in ("mass", "f", "correction", "potential"):
            assert np.array_equal(getattr(fields, name), getattr(raw, name))
        assert len(fields.states) == 3
        for got, psi in zip(fields.states, raw.states):
            assert np.array_equal(got, psi / math.sqrt(trapezoid_dot(psi, psi, grid.h)))
            assert trapezoid_dot(got, got, grid.h) == pytest.approx(1.0, abs=1e-14)

    def test_scalar_x(self):
        ts = TargetSystem.build(MassProfile("tanh_sq", 0.5, 1.0, 1.0, 10.0), MORSE_REF)
        fields = ts.fields(2.25, (0,))
        assert np.ndim(fields.potential) == 0 and np.ndim(fields.states[0]) == 0
        assert fields.potential == ts.potential(2.25)
        with pytest.raises(DomainError):
            ts.fields(11.0)


class TestAlgebraIdentity:
    def test_constant_mass_residual_zero(self):
        # finite-difference floor, not exact zero: the mapping for a custom
        # profile is tabulated numerically even when the mass is constant
        profile = MassProfile.custom("3.0", -2.0, 2.0)
        assert pct_identity_residual(profile, 0.5) < 1e-10

    def test_builtin_profiles_bulk(self):
        for kind, alpha, q in [
            ("asymptotically_vanishing", 1.0, 1.0),
            ("tanh_sq", 1.0, 0.5),
            ("coth_sq", 1.0, 2.0),
        ]:
            profile = MassProfile(kind, alpha, q)
            lo, _ = profile.domain()
            xs = (lo if math.isfinite(lo) else 0.0) + np.linspace(1.0, 6.0, 25)
            assert np.max(pct_identity_residual(profile, xs)) < 1e-7

    def test_no_stencil_at_the_branch_point(self):
        # tanh_sq at alpha = q = 1: m -> 0 at x = 0, the domain's end
        with pytest.raises(DomainError, match="too close"):
            pct_identity_residual(MassProfile("tanh_sq", 1.0, 1.0), 0.0)

    def test_smooth_custom_profile(self):
        profile = MassProfile.custom("1.5 + 0.5*cos(x)", -3.0, 3.0)
        xs = np.linspace(-2.5, 2.5, 50)
        assert np.max(pct_identity_residual(profile, xs)) < 1e-7


class TestStandardEvaluation:
    def test_matches_deformed_at_q_one(self):
        for kind in ("asymptotically_vanishing", "tanh_sq", "coth_sq"):
            profile = MassProfile(kind, 1.3, 1.0)
            lo, _ = profile.domain()
            xs = (lo if math.isfinite(lo) else -2.0) + np.linspace(0.5, 4.5, 21)
            m_std, f_std, corr_std = FAMILIES[kind].standard(xs, profile.alpha)
            mapping = MappingFunction(profile)
            assert np.allclose(m_std, profile.mass(xs), rtol=1e-13)
            assert np.allclose(f_std, mapping.forward(xs), rtol=1e-12, atol=1e-13)
            assert np.allclose(corr_std, profile.correction(xs), rtol=1e-11)


class TestPrintedFormulas:
    def test_custom_profile_rejected(self):
        profile = MassProfile.custom("1.0", -1.0, 1.0)
        with pytest.raises(ConfigError):
            printed_target_potential(profile, PT_REF, 0.0)

    def test_asym_poschl_teller_leading_term(self):
        # the published composite: -U0/(x^2+q) plus a correction of opposite
        # sign, so construction minus printed equals twice the correction
        profile = MassProfile("asymptotically_vanishing", 1.0, 1.0, -4.0, 4.0)
        ts = TargetSystem.build(profile, PT_REF)
        xs = np.linspace(-3.5, 3.5, 41)
        printed = np.asarray(printed_target_potential(profile, PT_REF, xs))
        corr = (1.0 + 1.0 / (xs * xs + 1.0)) / 8.0
        assert np.allclose(printed, -6.0 / (xs * xs + 1.0) + corr, rtol=1e-13)
        pipeline = np.asarray(ts.potential(xs))
        assert np.allclose(printed - pipeline, 2.0 * corr, rtol=1e-10)

    def test_printed_morse_composite(self):
        profile = MassProfile("tanh_sq", 1.0, 2.0)
        x = 2.0
        from pctsolve.qmath import cosh_q, sinh_q

        c, s = cosh_q(x, 2.0), sinh_q(x, 2.0)
        expected = 8.0 * ((1.0 + c) ** 2 - 1.0) - 0.5 / s**4 * (1.25 + s * s)
        assert float(printed_target_potential(profile, MORSE_REF, x)) == pytest.approx(
            expected, rel=1e-13
        )


class TestSpectralSeparation:
    """The analytic spectrum says how many eigenvalues lie below the value
    separating the checked levels from the next one; ``verify`` counts them
    before refining."""

    def test_midpoint_or_half_the_top_level(self):
        ts = TargetSystem.build(MassProfile("coth_sq", 1.0, 1.0), MORSE_REF)
        assert MORSE_REF.n_max == 3
        assert ts.reference.separation(3) == 0.5 * (MORSE_REF.energy(2) + MORSE_REF.energy(3))
        # no bound level above: the continuum of a vanishing potential starts at 0
        assert ts.reference.separation(4) == 0.5 * MORSE_REF.energy(3)

    def test_count_at_the_separation_classifies_the_presets(self, monkeypatch):
        # the count differs from the number of checked levels on exactly the
        # runs presets lists as infeasible, and on none of the README's
        counts = count_log(monkeypatch)
        runs = load_runs([preset_run(spec) for spec in presets.COMBO_TABLE] + README_RUNS)
        at_separation = {}
        for run in runs["runs"]:
            ts, levels = cli._build(run)
            counts.clear()
            verify(ts, run["n_points"], levels)
            # the seeded solve's first Sturm count is the one at the separation
            _, bound, count = counts[0]
            assert bound == ts.reference.separation(levels)
            at_separation[run["name"]] = count
        infeasible = {spec.name for spec in presets.COMBO_TABLE if not spec.feasible}
        assert len(infeasible) == 4
        assert {name for name, count in at_separation.items() if count != 3} == infeasible
        assert len(at_separation) == 29
