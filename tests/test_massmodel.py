import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from conftest import assert_value_matches_jet
from hypothesis import given, settings, strategies as st

from pctsolve import exprlang
from pctsolve.errors import ConfigError, DomainError, PctError, PoleError
from pctsolve.massmodel import BUILTIN_KINDS, MappingFunction, MassProfile

#: the custom profile of the README's command-line example
README_PROFILE = ("1/(1 + a*x^2)", -80.0, 80.0, {"a": 0.25})

BUILTIN_CASES = [
    ("asymptotically_vanishing", 2.0, 0.5),
    ("asymptotically_vanishing", 1.0, 1.0),
    ("tanh_sq", 0.7, 0.5),
    ("tanh_sq", 1.0, 2.0),
    ("coth_sq", 1.0, 1.0),
    ("coth_sq", 0.5, 3.0),
]

# the built-ins written in the expression language, for jet cross-checks
BUILTIN_EXPRESSIONS = {
    "asymptotically_vanishing": "al^2/(x^2+q)",
    "tanh_sq": "tanhq(al*x)^2",
    "coth_sq": "cothq(al*x)^2",
}


def sample_points(profile, count=41):
    lo, hi = profile.domain()
    lo = lo + 0.4 / profile.alpha if math.isfinite(lo) else -4.0
    hi = min(hi, lo + 8.0 / profile.alpha)
    return np.linspace(lo, hi, count)


class TestMassJets:
    @pytest.mark.parametrize("kind,alpha,q", BUILTIN_CASES)
    def test_closed_form_jet_matches_automatic_differentiation(self, kind, alpha, q):
        profile = MassProfile(kind, alpha, q)
        ast = exprlang.parse(BUILTIN_EXPRESSIONS[kind])
        xs = sample_points(profile)
        jet = profile.mass_jet(xs)
        ref = exprlang.eval_jet(ast, xs, {"al": alpha, "q": q})
        assert np.allclose(jet.value, ref.value, rtol=1e-12)
        assert np.allclose(jet.d1, ref.d1, rtol=1e-11, atol=1e-13)
        assert np.allclose(jet.d2, ref.d2, rtol=1e-11, atol=1e-12)

    @pytest.mark.parametrize("kind,alpha,q", BUILTIN_CASES)
    def test_mass_positive(self, kind, alpha, q):
        profile = MassProfile(kind, alpha, q)
        assert np.all(np.asarray(profile.mass(sample_points(profile))) > 0)

    def test_large_argument_stability(self):
        # the closed forms must not overflow far from the origin
        profile = MassProfile("tanh_sq", 1.0, 2.0)
        jet = profile.mass_jet(np.array([500.0, 1000.0]))
        assert np.allclose(jet.value, 1.0)
        assert np.allclose(jet.d1, 0.0)
        profile = MassProfile("coth_sq", 1.0, 0.5)
        assert np.allclose(profile.mass(np.array([400.0, 900.0])), 1.0)

    def test_correction_const_mass_is_zero(self):
        profile = MassProfile.custom("2.5", -1.0, 1.0)
        assert profile.correction(0.3) == pytest.approx(0.0, abs=1e-15)

    def test_correction_asymptotic_closed_form(self):
        # (1/8m)[m''/m - (7/4)(m'/m)^2] = -(1/8a^2)[1 + q/(x^2+q)]
        a, q = 2.0, 1.5
        profile = MassProfile("asymptotically_vanishing", a, q)
        xs = np.linspace(-3, 3, 13)
        expected = -(1.0 + q / (xs * xs + q)) / (8.0 * a * a)
        assert np.allclose(profile.correction(xs), expected, rtol=1e-12)


#: custom profiles on [-2, 2] for every a in [0.25, 2], b in [0.5, 2] and
#: q in {0.5, 1, 2}; two have exponents that contain x
CUSTOM_TEMPLATES = [
    "1/(1 + a*x^2)",
    "exp(-a*x^2) + b",
    "(b + x^2)^(0.5*sin(x) + a)",
    "(2 + x^2)^(x - x + a)",  # zero exponent derivatives: the constant-power branch
    "sechq(a*x)^2 + b",
    "cothq(x + 3)^2 + tanh(a*x)",
    "sqrt(b + x^2)*ln(2 + x^2)^a",
]

#: a point of [-1, 1] off the 401 validation samples, where each custom
#: profile below is undefined (m itself, not only its derivatives)
_SINGULAR = 0.0123

SINGULAR_PROFILES = [
    ("ln((x - c)^2)^2 + 1", DomainError),
    ("sqrt((x - c)^2) + 1", DomainError),
    ("1/(x - c)^2", DomainError),
    ("((x - c)^2 - 1e-12)^0.5 + 1", DomainError),  # negative base near c
    ("coth(x - c)^2", DomainError),
    ("cothq(x - c)^2", PoleError),
]


class TestValueOnlyMass:
    """mass(x) is mass_jet(x).value bit for bit, without the derivatives."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from(BUILTIN_KINDS),
        st.floats(0.2, 4.0),
        st.sampled_from([0.5, 1.0, 2.0]),
        st.lists(st.floats(0.0, 40.0), min_size=1, max_size=8),
    )
    def test_builtin(self, kind, alpha, q, offsets):
        profile = MassProfile(kind, alpha, q)
        lo = profile.domain()[0]
        # offset 0 is the branch point: m = 0 for tanh_sq, a pole for coth_sq
        xs = (lo if math.isfinite(lo) else -20.0) + np.array(offsets)
        for x in (xs, float(xs[0])):
            assert_value_matches_jet(lambda: profile.mass(x), lambda: profile.mass_jet(x))

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from(CUSTOM_TEMPLATES),
        st.floats(0.25, 2.0),
        st.floats(0.5, 2.0),
        st.sampled_from([0.5, 1.0, 2.0]),
        st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=8),
    )
    def test_custom(self, template, a, b, q, xs):
        profile = MassProfile.custom(template, -2.0, 2.0, {"a": a, "b": b, "q": q})
        xs = np.array(xs)
        for x in (xs, float(xs[0])):
            assert_value_matches_jet(lambda: profile.mass(x), lambda: profile.mass_jet(x))

    @pytest.mark.parametrize("source,error", SINGULAR_PROFILES)
    def test_undefined_mass_raises_like_the_jet(self, source, error):
        profile = MassProfile.custom(source, -1.0, 1.0, {"c": _SINGULAR, "q": 1.0})
        for x in (_SINGULAR, np.array([-0.5, _SINGULAR, 0.5])):
            with pytest.raises(error):
                profile.mass(x)
            with pytest.raises(error):
                profile.mass_jet(x)
        assert_value_matches_jet(lambda: profile.mass(0.5), lambda: profile.mass_jet(0.5))

    def test_constant_profile_has_the_shape_of_x(self):
        profile = MassProfile.custom("2 + a", -1.0, 1.0, {"a": 0.5})
        xs = np.linspace(-1.0, 1.0, 5)
        assert_value_matches_jet(lambda: profile.mass(xs), lambda: profile.mass_jet(xs))
        assert profile.mass(xs).shape == xs.shape and profile.mass(0.0) == 2.5


class TestValidation:
    def test_q_ratio_expressions_far_from_the_origin(self):
        # tanhq and cothq stay finite where cosh_q and sinh_q overflow
        profile = MassProfile.custom("tanhq(x)^2 + 1", -800, 800, {"q": 1})
        assert np.allclose(profile.mass(np.array([-800.0, 0.0, 800.0])), [2.0, 1.0, 2.0])
        profile = MassProfile.custom("cothq(x)^2", 1, 800, {"q": 2})
        assert profile.mass(800.0) == pytest.approx(1.0)

    def test_bad_parameters(self):
        with pytest.raises(ConfigError):
            MassProfile("asymptotically_vanishing", -1.0, 1.0)
        with pytest.raises(ConfigError):
            MassProfile("tanh_sq", 1.0, 0.0)
        with pytest.raises(ConfigError):
            MassProfile("no_such_kind", 1.0, 1.0)

    @pytest.mark.parametrize(
        "make, field",
        [
            (lambda: MassProfile("tanh_sq", math.inf, 1.0), "alpha"),
            (lambda: MassProfile("coth_sq", -math.inf, 1.0), "alpha"),
            (lambda: MassProfile("asymptotically_vanishing", math.nan, 1.0), "alpha"),
            (lambda: MassProfile("tanh_sq", 1.0, math.inf), "q"),
            (lambda: MassProfile("coth_sq", 1.0, -math.inf), "q"),
            (lambda: MassProfile("asymptotically_vanishing", 1.0, math.nan), "q"),
            (lambda: MassProfile.custom("1", 0.0, math.inf), "domain"),
            (lambda: MassProfile.custom("1", -math.inf, 0.0), "domain"),
            (lambda: MassProfile.custom("1", math.nan, 1.0), "domain"),
            (lambda: MassProfile.custom("1", None, None), "domain"),
            (lambda: MassProfile("tanh_sq", 1.0, 1.0, x_min=2.0, x_max=1.0), "domain"),
            # both ends finite, but their difference overflows to inf
            (lambda: MassProfile.custom("1", -1e308, 1e308), "domain"),
            (
                lambda: MassProfile(
                    "asymptotically_vanishing", 1.0, 1.0, x_min=-1e308, x_max=1e308
                ),
                "domain",
            ),
            # tanh_sq at alpha = q = 1 lives on x > 0
            (lambda: MassProfile("tanh_sq", 1.0, 1.0, x_min=-1.0, x_max=5.0), "domain"),
        ],
        ids=[
            "tanh-alpha-inf",
            "coth-alpha-minus-inf",
            "vanishing-alpha-nan",
            "tanh-q-inf",
            "coth-q-minus-inf",
            "vanishing-q-nan",
            "custom-hi-inf",
            "custom-lo-minus-inf",
            "custom-lo-nan",
            "custom-domain-missing",
            "domain-empty",
            "custom-domain-too-wide",
            "vanishing-domain-too-wide",
            "domain-below-branch-point",
        ],
    )
    def test_config_error_names_its_field(self, make, field):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError) as info:
                make()
        assert info.value.field == field

    def test_custom_requires_domain_and_positivity(self):
        with pytest.raises(ConfigError):
            MassProfile.custom("1+x", None, None)
        with pytest.raises(ConfigError):
            MassProfile.custom("x", -1.0, 1.0)  # changes sign
        with pytest.raises(ConfigError):
            MassProfile.custom("1/x", -1.0, 1.0)  # pole inside

    def test_domain_outside_natural_domain(self):
        # tanh_sq/coth_sq live above the branch point ln(q)/(2 alpha)
        with pytest.raises(ConfigError):
            MassProfile("coth_sq", 1.0, 4.0, x_min=0.0, x_max=5.0)

    def test_evaluation_outside_domain(self):
        profile = MassProfile("coth_sq", 1.0, 1.0)
        with pytest.raises(DomainError):
            profile.mass(-1.0)
        profile = MassProfile.custom("1+x^2", -1.0, 1.0)
        with pytest.raises(DomainError):
            profile.mass(2.0)


class TestMapping:
    @pytest.mark.parametrize("kind,alpha,q", BUILTIN_CASES)
    def test_forward_derivative_is_sqrt_mass(self, kind, alpha, q):
        profile = MassProfile(kind, alpha, q)
        mapping = MappingFunction(profile)
        xs = sample_points(profile)
        h = 1e-6
        d = (np.asarray(mapping.forward(xs + h)) - np.asarray(mapping.forward(xs - h))) / (2 * h)
        assert np.allclose(d, np.sqrt(np.asarray(profile.mass(xs))), rtol=1e-7)

    @pytest.mark.parametrize("kind,alpha,q", BUILTIN_CASES)
    def test_roundtrip(self, kind, alpha, q):
        profile = MassProfile(kind, alpha, q)
        mapping = MappingFunction(profile)
        xs = sample_points(profile)
        ys = mapping.forward(xs)
        assert np.all(np.diff(np.asarray(ys)) > 0)  # strictly increasing
        back = mapping.inverse(ys)
        assert np.allclose(back, xs, rtol=1e-9, atol=1e-9)

    def test_inverse_far_asymptote(self):
        # for large y the exponential form overflows; the asymptote takes over
        profile = MassProfile("coth_sq", 1.0, 2.0)
        mapping = MappingFunction(profile)
        x = float(mapping.inverse(400.0))
        assert x == pytest.approx(400.0 + math.log(2.0), rel=1e-12)

    def test_inverse_out_of_range(self):
        # NaN, -inf and +inf (f is finite at every x, also where the range
        # is unbounded), and a finite y beyond a finite end of the range
        # (tanh_sq's infimum at q = 4 is ln(sqrt(q))/alpha = ln 2), as a
        # scalar and among valid points
        for profile in (
            MassProfile("tanh_sq", 1.0, 4.0),
            MassProfile("tanh_sq", 1.0, 2.0),
            MassProfile("coth_sq", 1.0, 1.0),
            MassProfile("asymptotically_vanishing", 8.0, 1.0),
            MassProfile("asymptotically_vanishing", 8.0, 1.0, x_min=-1.0, x_max=1.0),
            MassProfile.custom("1 + x^2", -1.0, 1.0),
        ):
            mapping = MappingFunction(profile)
            y_lo, y_hi = mapping.y_range()
            inside = float(mapping.forward(sample_points(profile)[0]))
            bad = [math.nan, -math.inf, math.inf]
            for end, sign in ((y_lo, -1.0), (y_hi, 1.0)):
                if math.isfinite(end):
                    bad.append(end + sign)
            for y in bad:
                for at in (y, np.array([inside, y])):
                    with pytest.raises(DomainError, match="y outside the mapping range"):
                        mapping.inverse(at)

    def test_custom_constant_mass_is_linear(self):
        profile = MassProfile.custom("4.0", -2.0, 2.0)
        mapping = MappingFunction(profile)
        xs = np.linspace(-2, 2, 9)
        assert np.allclose(mapping.forward(xs), 2.0 * (xs - 0.0), atol=1e-10)
        assert np.allclose(mapping.inverse(2.0 * xs), xs, atol=1e-9)

    def test_custom_roundtrip(self):
        profile = MassProfile.custom("1 + 0.5*sin(x)", -3.0, 3.0)
        mapping = MappingFunction(profile)
        xs = np.linspace(-2.8, 2.8, 15)
        back = mapping.inverse(mapping.forward(xs))
        assert np.allclose(back, xs, atol=1e-8)


    def test_custom_mapping_is_pointwise(self):
        # f(x) and f^{-1}(y) must not depend on the other points passed along
        mapping = MappingFunction(MassProfile.custom(*README_PROFILE))
        xs = np.linspace(-80.0, 80.0, 2001)
        ys = mapping.forward(xs)
        back = mapping.inverse(ys)
        for i in range(0, xs.size, 37):
            assert mapping.forward(float(xs[i])) == ys[i]
            assert mapping.inverse(float(ys[i])) == back[i]


def _close(got, ref, rtol):
    """|got - ref| <= rtol (1 + max |ref|) over the sampled window: the scale
    is the window's, so a zero of m' or m'' inside it does not matter."""
    got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    assert np.all(np.abs(got - ref) <= rtol * (1.0 + np.max(np.abs(ref)))), (got, ref)


def _same_range(got, ref):
    for g, r in zip(got, ref):
        assert g == r if math.isinf(r) else math.isclose(g, r, rel_tol=1e-12, abs_tol=1e-12), (got, ref)


class TestQAxis:
    """A built-in profile at q is its q = 1 profile after a change of
    variables, exactly up to rounding and independently of the PCT:
    tanh_sq and coth_sq are translated by x_q = ln(q)/(2 alpha), with f moved
    by ln(sqrt q)/alpha; asymptotically_vanishing is dilated by sqrt(q),
    m_q(x) = m_1(x/sqrt q)/q, with m' scaled by q^(-3/2), m'' by q^(-2), and
    f moved by alpha ln(sqrt q).  Checked through mass, mass_jet, forward,
    inverse and y_range, with and without an explicit domain."""

    @staticmethod
    def check(kind, alpha, q, xs, to_1, from_1, jet_scale, lift):
        """xs: points of the q profile's window; to_1/from_1 map x to the
        q = 1 profile's x and back; jet_scale: the factors of m, m', m''."""
        x1 = to_1(xs)
        at_q = MassProfile(kind, alpha, q, x_min=xs[0], x_max=xs[-1])
        at_1 = MassProfile(kind, alpha, 1.0, x_min=x1[0], x_max=x1[-1])
        _close(at_q.mass(xs), jet_scale[0] * at_1.mass(x1), 1e-12)
        jet_q, jet_1 = at_q.mass_jet(xs), at_1.mass_jet(x1)
        for got, ref, scale in zip(
            (jet_q.value, jet_q.d1, jet_q.d2), (jet_1.value, jet_1.d1, jet_1.d2), jet_scale
        ):
            _close(got, scale * ref, 1e-12)
        map_q, map_1 = MappingFunction(at_q), MappingFunction(at_1)
        ys = map_q.forward(xs)
        _close(ys, map_1.forward(x1) + lift, 1e-12)
        _close(map_q.inverse(ys), from_1(map_1.inverse(ys - lift)), 1e-11)
        _same_range(map_q.y_range(), [y + lift for y in map_1.y_range()])
        whole_q, whole_1 = MassProfile(kind, alpha, q), MassProfile(kind, alpha, 1.0)
        _same_range(
            MappingFunction(whole_q).y_range(),
            [y + lift for y in MappingFunction(whole_1).y_range()],
        )

    @pytest.mark.parametrize("kind", ["tanh_sq", "coth_sq"])
    @settings(max_examples=40, deadline=None)
    @given(
        alpha=st.floats(0.1, 10.0),
        q=st.floats(0.05, 20.0),
        start=st.floats(0.05, 5.0),
        width=st.floats(0.5, 20.0),
    )
    def test_translated_families(self, kind, alpha, q, start, width):
        # the window starts start/alpha past the branch point, in the domain
        x_q = math.log(q) / (2.0 * alpha)
        xs = x_q + np.linspace(start, start + width, 41) / alpha
        self.check(
            kind, alpha, q, xs,
            to_1=lambda x: x - x_q,
            from_1=lambda x: x + x_q,
            jet_scale=(1.0, 1.0, 1.0),
            lift=math.log(math.sqrt(q)) / alpha,
        )

    @settings(max_examples=40, deadline=None)
    @given(
        alpha=st.floats(0.1, 10.0),
        q=st.floats(0.05, 20.0),
        start=st.floats(-15.0, 10.0),
        width=st.floats(0.5, 20.0),
    )
    def test_dilated_family(self, alpha, q, start, width):
        r = math.sqrt(q)
        self.check(
            "asymptotically_vanishing", alpha, q, r * np.linspace(start, start + width, 41),
            to_1=lambda x: x / r,
            from_1=lambda x: r * x,
            jet_scale=(1.0 / q, 1.0 / (q * r), 1.0 / (q * q)),
            lift=alpha * math.log(r),
        )


def _mp_integral(sqrt_m, x, breaks=()):
    """30-digit int_0^x sqrt_m dt, split at the given breakpoints."""
    with mp.workdps(30):
        inner = [b for b in breaks if min(0.0, x) < b < max(0.0, x)]
        pts = [mp.mpf(v) for v in sorted([0.0, x, *inner])]
        val = mp.quad(sqrt_m, pts)
        return float(val if x >= 0 else -val)


def _bump_sqrt_m(t):
    return mp.sqrt(1 + 50 * mp.exp(-(((t - mp.mpf("0.05")) / mp.mpf("0.01")) ** 2)))


class TestCustomTable:
    """The tabulated f of custom profiles (f = 0 at the domain midpoint 0)
    against closed forms and mpmath quadrature."""

    CASES = {
        "readme": (
            README_PROFILE,
            np.linspace(-80.0, 80.0, 23),
            lambda x: math.asinh(0.5 * x) / 0.5,
        ),
        "sine": (
            ("1 + 0.5*sin(x)", -3.0, 3.0, {}),
            np.linspace(-3.0, 3.0, 23),
            lambda x: _mp_integral(lambda t: mp.sqrt(1 + mp.sin(t) / 2), x),
        ),
        "narrow-bump": (
            ("1 + 50*exp(-((x - 0.05)/0.01)^2)", -80.0, 80.0, {}),
            np.array([-80.0, -3.0, 0.0, 0.03, 0.05, 0.0537, 0.07, 0.1, 7.0, 80.0]),
            lambda x: _mp_integral(_bump_sqrt_m, x, breaks=(0.02, 0.05, 0.08)),
        ),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_forward_and_roundtrip_against_oracle(self, case):
        args, xs, f_ref = self.CASES[case]
        mapping = MappingFunction(MassProfile.custom(*args))
        ys = mapping.forward(xs)
        f = np.array([f_ref(x) for x in xs])
        # the narrow bump's table errs by about 6e-17 here; one built at a
        # panel tolerance of 1e-6 errs by 3.7e-13, inside 1e-12 but not this
        bound = 1e-14 * (1.0 + np.abs(f)) if case == "narrow-bump" else 1e-12
        assert np.all(np.abs(ys - f) <= bound)
        # the bisection stops at a bracket of 1e-12 (1 + |x|)
        back = mapping.inverse(ys)
        assert np.all(np.abs(back - xs) <= 1e-12 * (1.0 + np.abs(xs)))

    def test_unresolvable_profile_raises(self):
        profile = MassProfile.custom("1 + 0.5*sin(1e4*x)", -80.0, 80.0)
        with pytest.raises(PctError, match="sin"):
            MappingFunction(profile)
