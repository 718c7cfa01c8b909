import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from pctsolve import qmath
from pctsolve.errors import ArgumentError, DomainError, PoleError, RangeOverflowError


class TestDeformedHyperbolics:
    @given(
        st.floats(-5, 5),
        st.floats(0.01, 10),
    )
    def test_fundamental_identity(self, x, q):
        c = qmath.cosh_q(x, q)
        s = qmath.sinh_q(x, q)
        scale = max(1.0, c * c, s * s)
        assert abs(c * c - s * s - q) <= 1e-12 * scale

    def test_q1_reduces_to_standard(self):
        xs = np.linspace(-4, 4, 41)
        assert np.allclose(qmath.cosh_q(xs, 1.0), np.cosh(xs), rtol=1e-14)
        assert np.allclose(qmath.sinh_q(xs, 1.0), np.sinh(xs), rtol=1e-14)
        assert np.allclose(qmath.tanh_q(xs, 1.0), np.tanh(xs), rtol=1e-13)

    def test_sinh_zero_and_cosh_minimum_at_half_log_q(self):
        q = 3.7
        x0 = math.log(q) / 2
        assert abs(qmath.sinh_q(x0, q)) < 1e-15
        assert qmath.cosh_q(x0, q) == pytest.approx(math.sqrt(q), rel=1e-15)
        # the minimum of cosh_q is sqrt(q)
        xs = np.linspace(-3, 3, 301)
        assert np.all(qmath.cosh_q(xs, q) >= math.sqrt(q) - 1e-12)

    def test_shift_identity(self):
        # sinh_q(x0 + v) = sqrt(q) sinh(v), cosh_q(x0 + v) = sqrt(q) cosh(v)
        q = 2.5
        x0 = math.log(q) / 2
        v = np.linspace(-2, 2, 21)
        assert np.allclose(
            qmath.sinh_q(x0 + v, q), math.sqrt(q) * np.sinh(v), rtol=1e-13
        )
        assert np.allclose(
            qmath.cosh_q(x0 + v, q), math.sqrt(q) * np.cosh(v), rtol=1e-13
        )

    def test_ratios(self):
        x, q = 0.7, 1.8
        assert qmath.tanh_q(x, q) == pytest.approx(
            qmath.sinh_q(x, q) / qmath.cosh_q(x, q)
        )
        assert qmath.coth_q(x, q) == pytest.approx(1.0 / qmath.tanh_q(x, q))
        assert qmath.sech_q(x, q) == pytest.approx(1.0 / qmath.cosh_q(x, q))
        assert qmath.csch_q(x, q) == pytest.approx(1.0 / qmath.sinh_q(x, q))

    def test_pole_raises(self):
        q = 4.0
        with pytest.raises(PoleError):
            qmath.coth_q(math.log(q) / 2, q)
        with pytest.raises(PoleError):
            qmath.csch_q(math.log(q) / 2, q)

    def test_overflow_raises(self):
        with pytest.raises(RangeOverflowError):
            qmath.cosh_q(800.0, 1.0)

    def test_ratios_finite_where_cosh_q_overflows(self):
        assert qmath.tanh_q(800.0, 1.0) == 1.0
        assert qmath.coth_q(800.0, 1.0) == 1.0
        assert qmath.sech_q(800.0, 1.0) == 0.0
        assert qmath.csch_q(800.0, 1.0) == 0.0
        assert qmath.tanh_q(-800.0, 2.0) == -1.0

    @pytest.mark.parametrize("q", [0.0, -1.0, math.inf, math.nan])
    @pytest.mark.parametrize(
        "name",
        ["cosh_q", "sinh_q", "tanh_q", "coth_q", "sech_q", "csch_q", "sech_sq_q",
         "csch_sq_q", "log_cosh_q", "log_sinh_q", "arcsinh_q", "arccosh_q"],
    )
    def test_q_must_be_finite_and_positive(self, name, q):
        with pytest.raises(DomainError, match="q finite and > 0"):
            getattr(qmath, name)(2.0, q)

    def test_scalar_in_scalar_out(self):
        assert isinstance(qmath.cosh_q(0.3, 2.0), float)
        assert isinstance(qmath.cosh_q(np.array([0.3]), 2.0), np.ndarray)


def _mp_cosh_sinh(x, q):
    x, q = mpmath.mpf(float(x)), mpmath.mpf(q)
    ex, emx = mpmath.exp(x), mpmath.exp(-x)
    return (ex + q * emx) / 2, (ex - q * emx) / 2


class TestOverflowSafeForms:
    """The ratio, square and log forms against 50-digit mpmath, out to
    |x| = 700 where e^{2x} (and, past 710, e^x) overflows a double."""

    @staticmethod
    def points(q):
        xs = np.concatenate([np.linspace(-700, 700, 141), np.linspace(-4, 4, 81)])
        return xs[np.abs(xs - math.log(q) / 2) >= 0.05]  # clear of the pole

    @staticmethod
    def check(got, ref, floor):
        # |got - ref| <= 1e-12 max(|ref|, floor), plus the smallest normal
        # double where the true value underflows (sech^2 for |x| > ~354)
        tiny = np.finfo(float).tiny
        for g, r in zip(np.atleast_1d(got), ref):
            err = abs(mpmath.mpf(float(g)) - r)
            assert err <= 1e-12 * max(abs(r), floor) + tiny, (g, r)

    @pytest.mark.parametrize("q", [0.05, 0.5, 1.0, 2.0, 8.0])
    def test_ratios_and_squares_relative_error(self, q):
        xs = self.points(q)
        with mpmath.workdps(50):
            cs = [_mp_cosh_sinh(x, q) for x in xs]
            self.check(qmath.tanh_q(xs, q), [s / c for c, s in cs], 0.0)
            self.check(qmath.coth_q(xs, q), [c / s for c, s in cs], 0.0)
            self.check(qmath.sech_sq_q(xs, q), [1 / c**2 for c, s in cs], 0.0)
            self.check(qmath.csch_sq_q(xs, q), [1 / s**2 for c, s in cs], 0.0)

    @pytest.mark.parametrize("q", [0.05, 0.5, 1.0, 2.0, 8.0])
    def test_logs(self, q):
        # the absolute error of ln cosh_q is the relative error of cosh_q,
        # so near the zero of the log the bound is absolute
        xs = self.points(q)
        upper = xs[xs > math.log(q) / 2]
        with mpmath.workdps(50):
            ref = [mpmath.log(_mp_cosh_sinh(x, q)[0]) for x in xs]
            self.check(qmath.log_cosh_q(xs, q), ref, 1.0)
            ref = [mpmath.log(_mp_cosh_sinh(x, q)[1]) for x in upper]
            self.check(qmath.log_sinh_q(upper, q), ref, 1.0)


class TestInverses:
    @given(st.floats(-20, 20), st.floats(0.05, 8))
    def test_arcsinh_roundtrip(self, y, q):
        x = qmath.arcsinh_q(y, q)
        assert qmath.sinh_q(x, q) == pytest.approx(y, rel=1e-12, abs=1e-12)

    def test_arcsinh_stable_for_large_negative(self):
        # naive log(y + sqrt(y^2+q)) loses all digits near y = -1e8
        y, q = -1e8, 2.0
        x = qmath.arcsinh_q(y, q)
        assert qmath.sinh_q(x, q) == pytest.approx(y, rel=1e-12)

    @given(st.floats(0.05, 8), st.floats(0.001, 15))
    def test_arccosh_roundtrip(self, q, dv):
        y = qmath.cosh_q(math.log(q) / 2 + dv, q)
        x = qmath.arccosh_q(y, q)
        assert x == pytest.approx(math.log(q) / 2 + dv, rel=1e-9, abs=1e-9)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            qmath.arccosh_q(0.5, 1.0)  # below the minimum of cosh_q
        with pytest.raises(DomainError):
            qmath.arcsinh_q(0.0, -1.0)


class TestPolynomials:
    def test_laguerre_low_orders(self):
        z = np.linspace(0.0, 10.0, 11)
        t = 1.7
        assert np.allclose(qmath.laguerre_assoc(0, t, z), np.ones_like(z))
        assert np.allclose(qmath.laguerre_assoc(1, t, z), 1 + t - z)
        l2 = 0.5 * (z * z - 2 * (t + 2) * z + (t + 1) * (t + 2))
        assert np.allclose(qmath.laguerre_assoc(2, t, z), l2, rtol=1e-13)

    def test_laguerre_against_mpmath(self):
        for n in (0, 1, 3, 5):
            for z in (0.1, 1.0, 4.5, 12.0):
                ref = float(mpmath.laguerre(n, 2.3, z))
                assert qmath.laguerre_assoc(n, 2.3, z) == pytest.approx(ref, rel=1e-12)

    def test_jacobi_low_orders(self):
        z = np.linspace(-1, 1, 21)
        a, b = 0.8, 1.9
        assert np.allclose(qmath.jacobi(0, a, b, z), np.ones_like(z))
        p1 = 0.5 * (a - b) + 0.5 * (a + b + 2) * z
        assert np.allclose(qmath.jacobi(1, a, b, z), p1, rtol=1e-13)

    def test_jacobi_against_mpmath(self):
        for n in (2, 4, 6):
            for z in (-0.7, 0.0, 0.3, 0.95):
                ref = float(mpmath.jacobi(n, 1.2, 0.4, z))
                assert qmath.jacobi(n, 1.2, 0.4, z) == pytest.approx(ref, rel=1e-12)

    def test_degree_validation(self):
        with pytest.raises(ArgumentError):
            qmath.laguerre_assoc(-1, 1.0, 0.5)
        with pytest.raises(ArgumentError):
            qmath.jacobi(2.5, 1.0, 1.0, 0.5)
