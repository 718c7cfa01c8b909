import contextlib
import gc
import math
import warnings

import numpy as np
import pytest
from conftest import assert_value_matches_jet
from exprsource import to_source
from hypothesis import given, settings, strategies as st

from pctsolve import exprlang
from pctsolve.errors import (
    DomainError,
    ExprSyntaxError,
    PctError,
    PoleError,
    UnboundParameterError,
    UnknownFunctionError,
)
from pctsolve.exprlang import (
    BinOp,
    Call,
    Neg,
    Num,
    Param,
    Var,
    eval_jet,
    eval_value,
    parse,
)
from pctsolve.massmodel import MassProfile


def value_at(source, x, params=None):
    return eval_jet(parse(source), x, params).value


class TestParser:
    def test_precedence(self):
        assert value_at("2+3*4", 0.0) == 14.0
        assert value_at("2*3^2", 0.0) == 18.0
        assert value_at("2^3^2", 0.0) == 512.0  # right-associative
        assert value_at("2-3-4", 0.0) == -5.0  # left-associative
        assert value_at("-2^2", 0.0) == -4.0  # unary minus binds looser than ^

    def test_ast_shape(self):
        ast = parse("a*x + sin(x)")
        assert ast == BinOp(
            "+", BinOp("*", Param("a"), Var()), Call("sin", Var())
        )

    def test_whitespace_and_scientific_notation(self):
        assert value_at(" 1.5e2 +  x ", 0.5) == 150.5

    def test_syntax_error_offsets(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse("1 + $")
        assert err.value.offset == 4
        with pytest.raises(ExprSyntaxError) as err:
            parse("sin(x")
        assert ")" in err.value.expected
        with pytest.raises(ExprSyntaxError):
            parse("1 + ")
        with pytest.raises(ExprSyntaxError):
            parse("1 2")

    def test_unknown_function(self):
        with pytest.raises(UnknownFunctionError):
            parse("sinc(x)")

    def test_function_requires_call(self):
        with pytest.raises(ExprSyntaxError):
            parse("sin + 1")

    def test_unbound_parameter(self):
        with pytest.raises(UnboundParameterError):
            eval_jet(parse("a*x"), 1.0, {})
        with pytest.raises(UnboundParameterError):
            eval_jet(parse("sinhq(x)"), 1.0, {})  # needs q


class TestPrinter:
    @pytest.mark.parametrize(
        "source",
        [
            "x",
            "1.0+x",
            "-(x+1.0)",
            "(x+1.0)*(x-2.0)",
            "x^2.0",
            "(x+1.0)^2.0",
            "2.0^(x+1.0)",
            "x/(1.0+x)",
            "x-(1.0-x)",
            "sin(cos(x))",
            "tanhq(0.5*x)^2.0",
            "-x^2.0",
        ],
    )
    def test_roundtrip(self, source):
        ast = parse(source)
        assert parse(to_source(ast)) == ast

    def test_roundtrip_preserves_value(self):
        source = "1.0/(2.0-x)-(3.0-x)*x^2.0"
        xs = np.linspace(-1, 1, 7)
        a = eval_jet(parse(source), xs).value
        b = eval_jet(parse(to_source(parse(source))), xs).value
        assert np.array_equal(a, b)


def fd_derivatives(source, x, params=None, h=1e-4):
    f = lambda t: eval_jet(parse(source), t, params).value
    d1 = (-f(x + 2 * h) + 8 * f(x + h) - 8 * f(x - h) + f(x - 2 * h)) / (12 * h)
    d2 = (
        -f(x + 2 * h) + 16 * f(x + h) - 30 * f(x) + 16 * f(x - h) - f(x - 2 * h)
    ) / (12 * h * h)
    return d1, d2


class TestJets:
    @pytest.mark.parametrize(
        "source,params",
        [
            ("x^3 - 2*x + 1", None),
            ("sin(2*x)*cos(x)", None),
            ("exp(0.5*x)/(2+x)", None),
            ("ln(3+x)*sqrt(4+x)", None),
            ("tanh(x) + coth(3+x)", None),
            ("sinhq(x)+coshq(0.5*x)", {"q": 2.0}),
            ("tanhq(x)^2", {"q": 0.7}),
            ("sechq(x)*cschq(4+x)", {"q": 1.5}),
            ("(2+x)^2.5", None),
            ("a*x^2 + b", {"a": 3.0, "b": -1.0, "q": 1.0}),
        ],
    )
    def test_against_finite_differences(self, source, params):
        for x in (-0.8, 0.3, 1.1):
            jet = eval_jet(parse(source), x, params)
            d1, d2 = fd_derivatives(source, x, params)
            assert jet.d1 == pytest.approx(d1, rel=1e-7, abs=1e-7)
            assert jet.d2 == pytest.approx(d2, rel=1e-5, abs=1e-5)

    @given(st.lists(st.floats(-3, 3), min_size=3, max_size=3), st.floats(-2, 2))
    def test_polynomial_derivatives_exact(self, coeffs, x):
        a, b, c = coeffs
        src = f"{a}*x^2 + {b}*x + {c}"
        jet = eval_jet(parse(src), x)
        assert jet.d1 == pytest.approx(2 * a * x + b, rel=1e-12, abs=1e-9)
        assert jet.d2 == pytest.approx(2 * a, rel=1e-12, abs=1e-9)

    def test_array_evaluation(self):
        xs = np.linspace(-1, 1, 9)
        jet = eval_jet(parse("sin(x)"), xs)
        assert np.allclose(jet.value, np.sin(xs))
        assert np.allclose(jet.d1, np.cos(xs))
        assert np.allclose(jet.d2, -np.sin(xs))

    def test_evaluation_leaves_no_reference_cycle(self):
        # a cycle would keep x's jets alive until the cyclic GC runs
        ast = parse("1/(1 + a*x^2)")
        xs = np.linspace(-80.0, 80.0, 40001)
        gc.collect()
        gc.disable()
        try:
            eval_jet(ast, xs, {"a": 0.25})
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_integer_power_of_negative_base(self):
        jet = eval_jet(parse("x^3"), -2.0)
        assert jet.value == -8.0 and jet.d1 == 12.0 and jet.d2 == -12.0

    def test_coth_far_from_the_origin(self):
        # cosh/sinh is inf/inf past |u| ~ 710; coth itself is +-1 there
        jet = eval_jet(parse("coth(x)"), np.array([-800.0, 2.0, 800.0]))
        assert np.allclose(jet.value, [-1.0, 1.0 / np.tanh(2.0), 1.0])
        assert np.all(np.isfinite(jet.d1)) and np.all(np.isfinite(jet.d2))
        profile = MassProfile.custom("coth(x)^2", 1, 800)
        assert profile.mass(800.0) == pytest.approx(1.0)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            eval_jet(parse("ln(x)"), -1.0)
        with pytest.raises(DomainError):
            eval_jet(parse("sqrt(x)"), -4.0)
        with pytest.raises(DomainError):
            eval_jet(parse("1/x"), 0.0)
        with pytest.raises(DomainError):
            eval_jet(parse("x^0.5"), -1.0)

    def test_general_power(self):
        # x^x via exp(x ln x) path: d/dx = x^x (ln x + 1)
        jet = eval_jet(parse("x^x"), 1.5)
        v = 1.5**1.5
        assert jet.value == pytest.approx(v)
        assert jet.d1 == pytest.approx(v * (np.log(1.5) + 1), rel=1e-12)


def _expressions():
    """ASTs over x, a parameter and every function, with exponents that may
    contain x, and leaves at which powers and functions overflow or
    underflow."""
    leaves = st.one_of(
        st.builds(
            Num,
            st.sampled_from(
                [-2.5, -1.0, 0.0, 0.5, 1.0, 2.0, 3.0, 1e300, -1e300, 1e-300, 1e200, 400.0, -400.0]
            ),
        ),
        st.just(Var()),
        st.just(Param("a")),
    )

    def extend(child):
        exponent = st.one_of(
            child, st.builds(Num, st.sampled_from([-2.0, -1.0, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0]))
        )
        return st.one_of(
            st.builds(Neg, child),
            st.builds(BinOp, st.sampled_from("+-*/"), child, child),
            st.builds(BinOp, st.just("^"), child, exponent),
            st.builds(Call, st.sampled_from(sorted(exprlang.FUNCTION_NAMES)), child),
        )

    return st.recursive(leaves, extend, max_leaves=8)


#: x values including the zeros and integers where generated expressions
#: hit ln(0), 1/0, poles and integer-power branches
_XS = np.array([-3.0, -1.0, -0.5, 0.0, 0.25, 1.0, 2.0, 3.0])


class TestValueWalk:
    """eval_value is eval_jet's value alone: the same bits, the same errors
    where the value is undefined."""

    @settings(max_examples=300, deadline=None)
    @given(
        _expressions(),
        st.floats(-3, 3),
        st.floats(-2, 2),
        st.sampled_from([0.5, 1.0, 2.0]),
    )
    def test_generated_expressions(self, ast, x, a, q):
        params = {"a": a, "q": q}
        for at in (x, _XS, np.append(_XS, x)):
            assert_value_matches_jet(
                lambda: eval_value(ast, at, params), lambda: eval_jet(ast, at, params)
            )

    @pytest.mark.parametrize("source", ["ln(a)", "ln(ln(a))", "x + ln(a)", "a^a + x^x"])
    def test_tiny_positive_argument(self, source):
        # a^2 underflows to 0 and a^(a-2) overflows: the jet's second
        # derivative overflows, its value does not
        ast = parse(source)
        for at in (0.0, _XS):
            assert_value_matches_jet(
                lambda: eval_value(ast, at, {"a": 1e-300}), lambda: eval_jet(ast, at, {"a": 1e-300})
            )

    @pytest.mark.parametrize(
        "source",
        [
            "x^(x - x + 1.5)",  # exponent with x, zero derivatives: constant branch
            "x^(x - x + 2)",
            "(2 + x)^(0*x)",
            "(2 + x)^(sin(x) + 0.5)",
            "x^x",
            "x^-2",
            "x^0",
            "2^x",
        ],
    )
    def test_powers(self, source):
        ast = parse(source)
        for at in (_XS, 0.0, -1.0, 1.5):
            assert_value_matches_jet(lambda: eval_value(ast, at), lambda: eval_jet(ast, at))

    def test_difference_keeps_the_nan_sign(self):
        # inf - inf is a NaN with its sign bit set; subtracting it from x
        # keeps that bit in both walks
        ast = parse("x - (1e300^x - x^1e200)")
        for at in (2.0, _XS):
            assert_value_matches_jet(lambda: eval_value(ast, at), lambda: eval_jet(ast, at))

    @pytest.mark.parametrize(
        "source, params",
        [("x^(0.5/a)", {"a": -3.34e-238}), ("2 + x^(1e200)", {}), ("a^(1e200) + x", {"a": -2.0})],
        ids=["exponent-minus-1.5e237", "exponent-1e200", "scalar-base"],
    )
    def test_huge_integer_exponent(self, source, params):
        # n (n - 1) of a whole-number exponent past 1.34e154 does not fit a
        # float: the jet raises the value's error (1/0 at x = 0 for the
        # first), and otherwise overflows to inf as the value does, without
        # an OverflowError or a warning
        ast = parse(source)
        for at in (0.0, 2.0, _XS):
            assert_value_matches_jet(lambda: eval_value(ast, at, params), lambda: eval_jet(ast, at, params))
            for walk in (eval_value, eval_jet):
                with warnings.catch_warnings(), contextlib.suppress(DomainError):
                    warnings.simplefilter("error")
                    walk(ast, at, params)

    @pytest.mark.parametrize(
        "source, params",
        [
            ("sinhq(x)^(1e300)", {"q": 1.0}),
            ("coshq(x)^(-1e300)", {"q": 1.0}),
            ("a^1000 + x", {"a": 10.0}),
            ("ln(a)*x", {"a": 1e-200}),
        ],
    )
    def test_every_value_is_numpy(self, source, params):
        # a q-function's result, a parameter and a scalar x are float64s, so
        # what overflows is inf and 1/0 is inf also at a scalar x: no
        # OverflowError or ZeroDivisionError, and no warning
        ast = parse(source)
        for at in (2.0, _XS):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                value, jet = eval_value(ast, at, params), eval_jet(ast, at, params)
            assert type(value) is (np.ndarray if np.ndim(at) else np.float64)
            assert_value_matches_jet(lambda: value, lambda: jet)

    @pytest.mark.parametrize("source, x", [("x^(-400)", 0.1), ("x^(-1e200)", 0.5)])
    def test_negative_integer_power_underflow_is_inf(self, source, x):
        # x^|n| underflows to 0 at a nonzero x: the power is +inf, not a
        # division by zero, in both walks and without a warning
        ast = parse(source)
        for at in (x, np.array([x, 1.0])):
            assert_value_matches_jet(lambda: eval_value(ast, at), lambda: eval_jet(ast, at))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                value = eval_value(ast, at)
                eval_jet(ast, at)
            assert np.ravel(value)[0] == np.inf

    @pytest.mark.parametrize("name", sorted(exprlang.FUNCTION_NAMES))
    def test_jet_raises_the_value_error(self, name):
        # a jet takes its value from the function's value function, so where
        # the value raises (overflow, a pole, ln or sqrt of a value <= 0, an
        # invalid q) the jet raises the same error, message included
        ast = parse(f"{name}(x)")
        raised = 0
        for q in (0.5, 1.0, 2.0, -1.0):
            params = {"q": q}
            # x = ln(q)/2 is the pole of cothq and cschq
            for x in (-800.0, -1.0, 0.0, 0.5 * math.log(abs(q)), 800.0):
                for at in (x, np.array([2.5, x])):
                    try:
                        eval_value(ast, at, params)
                    except PctError as exc:
                        with pytest.raises(type(exc)) as err:
                            eval_jet(ast, at, params)
                        assert str(err.value) == str(exc)
                        raised += 1
        assert (raised > 0) == (name not in {"exp", "sin", "cos", "sinh", "cosh", "tanh"})

    def test_nesting_too_deep_is_an_expression_error(self):
        with pytest.raises(ExprSyntaxError, match="nested too deeply"):
            parse("(" * 400 + "x" + ")" * 400)
        ast = parse("+".join(["x"] * 2000))
        for walk in (eval_value, eval_jet):
            with pytest.raises(DomainError, match="nested too deeply"):
                walk(ast, 1.0)

    @pytest.mark.parametrize(
        "source,x,error",
        [
            ("ln(x)", -1.0, DomainError),
            ("sqrt(x)", 0.0, DomainError),
            ("1/(x - 1)", 1.0, DomainError),
            ("x^0.5", -1.0, DomainError),
            ("x^-1", 0.0, DomainError),
            ("coth(x)", 0.0, DomainError),
            ("cothq(x)", 0.0, PoleError),
            ("cschq(x)", 0.0, PoleError),
            ("a*x", 1.0, UnboundParameterError),
        ],
    )
    def test_errors(self, source, x, error):
        params = {"q": 1.0}
        for at in (x, np.array([2.5, x])):
            with pytest.raises(error):
                eval_value(parse(source), at, params)
            with pytest.raises(error):
                eval_jet(parse(source), at, params)
