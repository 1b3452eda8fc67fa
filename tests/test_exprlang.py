import math
import random

import numpy as np
import pytest

import shiftop.exprlang as ex


def fd(e, t, h=1e-6):
    return (ex.evaluate(e, t + h) - ex.evaluate(e, t - h)) / (2 * h)


class TestParse:
    def test_variable(self):
        assert ex.parse("t") == ex.Var()

    def test_grammar_tree(self):
        e = ex.parse("2 - 1.9*sin(pi*t)")
        expected = ex.Binary("-", ex.Num(2.0),
                             ex.Binary("*", ex.Num(1.9),
                                       ex.Unary("sin", ex.Binary("*", ex.Pi(), ex.Var()))))
        assert e == expected

    def test_hand_evaluation(self):
        assert ex.evaluate(ex.parse("t + 0.1*sin(2*pi*t)"), 0.25) == pytest.approx(0.35, abs=1e-15)

    def test_whitespace_insensitive(self):
        assert ex.parse(" 1+2*t ") == ex.parse("1 + 2 * t")

    def test_precedence(self):
        # ^ > neg > * / > + -
        assert ex.evaluate(ex.parse("-2^2"), 0.0) == -4.0
        assert ex.evaluate(ex.parse("2+3*4"), 0.0) == 14.0
        assert ex.evaluate(ex.parse("-2*3"), 0.0) == -6.0
        assert ex.evaluate(ex.parse("2^3^2"), 0.0) == 64.0  # left associative

    def test_left_associativity(self):
        assert ex.evaluate(ex.parse("10-2-3"), 0.0) == 5.0
        assert ex.evaluate(ex.parse("16/4/2"), 0.0) == 2.0

    def test_unary_minus_exponent(self):
        assert ex.evaluate(ex.parse("2^-1"), 0.0) == 0.5

    def test_syntax_error_offset(self):
        with pytest.raises(ex.ParseError) as err:
            ex.parse("1 + $")
        assert err.value.offset == 4

    def test_unknown_identifier(self):
        with pytest.raises(ex.ParseError, match="unknown identifier"):
            ex.parse("foo(t)")

    def test_arity_mismatch(self):
        with pytest.raises(ex.ParseError, match="exactly one argument"):
            ex.parse("sin(t, 1)")

    def test_variable_exponent_rejected(self):
        with pytest.raises(ex.ParseError, match="exponent"):
            ex.parse("2^t")

    def test_empty(self):
        with pytest.raises(ex.ParseError):
            ex.parse("   ")


class TestEval:
    def test_constant(self):
        assert ex.evaluate(ex.parse("1"), 0.7) == 1.0

    def test_sin_quarter(self):
        assert ex.evaluate(ex.parse("sin(2*pi*t)"), 0.25) == pytest.approx(1.0, abs=1e-15)

    def test_hand_value(self):
        assert ex.evaluate(ex.parse("2-1.9*sin(pi*t)"), 0.5) == pytest.approx(0.1, abs=1e-12)

    def test_log_domain_error(self):
        with pytest.raises(ex.EvalDomainError, match="log"):
            ex.evaluate(ex.parse("log(t)"), -1.0)

    def test_sqrt_domain_error(self):
        with pytest.raises(ex.EvalDomainError, match="sqrt"):
            ex.evaluate(ex.parse("sqrt(t)"), -4.0)

    def test_division_by_zero(self):
        with pytest.raises(ex.EvalDomainError, match="division"):
            ex.evaluate(ex.parse("1/t"), 0.0)

    def test_array_path_matches_scalar(self):
        e = ex.parse("exp(cos(2*pi*t)) - t^2")
        fn = ex.as_function(e)
        ts = np.linspace(0, 1, 17)
        vals = fn(ts)
        for t, v in zip(ts, vals):
            assert v == pytest.approx(ex.evaluate(e, float(t)), rel=1e-15)


class TestDifferentiate:
    def test_identity(self):
        assert ex.differentiate(ex.parse("t")) == ex.Num(1.0)

    def test_chain_rule_at_zero(self):
        d = ex.differentiate(ex.parse("t + 0.1*sin(2*pi*t)"))
        assert ex.evaluate(d, 0.0) == pytest.approx(1 + 0.2 * math.pi, rel=1e-14)

    def test_chain_rule_at_half(self):
        d = ex.differentiate(ex.parse("t + 0.1*sin(2*pi*t)"))
        assert ex.evaluate(d, 0.5) == pytest.approx(1 - 0.2 * math.pi, rel=1e-14)

    def test_abs_sign_rule(self):
        d = ex.differentiate(ex.parse("abs(t)"))
        assert ex.evaluate(d, 2.0) == 1.0
        assert ex.evaluate(d, -2.0) == -1.0
        with pytest.raises(ex.EvalDomainError):
            ex.evaluate(d, 0.0)

    def test_quotient_and_power(self):
        e = ex.parse("(t^3 + 1)/(t + 2)")
        d = ex.differentiate(e)
        for t in (0.1, 0.5, 0.9):
            assert ex.evaluate(d, t) == pytest.approx(fd(e, t), rel=1e-6)


def random_expr(rng, depth=0):
    """Random expression without abs/log/sqrt (smooth for FD comparison)."""
    leaves = [lambda: ex.Num(round(rng.uniform(0.2, 1.5), 3)),
              lambda: ex.Var(), lambda: ex.Pi()]
    if depth >= 4 or rng.random() < 0.3:
        return rng.choice(leaves)()
    kind = rng.random()
    if kind < 0.35:
        op = rng.choice(["sin", "cos", "exp", "neg"])
        arg = random_expr(rng, depth + 1)
        if op == "exp":  # keep magnitudes tame
            arg = ex.Binary("*", ex.Num(0.2), arg)
        return ex.Unary(op, arg)
    if kind < 0.9:
        op = rng.choice(["+", "-", "*"])
        return ex.Binary(op, random_expr(rng, depth + 1), random_expr(rng, depth + 1))
    return ex.Binary("^", random_expr(rng, depth + 1), ex.Num(float(rng.randint(1, 2))))


def fd_check(e, d, t):
    """(usable, ok): compare symbolic derivative against central differences,
    skipping magnitudes where the FD oracle itself loses precision."""
    try:
        vals = [ex.evaluate(e, t - 1e-6), ex.evaluate(e, t + 1e-6)]
        ref = (vals[1] - vals[0]) / 2e-6
        got = ex.evaluate(d, t)
    except ex.ExprError:
        return False, True
    if not all(math.isfinite(v) and abs(v) < 1e4 for v in vals + [ref]):
        return False, True
    return True, abs(got - ref) <= 1e-6 * (1.0 + abs(ref))


class TestProperties:
    def test_roundtrip_and_derivative_500(self):
        rng = random.Random(20240811)
        checked = 0
        for _ in range(500):
            e = random_expr(rng)
            assert ex.parse(ex.serialize(e)) == e
            d = ex.differentiate(e)
            t = rng.uniform(0.0, 1.0)
            usable, ok = fd_check(e, d, t)
            assert ok
            checked += usable
        assert checked >= 400


def same_bits(x, y) -> bool:
    return float(x).hex() == float(y).hex()


class TestFloatOrArray:
    """A float in gives a float out; an ndarray in gives the same shape out."""

    def test_random_expressions_float_matches_array(self):
        rng = random.Random(20261018)
        xs = np.concatenate([np.linspace(-1.0, 2.0, 29), [0.0, 0.5, 1.0]])
        for _ in range(300):
            fn = ex.as_function(random_expr(rng))
            vals = fn(xs)
            assert isinstance(vals, np.ndarray) and vals.shape == xs.shape
            for x, v in zip(xs, vals):
                got = fn(float(x))
                assert isinstance(got, float)
                assert same_bits(got, v)

    @pytest.mark.parametrize("text", ["2", "pi", "2*pi - 1", "sin(1)^2", "t", "1 + 0*t"])
    def test_shapes_including_constants(self, text):
        fn = ex.as_function(ex.parse(text))
        assert isinstance(fn(0.25), float)
        for shape in ((5,), (2, 3)):
            out = fn(np.full(shape, 0.25))
            assert isinstance(out, np.ndarray) and out.shape == shape
            assert all(same_bits(v, fn(0.25)) for v in out.ravel())


class TestFindZeros:
    def test_sine_zeros_half_open(self):
        hits = ex.find_zeros(ex.parse("sin(2*pi*t)"), 0.0, 1.0)
        locs = [h.location for h in hits if h.kind != "interval"]
        assert len(locs) == 2
        assert locs[0] == pytest.approx(0.0, abs=1e-12)
        assert locs[1] == pytest.approx(0.5, abs=1e-12)

    def test_constant_no_zeros(self):
        assert ex.find_zeros(ex.parse("1"), 0.0, 1.0) == []

    def test_positive_min_no_zeros(self):
        assert ex.find_zeros(ex.parse("2-1.9*sin(pi*t)"), 0.0, 1.0) == []

    def test_trig_poly_degree3_complete(self):
        # 8 roots of a degree-3 trigonometric polynomial, against numpy scan
        e = ex.parse("sin(2*pi*t)*(cos(2*pi*t)-0.3)*(sin(2*pi*t)-0.7)+0.05")
        fn = ex.as_function(e)
        ts = np.linspace(0, 1, 200001)
        vals = fn(ts)
        ref = []
        for i in range(len(ts) - 1):
            if vals[i] == 0 or (vals[i] < 0) != (vals[i + 1] < 0):
                lo_, hi_ = ts[i], ts[i + 1]
                for _ in range(60):
                    mid = 0.5 * (lo_ + hi_)
                    if (fn(lo_) < 0) != (fn(mid) < 0):
                        hi_ = mid
                    else:
                        lo_ = mid
                ref.append(0.5 * (lo_ + hi_))
        got = [h.location for h in ex.find_zeros(e, 0.0, 1.0) if h.kind != "interval"]
        assert len(got) == len(ref)
        for g, r in zip(got, ref):
            assert g == pytest.approx(r, abs=1e-9)

    def test_tangential_zero_flagged(self):
        hits = ex.find_zeros(ex.parse("(sin(2*pi*t))^2"), 0.2, 0.8)
        tang = [h for h in hits if h.kind == "tangential"]
        assert len(tang) == 1
        assert tang[0].location == pytest.approx(0.5, abs=1e-8)
        assert tang[0].certain()

    def test_flat_interval_record(self):
        fn = lambda x: np.maximum(0.0, np.asarray(x) - 0.5) ** 3
        hits = ex.find_zeros(fn, 0.0, 1.0)
        ivals = [h for h in hits if h.kind == "interval"]
        assert len(ivals) == 1
        assert ivals[0].lo == pytest.approx(0.0, abs=1e-6)
        assert ivals[0].hi == pytest.approx(0.5, abs=1e-2)

    def test_domain_error_inside(self):
        with pytest.raises(ex.EvalDomainError):
            ex.find_zeros(ex.parse("log(t-0.5)"), 0.0, 1.0)


class TestFn:
    def test_nodes_compute_the_plain_floats(self):
        ea, eb = ex.parse("2+sin(2*pi*t)"), ex.parse("cos(2*pi*t)")
        fa, fb = ex.as_function(ea), ex.as_function(eb)
        a, b = ex.Fn.of(ea, "a"), ex.Fn.of(eb, "b")
        ts = np.linspace(0.0, 1.0, 9)
        for node, plain in ((a - b, fa(ts) - fb(ts)), (-b, -fb(ts)), (a * b, fa(ts) * fb(ts)),
                            (abs(b) + a, np.abs(fb(ts)) + fa(ts)), (1.0 / a, 1.0 / fa(ts))):
            assert all(same_bits(x, y) for x, y in zip(node(ts), plain))

    def test_leaf_names_label_subexpression_and_point(self):
        a = ex.Fn.of(ex.parse("1+log(t-0.5)"), "a")
        with pytest.raises(ex.EvalDomainError, match=r"^a: log of non-positive value in "
                                                     r"log\(\(t - 0.5\)\) at t=0.25$"):
            a(np.array([0.75, 0.25]))

    @pytest.mark.parametrize("t", [0.5, np.array([0.25, 0.5])])
    def test_quotient_by_zero_is_named(self, t):
        # Python floats as well as arrays: no ZeroDivisionError, no warning
        q = ex.Fn.of(lambda x: 1.0, "a") / ex.Fn.of(lambda x: x - 0.5, "b")
        message = r"^\(a / b\): non-finite evaluation at t=0.5$"
        with pytest.raises(ex.EvalDomainError, match=message):
            q(t)


class TestCheckFinite:
    def test_finite_passes(self):
        xs = np.linspace(0.0, 1.0, 5)
        ex.check_finite(ex.parse("t"), xs, xs)

    def test_expr_names_node(self):
        e = ex.parse("1+log(t-0.5)")
        xs = np.linspace(0.0, 1.0, 5)
        with pytest.raises(ex.EvalDomainError, match=r"log\(\(t - 0.5\)\) at t=0.0"):
            ex.check_finite(e, xs, ex.as_function(e)(xs))

    def test_callable_reports_first_bad_point(self):
        xs = np.array([0.1, 0.2, 0.3])
        with pytest.raises(ex.EvalDomainError, match="t=0.2") as err:
            ex.check_finite(lambda t: t, xs, np.array([1.0, np.inf, np.nan]))
        assert err.value.t == 0.2

    def test_scalar(self):
        with pytest.raises(ex.EvalDomainError, match="t=0.5"):
            ex.check_finite(lambda t: t, 0.5, float("nan"))


class TestPeriodicity:
    def test_periodic(self):
        assert ex.is_periodic(ex.parse("sin(2*pi*t)"))
        assert ex.is_periodic(ex.parse("2-1.9*sin(pi*t)"))

    def test_not_periodic(self):
        assert not ex.is_periodic(ex.parse("t"))

    @pytest.mark.parametrize("text", ["1/sin(2*pi*t)", "log(t)"])
    def test_infinite_at_zero_not_periodic(self, text):
        # inf <= inf once let these through
        assert not ex.is_periodic(ex.parse(text))
