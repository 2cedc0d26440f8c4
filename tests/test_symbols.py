"""Expression DSL: parsing, evaluation, differentiation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triplex.models import LowerOrderTerms
from triplex.symbols import (
    FUNCTIONS,
    XI,
    Const,
    EvalDomainError,
    ParseError,
    Var,
    X,
    add,
    call,
    differentiate,
    div,
    mul,
    parse_symbol,
    pow_,
    sub,
    x_degree,
)

CORPUS = [
    "1 - cos(x)",
    "(1 - cos(x))^2",
    "t * sin(x) + 0.5",
    "exp(0 - t) * cos(2 * x)",
    "t^3 - 2 * t + 1",
    "sqrt(1 + t^2)",
    "sin(x) / (2 + cos(x))",
    "jp(2 * xi)",
]


def test_parse_evaluate_matches_numpy():
    t, x = 0.7, 1.3
    expected = [
        1 - math.cos(x),
        (1 - math.cos(x)) ** 2,
        t * math.sin(x) + 0.5,
        math.exp(-t) * math.cos(2 * x),
        t**3 - 2 * t + 1,
        math.sqrt(1 + t**2),
        math.sin(x) / (2 + math.cos(x)),
        math.sqrt(1 + (2 * 1.0) ** 2),
    ]
    for text, val in zip(CORPUS, expected):
        got = parse_symbol(text).evaluate(t, x, 1.0)
        assert np.isclose(got, val, rtol=1e-14, atol=1e-14), text


def test_evaluate_broadcasts_arrays():
    expr = parse_symbol("t * (1 - cos(x)) * xi")
    t = np.linspace(0.1, 1.0, 4)[:, None, None]
    x = np.linspace(0.0, 6.0, 5)[None, :, None]
    xi = np.array([1.0, 2.0])[None, None, :]
    got = expr.evaluate(t, x, xi)
    assert np.broadcast_shapes(got.shape, (4, 5, 2)) == (4, 5, 2)
    assert np.allclose(got, t * (1 - np.cos(x)) * xi)


def test_str_round_trip_preserves_values():
    pts = [(0.3, 0.9, 1.0), (1.0, 4.0, 3.0), (0.05, 2.2, 0.5)]
    for text in CORPUS:
        expr = parse_symbol(text)
        back = parse_symbol(str(expr))
        for t, x, xi in pts:
            assert np.isclose(expr.evaluate(t, x, xi), back.evaluate(t, x, xi),
                              rtol=1e-14, atol=1e-14)


_LEAVES = st.one_of(
    st.sampled_from([Var("t"), X, XI]),
    st.floats(allow_nan=False, allow_infinity=False).map(Const),
)


def _nodes(children):
    """Trees built by the constructors: binary ops, integer powers, every function."""
    return st.one_of(
        st.tuples(st.sampled_from([add, sub, mul, div]), children, children),
        st.tuples(st.just(pow_), children, st.integers(min_value=-3, max_value=4)),
        st.tuples(st.just(call), st.sampled_from(FUNCTIONS), children),
    ).map(lambda node: node[0](*node[1:]))


@settings(max_examples=300, deadline=None)
@given(st.recursive(_LEAVES, _nodes, max_leaves=12))
def test_str_is_inside_the_grammar_and_parses_back_to_the_same_tree(expr):
    text = str(expr)
    assert parse_symbol(text) == expr
    assert parse_symbol(text.replace("^", "**")) == expr


@pytest.mark.parametrize("seed", range(4))
def test_random_lower_order_terms_print_inside_the_grammar(seed):
    lot = LowerOrderTerms.random_trig(seed)
    for expr in (lot.b10, lot.b11, lot.b12):
        assert parse_symbol(str(expr)) == expr


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(CORPUS),
    st.sampled_from(["t", "x"]),
    st.floats(min_value=0.05, max_value=1.0),
    st.floats(min_value=0.1, max_value=6.0),
)
def test_derivative_matches_central_difference(text, var, t, x):
    expr = parse_symbol(text)
    d = differentiate(expr, var, 1)
    h = 1e-5
    if var == "t":
        fd = (expr.evaluate(t + h, x, 1.0) - expr.evaluate(t - h, x, 1.0)) / (2 * h)
    else:
        fd = (expr.evaluate(t, x + h, 1.0) - expr.evaluate(t, x - h, 1.0)) / (2 * h)
    exact = d.evaluate(t, x, 1.0)
    assert abs(exact - fd) <= 1e-7 * (1.0 + abs(exact))


def test_second_derivative_of_polynomial_is_exact():
    expr = parse_symbol("t^3 - 2 * t + 1")
    d2 = differentiate(expr, "t", 2)
    for t in (0.0, 0.5, 2.0):
        assert np.isclose(d2.evaluate(t, 0.0, 1.0), 6 * t, rtol=0, atol=1e-13)


def test_derivative_order_is_capped():
    with pytest.raises(ValueError):
        differentiate(parse_symbol("t^2"), "t", 5)


def test_xi_derivative_of_jp():
    expr = call("jp", XI)
    d = differentiate(expr, "xi", 1)
    for xi in (0.5, 1.0, 8.0):
        assert np.isclose(d.evaluate(0.0, 0.0, xi), xi / math.sqrt(1 + xi**2),
                          rtol=1e-13, atol=0)


def test_operators_build_expressions():
    expr = (Const(2.0) * X - call("sin", X)) / (Const(1.0) + XI**2)
    x, xi = 0.8, 2.0
    assert np.isclose(expr.evaluate(0.0, x, xi),
                      (2 * x - math.sin(x)) / (1 + xi**2), rtol=1e-14)
    neg = -Var("t")
    assert neg.evaluate(3.0, 0.0, 1.0) == -3.0


def test_double_star_is_an_alias_of_caret():
    assert parse_symbol("(1 - cos(x)) ** 2") == parse_symbol("(1 - cos(x))^2")
    assert parse_symbol("t**-2 * x") == parse_symbol("t^-2 * x")


@pytest.mark.parametrize("bad", ["", "1 +", "cos(", "t $ x", "foo(t)", "(1))", "x *** 2", "x ** 0.5"])
def test_parse_errors(bad):
    with pytest.raises(ParseError):
        parse_symbol(bad)


def test_domain_errors_surface():
    with pytest.raises(EvalDomainError):
        parse_symbol("sqrt(t - 2)").evaluate(0.0, 0.0, 1.0)
    with pytest.raises(EvalDomainError):
        parse_symbol("1 / (t - 1)").evaluate(1.0, 0.0, 1.0)


def test_division_derivative_quotient_rule():
    expr = parse_symbol("sin(x) / (2 + cos(x))")
    d = differentiate(expr, "x", 1)
    x = 1.1
    num = math.cos(x) * (2 + math.cos(x)) + math.sin(x) ** 2
    assert np.isclose(d.evaluate(0.0, x, 1.0), num / (2 + math.cos(x)) ** 2,
                      rtol=1e-13)


@pytest.mark.parametrize("text, degree", [
    ("cos(3 * x)", 3),
    ("sin(2 * x + t)", 2),
    ("cos(x) * sin(2 * x)", 3),          # a product adds degrees
    ("(1 - cos(x))^2", 2),
    ("cos(x) - 2 * sin(x)^3", 3),        # a sum takes the larger degree
    ("cos(x) / (1 + t^2)", 1),           # a quotient by a term free of x
    ("t^2 * jp(xi) + exp(t) / sqrt(1 + xi^2)", 0),
    ("t^-1", 0),
    ("x", None),
    ("exp(cos(x))", None),
    ("1 / (2 + cos(x))", None),
    ("cos(x)^-1", None),
    ("cos(x * t)", None),
    ("sqrt(2 + cos(x))", None),
])
def test_x_degree_reads_the_trig_degree_off_the_tree(text, degree):
    assert x_degree(parse_symbol(text)) == degree


def test_x_degree_of_gallery_and_lower_order_symbols():
    from triplex.models import gallery

    model = gallery("g_E")
    a = model.a_expr
    assert (x_degree(a), x_degree(model.b), x_degree(a * a)) == (2, 1, 4)
    assert x_degree(gallery("g_strict").a_expr) == 0
    lot = LowerOrderTerms.random_trig(0)
    assert [x_degree(e) for e in (lot.b10, lot.b11, lot.b12)] == [2, 2, 2]
