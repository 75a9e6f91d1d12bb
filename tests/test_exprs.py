"""Prefix-expression grammar: parsing, evaluation, canonical round trip."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vczsim.exprs import (
    ExprError,
    eval_expr,
    expr_to_str,
    expr_variables,
    parse_expr,
    parse_expr_rows,
    parse_expr_sequence,
)


def test_number_and_variables():
    assert eval_expr(parse_expr("2.5"), 0.0) == 2.5
    assert eval_expr(parse_expr("t"), 3.0) == 3.0
    assert eval_expr(parse_expr("x2"), 0.0, [7.0, 9.0]) == 9.0


def test_arithmetic_and_trig():
    e = parse_expr("(+ 5 (* 0.4 t))")
    assert eval_expr(e, 10.0) == pytest.approx(9.0)
    e = parse_expr("(- 5 (* 0.4 t))")
    assert eval_expr(e, 10.0) == pytest.approx(1.0)
    e = parse_expr("(* 5 (sin (* x1 x2)))")
    assert eval_expr(e, 0.0, [2.0, 3.0]) == pytest.approx(5 * math.sin(6.0))
    assert eval_expr(parse_expr("(cos t)"), 0.0) == 1.0


def test_unary_minus_and_nary_fold():
    assert eval_expr(parse_expr("(- 3)"), 0.0) == -3.0
    assert eval_expr(parse_expr("(- 10 1 2)"), 0.0) == 7.0
    assert eval_expr(parse_expr("(+ 1 2 3 4)"), 0.0) == 10.0
    assert eval_expr(parse_expr("(* 2 3 4)"), 0.0) == 24.0


def test_sequence_and_rows():
    seq = parse_expr_sequence("(+ 5 (* 0.4 t)) (- 5 (* 0.4 t))")
    assert len(seq) == 2
    rows = parse_expr_rows("0.8 0.0 ; 0.0 0.5")
    assert len(rows) == 2 and len(rows[0]) == 2
    assert eval_expr(rows[1][1], 0.0) == 0.5


def test_round_trip_is_canonical():
    for text in ["(+ 5 (* 0.4 t))", "(- (sin x1))", "(* 2.0 (cos (+ t 1)))"]:
        expr = parse_expr(text)
        again = parse_expr(expr_to_str(expr))
        assert expr_to_str(again) == expr_to_str(expr)
        assert again == expr


def test_variables_listing():
    e = parse_expr("(+ (sin x1) (* x3 t))")
    assert expr_variables(e) == frozenset({"x1", "x3", "t"})


@pytest.mark.parametrize(
    "text",
    [
        "(foo 1 2)",
        "(sin 1 2)",
        "(+)",
        "(+ 1",
        ")",
        "y1",
        "",
        "(+ 1 ; 2)",
    ],
)
def test_parse_errors(text):
    with pytest.raises(ExprError):
        parse_expr(text)


def test_eval_missing_state_variable():
    with pytest.raises(ExprError):
        eval_expr(parse_expr("x3"), 0.0, [1.0, 2.0])


# t-only trees. Leaves are bounded and trees small, so no product overflows
# and fsum never meets inf - inf.
_LEAVES = st.one_of(
    st.just(("var", "t")),
    st.floats(-10.0, 10.0, allow_nan=False).map(lambda v: ("num", v)),
)


def _extend(children):
    nary = st.tuples(st.sampled_from(["+", "-", "*"]), st.lists(children, min_size=1, max_size=3))
    unary = st.tuples(st.sampled_from(["-", "sin", "cos"]), st.lists(children, min_size=1, max_size=1))
    return st.one_of(nary, unary).map(lambda op_args: (op_args[0], tuple(op_args[1])))


T_ONLY_TREES = st.recursive(_LEAVES, _extend, max_leaves=12)
TIMES = st.lists(st.floats(-100.0, 100.0, allow_nan=False), min_size=1, max_size=20)


@settings(max_examples=300, deadline=None)
@given(T_ONLY_TREES, TIMES)
def test_array_t_is_bitwise_per_element(expr, times):
    ts = np.array(times)
    before = ts.copy()
    whole = np.broadcast_to(eval_expr(expr, ts), ts.shape)
    per_element = np.array([eval_expr(expr, t) for t in ts], dtype=float)
    assert whole.dtype == np.float64
    assert whole.tobytes() == per_element.tobytes()
    assert np.array_equal(ts, before)  # the array t is never written into


def test_array_t_sum_is_fsum_per_element():
    # A left fold of 1e16 + 1 - 1e16 gives 0; fsum gives 1 exactly.
    e = parse_expr("(+ 1e16 t -1e16)")
    np.testing.assert_array_equal(eval_expr(e, np.array([1.0, 2.0])), [1.0, 2.0])


def test_array_t_with_state_variable_is_rejected():
    with pytest.raises(ExprError):
        eval_expr(parse_expr("(+ t x1)"), np.array([0.0, 1.0]))
