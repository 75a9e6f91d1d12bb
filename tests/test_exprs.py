"""Prefix-expression grammar: parsing, evaluation, canonical round trip."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vczsim import exprs
from vczsim.barriers import Obstacle
from vczsim.exprs import (
    MAX_DEPTH,
    ExprError,
    compile_exprs,
    eval_expr,
    expr_to_str,
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


@pytest.mark.parametrize(
    "parse, text, message",
    [
        (parse_expr, "(", "expected operator after '(' (column 1)"),
        (parse_expr, "1 x1", "expected one expression, found 2"),
        (parse_expr_sequence, "1 ; 2", "unexpected ';' in expression sequence (column 3)"),
        (parse_expr_rows, "1 0 ; ; 0 1", "empty expression"),
    ],
    ids=["lone-paren", "two-for-one", "semicolon-in-sequence", "empty-row"],
)
def test_parse_error_messages(parse, text, message):
    with pytest.raises(ExprError) as exc_info:
        parse(text)
    assert str(exc_info.value) == message


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
# Times with signed zeros, |t| up to 1e6 and the infinities, at which sin and
# cos raise and a product with 0 or a sum of opposite infinities gives NaN.
TIMES = st.lists(
    st.one_of(st.floats(-1e6, 1e6), st.sampled_from([0.0, -0.0, math.inf, -math.inf])), min_size=1, max_size=20
)


def _rows_outcome(fn, nan_bits=True):
    """The shape and bits of the array fn(), every NaN as one pattern unless
    nan_bits, or the exception's type and message."""
    try:
        rows = fn()
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)
    return rows.shape, (rows if nan_bits else np.where(np.isnan(rows), math.nan, rows)).tobytes()


def _multiplies_two_nans(expr, t) -> bool:
    """Whether a product in expr meets two NaNs of different bits at t. Which
    one CPython returns depends on whether that multiply is specialized yet."""
    if expr[0] in ("num", "var"):
        return False
    if any(_multiplies_two_nans(a, t) for a in expr[1]):
        return True
    nans = {struct.pack("<d", v) for v in (eval_expr(a, t) for a in expr[1]) if math.isnan(v)}
    return expr[0] == "*" and len(nans) > 1


@settings(max_examples=300, deadline=None)
@given(st.lists(T_ONLY_TREES, min_size=1, max_size=3), TIMES)
def test_path_obstacle_centers_are_the_interpreter_per_sample(trees, times):
    # Obstacle.centers calls the compiled path at every time: each row is
    # eval_expr at that time alone, bit for bit with NaN bits included
    # (unless a product meets two different NaNs), and a time at which a
    # tree raises makes centers raise the same exception.
    obstacle = Obstacle.custom(compile_exprs(trees, ("t",)), 1.0)
    ts = np.array(times)

    def reference():
        return np.array([[eval_expr(e, t) for e in trees] for t in times])

    raises = isinstance(_rows_outcome(reference)[0], type)
    nan_bits = raises or not any(_multiplies_two_nans(e, t) for e in trees for t in times)
    assert _rows_outcome(lambda: obstacle.centers(ts), nan_bits) == _rows_outcome(reference, nan_bits)
    assert ts.tobytes() == np.array(times).tobytes()  # the times are never written into


def _nested(depth: int) -> str:
    return "(sin " * depth + "t" + ")" * depth


def test_nesting_at_the_limit_parses_prints_evaluates_and_compiles():
    text = _nested(MAX_DEPTH)
    expr = parse_expr(text)
    assert expr_to_str(expr) == text
    value = eval_expr(expr, 0.5)
    assert compile_exprs([expr], ("t",))(0.5) == (value,)


def test_nesting_beyond_the_limit_is_an_error_at_its_column():
    text = "(+ 1 " + _nested(MAX_DEPTH) + ")"  # the innermost '(' is one level too deep
    with pytest.raises(ExprError) as exc_info:
        parse_expr(text)
    assert exc_info.value.position == text.rindex("(")
    assert "nested deeper" in str(exc_info.value)


def test_matrix_error_column_counts_from_the_start_of_the_value():
    text = "1.0 0.0 ; 0.0 (foo 1)"
    with pytest.raises(ExprError) as exc_info:
        parse_expr_rows(text)
    assert exc_info.value.position == text.index("foo")
    assert str(exc_info.value) == "unknown operator 'foo' (column 16)"


def test_nesting_far_beyond_the_limit_is_an_error_not_a_recursion_error():
    with pytest.raises(ExprError):
        parse_expr_sequence(_nested(600))


class TestCompile:
    ARGS = ("t", "x1", "x2", "x3")

    def test_nested_lists_give_nested_tuples(self):
        rows = parse_expr_rows("(+ x1 1) 0.5 ; (- x2) (* 2 x1 x2)")
        assert compile_exprs(rows, ("x1", "x2"))(3.0, 4.0) == ((4.0, 0.5), (-4.0, 24.0))

    def test_sum_is_fsum_and_product_a_left_fold(self):
        fn = compile_exprs([parse_expr("(+ 1e16 t -1e16)"), parse_expr("(* 1e300 1e300 0)")], ("t",))
        assert fn(1.0)[0] == 1.0
        assert math.isnan(fn(1.0)[1])  # (1e300 * 1e300) * 0 = inf * 0

    @pytest.mark.parametrize("bad", [("var", "x4"), ("var", "t; import os"), ("exp", (("num", 1.0),))])
    def test_rejects_names_outside_the_grammar(self, bad):
        with pytest.raises(ExprError):
            compile_exprs([bad], self.ARGS)

    @pytest.mark.parametrize("params", [("t", "os"), ("x0",), ("x1\n",)])
    def test_rejects_argument_names_outside_the_grammar(self, params):
        with pytest.raises(ExprError):
            compile_exprs([("num", 1.0)], params)

    def test_equal_subtrees_are_computed_once(self, monkeypatch):
        lines = []
        real = exprs.straight_line

        def spy(params, body, result, consts):
            lines.extend(body)
            return real(params, body, result, consts)

        monkeypatch.setattr(exprs, "straight_line", spy)
        drift = parse_expr_sequence("(* 5.0 (sin (* x1 x2))) (* 5.0 (cos (* x1 x2)))")
        fn = compile_exprs(drift, ("x1", "x2"), packed=True)
        assert [line for line in lines if "x1 * x2" in line] == ["v1 = x1 * x2"]
        assert not [line for line in lines if "1.0" in line]  # no product starts from 1.0
        assert fn([0.3, 0.7]) == tuple(eval_expr(e, 0.0, [0.3, 0.7]) for e in drift)

    def test_signed_zero_literals_stay_apart(self):
        fn = compile_exprs(parse_expr_sequence("(* -0.0 x1) (* 0.0 x1) (- -0.0) (- 0.0)"), ("x1",))
        assert [math.copysign(1.0, v) for v in fn(1.0)] == [-1.0, 1.0, 1.0, -1.0]

    def test_constant_outputs_keep_their_values(self):
        fn = compile_exprs(parse_expr_rows("0.8 0.0 ; 0.0 0.5"), ("x1", "x2"), packed=True)
        assert fn([1.0, 2.0]) == fn([3.0, 4.0]) == ((0.8, 0.0), (0.0, 0.5))
        mixed = compile_exprs(parse_expr_rows("0.8 x1 ; 0.0 0.5"), ("x1", "x2"), packed=True)
        assert mixed([1.0, 2.0]) == ((0.8, 1.0), (0.0, 0.5))

    def test_literals_are_not_source_text(self):
        fn = compile_exprs([("num", v) for v in (math.inf, math.nan, 1e999, -0.0)], ())
        got = fn()
        assert got[0] == math.inf and math.isnan(got[1]) and got[2] == math.inf
        assert math.copysign(1.0, got[3]) == -1.0


# Any tree over t and x1..x3: literals include -0.0, infinities, NaN and
# magnitudes whose products overflow, so sin/cos and fsum may raise.
_LITERALS = st.one_of(
    st.floats(),
    st.sampled_from([-0.0, math.inf, -math.inf, math.nan, 1e200, -1e300, 1e-320]),
)
_ANY_LEAVES = st.one_of(
    st.sampled_from(TestCompile.ARGS).map(lambda v: ("var", v)),
    _LITERALS.map(lambda v: ("num", v)),
)


def _extend_any(children):
    nary = st.tuples(st.sampled_from(["+", "-", "*"]), st.lists(children, min_size=1, max_size=4))
    unary = st.tuples(st.sampled_from(["sin", "cos"]), st.lists(children, min_size=1, max_size=1))
    return st.one_of(nary, unary).map(lambda op_args: (op_args[0], tuple(op_args[1])))


ANY_TREES = st.recursive(_ANY_LEAVES, _extend_any, max_leaves=16)
_INPUTS = st.one_of(st.floats(-10.0, 10.0), st.floats())


def _bits(v: float):
    """The value's bit pattern; every NaN maps to one marker, because CPython
    itself picks either operand's NaN in `a * b` or `a - b` of two NaNs,
    depending on whether that bytecode is specialized yet."""
    return "nan" if math.isnan(v) else struct.pack("<d", v)


def _outcome(fn):
    """The value's bits, or the exception's type and message."""
    try:
        return _bits(fn())
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)


@settings(max_examples=500, deadline=None)
@given(st.lists(ANY_TREES, min_size=1, max_size=3), st.tuples(_INPUTS, _INPUTS, _INPUTS, _INPUTS))
def test_compiled_is_bitwise_the_interpreter(exprs, args):
    t, *x = args
    for expr in exprs:
        compiled = compile_exprs([expr], TestCompile.ARGS)
        assert _outcome(lambda: compiled(*args)[0]) == _outcome(lambda: eval_expr(expr, t, x))
        # The machine check that no expression text reaches compile():
        # globals are the fixed helpers, constants are floats (CPython keeps
        # None in the docstring slot), literals live in the closure.
        code = compiled.__code__
        assert set(code.co_names) <= {"fsum", "sin", "cos"}
        assert all(type(c) is float for c in code.co_consts if c is not None)
    outcomes = [_outcome(lambda e=e: eval_expr(e, t, x)) for e in exprs]
    if all(not isinstance(o, tuple) for o in outcomes):
        assert [_bits(v) for v in compile_exprs(exprs, TestCompile.ARGS)(*args)] == outcomes


def test_nan_sign_survives_compilation():
    # One NaN, no NaN meeting NaN: its sign bit is well defined and kept.
    for text in ("(* 0 t)", "(- (* 0 t))", "(sin (- t t))", "(- (- t t))"):
        expr = parse_expr(text)
        got = compile_exprs([expr], ("t",))(math.inf)[0]
        assert struct.pack("<d", got) == struct.pack("<d", eval_expr(expr, math.inf))
