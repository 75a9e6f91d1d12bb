"""Prefix-notation expression trees for scenario-file plant and path fields.

An expression is a number, a variable (``t`` or ``x1``, ``x2``, ...), or a
parenthesized application ``(op arg ...)``. Operators ``+`` and ``*`` take one
or more arguments, ``-`` is unary negation or a left-folded difference, and
``sin``/``cos`` take exactly one argument. This covers every plant drift,
input map, disturbance, and obstacle path the toolkit needs without an
external parser.

``eval_expr`` also takes a 1-D array for ``t`` when the expression uses no
state variable. Each element of the result is bitwise equal to evaluating
the expression at that element alone: ``+`` applies ``math.fsum`` and
``sin``/``cos`` apply ``math.sin``/``math.cos`` element by element, and
``-`` and ``*`` are already exact elementwise. A subexpression without ``t``
stays a float, so the result may be a float for an array ``t``.
"""

from __future__ import annotations

import math
import re

import numpy as np

_NARY_OPS = ("+", "-", "*")
_UNARY_FUNCS = ("sin", "cos")
_VAR_RE = re.compile(r"^(t|x[1-9][0-9]*)$")


class ExprError(ValueError):
    """Malformed expression text or an out-of-scope variable."""

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (column {position + 1})"
        super().__init__(message)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch == "(":
            tokens.append(("lparen", ch, i))
            i += 1
        elif ch == ")":
            tokens.append(("rparen", ch, i))
            i += 1
        elif ch == ";":
            tokens.append(("semi", ch, i))
            i += 1
        else:
            j = i
            while j < len(text) and text[j] not in "();" and not text[j].isspace():
                j += 1
            tokens.append(("atom", text[i:j], i))
            i = j
    return tokens


def _parse_one(tokens, pos):
    if pos >= len(tokens):
        raise ExprError("unexpected end of expression")
    kind, value, col = tokens[pos]
    if kind == "atom":
        try:
            return ("num", float(value)), pos + 1
        except ValueError:
            pass
        if _VAR_RE.match(value):
            return ("var", value), pos + 1
        raise ExprError(f"unknown symbol '{value}'", col)
    if kind == "lparen":
        if pos + 1 >= len(tokens) or tokens[pos + 1][0] != "atom":
            raise ExprError("expected operator after '('", col)
        op = tokens[pos + 1][1]
        if op not in _NARY_OPS and op not in _UNARY_FUNCS:
            raise ExprError(f"unknown operator '{op}'", tokens[pos + 1][2])
        args = []
        pos += 2
        while pos < len(tokens) and tokens[pos][0] != "rparen":
            if tokens[pos][0] == "semi":
                raise ExprError("';' not allowed inside an expression", tokens[pos][2])
            arg, pos = _parse_one(tokens, pos)
            args.append(arg)
        if pos >= len(tokens):
            raise ExprError("missing closing ')'", col)
        if not args:
            raise ExprError(f"operator '{op}' needs at least one argument", col)
        if op in _UNARY_FUNCS and len(args) != 1:
            raise ExprError(f"'{op}' takes exactly one argument", col)
        return (op, tuple(args)), pos + 1
    raise ExprError(f"unexpected '{value}'", col)


def parse_expr(text: str):
    """Parse exactly one expression."""
    exprs = parse_expr_sequence(text)
    if len(exprs) != 1:
        raise ExprError(f"expected one expression, found {len(exprs)}")
    return exprs[0]


def parse_expr_sequence(text: str) -> list:
    """Parse a whitespace-separated sequence of expressions."""
    tokens = _tokenize(text)
    exprs = []
    pos = 0
    while pos < len(tokens):
        if tokens[pos][0] == "semi":
            raise ExprError("unexpected ';' in expression sequence", tokens[pos][2])
        expr, pos = _parse_one(tokens, pos)
        exprs.append(expr)
    if not exprs:
        raise ExprError("empty expression")
    return exprs


def parse_expr_rows(text: str) -> list[list]:
    """Parse ';'-separated rows of expression sequences (matrix fields)."""
    rows = []
    for chunk in _split_rows(text):
        rows.append(parse_expr_sequence(chunk))
    return rows


def _split_rows(text: str) -> list[str]:
    rows, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == ";" and depth == 0:
            rows.append(text[start:i])
            start = i + 1
    rows.append(text[start:])
    return rows


def eval_expr(expr, t, x=None):
    """Evaluate an expression at time t and (optionally) state vector x.

    t is a float, or a 1-D array for expressions in t alone (see the module
    docstring).
    """
    tag = expr[0]
    if tag == "num":
        return expr[1]
    if tag == "var":
        name = expr[1]
        if name == "t":
            return t
        idx = int(name[1:]) - 1
        if x is None or idx >= len(x):
            raise ExprError(f"variable '{name}' not available here")
        return float(x[idx])
    args = [eval_expr(a, t, x) for a in expr[1]]
    if tag == "+":
        try:
            return math.fsum(args)
        except TypeError:
            return _elementwise(math.fsum, zip(*np.broadcast_arrays(*args)))
    if tag == "-":
        if len(args) == 1:
            return -args[0]
        acc = args[0]
        for a in args[1:]:
            acc = acc - a  # not -=, which would write into an array t
        return acc
    if tag == "*":
        acc = 1.0
        for a in args:
            acc *= a
        return acc
    fn = math.sin if tag == "sin" else math.cos
    try:
        return fn(args[0])
    except TypeError:
        return _elementwise(fn, args[0])


def _elementwise(fn, items) -> np.ndarray:
    return np.fromiter(map(fn, items), dtype=float)


def expr_variables(expr) -> frozenset[str]:
    """All variable names referenced by an expression."""
    tag = expr[0]
    if tag == "num":
        return frozenset()
    if tag == "var":
        return frozenset((expr[1],))
    out: set[str] = set()
    for a in expr[1]:
        out |= expr_variables(a)
    return frozenset(out)


def expr_to_str(expr) -> str:
    """Canonical text form; parse(expr_to_str(e)) reproduces e."""
    tag = expr[0]
    if tag == "num":
        return repr(expr[1])
    if tag == "var":
        return expr[1]
    inner = " ".join(expr_to_str(a) for a in expr[1])
    return f"({tag} {inner})"
