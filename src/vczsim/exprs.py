"""Prefix-notation expression trees for scenario-file plant and path fields.

An expression is a number, a variable (``t`` or ``x1``, ``x2``, ...), or a
parenthesized application ``(op arg ...)``. Operators ``+`` and ``*`` take one
or more arguments, ``-`` is unary negation or a left-folded difference, and
``sin``/``cos`` take exactly one argument. This covers every plant drift,
input map, disturbance, and obstacle path the toolkit needs without an
external parser. Nesting deeper than MAX_DEPTH parentheses is a parse error.

``compile_exprs`` turns the trees of one field into one Python function,
once per scenario; the step loop calls only these. It emits one assignment
per node with the operations of ``eval_expr``, so the values are bitwise
equal. ``eval_expr`` is the reference interpreter, and it also takes a 1-D
array for ``t`` when the expression uses no state variable. Each element of
the result is bitwise equal to evaluating the expression at that element
alone: ``+`` applies ``math.fsum`` and ``sin``/``cos`` apply
``math.sin``/``math.cos`` element by element, and ``-`` and ``*`` are
already exact elementwise. A subexpression without ``t`` stays a float, so
the result may be a float for an array ``t``.

``straight_line`` compiles generated code, for ``compile_exprs`` and for the
step kernels of barriers.compile_rows and plant.compile_rk4. It is the
package's only call of ``compile()``: the text it gets is made of generated
names and fixed operator text, and every number and callable of the input
reaches the code as a closure constant.
"""

from __future__ import annotations

import functools
import math
import re

import numpy as np

_NARY_OPS = ("+", "-", "*")
_UNARY_FUNCS = ("sin", "cos")
_VAR_RE = re.compile(r"^(t|x[1-9][0-9]*)$")
# A token is '(', ')', ';' or an atom: a run of anything else but whitespace.
_TOKEN_RE = re.compile(r"[();]|[^\s();]+")
_PUNCT = {"(": "lparen", ")": "rparen", ";": "semi"}
# Parenthesis levels. Walks take at most two frames per level, so 100 levels
# stay far below the default recursion limit of 1000.
MAX_DEPTH = 100


class ExprError(ValueError):
    """Malformed expression text or an out-of-scope variable."""

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (column {position + 1})"
        super().__init__(message)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    return [(_PUNCT.get(m.group(), "atom"), m.group(), m.start()) for m in _TOKEN_RE.finditer(text)]


def _parse_one(tokens, pos, depth=0):
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
        if depth >= MAX_DEPTH:
            raise ExprError(f"expression nested deeper than {MAX_DEPTH} levels", col)
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
            arg, pos = _parse_one(tokens, pos, depth + 1)
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
    return _parse_rows(text, False)[0]


def parse_expr_rows(text: str) -> list[list]:
    """Parse ';'-separated rows of expression sequences (matrix fields)."""
    return _parse_rows(text, True)


def _parse_rows(text: str, rows: bool) -> list[list]:
    """The expression sequences of text; with `rows`, a top-level ';' starts
    the next one. Columns count from the start of text."""
    tokens = _tokenize(text)
    out, exprs = [], []
    pos = 0
    while pos < len(tokens):
        if tokens[pos][0] == "semi":
            if not rows:
                raise ExprError("unexpected ';' in expression sequence", tokens[pos][2])
            if not exprs:
                raise ExprError("empty expression")
            out.append(exprs)
            exprs, pos = [], pos + 1
            continue
        expr, pos = _parse_one(tokens, pos)
        exprs.append(expr)
    if not exprs:
        raise ExprError("empty expression")
    out.append(exprs)
    return out


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


def compile_exprs(exprs, params, packed: bool = False):
    """A function of the scalar arguments `params` giving the values of `exprs`,
    a tree or nested lists of trees, as tuples of the same nesting. When
    `packed`, it takes one sequence `x` of the params' values instead and
    unpacks it in its first line. Only `_VAR_RE` names and fixed operator text
    reach `compile()`; literals are closure constants."""
    if not all(_VAR_RE.fullmatch(p) for p in params):
        raise ExprError(f"bad argument names {list(params)}")
    consts, lines = [], [unpack(params, "x")] if packed else []

    def node(e):
        tag, arg = e
        if tag == "num":
            consts.append(float(arg))
            return f"k{len(consts) - 1}"
        if tag == "var":
            if arg not in params:
                raise ExprError(f"may only use {', '.join(params)}, found '{arg}'")
            return arg
        if tag not in _NARY_OPS and tag not in _UNARY_FUNCS:
            raise ExprError(f"unknown operator {tag!r}")
        args = [node(a) for a in arg]
        if tag == "+":
            rhs = f"fsum(({', '.join(args)},))"
        elif tag == "-" and len(args) == 1:
            rhs = f"-{args[0]}"
        elif tag in _NARY_OPS:  # left folds, the product from 1.0
            rhs = f" {tag} ".join(["1.0"] * (tag == "*") + args)
        else:
            rhs = f"{tag}({args[0]})"
        lines.append(f"v{len(lines)} = {rhs}")
        return f"v{len(lines) - 1}"

    def out(item):
        return node(item) if isinstance(item, tuple) else f"({''.join(out(i) + ', ' for i in item)})"

    return straight_line(("x",) if packed else params, lines, out(exprs), consts)


def unpack(names, value: str) -> str:
    """The statement `n0, n1, ... = value`, which also unpacks one value."""
    return f"{''.join(f'{name}, ' for name in names)}= {value}"


def straight_line(params, lines, result, consts):
    """fn(*params) that runs the statements `lines` and returns `result`,
    with `consts` bound as the closure constants k0, k1, ... This is the
    package's one call of compile(): callers build `lines` and `result` from
    their own generated names and fixed operator text, never from input
    text, and pass every input number and callable in `consts`. The code sees
    no builtins, only fsum, sin and cos."""
    body = "".join(f"  {line}\n" for line in lines)
    source = (f"def make({', '.join(f'k{i}' for i in range(len(consts)))}):\n"
              f" def fn({', '.join(params)}):\n{body}  return {result}\n return fn\n")
    namespace = {"__builtins__": {}, "fsum": math.fsum, "sin": math.sin, "cos": math.cos}
    exec(_code(source), namespace)
    return namespace["make"](*consts)


@functools.lru_cache(maxsize=256)
def _code(source: str):
    """Compiled `source`; trees of one shape share it, as their numbers are
    closure constants and not part of the text."""
    return compile(source, "<generated>", "exec")


def expr_to_str(expr) -> str:
    """Canonical text form; parse(expr_to_str(e)) reproduces e."""
    tag = expr[0]
    if tag == "num":
        return repr(expr[1])
    if tag == "var":
        return expr[1]
    inner = " ".join(expr_to_str(a) for a in expr[1])
    return f"({tag} {inner})"
