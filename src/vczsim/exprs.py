"""Prefix-notation expression trees for scenario-file plant and path fields.

An expression is a number, a variable (``t`` or ``x1``, ``x2``, ...), or a
parenthesized application ``(op arg ...)``. Operators ``+`` and ``*`` take one
or more arguments, ``-`` is unary negation or a left-folded difference, and
``sin``/``cos`` take exactly one argument. This covers every plant drift,
input map, disturbance, and obstacle path the toolkit needs without an
external parser. Nesting deeper than MAX_DEPTH parentheses is a parse error.

``tree_emitter`` writes trees as straight-line code into a caller's lines:
one assignment per distinct subtree with the operations of ``eval_expr``,
so the values are bitwise equal, under the caller's names for the
variables. ``compile_exprs`` turns the trees of one field into one Python
function with it, once per scenario, and the step loop (through
barriers.emit_rows and plant.emit_rk4) writes path and plant trees inline
with it; no evaluation in the package, per step or over a whole trace,
runs anything else. ``eval_expr`` is the reference interpreter on a float
``t``, which the tests compare the compiled functions against.

``straight_line`` compiles generated code, for ``compile_exprs``,
simulator.compile_loop, and the per-size working-set solves and the
certificate of qp.compile_solver. It is the package's only call of ``compile()``: the text
it gets is made of generated names and fixed operator text, and every number
and callable of the input reaches the code as a closure constant, named
through a ``Constants`` table. ``fold`` and ``tuple_of`` give the generators'
shared text for a sum and a tuple, and ``dot`` is fold's sum of products on
values.
"""

from __future__ import annotations

import functools
import math
import re
from operator import add, mul

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
    """Evaluate an expression at time t and (optionally) state vector x."""
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
        return math.fsum(args)
    if tag == "-":
        if len(args) == 1:
            return -args[0]
        acc = args[0]
        for a in args[1:]:
            acc -= a
        return acc
    if tag == "*":
        acc = 1.0
        for a in args:
            acc *= a
        return acc
    return (math.sin if tag == "sin" else math.cos)(args[0])


def compile_exprs(exprs, params, packed: bool = False):
    """A function of the scalar arguments `params` giving the values of `exprs`,
    a tree or nested lists of trees, as tuples of the same nesting. When
    `packed`, it takes one sequence `x` of the params' values instead and
    unpacks it in its first line. Only `_VAR_RE` names and fixed operator text
    reach `compile()`; literals are closure constants. The body is
    tree_emitter's, and each output tuple is a display of its entries' names."""
    if not all(_VAR_RE.fullmatch(p) for p in params):
        raise ExprError(f"bad argument names {list(params)}")
    const, lines = Constants(), [unpack(params, "x")] if packed else []
    emit, args = tree_emitter(lines, const), {p: p for p in params}

    def out(item):
        return emit(item, args) if isinstance(item, tuple) else tuple_of(map(out, item))

    return straight_line(("x",) if packed else params, lines, out(exprs), const)


def tree_emitter(lines: list, const: "Constants"):
    """emit(tree, args) -> the name of the tree's value, after appending to
    `lines` one assignment per structurally distinct subtree not yet emitted,
    named v + line number, with the operations of eval_expr, so the
    values are bitwise equal. `args` maps each variable the tree may use (t,
    x1, ...) to the caller's name for its value; a number is a closure
    constant of `const`. Subtrees are shared across the calls of one emitter,
    keyed by the caller's names, so each of those must hold one value while
    the lines run. A product is the left fold of its factors without
    eval_expr's leading 1.0 (1.0 * x is x for every float)."""
    names = {}  # structural key -> generated name

    def emit(tree, args):
        tag, arg = tree
        if tag == "var":
            if arg not in args:
                raise ExprError(f"may only use {', '.join(args)}, found '{arg}'")
            return args[arg]
        if tag == "num":
            key = (tag, float(arg), math.copysign(1.0, arg))  # 0.0 and -0.0 stay apart
            if key not in names:
                names[key] = const(float(arg))
            return names[key]
        if tag not in _NARY_OPS and tag not in _UNARY_FUNCS:
            raise ExprError(f"unknown operator {tag!r}")
        items = [emit(a, args) for a in arg]
        key = (tag, *items)
        if key in names:
            return names[key]
        if tag == "+":
            rhs = f"fsum({tuple_of(items)})"
        elif tag == "-" and len(items) == 1:
            rhs = f"-{items[0]}"
        elif tag in _NARY_OPS:  # left folds
            rhs = f" {tag} ".join(items)
        else:
            rhs = f"{tag}({items[0]})"
        names[key] = f"v{len(lines)}"
        lines.append(f"{names[key]} = {rhs}")
        return names[key]

    return emit


class Constants(list):
    """The closure constants of one generated function: calling the table
    with a value appends it and returns its name, k0, k1, ... in order."""

    def __call__(self, value) -> str:
        self.append(value)
        return f"k{len(self) - 1}"


def fold(terms) -> str:
    """(0 + t0 + t1 + ...), a sum from 0, left to right, as sum() compensates
    float sums from Python 3.12 on."""
    return f"(0{''.join(f' + {t}' for t in terms)})"


def dot(a, b):
    """0 + a0 b0 + a1 b1 + ..., left to right: the value of fold's text for
    the products, the package's one dot product outside generated code."""
    return functools.reduce(add, map(mul, a, b), 0)


def tuple_of(names) -> str:
    """The tuple display (n0, n1, ...,), which is also right for one name or none."""
    return f"({''.join(f'{x}, ' for x in names)})"


def unpack(names, value: str) -> str:
    """The statement `[n0, n1, ...] = value`, which also unpacks one value or none."""
    return f"[{', '.join(names)}] = {value}"


def straight_line(params, lines, result, consts):
    """fn(*params) that runs the statements `lines` and returns `result`,
    with `consts` bound as the closure constants k0, k1, ... This is the
    package's one call of compile(): callers build `lines` and `result` from
    their own generated names and fixed operator text, never from input
    text, and pass every input number and callable in `consts`. The code sees
    no builtins, only fsum, sin, cos, log and hypot."""
    body = "".join(f"  {line}\n" for line in lines)
    source = (f"def make({', '.join(f'k{i}' for i in range(len(consts)))}):\n"
              f" def fn({', '.join(params)}):\n{body}  return {result}\n return fn\n")
    namespace = {"__builtins__": {}, "fsum": math.fsum, "sin": math.sin, "cos": math.cos, "log": math.log,
                 "hypot": math.hypot}
    exec(_code(source), namespace)
    return namespace["make"](*consts)


@functools.cache
def _code(source: str):
    """Compiled `source`; trees of one shape share it, as their numbers are
    closure constants and not part of the text. Never evicted, so functions
    of one shape share one code object however long they are kept."""
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
