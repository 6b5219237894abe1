"""Expression trees for metric components and profile functions.

The grammar is deliberately small: sums, products, non-negative integer
powers, unary minus, and the analytic primitives exp/sin/cos.  There is no
division and no non-integer power, which keeps every expression jet-friendly
(closed under the arithmetic of `jets`).

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' int)?
    atom   := number | ident | 'exp(' expr ')' | 'sin(' expr ')'
            | 'cos(' expr ')' | '(' expr ')' | '-' atom

Parsing is by recursive descent; syntax errors carry the byte offset of the
offending token and unknown identifiers are reported by name.  `to_text` is a
printer with the round-trip property parse(to_text(e)) == e (structurally).
"""
from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .jets import _EXP_LIMIT, Jet, JetSpace, NonFiniteError, jet_space

__all__ = [
    "Expr",
    "Const",
    "Var",
    "Sum",
    "Prod",
    "Pow",
    "Neg",
    "Exp",
    "Sin",
    "Cos",
    "ParseError",
    "UnknownVariableError",
    "FUNCTION_NAMES",
    "parse",
    "to_text",
    "free_vars",
    "eval_point",
    "eval_jet",
    "forward_source",
    "FLOAT_OPS",
    "ROW_OPS",
]

FUNCTION_NAMES = ("exp", "sin", "cos")


class ParseError(ValueError):
    """Syntax error; `offset` is the byte offset into the source text."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class UnknownVariableError(ParseError):
    """An identifier that is neither a chart coordinate nor a function."""

    def __init__(self, name: str, offset: int):
        super().__init__(f"unknown identifier {name!r}", offset)
        self.name = name


@dataclass(frozen=True)
class Expr:
    def __str__(self) -> str:
        return to_text(self)


@dataclass(frozen=True)
class Const(Expr):
    value: float


@dataclass(frozen=True)
class Var(Expr):
    name: str


@dataclass(frozen=True)
class Sum(Expr):
    terms: tuple[Expr, ...]


@dataclass(frozen=True)
class Prod(Expr):
    factors: tuple[Expr, ...]


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: int


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr


@dataclass(frozen=True)
class Exp(Expr):
    arg: Expr


@dataclass(frozen=True)
class Sin(Expr):
    arg: Expr


@dataclass(frozen=True)
class Cos(Expr):
    arg: Expr


# --------------------------------------------------------------------- lexer
_OPS = set("+-*^()")


def _tokens(text: str):
    i, n = 0, len(text)
    out = []
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _OPS:
            out.append((c, c, i))
            i += 1
            continue
        if c.isdigit() or c == ".":
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    while k < n and text[k].isdigit():
                        k += 1
                    j = k
            lit = text[i:j]
            try:
                float(lit)
            except ValueError:
                raise ParseError(f"malformed number {lit!r}", i) from None
            out.append(("num", lit, i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(("ident", text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    out.append(("end", "", n))
    return out


class _Parser:
    def __init__(self, text: str, chart: Sequence[str]):
        self.text = text
        self.chart = frozenset(chart)
        self.toks = _tokens(text)
        self.pos = 0

    def peek(self):
        return self.toks[self.pos]

    def take(self):
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str):
        tok = self.take()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    def expr(self) -> Expr:
        terms = [self.term()]
        negs = [False]
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            terms.append(self.term())
            negs.append(op == "-")
        if len(terms) == 1:
            return terms[0]
        return Sum(tuple(Neg(t) if s else t for t, s in zip(terms, negs)))

    def term(self) -> Expr:
        factors = [self.factor()]
        while self.peek()[0] == "*":
            self.take()
            factors.append(self.factor())
        if len(factors) == 1:
            return factors[0]
        return Prod(tuple(factors))

    def factor(self) -> Expr:
        base = self.atom()
        if self.peek()[0] == "^":
            self.take()
            tok = self.take()
            if tok[0] != "num" or not tok[1].isdigit():
                raise ParseError("expected non-negative integer exponent", tok[2])
            return Pow(base, int(tok[1]))
        return base

    def atom(self) -> Expr:
        kind, lit, off = self.take()
        if kind == "num":
            return Const(float(lit))
        if kind == "-":
            inner = self.atom()
            # '-' folds into a bare literal so Const(-c) round-trips.
            if isinstance(inner, Const):
                return Const(-inner.value)
            return Neg(inner)
        if kind == "(":
            inner = self.expr()
            self.expect(")")
            return inner
        if kind == "ident":
            if lit in FUNCTION_NAMES:
                self.expect("(")
                inner = self.expr()
                self.expect(")")
                return {"exp": Exp, "sin": Sin, "cos": Cos}[lit](inner)
            if lit not in self.chart:
                raise UnknownVariableError(lit, off)
            return Var(lit)
        raise ParseError(f"unexpected token {lit!r}" if lit else "unexpected end of input", off)


def parse(text: str, chart: Sequence[str]) -> Expr:
    """Parse `text` against the coordinate names in `chart`."""
    if not text.strip():
        raise ParseError("empty expression", 0)
    p = _Parser(text, chart)
    e = p.expr()
    kind, lit, off = p.peek()
    if kind != "end":
        raise ParseError(f"trailing input {lit!r}", off)
    return e


# ------------------------------------------------------------------- printer
def _print(e: Expr, ctx: str) -> str:
    # ctx is the syntactic slot: "expr" (sum level), "term", "atom".
    if isinstance(e, Const):
        return repr(float(e.value))
    if isinstance(e, Var):
        return e.name
    if isinstance(e, (Exp, Sin, Cos)):
        name = {Exp: "exp", Sin: "sin", Cos: "cos"}[type(e)]
        return f"{name}({_print(e.arg, 'expr')})"
    if isinstance(e, Neg):
        # '-' binds to a single atom; anything looser needs parentheses.
        inner = e.arg
        if isinstance(inner, (Const, Var, Exp, Sin, Cos, Neg)):
            body = _print(inner, "atom")
        else:
            body = f"({_print(inner, 'expr')})"
        text = f"-{body}"
        return text if ctx in ("expr", "term") else f"({text})"
    if isinstance(e, Pow):
        base = e.base
        if isinstance(base, (Const, Var, Exp, Sin, Cos, Neg)):
            btext = _print(base, "atom")
        else:
            btext = f"({_print(base, 'expr')})"
        return f"{btext}^{e.exponent}"
    if isinstance(e, Prod):
        parts = []
        for f in e.factors:
            # nested sums and products need parens or reparsing flattens them
            if isinstance(f, (Sum, Prod)):
                parts.append(f"({_print(f, 'expr')})")
            else:
                parts.append(_print(f, "term"))
        text = "*".join(parts)
        return text if ctx in ("expr", "term") else f"({text})"
    if isinstance(e, Sum):
        parts = [_print(e.terms[0], "term") if not isinstance(e.terms[0], Sum)
                 else f"({_print(e.terms[0], 'expr')})"]
        for t in e.terms[1:]:
            if isinstance(t, Neg):
                inner = t.arg
                if isinstance(inner, (Const, Var, Exp, Sin, Cos, Neg)):
                    parts.append(f" - {_print(inner, 'atom')}")
                elif isinstance(inner, (Prod, Pow)):
                    parts.append(f" - {_print(inner, 'term')}")
                else:
                    parts.append(f" - ({_print(inner, 'expr')})")
            elif isinstance(t, Sum):
                parts.append(f" + ({_print(t, 'expr')})")
            else:
                parts.append(f" + {_print(t, 'term')}")
        text = "".join(parts)
        return text if ctx == "expr" else f"({text})"
    raise TypeError(f"not an Expr node: {e!r}")


def to_text(e: Expr) -> str:
    """Render `e` so that parse(to_text(e)) reproduces the tree."""
    return _print(e, "expr")


# ---------------------------------------------------------------- evaluation
def _children(e: Expr) -> tuple[Expr, ...]:
    """The operands of `e` in order; none for a constant or a variable."""
    if isinstance(e, (Const, Var)):
        return ()
    if isinstance(e, Sum):
        return e.terms
    if isinstance(e, Prod):
        return e.factors
    if isinstance(e, Pow):
        return (e.base,)
    if isinstance(e, (Neg, Exp, Sin, Cos)):
        return (e.arg,)
    raise TypeError(f"not an Expr node: {e!r}")


def free_vars(e: Expr) -> frozenset[str]:
    if isinstance(e, Var):
        return frozenset((e.name,))
    return frozenset().union(*map(free_vars, _children(e)))


def _pointwise(fn, v):
    # math's function value by value, as in `eval_jet`: numpy's exp differs
    # from math.exp in the last bit for about one argument in twenty
    return fn(v) if isinstance(v, float) else np.fromiter(map(fn, v.tolist()), float, len(v))


def _exp(v: float | np.ndarray) -> float | np.ndarray:
    if v >= _EXP_LIMIT if isinstance(v, float) else (v >= _EXP_LIMIT).any():
        raise NonFiniteError(f"exp overflow at argument {np.max(v)}")
    return _pointwise(math.exp, v)


def eval_point(e: Expr, env: Mapping[str, float | np.ndarray]) -> float | np.ndarray:
    """Plain float evaluation at a point, with the arithmetic of `eval_jet`:
    a sum or a product evaluates its operands, then folds them left, and a
    power is taken by squaring as `Jet.pow` takes it.  The result is the
    constant term of any `eval_jet` of `e` at `env`, bit for bit up to the
    sign of a zero.

    The values of `env` may also be numpy rows of equal length, one value
    per point; a node that reads one is a row of its values at the points,
    each the float walk's (sums and products are never taken in place, and
    exp, sin and cos are math's, value by value), and a node that reads none
    stays a float.  An exp argument >= 709 raises NonFiniteError at any of
    the points; the caller silences numpy's warnings on overflow."""
    if isinstance(e, Const):
        return float(e.value)
    if isinstance(e, Var):
        try:
            v = env[e.name]
        except KeyError:
            raise UnknownVariableError(e.name, 0) from None
        return v if isinstance(v, np.ndarray) else float(v)
    if isinstance(e, Sum):
        return functools.reduce(operator.add, [eval_point(t, env) for t in e.terms])
    if isinstance(e, Prod):
        return functools.reduce(operator.mul, [eval_point(t, env) for t in e.factors])
    if isinstance(e, Pow):
        base, k, out = eval_point(e.base, env), e.exponent, None
        while k:
            if k & 1:
                out = base if out is None else out * base  # as 1.0 * base: 1.0 * x == x
            k >>= 1
            if k:
                base = base * base
        return 1.0 if out is None else out
    if isinstance(e, Neg):
        return -eval_point(e.arg, env)
    if isinstance(e, Exp):
        return _exp(eval_point(e.arg, env))
    if isinstance(e, Sin):
        return _pointwise(math.sin, eval_point(e.arg, env))
    if isinstance(e, Cos):
        return _pointwise(math.cos, eval_point(e.arg, env))
    raise TypeError(f"not an Expr node: {e!r}")


def eval_jet(e: Expr, base: Mapping[str, float], active: Sequence[str], order: int) -> Jet:
    """Evaluate `e` as a jet at `base` in the variables `active`.

    Variables outside `active` are frozen at their base values.  The
    coefficient at multi-index m of the result is d^m e(base) / m!.

    Each node is evaluated over the active variables it holds (Taylor
    propagation restricted to a term's own variables: Griewank and Walther,
    *Evaluating Derivatives*, 2nd ed., SIAM 2008, ch. 13).  A constant or a
    frozen variable is a float.  A sum or a product works over the union of
    its operands' variables and lifts each operand there as the fold reaches
    it (`JetSpace.lift`; a float becomes a constant there); a unary node
    stays over its operand's, and only the result is lifted to `active`.
    A jet lifts bit for bit (see `jets`), so every coefficient is the one of
    evaluating each node over all of `active`, up to the sign of a zero.
    """
    space = jet_space(tuple(active), order)

    def lift(v, to: JetSpace) -> Jet:
        return to.lift(v) if isinstance(v, Jet) else to.constant(v)

    def rec(node: Expr) -> Jet | float:
        if isinstance(node, Const):
            return float(node.value)
        if isinstance(node, Var):
            try:
                v = float(base[node.name])
            except KeyError:
                raise UnknownVariableError(node.name, 0) from None
            if node.name in space.variables:
                return jet_space((node.name,), order).variable(node.name, v)
            return v
        if isinstance(node, (Sum, Prod)):
            vals = [rec(t) for t in _children(node)]
            names = set().union(*(v.variables for v in vals if isinstance(v, Jet)))
            to = jet_space(tuple(n for n in space.variables if n in names), order)
            acc = lift(vals[0], to)
            for v in vals[1:]:
                acc = acc + lift(v, to) if isinstance(node, Sum) else acc * lift(v, to)
            return acc
        arg = rec(_children(node)[0])
        if isinstance(node, Neg):
            return -arg
        if not isinstance(arg, Jet):
            arg = jet_space((), order).constant(arg)
        if isinstance(node, Pow):
            return arg.pow(node.exponent)
        return {Exp: Jet.exp, Sin: Jet.sin, Cos: Jet.cos}[type(node)](arg)

    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        out = lift(rec(e), space)
    if not np.isfinite(out.coef).all():
        raise NonFiniteError("expression evaluation produced non-finite coefficients")
    return out


def _literal(v: float) -> str:
    return repr(v) if math.isfinite(v) else f"float('{v!r}')"


def _ops(each, bad, finite):
    """The names `forward_source` code calls: exp(v) gives the value, sin(v)
    and cos(v) the value and the derivative."""
    def analytic(fn, slope=None):
        def run(v):
            if bad(v, fn is math.exp):  # exp(nan) is nan, which the final check catches
                raise NonFiniteError(
                    f"{fn.__name__} overflow or non-finite argument at {np.max(v)}")
            out = each(fn, v)
            return out if slope is None else (out, each(slope, v))
        return run
    return dict(exp=analytic(math.exp), sin=analytic(math.sin, math.cos),
                cos=analytic(math.cos, lambda t: -math.sin(t)), finite=finite,
                NonFiniteError=NonFiniteError)


# `forward_source` code runs over Python floats, or over rows of points
# (numpy arrays, one value per point) with math's functions value by value
FLOAT_OPS = _ops(lambda fn, v: fn(v),
                 lambda v, exp: v >= _EXP_LIMIT if exp else not math.isfinite(v), math.isfinite)
ROW_OPS = _ops(_pointwise, lambda v, exp: np.any(v >= _EXP_LIMIT if exp else ~np.isfinite(v)),
               lambda v: bool(np.isfinite(v).all()))


def forward_source(
    e: Expr, active: Sequence[str], tag: str, lines: list[str]
) -> tuple[str, list[str]]:
    """Append to `lines` straight-line Python, run in `FLOAT_OPS` or
    `ROW_OPS`, for `e` and its first partials in `active`, read from x0, x1,
    ...; return them as source atoms ("0.0": a structural zero).  Forward
    mode by source transformation (Griewank and Walther, *Evaluating
    Derivatives*, 2nd ed., SIAM 2008, ch. 6) with the arithmetic of an order-1
    `eval_jet` in its order, equal to its coefficients bit for bit up to the
    sign of a zero.  Raises NonFiniteError on an exp argument >= 709, a
    non-finite argument of sin or cos, or a non-finite value or partial."""
    pos = {name: k for k, name in enumerate(active)}
    count, memo = itertools.count(), {}

    def new(src: str, outs: int = 0) -> str:
        # temporaries holding src (a call's outs results), once per distinct
        # src; an atom stays as it is
        if not outs and " " not in src:
            return src
        if src not in memo:
            memo[src] = ", ".join(f"{tag}_{next(count)}" for _ in range(max(outs, 1)))
            lines.append(f"{memo[src]} = {src}")
        return memo[src]

    def times(a: str, b: str) -> str:  # 1.0 * x == x, for every x
        return b if a == "1.0" else a if b == "1.0" else f"{a} * {b}"

    def add(a, b):
        (a0, ad), (b0, bd) = a, b
        return new(f"{a0} + {b0}"), {k: new(" + ".join(d[k] for d in (ad, bd) if k in d))
                                     for k in sorted(ad.keys() | bd.keys())}

    def mul(a, b):  # the product rule of an order-1 jet, a0*b' + a'*b0
        (a0, ad), (b0, bd) = a, b
        return new(times(a0, b0)), {k: new(" + ".join(([times(a0, bd[k])] if k in bd else [])
                                                     + ([times(ad[k], b0)] if k in ad else [])))
                                    for k in sorted(ad.keys() | bd.keys())}

    def rec(node: Expr) -> tuple[str, dict[int, str]]:
        if isinstance(node, Const):
            v = float(node.value)
            return _literal(v), {}
        if isinstance(node, Var):
            if node.name not in pos:
                raise UnknownVariableError(node.name, 0)
            return f"x{pos[node.name]}", {pos[node.name]: "1.0"}
        if isinstance(node, (Sum, Prod)):  # folded left, as `eval_jet` folds
            acc = rec(_children(node)[0])
            for t in _children(node)[1:]:
                acc = (add if isinstance(node, Sum) else mul)(acc, rec(t))
            return acc
        a0, ad = arg = rec(_children(node)[0])
        if isinstance(node, Pow):  # by squaring; the base is still evaluated at ^0
            out, k = None, node.exponent
            while k:
                if k & 1:
                    out = arg if out is None else mul(out, arg)
                k >>= 1
                if k:
                    arg = mul(arg, arg)
            return out or ("1.0", {})
        if isinstance(node, Neg):
            return f"-{a0}", {k: f"-{d}" for k, d in ad.items()}
        if isinstance(node, Exp):
            value = slope = new(f"exp({a0})", 1)
        else:
            value, slope = new(f"{type(node).__name__.lower()}({a0})", 2).split(", ")
        return value, {k: new(times(slope, d)) for k, d in ad.items()}

    value, parts = rec(e)
    # every name (x - x is 0 for finite x, else nan), and no finite literal
    checked = [a for a in [value, *parts.values()] if a.lstrip("-")[0].isalpha()]
    if checked:
        lines.append(f"if not finite({' + '.join(f'{a} - {a}' for a in checked)}): "
                     "raise NonFiniteError('expression evaluation produced a non-finite value "
                     "or partial')")
    return value, [parts.get(k, "0.0") for k in range(len(pos))]
