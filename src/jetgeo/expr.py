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

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .jets import Jet, NonFiniteError, jet_space

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
    "compile_grad",
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


def eval_point(e: Expr, env: Mapping[str, float]) -> float:
    """Plain float evaluation at a point (the order-0 jet fast path)."""
    if isinstance(e, Const):
        return float(e.value)
    if isinstance(e, Var):
        try:
            return float(env[e.name])
        except KeyError:
            raise UnknownVariableError(e.name, 0) from None
    if isinstance(e, Sum):
        return math.fsum(eval_point(t, env) for t in e.terms)
    if isinstance(e, Prod):
        out = 1.0
        for f in e.factors:
            out *= eval_point(f, env)
        return out
    if isinstance(e, Pow):
        return eval_point(e.base, env) ** e.exponent
    if isinstance(e, Neg):
        return -eval_point(e.arg, env)
    if isinstance(e, Exp):
        v = eval_point(e.arg, env)
        if v >= 709.0:
            raise NonFiniteError(f"exp overflow at argument {v}")
        return math.exp(v)
    if isinstance(e, Sin):
        return math.sin(eval_point(e.arg, env))
    if isinstance(e, Cos):
        return math.cos(eval_point(e.arg, env))
    raise TypeError(f"not an Expr node: {e!r}")


def eval_jet(e: Expr, base: Mapping[str, float], active: Sequence[str], order: int) -> Jet:
    """Evaluate `e` as a jet at `base` in the variables `active`.

    Variables outside `active` are frozen at their base values.  The
    coefficient at multi-index m of the result is d^m e(base) / m!.
    """
    space = jet_space(tuple(active), order)
    act = set(space.variables)

    def rec(node: Expr) -> Jet:
        if isinstance(node, Const):
            return space.constant(float(node.value))
        if isinstance(node, Var):
            try:
                v = float(base[node.name])
            except KeyError:
                raise UnknownVariableError(node.name, 0) from None
            if node.name in act:
                return space.variable(node.name, v)
            return space.constant(v)
        if isinstance(node, Sum):
            acc = rec(node.terms[0])
            for t in node.terms[1:]:
                acc = acc + rec(t)
            return acc
        if isinstance(node, Prod):
            acc = rec(node.factors[0])
            for f in node.factors[1:]:
                acc = acc * rec(f)
            return acc
        if isinstance(node, Pow):
            return rec(node.base).pow(node.exponent)
        if isinstance(node, Neg):
            return -rec(node.arg)
        if isinstance(node, Exp):
            return rec(node.arg).exp()
        if isinstance(node, Sin):
            return rec(node.arg).sin()
        if isinstance(node, Cos):
            return rec(node.arg).cos()
        raise TypeError(f"not an Expr node: {node!r}")

    out = rec(e)
    if not np.isfinite(out.coef).all():
        raise NonFiniteError("expression evaluation produced non-finite coefficients")
    return out


def _pointwise(fn, v):
    # math's function value by value, as in `eval_jet`: numpy's exp differs
    # from math.exp in the last bit for about one argument in twenty
    return fn(v) if np.ndim(v) == 0 else np.fromiter(map(fn, v.tolist()), float, len(v))


def _grad_add(a, b):
    return a[0] + b[0], a[1] + b[1]


def _grad_mul(a, b):  # the product rule of an order-1 jet, a0*b' + a'*b0
    return a[0] * b[0], a[0] * b[1] + a[1] * b[0]


# (function, derivative); None: the derivative is the function's value
_ANALYTIC = {Exp: (math.exp, None), Sin: (math.sin, math.cos),
             Cos: (math.cos, lambda t: -math.sin(t))}


def compile_grad(
    e: Expr, active: Sequence[str]
) -> Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """Compile `e` once into a function from an (N, n) array of points
    (columns in the order of `active`) to the values (N,) and first partials
    (N, n): forward-mode differentiation over arrays (Griewank and Walther,
    *Evaluating Derivatives*, 2nd ed., SIAM 2008) with the arithmetic of an
    order-1 `eval_jet`, whose results it equals bit for bit up to the sign of
    a zero.  Raises NonFiniteError on an exp argument >= 709, a non-finite
    argument of sin or cos, or a non-finite value or partial, with no numpy
    warning on the way."""
    pos = {name: k for k, name in enumerate(active)}
    zero = np.zeros((len(pos), 1))
    unit = np.eye(len(pos))[:, :, None]  # unit[k]: the gradient of variable k

    # a node becomes a function of the points, one contiguous row per
    # variable, to its value (a float or (N,)) and gradient ((n, N), or
    # (n, 1) to broadcast)
    def build(node: Expr):
        if isinstance(node, Const):
            return lambda x, c=float(node.value): (c, zero)
        if isinstance(node, Var):
            if node.name not in pos:
                raise UnknownVariableError(node.name, 0)
            k = pos[node.name]
            return lambda x: (x[k], unit[k])
        if isinstance(node, (Sum, Prod)):
            parts = [build(t) for t in _children(node)]
            step = _grad_add if isinstance(node, Sum) else _grad_mul

            def fold(x):
                acc = parts[0](x)
                for f in parts[1:]:
                    acc = step(acc, f(x))
                return acc
            return fold
        arg = build(_children(node)[0])
        if isinstance(node, Pow):
            def power(x):
                out, b, k = (1.0, zero), arg(x), node.exponent
                while k:
                    if k & 1:
                        out = _grad_mul(out, b)
                    k >>= 1
                    if k:
                        b = _grad_mul(b, b)
                return out
            return power
        if isinstance(node, Neg):
            return lambda x: _grad_mul((-1.0, zero), arg(x))
        fn, slope = _ANALYTIC[type(node)]

        def analytic(x):
            v, g = arg(x)
            # a nan argument of exp gives nan, which the final check catches
            if np.any(v >= 709.0 if fn is math.exp else ~np.isfinite(v)):
                raise NonFiniteError(f"{fn.__name__} overflow or non-finite argument at {np.max(v)}")
            out = _pointwise(fn, v)
            return out, (out if slope is None else _pointwise(slope, v)) * g
        return analytic

    root = build(e)

    def evaluate(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        x = np.ascontiguousarray(np.asarray(points, dtype=float).T)
        with np.errstate(all="ignore"):
            v, g = root(x)
            # adding zeros gives constants and broadcast gradients full shape
            value = v + np.zeros(x.shape[1])
            grad = (np.zeros(x.shape) + g).T
        if not (np.isfinite(value).all() and np.isfinite(grad).all()):
            raise NonFiniteError("expression evaluation produced a non-finite value or partial")
        return value, grad

    return evaluate
