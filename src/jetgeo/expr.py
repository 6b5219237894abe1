"""Expression trees for metric components and profile functions.

The grammar is deliberately small: sums, products, non-negative integer
powers, unary minus, and the analytic primitives exp/sin/cos.  There is no
division and no non-integer power, which keeps every expression jet-friendly
(closed under the arithmetic of `jets`).

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := '-' factor | atom ('^' int)?
    atom   := number | ident | 'exp(' expr ')' | 'sin(' expr ')'
            | 'cos(' expr ')' | '(' expr ')'

so '^' binds tighter than unary minus, as in standard notation: -y^2 is
-(y^2), and a '-' before a bare literal folds into it (Const(-c)).  A
number is a finite float literal.

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
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .jets import (Jet, JetSpace, NonFiniteError, _exp, _finite, _power, _series_coefficients,
                   _trig, jet_space)

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
    "jet_tape",
    "JetTape",
    "forward_source",
    "OPS",
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
                value = float(lit)
            except ValueError:
                raise ParseError(f"malformed number {lit!r}", i) from None
            if not math.isfinite(value):
                raise ParseError(f"number {lit!r} is not finite as a float", i)
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
        if self.peek()[0] == "-":
            self.take()
            inner = self.factor()
            # '-' folds into a bare literal so Const(-c) round-trips
            return Const(-inner.value) if isinstance(inner, Const) else Neg(inner)
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
        if btext.startswith("-"):  # a negative literal: -2.0^2 reads as -(2.0^2)
            btext = f"({btext})"
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


def _fold(e: Expr, leaf, add, mul, neg, call):
    """`e` in the one evaluation order of `eval_point`, `eval_jet` and
    `forward_source`, which supply the operations: a constant or variable is
    `leaf(node)`; a sum or product evaluates its operands left to right and
    folds them left with `add` or `mul`; a power multiplies the squares of
    its base for the set bits of its exponent, lowest first, with no product
    by 1 (`jets._power`; ^0 is leaf(Const(1.0))); a negation is `neg(arg)`,
    and exp, sin or cos `call(name, arg)`."""
    def rec(node: Expr):
        kind = type(node)  # the node classes have no subclasses
        if kind is Const or kind is Var:
            return leaf(node)
        if kind is Sum or kind is Prod:
            op, operands = (add, node.terms) if kind is Sum else (mul, node.factors)
            return functools.reduce(op, [rec(t) for t in operands])
        if kind is Pow:
            base = rec(node.base)
            return _power(base, node.exponent, mul) if node.exponent else leaf(Const(1.0))
        if kind is Neg:
            return neg(rec(node.arg))
        if kind is Exp or kind is Sin or kind is Cos:
            return call(kind.__name__.lower(), rec(node.arg))
        raise TypeError(f"not an Expr node: {node!r}")
    try:
        return rec(e)
    finally:
        # rec holds itself through its closure: break that cycle, so what
        # the operations hold goes when the caller lets go, not at a collection
        del rec


# the names `forward_source` code calls, over Python floats or over rows of
# points (numpy arrays, one value per point), with the guards of `jets`
OPS = dict(exp=_exp, sin=functools.partial(_trig, math.sin),
           cos=functools.partial(_trig, math.cos), finite=_finite, NonFiniteError=NonFiniteError)


def eval_point(e: Expr, env: Mapping[str, float | np.ndarray]) -> float | np.ndarray:
    """Plain float evaluation at a point, in the order and arithmetic of
    `eval_jet` (`_fold`): the result is the constant term of any `eval_jet`
    of `e` at `env`, bit for bit up to the sign of a zero.

    The values of `env` may also be numpy rows of equal length, one value
    per point; a node that reads one is a row of its values at the points,
    each the float walk's (sums and products are never taken in place, and
    exp, sin and cos are math's, value by value), and a node that reads none
    stays a float.  An exp argument >= 709, or a sin or cos argument that
    is not finite, raises NonFiniteError at any of the points; the caller
    silences numpy's warnings on overflow."""
    def leaf(node):
        if isinstance(node, Const):
            return float(node.value)
        try:
            v = env[node.name]
        except KeyError:
            raise UnknownVariableError(node.name, 0) from None
        return v if isinstance(v, np.ndarray) else float(v)

    return _fold(e, leaf, operator.add, operator.mul, operator.neg, lambda f, v: OPS[f](v))


class JetTape(NamedTuple):
    """`eval_jet`'s plan of an expression in its variables at an order
    (`jet_tape`): the replay's steps and registers, the register of the
    result, the space of its codes, and the fold position of its check."""

    steps: list
    init: list
    out: int
    space: JetSpace
    end: int


# the kinds of tape step, with what each holds after its kind and its
# output register
_VAR = 0       # name, fold position, 0/1/2: a float, a constant or a variable jet
_ADD = 1       # a, b
_WIDE_ADD = 2  # a, b, size of the union, position there of a and of b
_WHOLE = slice(None)  # the positions of an operand at the union's codes
_MUL = 3       # a, b (floats)
_SCALE = 4     # jet, float
_NEG = 5       # a
_CALL = 6      # a (a float), name, fold position
_COEFFS = 7    # a (a jet), name, order, fold position, whether a holds code 0
_CONST = 8     # coefficients
_CHECK = 9     # (no output) the exp's register, fold position
_PRODUCT = 10  # (no output) the union space, its rows (out, a, b, at_a, at_b)
_SERIES = 11   # (no output) the jets' space, its rows (out, jet, coefficients)
_FREE = 12     # (no output) the registers to let go


def jet_tape(e: Expr, active: Sequence[str], order: int) -> JetTape:
    """The plan of `eval_jet(e, ., active, order)`: `_fold` over code sets
    alone, never values, as one flat tape (taping: Griewank and Walther,
    *Evaluating Derivatives*, 2nd ed., SIAM 2008, ch. 13).

    A node is a register and the space of its codes, or None for a float.
    Each operation records a step with what its arithmetic reads: the
    space at the union of a sum's or product's operands and their positions
    there (`JetSpace.join`), a product's union space, whose listing
    `multiply` reads, and the space it reaches.  A float summand is its
    constant jet, at code 0 alone; a float factor scales the jet and adds
    +0.0.  An exp, sin or cos of a jet is its coefficients
    (`_series_coefficients`) and a series step, their Horner sum in powers
    of the jet less its value over the jet's codes, with code 0 (a sum with
    0.0) where they lack it (`JetSpace.series_rows`), whose Horner products
    that code set keeps (`JetSpace.horner`).  A constant is a register
    filled before the replay.  Products that read one listing at one depth
    (the most products on a path from a leaf) are one step, one `multiply`
    of stacked rows, each row the one-row product bit for bit, and so are
    series over one code set at one depth, each Horner product one
    `multiply` of their rows.  A depth runs its products and series, then
    its other steps in fold order.  Checks keep their fold position, so the
    replay raises the one the fold would meet first."""
    space = jet_space(tuple(active), order)
    const = space.occupying(np.zeros(1, dtype=np.int64))  # code 0 alone
    # per register: its value before the replay (a constant's, else None),
    # the depth of the step that writes it and the last depth that reads it
    init, depth, last, leaves = [], [], [], {}
    # per depth: its products and series by key, and its other steps
    tiers: list[tuple[dict, list]] = []
    checks = itertools.count()  # the fold positions of the checks

    def new(d):
        while len(tiers) <= d:
            tiers.append(({}, []))
        init.append(None)
        depth.append(d)
        last.append(d)
        return len(init) - 1

    def reads(ins, lift=0):
        # the depth of a step that reads the registers `ins`: theirs, one
        # more for a product; each of them lives to the end of that depth
        d = 0
        for r in ins:
            if depth[r] > d:
                d = depth[r]
        d += lift
        for r in ins:
            if last[r] < d:
                last[r] = d
        return d

    def step(kind, ins, *fields):
        # `new(reads(ins))`, written out: most nodes are one step
        d = 0
        for r in ins:
            if depth[r] > d:
                d = depth[r]
        for r in ins:
            if last[r] < d:
                last[r] = d
        if len(tiers) == d:
            tiers.append(({}, []))
        out = len(init)
        init.append(None)
        depth.append(d)
        last.append(d)
        tiers[d][1].append((kind, out, *ins, *fields))
        return out

    def stacked(d, kind, space, out, row):
        # a row of the product or series step of its kind over one code set
        # at depth d
        group = tiers[d][0].get((kind, space))
        if group is None:
            tiers[d][0][kind, space] = (kind, space, [row])
        else:
            group[2].append(row)
        return out

    def joined(sa, sb):
        # the union space, and each operand's positions there, or a whole
        # slice where the operand is at the union's codes as it is
        if sa is sb:
            return sa, _WHOLE, _WHOLE
        u, at_a, at_b = sa.join(sb)
        return u, _WHOLE if u is sa else at_a, _WHOLE if u is sb else at_b

    def leaf(node):
        # a variable is read once, where the fold first reads it: no step
        # changes its operands, so every later leaf of it shares that value
        if type(node) is Const:
            init.append(float(node.value))
            depth.append(0)
            last.append(0)
            return len(init) - 1, None
        got = leaves.get(node.name)
        if got is None:
            name = node.name
            if name not in space.variables:
                got = leaves[name] = step(_VAR, (), name, next(checks), 0), None
            else:
                got = leaves[name] = (step(_VAR, (), name, next(checks), 2 if order else 1),
                                      space.variable(name, 0.0).space if order else const)
        return got

    def add(a, b):
        (ra, sa), (rb, sb) = a, b
        if sa is None and sb is None:
            return step(_ADD, (ra, rb)), None
        # a float summand is its constant jet, at code 0 alone
        u, at_a, at_b = joined(sa or const, sb or const)
        if at_a is _WHOLE and at_b is _WHOLE:
            return step(_ADD, (ra, rb)), u
        return step(_WIDE_ADD, (ra, rb), u.size, at_a, at_b), u

    def mul(a, b):
        (ra, sa), (rb, sb) = a, b
        if sa is None:
            return (step(_MUL, (ra, rb)), None) if sb is None else (step(_SCALE, (rb, ra)), sb)
        if sb is None:
            return step(_SCALE, (ra, rb)), sa
        u, at_a, at_b = joined(sa, sb)
        d = reads((ra, rb), 1)
        out = new(d)
        return stacked(d, _PRODUCT, u, out, (out, ra, rb, at_a, at_b)), u.product_space()

    def neg(a):
        return step(_NEG, (a[0],)), a[1]

    def call(name: str, a):
        ra, sa = a
        if sa is None:
            return step(_CALL, (ra,), name, next(checks)), None
        coeffs = step(_COEFFS, (ra,), name, order, next(checks), sa._zero)
        if not order:
            out = step(_CONST, (coeffs,)), const
        else:
            # the series over the codes of the jet, which hold code 0 or get
            # it by a sum with 0.0: its Horner products (`JetSpace.horner`),
            # kept on that code set
            rj, sj = a if sa._zero else add(a, leaf(Const(0.0)))
            levels, reach = sj.horner()
            d = reads((rj, coeffs), 1)
            out = new(d + max(len(levels) - 1, 0))  # the depth of its last product
            out = stacked(d, _SERIES, sj, out, (out, rj, coeffs)), reach
        if name == "exp":  # at the depth of the exp's register, which `new` made
            tiers[depth[out[0]]][1].append((_CHECK, out[0], next(checks)))
        return out

    out, out_space = _fold(e, leaf, add, mul, neg, call)
    # each depth's products and series, then its other steps in fold order,
    # then the release of the registers no later depth reads (the result
    # excepted)
    dead: list[list[int]] = [[] for _ in tiers]
    for r, (d, v) in enumerate(zip(last, init)):
        if v is None and r != out:
            dead[d].append(r)
    steps = []
    for (groups, rest), free in zip(tiers, dead):
        steps += groups.values()
        steps += rest
        if free:
            steps.append((_FREE, free))
    return JetTape(steps, init, out, out_space or const, next(checks))


def _replay(tape: JetTape, base: Mapping[str, float]) -> Jet:
    """The numbers of `tape` at `base`.  A failed check is noted with its
    fold position, and the replay goes on with nan for its value; at the
    end the first in fold order is raised, as the fold would have."""
    regs, failed, nan = list(tape.init), [], math.nan
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        for s in tape.steps:
            kind = s[0]
            if kind == _PRODUCT:
                u, rows = s[1], s[2]
                w = np.zeros((2, len(rows), u.size))
                for i, (out, ra, rb, at_a, at_b) in enumerate(rows):
                    w[0, i, at_a] = regs[ra]
                    w[1, i, at_b] = regs[rb]
                res = u.multiply(w[0], w[1])
                for i, row in enumerate(rows):
                    regs[row[0]] = res[i]
            elif kind == _SERIES:
                # the series of each row in powers of nil, the jet with no
                # constant term, summed by `series_rows`, rows stacked
                rows = s[2]
                nil = np.array([regs[r[1]] for r in rows])
                nil[:, 0] = 0.0
                acc = s[1].series_rows(nil, [regs[r[2]] for r in rows])[1]
                for i, row in enumerate(rows):
                    regs[row[0]] = acc[i]
            elif kind == _FREE:
                for r in s[1]:
                    regs[r] = None
            elif kind == _ADD:
                regs[s[1]] = regs[s[2]] + regs[s[3]]
            elif kind == _WIDE_ADD:
                w = np.zeros((2, s[4]))
                w[0, s[5]], w[1, s[6]] = regs[s[2]], regs[s[3]]
                regs[s[1]] = w[0] + w[1]
            elif kind == _SCALE:
                regs[s[1]] = regs[s[2]] * regs[s[3]] + 0.0
            elif kind == _MUL:
                regs[s[1]] = regs[s[2]] * regs[s[3]]
            elif kind == _VAR:
                try:
                    v = float(base[s[2]])
                except KeyError:
                    failed.append((s[3], UnknownVariableError(s[2], 0)))
                    v = nan
                except (TypeError, ValueError, OverflowError) as exc:  # not a number
                    failed.append((s[3], exc))
                    v = nan
                regs[s[1]] = v if not s[4] else np.array([v, 1.0] if s[4] == 2 else [v])
            elif kind == _NEG:
                regs[s[1]] = -regs[s[2]]
            elif kind == _COEFFS:
                a = regs[s[2]]
                try:
                    regs[s[1]] = _series_coefficients(s[3], float(a[0]) if s[6] else 0.0, s[4])
                except NonFiniteError as exc:
                    failed.append((s[5], exc))
                    regs[s[1]] = [nan] * (s[4] + 1)
            elif kind == _CHECK:
                if not np.isfinite(regs[s[1]]).all():
                    failed.append((s[2], NonFiniteError("non-finite coefficients in jet exp")))
            elif kind == _CALL:
                try:
                    regs[s[1]] = OPS[s[3]](regs[s[2]])
                except NonFiniteError as exc:
                    failed.append((s[4], exc))
                    regs[s[1]] = nan
            else:  # _CONST
                regs[s[1]] = np.array([regs[s[2]][0]])
    out = regs[tape.out]
    out = np.array([float(out)]) if isinstance(out, float) else out
    if not np.isfinite(out).all():
        failed.append((tape.end, NonFiniteError(
            "expression evaluation produced non-finite coefficients")))
    if failed:
        raise min(failed, key=lambda f: f[0])[1]
    return Jet(tape.space, out)


def eval_jet(e: Expr, base: Mapping[str, float], active: Sequence[str], order: int,
             tape: JetTape | None = None) -> Jet:
    """Evaluate `e` as a jet at `base` in the variables `active`.

    Variables outside `active` are frozen at their base values.  The
    coefficient at multi-index m of the result is d^m e(base) / m!.

    Every node is a jet of the one code system of `active` at `order` that
    holds only the codes it occupies (`jets`), so its coefficients are
    those of its own variables (Taylor propagation restricted to a term's
    own variables: Griewank and Walther, *Evaluating Derivatives*, 2nd ed.,
    SIAM 2008, ch. 13).  A constant or a frozen variable is a float, and a
    float stays a float, as in `eval_point` (exp, sin and cos of a float
    are `OPS`').  A float summand is its constant jet; a float factor
    scales the other operand and adds +0.0, which leaves the bits of a
    product by its constant jet (whose bins start at +0.0).  A product
    over a set of codes is the pair table's to the bit (see `jets`), so
    every coefficient is the one of evaluating each node over all of
    `active`, up to the sign of a zero.

    The codes each node occupies follow from `e`, `active` and `order`
    alone, so the evaluation is a replay of `jet_tape(e, active, order)`:
    `tape`, one kept from an earlier call, or one made now.  A kept tape
    alone decides the expression, so it must be `e`'s; one made for other
    variables or another order raises ValueError.  The replay does the
    numbers of the fold, one jet a node, in its order, bit for bit, with its
    checks: an unknown variable raises UnknownVariableError, an exp
    argument >= 709 or a non-finite sin or cos argument, non-finite
    coefficients of an exp, or a non-finite result NonFiniteError, the
    first the fold meets.
    """
    if tape is None:
        tape = jet_tape(e, active, order)
    elif (tape.space.variables, tape.space.order) != (tuple(active), order):
        raise ValueError(f"a tape of {tape.space.variables} at order {tape.space.order} "
                         f"does not evaluate in {tuple(active)} at order {order}")
    return _replay(tape, base)


def _literal(v: float) -> str:
    return repr(v) if math.isfinite(v) else f"float('{v!r}')"


def forward_source(
    e: Expr, active: Sequence[str], tag: str, lines: list[str]
) -> tuple[str, list[str]]:
    """Append to `lines` straight-line Python, run in `OPS` over floats or
    rows, for `e` and its first partials in `active`, read from x0, x1, ...;
    return them as source atoms ("0.0": a structural zero).  Forward mode by
    source transformation (Griewank and Walther, *Evaluating Derivatives*,
    2nd ed., SIAM 2008, ch. 6) with the arithmetic of an order-1 `eval_jet`
    in its order (`_fold`), equal to its coefficients bit for bit up to the
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

    def leaf(node):
        if isinstance(node, Const):
            return _literal(float(node.value)), {}
        if node.name not in pos:
            raise UnknownVariableError(node.name, 0)
        return f"x{pos[node.name]}", {pos[node.name]: "1.0"}

    def neg(a):
        return f"-{a[0]}", {k: f"-{d}" for k, d in a[1].items()}

    def call(name: str, arg):  # exp' = exp, sin' = cos, cos' = -sin
        a0, ad = arg
        value = slope = new(f"{name}({a0})", 1)
        if name == "sin":
            slope = new(f"cos({a0})", 1)
        elif name == "cos":
            slope = f"-{new(f'sin({a0})', 1)}"
        return value, {k: new(times(slope, d)) for k, d in ad.items()}

    value, parts = _fold(e, leaf, add, mul, neg, call)
    # every name (x - x is 0 for finite x, else nan), and no finite literal
    checked = [a for a in [value, *parts.values()] if a.lstrip("-")[0].isalpha()]
    if checked:
        lines.append(f"if not finite({' + '.join(f'{a} - {a}' for a in checked)}): "
                     "raise NonFiniteError('expression evaluation produced a non-finite value "
                     "or partial')")
    return value, [parts.get(k, "0.0") for k in range(len(pos))]
