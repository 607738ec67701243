"""A tiny expression language for specifying real numbers exactly.

Grammar (whitespace-insensitive):

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' ['-'] integer)?
    atom   := decimal | 'pi' | 'e' | 'phi'
            | ('sqrt' | 'log' | 'exp') '(' expr ')'
            | '(' expr ')'

Decimal literals are exact rationals ("0.1" means 1/10).  phi is the
golden ratio (1+sqrt(5))/2.  Exponents are integer literals, not
subexpressions.  Parsed trees evaluate either to an exact Fraction
(when no irrational leaf occurs) or to an interval enclosure, a pair of
libmp endpoints, at any requested precision.
"""

from __future__ import annotations

import re as _re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from mpmath import libmp

from .errors import InvalidConfig
from .numeric import NeedsBits, exact_pair, pi_pair, straddles_zero

Node = Union["Num", "Const", "Call", "BinOp", "Neg", "Pow"]


@dataclass(frozen=True)
class Num:
    value: Fraction


@dataclass(frozen=True)
class Const:
    name: str  # "pi" | "e" | "phi"


@dataclass(frozen=True)
class Call:
    fn: str  # "sqrt" | "log" | "exp"
    arg: Node


@dataclass(frozen=True)
class BinOp:
    op: str  # "+" | "-" | "*" | "/"
    left: Node
    right: Node


@dataclass(frozen=True)
class Neg:
    arg: Node


@dataclass(frozen=True)
class Pow:
    base: Node
    exponent: int


_TOKEN = _re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?|\.\d+)|(?P<name>[a-zA-Z]+)|(?P<op>[-+*/^()]))"
)

_CONSTS = {"pi", "e", "phi"}
_FUNCS = {"sqrt", "log", "exp"}


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise InvalidConfig(f"bad character in expression at position {pos}: {text[pos:]!r}")
        pos = m.end()
        if m.group("num") is not None:
            tokens.append(("num", m.group("num")))
        elif m.group("name") is not None:
            tokens.append(("name", m.group("name").lower()))
        else:
            tokens.append(("op", m.group("op")))
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, str]], text: str):
        self.tokens = tokens
        self.pos = 0
        self.text = text

    def peek(self) -> Optional[tuple[str, str]]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> tuple[str, str]:
        tok = self.peek()
        if tok is None:
            raise InvalidConfig(f"unexpected end of expression: {self.text!r}")
        self.pos += 1
        return tok

    def expect_op(self, op: str) -> None:
        tok = self.next()
        if tok != ("op", op):
            raise InvalidConfig(f"expected {op!r} in expression {self.text!r}, got {tok}")

    def parse(self) -> Node:
        node = self.expr()
        if self.peek() is not None:
            raise InvalidConfig(f"trailing tokens in expression {self.text!r}")
        return node

    def expr(self) -> Node:
        node = self.term()
        while self.peek() in (("op", "+"), ("op", "-")):
            op = self.next()[1]
            node = BinOp(op, node, self.term())
        return node

    def term(self) -> Node:
        node = self.unary()
        while self.peek() in (("op", "*"), ("op", "/")):
            op = self.next()[1]
            node = BinOp(op, node, self.unary())
        return node

    def unary(self) -> Node:
        if self.peek() == ("op", "-"):
            self.next()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Node:
        base = self.atom()
        if self.peek() == ("op", "^"):
            self.next()
            sign = 1
            if self.peek() == ("op", "-"):
                self.next()
                sign = -1
            kind, val = self.next()
            if kind != "num" or "." in val:
                raise InvalidConfig(f"exponent must be an integer literal in {self.text!r}")
            return Pow(base, sign * int(val))
        return base

    def atom(self) -> Node:
        kind, val = self.next()
        if kind == "num":
            if "." in val:
                whole, _, frac = val.partition(".")
                num = int(whole or "0") * 10 ** len(frac) + int(frac or "0")
                return Num(Fraction(num, 10 ** len(frac)))
            return Num(Fraction(int(val)))
        if kind == "name":
            if val in _CONSTS:
                return Const(val)
            if val in _FUNCS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return Call(val, arg)
            raise InvalidConfig(f"unknown name {val!r} in expression {self.text!r}")
        if (kind, val) == ("op", "("):
            node = self.expr()
            self.expect_op(")")
            return node
        raise InvalidConfig(f"unexpected token {val!r} in expression {self.text!r}")


def parse_expression(text: str) -> Node:
    if not isinstance(text, str) or not text.strip():
        raise InvalidConfig("empty expression")
    return _Parser(_tokenize(text), text).parse()


def exact_rational(node: Node) -> Optional[Fraction]:
    """The exact rational value of the tree, or None if an irrational leaf occurs."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Const):
        return None
    if isinstance(node, Call):
        return None
    if isinstance(node, Neg):
        v = exact_rational(node.arg)
        return None if v is None else -v
    if isinstance(node, Pow):
        v = exact_rational(node.base)
        if v is None:
            return None
        if node.exponent < 0 and v == 0:
            raise InvalidConfig("zero raised to a negative power")
        return v ** node.exponent
    if isinstance(node, BinOp):
        a = exact_rational(node.left)
        b = exact_rational(node.right)
        if a is None or b is None:
            return None
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        if b == 0:
            raise InvalidConfig("division by zero in expression")
        return a / b
    raise TypeError(f"not an expression node: {node!r}")


def eval_interval(ctx, node: Node) -> tuple:
    """Evaluate to an interval pair at ctx.prec bits.  Raises NeedsBits when
    a log or division cannot be certified at the current precision."""
    p = ctx.prec
    if isinstance(node, Num):
        return exact_pair(node.value, p)
    if isinstance(node, Const):
        if node.name == "pi":
            return pi_pair(p)
        if node.name == "e":
            return libmp.mpi_exp(exact_pair(1, p), p)
        root5 = libmp.mpi_sqrt(exact_pair(5, p), p)
        return libmp.mpi_div(libmp.mpi_add(exact_pair(1, p), root5, p), exact_pair(2, p), p)
    if isinstance(node, Neg):
        return libmp.mpi_neg(eval_interval(ctx, node.arg), p)
    if isinstance(node, Pow):
        base = eval_interval(ctx, node.base)
        k = node.exponent
        if k >= 0:
            return libmp.mpi_pow_int(base, k, p)
        if straddles_zero(base):
            raise NeedsBits
        return libmp.mpi_div(exact_pair(1, p), libmp.mpi_pow_int(base, -k, p), p)
    if isinstance(node, Call):
        lo, hi = arg = eval_interval(ctx, node.arg)
        if node.fn == "exp":
            return libmp.mpi_exp(arg, p)
        if node.fn == "sqrt":
            if libmp.mpf_lt(hi, libmp.fzero):
                raise InvalidConfig("sqrt of a negative quantity")
            if libmp.mpf_lt(lo, libmp.fzero):
                raise NeedsBits
            return libmp.mpi_sqrt(arg, p)
        if libmp.mpf_le(hi, libmp.fzero):
            raise InvalidConfig("log of a non-positive quantity")
        if libmp.mpf_le(lo, libmp.fzero):
            raise NeedsBits
        return libmp.mpi_log(arg, p)
    if isinstance(node, BinOp):
        a = eval_interval(ctx, node.left)
        b = eval_interval(ctx, node.right)
        if node.op == "+":
            return libmp.mpi_add(a, b, p)
        if node.op == "-":
            return libmp.mpi_sub(a, b, p)
        if node.op == "*":
            return libmp.mpi_mul(a, b, p)
        if straddles_zero(b):
            exact = exact_rational(node.right)
            if exact is not None and exact == 0:
                raise InvalidConfig("division by zero in expression")
            raise NeedsBits
        return libmp.mpi_div(a, b, p)
    raise TypeError(f"not an expression node: {node!r}")


def to_string(node: Node) -> str:
    """A parseable rendering of the tree (used in reports and cache keys)."""
    if isinstance(node, Num):
        q = node.value
        return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"
    if isinstance(node, Const):
        return node.name
    if isinstance(node, Call):
        return f"{node.fn}({to_string(node.arg)})"
    if isinstance(node, Neg):
        return f"-({to_string(node.arg)})"
    if isinstance(node, Pow):
        return f"({to_string(node.base)})^{node.exponent}"
    if isinstance(node, BinOp):
        return f"({to_string(node.left)}{node.op}{to_string(node.right)})"
    raise TypeError(f"not an expression node: {node!r}")
