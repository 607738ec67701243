"""Tuples of real numbers given by exact expressions.

A tuple is the basic input object for the diophantine probes: entries
are expression strings (see expr), carried with a working precision and
an optional label.  Entries are evaluated to interval pairs (a, b) of libmp
endpoints at whatever precision a computation needs, once per precision,
so nothing is ever rounded at parse time.

A tuple also carries the memos its consumers fill: the float midpoints of
its enclosures (once per precision), and the dioph probes' float screens
and certified linear forms.  Every memo lives exactly as long as the tuple
object, which the CLI builds once per run, so no run ever reads another
run's work.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from mpmath import libmp

from .errors import InvalidConfig
from .expr import Node, eval_interval, exact_rational, parse_expression
from .numeric import NeedsBits, is_exact_zero, make_ctx, run_escalating, straddles_zero

MIN_PRECISION_BITS = 64


@dataclass(frozen=True)
class RealTuple:
    """An ordered tuple of real numbers defined by expressions.

    Four memos ride on the instance, none of them part of its value:
    _enclosures (bits -> ctx and the entries' interval pairs), _midpoints
    (bits -> float midpoints), _screens, which dioph keys by (screened
    floats, exhaustive heights of a sweep) and fills with every height's
    float-screen survivors, and _forms, which dioph keys by (subset, l,
    bits) and fills with each linear form's signed enclosure, its |.|
    bounds and its certified log pairs.  A sweep over heights and subsets
    screens each subset once and certifies each form once per precision
    this way.  They live as long as the tuple, one CLI run; a new tuple
    (apply_matrix builds one) starts empty.
    """

    expressions: tuple[str, ...]
    precision_bits: int = 128
    label: str = ""
    _nodes: tuple[Node, ...] = field(init=False, repr=False, compare=False)
    _enclosures: dict = field(init=False, repr=False, compare=False, default_factory=dict)
    _midpoints: dict = field(init=False, repr=False, compare=False, default_factory=dict)
    _forms: dict = field(init=False, repr=False, compare=False, default_factory=dict)
    _screens: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        if not self.expressions:
            raise InvalidConfig("a tuple needs at least one entry")
        if self.precision_bits < MIN_PRECISION_BITS:
            raise InvalidConfig(
                f"precision_bits must be >= {MIN_PRECISION_BITS}, got {self.precision_bits}"
            )
        object.__setattr__(
            self, "expressions", tuple(str(s) for s in self.expressions)
        )
        object.__setattr__(
            self, "_nodes", tuple(parse_expression(s) for s in self.expressions)
        )

    def __len__(self) -> int:
        return len(self.expressions)

    def exact_values(self) -> Optional[tuple[Fraction, ...]]:
        """All entries as exact rationals, or None if any entry is irrational."""
        values = []
        for node in self._nodes:
            v = exact_rational(node)
            if v is None:
                return None
            values.append(v)
        return tuple(values)

    def real_enclosures(self, bits: int):
        """(ctx, tuple of interval pairs) at the given precision."""
        return self.complex_enclosures(bits)

    def complex_enclosures(self, bits: int):
        """(ctx, tuple of interval pairs) at the given precision, read
        through real_enclosures.  Evaluated once per precision; later calls
        return the same objects.  The benchmark's tracer wraps this method
        by name, so it keeps the name until the tracer learns a new one
        (ROADMAP item 5 step A)."""
        memo = self._enclosures.get(bits)
        if memo is None:
            ctx = make_ctx(bits)
            encl = tuple(eval_interval(ctx, node) for node in self._nodes)
            memo = self._enclosures[bits] = (ctx, encl)
        return memo

    def midpoints(self, bits: int) -> tuple[float, ...]:
        """The floats nearest the enclosures' midpoints at the given
        precision, the input of the float box screen.  Computed once per
        precision."""
        mids = self._midpoints.get(bits)
        if mids is None:
            _, encl = self.real_enclosures(bits)
            mids = self._midpoints[bits] = tuple(
                libmp.to_float(libmp.mpi_mid(x, bits), rnd=libmp.round_nearest)
                for x in encl
            )
        return mids

    def validate_nonzero(self) -> None:
        """Certify every entry is nonzero, escalating precision as needed."""
        exact = self.exact_values()
        if exact is not None:
            for j, v in enumerate(exact):
                if v == 0:
                    raise InvalidConfig(f"tuple entry {j} is zero")
            return

        def attempt(bits: int) -> None:
            _, encl = self.real_enclosures(bits)
            for j, x in enumerate(encl):
                if is_exact_zero(x):
                    raise InvalidConfig(f"tuple entry {j} is zero")
                if straddles_zero(x):
                    raise NeedsBits

        run_escalating(attempt, self.precision_bits)


def load_expressions(path: str) -> list[str]:
    """Tuple file format: one expression per line; blank lines and lines
    starting with '#' are skipped."""
    entries = []
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            entries.append(line)
    if not entries:
        raise InvalidConfig(f"no expressions found in {path}")
    return entries
