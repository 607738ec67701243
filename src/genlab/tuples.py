"""Tuples of real numbers given by exact expressions.

A tuple is the basic input object for the diophantine probes: entries
are expression strings (see expr), carried with a working precision.
Entries are evaluated to interval pairs (a, b) of libmp endpoints at
whatever precision a computation needs, once per precision, so nothing is
ever rounded at parse time.

Every certified quantity taken from a tuple is an integer combination
sum c_i theta_i of its entries (combination): the dioph linear forms, the
audits' products and the exponents d . theta of a Siegel auxiliary
function.  It is exact when every entry with c_i != 0 is rational, so an
exact zero is ZERO whatever the other entries are, and an interval sum of
the entries' enclosures otherwise.

A tuple also carries the memos its consumers fill: each entry's exact
rational value (on first use), the float midpoints of its enclosures (once
per precision), and the dioph probes' float screens, minimizer choices and
certified linear forms.  Every memo lives exactly as long as the tuple
object, which the CLI builds once per run, so no run ever reads another
run's work.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from mpmath import libmp

from .errors import InvalidConfig
from .expr import Node, eval_interval, exact_rational, parse_expression, to_string
from .numeric import NeedsBits, exact_pair, is_exact_zero, make_ctx, run_escalating, straddles_zero

MIN_PRECISION_BITS = 64


@dataclass(frozen=True)
class RealTuple:
    """An ordered tuple of real numbers defined by expressions.

    Integer combinations of the entries come from exact_combination and
    combination, exact exactly when the entries used are rational.

    Six memos ride on the instance, none of them part of its value:
    _rationals (entry index -> its exact rational value or None, filled on
    first use, so a malformed entry raises only when a computation uses it),
    _enclosures (bits -> ctx and the entries' interval pairs), _midpoints
    (bits -> float midpoints), _screens, which dioph keys by (every
    subset's screened floats, exhaustive heights of a sweep) and fills with
    each subset's float-screen survivors at every height, _choices, which
    dioph keys by (subset, candidates, precision floor, approximate) and
    fills with the subset's minimizing form and, once certified, its logs,
    and _forms, which dioph keys by (subset, l, bits) and fills with each
    linear form's signed enclosure, its |.| bounds and its certified log
    pairs.  A sweep over heights and subsets screens once for every subset,
    picks each subset's minimizer once per candidate set and certifies each
    form once per precision this way.  They live as long as the tuple, one
    CLI run; a new tuple starts empty.
    """

    expressions: tuple[str, ...]
    precision_bits: int = 128
    _nodes: tuple[Node, ...] = field(init=False, repr=False, compare=False)
    _rationals: dict = field(init=False, repr=False, compare=False, default_factory=dict)
    _enclosures: dict = field(init=False, repr=False, compare=False, default_factory=dict)
    _midpoints: dict = field(init=False, repr=False, compare=False, default_factory=dict)
    _forms: dict = field(init=False, repr=False, compare=False, default_factory=dict)
    _screens: dict = field(init=False, repr=False, compare=False, default_factory=dict)
    _choices: dict = field(init=False, repr=False, compare=False, default_factory=dict)

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

    def _rational(self, i: int) -> Optional[Fraction]:
        """Entry i as an exact rational, or None if it is irrational."""
        try:
            return self._rationals[i]
        except KeyError:
            q = self._rationals[i] = exact_rational(self._nodes[i])
            return q

    def exact_values(self) -> Optional[tuple[Fraction, ...]]:
        """All entries as exact rationals, or None if any entry is
        irrational.  Only the benchmark's tracer reads it (ROADMAP item 5)."""
        values = []
        for i in range(len(self)):
            q = self._rational(i)
            if q is None:
                return None
            values.append(q)
        return tuple(values)

    def exact_combination(self, terms) -> Optional[Fraction]:
        """sum c * entry_i over the (c, i) terms, exactly, when every entry
        with c != 0 is rational (the int 0 when no c is nonzero); None
        otherwise."""
        total = 0
        for c, i in terms:
            if c:
                q = self._rational(i)
                if q is None:
                    return None
                total += c * q
        return total

    def combination(self, terms, bits: int):
        """The interval pair of sum c * entry_i over the (c, i) terms (a
        sequence) at the given precision: exact_pair of exact_combination
        when that is known, so an exact zero is ZERO, and otherwise the sum
        of the nonzero terms' products with the entries' enclosures, from
        the first term on (a term with c = 1 is the enclosure itself)."""
        q = self.exact_combination(terms)
        if q is not None:
            return exact_pair(q, bits)
        _, encl = self.real_enclosures(bits)
        total = None
        for c, i in terms:
            if c:
                term = encl[i] if c == 1 else libmp.mpi_mul(encl[i], exact_pair(c, bits), bits)
                total = term if total is None else libmp.mpi_add(total, term, bits)
        return total

    def canonical_text(self, i: int) -> str:
        """Entry i's tree rendered by expr.to_string: entries of equal texts
        are equal, so combinations over equal texts are equal."""
        return to_string(self._nodes[i])

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
        """Certify every entry is nonzero, escalating precision as needed;
        a rational entry is decided exactly."""

        def attempt(bits: int) -> None:
            for j in range(len(self)):
                x = self.combination(((1, j),), bits)
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
