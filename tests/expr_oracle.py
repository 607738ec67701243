"""Whole-expression references: a quantity written as one expression text,
parsed and evaluated as one tree by genlab's own interval routines.

The package evaluates such quantities from their parts (the tuples'
entries, RealTuple.combination); a reference that parses the whole text
checks that assembly.  exponent_data is the text route of the Siegel
exponents d . theta, which the package reads as integer rows over a
RealTuple.
"""

from fractions import Fraction

from genlab.errors import InvalidConfig
from genlab.expr import eval_interval, exact_rational, parse_expression, to_string
from genlab.numeric import exact_pair, log_expm1_abs_interval, log_pair, make_ctx, run_escalating


def log_expm1_abs(x, precision_bits: int = 128) -> tuple[float, float]:
    """Certified enclosure of log|e^x - 1| as a float pair.

    x may be an expression string, an int, or a Fraction; a rational x is
    evaluated exactly.  Returns the (-inf, -inf) sentinel for x = 0.
    """
    if isinstance(x, str):
        node = parse_expression(x)
        exact = exact_rational(node)
    elif isinstance(x, (int, Fraction)):
        node, exact = None, Fraction(x)
    else:
        raise InvalidConfig(f"unsupported input for log_expm1_abs: {x!r}")

    def attempt(bits: int) -> tuple[float, float]:
        ctx = make_ctx(bits)
        if exact is not None:
            xi = exact_pair(exact, bits)
        else:
            xi = eval_interval(ctx, node)
        return log_pair(ctx, log_expm1_abs_interval(ctx, xi))

    return run_escalating(attempt, precision_bits)


def monomial_text(d, gens) -> str:
    """The exponent text of row d over the generator texts:
    sum_lambda d_lambda * gens[lambda], "0" for the zero row."""
    parts = [f"({k})*({g})" for k, g in zip(d, gens) if k]
    return " + ".join(parts) if parts else "0"


def exponent_data(gens, rows, bits: int):
    """(ctx, enclosures, exact values, zero-test keys) of the exponents
    d . gens, each written out by monomial_text and parsed and evaluated as
    one tree; a key is the exact value, or else the tree's to_string text."""
    nodes = [parse_expression(monomial_text(d, gens)) for d in rows]
    ctx = make_ctx(bits)
    encl = [eval_interval(ctx, n) for n in nodes]
    exact = [exact_rational(n) for n in nodes]
    keys = [("q", q) if q is not None else ("s", to_string(n)) for q, n in zip(exact, nodes)]
    return ctx, encl, exact, keys
