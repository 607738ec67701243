"""Whole-expression references: a quantity written as one expression text,
parsed and evaluated as one tree by genlab's own interval routines.

The package evaluates such quantities from their parts (the tuples'
entries, RealTuple.combination); a reference that parses the whole text
checks that assembly.
"""

from fractions import Fraction

from genlab.errors import InvalidConfig
from genlab.expr import eval_interval, exact_rational, parse_expression
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
        return log_pair(ctx, log_expm1_abs_interval(ctx, xi, bits))

    return run_escalating(attempt, precision_bits)
