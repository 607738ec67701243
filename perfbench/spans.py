"""Spans and counters around genlab's public functions, from outside.

``Tracer.install()`` replaces each traced function with a wrapper in every
genlab module namespace that holds it (a name bound by ``from .x import f``
is a separate binding in each importing module) and on the class for
methods.  Spans stay in memory: each records its name, start, end, parent
span and the job id.  ``summary()`` folds them into the per-layer metrics,
and ``dump()`` writes them out once the pass ends.  Nothing here is
imported by the program; the benchmark worker installs it.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from math import gcd

# (module, attribute) -> span name; "Class.method" attributes patch the class
SPANS = {
    ("cli", "run"): "cli.run",
    ("cli", "cache_lookup"): "cli.cache_lookup",
    ("cli", "cache_store"): "cli.cache_store",
    ("cli", "report"): "cli.report",
    ("expr", "parse_expression"): "expr.parse_expression",
    ("tuples", "RealTuple.complex_enclosures"): "tuples.complex_enclosures",
    ("tuples", "RealTuple.exact_values"): "tuples.exact_values",
    ("numeric", "make_ctx"): "numeric.make_ctx",
    ("numeric", "complex_exp"): "numeric.complex_exp",
    ("reduction", "lll_reduce"): "reduction.lll_reduce",
    ("dioph", "genericity_probe"): "dioph.genericity_probe",
    ("dioph", "bituple_probe"): "dioph.bituple_probe",
    ("dioph", "regularity_probe"): "dioph.regularity_probe",
    ("cyclo", "min_vanishing_degree"): "cyclo.min_vanishing_degree",
    ("cyclo", "evaluation_matrix"): "cyclo.evaluation_matrix",
    ("cyclo", "rank_field"): "cyclo.rank_field",
    ("chars", "zero_estimate_search"): "chars.zero_estimate_search",
    ("chars", "wI_family_rank"): "chars.wI_family_rank",
    ("intmat", "smith_normal_form"): "intmat.smith_normal_form",
    ("intmat", "rank_rational"): "intmat.rank_rational",
    ("auxpoly", "siegel_construct"): "auxpoly.siegel_construct",
    ("auxpoly", "omega"): "auxpoly.omega",
    ("auxpoly", "make_schedule"): "auxpoly.make_schedule",
    ("bounds", "bound_grid"): "bounds.bound_grid",
}
# recursive functions: only the outermost call is a span
OUTERMOST = {("expr", "eval_interval"): "expr.eval_interval"}
# hot paths counted without a span
COUNTED = {("cyclo", "CycloNum.inverse"): "cyclo.CycloNum.inverse"}

# layers whose self time is reported as <layer>.self_s
SELF_LAYERS = ("cyclo", "dioph", "auxpoly")


def _phi(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, job]
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.job = ""

    # -- wrappers ----------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.job])
        idx = len(self.spans) - 1
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def _span(self, name, fn, observe=None):
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def _outermost(self, name, fn):
        depth = [0]

        def wrapper(*args, **kwargs):
            if depth[0]:
                return fn(*args, **kwargs)
            depth[0] += 1
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
                depth[0] -= 1

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name + ".calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _escalating(self, fn):
        counts = self.counts

        def wrapper(inner, requested_bits, **kwargs):
            counts["numeric.run_escalating.calls"] += 1

            def attempt(bits):
                counts["numeric.run_escalating.attempts"] += 1
                key = "numeric.run_escalating.max_bits"
                counts[key] = max(counts[key], bits)
                return inner(bits)

            return fn(attempt, requested_bits, **kwargs)

        return wrapper

    # -- observers for counts read at the call boundary --------------------

    def _on_lookup(self, args, result):
        key = "cli.cache.hits" if result is not None else "cli.cache.misses"
        self.counts[key] += 1

    def _on_rank(self, args, result):
        rows = args[0]
        if rows:
            order = max(getattr(x, "order", 1) for row in rows for x in row)
            self.counts["cyclo.rank_field.cells"] += (
                len(rows) * len(rows[0]) * _phi(order)
            )

    def _on_lll(self, args, result):
        key = "reduction.lll_reduce.max_dim"
        self.counts[key] = max(self.counts[key], len(args[0]))

    # -- installation ------------------------------------------------------

    def _replace(self, module_name: str, attr: str, make) -> None:
        module = sys.modules[f"genlab.{module_name}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, meth, make(cls.__dict__[meth]))
            return
        original = getattr(module, attr)
        wrapper = make(original)
        for name, mod in list(sys.modules.items()):
            if name == "genlab" or name.startswith("genlab."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def install(self, cache_only: bool = False) -> None:
        """Wrap every traced function; with cache_only, only count cache
        hits and misses (used by the untimed cache replay)."""
        import genlab.cli  # noqa: F401  (loads every traced module)

        observers = {
            "cli.cache_lookup": self._on_lookup,
            "cyclo.rank_field": self._on_rank,
            "reduction.lll_reduce": self._on_lll,
        }
        if cache_only:
            self._replace(
                "cli", "cache_lookup",
                lambda f: self._span("cli.cache_lookup", f, self._on_lookup),
            )
            return
        for (mod, attr), name in SPANS.items():
            observe = observers.get(name)
            self._replace(
                mod, attr, lambda f, n=name, o=observe: self._span(n, f, o)
            )
        for (mod, attr), name in OUTERMOST.items():
            self._replace(mod, attr, lambda f, n=name: self._outermost(n, f))
        for (mod, attr), name in COUNTED.items():
            self._replace(mod, attr, lambda f, n=name: self._counted(n, f))
        self._replace("numeric", "run_escalating", self._escalating)

    # -- output ------------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """Per-span calls, total and self seconds, plus layer self time."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        out.update(self.counts)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            dur = end - start
            out[name + ".calls"] += 1
            out[name + ".s"] += dur
            out[name + ".self_s"] += dur - child[i]
            layer = name.split(".", 1)[0]
            if layer in SELF_LAYERS:
                out[layer + ".self_s"] += dur - child[i]
        return dict(out)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "job"],
                    "spans": self.spans,
                },
                fh,
            )
