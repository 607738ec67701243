"""Exact arithmetic in cyclotomic fields and finite point sets built from it.

Point coordinates are elements of Q(zeta_n) represented as polynomial
residues modulo the n-th cyclotomic polynomial with Fraction coefficients.
That covers exact rationals (n = 1), Gaussian rationals (n = 4), and the
root-of-unity constructions used throughout the workbench, while keeping
every equality test exact.

The head-line operation is min_vanishing_degree: the smallest total degree
of a nonzero polynomial vanishing on a finite set.  The monomials' value
columns are inserted in graded order into one exact echelon basis, and the
first column that reduces to zero has that degree.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Iterable, Sequence

from .errors import HypothesisNotMet, InvalidConfig
from .intmat import echelon, insert_row

IntPoly = list[int]
FracPoly = list[Fraction]


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, low degree first."""
    if n < 1:
        raise ValueError("order must be >= 1")
    # x^n - 1 divided by the product of all proper cyclotomic divisors
    poly: IntPoly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly = _int_poly_div_exact(poly, list(cyclotomic_polynomial(d)))
    return tuple(poly)


def _int_poly_div_exact(num: IntPoly, den: IntPoly) -> IntPoly:
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for k in range(len(out) - 1, -1, -1):
        c = num[k + len(den) - 1]
        if c % den[-1] != 0:
            raise ArithmeticError("non-exact polynomial division")
        q = c // den[-1]
        out[k] = q
        if q:
            for i, dc in enumerate(den):
                num[k + i] -= q * dc
    if any(num):
        raise ArithmeticError("non-exact polynomial division")
    return out


def _frac_poly_mod(poly: FracPoly, mod: Sequence[int]) -> FracPoly:
    deg = len(mod) - 1
    work = list(poly)
    for k in range(len(work) - 1, deg - 1, -1):
        c = work[k]
        if c:
            # mod is monic, so this stays exact
            for i in range(deg + 1):
                work[k - deg + i] -= c * mod[i]
    work = work[:deg]
    while len(work) < deg:
        work.append(Fraction(0))
    return work


def _frac_poly_divmod(a: FracPoly, b: FracPoly) -> tuple[FracPoly, FracPoly]:
    a = list(a)
    db = _poly_deg(b)
    if db < 0:
        raise ZeroDivisionError("polynomial division by zero")
    da = _poly_deg(a)
    if da < db:
        return [Fraction(0)], a
    out = [Fraction(0)] * (da - db + 1)
    for k in range(da - db, -1, -1):
        c = a[k + db] / b[db]
        out[k] = c
        if c:
            for i in range(db + 1):
                a[k + i] -= c * b[i]
    return out, a


def _poly_deg(p: Sequence[Fraction]) -> int:
    for i in range(len(p) - 1, -1, -1):
        if p[i]:
            return i
    return -1


def _poly_mul_frac(a: FracPoly, b: FracPoly) -> FracPoly:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def _zip_pad(a: FracPoly, b: FracPoly):
    n = max(len(a), len(b))
    a = a + [Fraction(0)] * (n - len(a))
    b = b + [Fraction(0)] * (n - len(b))
    return zip(a, b)


class CycloNum:
    """An element of Q(zeta_order), immutable and hashable.

    Binary operations promote both sides into the compositum
    Q(zeta_lcm(orders)), so values of different orders mix freely.
    """

    __slots__ = ("order", "coeffs", "_hash")

    def __init__(self, order: int, coeffs: Iterable[Fraction | int]):
        mod = cyclotomic_polynomial(order)
        deg = len(mod) - 1
        cs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        if len(cs) > deg:
            cs = _frac_poly_mod(cs, mod)
        while len(cs) < deg:
            cs.append(Fraction(0))
        self.order = order
        self.coeffs = tuple(cs)
        self._hash = None

    @staticmethod
    def from_rational(q: Fraction | int) -> "CycloNum":
        return CycloNum(1, [Fraction(q)])

    @staticmethod
    def root_of_unity(order: int, power: int = 1) -> "CycloNum":
        power %= order
        coeffs = [Fraction(0)] * (power + 1)
        coeffs[power] = Fraction(1)
        return CycloNum(order, coeffs)

    def promote(self, order: int) -> "CycloNum":
        if order == self.order:
            return self
        if order % self.order != 0:
            raise ValueError("can only promote to a multiple of the order")
        step = order // self.order
        out = [Fraction(0)] * ((len(self.coeffs) - 1) * step + 1 or 1)
        for i, c in enumerate(self.coeffs):
            out[i * step] += c
        return CycloNum(order, out)

    def _align(self, other: "CycloNum") -> tuple["CycloNum", "CycloNum"]:
        if self.order == other.order:
            return self, other
        m = lcm(self.order, other.order)
        return self.promote(m), other.promote(m)

    def _coerce(self, other) -> "CycloNum | None":
        if isinstance(other, CycloNum):
            return other
        if isinstance(other, (int, Fraction)):
            return CycloNum.from_rational(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self._align(o)
        return CycloNum(a.order, [x + y for x, y in zip(a.coeffs, b.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return CycloNum(self.order, [-c for c in self.coeffs])

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self._align(o)
        return CycloNum(a.order, [x - y for x, y in zip(a.coeffs, b.coeffs)])

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self._align(o)
        return CycloNum(a.order, _poly_mul_frac(a.coeffs, b.coeffs))

    __rmul__ = __mul__

    def inverse(self) -> "CycloNum":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        mod = [Fraction(c) for c in cyclotomic_polynomial(self.order)]
        # extended Euclid in Q[x]: s*self + t*mod = 1
        r0, r1 = mod, list(self.coeffs)
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while _poly_deg(r1) > 0:
            q, r = _frac_poly_divmod(r0, r1)
            r0, r1 = r1, r
            qs1 = _poly_mul_frac(q, s1)
            s0, s1 = s1, [x - y for x, y in _zip_pad(s0, qs1)]
        c = r1[_poly_deg(r1)]
        inv = [x / c for x in s1]
        return CycloNum(self.order, inv)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        base = self if k >= 0 else self.inverse()
        k = abs(k)
        acc = CycloNum(base.order, [Fraction(1)])
        while k:
            if k & 1:
                acc = acc * base
            base = base * base
            k >>= 1
        return acc

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("not a rational value")
        return self.coeffs[0] if self.coeffs else Fraction(0)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self._align(o)
        return a.coeffs == b.coeffs

    def __hash__(self):
        if self._hash is None:
            # hash in a canonical order so equal values collide across orders
            if self.is_rational():
                h = hash(("cyclo", 1, (self.coeffs[0] if self.coeffs else Fraction(0),)))
            else:
                h = hash(("cyclo", self.order, self.coeffs))
            self._hash = h
        return self._hash

    def complex_value(self) -> complex:
        import cmath

        z = cmath.exp(2j * cmath.pi / self.order)
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * z + complex(c)
        return acc

    def __repr__(self):
        if self.is_rational():
            return f"CycloNum({self.coeffs[0] if self.coeffs else 0})"
        terms = ", ".join(str(c) for c in self.coeffs)
        return f"CycloNum(zeta{self.order}; [{terms}])"


ZERO = CycloNum.from_rational(0)
ONE = CycloNum.from_rational(1)

Point = tuple[CycloNum, ...]


def make_point(coords: Iterable) -> Point:
    out = []
    for c in coords:
        if isinstance(c, CycloNum):
            out.append(c)
        else:
            out.append(CycloNum.from_rational(c))
    return tuple(out)


def normalize_point_set(points: Iterable[Sequence]) -> list[Point]:
    """Points as CycloNum tuples over one common order, deduplicated.

    Order of first appearance is kept, so the result is deterministic.
    """
    pts = [make_point(p) for p in points]
    if not pts:
        return []
    dim = len(pts[0])
    if any(len(p) != dim for p in pts):
        raise ValueError("points have mixed dimensions")
    common = 1
    for p in pts:
        for c in p:
            common = lcm(common, c.order)
    promoted = [tuple(c.promote(common) for c in p) for p in pts]
    seen = set()
    out = []
    for p in promoted:
        key = tuple(c.coeffs for c in p)
        if key not in seen:
            seen.add(key)
            out.append(p)
    return out


def point_mul(p: Point, q: Point) -> Point:
    if len(p) != len(q):
        raise ValueError("dimension mismatch")
    return tuple(a * b for a, b in zip(p, q))


def char_value(exponents: Sequence[int], p: Point) -> CycloNum:
    """Value of the monomial character x -> prod x_i^{l_i} at a torus point."""
    if len(exponents) != len(p):
        raise ValueError("dimension mismatch")
    acc = ONE
    for e, c in zip(exponents, p):
        if e:
            acc = acc * (c ** e)
    return acc


def product_point_set(points: Sequence[Sequence], depth: int) -> list[Point]:
    """All products of `depth` factors drawn (with repetition) from the set."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    base = normalize_point_set(points)
    for p in base:
        if any(c.is_zero() for c in p):
            raise ValueError("points must lie in the torus (no zero coordinate)")
    current = {tuple(c.coeffs for c in p): p for p in base}
    for _ in range(depth - 1):
        nxt: dict = {}
        for p in current.values():
            for q in base:
                r = point_mul(p, q)
                nxt.setdefault(tuple(c.coeffs for c in r), r)
        current = nxt
    # deterministic order: sort by coefficient key
    return [current[k] for k in sorted(current.keys())]


def external_product_set(a: Sequence[Sequence], b: Sequence[Sequence]) -> list[Point]:
    """Concatenation product {(p, q)} of two point sets."""
    pa = normalize_point_set(a)
    pb = normalize_point_set(b)
    return normalize_point_set([tuple(p) + tuple(q) for p in pa for q in pb])


def monomials_up_to(nvars: int, degree: int) -> list[tuple[int, ...]]:
    """Exponent tuples with entrywise >= 0 and total degree <= degree, lex order."""
    if nvars < 1:
        raise ValueError("need at least one variable")
    if nvars == 1:
        return [(e,) for e in range(degree + 1)]
    return [(e,) + m for e in range(degree + 1) for m in monomials_up_to(nvars - 1, degree - e)]


def rank_field(rows: list[list]) -> int:
    """Rank by Gaussian elimination over any exact field (Fraction, CycloNum)."""
    return echelon(rows)[0]


def evaluation_matrix(points: Sequence[Point], degree: int) -> tuple[list[list], list[tuple[int, ...]]]:
    """Values of the monomials of degree <= degree (lex order) at the points."""
    if not points:
        raise ValueError("empty point set")
    mons = monomials_up_to(len(points[0]), degree)
    return [[char_value(mon, p) for mon in mons] for p in points], mons


def _graded_columns(pts: Sequence[Point]):
    """(monomial, values at the points) in graded order, without end.

    x^a is extended by x_i, pointwise, only for i >= the index that last
    extended it, so every monomial comes once.
    """
    # monomials_up_to rejects points without coordinates
    layer = [(mon, [ONE.promote(pts[0][0].order)] * len(pts), 0)
             for mon in monomials_up_to(len(pts[0]), 0)]
    while True:
        yield from (entry[:2] for entry in layer)
        layer = [
            (mon[:i] + (mon[i] + 1,) + mon[i + 1:], [x * p[i] for x, p in zip(col, pts)], i)
            for mon, col, last in layer
            for i in range(last, len(mon))
        ]


def _first_dependent(points: Sequence[Sequence], max_degree: int | None):
    """(monomial, multipliers, inserted (monomial, multipliers, scale) steps)
    of the first graded column that reduces to zero; None past max_degree."""
    pts = normalize_point_set(points)
    if not pts:
        raise InvalidConfig("empty point set")
    basis: list = []
    steps = []
    for mon, col in _graded_columns(pts):
        if max_degree is not None and sum(mon) > max_degree:
            return None
        mults, scale = insert_row(basis, col)
        if scale is None:
            return mon, mults, steps
        steps.append((mon, mults, scale))


def min_vanishing_degree(points: Sequence[Sequence], max_degree: int | None = None) -> int:
    """Smallest degree of a nonzero polynomial vanishing on the whole set.

    The monomial columns (values at the points) go into one echelon basis
    in graded order, so all columns of degree <= L-1 come before the first
    of degree L.  The first column that reduces to zero thus has the minimal
    degree: its reduction is a vanishing polynomial, and the columns before
    it carry none.  One turns up once the columns outnumber the points.
    Raises InvalidConfig on an empty set and HypothesisNotMet when no
    degree <= max_degree works.
    """
    found = _first_dependent(points, max_degree)
    if found is None:
        raise HypothesisNotMet(
            f"no nonzero polynomial of degree <= {max_degree} vanishes on the set"
        )
    return sum(found[0])


def kernel_polynomial(points: Sequence[Sequence], degree: int) -> dict[tuple[int, ...], Fraction] | None:
    """One nonzero polynomial of total degree <= degree vanishing on the set.

    Back-substitutes the multipliers of the first dependent column through
    the inserted steps.  Returns a dict monomial -> coefficient, projected to
    Fractions when rational and CycloNum otherwise; None when only the zero
    polynomial vanishes.
    """
    found = _first_dependent(points, degree)
    if found is None:
        return None
    mon, coef, steps = found
    out = {mon: Fraction(1)}
    for k in range(len(steps) - 1, -1, -1):
        m, mults, scale = steps[k]
        c = coef[k] * scale
        if c:
            out[m] = -c.as_rational() if c.is_rational() else -c
            coef[:k] = [a - c * f if f else a for a, f in zip(coef, mults)]
    return out
