"""Exact arithmetic in cyclotomic fields and finite point sets built from it.

Point coordinates are elements of Q(zeta_n).  Each is stored as integer
numerators over one positive common denominator, in lowest terms: the
residue sum(nums[i] x^i) / den modulo the n-th cyclotomic polynomial Phi_n.
Phi_n is monic, so reducing an integer polynomial modulo it stays in the
integers, and one gcd per result keeps the form canonical.  That covers
exact rationals (n = 1), Gaussian rationals (n = 4), and the root-of-unity
constructions used throughout the workbench, while keeping every equality
test exact.

The head-line operation is min_vanishing_degree: the smallest total degree
of a nonzero polynomial vanishing on a finite set.  The monomials' value
columns are inserted in graded order into one exact echelon basis, and the
first column that reduces to zero has that degree.  That insertion,
insert_row, runs on integer rows over Z[zeta_n] (plain ints over Q): each
step scales a row by a nonzero field element and divides out its integer
content, so it makes no Fraction and no CycloNum.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import HypothesisNotMet, InvalidConfig
from .intmat import echelon

IntPoly = list[int]


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
    """num / den for a monic den."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for k in range(len(out) - 1, -1, -1):
        out[k] = q = num[k + len(den) - 1]
        if q:
            for i, dc in enumerate(den):
                num[k + i] -= q * dc
    if any(num):
        raise ArithmeticError("non-exact polynomial division")
    return out


@lru_cache(maxsize=None)
def _reduction_table(order: int) -> tuple[int, tuple[tuple[tuple[int, int], ...], ...]]:
    """(phi(order), rows): rows[k - phi] holds x^k mod Phi_order as its nonzero
    (index, coefficient) pairs, for phi <= k < max(2 phi - 1, order).

    That reaches every product of two residues and every exponent below
    the order.  Phi is monic, so every row is integral.
    """
    mod = cyclotomic_polynomial(order)
    deg = len(mod) - 1
    row = [-c for c in mod[:deg]]
    rows = []
    for _ in range(deg, max(2 * deg - 1, order)):
        rows.append(tuple((i, c) for i, c in enumerate(row) if c))
        top = row[-1]
        row = [0] + row[:-1]
        if top:
            for i in range(deg):
                row[i] -= top * mod[i]
    return deg, tuple(rows)


def _reduce(order: int, poly: IntPoly) -> IntPoly:
    """The phi(order) integer coefficients of poly mod Phi_order."""
    deg, rows = _reduction_table(order)
    if len(poly) > deg + len(rows):
        # Phi_order divides x^order - 1
        folded = [0] * order
        for k, c in enumerate(poly):
            folded[k % order] += c
        poly = folded
    out = poly[:deg] + [0] * (deg - len(poly))
    for c, row in zip(poly[deg:], rows):
        if c:
            for i, r in row:
                out[i] += c * r
    return out


def _mul_mod(a: Sequence[int], b: Sequence[int], order: int) -> IntPoly:
    """Product of two integer residues mod Phi_order; a rational factor
    just scales the other."""
    if not any(a[1:]):
        return [a[0] * y for y in b]
    if not any(b[1:]):
        return [x * b[0] for x in a]
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                if y:
                    prod[j] += x * y
    return _reduce(order, prod)


def _single_term(a: Sequence[int]) -> int | None:
    """k when the residue a is c x^k with c != 0, else None."""
    nonzero = [i for i, c in enumerate(a) if c]
    return nonzero[0] if len(nonzero) == 1 else None


def _conjugate_product(a: Sequence[int], order: int) -> IntPoly:
    """prod_{u != 1} sigma_u(a) over the units u mod order, where sigma_u
    maps zeta to zeta^u: a times it is the norm N(a), a rational integer,
    nonzero when a is."""
    conj = [1] + [0] * (len(a) - 1)
    for u in range(2, order):
        if gcd(u, order) == 1:
            image = [0] * order
            for i, c in enumerate(a):
                image[i * u % order] += c
            conj = _mul_mod(conj, _reduce(order, image), order)
    return conj


def _normalise_pivot(row: list, piv: int, order: int) -> list:
    """The row times a nonzero element of Q(zeta_order) that makes row[piv]
    a positive rational integer.

    A residue pivot a is multiplied by its conjugate product, so it becomes
    N(a); a single term c x^k needs only a rotation by x^(order - k).
    Over Q (int entries) only the sign changes.
    """
    a = row[piv]
    if type(a) is int:
        return [-x for x in row] if a < 0 else row
    k = _single_term(a)
    if k is None:
        conj = _conjugate_product(a, order)
        row = [_mul_mod(x, conj, order) if any(x) else x for x in row]
    elif k:
        shift = [0] * (order - k)
        row = [_reduce(order, shift + x) if any(x) else x for x in row]
    if row[piv][0] < 0:
        row = [[-c for c in x] for x in row]
    return row


def insert_row(basis: list[tuple[int, int, list]], row: list, order: int = 1) -> bool:
    """Reduce an integer row against a growing echelon basis over
    Q(zeta_order); append it if independent.

    Over Q (phi(order) = 1) each entry is an int; otherwise it is the list
    of phi(order) integer coefficients of a residue in Z[zeta_order].
    basis holds (pivot, d, row) triples in insertion order: row[pivot] is
    the positive integer d (the residue [d, 0, ...]) and row is 0 at every
    earlier pivot.  Each basis row with f = row[pivot] != 0 replaces the
    row by d x - f y entrywise, and every result is divided by the integer
    content of its entries, so no quotient is inexact and no Fraction or
    CycloNum is made.  Every step scales the row by a nonzero field
    element, so a row is kept exactly when field elimination keeps it.  A
    row that reduces to zero leaves the basis as it is and returns False;
    otherwise the remainder, its first nonzero entry made a positive
    integer (_normalise_pivot), is appended and True returned.
    """
    rational = len(cyclotomic_polynomial(order)) == 2
    for piv, d, y in basis:
        f = row[piv]
        if rational and f:
            row = _primitive([d * x - f * b for x, b in zip(row, y)], True)
        elif not rational and any(f):
            row = _primitive([
                [d * c - p for c, p in zip(x, _mul_mod(f, b, order))] if any(b)
                else [d * c for c in x]
                for x, b in zip(row, y)
            ], False)
    piv = next((i for i, x in enumerate(row) if (x if rational else any(x))), None)
    if piv is None:
        return False
    row = _primitive(_normalise_pivot(row, piv, order), rational)
    basis.append((piv, row[piv] if rational else row[piv][0], row))
    return True


def _primitive(row: list, rational: bool) -> list:
    """An integer row (int entries if rational, else coefficient lists)
    divided by the gcd of all its integers."""
    g = gcd(*row) if rational else gcd(*chain.from_iterable(row))
    if g <= 1:
        return row
    return [x // g for x in row] if rational else [[c // g for c in x] for x in row]


@lru_cache(maxsize=None)
def _ramanujan_sums(order: int) -> tuple[int, ...]:
    """Tr(zeta^i) over Q for 0 <= i < phi(order): the Ramanujan sums
    c(i) = sum_{d | gcd(i, order)} mobius(order / d) d."""

    def mobius(n: int) -> int:
        sign, p = 1, 2
        while p * p <= n:
            if n % p == 0:
                n //= p
                if n % p == 0:
                    return 0
                sign = -sign
            p += 1
        return -sign if n > 1 else sign

    divisors = [(d, mobius(order // d)) for d in range(1, order + 1) if order % d == 0]
    phi = len(cyclotomic_polynomial(order)) - 1
    return tuple(sum(m * d for d, m in divisors if i % d == 0) for i in range(phi))


def _make(order: int, nums: Sequence[int], den: int) -> "CycloNum":
    """The CycloNum nums / den (den > 0), brought to lowest terms."""
    g = gcd(*nums, den)
    if g != 1:
        nums = [x // g for x in nums]
        den //= g
    out = object.__new__(CycloNum)
    out.order, out.nums, out.den, out._hash = order, tuple(nums), den, None
    return out


class CycloNum:
    """An element of Q(zeta_order), immutable and hashable.

    Stored as phi(order) integer numerators `nums`, low degree first, over
    one common denominator `den`, in lowest terms: den > 0 and
    gcd(*nums, den) == 1.  So two values of one order are equal exactly
    when their (nums, den) are.  `coeffs` gives the same residue as a tuple
    of Fractions.  Binary operations promote both sides into the compositum
    Q(zeta_lcm(orders)), so values of different orders mix freely.
    """

    __slots__ = ("order", "nums", "den", "_hash")

    def __init__(self, order: int, coeffs: Iterable[Fraction | int]):
        cs = [c if type(c) in (int, Fraction) else Fraction(c) for c in coeffs]
        den = lcm(*(c.denominator for c in cs))
        made = _make(order, _reduce(order, [c.numerator * (den // c.denominator) for c in cs]), den)
        self.order, self.nums, self.den, self._hash = order, made.nums, made.den, None

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The residue's coefficients as Fractions, low degree first."""
        return tuple(Fraction(c, self.den) for c in self.nums)

    @staticmethod
    def from_rational(q: Fraction | int) -> "CycloNum":
        q = Fraction(q)
        return _make(1, (q.numerator,), q.denominator)

    @staticmethod
    def root_of_unity(order: int, power: int = 1) -> "CycloNum":
        power %= order
        return _make(order, _reduce(order, [0] * power + [1]), 1)

    def promote(self, order: int) -> "CycloNum":
        if order == self.order:
            return self
        if order % self.order != 0:
            raise ValueError("can only promote to a multiple of the order")
        step = order // self.order
        poly = [0] * ((len(self.nums) - 1) * step + 1)
        poly[::step] = self.nums
        return _make(order, _reduce(order, poly), self.den)

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
        if a.den == b.den:
            return _make(a.order, [x + y for x, y in zip(a.nums, b.nums)], a.den)
        ad, bd = a.den, b.den
        return _make(a.order, [x * bd + y * ad for x, y in zip(a.nums, b.nums)], ad * bd)

    __radd__ = __add__

    def __neg__(self):
        return _make(self.order, [-c for c in self.nums], self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self._align(o)
        if a.den == b.den:
            return _make(a.order, [x - y for x, y in zip(a.nums, b.nums)], a.den)
        ad, bd = a.den, b.den
        return _make(a.order, [x * bd - y * ad for x, y in zip(a.nums, b.nums)], ad * bd)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self._align(o)
        return _make(a.order, _mul_mod(a.nums, b.nums, a.order), a.den * b.den)

    __rmul__ = __mul__

    def inverse(self) -> "CycloNum":
        """1 / self, in integers: with self = a / den,
        1 / self = den * prod_{u != 1} sigma_u(a) / N(a) (_conjugate_product).
        A single term a = c zeta^k needs no product: its inverse is
        den zeta^(order - k) / c."""
        a, n = self.nums, self.order
        k = _single_term(a)
        if k is not None:
            sign = -1 if a[k] < 0 else 1
            return _make(n, _reduce(n, [0] * ((n - k) % n) + [sign * self.den]), sign * a[k])
        if not any(a):
            raise ZeroDivisionError("inverse of zero")
        conj = _conjugate_product(a, n)
        norm = _mul_mod(a, conj, n)[0]
        sign = -1 if norm < 0 else 1
        return _make(n, [sign * self.den * c for c in conj], sign * norm)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse().__mul__(other)

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k == 0:
            return ONE.promote(self.order)
        base = self if k > 0 else self.inverse()
        k = abs(k)
        # square-and-multiply from the low bit: the first set bit takes the
        # base itself, and the base is not squared past the top bit
        acc = None
        while True:
            if k & 1:
                acc = base if acc is None else acc * base
            k >>= 1
            if not k:
                return acc
            base = base * base

    def is_zero(self) -> bool:
        return not any(self.nums)

    def __bool__(self) -> bool:
        return any(self.nums)

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("not a rational value")
        return Fraction(self.nums[0], self.den)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self._align(o)
        return a.den == b.den and a.nums == b.nums

    def __hash__(self):
        if self._hash is None:
            # the normalised trace Tr(x) / phi(order) is the same in every
            # order x is promoted to, and is x itself for a rational x, so
            # equal values hash alike across orders and alike with int and
            # Fraction; Galois conjugates collide
            tr = sum(c * t for c, t in zip(self.nums, _ramanujan_sums(self.order)))
            self._hash = hash(Fraction(tr, len(self.nums) * self.den))
        return self._hash

    def __repr__(self):
        if self.is_rational():
            return f"CycloNum({self.as_rational()})"
        terms = ", ".join(str(c) for c in self.coeffs)
        return f"CycloNum(zeta{self.order}; [{terms}])"


ONE = CycloNum.from_rational(1)

Point = tuple[CycloNum, ...]


def make_point(coords: Iterable) -> Point:
    return tuple(c if isinstance(c, CycloNum) else CycloNum.from_rational(c) for c in coords)


def _point_key(p: Point) -> tuple:
    return tuple((c.nums, c.den) for c in p)


class PointSet(list):
    """A list of points in the form normalize_point_set returns: CycloNum
    tuples over one common order, without repeats.  product_point_set and
    min_vanishing_degree take a PointSet as it is and normalise any other
    iterable of points first, so a set is normalised once per job."""


def normalize_point_set(points: Iterable[Sequence]) -> PointSet:
    """Points as CycloNum tuples over one common order, deduplicated.

    Order of first appearance is kept, so the result is deterministic.
    """
    pts = [make_point(p) for p in points]
    if not pts:
        return PointSet()
    dim = len(pts[0])
    if any(len(p) != dim for p in pts):
        raise InvalidConfig("points have mixed dimensions")
    common = 1
    for p in pts:
        for c in p:
            common = lcm(common, c.order)
    out: dict = {}
    for p in pts:
        p = tuple(c.promote(common) for c in p)
        out.setdefault(_point_key(p), p)
    return PointSet(out.values())


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


class PowerTable(dict):
    """{e: c^e} for one CycloNum c, each entry made on its first lookup.

    Entries fill outward from c^0 and c^1, one product each, and c^-1 is
    the one inverse of c, so reading powers with |e| <= K costs at most K
    products in each direction.  Every entry is the CycloNum c ** e gives.
    """

    def __init__(self, c: CycloNum):
        super().__init__({0: ONE.promote(c.order), 1: c})
        self.base = c

    def __missing__(self, e: int) -> CycloNum:
        if e == -1:
            self[-1] = self.base.inverse()
            return self[-1]
        step = 1 if e > 0 else -1
        unit = self[step]
        k = e
        while k - step not in self:
            k -= step
        for k in range(k, e + step, step):
            self[k] = self[k - step] * unit
        return self[e]


def power_tables(points: Iterable[Sequence[CycloNum]]) -> list[list[PowerTable]]:
    """The PowerTable of every coordinate of every point.  Coordinates with
    the same exact (order, nums, den) share one table, so each distinct
    value is raised to each power at most once."""
    shared: dict[tuple, PowerTable] = {}
    out = []
    for p in points:
        row = []
        for c in p:
            key = (c.order, c.nums, c.den)
            if key not in shared:
                shared[key] = PowerTable(c)
            row.append(shared[key])
        out.append(row)
    return out


def table_product(exponents: Sequence[int], tables: Sequence[PowerTable]) -> CycloNum:
    """prod_i tables[i][e_i] over the nonzero exponents: char_value(exponents, p)
    when tables[i] holds the powers of p[i], one product per nonzero
    exponent after the first."""
    acc = None
    for e, table in zip(exponents, tables):
        if e:
            acc = table[e] if acc is None else acc * table[e]
    return ONE if acc is None else acc


def require_torus(points: Iterable[Point]) -> None:
    """Raise InvalidConfig unless every coordinate of every point is nonzero."""
    if any(c.is_zero() for p in points for c in p):
        raise InvalidConfig("points must lie in the torus (no zero coordinate)")


def product_point_set(points: Sequence[Sequence], depth: int) -> PointSet:
    """All products of `depth` factors drawn (with repetition) from the set.

    The set X_k of k-fold products is X_{k-1} times the base set, so once
    X_k = X_{k-1} every later X equals it too, and the rounds stop there:
    a base of roots of unity with the identity saturates after at most as
    many rounds as the group it generates has elements.
    """
    if depth < 1:
        raise InvalidConfig("depth must be >= 1")
    base = points if isinstance(points, PointSet) else normalize_point_set(points)
    require_torus(base)
    current = {_point_key(p): p for p in base}
    for _ in range(depth - 1):
        nxt: dict = {}
        for p in current.values():
            for q in base:
                r = point_mul(p, q)
                nxt.setdefault(_point_key(r), r)
        if nxt.keys() == current.keys():
            break
        current = nxt
    # deterministic order: sort by the Fraction coefficients
    return PointSet(sorted(current.values(), key=lambda p: tuple(c.coeffs for c in p)))


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
    """(monomial, values at the points as an integer row) in graded order,
    without end.

    Each value is kept as integer numerators over a denominator, and a
    column goes to insert_row times the lcm of its denominators
    (_integer_row).  x^a is extended by x_i, pointwise, only for i >= the
    index that last extended it, so every monomial comes once; each column
    is made just before it is yielded.
    """
    order = pts[0][0].order
    # monomials_up_to rejects points without coordinates
    (start,) = monomials_up_to(len(pts[0]), 0)
    ones = [(ONE.promote(order).nums, 1)] * len(pts)
    yield start, _integer_row(ones)
    factors = [[(p[i].nums, p[i].den) for p in pts] for i in range(len(start))]
    layer = [(start, ones, 0)]
    while True:
        nxt = []
        for mon, col, last in layer:
            for i in range(last, len(mon)):
                child = [
                    (_mul_mod(a, b, order), da * db) for (a, da), (b, db) in zip(col, factors[i])
                ]
                mon_i = mon[:i] + (mon[i] + 1,) + mon[i + 1:]
                yield mon_i, _integer_row(child)
                nxt.append((mon_i, child, i))
        layer = nxt


def min_vanishing_degree(points: Iterable[Sequence], max_degree: int | None = None) -> int:
    """Smallest degree of a nonzero polynomial vanishing on the whole set.

    The monomial columns (values at the points) go into one echelon basis
    in graded order, so all columns of degree <= L-1 come before the first
    of degree L.  The first column that reduces to zero thus has the minimal
    degree: its reduction is a vanishing polynomial, and the columns before
    it carry none.  One turns up once the columns outnumber the points.
    Raises InvalidConfig on an empty set and HypothesisNotMet when no
    degree <= max_degree works.
    """
    pts = points if isinstance(points, PointSet) else normalize_point_set(points)
    if not pts:
        raise InvalidConfig("empty point set")
    order = pts[0][0].order
    basis: list = []
    for mon, col in _graded_columns(pts):
        degree = sum(mon)
        if max_degree is not None and degree > max_degree:
            raise HypothesisNotMet(
                f"no nonzero polynomial of degree <= {max_degree} vanishes on the set"
            )
        if not insert_row(basis, col, order):
            return degree


def _integer_row(values: Sequence[tuple[Sequence[int], int]]) -> list:
    """(numerators, denominator) values times the lcm of their denominators,
    as the integer entries insert_row takes: ints over Q, coefficient lists
    otherwise.  Scaling a column leaves its dependencies unchanged."""
    den = lcm(*(d for _, d in values))
    if len(values[0][0]) == 1:
        return [a[0] * (den // d) for a, d in values]
    return [[c * (den // d) for c in a] for a, d in values]
