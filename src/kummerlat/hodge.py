"""Formal weight-two Hodge structures over a symbol algebra.

Transcendental periods are written exactly as integer coefficient
columns over one denominator, one per formal symbol (``1``, ``w1``,
``w2``, ``w1w2`` in the worked fixtures). The symbols are assumed
Q-linearly independent; multiplication is a partial table and anything
the table does not declare raises UndeclaredProduct instead of guessing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from types import MappingProxyType

from . import linalg
from .lattice import Lattice, LatticeError, Sublattice, _integer, _integer_matrix, _rational


class UndeclaredProduct(Exception):
    """A needed symbol product is missing from the multiplication table."""

    def __init__(self, left, right):
        super().__init__("product %s * %s is not declared" % (left, right))
        self.left = left
        self.right = right


@dataclass(frozen=True)
class SymbolBasis:
    """Ordered formal symbols including "1", with a partial product table.

    products maps an unordered symbol pair to a Q-linear combination of
    symbols, stored as a tuple of (symbol, coefficient) pairs. Products
    with "1" are implied and need not be declared.
    """

    symbols: tuple
    products: tuple = ()

    def __post_init__(self):
        symbols = tuple(str(s) for s in self.symbols)
        object.__setattr__(self, "symbols", symbols)
        if "1" not in symbols:
            raise LatticeError('symbol basis must contain "1"')
        if len(set(symbols)) != len(symbols):
            raise LatticeError("symbols must be distinct")
        table = {}
        for left, right, combo in self.products:
            if left not in symbols or right not in symbols:
                raise LatticeError("product declares unknown symbol")
            combo = tuple((str(s), _rational(c, "product coefficient")) for s, c in combo)
            for s, _ in combo:
                if s not in symbols:
                    raise LatticeError("product value uses unknown symbol %r" % s)
            if "1" in (left, right):
                other = right if left == "1" else left
                if dict(combo) != {other: Fraction(1)}:
                    raise LatticeError('"1" must act as the identity on %s' % other)
                continue  # identity products are implicit
            key = (min(left, right), max(left, right))
            if key in table and table[key] != combo:
                raise LatticeError("conflicting product declarations for %s*%s" % (left, right))
            table[key] = combo
        object.__setattr__(self, "products", tuple(sorted(key + (combo,) for key, combo in table.items())))
        # both orders of every product, "1" included, read by product, and
        # the lcm of the coefficients' denominators, read by period_pairing;
        # they are not fields, so they take no part in == or hashing
        lookup = {}
        for s in symbols:
            lookup["1", s] = lookup[s, "1"] = MappingProxyType({s: Fraction(1)})
        for (a, b), combo in table.items():
            lookup[a, b] = lookup[b, a] = MappingProxyType(dict(combo))
        object.__setattr__(self, "_product_table", lookup)
        object.__setattr__(self, "coefficient_den",
                           lcm(*(c.denominator for combo in table.values() for _, c in combo)))

    def product(self, left, right):
        """The declared product as a read-only {symbol: Fraction} mapping."""
        try:
            return self._product_table[left, right]
        except KeyError:
            raise UndeclaredProduct(left, right) from None


_OMEGA_SYMBOLS = SymbolBasis(
    symbols=("1", "w1", "w2", "w1w2"),
    products=(("w1", "w2", (("w1w2", 1),)),),
)


def omega_symbols():
    """The symbol basis {1, w1, w2, w1w2} with w1*w2 = w1w2 declared, built once."""
    return _OMEGA_SYMBOLS


@dataclass(frozen=True)
class PeriodVector:
    """A formal period: integer columns over one positive denominator.

    num[s][i] / den is the coefficient of lattice basis vector i in the
    column of symbol number s, in lowest terms, so == and hashing compare
    the rational period. column and columns are the rational view.
    """

    lattice: Lattice
    symbols: SymbolBasis
    num: tuple
    den: int = 1

    def __post_init__(self):
        num = _integer_matrix(self.num)
        den = _integer(self.den, "period denominator")
        if den == 0:
            raise LatticeError("period denominator must be nonzero")
        if len(num) != len(self.symbols.symbols):
            raise LatticeError("period needs one coefficient column per symbol")
        if any(len(col) != self.lattice.rank for col in num):
            raise LatticeError("period needs one coefficient per basis vector")
        if not any(any(col) for col in num):
            raise LatticeError("period must have a nonzero column")
        g = gcd(den, *(x for col in num for x in col))
        g = g if den > 0 else -g
        object.__setattr__(self, "num", tuple(tuple(x // g for x in col) for col in num))
        object.__setattr__(self, "den", den // g)

    def column(self, s):
        """Coefficient vector of symbol number s, as Fractions."""
        return tuple(Fraction(x, self.den) for x in self.num[s])

    def columns(self):
        return [self.column(s) for s in range(len(self.num))]

    def map_by(self, matrix, target_lattice):
        """Push the period through an integer row-vector map into target_lattice."""
        matrix = _integer_matrix(matrix)
        if len(matrix) != self.lattice.rank:
            raise LatticeError("map needs one row per basis vector of the period's lattice")
        return PeriodVector(target_lattice, self.symbols, linalg.matmul(self.num, matrix), self.den)

    def scaled(self, factor):
        factor = _rational(factor, "period scale factor")
        if factor == 0:
            raise LatticeError("period scale factor must be nonzero")
        return PeriodVector(self.lattice, self.symbols,
                            [[factor.numerator * x for x in col] for col in self.num],
                            factor.denominator * self.den)


def period_from_columns(lattice, symbols, columns):
    """Build a PeriodVector from {symbol: rational coefficient vector}.

    Symbols not in columns get a zero column. A key that names no
    symbol, or a vector without one entry per basis vector, raises
    LatticeError.
    """
    for s, vec in columns.items():
        if s not in symbols.symbols or len(vec) != lattice.rank:
            raise LatticeError("column %r needs a declared symbol and %d entries" % (s, lattice.rank))
    n = lattice.rank
    zero = (0,) * n
    flat, den = linalg.clear_denominators([x for s in symbols.symbols for x in columns.get(s, zero)])
    return PeriodVector(lattice, symbols, [flat[k:k + n] for k in range(0, len(flat), n)], den)


def period_scalar(source_period, matrix, target_period):
    """lam != 0 with (source column) * matrix == lam * (target column) for every symbol, or None.

    The linalg.scalar_ratio of the transported columns against the
    target's, taken on the cleared integer columns, so that the product
    runs in integers for an integer matrix, then rescaled by the two
    denominators.
    """
    mu = linalg.scalar_ratio(linalg.matmul(source_period.num, matrix), target_period.num)
    return None if mu is None else mu * target_period.den / source_period.den


def period_pairing(sigma, tau):
    """Expand pair(sigma, tau) in the symbol algebra.

    Returns {symbol: Fraction} with zero entries dropped, so an empty
    dict means the pairing vanishes. Raises UndeclaredProduct when a
    product with a nonzero lattice pairing is missing from the table.
    The work runs in integers on the periods' cleared columns; Fractions
    are made only for the returned values.
    """
    if sigma.lattice != tau.lattice:
        raise LatticeError("periods live on different lattices")
    if sigma.symbols != tau.symbols:
        raise LatticeError("periods use different symbol bases")
    # the cleared columns pair in integers, through their nonzero entries;
    # each symbol's numerator over den = (sigma's den) (tau's den) (the
    # lcm of the product coefficients' denominators) is summed, and
    # divided by den at the end
    basis = sigma.symbols
    left, left_den = sigma.num, sigma.den
    right, right_den = tau.num, tau.den
    scale = basis.coefficient_den
    gram = sigma.lattice.gram  # symmetric, so v * gram is a sum of its rows
    right = [(sj, [(j, y) for j, y in enumerate(w) if y]) for sj, w in zip(basis.symbols, right)]
    totals = {}
    for si, v in zip(basis.symbols, left):
        vg = None
        for i, x in enumerate(v):
            if x:
                vg = [x * g for g in gram[i]] if vg is None else [a + x * g for a, g in zip(vg, gram[i])]
        if vg is None:
            continue
        for sj, w in right:
            p = 0
            for j, y in w:
                p += vg[j] * y
            if p:
                for sym, coeff in basis.product(si, sj).items():
                    totals[sym] = totals.get(sym, 0) + p * coeff.numerator * (scale // coeff.denominator)
    den = left_den * right_den * scale
    return {sym: Fraction(t, den) for sym, t in totals.items() if t}


@dataclass(frozen=True)
class HodgeLattice:
    """The period line spanning the (2,0)-part of a lattice; lattice and symbols are the period's."""

    period: PeriodVector

    def __post_init__(self):
        try:
            square = period_pairing(self.period, self.period)
        except UndeclaredProduct:
            return  # isotropy not checkable with a partial table
        if square:
            raise LatticeError("period must be isotropic, got %r" % (square,))

    @property
    def lattice(self):
        return self.period.lattice

    @property
    def symbols(self):
        return self.period.symbols


def hodge_lattice(lattice, period):
    """The HodgeLattice of a period, which must be defined over lattice."""
    if period.lattice != lattice:
        raise LatticeError("period is not defined over the given lattice")
    return HodgeLattice(period)


@dataclass(frozen=True)
class H1Frame:
    """Four H^1 basis labels of an abelian surface, plus an orientation.

    The orientation is the ordered 4-tuple of labels whose wedge
    integrates to +1; it defaults to the label order.
    """

    labels: tuple
    orientation: tuple = None

    def __post_init__(self):
        labels = tuple(str(x) for x in self.labels)
        object.__setattr__(self, "labels", labels)
        if len(labels) != 4 or len(set(labels)) != 4:
            raise LatticeError("an H1 frame needs four distinct labels")
        orientation = self.orientation
        if orientation is None:
            orientation = labels
        orientation = tuple(str(x) for x in orientation)
        if sorted(orientation) != sorted(labels):
            raise LatticeError("orientation must reorder the frame labels")
        object.__setattr__(self, "orientation", orientation)

    def wedge_labels(self):
        return tuple("%s^%s" % (a, b) for a, b in combinations(self.labels, 2))


def _perm_sign(perm):
    sign = 1
    perm = list(perm)
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def wedge_square_lattice(frame):
    """Rank-6 exterior square of an H^1 frame, paired by orientation sign.

    The pairing of two wedge basis vectors is the sign of the permutation
    carrying their four labels to the frame orientation, or 0 when a
    label repeats. The result is abstractly isometric to U + U + U.
    """
    pos = {lab: k for k, lab in enumerate(frame.orientation)}
    pairs = list(combinations(range(4), 2))
    labels = frame.labels
    gram = []
    for (i, j) in pairs:
        row = []
        for (k, l) in pairs:
            if len({i, j, k, l}) != 4:
                row.append(0)
            else:
                row.append(_perm_sign([pos[labels[i]], pos[labels[j]],
                                       pos[labels[k]], pos[labels[l]]]))
        gram.append(tuple(row))
    return Lattice(tuple(gram), frame.wedge_labels())


def wedge_square_map(theta):
    """The induced 6x6 map of exterior squares of a 4x4 row-vector map.

    theta rows are images of the source H^1 basis in target coordinates;
    the output rows are images of the source wedge basis (pairs in
    lexicographic order) in the target wedge basis.
    """
    if len(theta) != 4 or any(len(r) != 4 for r in theta):
        raise LatticeError("theta must be 4x4")
    if linalg.det(theta) == 0:
        raise LatticeError("theta must be invertible over Q")
    pairs = list(combinations(range(4), 2))
    out = []
    for (a, b) in pairs:
        row = []
        for (i, j) in pairs:
            row.append(theta[a][i] * theta[b][j] - theta[a][j] * theta[b][i])
        out.append(row)
    return out


def transcendental_lattice(h):
    """Smallest primitive sublattice whose complexification holds the period.

    Saturation of the integer row space spanned by the period's cleared
    coefficient columns. Correct under the fixture assumption that the
    symbols are Q-linearly independent.
    """
    span = linalg.saturation(h.period.num, h.lattice.rank)
    return Sublattice(h.lattice, span)


def restrict_period(sub, period):
    """Rewrite an ambient period in the coordinates of a sublattice.

    The period must lie in the rational span of the sublattice. Every
    symbol column is solved for in one elimination, whose integer
    coordinates over d are the new columns over period.den * d.
    Returns a PeriodVector over sub.as_lattice().
    """
    if period.lattice != sub.ambient:
        raise LatticeError("period is not defined over the sublattice ambient")
    num, d = sub.coordinates_of(period.num)
    return PeriodVector(sub.as_lattice(), period.symbols, num, period.den * d)
