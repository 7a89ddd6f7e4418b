"""Integral lattices: construction, pairing, sublattices, invariants.

A lattice is a free Z-module of finite rank carrying a nondegenerate
symmetric integer Gram matrix. All arithmetic is exact; verdicts derived
here are proofs, not approximations.

Conventions fixed once and used everywhere:
  * lattice elements are integer (or rational) row vectors of basis
    coordinates; pair(v, w) = v * gram * w^T;
  * a sublattice is stored as a basis matrix whose rows are ambient
    coordinates; the Hermite normal form is the canonical basis;
  * quotients are described by Smith normal form divisors.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import product
from math import gcd, lcm, prod
from operator import mul

from . import linalg

# 2-primary parts A_2 larger than this are not enumerated for the value
# profile; comparisons then use the divisors and the odd-p symbols alone.
_PROFILE_CAP = 20000

# Odd primes of |A| are found by trial division up to this bound. A
# cofactor with no factor up to it is prime when below the bound's
# square; a larger one is skipped, which only weakens refutation.
_TRIAL_BOUND = 1000


class LatticeError(ValueError):
    pass


def _integer(x, what, error=LatticeError):
    """x as an int; raises error, naming x as what, when x is not integral."""
    if type(x) is int:
        return x
    if int(x) != x:
        raise error("%s %s is not an integer" % (what, x))
    return int(x)


def _rational(x, what, error=LatticeError):
    """x as a Fraction; raises error, naming x as what, unless x is an int or a Fraction."""
    if type(x) not in (int, Fraction):
        raise error("%s %r is not an int or a Fraction" % (what, x))
    return Fraction(x)


def _integer_matrix(rows, error=LatticeError):
    """rows as a tuple of int tuples; raises error on a non-integral entry."""
    return tuple(tuple(x if type(x) is int else _integer(x, "matrix entry", error) for x in row)
                 for row in rows)


def _is_staircase(rows):
    """Whether every row is nonzero and the leading columns strictly increase.

    Such rows are linearly independent without an elimination; Hermite
    forms, saturations, kernels and identities all have this shape.
    """
    last = -1
    for row in rows:
        lead = next((j for j, x in enumerate(row) if x), None)
        if lead is None or lead <= last:
            return False
        last = lead
    return True


@dataclass(frozen=True)
class Lattice:
    """Free Z-module with a nondegenerate symmetric integer Gram matrix.

    det, the determinant of gram, is a plain attribute kept from the
    nondegeneracy check; it is not a field, so it takes no part in ==
    or hashing. That check is one elimination (linalg.det_and_inertia),
    and where it needed no row swap its leading minors also give the
    inertia, which signature() returns; it is kept beside det.
    """

    gram: tuple
    labels: tuple = None

    def __post_init__(self):
        gram = _integer_matrix(self.gram)
        object.__setattr__(self, "gram", gram)
        n = len(gram)
        if n == 0:
            raise LatticeError("empty lattices are not constructible")
        if any(len(row) != n for row in gram):
            raise LatticeError("gram matrix must be square")
        if gram != tuple(zip(*gram)):
            raise LatticeError("gram matrix must be symmetric")
        det, inertia = linalg.det_and_inertia(gram)
        if det == 0:
            raise LatticeError("gram matrix must be nondegenerate")
        object.__setattr__(self, "det", det)
        object.__setattr__(self, "_inertia", inertia)
        if self.labels is not None:
            labels = tuple(str(x) for x in self.labels)
            if len(labels) != n:
                raise LatticeError("expected %d labels, got %d" % (n, len(labels)))
            if len(set(labels)) != n:
                raise LatticeError("labels must be distinct")
            object.__setattr__(self, "labels", labels)

    @property
    def rank(self):
        return len(self.gram)

    def pair(self, v, w):
        """v * gram * w^T; integer for integer vectors, Fraction otherwise."""
        if len(v) != self.rank or len(w) != self.rank:
            raise LatticeError("vector length does not match rank %d" % self.rank)
        return linalg.pair_with(self.gram, v, w)

    def twist(self, m):
        """Same underlying group, form scaled entrywise by m != 0."""
        m = _integer(m, "twist factor")
        if m == 0:
            raise LatticeError("twist by zero is degenerate")
        return Lattice([[m * x for x in row] for row in self.gram], self.labels)

    def signature(self):
        """Exact inertia (positives, negatives).

        Read by Jacobi's rule off the leading minors of the determinant
        elimination when it needed no row swap; otherwise some leading
        minor vanishes and _symmetric_inertia reduces the Gram.
        """
        if self._inertia is not None:
            return self._inertia
        return _symmetric_inertia(self.gram)

    def is_even(self):
        return all(self.gram[i][i] % 2 == 0 for i in range(self.rank))

    def full_sublattice(self):
        return Sublattice(self, linalg.identity(self.rank))


def _symmetric_inertia(gram):
    """Exact inertia (positives, negatives) of gram via symmetric reduction.

    Each step pivots on a nonzero diagonal entry p and replaces the rest
    by |p| times its Schur complement, |p| m[a][j] - sign(p) m[a][i] m[i][j],
    then divides by the positive gcd; positive scaling keeps inertia.
    """
    m = [list(row) for row in gram]
    alive = list(range(len(m)))
    pos = 0
    while alive:
        i = next((a for a in alive if m[a][a] != 0), None)
        if i is None:
            # every diagonal entry vanishes; a row+column add creates one
            a = next(x for x in alive for y in alive if x != y and m[x][y] != 0)
            b = next(y for y in alive if y != a and m[a][y] != 0)
            for j in alive:
                m[a][j] += m[b][j]
            for j in alive:
                m[j][a] += m[j][b]
            continue
        alive.remove(i)
        piv = m[i][i]
        pos += piv > 0
        for a in alive:
            f = m[a][i] if piv > 0 else -m[a][i]
            for j in alive:
                m[a][j] = abs(piv) * m[a][j] - f * m[i][j]
        g = gcd(*(m[a][j] for a in alive for j in alive))
        for a in alive:
            for j in alive:
                m[a][j] //= g
    return (pos, len(m) - pos)


def make_standard(kind, param=None):
    """Standard small lattices: "U", "U_n" (scaled hyperbolic), "rank1"."""
    if kind == "U":
        return Lattice(((0, 1), (1, 0)), ("e", "f"))
    if kind == "U_n":
        n = _integer(param, "U_n parameter")
        if n == 0:
            raise LatticeError("U_n(0) is degenerate")
        return Lattice(((0, n), (n, 0)), ("e", "f"))
    if kind == "rank1":
        d = _integer(param, "rank1 parameter")
        if d == 0:
            raise LatticeError("rank1(0) is degenerate")
        return Lattice(((d,),), ("e",))
    raise LatticeError("unknown standard lattice kind %r" % (kind,))


def direct_sum(l1, l2):
    """Orthogonal direct sum with block-diagonal Gram."""
    n1, n2 = l1.rank, l2.rank
    gram = [[0] * (n1 + n2) for _ in range(n1 + n2)]
    for i in range(n1):
        for j in range(n1):
            gram[i][j] = l1.gram[i][j]
    for i in range(n2):
        for j in range(n2):
            gram[n1 + i][n1 + j] = l2.gram[i][j]
    labels = None
    if l1.labels is not None and l2.labels is not None:
        labels = list(l1.labels)
        for name in l2.labels:
            new = name
            k = 2
            while new in labels:
                new = "%s.%d" % (name, k)
                k += 1
            labels.append(new)
        labels = tuple(labels)
    return Lattice(gram, labels)


@dataclass(frozen=True)
class Sublattice:
    """Embedding of a free submodule via ambient basis coordinates."""

    ambient: Lattice
    basis: tuple

    def __post_init__(self):
        basis = _integer_matrix(self.basis)
        object.__setattr__(self, "basis", basis)
        n = self.ambient.rank
        if any(len(row) != n for row in basis):
            raise LatticeError("basis rows must have length %d" % n)
        if not _is_staircase(basis) and linalg.rank(basis) != len(basis):
            raise LatticeError("basis rows must be linearly independent over Q")

    @property
    def rank(self):
        return len(self.basis)

    @cached_property
    def gram(self):
        """Induced Gram matrix basis * ambient.gram * basis^T, computed once."""
        rows = linalg.matmul(self.basis, self.ambient.gram)
        return tuple(tuple(sum(map(mul, r, b)) for b in self.basis) for r in rows)

    def as_lattice(self):
        """The abstract lattice carried by this sublattice (nondegenerate only)."""
        return Lattice(self.gram)

    def coordinates_of(self, v):
        """(coords, d): coordinates of ambient vector v in this basis, over d.

        coords holds ints and d is linalg.solve's nonzero int
        denominator, so coords / d are the exact rational coordinates.
        v is one vector, or several as a matrix of rows, as in
        linalg.solve; several vectors share one elimination and one d,
        and give one coordinate tuple each. Raises LatticeError when any
        vector lies outside the rational span or has a length other than
        the ambient rank.
        """
        if not self.basis:
            raise LatticeError("rank-0 sublattice has no coordinates")
        several = bool(v) and isinstance(v[0], (list, tuple))
        if any(len(w) != self.ambient.rank for w in (v if several else [v])):
            raise LatticeError("vector length does not match rank %d" % self.ambient.rank)
        solved = linalg.solve(linalg.transpose(self.basis), linalg.transpose(v) if several else v)
        if solved is None:
            raise LatticeError("vector does not lie in the rational span")
        x, d = solved
        return (tuple(zip(*x)) if several else tuple(x)), d

    def same_span(self, other):
        """Set equality of sublattices of one ambient (via canonical HNF)."""
        return (self.ambient == other.ambient
                and linalg.hnf(self.basis) == linalg.hnf(other.basis))


def orthogonal_complement(s):
    """Saturated sublattice of everything pairing to zero with s."""
    if not s.basis:
        return s.ambient.full_sublattice()
    m = linalg.matmul(s.basis, s.ambient.gram)
    return Sublattice(s.ambient, linalg.right_kernel(m, s.ambient.rank))


def saturate(s):
    """Smallest primitive sublattice containing s: (s tensor Q) meet ambient."""
    return Sublattice(s.ambient, linalg.saturation(s.basis, s.ambient.rank))


def sublattice_quotient(s):
    """(index, elementary divisors) of ambient/s via Smith normal form.

    index is None when the quotient is infinite (rank drop); the divisor
    list keeps only entries > 1.
    """
    if not s.basis:
        if s.ambient.rank == 0:
            return 1, []
        return None, []
    diag, _ = linalg.snf_with_transforms(s.basis)
    divisors = [d for d in diag if d > 1]
    return (prod(diag) if s.rank == s.ambient.rank else None), divisors


@dataclass(frozen=True, eq=False)
class DiscriminantForm:
    """The finite quadratic form on A = dual/lattice, with canonical invariants.

    `columns` holds, for each elementary divisor d_i, the integer column
    of the Smith transform reduced mod d_i; the generator g_i is that
    column over d_i, an element of [0, 1)^n. Everything else is computed
    from the columns on first read and kept: the generators, as
    Fractions, and their q values and pairings (integer pairings of the
    columns, reduced over d_i d_j), which only display reads, and the
    two invariants of the p-parts A_p of A that `==` compares. q values
    live in Q/2Z for even lattices and Q/Z for odd ones (the finer value
    is not well defined in the odd case); pairings live in Q/Z.
    `odd_symbols` holds, for each odd prime p | |A| that trial division
    finds (see _odd_primes), the pair (p, Jordan symbol of the lattice at
    p), read off A_p, which it determines (see _odd_symbol). `profile` is
    the sorted multiset of (element order, q(element)) over A_2 alone, or
    None when A_2 is too large to enumerate; that and the primes depend
    on the divisors alone.
    `==` compares the presentation-independent invariants in this order
    and stops at the first difference: the divisors, the parity
    `modulus`, the odd symbols, the profile. So a pair told apart by its
    divisors builds neither of the last two, and one told apart by an
    odd symbol builds no profile; the hash reads the divisors and the
    modulus alone. Unequal forms are provably not isomorphic. Equal ones
    need not be: the 2-adic symbol is not compared, nor A_2 above
    _PROFILE_CAP, nor the p-parts for primes that trial division skips.
    """

    elementary_divisors: tuple
    columns: tuple = field(repr=False, default=())
    gram: tuple = field(repr=False, default=())
    modulus: int = 2

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.elementary_divisors == other.elementary_divisors
                and self.modulus == other.modulus
                and self.odd_symbols == other.odd_symbols
                and self.profile == other.profile)

    def __hash__(self):
        return hash((self.elementary_divisors, self.modulus))

    @cached_property
    def odd_symbols(self):
        if not self.elementary_divisors:
            return ()
        return tuple((p, _odd_symbol(self.gram, p, self.elementary_divisors, self.columns))
                     for p in _odd_primes(self.elementary_divisors[-1]))

    @cached_property
    def profile(self):
        """The value profile of A_2, from the columns of its generators, or None above the cap.

        A generator of order d = 2^e m, m odd, gives m g of order 2^e:
        the column mod 2^e over 2^e.
        """
        twos = [(d & -d, col) for d, col in zip(self.elementary_divisors, self.columns) if d % 2 == 0]
        if prod(two for two, _ in twos) > _PROFILE_CAP:
            return None
        return _value_profile(self.gram, [two for two, _ in twos],
                              [[c % two for c in col] for two, col in twos], self.modulus)

    @cached_property
    def generators(self):
        return tuple(
            tuple(Fraction(c, d) for c in col)
            for d, col in zip(self.elementary_divisors, self.columns)
        )

    @cached_property
    def q_values(self):
        return tuple(Fraction(linalg.pair_with(self.gram, c, c) % (self.modulus * d * d), d * d)
                     for d, c in zip(self.elementary_divisors, self.columns))

    @cached_property
    def pairings(self):
        gens = tuple(zip(self.elementary_divisors, self.columns))
        return tuple(
            tuple(Fraction(linalg.pair_with(self.gram, ci, cj) % (di * dj), di * dj)
                  for dj, cj in gens)
            for di, ci in gens
        )

    @property
    def order(self):
        return prod(self.elementary_divisors)

    def is_trivial(self):
        return not self.elementary_divisors


def discriminant_form(lattice):
    """Compute dual/lattice: SNF generators and divisors; the invariants on first read.

    With D = S G T the Smith form of the Gram matrix G (S, T unimodular),
    the dual basis vectors e_i S^-1 G^-1 generate dual/L. Since G is
    symmetric, G^-1 = T D^-1 S, so that vector is column i of T divided
    by d_i: no matrix is inverted, and S is never built. L = Z^n in
    these coordinates, so only the class of the generator matters: its
    integer column is kept reduced mod d_i (`columns`), and no Fraction
    is built here.
    """
    n = lattice.rank
    diag, t = linalg.snf_with_transforms(lattice.gram)
    divisors = []
    columns = []
    for i, d in enumerate(diag):
        if d > 1:
            divisors.append(d)
            columns.append(tuple(t[j][i] % d for j in range(n)))
    return DiscriminantForm(
        elementary_divisors=tuple(divisors),
        columns=tuple(columns),
        gram=lattice.gram,
        modulus=2 if lattice.is_even() else 1,
    )


def _valuation(x, p):
    """The exponent of p in the nonzero integer x."""
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def _odd_primes(n):
    """The odd primes of n > 0 that trial division up to _TRIAL_BOUND finds.

    After the divisions, the cofactor has no prime factor below the last
    trial divisor p, so it is prime when below p^2; that covers every
    cofactor below _TRIAL_BOUND^2. A larger cofactor is skipped, so its
    primes get no symbol: comparisons stay sound, only weaker. The result
    depends on n alone.
    """
    n //= n & -n
    primes = []
    p = 3
    while p <= _TRIAL_BOUND and p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 2
    if 1 < n < p * p:
        primes.append(n)
    return primes


def _odd_symbol(gram, p, divisors, columns):
    """Jordan symbol at the odd prime p: ((k, n_k, eps_k) for each scale p^k, k >= 1).

    Over the p-adic integers G is congruent to a diagonal form
    sum p^k_i u_i, u_i units (p is odd); n_k counts the constituents of
    scale p^k and eps_k is the Legendre symbol of the product of their
    units. The scales k >= 1 are exactly what the p-part A_p of the
    discriminant form determines (Nikulin 1979; Conway-Sloane, SPLAG
    ch. 15 section 7): a constituent p^k u contributes a cyclic summand
    of order p^k with value u / p^k. So the symbol is read off A_p, not
    off G; with rank and det it gives the whole p-adic genus symbol.
    A_p is the direct sum of the cyclic groups of the h_i = c_i / p^e_i,
    over the columns c_i whose divisor d_i has e_i = v_p(d_i) >= 1.
    Since c_i G = 0 mod d_i, every c_i G c_j^T is a multiple of
    p^max(e_i, e_j); with E the largest e_i, which is at least
    min(e_i, e_j), the m x m matrix
    P_ij = p^E c_i G c_j^T / p^(e_i + e_j) = p^E b(h_i, h_j) is integral,
    and defined mod p^E. Diagonalised over Z/p^(E+1) by _pivot_units,
    A_p being nondegenerate makes every pivot a unit at a valuation
    E - k below E: a constituent of scale p^k. m is the number of
    divisors that p divides, usually 1, where G is n x n.
    """
    part = [(_valuation(d, p), col) for d, col in zip(divisors, columns) if d % p == 0]
    top = max(e for e, _ in part)
    form = [[linalg.pair_with(gram, ci, cj) * p ** top // p ** (ei + ej) for ej, cj in part]
            for ei, ci in part]
    return _symbol(((top - k, u) for k, u in _pivot_units(form, p, top + 1)), p)


def _pivot_units(m, p, e):
    """The (valuation, unit) of each pivot of the symmetric integer m diagonalised over Z/p^e.

    p is an odd prime, and e exceeds the valuation of every pivot, so
    that each pivot stays nonzero mod p^e and its unit is known mod p.
    Each step pivots on an entry of least p-valuation; when only an
    off-diagonal entry (a, b) has it, adding row and column b to row and
    column a first puts it on the diagonal, where 2 m[a][b] keeps that
    valuation because p is odd.
    """
    mod = p ** e
    m = [[x % mod for x in row] for row in m]
    alive = list(range(len(m)))
    pivots = []
    while alive:
        # least valuation first, and a diagonal entry before an off-diagonal one
        k, _, a, b = min(
            (_valuation(m[a][b], p), a != b, a, b)
            for a in alive for b in alive if b >= a and m[a][b]
        )
        if a != b:
            for c in alive:
                m[a][c] = (m[a][c] + m[b][c]) % mod
            for c in alive:
                m[c][a] = (m[c][a] + m[c][b]) % mod
        alive.remove(a)
        pk = p ** k
        row = m[a]
        unit = row[a] // pk
        inv = pow(unit, -1, mod)
        for c in alive:
            f = m[c][a] // pk * inv % mod
            if f:
                for j in alive:
                    m[c][j] = (m[c][j] - f * row[j]) % mod
        pivots.append((k, unit))
    return pivots


def _symbol(pivots, p):
    """((k, n_k, eps_k), ...) over the scales k of (k, unit) pairs, ascending in k."""
    units = {}
    for k, unit in pivots:
        units.setdefault(k, []).append(unit)
    return tuple(
        (k, len(us), 1 if pow(prod(us), (p - 1) // 2, p) == 1 else -1)
        for k, us in sorted(units.items())
    )


def _value_profile(gram, divisors, columns, modulus):
    """Sorted multiset of (order, q) over the group the generators span.

    Generator k is the integer vector columns[k] over divisors[k], its
    order. The orders divide each other, so the last one, den, is the
    largest and a common denominator: with the numerators over den as
    rows, Q is their Gram, and q(sum a_k g_k) is the integer form
    a Q a^T over den^2; its numerator is reduced modulo
    modulus * den^2, which keeps each value canonical. The group is the
    direct sum of the generators' cyclic groups: for each prefix a of
    coefficients over the other factors, with c = a Q a^T and b the last
    entry of a Q, the numerators over the last factor are the one
    progression c + t (2b + g t), g the last diagonal entry of Q, and
    the element orders are lcm(order of a, d_last / gcd(t, d_last)).
    The profile enumerates every element of that group.
    """
    if not divisors:
        return ((1, Fraction(0)),)
    den = divisors[-1]
    scaled = [[c * (den // d) for c in col] for d, col in zip(divisors, columns)]
    form = linalg.matmul(linalg.matmul(scaled, gram), linalg.transpose(scaled))
    wrap = modulus * den * den
    *head, last = divisors
    cols = list(zip(*form))
    g = form[-1][-1]
    last_orders = [last // gcd(t, last) for t in range(last)]
    orders_by_prefix = {}
    counts = Counter()
    for prefix in product(*(range(d) for d in head)):
        order = lcm(*(d // gcd(a, d) for a, d in zip(prefix, head)))
        orders = orders_by_prefix.get(order)
        if orders is None:
            orders = orders_by_prefix[order] = [lcm(order, o) for o in last_orders]
        row = [sum(map(mul, prefix, col)) for col in cols]  # prefix * Q
        c = sum(map(mul, prefix, row))
        b2 = 2 * row[-1]
        counts.update(zip(orders, [(c + t * (b2 + g * t)) % wrap for t in range(last)]))
    entries = []
    for (order, num), count in sorted(counts.items()):
        entries += [(order, Fraction(num, den * den))] * count
    return tuple(entries)


@dataclass(frozen=True)
class GenusInvariants:
    """Cheap isometry invariants: rank, inertia, parity, discriminant data.

    Isometric lattices have equal invariants, so `!=` refutes isometry.
    """

    rank: int
    signature: tuple
    disc: DiscriminantForm

    @property
    def even(self):
        """Parity, as the discriminant form's q-value modulus records it."""
        return self.disc.modulus == 2

    def describe(self):
        return (
            "rank %d, signature (%d,%d), %s, disc divisors %s"
            % (
                self.rank,
                self.signature[0],
                self.signature[1],
                "even" if self.even else "odd",
                list(self.disc.elementary_divisors),
            )
        )


def genus_of(lattice):
    return GenusInvariants(
        rank=lattice.rank,
        signature=lattice.signature(),
        disc=discriminant_form(lattice),
    )


def render_lattice(name, lattice):
    """Canonical text rendering; stable across releases for golden files."""
    lines = ["lattice %s" % name, "rank %d" % lattice.rank]
    for row in lattice.gram:
        lines.append("gram " + " ".join(str(x) for x in row))
    lines.append("det %d" % lattice.det)
    pos, neg = lattice.signature()
    lines.append("signature %d %d" % (pos, neg))
    return "\n".join(lines) + "\n"
