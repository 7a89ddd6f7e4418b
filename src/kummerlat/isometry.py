"""Certified isometry testing.

Three routes, all exact:

  * refutation when the lattice.genus_of records differ (rank, inertia,
    parity, discriminant divisors, the Jordan symbols at the odd primes
    of |det| that trial division finds, the value profile of A_2 up to
    lattice._PROFILE_CAP), polynomial in rank and log |det| apart from
    that profile -- sound, never claims isometry. The records are
    compared in that order and the comparison stops at the first
    difference: the inertia is read off the lattice's determinant
    elimination where it needed no row swap, and the odd symbols and
    the profile are built only when everything before them agrees;
  * bounded backtracking search for an explicit witness matrix -- sound,
    never claims non-isometry. Both forms must be nondegenerate, so every
    witness M is unimodular: its rows are primitive, and since
    M G2 = G1 M^-T, row i has gcd(v_i G2) = gcd(G1[i]); each row's
    candidates are cut to the norm-pool vectors with both properties.
    One pass builds the pools of every row norm: one integer
    Fincke-Pohst enumeration for a definite target (complete pools),
    one scan of the entry box for an indefinite one, each walking one
    vector of every pair +-v and adding its negative;
  * for Hodge lattices whose periods span, a closed form: a Hodge
    isometry with rational scalar lam is +-lam M0 for the one rational
    M0 carrying one period onto the other, so at most two candidates
    exist and no bound applies.

Every witness is revalidated from scratch by verify_isometry before it
leaves this module; results are deterministic and return the row-major
lexicographically least witness (within the bound, where one applies).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, prod
from operator import mul

from . import linalg
from .hodge import period_scalar
from .lattice import LatticeError, _integer, _integer_matrix, _rational, genus_of

DIFFER = "differ"
MATCH_OR_UNKNOWN = "match_or_unknown"


class CertificationError(Exception):
    pass


@dataclass(frozen=True)
class IsometryMap:
    """An integer matrix certified to carry one form onto another.

    Rows are images of source basis vectors in target coordinates, so
    matrix * gram(target) * matrix^T == scale * gram(source). The integer
    scale is 1 for plain isometries and 2 for maps onto a doubled form. For
    Hodge-compatible maps, lam is the rational scalar with
    (transported source period) == lam * (target period). A composite
    map is built from its matrix product and certified once.
    """

    source: object
    target: object
    matrix: tuple
    scale: int = 1
    lam: Fraction = None
    source_period: object = None
    target_period: object = None

    def __post_init__(self):
        object.__setattr__(self, "matrix", _integer_matrix(self.matrix, CertificationError))
        object.__setattr__(self, "scale", _integer(self.scale, "scale", CertificationError))
        if self.lam is not None:
            object.__setattr__(self, "lam", _rational(self.lam, "scalar", CertificationError))


def verify_isometry(iso):
    """Revalidate an IsometryMap from scratch; raises CertificationError.

    Checks: integral square matrix of the right size, unimodularity,
    exact Gram transport at the declared scale, and the periods: both
    endpoints carry one or neither, a scalar is declared exactly when
    they do, and then they share one symbol basis, sit on the lattices
    of the endpoints and are transported at the declared scalar.
    """
    g_s = iso.source.gram
    g_t = iso.target.gram
    n_s, n_t = len(g_s), len(g_t)
    m = iso.matrix
    if len(m) != n_s or any(len(r) != n_t for r in m):
        raise CertificationError("matrix shape does not match source/target ranks")
    if n_s != n_t:
        raise CertificationError("only equal-rank isometries are certified")
    if abs(linalg.det(m)) != 1:
        raise CertificationError("matrix is not unimodular")
    transported = linalg.matmul(linalg.matmul(m, g_t), linalg.transpose(m))
    expected = [[iso.scale * x for x in row] for row in g_s]
    if not linalg.mat_eq(transported, expected):
        raise CertificationError("Gram matrix is not preserved at scale %s" % iso.scale)
    if iso.source_period is None or iso.target_period is None:
        if iso.lam is not None or iso.source_period is not iso.target_period:
            raise CertificationError("a scalar or a period is declared without a period at each end")
        return True
    if iso.lam is None:
        raise CertificationError("periods attached but no scalar recorded")
    if iso.source_period.symbols != iso.target_period.symbols:
        raise CertificationError("the periods use different symbol bases")
    if iso.source_period.lattice.gram != g_s or iso.target_period.lattice.gram != g_t:
        raise CertificationError("a period does not sit on its endpoint's lattice")
    if period_scalar(iso.source_period, m, iso.target_period) != iso.lam:
        raise CertificationError("period is not transported at scalar %s" % iso.lam)
    return True


def genus_equal(l1, l2):
    """DIFFER when the genus invariants (lattice.genus_of) are unequal.

    MATCH_OR_UNKNOWN otherwise; this routine never asserts isometry. The
    discriminant divisors multiply to |det|, so |det| is compared too.
    """
    return DIFFER if genus_of(l1) != genus_of(l2) else MATCH_OR_UNKNOWN


def _definite_sign(gram):
    """+1 / -1 for positive/negative definite, 0 otherwise.

    Sylvester's criterion on the leading minors, read as the inertia of
    linalg.det_and_inertia, the one place they are read: no negatives
    (all minors positive) for +1, no positives (signs alternating from a
    negative M_0) for -1. No inertia there means a zero leading minor,
    so the form is not definite.
    """
    inertia = linalg.det_and_inertia(gram)[1]
    if inertia is None:
        return 0
    pos, neg = inertia
    return 1 if not neg else -1 if not pos else 0


def short_vectors(gram, norm):
    """All integer vectors of exact given norm for a definite Gram matrix.

    The v's of the positive half of the one-norm pool of _norm_pools: a
    lexicographically sorted list of the vectors whose first nonzero
    entry is positive (the rest are their negatives). Raises ValueError
    for a Gram matrix that is not definite.
    """
    sign = _definite_sign(gram)
    if sign == 0:
        raise ValueError("short_vectors needs a definite Gram matrix")
    pool = _norm_pools(gram, (norm,), None, sign)[norm]
    return [v for v, _ in pool if next(c for c in v if c) > 0]


def _norm_pools(gram, norms, bound, sign):
    """{norm: (v, v.G) for every candidate image vector v of that norm, lex-sorted}, from one pass.

    sign is _definite_sign(gram). Both branches walk one vector of each
    pair +-v: the norm is even in v and the entry box is symmetric. Each
    walked v enters its pool with v.G, and -v with -(v.G) beside it,
    except the zero vector, which a norm-0 indefinite pool holds once.
    Each pool is sorted once at the end, so it is the list a walk over
    every vector would give.

    Definite targets take every vector of each norm (bound plays no
    part), from one exact Fincke-Pohst enumeration in integers up to the
    largest norm: no entry bound, no floats, no fractions. With the rows
    a of linalg.echelon of the sign-corrected Gram matrix and
    M_i = a[i][i], M_-1 = 1,
        Q(x) = sum_i (M_i x_i + s_i)^2 / (M_i M_{i-1}),
        s_i = sum_{j>i} a[i][j] x_j,
    and scaling by P = prod M_i makes every weight w_i = P / (M_i M_{i-1})
    an integer, so each x_i with i > 0 ranges exactly over
    |M_i x_i + s_i| <= isqrt(rest // w_i). The centres s_k are carried
    down the recursion, which runs from coordinate n-1 to 0: setting x_i
    adds x_i a[k][i] to the centre of every level k < i. The walk keeps
    the v whose last nonzero coordinate is positive: while a flag free
    says that every coordinate set so far is 0 (so the centre is 0 too),
    x_i starts at 0. At i = 0 no x_0 is tried:
    with rest what the levels above leave of P times the largest norm,
    the vector has norm N exactly when y = M_0 x_0 + s_0 solves
    w_0 y^2 = rest - P (largest - N), so x_0 = (+-y - s_0) / M_0 when
    that is integral, and x_0 = y / M_0 > 0 alone while free. w_0
    divides that right-hand side: for every integer x_0,
    rest - w_0 y^2 = P (largest - Q(x)) and P = M_0 w_0.
    The norms are walked from the largest down, and the walk stops at
    the first negative right-hand side. A norm of the wrong sign, or 0,
    gets an empty pool. v.G is computed once per pair +-v.

    Indefinite targets take the vectors with entries in [-bound, bound],
    from one lexicographic recursion over the prefixes of all coordinates
    but the last whose first nonzero coordinate is positive, and the
    zero prefix. It carries acc = prefix.G (every column) and
    q = prefix.G.prefix^T: setting coordinate i to x_i adds x_i G[i] to
    acc and x_i (2 acc[i] + x_i G[i][i]) to q, and x_i = 0 passes both
    on unchanged. At a leaf b = acc[-1], and for each norm the equation
    g t^2 + 2 b t + q - norm = 0 is solved exactly for the last
    coordinate t (_norm_roots), only t >= 0 after the zero prefix; v.G
    is acc + t G[-1].
    """
    pools = {norm: [] for norm in norms}
    if sign:
        wanted = sorted((sign * norm for norm in pools if sign * norm > 0), reverse=True)
        if not wanted:
            return pools
        n = len(gram)
        a = linalg.echelon([[sign * x for x in row] for row in gram])[0]
        minors = [a[i][i] for i in range(n)]
        scale = prod(minors)
        weights = [scale // (m * prev) for m, prev in zip(minors, [1] + minors)]
        columns = [[a[k][i] for k in range(i)] for i in range(n)]
        top = wanted[0]
        offsets = [(scale * (top - t), pools[sign * t]) for t in wanted]
        m0, w0 = minors[0], weights[0]
        x = [0] * n

        def rec(i, remaining, centres, free):
            # centres[k] = s_k for every level k <= i
            s = centres[i]
            if i == 0:
                for offset, pool in offsets:
                    rest = remaining - offset
                    if rest < 0:
                        break
                    y2 = rest // w0
                    y = isqrt(y2)
                    if y * y != y2:
                        continue
                    for num in (y,) if free else (y - s, -y - s) if y else (-s,):
                        x0, r = divmod(num, m0)
                        if not r:
                            x[0] = x0
                            pool.append(tuple(x))
                return
            m, w, column = minors[i], weights[i], columns[i]
            r = isqrt(remaining // w)
            for xi in range(0 if free else -((r + s) // m), (r - s) // m + 1):
                y = m * xi + s
                if xi:
                    x[i] = xi
                    rec(i - 1, remaining - w * y * y,
                        [c + xi * k for c, k in zip(centres, column)], False)
                else:
                    x[i] = 0
                    rec(i - 1, remaining - w * y * y, centres, free)
            x[i] = 0

        rec(n - 1, scale * top, [0] * n, True)
        for pool in pools.values():
            pool[:] = [(v, linalg.vec_times_mat(v, gram)) for v in pool]
    else:
        last = len(gram) - 1
        last_row, g = gram[last], gram[last][last]
        wanted = list(pools.items())
        x = [0] * last

        def scan(i, acc, q, free):
            # acc = prefix.G and q = prefix.G.prefix^T for the coordinates before i
            if i == last:
                prefix = tuple(x)
                for norm, pool in wanted:
                    for t in _norm_roots(g, acc[-1], q - norm, bound):
                        if t >= 0 or not free:
                            pool.append((prefix + (t,), [s + t * y for s, y in zip(acc, last_row)]))
                return
            row, g_ii = gram[i], gram[i][i]
            for xi in range(0 if free else -bound, bound + 1):
                x[i] = xi
                if xi:
                    scan(i + 1, [s + xi * y for s, y in zip(acc, row)],
                         q + xi * (2 * acc[i] + xi * g_ii), False)
                else:
                    scan(i + 1, acc, q, free)

        scan(0, [0] * len(gram), 0, True)
    for pool in pools.values():
        pool += [(tuple([-c for c in v]), [-c for c in vg]) for v, vg in pool if any(v)]
        pool.sort()
    return pools


def _norm_roots(g, b, c, bound):
    """Integer roots t in [-bound, bound] of g t^2 + 2 b t + c, ascending."""
    if g == 0:
        if b == 0:
            return range(-bound, bound + 1) if c == 0 else ()
        t, r = divmod(-c, 2 * b)
        return (t,) if r == 0 and -bound <= t <= bound else ()
    disc = b * b - g * c
    if disc < 0:
        return ()
    s = isqrt(disc)
    if s * s != disc:
        return ()
    roots = set()
    for num in (-b - s, -b + s):
        t, r = divmod(num, g)
        if r == 0 and -bound <= t <= bound:
            roots.add(t)
    return sorted(roots)


def _row_domains(g1, g2, bound):
    """Each row's starting candidates for _search: (v, v.G2) pairs in lex order.

    Every witness M of M G2 M^T = G1 is unimodular, since det G1 = det G2
    is nonzero, and so each row v_i of M is primitive. Moreover
    M G2 = G1 M^-T and right multiplication by a unimodular matrix keeps
    the gcd of a row's entries, so gcd(v_i G2) = gcd(G1[i]). Row i's
    domain is therefore the norm pool of G1[i][i] cut down to the
    primitive vectors v with gcd(v G2) = gcd(G1[i]). One _norm_pools
    pass builds the pools of every diagonal norm of G1 at once, with
    v.G2 beside each vector (the box scan has it in hand already), and
    one domain is built per (norm, divisor) key.
    """
    keys = [(row[i], gcd(*row)) for i, row in enumerate(g1)]
    pools = _norm_pools(g2, [norm for norm, _ in keys], bound, _definite_sign(g2))
    domains = {}
    for norm, divisor in keys:
        if (norm, divisor) not in domains:
            domains[norm, divisor] = [
                (v, vg) for v, vg in pools[norm] if gcd(*v) == 1 and gcd(*vg) == divisor
            ]
    return [domains[key] for key in keys]


def _search(g1, g2, bound):
    """Backtracking core; yields every witness matrix in row-major lex order.

    Rows are assigned in natural order and candidates per row are tried
    in lexicographic order, so the witnesses come out row-major
    lexicographically ordered and the first is the least one. Pruning is
    forward checking over candidate domains: every row starts from the
    vectors of its norm pool (Fincke-Pohst pools for definite targets)
    that a unimodular witness can use there (_row_domains), and
    assigning v to row i filters each later row's domain down to the
    candidates w with w.G2.v == g1[k][i], dropping the branch as soon as
    a domain empties. Filtering keeps each domain in lexicographic order
    and removes only candidates that no completion could use, so the
    witnesses are the same as in a plain scan. Both forms must be
    nondegenerate, so that every witness is unimodular; a singular one
    raises LatticeError.
    """
    n = len(g1)
    d1, d2 = linalg.det(g1), linalg.det(g2)
    if d1 == 0 or d2 == 0:
        raise LatticeError("gram matrix must be nondegenerate")
    if len(g2) != n or not n or d1 != d2:
        return
    rows = []

    def extend(i, domains):
        # domains[0] is row i's; each entry pairs v with v.G2
        for v, vg in domains[0]:
            narrowed = []
            for k, dom in enumerate(domains[1:], i + 1):
                target = g1[k][i]
                dom = [c for c in dom if sum(map(mul, vg, c[0])) == target]
                if not dom:
                    break
                narrowed.append(dom)
            else:
                rows.append(v)
                if i == n - 1:
                    yield tuple(rows)
                else:
                    yield from extend(i + 1, narrowed)
                rows.pop()

    yield from extend(0, _row_domains(g1, g2, bound))


def find_isometry(l1, l2, bound):
    """Lex-least integer isometry l1 -> l2 with entries in [-bound, bound].

    None means no witness within the bound, not non-isometry (except for
    definite inputs, where the norm pools are complete). A singular Gram
    matrix, which a Sublattice may carry, raises LatticeError.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    m = next(_search(l1.gram, l2.gram, bound), None)
    if m is None:
        return None
    iso = IsometryMap(source=l1, target=l2, matrix=m)
    verify_isometry(iso)
    return iso


def _rational_sqrt(q):
    """The positive rational square root of q, or None."""
    num, den = isqrt(max(q.numerator, 0)), isqrt(q.denominator)
    return Fraction(num, den) if num * num == q.numerator and den * den == q.denominator else None


def _hodge_witness(h1, h2, bound):
    """(matrix, lam, None) for the lex-least Hodge isometry, or (None, None, why not).

    With the symbol columns C_s and C_t of the two periods as rows, a
    Hodge isometry M with rational scalar lam solves C_s M = lam C_t.
    One elimination on the integer columns solves C_s M0 = C_t as
    M0 = c N, N integral. When M0 is nonsingular, which is exactly when
    both periods span Q^r, M0 is the only solution, so M = +-lam M0, and
    M G2 M^T = G1 fixes lam^2 = G1 / (N G2 N^T) / c^2, in integers up
    to that last division.
    The lex-least of the two signs is the witness, at any entry size;
    the reason names the first of these steps that fails. A period that
    spans less takes the first plain witness within the bound, in lex
    order, that carries it to a nonzero multiple of the other.
    """
    if h1.symbols != h2.symbols:
        return None, None, "the periods use different symbol bases"
    g1, g2 = h1.lattice.gram, h2.lattice.gram
    if len(g1) != len(g2):
        return None, None, "the lattices have different ranks"
    p1, p2 = h1.period, h2.period
    solved = linalg.solve(p1.num, p2.num)
    if solved is None:
        return None, None, "no rational map carries the source period onto the target period"
    n, d = solved
    det_n = linalg.det(n)
    if det_n == 0:
        for m in _search(g1, g2, bound):
            lam = period_scalar(p1, m, p2)
            if lam is not None:
                return m, lam, None
        return None, None, "no witness with entries bounded by %d" % bound
    # M0 = c N: the periods are num / den, and num_1 N = d num_2
    c = Fraction(p1.den, p2.den * d)
    lam_sq = linalg.scalar_ratio(g1, linalg.matmul(linalg.matmul(n, g2), linalg.transpose(n)))
    if lam_sq is None:
        return None, None, ("the period map M0 pulls the target form back to no multiple"
                            " of the source form")
    lam_sq /= c * c
    lam = _rational_sqrt(lam_sq)
    if lam is None:
        return None, None, "lambda^2 = %s is not a rational square" % lam_sq
    f = lam * c  # lam M0 = f N
    if any(x * f.numerator % f.denominator for row in n for x in row):
        return None, None, "+-lambda*M0 is not integral for lambda = %s" % lam
    det_m = f ** len(n) * det_n
    if abs(det_m) != 1:
        return None, None, "+-lambda*M0 is not unimodular: det = %s" % det_m
    m = tuple(tuple(x * f.numerator // f.denominator for x in row) for row in n)
    neg = tuple(tuple(-x for x in row) for row in m)
    return (m, lam, None) if m < neg else (neg, -lam, None)


def find_hodge_isometry(h1, h2, bound):
    """Lex-least integer Hodge isometry h1 -> h2 with a rational period scalar.

    h1 and h2 are HodgeLattice values over a shared symbol basis. Where
    both periods span, the witness is found in closed form at any entry
    size and bound plays no part; otherwise it is the first within
    [-bound, bound]. None means no witness, not non-isometry;
    kummer.hodge_verdict gives the reason, the step that failed. The
    certificate records the scalar lam.
    """
    return _certified_hodge_witness(h1, h2, bound)[0]


def _certified_hodge_witness(h1, h2, bound):
    """(certified witness, None) or (None, why not), from one _hodge_witness run."""
    if bound < 1:
        raise ValueError("bound must be >= 1")
    m, lam, reason = _hodge_witness(h1, h2, bound)
    if m is None:
        return None, reason
    iso = IsometryMap(
        source=h1.lattice,
        target=h2.lattice,
        matrix=m,
        lam=lam,
        source_period=h1.period,
        target_period=h2.period,
    )
    verify_isometry(iso)
    return iso, None

