"""Certified isometry testing.

Two complementary routes, both exact:

  * refutation by cheap invariants (rank, inertia, parity, discriminant
    data) -- sound, never claims isometry;
  * bounded backtracking search for an explicit witness matrix -- sound,
    never claims non-isometry.

Every witness is revalidated from scratch by verify_isometry before it
leaves this module; searches are deterministic and return the row-major
lexicographically least witness within the bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import isqrt
from operator import mul

from . import linalg
from .lattice import Lattice, Sublattice, genus_of, disc_equivalent

DIFFER = "differ"
MATCH_OR_UNKNOWN = "match_or_unknown"


class CertificationError(Exception):
    pass


def gram_of(obj):
    if isinstance(obj, Lattice):
        return obj.gram
    if isinstance(obj, Sublattice):
        return obj.gram()
    raise TypeError("expected a Lattice or Sublattice")


@dataclass(frozen=True)
class IsometryMap:
    """An integer matrix certified to carry one form onto another.

    Rows are images of source basis vectors in target coordinates, so
    matrix * gram(target) * matrix^T == scale * gram(source). For plain
    isometries scale is 1; scale 2 records maps onto a doubled form. For
    Hodge-compatible maps, lam is the rational scalar with
    (transported source period) == lam * (target period).
    """

    source: object
    target: object
    matrix: tuple
    scale: Fraction = Fraction(1)
    lam: Fraction = None
    source_period: object = None
    target_period: object = None

    def __post_init__(self):
        matrix = tuple(tuple(int(x) for x in row) for row in self.matrix)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "scale", Fraction(self.scale))
        if self.lam is not None:
            object.__setattr__(self, "lam", Fraction(self.lam))

    def apply(self, v):
        return tuple(linalg.vec_times_mat(v, self.matrix))

    def inverse(self):
        return IsometryMap(
            source=self.target,
            target=self.source,
            matrix=linalg.invert_unimodular(self.matrix),
            scale=1 / self.scale,
            lam=None if self.lam is None else 1 / self.lam,
            source_period=self.target_period,
            target_period=self.source_period,
        )

    def then(self, other):
        """Composition: first self, then other."""
        lam = None
        if self.lam is not None and other.lam is not None:
            lam = self.lam * other.lam
        return IsometryMap(
            source=self.source,
            target=other.target,
            matrix=linalg.matmul(self.matrix, other.matrix),
            scale=self.scale * other.scale,
            lam=lam,
            source_period=self.source_period,
            target_period=other.target_period,
        )


def verify_isometry(iso):
    """Revalidate an IsometryMap from scratch; raises CertificationError.

    Checks: integral square matrix of the right size, unimodularity,
    exact Gram transport at the declared scale, and period transport at
    the declared scalar when periods are attached.
    """
    g_s = gram_of(iso.source)
    g_t = gram_of(iso.target)
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
    if iso.source_period is not None and iso.target_period is not None:
        if iso.lam is None:
            raise CertificationError("periods attached but no scalar recorded")
        src_cols = iso.source_period.columns()
        tgt_cols = iso.target_period.columns()
        for cs, ct in zip(src_cols, tgt_cols):
            image = linalg.vec_times_mat(cs, m)
            if [Fraction(x) for x in image] != [iso.lam * Fraction(x) for x in ct]:
                raise CertificationError("period is not transported at scalar %s" % iso.lam)
        if iso.lam == 0:
            raise CertificationError("period scalar must be nonzero")
    return True


def genus_equal(l1, l2):
    """DIFFER when a computable invariant separates the two lattices.

    MATCH_OR_UNKNOWN otherwise; this routine never asserts isometry.
    """
    g1, g2 = genus_of(l1), genus_of(l2)
    if g1.rank != g2.rank or g1.signature != g2.signature or g1.even != g2.even:
        return DIFFER
    if abs(l1.det) != abs(l2.det):
        return DIFFER
    if not disc_equivalent(g1.disc, g2.disc):
        return DIFFER
    return MATCH_OR_UNKNOWN


def _definite_sign(gram):
    """+1 / -1 for positive/negative definite, 0 otherwise.

    Sylvester's criterion on the leading minors from linalg.echelon: all
    positive for +1, alternating from a negative M_0 for -1. A row swap
    or a missing pivot means a zero leading minor, so the form is not
    definite.
    """
    a, pivots, swaps, _ = linalg.echelon(gram)
    if swaps or len(pivots) < len(gram):
        return 0
    minors = [row[i] for i, row in enumerate(a)]
    if all(m > 0 for m in minors):
        return 1
    if all((m > 0) == (i % 2 == 1) for i, m in enumerate(minors)):
        return -1
    return 0


def short_vectors(gram, norm):
    """All integer vectors of exact given norm for a definite Gram matrix.

    Exact Fincke-Pohst enumeration in integers: no entry bound, no floats,
    no fractions. With the rows a of linalg.echelon of the (sign-corrected)
    Gram matrix and M_i = a[i][i], M_-1 = 1,
        Q(x) = sum_i (M_i x_i + s_i)^2 / (M_i M_{i-1}),
        s_i = sum_{j>i} a[i][j] x_j,
    and scaling by P = prod M_i makes every weight P / (M_i M_{i-1}) an
    integer, so each x_i ranges exactly over
    |M_i x_i + s_i| <= isqrt(remaining // weight). Returns a
    lexicographically sorted list; only vectors whose first nonzero entry
    is positive are listed (the rest are the negatives of these).
    """
    n = len(gram)
    sign = _definite_sign(gram)
    if sign == 0:
        raise ValueError("short_vectors needs a definite Gram matrix")
    target = sign * norm
    if target <= 0:
        return []
    a = linalg.echelon([[sign * x for x in row] for row in gram])[0]
    minors = [a[i][i] for i in range(n)]
    scale = 1
    for m in minors:
        scale *= m
    weights = [scale // (m * prev) for m, prev in zip(minors, [1] + minors)]
    out = []
    x = [0] * n

    def rec(i, remaining):
        if i < 0:
            if remaining == 0 and any(x):
                out.append(tuple(x))
            return
        m, w, row = minors[i], weights[i], a[i]
        s = sum(row[j] * x[j] for j in range(i + 1, n))
        r = isqrt(remaining // w)
        for xi in range(-((r + s) // m), (r - s) // m + 1):
            x[i] = xi
            y = m * xi + s
            rec(i - 1, remaining - w * y * y)
        x[i] = 0

    rec(n - 1, scale * target)
    return sorted(v for v in out if next(c for c in v if c) > 0)


def _candidate_pool(gram, norm, bound, definite_sign):
    """Candidate image vectors of a given norm, in lexicographic order.

    Definite targets take every vector of the norm (Fincke-Pohst).
    Indefinite targets take the vectors with entries in [-bound, bound]:
    for each prefix of all coordinates but the last, in lexicographic
    order, the norm equation g t^2 + 2 b t + c = 0 is solved exactly for
    the last coordinate t, whose solutions are listed in ascending order.
    """
    if definite_sign != 0:
        halved = short_vectors(gram, norm)
        return sorted(halved + [tuple(-c for c in v) for v in halved])
    head = [row[:-1] for row in gram[:-1]]
    last_col = [row[-1] for row in gram[:-1]]
    g = gram[-1][-1]
    pool = []
    for prefix in product(range(-bound, bound + 1), repeat=len(gram) - 1):
        b = sum(map(mul, last_col, prefix))
        c = sum(map(mul, prefix, [sum(map(mul, row, prefix)) for row in head])) - norm
        pool.extend(prefix + (t,) for t in _norm_roots(g, b, c, bound))
    return pool


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


def _period_ok(rows, columns):
    """Whether the assigned rows can still transport the period at one scalar.

    columns holds (source column, target column, last support index).
    Every source column supported on the assigned rows must map to
    lam * its target column for one common rational lam != 0; once all
    columns are complete, something must pin lam. The image is compared
    with the target by cross-multiplication against the first nonzero
    target entry, and lam is kept as that integer pair.
    """
    depth = len(rows)
    lam = None
    complete = 0
    for col, tgt, last in columns:
        if last >= depth:
            continue
        complete += 1
        image = [sum(map(mul, col, r)) for r in zip(*rows)]
        if not any(image):
            if any(tgt):
                return False  # forces lam = 0
            continue
        p = next((j for j, b in enumerate(tgt) if b), None)
        if p is None:
            return False
        a0, b0 = image[p], tgt[p]
        if any(a * b0 != a0 * b for a, b in zip(image, tgt)):
            return False
        if lam is None:
            lam = (a0, b0)
        elif a0 * lam[1] != lam[0] * b0:
            return False
    if complete == len(columns) and lam is None:
        return False  # nothing pins a nonzero scalar
    return True


def period_scalar(source_period, target_period, matrix):
    """The lam with (source column) * matrix == lam * (target column), or None.

    Read off the first column, in symbol order, whose target has a
    nonzero entry: the image entry over the first such target entry.
    Only verify_isometry certifies that lam fits every column.
    """
    for col, tgt in zip(source_period.columns(), target_period.columns()):
        image = linalg.vec_times_mat(col, matrix)
        for a, b in zip(image, tgt):
            if b:
                return Fraction(a, b)
    return None


def _search(g1, g2, bound, period_data):
    """Backtracking core; returns the first (= lex-least) witness matrix.

    Rows are assigned in natural order and candidates per row are tried
    in lexicographic order, so the first complete solution is the
    row-major lexicographically least one. Pruning is forward checking
    over candidate domains: every row starts from the exact norm pool of
    its diagonal entry (Fincke-Pohst pools for definite targets), and
    assigning v to row i filters each later row's domain down to the
    candidates w with w.G2.v == g1[k][i], dropping the branch as soon as
    a domain empties. Filtering keeps each domain in lexicographic order
    and removes only candidates that no completion could use, so the
    first witness is the same as in a plain scan. Period proportionality
    is checked on every symbol column whose support is fully assigned.
    """
    n = len(g1)
    if len(g2) != n:
        return None
    if linalg.det(g1) != linalg.det(g2):
        return None
    sign = _definite_sign(g2)
    pools = {}
    for i in range(n):
        norm = g1[i][i]
        if norm not in pools:
            pools[norm] = [
                (v, linalg.vec_times_mat(v, g2))
                for v in _candidate_pool(g2, norm, bound, sign)
            ]
    if period_data is not None:
        columns = [
            (col, tgt, max((idx for idx, val in enumerate(col) if val), default=-1))
            for col, tgt in zip(*period_data)
        ]
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
                if period_data is None or _period_ok(rows, columns):
                    if i == n - 1:
                        return tuple(rows)
                    found = extend(i + 1, narrowed)
                    if found is not None:
                        return found
                rows.pop()
        return None

    return extend(0, [pools[g1[i][i]] for i in range(n)]) if n else None


def find_isometry(l1, l2, bound):
    """Lex-least integer isometry l1 -> l2 with entries in [-bound, bound].

    None means no witness within the bound, not non-isometry (except for
    definite inputs, where the norm pools are complete).
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    if l1.rank != l2.rank:
        return None
    g1, g2 = gram_of(l1), gram_of(l2)
    m = _search(g1, g2, bound, None)
    if m is None:
        return None
    iso = IsometryMap(source=l1, target=l2, matrix=m)
    verify_isometry(iso)
    return iso


def find_hodge_isometry(h1, h2, bound):
    """Like find_isometry, with period transport pinned to a rational scalar.

    h1 and h2 are HodgeLattice values over a shared symbol basis. The
    certificate records the scalar lam.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    if h1.symbols != h2.symbols:
        return None
    l1, l2 = h1.lattice, h2.lattice
    if l1.rank != l2.rank:
        return None
    period_data = (h1.period.columns(), h2.period.columns())
    m = _search(gram_of(l1), gram_of(l2), bound, period_data)
    if m is None:
        return None
    iso = IsometryMap(
        source=l1,
        target=l2,
        matrix=m,
        lam=period_scalar(h1.period, h2.period, m),
        source_period=h1.period,
        target_period=h2.period,
    )
    verify_isometry(iso)
    return iso
