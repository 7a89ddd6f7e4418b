"""Exact linear algebra over the integers and rationals.

Everything below runs on Python ints and fractions.Fraction; no floating
point. A matrix is any sequence of equal-length rows, tuples and lists
alike; no input is modified, and matrices come back as lists of lists.
Maps act on row vectors: the image of v under M is v*M, so compositions
read left to right. det, det_and_inertia, rank and solve run on one
fraction-free elimination, echelon; solve keeps its integer numerators over the one
denominator that elimination gives, and invert_unimodular is solve
against the identity, divided by that denominator. Gram matrices here
are sparse and witnesses near-permutations, so echelon leaves a row with
nothing to eliminate as it is (or only rescales it), and matmul sums
over the nonzero entries of each left row. hnf, the one Hermite
reduction, carries no transform; right_kernel is a block of hnf([A | I]).
saturation is one unimodular triangularization, which keeps its inverse,
and one hnf.

Empty matrices are legitimate inputs for the kernel/saturation helpers;
the ambient dimension is passed explicitly where it cannot be inferred.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul


def xgcd(a, b):
    """Return (g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b = g."""
    x, next_x = 1, 0
    y, next_y = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        x, next_x = next_x, x - q * next_x
        y, next_y = next_y, y - q * next_y
        g, next_g = next_g, g - q * next_g
    if g < 0:
        x, y, g = -x, -y, -g
    return g, x, y


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def transpose(rows):
    return [list(col) for col in zip(*rows)]


def matmul(a, b):
    """a * b, row i summed as x * b[k] over the nonzero entries x = a[i][k] only."""
    ncols = len(b[0]) if b else 0
    out = []
    for row in a:
        acc = [0] * ncols
        for x, b_row in zip(row, b):
            if x:
                acc = [s + x * y for s, y in zip(acc, b_row)]
        out.append(acc)
    return out


def vec_times_mat(v, m):
    """The row vector v * m.

    A v holding Fractions is scaled once by the lcm of its denominators,
    as in pair_with, so the products run in integers when m is integral,
    and each entry is divided by that scale at the end: the result holds
    Fractions when v does, and ints when v and m are integral.
    """
    if Fraction not in map(type, v):
        return [sum(map(mul, v, col)) for col in zip(*m)]
    v, den = clear_denominators(v)
    return [Fraction(sum(map(mul, v, col)), den) for col in zip(*m)]


def pair_with(gram, v, w):
    """v * gram * w^T for row vectors v, w of ints or Fractions.

    Integer arithmetic throughout: an argument holding Fractions is
    scaled once by the lcm of its denominators, zero entries of v are
    skipped, and the integer pairing is divided by the scales at the
    end. The result is an int for integer vectors and a Fraction when v
    or w holds one.
    """
    den = None
    if Fraction in map(type, v):
        v, den = clear_denominators(v)
    if Fraction in map(type, w):
        w, w_den = clear_denominators(w)
        den = w_den if den is None else den * w_den
    total = sum(x * sum(map(mul, gram[i], w)) for i, x in enumerate(v) if x)
    return total if den is None else Fraction(total, den)


def clear_denominators(v):
    """(integer vector, den) with v == vector / den, den the lcm of the denominators."""
    den = lcm(*(x.denominator for x in v))
    return [x.numerator * (den // x.denominator) for x in v], den


def is_zero_row(row):
    return all(x == 0 for x in row)


def mat_eq(a, b):
    return [list(r) for r in a] == [list(r) for r in b]


def echelon(rows):
    """Fraction-free (Bareiss 1968) row echelon form of a rational matrix.

    Returns (a, pivots, swaps, den). Each row holding a Fraction is first
    scaled by the lcm of its denominators, and den is the product of
    those scales. Columns are scanned left to right: a column with no
    nonzero entry at or below the current row is skipped, otherwise the
    first such row is swapped up (swaps counts the swaps) and its
    leading column is appended to pivots. Row k of the integer result a
    is zero before pivots[k], and from there on a[k][j] is the minor of
    the scaled, swapped matrix on rows 0..k and columns
    pivots[:k] + [j]; rows from len(pivots) on are zero. So a square
    matrix eliminated with no swap has its leading principal minors on
    the diagonal, the last one being the scaled determinant.

    Below a pivot piv, with prev the one before it (1 at first), a row
    with f != 0 in the pivot column takes (piv * x - f * y) // prev; one
    with f = 0 is left as it is when piv == prev, else scaled once by
    piv * x // prev, exact by the same Bareiss property.
    """
    a = []
    den = 1
    for row in rows:
        if Fraction in map(type, row):
            row, row_den = clear_denominators(row)
            den *= row_den
        a.append(list(row))
    m = len(a)
    ncols = len(a[0]) if m else 0
    pivots = []
    swaps = 0
    prev = 1
    for c in range(ncols):
        r = len(pivots)
        if r == m:
            break
        p = next((i for i in range(r, m) if a[i][c]), None)
        if p is None:
            continue
        if p != r:
            a[r], a[p] = a[p], a[r]
            swaps += 1
        top = a[r][c + 1:]
        piv = a[r][c]
        for i in range(r + 1, m):
            f = a[i][c]
            if f:
                a[i] = [0] * (c + 1) + [(piv * x - f * y) // prev for x, y in zip(a[i][c + 1:], top)]
            elif piv != prev:
                a[i] = [0] * (c + 1) + [piv * x // prev for x in a[i][c + 1:]]
        pivots.append(c)
        prev = piv
    return a, pivots, swaps, den


def _back_substitute(a, pivots, n, col, d):
    """Integer y in Z^n with y / d solving the echelon rows against their column col.

    d is the last pivot, the minor on the pivot rows and columns; Cramer's
    rule makes d times the solution integral, so the substitution runs in
    integers with exact divisions. Free variables are zero.
    """
    y = [0] * n
    for k in reversed(range(len(pivots))):
        row, c = a[k], pivots[k]
        y[c] = (d * row[col] - sum(row[j] * y[j] for j in pivots[k + 1:])) // row[c]
    return y


def det(rows):
    """Exact determinant of a square matrix: an int when integral, else a Fraction."""
    n = len(rows)
    a, pivots, swaps, den = echelon(rows)
    if len(pivots) < n:
        return 0
    num = (-1) ** swaps * a[-1][-1] if n else 1
    return num // den if num % den == 0 else Fraction(num, den)


def det_and_inertia(rows):
    """(det, inertia) of a symmetric integer matrix, from one echelon.

    When the elimination needs no row swap and finds a pivot in every
    column, the diagonal of its rows holds the leading principal minors
    D_1, ..., D_n, all nonzero, and Jacobi's rule reads the inertia
    (positives, negatives) off them: the negatives are the sign changes
    in 1, D_1, ..., D_n. Otherwise some leading minor vanishes, the rule
    does not apply, and inertia is None; det is then 0 exactly when a
    pivot is missing.
    """
    n = len(rows)
    a, pivots, swaps, _ = echelon(rows)
    if len(pivots) < n:
        return 0, None
    if swaps:
        return (-1) ** swaps * a[-1][-1], None
    minors = [row[i] for i, row in enumerate(a)]
    neg = sum((x < 0) != (y < 0) for x, y in zip([1] + minors, minors))
    return minors[-1], (n - neg, neg)


def rank(rows):
    """Rank over Q."""
    return len(echelon(rows)[1])


def hnf(rows):
    """Row-style Hermite normal form, zero rows dropped; no transform is kept.

    Echelon rows with positive pivots and the entries above each pivot
    reduced into [0, pivot), spanning the lattice of the input rows.
    """
    m = len(rows)
    a = [list(r) for r in rows]
    ncols = len(a[0]) if m else 0
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, m) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(r + 1, m):
            if a[i][c] == 0:
                continue
            p, q = a[r][c], a[i][c]
            g, x, y = xgcd(p, q)
            pp, qq = p // g, q // g
            a[r], a[i] = (
                [x * s + y * t for s, t in zip(a[r], a[i])],
                [-qq * s + pp * t for s, t in zip(a[r], a[i])],
            )
        if a[r][c] < 0:
            a[r] = [-x for x in a[r]]
        for i in range(r):
            q = a[i][c] // a[r][c]
            if q:
                a[i] = [s - q * t for s, t in zip(a[i], a[r])]
        r += 1
    return a[:r]


def right_kernel(rows, ncols):
    """HNF basis of {x in Z^ncols : r . x = 0 for every row r}.

    hnf([rows^T | I]) = [H | U] with U * rows^T = H, U unimodular; the
    rows of U beside the zero rows of H span the kernel and are already
    in Hermite form, so one reduction gives it.
    """
    k = len(rows)
    full = hnf([[r[j] for r in rows] + e for j, e in enumerate(identity(ncols))])
    return [row[k:] for row in full if is_zero_row(row[:k])]


def saturation(rows, ncols):
    """HNF basis of (Q-span of rows) intersected with Z^ncols, for integer rows.

    One unimodular triangularization U * A = H of A = rows^T, keeping
    V = U^-1 up to date by the inverse column operations. As A = V * H
    and H is zero below its first r = rank rows, every row lies in the
    span of the first r columns of V. Those columns are part of a basis
    of Z^ncols, so their span is primitive: it is the saturation, and
    its HNF is returned.
    """
    rows = [r for r in rows if not is_zero_row(r)]
    if not rows:
        return []
    a = transpose(rows)
    v = identity(ncols)  # v[k] is column k of V
    r = 0
    for c in range(len(rows)):
        piv = next((i for i in range(r, ncols) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        v[r], v[piv] = v[piv], v[r]
        for i in range(r + 1, ncols):
            if a[i][c] == 0:
                continue
            p, q = a[r][c], a[i][c]
            g, x, y = xgcd(p, q)
            pp, qq = p // g, q // g
            # rows (r, i) of A by [[x, y], [-qq, pp]], columns (r, i) of V by its inverse
            a[r], a[i] = (
                [x * s + y * t for s, t in zip(a[r], a[i])],
                [-qq * s + pp * t for s, t in zip(a[r], a[i])],
            )
            v[r], v[i] = (
                [pp * s + qq * t for s, t in zip(v[r], v[i])],
                [-y * s + x * t for s, t in zip(v[r], v[i])],
            )
        r += 1
    return hnf(v[:r])


def snf_with_transforms(rows):
    """Smith normal form D = S * A * T, S and T unimodular, as (diagonal, T).

    diagonal holds the min(m, n) entries d_1 | d_2 | ... of D, all
    nonnegative. S is not built: A * T = S^-1 * D.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    a = [list(r) for r in rows]
    t = identity(n)

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in t:
            row[i], row[j] = row[j], row[i]

    def add_col(src, dst, f):
        for row in a:
            row[dst] += f * row[src]
        for row in t:
            row[dst] += f * row[src]

    k = 0
    while k < min(m, n):
        # move a minimal nonzero entry of the trailing block to (k, k)
        best = None
        for i in range(k, m):
            for j in range(k, n):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        a[k], a[best[0]] = a[best[0]], a[k]
        swap_cols(k, best[1])
        dirty = True
        while dirty:
            dirty = False
            for i in range(k + 1, m):
                if a[i][k]:
                    q = a[i][k] // a[k][k]
                    a[i] = [x - q * y for x, y in zip(a[i], a[k])]
                    if a[i][k]:
                        a[k], a[i] = a[i], a[k]
                        dirty = True
            if dirty:
                # clear column k first: sweeping row k now would multiply
                # the entries left below the pivot into the trailing block
                continue
            for j in range(k + 1, n):
                if a[k][j]:
                    q = a[k][j] // a[k][k]
                    add_col(k, j, -q)
                    if a[k][j]:
                        swap_cols(k, j)
                        dirty = True
        # enforce divisibility of the remaining block by the pivot
        piv = a[k][k]
        offender = None
        for i in range(k + 1, m):
            for j in range(k + 1, n):
                if a[i][j] % piv:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            a[k] = [x + y for x, y in zip(a[k], a[offender])]
            continue
        k += 1
    return [abs(a[i][i]) for i in range(min(m, n))], t


def solve(a_rows, b):
    """One exact solution of A x = b as (x, d): A x = d b, or None if inconsistent.

    b is one right-hand side, a vector, or several: a matrix B, for which
    x is a matrix X with A X = d B, from the same elimination. The
    entries of A and b may be Fractions; x holds ints and d is a nonzero
    int, the last pivot minor of linalg.echelon (its sign is not
    normalised), so x / d is the rational solution. Free variables are
    set to zero, which makes the result deterministic. A right-hand side
    without one entry per row of A raises ValueError.
    """
    m = len(a_rows)
    n = len(a_rows[0]) if m else 0
    several = bool(b) and isinstance(b[0], (list, tuple))
    rhs = b if several else [[x] for x in b]
    k = len(rhs[0]) if several else 1
    if len(rhs) != m or any(len(r) != k for r in rhs):
        raise ValueError("solve needs one right-hand side entry per row of A")
    a, pivots, _, _ = echelon([list(row) + list(r) for row, r in zip(a_rows, rhs)])
    if pivots and pivots[-1] >= n:
        return None
    d = a[len(pivots) - 1][pivots[-1]] if pivots else 1
    cols = [_back_substitute(a, pivots, n, n + j, d) for j in range(k)]
    return (transpose(cols) if several else cols[0]), d


def invert_unimodular(rows):
    """Integer inverse of a matrix with determinant +-1.

    One solve against the identity; a singular matrix raises
    ZeroDivisionError, any other non-unimodular one ValueError.
    """
    solved = solve(rows, identity(len(rows)))
    if solved is None:
        raise ZeroDivisionError("matrix is singular")
    inv, d = solved
    if any(x % d for row in inv for x in row):
        raise ValueError("matrix is not unimodular")
    return [[x // d for x in row] for row in inv]


def scalar_ratio(a, b):
    """The rational lam != 0 with a == lam * b entry by entry, or None.

    a and b are matrices of one shape; other shapes raise ValueError.
    Entries that are zero on both sides are skipped; a zero entry
    against a nonzero one, entries in different ratios, or no nonzero
    entry at all give None.
    """
    if len(a) != len(b) or any(len(row_a) != len(row_b) for row_a, row_b in zip(a, b)):
        raise ValueError("scalar_ratio needs two matrices of one shape")
    lam = None
    for row_a, row_b in zip(a, b):
        for x, y in zip(row_a, row_b):
            if not y:
                if x:
                    return None
            elif lam is None:
                lam = Fraction(x, y)
                if not lam:
                    return None
            elif x != lam * y:
                return None
    return lam
