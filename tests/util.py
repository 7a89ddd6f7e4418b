"""Shared test helpers: independent oracles and random fixture generators.

Oracles here deliberately avoid the library's own code paths: brute
determinants by permutation expansion, signatures via the characteristic
polynomial and Descartes' rule (exact for symmetric matrices), pairings
as plain double sums, norm pools by scanning the whole box, and
membership checks by direct enumeration.
"""

import hashlib
import random
from collections import Counter
from fractions import Fraction
from itertools import permutations, product
from math import gcd, isqrt, lcm

from sympy import Matrix, ZZ
from sympy.matrices.normalforms import smith_normal_form

from kummerlat import (
    AbelianSurfaceModel,
    BField,
    CertificationError,
    IsometryMap,
    Lattice,
    LatticeError,
    NonIntegralTwist,
    Sublattice,
    UndeclaredProduct,
    brauer_class_of,
    find_isometry,
    genus_equal,
    genus_of,
    hodge_lattice,
    mukai_lattice,
    period_from_columns,
    saturate,
    verify_isometry,
)
from kummerlat import linalg
from kummerlat.construction import base_abelian_model, u_cubed
from kummerlat.isometry import _definite_sign, _norm_pools


def fractions_built(monkeypatch, work):
    """The number of Fractions that work() builds, counted at Fraction.__new__."""
    calls = []
    original = Fraction.__new__

    def counting(cls, *args, **kwargs):
        calls.append(1)
        return original(cls, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(Fraction, "__new__", counting)
        work()
    return len(calls)


def brute_det(rows):
    """Determinant by permutation expansion; independent of linalg."""
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = sign
        for i in range(n):
            term *= rows[i][perm[i]]
        total += term
    return total


def fraction_solve(a_rows, b_rows):
    """The solution X of A X = B with free variables zero, as Fractions, or None.

    Plain Gauss-Jordan elimination over Fractions, independent of
    linalg's fraction-free elimination. b_rows is a matrix with one row
    per row of A; None means the system is inconsistent.
    """
    m = len(a_rows)
    n = len(a_rows[0]) if m else 0
    k = len(b_rows[0]) if b_rows else 0
    rows = [[Fraction(x) for x in a] + [Fraction(x) for x in b] for a, b in zip(a_rows, b_rows)]
    pivots = []
    for c in range(n):
        r = len(pivots)
        p = next((i for i in range(r, m) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(m):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    if any(rows[i][n + j] for i in range(len(pivots), m) for j in range(k)):
        return None
    x = [[Fraction(0)] * k for _ in range(n)]
    for i, c in enumerate(pivots):
        x[c] = rows[i][n:]
    return x


def invert(rows):
    """The inverse of a nonsingular square matrix, as Fractions (fraction_solve against I).

    Raises ZeroDivisionError for a singular matrix.
    """
    n = len(rows)
    inv = fraction_solve(rows, [[int(i == j) for j in range(n)] for i in range(n)])
    if inv is None:
        raise ZeroDivisionError("matrix is singular")
    return inv


def contains(sub, v):
    """Whether the ambient vector v lies in the sublattice sub: integral coordinates over its basis.

    The membership oracle for orthogonal complements, saturations and
    kernels. v needs one entry per ambient basis vector (LatticeError
    otherwise); a rank-0 sublattice holds only the zero vector.
    """
    if len(v) != sub.ambient.rank:
        raise LatticeError("vector length does not match rank %d" % sub.ambient.rank)
    if not sub.basis:
        return not any(v)
    solved = linalg.solve(linalg.transpose(sub.basis), v)
    if solved is None:
        return False
    x, d = solved
    return all(c % d == 0 for c in x)


def naive_pair(gram, v, w):
    """v * gram * w^T as the plain double sum; independent of linalg."""
    return sum(v[i] * gram[i][j] * w[j] for i in range(len(v)) for j in range(len(w)))


def frac_mod(x, modulus):
    """Reduce a rational into [0, modulus), in Fraction arithmetic."""
    x = Fraction(x)
    return x - (x / modulus).__floor__() * modulus


# Fraction oracles for the B-field and Brauer-class kernels, which store
# integer numerators over one denominator: each takes B-fields by their
# Fraction coords and classes by their Fraction values, pairs by the
# plain double sum and reduces with frac_mod.


def fraction_class_values(coords, T):
    """The values t -> pair(t, B) mod 1 on the basis of T."""
    return tuple(frac_mod(naive_pair(T.ambient.gram, row, coords), 1) for row in T.basis)


def fraction_order(values):
    """The order of a class in Hom(T, Q/Z): the lcm of its value denominators."""
    return lcm(*(Fraction(v).denominator for v in values))


def fraction_kernel_coords(values):
    """The kernel of a class in T-coordinates: the Hermite basis of c . x = 0 (mod n).

    n is the order (fraction_order) and c = n * values, read off the
    Fraction values; the reduction itself is linalg's.
    """
    n = fraction_order(values)
    k = len(values)
    if n == 1 or k == 0:
        return linalg.identity(k)
    c = [int(v * n) for v in values]
    aug = linalg.right_kernel([c + [n]], k + 1)
    return linalg.hnf([row[:k] for row in aug])


def fraction_same_class(coords1, coords2, T):
    """Whether B1 - B2 pairs integrally with every basis vector of T."""
    diff = [x - y for x, y in zip(coords1, coords2)]
    return all(Fraction(naive_pair(T.ambient.gram, row, diff)).denominator == 1 for row in T.basis)


def fraction_twisted_columns(sigma, coords):
    """The Mukai columns (0, v, pair(B, v)) of exp(B) sigma, one per symbol column v."""
    return [(0,) + col + (naive_pair(sigma.lattice.gram, coords, col),) for col in sigma.columns()]


def fraction_projection(T, coords):
    """The T-coordinates of the orthogonal projection of B to T tensor Q, or None if degenerate."""
    gram = T.ambient.gram
    gram_t = [[naive_pair(gram, r, s) for s in T.basis] for r in T.basis]
    if brute_det(gram_t) == 0:
        return None
    y = fraction_solve(gram_t, [[naive_pair(gram, r, coords)] for r in T.basis])
    return tuple(r[0] for r in y)


def two_kernel_saturation(rows, ncols):
    """Saturation as the kernel of the kernel: the oracle for linalg.saturation.

    Four Hermite reductions where linalg.saturation makes one; the
    result is the HNF basis of the same lattice.
    """
    rows = [r for r in rows if any(r)]
    if not rows:
        return []
    return linalg.right_kernel(linalg.right_kernel(rows, ncols), ncols)


def smith_left_transform(rows, diag, t):
    """The S with S * rows * T = D, for a square nonsingular matrix rows.

    linalg.snf_with_transforms builds T alone; S = D * T^-1 * rows^-1 is
    taken with sympy inverses and asserted integral with determinant
    +-1, and S * rows * T = D is checked, before S is returned as int
    rows.
    """
    d = Matrix.diag(*diag)
    s = d * Matrix(t).inv() * Matrix(rows).inv()
    assert all(x.is_integer for x in s)
    assert abs(s.det()) == 1
    assert s * Matrix(rows) * Matrix(t) == d
    return [[int(x) for x in s.row(i)] for i in range(s.rows)]


def assert_smith_columns(rows, diag, t):
    """rows * T is the Smith form up to a unimodular S, for any shape.

    Column j of rows * T must be d_j * w_j (d_j = 0 past the diagonal),
    the w_j with d_j != 0 must form a primitive system (sympy's Smith
    form of them is all ones), and the columns with d_j = 0 must be
    zero. Then any unimodular W whose first columns are those w_j gives
    W^-1 * rows * T = D, so S = W^-1 exists.
    """
    at = Matrix(rows) * Matrix(t)
    d = list(diag) + [0] * (at.cols - len(diag))
    ws = []
    for j, dj in enumerate(d):
        col = at[:, j]
        if dj == 0:
            assert col.is_zero_matrix
        else:
            assert all(x % dj == 0 for x in col)
            ws.append(col / dj)
    if ws:
        ref = smith_normal_form(Matrix.hstack(*ws), domain=ZZ)
        assert [abs(ref[i, i]) for i in range(len(ws))] == [1] * len(ws)


def fraction_period_pairing(sigma, tau):
    """pair(sigma, tau) expanded in Fraction arithmetic: the oracle for hodge.period_pairing.

    Every symbol column pair is paired as a plain double sum and
    multiplied out through the products, read from the declared tuple
    with "1" as the identity; a missing product raises
    UndeclaredProduct only when the pair's lattice pairing is nonzero.
    """
    table = {}
    for a, b, combo in sigma.symbols.products:
        table[a, b] = table[b, a] = dict(combo)
    names = sigma.symbols.symbols
    out = {}
    for i, si in enumerate(names):
        for j, sj in enumerate(names):
            p = naive_pair(sigma.lattice.gram, sigma.column(i), tau.column(j))
            if p == 0:
                continue
            if si == "1":
                combo = {sj: 1}
            elif sj == "1":
                combo = {si: 1}
            elif (si, sj) in table:
                combo = table[si, sj]
            else:
                raise UndeclaredProduct(si, sj)
            for sym, c in combo.items():
                out[sym] = out.get(sym, Fraction(0)) + p * c
    return {sym: v for sym, v in out.items() if v}


def box_pool(gram, norm, bound):
    """Every vector of [-bound, bound]^n with the given norm, lexicographic."""
    return [
        v for v in product(range(-bound, bound + 1), repeat=len(gram))
        if naive_pair(gram, v, v) == norm
    ]


def fraction_value_profile(gram, divisors, gens, modulus):
    """Sorted (order, q) over the discriminant group, in Fraction arithmetic.

    Builds every element as a rational vector from its coefficients and
    pairs it with itself: the oracle for lattice._value_profile.
    """
    n = len(gram)
    entries = []
    for coeffs in product(*(range(d) for d in divisors)):
        vec = [Fraction(0)] * n
        for a, g in zip(coeffs, gens):
            for j in range(n):
                vec[j] += a * g[j]
        order = 1
        for a, d in zip(coeffs, divisors):
            part = d // gcd(a, d)
            order = order * part // gcd(order, part)
        q = Fraction(naive_pair(gram, vec, vec))
        entries.append((order, q - (q / modulus).__floor__() * modulus))
    return tuple(sorted(entries))


def two_primary(profile):
    """The entries of a value profile whose order is a power of two.

    Those are the elements of the 2-primary part A_2, so this turns the
    profile of the whole group into the profile of A_2.
    """
    return tuple(entry for entry in profile if entry[0] & (entry[0] - 1) == 0)


def value_counts_mod(gram, p, k):
    """Counter of x G x^T mod p^k over every x in (Z/p^k)^n, by enumeration.

    Each value is the plain double sum, with the last coordinate split
    off. Lattices in one p-adic genus have equal counts for every k.
    """
    m = p ** k
    *head, last = range(len(gram))
    counts = Counter()
    for x in product(range(m), repeat=len(head)):
        # x + t e_last pairs to (x G x^T) + t (2 x.G[last] + t G[last][last])
        a = sum(x[i] * gram[i][j] * x[j] for i in head for j in head)
        b = 2 * sum(x[i] * gram[i][last] for i in head)
        c = gram[last][last]
        counts.update((a + t * (b + c * t)) % m for t in range(m))
    return counts


def is_square_mod(a, p):
    """Whether a is a nonzero square modulo the odd prime p, by enumeration."""
    return any((x * x - a) % p == 0 for x in range(1, p))


def fraction_short_vectors(gram, norm):
    """Fincke-Pohst in Fraction arithmetic: the oracle for isometry.short_vectors.

    Cholesky-style decomposition over Q, the definite sign from
    signature_oracle; singular and indefinite Grams raise ValueError.
    Same output convention: sorted, first nonzero entry positive.
    """
    n = len(gram)
    if brute_det(gram) == 0:
        raise ValueError("singular Gram matrix")
    pos, neg = signature_oracle(gram)
    if pos and neg:
        raise ValueError("indefinite Gram matrix")
    sign = 1 if neg == 0 else -1
    target = sign * norm
    if target <= 0:
        return []
    # q[i][i] (x_i + sum_{j>i} q[i][j] x_j)^2
    q = [[Fraction(sign * x) for x in row] for row in gram]
    for i in range(n):
        for j in range(i + 1, n):
            q[j][i] = q[i][j]
            q[i][j] = q[i][j] / q[i][i]
        for k in range(i + 1, n):
            for l in range(k, n):
                q[k][l] -= q[k][i] * q[i][l]
    out = []
    x = [0] * n

    def bound_sqrt(val):
        # (isqrt(pq) + 1) / q > sqrt(p / q)
        return Fraction(isqrt(val.numerator * val.denominator) + 1, val.denominator)

    def rec(i, remaining):
        if i < 0:
            if remaining == 0 and any(x):
                out.append(tuple(x))
            return
        center = sum(q[i][j] * x[j] for j in range(i + 1, n))
        s = bound_sqrt(remaining / q[i][i])
        lo, hi = -s - center, s - center
        for xi in range(-((-lo).__floor__()), hi.__floor__() + 1):
            x[i] = xi
            used = q[i][i] * (xi + center) ** 2
            if used <= remaining:
                rec(i - 1, remaining - used)
        x[i] = 0

    rec(n - 1, Fraction(target))
    return sorted(v for v in out if next(c for c in v if c) > 0)


def char_poly(gram):
    """Coefficients [1, c1, ..., cn] of det(xI - G), exact Fractions."""
    n = len(gram)
    a = [[Fraction(x) for x in row] for row in gram]
    coeffs = [Fraction(1)]
    m = [row[:] for row in a]
    for k in range(1, n + 1):
        trace = sum(m[i][i] for i in range(n))
        c = -trace / k
        coeffs.append(c)
        if k == n:
            break
        for i in range(n):
            m[i][i] += c
        m = [[sum(a[i][t] * m[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
    return coeffs


def signature_oracle(gram):
    """Signature via Descartes' rule on the characteristic polynomial.

    Exact for symmetric matrices (all eigenvalues real); requires a
    nondegenerate form.
    """
    coeffs = char_poly(gram)

    def variations(cs):
        signs = [1 if c > 0 else -1 for c in cs if c != 0]
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    pos = variations(coeffs)
    neg = variations([c * (-1) ** i for i, c in enumerate(coeffs)])
    return pos, neg


def random_symmetric_lattice_gram(rng, n, bound=5):
    """A random nondegenerate symmetric integer matrix, by rejection."""
    while True:
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                m[i][j] = m[j][i] = rng.randint(-bound, bound)
        if brute_det(m) != 0:
            return [row[:] for row in m]


def random_unimodular(rng, n, shears=6, cap=60):
    """A random unimodular matrix built from elementary row operations."""
    if n == 1:
        return [[rng.choice((-1, 1))]]
    while True:
        m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        for _ in range(shears):
            i, j = rng.sample(range(n), 2)
            f = rng.choice((-2, -1, 1, 2))
            m[i] = [a + f * b for a, b in zip(m[i], m[j])]
            if rng.random() < 0.3:
                i, j = rng.sample(range(n), 2)
                m[i], m[j] = m[j], m[i]
            if rng.random() < 0.3:
                i = rng.randrange(n)
                m[i] = [-a for a in m[i]]
        if max(abs(x) for row in m for x in row) <= cap:
            return m


def random_sublattice_basis(rng, n):
    """Rows of a random rank-r sublattice of Z^n, 1 <= r <= n.

    Staircase rows (leading entries in 1, 2, 3, -2, entries after them in
    [-3, 3]) mixed by a random unimodular matrix, so the basis is
    independent but rarely a staircase itself.
    """
    r = rng.randint(1, n)
    leads = sorted(rng.sample(range(n), r))
    rows = [[0] * n for _ in range(r)]
    for row, lead in zip(rows, leads):
        row[lead] = rng.choice((1, 1, 2, 3, -2))
        for j in range(lead + 1, n):
            row[j] = rng.randint(-3, 3)
    return [[sum(u * row[j] for u, row in zip(mix, rows)) for j in range(n)]
            for mix in random_unimodular(rng, r)]


def random_rational_vector(rng, n, max_den=6, max_num=6):
    return tuple(
        Fraction(rng.randint(-max_num, max_num), rng.randint(1, max_den)) for _ in range(n)
    )


def random_class_fixtures(seed, count):
    """(lattice, B-field, class) fixtures: rank <= 4, |gram| <= 5, den <= 6."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        rank = rng.randint(1, 4)
        gram = random_symmetric_lattice_gram(rng, rank, bound=5)
        lat = Lattice(gram)
        b = BField(lat, random_rational_vector(rng, rank, max_den=6))
        out.append((lat, b, brauer_class_of(b, lat.full_sublattice())))
    return out


def saturation_exp_b_embedding(kernel, bfield, target):
    """The exp(B) embedding certified by comparing saturations first.

    The one-way oracle for brauer.exp_b_embedding: the image and the
    target are saturated and their Hermite bases compared before the
    image is written over the target and the map verified.
    """
    ambient = kernel.ambient
    mukai = mukai_lattice(ambient)
    image_rows = []
    for row in kernel.basis:
        h4 = ambient.pair(row, bfield.coords)
        if Fraction(h4).denominator != 1:
            raise NonIntegralTwist("vector %r pairs with B to %s" % (list(row), h4))
        image_rows.append([0] + list(row) + [int(h4)])
    if not saturate(Sublattice(mukai, image_rows)).same_span(saturate(target)):
        raise CertificationError("exp(B) image does not saturate onto the target")
    coords, d = target.coordinates_of(image_rows) if image_rows else ((), 1)
    if any(c % d for row in coords for c in row):
        raise CertificationError("exp(B) image is not integral over the target basis")
    iso = IsometryMap(source=kernel, target=target, matrix=[[c // d for c in row] for row in coords])
    verify_isometry(iso)
    return iso


def _u3_block_isometries():
    """Generators of O(U^3) used by the random fixture builder."""
    gens = []
    # permute the three hyperbolic blocks
    for perm in ((1, 0, 2), (0, 2, 1)):
        m = [[0] * 6 for _ in range(6)]
        for b, target in enumerate(perm):
            m[2 * b][2 * target] = 1
            m[2 * b + 1][2 * target + 1] = 1
        gens.append(m)
    # swap e and f inside the first block
    m = [[0] * 6 for _ in range(6)]
    m[0][1] = m[1][0] = 1
    for i in range(2, 6):
        m[i][i] = 1
    gens.append(m)
    # flip the sign of the first block
    m = [[0] * 6 for _ in range(6)]
    m[0][0] = m[1][1] = -1
    for i in range(2, 6):
        m[i][i] = 1
    gens.append(m)
    return gens


def _eichler(gram, e_idx, x):
    """Transvection v -> v + (v.e) x - (v.x) e - (x.x/2)(v.e) e as rows."""
    n = len(gram)
    e = [0] * n
    e[e_idx] = 1
    half = naive_pair(gram, x, x) // 2
    rows = []
    for i in range(n):
        v = [0] * n
        v[i] = 1
        ve, vx = naive_pair(gram, v, e), naive_pair(gram, v, x)
        img = [
            v[t] + ve * x[t] - vx * e[t] - half * ve * e[t]
            for t in range(n)
        ]
        rows.append(img)
    return rows


def random_u3_isometry(rng, steps=3):
    """A random element of O(U^3) as a row-vector matrix."""
    gram = u_cubed().gram
    gens = _u3_block_isometries()
    m = [[1 if i == j else 0 for j in range(6)] for i in range(6)]
    for _ in range(steps):
        if rng.random() < 0.5:
            g = rng.choice(gens)
        else:
            # Eichler transvection along an isotropic basis vector
            e_idx = rng.choice((0, 1))
            x = [0] * 6
            for idx in range(2, 6):
                x[idx] = rng.randint(-1, 1)
            g = _eichler(gram, e_idx, x)
        m = linalg.matmul(m, g)
    return m


def random_surface_fixture(rng, max_n=4):
    """A random genuine abelian-surface model plus the map that made it.

    Starts from the order-n base model and conjugates by a random
    isometry of U^3; periods transform alongside, so the result is a
    valid Hodge structure with the same invariants.
    """
    n = rng.randint(1, max_n)
    p = random_u3_isometry(rng)
    base = base_abelian_model(n)
    lat = base.h2.lattice
    period = base.h2.period.map_by(p, lat)
    model = AbelianSurfaceModel.from_h2(hodge_lattice(lat, period))
    return model, n, p


def simple_full_rank_period(lattice):
    """A period with one fresh symbol per basis vector (T = everything).

    No products are declared beyond the identity, so isotropy is not
    checkable and the fixture is usable for arbitrary Gram matrices.
    """
    n = lattice.rank
    names = ("1",) + tuple("s%d" % (i + 1) for i in range(n))
    from kummerlat import SymbolBasis

    symbols = SymbolBasis(names)
    columns = {}
    for i in range(n):
        vec = [0] * n
        vec[i] = 1
        columns["s%d" % (i + 1)] = vec
    return period_from_columns(lattice, symbols, columns)


def reference_search(g1, g2, bound, period_data):
    """Plain backtracking isometry search: the oracle for isometry._search.

    With period_data (source and target symbol columns), it is also the
    oracle for find_hodge_isometry: every prefix must keep the period
    transportable, so the first witness is the lex-least Hodge one.

    Rows are assigned in natural order from lexicographic norm pools, and
    each candidate is checked with a naive pairing against every row
    already assigned. No forward checking, so the first complete solution
    is the row-major lexicographically least witness by construction.
    Pools come from fraction_short_vectors for definite targets and from
    a scan of the whole box for indefinite ones, so no pool comes from
    the library's own enumeration.
    """
    n = len(g1)
    if len(g2) != n or brute_det(g1) != brute_det(g2):
        return None
    definite = 0 in signature_oracle(g2)
    pools = {}
    for i in range(n):
        norm = g1[i][i]
        if norm in pools:
            continue
        if definite:
            halved = fraction_short_vectors(g2, norm)
            pools[norm] = sorted(halved + [tuple(-c for c in v) for v in halved])
        else:
            pools[norm] = box_pool(g2, norm, bound)
    rows = []

    def period_ok():
        # every source column supported on the assigned rows must map to
        # one common nonzero multiple of its target column
        src_cols, tgt_cols = period_data
        depth = len(rows)
        ratios = set()
        complete = 0
        for col, tgt in zip(src_cols, tgt_cols):
            if any(col[depth:]):
                continue
            complete += 1
            image = [sum(col[i] * rows[i][j] for i in range(depth)) for j in range(n)]
            if not any(image) and not any(tgt):
                continue
            if not any(image) or not any(tgt):
                return False
            lam = next(Fraction(a, b) for a, b in zip(image, tgt) if b)
            if [Fraction(a) for a in image] != [lam * b for b in tgt]:
                return False
            ratios.add(lam)
        if len(ratios) > 1:
            return False
        return complete < len(src_cols) or bool(ratios)

    def extend(i):
        for v in pools[g1[i][i]]:
            if any(naive_pair(g2, v, rows[j]) != g1[i][j] for j in range(i)):
                continue
            rows.append(v)
            if period_data is None or period_ok():
                if i == n - 1:
                    return tuple(rows)
                found = extend(i + 1)
                if found is not None:
                    return found
            rows.pop()
        return None

    return extend(0) if n else None


def dense_echelon(rows, kinds=None):
    """The dense Bareiss elimination that rewrites every row below a pivot.

    The oracle for linalg.echelon, which must return the same
    (a, pivots, swaps, den). With a Counter as kinds, each row rewrite
    below a pivot is counted as "same" (zero multiplier, pivot equal to
    the previous one), "scale" (zero multiplier, pivot changed) or
    "eliminate" (nonzero multiplier).
    """
    a = []
    den = 1
    for row in rows:
        if Fraction in map(type, row):
            scale = lcm(*(x.denominator for x in row))
            row = [x.numerator * (scale // x.denominator) for x in row]
            den *= scale
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
            if kinds is not None:
                kinds["eliminate" if f else "same" if piv == prev else "scale"] += 1
            a[i] = [0] * (c + 1) + [(piv * x - f * y) // prev for x, y in zip(a[i][c + 1:], top)]
        pivots.append(c)
        prev = piv
    return a, pivots, swaps, den


def dense_matmul(a, b):
    """a * b as a dense sum over every entry: the oracle for linalg.matmul."""
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def random_entry(rng, fractions):
    num = rng.choice((0, rng.randint(-9, 9)))
    return Fraction(num, rng.randint(1, 6)) if fractions and rng.random() < 0.5 else num


def random_rows(rng, m, n, fractions=False):
    """A seeded m x n matrix; about a third of them have rank below min(m, n)."""
    if m and n and rng.random() < 0.35:
        r = rng.randint(0, min(m, n) - 1)
        left = [[random_entry(rng, fractions) for _ in range(r)] for _ in range(m)]
        right = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(r)]
        return [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)] if r else [0] * n
                for row in left]
    return [[random_entry(rng, fractions) for _ in range(n)] for _ in range(m)]


def block_hyperbolic(rng):
    """A direct sum of 1-3 even binary blocks, most of them U(k)."""
    blocks = []
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.7:
            k = rng.randint(1, 5)
            blocks.append([[0, k], [k, 0]])
        else:
            b = rng.randint(-3, 3)
            blocks.append([[2 * rng.randint(-2, 2), b], [b, 2 * rng.randint(-2, 2)]])
    n = 2 * len(blocks)
    gram = [[0] * n for _ in range(n)]
    for k, block in enumerate(blocks):
        for i in range(2):
            for j in range(2):
                gram[2 * k + i][2 * k + j] = block[i][j]
    return gram


def mukai_shaped(rng):
    """H0 + H2 + H4 over a hyperbolic H2: the H0/H4 corner pairs to -1."""
    h2 = block_hyperbolic(rng)
    n = len(h2) + 2
    gram = [[0] * n for _ in range(n)]
    gram[0][-1] = gram[-1][0] = -1
    for i, row in enumerate(h2):
        gram[i + 1][1:-1] = row
    return gram


def echelon_fixture(rng, k):
    """Fixture kind k % 6 of the echelon oracle test."""
    kind = k % 6
    if kind == 0:
        return block_hyperbolic(rng)
    if kind == 1:
        return mukai_shaped(rng)
    if kind == 2:
        # zero columns, anywhere, the first one included
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        rows = random_rows(rng, m, n)
        for j in rng.sample(range(n), rng.randint(1, n)):
            for row in rows:
                row[j] = 0
        return rows
    if kind == 3:
        # rank-deficient: a thin product, its rows permuted
        m, n, r = rng.randint(2, 6), rng.randint(2, 6), rng.randint(1, 2)
        left = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(m)]
        right = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(r)]
        rows = dense_matmul(left, right)
        rng.shuffle(rows)
        return rows
    if kind == 4:
        # a wide augmented system [G | B] on a sparse Gram
        gram = rng.choice((block_hyperbolic, mukai_shaped))(rng)
        extra = rng.randint(1, len(gram) + 2)
        return [row + [rng.choice((0, 0, rng.randint(-4, 4))) for _ in range(extra)] for row in gram]
    return random_rows(rng, rng.randint(1, 6), rng.randint(1, 6), fractions=True)


def linalg_corpus():
    """300 seeded (rows, rhs) pairs for linalg_corpus_digest, of 1-8 rows and columns.

    Matrix i is, by i % 6, a random square matrix; a wide one; a tall
    one; a rank-deficient product of two thin factors, its rows shuffled;
    a Mukai-shaped Gram; or a matrix holding Fractions. About a third of
    the random ones are rank-deficient too (random_rows). rhs is a block
    of 1-3 right-hand-side columns, one row per matrix row: rows * X0 for
    a random X0, or random entries, which are mostly inconsistent.
    """
    rng = random.Random(2929)
    out = []
    for i in range(300):
        kind = i % 6
        if kind == 0:
            n = rng.randint(1, 8)
            rows = random_rows(rng, n, n)
        elif kind == 1:
            m = rng.randint(1, 7)
            rows = random_rows(rng, m, rng.randint(m + 1, 8))
        elif kind == 2:
            n = rng.randint(1, 7)
            rows = random_rows(rng, rng.randint(n + 1, 8), n)
        elif kind == 3:
            m, n, r = rng.randint(2, 8), rng.randint(2, 8), rng.randint(1, 3)
            left = [[rng.randint(-4, 4) for _ in range(r)] for _ in range(m)]
            right = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(r)]
            rows = dense_matmul(left, right)
            rng.shuffle(rows)
        elif kind == 4:
            rows = mukai_shaped(rng)
        else:
            rows = random_rows(rng, rng.randint(1, 8), rng.randint(1, 8), fractions=True)
        k = rng.randint(1, 3)
        if rng.random() < 0.5:
            x0 = [[random_entry(rng, kind == 5) for _ in range(k)] for _ in rows[0]]
            rhs = dense_matmul(rows, x0)
        else:
            rhs = [[random_entry(rng, kind == 5) for _ in range(k)] for _ in rows]
        out.append((rows, rhs))
    return out


def linalg_corpus_digest():
    """SHA-256 of the exact kernels' outputs on linalg_corpus, each in repr.

    Per matrix: echelon's (a, pivots, swaps, den); solve's (x, d), or
    None, for the first right-hand-side column alone and for the whole
    block; then, on the rows cleared of their denominators, hnf,
    right_kernel, saturation and snf_with_transforms' (diagonal, T).
    """
    h = hashlib.sha256()
    for rows, rhs in linalg_corpus():
        ncols = len(rows[0])
        ints = [linalg.clear_denominators(row)[0] if Fraction in map(type, row) else row
                for row in rows]
        for out in (
            linalg.echelon(rows),
            linalg.solve(rows, [r[0] for r in rhs]),
            linalg.solve(rows, rhs),
            linalg.hnf(ints),
            linalg.right_kernel(ints, ncols),
            linalg.saturation(ints, ncols),
            linalg.snf_with_transforms(ints),
        ):
            h.update(repr(out).encode() + b"\n")
    return h.hexdigest()


def scaled_diagonal(rng, p, scales):
    """diag(p^k u) over the given scales k, each unit u prime to p and in [-20, 20]."""
    units = [rng.choice([u for u in range(-20, 21) if u % p]) for _ in scales]
    return [[p ** k * u if i == j else 0 for j in range(len(scales))]
            for i, (k, u) in enumerate(zip(scales, units))]


def _random_scales(rng, n, top):
    """n scales in [0, top], at least one of them positive."""
    scales = [rng.randint(0, top) for _ in range(n)]
    if not any(scales):
        scales[rng.randrange(n)] = rng.randint(1, top)
    return scales


def random_congruent(rng, gram):
    """P gram P^T for a random unimodular P with small entries."""
    p = random_unimodular(rng, len(gram), shears=4, cap=3)
    return linalg.matmul(linalg.matmul(p, gram), linalg.transpose(p))


def genus_corpus():
    """(lattices, pairs): 500 seeded lattices of rank 1-6 and 300 seeded pairs.

    Lattice i is, by i % 4, a random Gram; a conjugated diag(p^k u) at an
    odd p <= 13 with scales up to p^4 (non-cyclic p-parts); the same at
    p = 2 with scales up to 2^6, so that A_2 crosses the profile cap; or
    a random Gram scaled by 1, 2, 3 or 6. Pair j is, by j % 3, a lattice
    and a conjugate of it; two diagonal forms with one list of scales at
    one prime and their own units; or two corpus lattices of one rank.
    """
    rng = random.Random(2707)
    grams = []
    for i in range(500):
        n = rng.randint(1, 6)
        kind = i % 4
        if kind == 0:
            gram = random_symmetric_lattice_gram(rng, n, bound=6)
        elif kind == 1:
            p = rng.choice((3, 5, 7, 11, 13))
            gram = random_congruent(rng, scaled_diagonal(rng, p, _random_scales(rng, n, 4)))
        elif kind == 2:
            gram = random_congruent(rng, scaled_diagonal(rng, 2, _random_scales(rng, n, 6)))
        else:
            scale = rng.choice((1, 2, 3, 6))
            gram = [[scale * x for x in row] for row in random_symmetric_lattice_gram(rng, n, bound=4)]
        grams.append(gram)
    lattices = [Lattice(g) for g in grams]
    by_rank = {}
    for lat in lattices:
        by_rank.setdefault(lat.rank, []).append(lat)
    pairs = []
    for j in range(300):
        if j % 3 == 0:
            lat = rng.choice(lattices)
            pairs.append((lat, Lattice(random_congruent(rng, lat.gram))))
        elif j % 3 == 1:
            p = rng.choice((3, 5, 7))
            scales = _random_scales(rng, rng.randint(1, 4), 3)
            first, second = (scaled_diagonal(rng, p, scales) for _ in range(2))
            pairs.append((Lattice(first), Lattice(random_congruent(rng, second))))
        else:
            group = by_rank[rng.randint(1, 6)]
            pairs.append((rng.choice(group), rng.choice(group)))
    return lattices, pairs


def genus_corpus_digest():
    """SHA-256 of the genus records of genus_corpus's lattices and its pairs' genus_equal verdicts.

    A record is (rank, signature, divisors, modulus, odd_symbols, profile),
    every invariant read, in repr.
    """
    lattices, pairs = genus_corpus()
    h = hashlib.sha256()
    for lat in lattices:
        g = genus_of(lat)
        d = g.disc
        record = (g.rank, g.signature, d.elementary_divisors, d.modulus, d.odd_symbols, d.profile)
        h.update(repr(record).encode() + b"\n")
    for a, b in pairs:
        h.update(genus_equal(a, b).encode() + b"\n")
    return h.hexdigest()


def _small_definite_gram(rng, n):
    """m m^T for a random nonsingular m, entries in [-2, 2] (in [-1, 1] from rank 5)."""
    top = 2 if n < 5 else 1
    while True:
        m = [[rng.randint(-top, top) for _ in range(n)] for _ in range(n)]
        if brute_det(m) != 0:
            return linalg.matmul(m, linalg.transpose(m))


def _genus_twin_pair(rng, definite, rank):
    """Grams <s> + <s d> + M and its twin s [[2, 1], [1, (d + 1)/2]] + s M, in random order.

    d = 1 mod 4 with 3 or 5 dividing d, so the two lie in distinct genera
    of equal rank, signature, parity, |det| and discriminant group (as
    in the classify benchmark), and M is a diagonal block of units, with
    one negative unit for an indefinite pair.
    """
    scale = rng.choice((1, 2))
    d = rng.choice((5, 9, 21, 25, 33, 45) if definite else (5, 9, 21, 25, 33, 45, 57, 65))
    units = [rng.choice((1, 2)) for _ in range(rank - 2)]
    if not definite:
        units[rng.randrange(rank - 2)] *= -1
    cores = [[[1, 0], [0, d]], [[2, 1], [1, (d + 1) // 2]]]
    rng.shuffle(cores)
    grams = []
    for core in cores:
        gram = [[scale * u if i == j else 0 for j in range(rank)] for i, u in enumerate([0, 0] + units)]
        gram[0][:2], gram[1][:2] = ([scale * x for x in row] for row in core)
        grams.append(gram)
    return grams


def witness_corpus():
    """300 seeded (gram1, gram2, bound) triples of rank 1-6 at bounds 1-3.

    Triple j is, by j % 5, a definite Gram and a unimodular conjugate of
    it; a random Gram (indefinite from rank 2, mostly) and a conjugate;
    a classify-like block form <s> + <s d> + M and a conjugate of it or
    of its twin from another genus of one determinant, definite or
    indefinite (rank 3-6); or two random Grams of one rank, definite
    or not. Indefinite targets of rank 5 and 6 take bounds 1-2, so
    that the box stays small.
    """
    rng = random.Random(2808)
    out = []
    for j in range(300):
        kind = j % 5
        n = rng.randint(1, 6) if kind < 2 or kind == 4 else rng.randint(3, 6)
        if kind == 0:
            g1 = _small_definite_gram(rng, n)
            g2 = random_congruent(rng, g1)
        elif kind == 1:
            g1 = random_symmetric_lattice_gram(rng, n, bound=3)
            g2 = random_congruent(rng, g1)
        elif kind in (2, 3):
            first, twin = _genus_twin_pair(rng, kind == 2, n)
            g1, g2 = first, random_congruent(rng, first if rng.random() < 0.5 else twin)
        else:
            make = _small_definite_gram if rng.random() < 0.5 else random_symmetric_lattice_gram
            g1, g2 = make(rng, n), make(rng, n)
        definite = _definite_sign(g2) != 0
        bound = rng.randint(1, 3 if definite or n < 5 else 2)
        out.append((g1, g2, bound))
    return out


def witness_corpus_digest():
    """SHA-256 of find_isometry's witness and the norm pools on witness_corpus.

    Per triple, in repr: the witness matrix (or None) of find_isometry
    at the triple's bound, then the _norm_pools result for the target
    Gram at the source's diagonal norms and 0, the pools _search starts
    from plus an isotropic one.
    """
    h = hashlib.sha256()
    for g1, g2, bound in witness_corpus():
        iso = find_isometry(Lattice(g1), Lattice(g2), bound)
        h.update(repr(None if iso is None else iso.matrix).encode() + b"\n")
        norms = [row[i] for i, row in enumerate(g1)] + [0]
        h.update(repr(_norm_pools(g2, norms, bound, _definite_sign(g2))).encode() + b"\n")
    return h.hexdigest()
