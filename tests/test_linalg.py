import copy
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from sympy import Matrix, ZZ
from sympy.matrices.normalforms import hermite_normal_form, smith_normal_form

from kummerlat import linalg
from util import (
    assert_smith_columns,
    brute_det,
    dense_echelon,
    dense_matmul,
    echelon_fixture,
    frac_mod,
    fraction_solve,
    fractions_built,
    invert,
    linalg_corpus_digest,
    mukai_shaped,
    naive_pair,
    random_entry,
    random_rational_vector,
    random_rows,
    random_unimodular,
    smith_left_transform,
    two_kernel_saturation,
)

small_matrix = st.integers(1, 4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-6, 6), min_size=n, max_size=n), min_size=1, max_size=n + 2
    )
)


def is_echelon(h):
    last = -1
    for row in h:
        piv = next((j for j, x in enumerate(row) if x != 0), None)
        assert piv is not None
        assert piv > last
        last = piv
    return True


def test_xgcd_basics():
    for a, b in [(12, 18), (-12, 18), (0, 5), (5, 0), (-7, -3), (1, 1)]:
        g, x, y = linalg.xgcd(a, b)
        assert g >= 0
        assert x * a + y * b == g
        if a or b:
            assert a % g == 0 and b % g == 0


def test_det_against_brute_force():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(1, 4)
        m = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        assert linalg.det(m) == brute_det(m)


def test_pair_with_against_double_sum():
    rng = random.Random(23)
    for _ in range(300):
        n = rng.randint(1, 6)
        gram = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        ints = [tuple(rng.choice((0, rng.randint(-4, 4))) for _ in range(n)) for _ in range(2)]
        fracs = [random_rational_vector(rng, n) for _ in range(2)]
        for v, w in ((ints[0], ints[1]), (fracs[0], fracs[1]),
                     (fracs[0], ints[1]), (ints[0], fracs[1])):
            got = linalg.pair_with(gram, v, w)
            assert got == naive_pair(gram, v, w)
            expect_type = Fraction if Fraction in map(type, v + w) else int
            assert type(got) is expect_type
    # integral Fractions still give a Fraction
    assert type(linalg.pair_with([[1]], (Fraction(2),), (3,))) is Fraction


def test_vec_times_mat_against_fraction_sum(monkeypatch):
    rng = random.Random(29)
    cleared = []
    original = linalg.clear_denominators

    def counting(v):
        cleared.append(v)
        return original(v)

    monkeypatch.setattr(linalg, "clear_denominators", counting)
    for _ in range(300):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        mat = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)]
        ints = tuple(rng.choice((0, rng.randint(-4, 4))) for _ in range(m))
        fracs = random_rational_vector(rng, m)
        for v in (ints, fracs):
            del cleared[:]
            got = linalg.vec_times_mat(v, mat)
            assert got == [sum((Fraction(x) * mat[i][j] for i, x in enumerate(v)), Fraction(0))
                           for j in range(n)]
            expect_type = Fraction if Fraction in map(type, v) else int
            assert all(type(x) is expect_type for x in got)
            # a Fraction vector is scaled once, an integer one not at all
            assert len(cleared) == (expect_type is Fraction)
    # integral Fractions still give Fractions, and a rational matrix is accepted
    assert linalg.vec_times_mat((Fraction(2), 0), [[1], [1]]) == [Fraction(2)]
    assert type(linalg.vec_times_mat((Fraction(2), 0), [[1], [1]])[0]) is Fraction
    assert linalg.vec_times_mat((Fraction(1, 2), 1), [[Fraction(2, 3)], [1]]) == [Fraction(4, 3)]


def test_det_rational_entries():
    m = [[Fraction(1, 2), 1], [1, Fraction(1, 3)]]
    assert linalg.det(m) == Fraction(1, 6) - 1


@settings(max_examples=80)
@given(small_matrix)
def test_hnf_transform_and_shape(rows):
    # the blocks of hnf([A | I]): H in Hermite form with its zero rows at
    # the bottom, and U unimodular with U A = H
    n = len(rows[0])
    full = linalg.hnf([list(row) + e for row, e in zip(rows, linalg.identity(len(rows)))])
    h, u = [row[:n] for row in full], [row[n:] for row in full]
    assert abs(linalg.det(u)) == 1
    assert linalg.mat_eq(linalg.matmul(u, rows), h)
    nonzero = [r for r in h if not linalg.is_zero_row(r)]
    zero_tail = h[len(nonzero):]
    assert all(linalg.is_zero_row(r) for r in zero_tail)
    is_echelon(nonzero)
    # pivots positive, entries above reduced
    for i, row in enumerate(nonzero):
        piv = next(j for j, x in enumerate(row) if x)
        assert row[piv] > 0
        for k in range(i):
            assert 0 <= nonzero[k][piv] < row[piv]


def test_hnf_against_sympy():
    rng = random.Random(19)
    for _ in range(150):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        rows = [[rng.choice((0, rng.randint(-9, 9))) for _ in range(n)] for _ in range(m)]
        h = linalg.hnf(rows)
        # row-style shape: echelon, positive pivots, reduced above pivots
        pivots = [next(j for j, x in enumerate(row) if x) for row in h]
        assert pivots == sorted(set(pivots))
        for i, (row, p) in enumerate(zip(h, pivots)):
            assert row[p] > 0
            assert all(0 <= h[k][p] < row[p] for k in range(i))
        # sympy's column-style HNF is canonical for the column lattice, so
        # equal forms of the transposes mean equal row lattices
        ref = hermite_normal_form(Matrix(rows).T)
        if h:
            assert hermite_normal_form(Matrix(h).T) == ref
        else:
            assert ref.cols == 0


@settings(max_examples=60)
@given(small_matrix)
def test_hnf_is_row_space_canonical(rows):
    rng = random.Random(13)
    u = random_unimodular(rng, len(rows))
    assert linalg.hnf(linalg.matmul(u, rows)) == linalg.hnf(rows)


@settings(max_examples=80)
@given(small_matrix)
def test_snf_transforms(rows):
    diag, t = linalg.snf_with_transforms(rows)
    assert abs(linalg.det(t)) == 1
    m, n = len(rows), len(rows[0])
    assert len(diag) == min(m, n)
    assert_smith_columns(rows, diag, t)
    if m == n and brute_det(rows):
        smith_left_transform(rows, diag, t)
    assert all(x >= 0 for x in diag)
    for a, b in zip(diag, diag[1:]):
        if a and b:
            assert b % a == 0
        if a == 0:
            assert b == 0


def test_snf_terminates_without_coefficient_growth():
    # the row sweep must clear the pivot column before the column sweep,
    # or the pivot row of this Gram matrix grows to millions of bits
    gram = [
        [36, -23, 0, 0, 22, -13],
        [-23, 23, 0, 0, -16, 13],
        [0, 0, 3, 3, 0, 0],
        [0, 0, 3, 5, 0, 0],
        [22, -16, 0, 0, 20, -11],
        [-13, 13, 0, 0, -11, 8],
    ]
    diag, t = linalg.snf_with_transforms(gram)
    assert diag == [1, 1, 1, 3, 3, 30]
    s = smith_left_transform(gram, diag, t)
    assert abs(linalg.det(s)) == 1 and abs(linalg.det(t)) == 1


def test_snf_against_sympy():
    rng = random.Random(17)
    for _ in range(150):
        n = rng.randint(2, 6)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.5:
            rows = [[rows[i][j] + rows[j][i] for j in range(n)] for i in range(n)]
        diag, t = linalg.snf_with_transforms(rows)
        ref = smith_normal_form(Matrix(rows), domain=ZZ)
        assert diag == [abs(int(ref[i, i])) for i in range(n)]
        if brute_det(rows):
            smith_left_transform(rows, diag, t)
        else:
            assert_smith_columns(rows, diag, t)


@settings(max_examples=60)
@given(small_matrix)
def test_right_kernel_is_complete_and_saturated(rows):
    ncols = len(rows[0])
    ker = linalg.right_kernel(rows, ncols)
    for k in ker:
        for r in rows:
            assert sum(x * y for x, y in zip(k, r)) == 0
    assert len(ker) == ncols - linalg.rank(rows)
    # saturated: the kernel equals its own saturation
    assert linalg.saturation(ker, ncols) == ker


def test_right_kernel_empty_input():
    assert linalg.right_kernel([], 3) == linalg.identity(3)
    assert linalg.right_kernel([[0, 0]], 2) == linalg.identity(2)


def test_hnf_carries_no_transform():
    assert linalg.hnf([[2, 4, 6], [0, 3, 3], [4, 8, 12]]) == [[2, 1, 3], [0, 3, 3]]


def test_right_kernel_is_one_reduction(monkeypatch):
    calls = []
    real = linalg.hnf

    def counting(rows):
        calls.append(len(rows))
        return real(rows)

    # one reduction: a single hnf of the augmented ncols-row matrix
    monkeypatch.setattr(linalg, "hnf", counting)
    rng = random.Random(29)
    for _ in range(20):
        ncols = rng.randint(1, 6)
        rows = [[rng.randint(-4, 4) for _ in range(ncols)] for _ in range(rng.randint(0, 5))]
        del calls[:]
        ker = linalg.right_kernel(rows, ncols)
        assert calls == [ncols]
        assert all(sum(x * y for x, y in zip(k, r)) == 0 for k in ker for r in rows)


def test_saturation_examples():
    assert linalg.saturation([[2, 0]], 2) == [[1, 0]]
    assert linalg.saturation([[2, 2]], 2) == [[1, 1]]
    assert linalg.saturation([[1, 0], [0, 1]], 2) == [[1, 0], [0, 1]]
    assert linalg.saturation([], 4) == []


@settings(max_examples=60)
@given(small_matrix)
def test_saturation_contains_rows_with_trivial_quotient(rows):
    ncols = len(rows[0])
    sat = linalg.saturation(rows, ncols)
    assert len(sat) == linalg.rank(rows)
    # every original row lies in the saturation's integer span
    for r in rows:
        solved = linalg.solve(linalg.transpose(sat), r) if sat else None
        if sat:
            assert solved is not None
            x, d = solved
            assert all(c % d == 0 for c in x)
        else:
            assert linalg.is_zero_row(r)
    # and the saturation has no further index to give
    diag, _ = linalg.snf_with_transforms(sat)
    assert diag == [1] * len(sat)


def test_saturation_matches_two_kernel_oracle():
    # 0-9 rows, 1-8 columns; some inputs gain a combination of their rows,
    # a common factor or a zero row
    rng = random.Random(15)
    for _ in range(1500):
        ncols = rng.randint(1, 8)
        rows = [[rng.randint(-5, 5) for _ in range(ncols)] for _ in range(rng.randint(0, 9))]
        if rows and rng.random() < 0.3:
            rows.append([sum(rng.randint(-2, 2) * r[j] for r in rows) for j in range(ncols)])
        if rng.random() < 0.3:
            k = rng.randint(2, 6)
            rows = [[k * x for x in r] for r in rows]
        if rng.random() < 0.2:
            rows.insert(rng.randint(0, len(rows)), [0] * ncols)
        assert linalg.saturation(rows, ncols) == two_kernel_saturation(rows, ncols)


def test_saturation_of_scaled_rank_deficient_rows():
    # 2 * (1, 2, 3) and 4 * (1, 2, 3) span the line of the primitive (1, 2, 3)
    assert linalg.saturation([[2, 4, 6], [0, 0, 0], [4, 8, 12]], 3) == [[1, 2, 3]]
    assert linalg.saturation([[0, 0]], 2) == []


def test_scalar_ratio_rejects_shape_mismatch():
    assert linalg.scalar_ratio([[2, 4]], [[1, 2]]) == 2
    for a, b in [([[2, 4]], [[1, 2, 3]]), ([[2, 4], [1, 1]], [[1, 2]]), ([[2]], [])]:
        with pytest.raises(ValueError):
            linalg.scalar_ratio(a, b)
        with pytest.raises(ValueError):
            linalg.scalar_ratio(b, a)


def _fraction_ratio(a, b):
    """scalar_ratio's oracle: the one ratio x / y over the pairs with y != 0."""
    ratios = set()
    for row_a, row_b in zip(a, b):
        for x, y in zip(row_a, row_b):
            if y:
                ratios.add(Fraction(x) / y)
            elif x:
                return None
    return ratios.pop() if len(ratios) == 1 and 0 not in ratios else None


def test_scalar_ratio_against_fraction_oracle(monkeypatch):
    # lam * b, with one entry moved, a zero entry set against a nonzero
    # one, or lam = 0, over ints and Fractions; an integer pair builds the
    # one Fraction of its first nonzero pair and no other
    rng = random.Random(139)
    found = Counter()
    for k in range(300):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        fractions = k % 2 == 1
        b = [[random_entry(rng, fractions) for _ in range(n)] for _ in range(m)]
        p, q = rng.randint(-6, 6), rng.randint(1, 6)
        if fractions:
            a = [[Fraction(p, q) * y for y in row] for row in b]
        else:
            a, b = [[p * y for y in row] for row in b], [[q * y for y in row] for row in b]
        i, j = rng.randrange(m), rng.randrange(n)
        move = rng.random()
        if move < 0.2:
            a[i][j] += 1
        elif move < 0.3:
            a[i][j], b[i][j] = rng.choice(((1, 0), (0, 1)))
        want = _fraction_ratio(a, b)
        assert linalg.scalar_ratio(a, b) == want
        found[want is not None, fractions] += 1
        if want is not None and not fractions:
            assert fractions_built(monkeypatch, lambda: linalg.scalar_ratio(a, b)) == 1
    assert min(found.values()) >= 40


def test_matmul_over_ints_and_fractions():
    a = [[1, 2], [3, 4], [5, 6]]
    b = [[Fraction(1, 2), -1, 0], [2, Fraction(1, 3), 1]]
    h = Fraction(1, 2)
    assert linalg.matmul(a, b) == [[9 * h, Fraction(-1, 3), 2], [19 * h, Fraction(-5, 3), 4], [29 * h, -3, 6]]
    product = linalg.matmul(a, [[1, 0], [0, 1]])
    assert product == a and all(type(x) is int for row in product for x in row)
    assert linalg.matmul([], [[1]]) == []


def test_solve_and_invert_roundtrip():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(1, 4)
        m = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        if brute_det(m) == 0:
            continue
        b = [rng.randint(-7, 7) for _ in range(n)]
        x, d = linalg.solve(m, b)
        for i in range(n):
            assert sum(m[i][j] * x[j] for j in range(n)) == d * b[i]
        inv, d = linalg.solve(m, linalg.identity(n))
        assert linalg.mat_eq(linalg.matmul(m, inv), [[d * x for x in row] for row in linalg.identity(n)])
        inv = invert(m)
        assert linalg.mat_eq(linalg.matmul(m, inv), linalg.identity(n))


def test_solve_inconsistent_and_underdetermined():
    assert linalg.solve([[1, 1], [1, 1]], [0, 1]) is None
    x = linalg.solve([[1, 1]], [3])
    assert x == ([3, 0], 1)  # free variable pinned to zero


def test_solve_rejects_right_hand_sides_of_the_wrong_length():
    identity = [[1, 0], [0, 1]]
    assert linalg.solve(identity, [1, 2]) == ([1, 2], 1)
    for b in ([1], [1, 2, 3], [], [[1], [2], [3]], [[1, 2], [3]], [[1, 2], [3, 4, 5]]):
        with pytest.raises(ValueError):
            linalg.solve(identity, b)
    with pytest.raises(ValueError):
        linalg.solve([], [1])
    assert linalg.solve([], []) == ([], 1)


def _random_system(rng, kind, several):
    """(A, B) of one kind: full column rank, rank-deficient or inconsistent.

    B is a vector when several is False, else a matrix of 2-4 columns.
    Full-rank and rank-deficient systems are consistent by construction
    (B = A X for a rational X); inconsistent ones get a right-hand side
    column outside the column space of a rank-deficient A.
    """
    n = rng.randint(1, 5)
    if kind == "full":
        m = rng.randint(n, 6)
        while True:
            a = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
            if linalg.rank(a) == n:
                break
    else:
        m = rng.randint(2, 6)
        r = rng.randint(0, min(m, n) - 1)
        left = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(m)]
        right = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(r)]
        a = [[sum(x * y for x, y in zip(row, col)) for col in zip(*right)] if r else [0] * n
             for row in left]
    k = rng.randint(2, 4) if several else 1
    x = [[Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(k)] for _ in range(n)]
    b = [[sum(row[i] * x[i][j] for i in range(n)) for j in range(k)] for row in a]
    if kind == "inconsistent":
        while fraction_solve(a, b) is not None:
            j = rng.randrange(k)
            for row in b:
                row[j] += rng.randint(-3, 3)
    return a, (b if several else [row[0] for row in b])


def test_solve_against_fraction_oracle():
    rng = random.Random(2203)
    seen = set()
    for case in range(300):
        kind = ("full", "deficient", "inconsistent")[case % 3]
        several = case % 2 == 1
        a, b = _random_system(rng, kind, several)
        b_rows = b if several else [[x] for x in b]
        expected = fraction_solve(a, b_rows)
        got = linalg.solve(a, b)
        seen.add((kind, several, got is None))
        if expected is None:
            assert got is None
            continue
        x, d = got
        assert type(d) is int and d != 0
        x_rows = x if several else [[v] for v in x]
        assert all(type(v) is int for row in x_rows for v in row)
        assert linalg.matmul(a, x_rows) == [[d * v for v in row] for row in b_rows]
        assert [[Fraction(v, d) for v in row] for row in x_rows] == expected
    assert seen == {(kind, several, kind == "inconsistent")
                    for kind in ("full", "deficient", "inconsistent") for several in (False, True)}


def test_invert_unimodular_rejects_index():
    with pytest.raises(ValueError):
        linalg.invert_unimodular([[2, 0], [0, 1]])
    assert linalg.invert_unimodular([[1, 1], [0, 1]]) == [[1, -1], [0, 1]]


def _sympy_value(x):
    """An int or Fraction from a sympy rational."""
    return int(x) if x.q == 1 else Fraction(int(x.p), int(x.q))


def _matrix(rows, m, n):
    return Matrix(m, n, [x for row in rows for x in row])


class TestEliminationAgainstSympy:
    """det, rank and solve (one and several right-hand sides) against sympy, on
    seeded matrices of size 0-6; the Fraction invert oracle alongside."""

    CASES = 200

    def cases(self, seed, square):
        rng = random.Random(seed)
        for k in range(self.CASES):
            m = rng.randint(0, 6)
            n = m if square else rng.randint(1, 6)
            yield rng, m, n, random_rows(rng, m, n, fractions=k % 3 == 2)

    def test_det(self):
        for _, n, _, rows in self.cases(101, True):
            got = linalg.det(rows)
            assert got == _sympy_value(_matrix(rows, n, n).det())
            if all(type(x) is int for row in rows for x in row):
                assert type(got) is int

    def test_rank(self):
        for _, m, n, rows in self.cases(103, False):
            assert linalg.rank(rows) == _matrix(rows, m, n).rank()

    def test_invert(self):
        singular = 0
        for _, n, _, rows in self.cases(107, True):
            ref = _matrix(rows, n, n)
            if ref.det() == 0:
                singular += 1
                with pytest.raises(ZeroDivisionError):
                    invert(rows)
                assert linalg.solve(rows, linalg.identity(n)) is None
                continue
            inv = ref.inv()
            expected = [[_sympy_value(inv[i, j]) for j in range(n)] for i in range(n)]
            got = invert(rows)
            assert got == expected
            assert all(type(x) is Fraction for row in got for x in row)
            x, d = linalg.solve(rows, linalg.identity(n))
            assert [[Fraction(v, d) for v in row] for row in x] == expected
            assert all(type(v) is int for row in x for v in row) and type(d) is int
            if abs(ref.det()) == 1 and all(type(x) is int for row in rows for x in row):
                assert linalg.invert_unimodular(rows) == expected
        assert singular > 10

    def test_solve_free_variables_zero(self):
        inconsistent = underdetermined = 0
        for rng, m, n, rows in self.cases(109, False):
            if m == 0:
                continue
            a = _matrix(rows, m, n)
            if rng.random() < 0.5:
                x0 = [random_entry(rng, True) for _ in range(n)]
                b = [sum(r * x for r, x in zip(row, x0)) for row in rows]
            else:
                b = [random_entry(rng, True) for _ in range(m)]
            got = linalg.solve(rows, b)
            try:
                sol, params = a.gauss_jordan_solve(Matrix(b))
            except ValueError:
                inconsistent += 1
                assert got is None
                continue
            underdetermined += bool(params)
            sol = sol.subs({t: 0 for t in params})
            x, d = got
            assert [Fraction(v, d) for v in x] == [_sympy_value(sol[j]) for j in range(n)]
            assert all(type(v) is int for v in x) and type(d) is int
        assert inconsistent > 10 and underdetermined > 10


def test_echelon_rows_are_minors():
    # with no swap, entry (k, j) is the minor on rows 0..k and columns
    # pivots[:k] + [j]; rows past the rank are zero
    rng = random.Random(113)
    checked = 0
    for _ in range(120):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        rows = random_rows(rng, m, n)
        a, pivots, swaps, den = linalg.echelon(rows)
        assert den == 1 and len(pivots) == _matrix(rows, m, n).rank()
        assert all(not any(row) for row in a[len(pivots):])
        if swaps:
            continue
        checked += 1
        for k, p in enumerate(pivots):
            assert not any(a[k][:p])
            for j in range(p, n):
                cols = pivots[:k] + [j]
                minor = Matrix([[rows[i][c] for c in cols] for i in range(k + 1)]).det()
                assert a[k][j] == minor
    assert checked > 40


def test_echelon_against_dense_oracle():
    # the zero-skipping elimination returns exactly the dense one's
    # (a, pivots, swaps, den) on every fixture, and all three kinds of
    # row below a pivot are met
    rng = random.Random(131)
    kinds = Counter()
    for k in range(300):
        rows = echelon_fixture(rng, k)
        if rng.random() < 0.3:
            rows = [tuple(row) for row in rows]
        got = linalg.echelon(rows)
        assert got == dense_echelon(rows, kinds)
        assert all(type(x) is int for row in got[0] for x in row)
    assert kinds["same"] and kinds["scale"] and kinds["eliminate"]
    assert linalg.echelon([]) == dense_echelon([]) == ([], [], 0, 1)


def test_matmul_against_dense_oracle():
    # identical ints (values and types) for integer input, equal values
    # for Fractions; empty factors and all-zero rows give zeros
    rng = random.Random(137)
    for k in range(300):
        m, n, p = rng.randint(0, 5), rng.randint(0, 5), rng.randint(0, 5)
        fractions = k % 3 == 2
        a = [[random_entry(rng, fractions) for _ in range(n)] for _ in range(m)]
        b = [[random_entry(rng, fractions) for _ in range(p)] for _ in range(n)]
        if m and rng.random() < 0.3:
            a[rng.randrange(m)] = [0] * n
        got, want = linalg.matmul(a, b), dense_matmul(a, b)
        assert got == want
        if not fractions:
            assert [[type(x) for x in row] for row in got] == [[type(x) for x in row] for row in want]
    assert linalg.matmul([], [[1, 2]]) == []
    assert linalg.matmul([[], []], []) == [[], []]
    zero = linalg.matmul([[0, 0], [1, 0]], [[5, 6], [7, 8]])
    assert zero == [[0, 0], [5, 6]] and all(type(x) is int for row in zero for x in row)
    assert linalg.matmul([[1, 0]], [[0, 0], [3, 4]]) == [[0, 0]]


def _row_lists(out):
    """Every list inside a kernel's output, at any depth."""
    if isinstance(out, list):
        yield out
    if isinstance(out, (list, tuple)):
        for x in out:
            yield from _row_lists(x)


def test_no_kernel_modifies_its_input():
    # every kernel updates rows in place, so each must work on its own
    # copy: after each call the input equals its deep copy, and no list
    # returned is one of the input's rows
    rng = random.Random(149)
    calls = Counter()
    for k in range(240):
        kind = k % 3
        if kind == 0:
            rows = echelon_fixture(rng, k // 3)
        elif kind == 1:
            rows = random_rows(rng, rng.randint(1, 6), rng.randint(1, 6), fractions=k % 2 == 0)
        else:
            rows = mukai_shaped(rng)
        m, n = len(rows), len(rows[0])
        integral = all(type(x) is int for row in rows for x in row)
        b = [[random_entry(rng, not integral) for _ in range(rng.randint(1, 3))] for _ in range(m)]
        cases = [
            (linalg.echelon, rows),
            (linalg.rank, rows),
            (linalg.solve, rows, [r[0] for r in b]),
            (linalg.solve, rows, b),
            (linalg.matmul, rows, [[random_entry(rng, False) for _ in range(3)] for _ in range(n)]),
            (linalg.matmul, b, [[random_entry(rng, True) for _ in range(2)] for _ in b[0]]),
        ]
        if m == n:
            cases += [(linalg.det, rows), (linalg.invert_unimodular, random_unimodular(rng, n))]
            if integral:
                cases += [(linalg.det_and_inertia, rows), (linalg.invert_unimodular, rows)]
        if integral:
            cases += [
                (linalg.hnf, rows),
                (linalg.right_kernel, rows, n),
                (linalg.saturation, rows, n),
                (linalg.snf_with_transforms, rows),
            ]
        for kernel, *args in cases:
            before = copy.deepcopy(args)
            try:
                out = kernel(*args)
            except (ZeroDivisionError, ValueError):
                out = None
            assert args == before, kernel.__name__
            inputs = {id(row) for arg in args if isinstance(arg, list) for row in arg}
            assert not any(id(row) in inputs for row in _row_lists(out)), kernel.__name__
            calls[kernel.__name__] += 1
    assert min(calls.values()) >= 30 and len(calls) == 11


# util.linalg_corpus_digest at the commit before the kernels updated their
# rows in place.
LINALG_CORPUS_SHA256 = "e35cc1213bb05d71634b950032388f700c8dc617a73c3258cbf83ce08f6f45aa"


class TestLinalgCorpus:
    def test_digest(self):
        # echelon, solve, hnf, right_kernel, saturation and Smith outputs
        # of a seeded corpus, pinned byte for byte; util.linalg_corpus
        # describes it
        assert linalg_corpus_digest() == LINALG_CORPUS_SHA256


def test_frac_mod():
    assert frac_mod(Fraction(7, 2), 1) == Fraction(1, 2)
    assert frac_mod(Fraction(-1, 3), 1) == Fraction(2, 3)
    assert frac_mod(Fraction(7, 2), 2) == Fraction(3, 2)
    assert frac_mod(Fraction(-5, 2), 2) == Fraction(3, 2)
