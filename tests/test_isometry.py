import random
import time
from dataclasses import replace
from fractions import Fraction
from itertools import product
from math import gcd

import pytest

from kummerlat import (
    DIFFER,
    MATCH_OR_UNKNOWN,
    CertificationError,
    IsometryMap,
    Lattice,
    LatticeError,
    PeriodVector,
    Sublattice,
    direct_sum,
    discriminant_form,
    find_hodge_isometry,
    find_isometry,
    genus_equal,
    hodge_lattice,
    make_standard,
    period_from_columns,
    restrict_period,
    short_vectors,
    SymbolBasis,
    transcendental_lattice,
    verify_isometry,
)
from kummerlat import linalg
from kummerlat.construction import base_abelian_model, quotient_surface_hodge
from kummerlat import isometry
from kummerlat.isometry import _definite_sign, _norm_pools, _row_domains, _search
from kummerlat.linalg import scalar_ratio
from util import (
    box_pool,
    fraction_short_vectors,
    naive_pair,
    random_symmetric_lattice_gram,
    random_unimodular,
    reference_search,
    signature_oracle,
    witness_corpus_digest,
)

U = make_standard("U")


class TestGenusEqual:
    def test_u_vs_scaled(self):
        assert genus_equal(U, make_standard("U_n", 2)) == DIFFER

    def test_congruent_lattices_match(self):
        rng = random.Random(31)
        for _ in range(20):
            n = rng.randint(1, 4)
            gram = random_symmetric_lattice_gram(rng, n)
            p = random_unimodular(rng, n)
            conj = linalg.matmul(linalg.matmul(p, gram), linalg.transpose(p))
            l1 = Lattice(gram)
            l2 = Lattice(conj)
            assert genus_equal(l1, l2) == MATCH_OR_UNKNOWN

    def test_twisted_sum_refutations(self):
        uu = direct_sum(U, U)
        for n in (2, 3, 4):
            twisted = direct_sum(U, make_standard("U_n", n))
            assert genus_equal(twisted, uu) == DIFFER

    def test_nonresidue_pair_above_profile_cap(self):
        # <1>+<d>+M and [[2,1],[1,(d+1)/2]]+M share rank, signature, parity
        # and discriminant group; at a prime p | d with (2/p) = -1 and p not
        # dividing det M their Jordan units differ by the non-square 2.
        # Every |A| here is above the old whole-group profile cap.
        rng = random.Random(233)
        for d, block, scale in ((21189, [[-1]], 1), (22933, [[0, 1], [1, 0]], 1),
                                (9005, [[-3]], 1), (10013, [[2, 1], [1, 2]], 2),
                                (24045, [[-1]], 2), (1317, [[0, 1], [1, 0]], 2)):
            twins = [
                direct_sum(Lattice(core), Lattice(block)).twist(scale)
                for core in ([[1, 0], [0, d]], [[2, 1], [1, (d + 1) // 2]])
            ]
            assert abs(twins[0].det) > 20000
            assert genus_equal(twins[0], twins[1]) == DIFFER
            for lat in twins:
                p = random_unimodular(rng, lat.rank, shears=4, cap=3)
                conj = linalg.matmul(linalg.matmul(p, lat.gram), linalg.transpose(p))
                assert genus_equal(lat, Lattice(conj)) == MATCH_OR_UNKNOWN

    def test_primes_above_trial_bound_are_skipped(self):
        # d = 1013 * 1021: both primes lie above the trial-division bound,
        # so no symbol separates this nonresidue pair, and the check is fast
        d = 1013 * 1021
        l1 = Lattice([[1, 0], [0, d]])
        l2 = Lattice([[2, 1], [1, (d + 1) // 2]])
        start = time.perf_counter()
        assert genus_equal(l1, l2) == MATCH_OR_UNKNOWN
        assert time.perf_counter() - start < 1
        assert discriminant_form(l1).odd_symbols == ()


class TestShortVectors:
    def brute(self, gram, norm):
        n = len(gram)
        box = abs(norm) + 1
        out = []
        for v in product(range(-box, box + 1), repeat=n):
            if not any(v):
                continue
            if naive_pair(gram, v, v) == norm:
                first = next(c for c in v if c)
                if first > 0:
                    out.append(v)
        return sorted(out)

    def test_against_brute_force(self):
        cases = [
            ([[2]], 2),
            ([[2]], 8),
            ([[2]], 3),
            ([[1, 0], [0, 1]], 1),
            ([[1, 0], [0, 1]], 2),
            ([[2, 1], [1, 2]], 2),
            ([[2, 1], [1, 2]], 6),
            ([[-2, -1], [-1, -2]], -2),
            ([[2, 0, 0], [0, 4, 1], [0, 1, 4]], 4),
            ([[9, 6, 1], [6, 12, -2], [1, -2, 3]], 3),
            ([[6, 6, -5], [6, 9, -4], [-5, -4, 5]], 2),
        ]
        for gram, norm in cases:
            assert short_vectors(gram, norm) == self.brute(gram, norm)

    def test_indefinite_rejected(self):
        with pytest.raises(ValueError):
            short_vectors([[0, 1], [1, 0]], 2)

    def test_singular_and_indefinite_rejected(self):
        grams = [
            [[0]],
            [[1, 0], [0, 0]],
            [[1, 2], [2, 4]],
            [[2, 1, 3], [1, 2, 3], [3, 3, 6]],
            [[1, 0], [0, -1]],
            [[2, 3], [3, 2]],
            [[-2, 0, 0], [0, 1, 0], [0, 0, -1]],
        ]
        for gram in grams:
            for norm in (-2, 1, 2):
                with pytest.raises(ValueError):
                    short_vectors(gram, norm)
                with pytest.raises(ValueError):
                    fraction_short_vectors(gram, norm)

    def test_against_fraction_oracle(self):
        # seeded random definite Grams of rank 1-6, both signs, norms 1-12,
        # and the Gram whose (0, 0, 1) at norm 3 a rounded-down bound dropped
        rng = random.Random(97)
        grams = [[[9, 6, 1], [6, 12, -2], [1, -2, 3]]]
        for n in range(1, 7):
            for _ in range(8):
                sign = rng.choice((1, -1))
                grams.append([[sign * x for x in row] for row in _random_definite_gram(rng, n)])
        for gram in grams:
            sign = 1 if gram[0][0] > 0 else -1
            for norm in range(1, 13):
                assert short_vectors(gram, sign * norm) == fraction_short_vectors(
                    gram, sign * norm
                )
                assert short_vectors(gram, -sign * norm) == []
        assert (0, 0, 1) in short_vectors(grams[0], 3)

    def test_large_leading_minors(self):
        # the scale P = prod of the leading minors runs to many digits here
        rng = random.Random(101)
        largest = 0
        for n in range(2, 7):
            for _ in range(4):
                while True:
                    m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
                    if linalg.det(m) != 0:
                        break
                sign = rng.choice((1, -1))
                gram = [[sign * x for x in row] for row in linalg.matmul(m, linalg.transpose(m))]
                scale = 1
                for k in range(1, n + 1):
                    scale *= abs(linalg.det([row[:k] for row in gram[:k]]))
                largest = max(largest, scale)
                for norm in sorted({gram[i][i] for i in range(n)})[:3]:
                    got = short_vectors(gram, norm)
                    assert got == fraction_short_vectors(gram, norm)
                    assert got
        assert largest > 10 ** 20

    def test_definite_sign_against_signature_oracle(self):
        rng = random.Random(103)
        for _ in range(300):
            gram = random_symmetric_lattice_gram(rng, rng.randint(1, 5), bound=4)
            pos, neg = signature_oracle(gram)
            assert _definite_sign(gram) == (1 if not neg else -1 if not pos else 0)
        assert _definite_sign([[0, 1], [1, 0]]) == 0  # zero leading minor
        assert _definite_sign([[1, 1], [1, 1]]) == 0  # singular


class TestPeriodOk:
    """One case per branch of the period transport check, linalg.scalar_ratio.

    A witness carries the period when the images of the source symbol
    columns are one nonzero multiple lam of the target columns. Each case
    lists (image, target) column pairs; the closed form reads lam^2 from
    two Gram matrices with the same helper.
    """

    def lam(self, *pairs):
        return scalar_ratio([c for c, _ in pairs], [t for _, t in pairs])

    def ok(self, *pairs):
        return self.lam(*pairs) is not None

    def test_zero_image(self):
        assert not self.ok(([0, 0], [1, 0]))  # would force lam = 0
        assert not self.ok(([0, 0], [0, 0]))  # nothing pins lam
        assert self.lam(([0, 0], [0, 0]), ([2, 4], [1, 2])) == 2

    def test_zero_target(self):
        assert not self.ok(([1, 0], [0, 0]))

    def test_target_with_zero_entries(self):
        assert self.lam(([0, 6], [0, 3])) == 2
        assert not self.ok(([1, 6], [0, 3]))
        # the first nonzero target entry meets a zero image entry
        assert not self.ok(([0, 3], [1, 1]))

    def test_not_proportional(self):
        assert not self.ok(([2, 3], [1, 1]))

    def test_negative_and_fractional_scalars(self):
        assert self.lam(([-2, -4], [1, 2]), ([2, 0], [-1, 0])) == -2
        assert self.lam(([1, 2], [2, 4]), ([-1, 0], [-2, 0])) == Fraction(1, 2)
        assert self.lam(([3, 6], [-2, -4]), ([0, -3], [0, 2])) == Fraction(-3, 2)

    def test_scalars_differ_between_columns(self):
        assert not self.ok(([-2, -4], [1, 2]), ([2, 0], [1, 0]))
        assert not self.ok(([1, 2], [2, 4]), ([1, 0], [1, 0]))


def test_period_scalar_checks_every_column():
    lat = Lattice(((2, 1), (1, 2)))
    symbols = SymbolBasis(("1", "s", "t"))

    def period(columns):
        return period_from_columns(lat, symbols, columns)

    def transported(src, tgt, m):
        return scalar_ratio(linalg.matmul(src.columns(), m), tgt.columns())

    swap = ((0, 1), (1, 0))
    # column "1" is zero on both sides and skipped; the image of "s" is
    # (0, 3/2), so the scalar is read at its second entry
    src = period({"s": (Fraction(3, 2), 0), "t": (5, 5)})
    tgt = period({"s": (0, Fraction(3, 4)), "t": (Fraction(5, 2), Fraction(5, 2))})
    assert transported(src, tgt, swap) == 2
    assert transported(src, tgt.scaled(-3), swap) == Fraction(-2, 3)
    # a scalar read off one column must fit every other column too
    assert transported(src, period({"s": (0, Fraction(3, 4)), "t": (1, 2)}), swap) is None
    assert transported(src, period({"s": (0, Fraction(3, 4))}), swap) is None
    # a nonzero target column under a zero image would force lam = 0
    assert transported(src, period({"1": (1, 1)}), swap) is None


def _pool_vectors(pool, gram):
    """The vectors of a _norm_pools pool, each checked to come with its v.G."""
    for v, vg in pool:
        assert vg == linalg.vec_times_mat(v, gram)
    return [v for v, _ in pool]


class TestCandidatePool:
    def test_indefinite_pool_against_box_scan(self):
        # random symmetric Grams, singular ones and zero diagonals included,
        # so the norm equation also meets g = 0 and g = b = 0
        rng = random.Random(89)
        for _ in range(800):
            n = rng.randint(1, 5)
            bound = rng.randint(1, 3 if n < 5 else 2)
            gram = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    gram[i][j] = gram[j][i] = rng.choice((0, 0, rng.randint(-4, 4)))
            norm = rng.randint(-6, 6)
            pool = _norm_pools(gram, [norm], bound, 0)[norm]
            assert _pool_vectors(pool, gram) == box_pool(gram, norm, bound)

    def test_degenerate_last_coordinate(self):
        # g = 0 with b != 0, and g = b = 0 where every t in the range solves
        pool = _norm_pools([[1, 1], [1, 0]], [3], 2, 0)[3]
        assert _pool_vectors(pool, [[1, 1], [1, 0]]) == box_pool([[1, 1], [1, 0]], 3, 2)
        assert _pool_vectors(_norm_pools([[1, 0], [0, 0]], [1], 1, 0)[1], [[1, 0], [0, 0]]) == [
            (-1, -1), (-1, 0), (-1, 1), (1, -1), (1, 0), (1, 1)
        ]


class TestNormPools:
    """One _norm_pools pass against one oracle pool per norm."""

    def norm_sets(self, rng, norms):
        # duplicates, norms of either sign and 0, most with no vectors at all
        return [rng.choices(norms, k=rng.randint(1, 5)) for _ in range(3)]

    def test_definite_against_fraction_oracle(self):
        rng = random.Random(401)
        nonempty = empty = 0
        for n in range(1, 7):
            for _ in range(5):
                sign = rng.choice((1, -1))
                gram = [[sign * x for x in row] for row in _random_definite_gram(rng, n)]
                norms = [sign * k for k in range(-3, 13)]
                for wanted in self.norm_sets(rng, norms):
                    pools = _norm_pools(gram, wanted, 2, sign)
                    assert sorted(pools) == sorted(set(wanted))
                    for norm in wanted:
                        halved = fraction_short_vectors(gram, norm)
                        assert _pool_vectors(pools[norm], gram) == sorted(
                            halved + [tuple(-c for c in v) for v in halved])
                        nonempty += bool(pools[norm])
                        empty += not pools[norm]
        assert nonempty > 100 and empty > 100

    def test_indefinite_against_box_scan(self):
        # singular Grams and zero diagonals included, the last one often 0
        rng = random.Random(409)
        last_zero = 0
        for _ in range(150):
            n = rng.randint(1, 6)
            bound = rng.randint(1, 3) if n < 4 else 1
            gram = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    gram[i][j] = gram[j][i] = rng.choice((0, 0, rng.randint(-4, 4)))
            last_zero += gram[-1][-1] == 0
            for wanted in self.norm_sets(rng, range(-6, 7)):
                pools = _norm_pools(gram, wanted, bound, 0)
                assert sorted(pools) == sorted(set(wanted))
                for norm in wanted:
                    assert _pool_vectors(pools[norm], gram) == box_pool(gram, norm, bound)
        assert last_zero > 50

    def test_one_enumeration_per_row_domains(self, monkeypatch):
        # three distinct row norms make one pass: one _norm_pools call,
        # which is one box scan, or one echelon for the enumeration
        # besides the one of _definite_sign; the pools carry v.G2, so an
        # indefinite target makes no vec_times_mat call
        echelons, scans, products = [], [], []
        echelon, scan, times = linalg.echelon, isometry._norm_pools, linalg.vec_times_mat

        def counted_echelon(rows):
            echelons.append(rows)
            return echelon(rows)

        def counted_scan(*args):
            scans.append(args)
            return scan(*args)

        def counted_times(v, m):
            products.append(v)
            return times(v, m)

        monkeypatch.setattr(linalg, "echelon", counted_echelon)
        monkeypatch.setattr(isometry, "_norm_pools", counted_scan)
        monkeypatch.setattr(linalg, "vec_times_mat", counted_times)
        definite = [[2, 1, 0], [1, 4, 1], [0, 1, 6]]
        indefinite = [[2, 1, 0], [1, -4, 1], [0, 1, 6]]
        # the definite pools take v.G2 once per pair +-v they keep; they
        # never hold 0, so kept is even
        kept = sum(map(len, scan(definite, [2, 4, 6], 2, 1).values()))
        assert kept % 2 == 0
        for g1, echelon_calls, product_calls in ((definite, 2, kept // 2), (indefinite, 1, 0)):
            echelons.clear()
            scans.clear()
            products.clear()
            domains = _row_domains(g1, g1, 2)
            assert all(domains)
            assert len(echelons) == echelon_calls and len(scans) == 1
            assert len(products) == product_calls
        assert kept > 0

    def test_half_walk(self, monkeypatch):
        # both branches walk one vector of each pair +-v: every pool is
        # its own negation, a norm-0 indefinite pool holds 0 exactly once,
        # and the box scan solves ((2K+1)^(r-1) + 1)/2 leaves per norm
        leaves = []
        roots = isometry._norm_roots

        def counted_roots(*args):
            leaves.append(args)
            return roots(*args)

        monkeypatch.setattr(isometry, "_norm_roots", counted_roots)
        rng = random.Random(421)
        with_zero = deep_definite = 0
        for _ in range(250):
            n = rng.randint(1, 6)
            bound = rng.randint(1, 3) if n < 5 else rng.randint(1, 2)
            if rng.random() < 0.5:
                sign = rng.choice((1, -1))
                gram = [[sign * x for x in row] for row in _random_definite_gram(rng, n)]
                wanted = [sign * k for k in rng.choices(range(-2, 11), k=rng.randint(1, 4))]
            else:
                gram = random_symmetric_lattice_gram(rng, n, bound=3)
                sign = _definite_sign(gram)
                wanted = rng.choices(range(-4, 5), k=rng.randint(1, 4)) + [0]
            leaves.clear()
            pools = _norm_pools(gram, wanted, bound, sign)
            if not sign:
                assert len(leaves) == len(pools) * ((2 * bound + 1) ** (n - 1) + 1) // 2
            for norm, pool in pools.items():
                vectors = _pool_vectors(pool, gram)
                assert len(set(vectors)) == len(vectors)
                assert set(vectors) == {tuple(-c for c in v) for v in vectors}
                zeros = vectors.count((0,) * n)
                assert zeros == (not sign and norm == 0)
                with_zero += zeros
                deep_definite += bool(sign) and n >= 4
        assert with_zero >= 50 and deep_definite >= 100


# util.witness_corpus_digest at the commit before _norm_pools walked one
# vector of each pair +-v.
WITNESS_CORPUS_SHA256 = "ac6f02902704536e4cbd80bb18add065d6607fde71c692a66c3ffc626c90eaa1"


class TestWitnessCorpus:
    def test_digest(self):
        # find_isometry witnesses and _norm_pools results of a seeded
        # corpus, pinned byte for byte; util.witness_corpus describes it
        assert witness_corpus_digest() == WITNESS_CORPUS_SHA256


class TestFindIsometry:
    def test_self_witness_exists_and_revalidates(self):
        for lat in (U, make_standard("U_n", 3), direct_sum(U, make_standard("U_n", 2))):
            iso = find_isometry(lat, lat, 1)
            assert iso is not None
            assert verify_isometry(iso)

    def test_returns_lex_least_witness(self):
        # brute force: first matrix in row-major lexicographic order
        bound = 2
        best = None
        g = U.gram
        for entries in product(range(-bound, bound + 1), repeat=4):
            m = (entries[:2], entries[2:])
            if linalg.mat_eq(linalg.matmul(linalg.matmul(m, g), linalg.transpose(m)), g):
                best = m
                break
        iso = find_isometry(U, U, bound)
        assert iso.matrix == best

    def test_determinism(self):
        lat = direct_sum(U, make_standard("U_n", 2))
        a = find_isometry(lat, lat, 2)
        b = find_isometry(lat, lat, 2)
        assert a.matrix == b.matrix

    def test_u_vs_scaled_absent_and_refuted(self):
        for bound in (1, 2, 3):
            assert find_isometry(U, make_standard("U_n", 2), bound) is None
        assert genus_equal(U, make_standard("U_n", 2)) == DIFFER

    def test_found_witness_implies_genus_match(self):
        rng = random.Random(53)
        for _ in range(15):
            n = rng.randint(1, 3)
            gram = random_symmetric_lattice_gram(rng, n, bound=3)
            p = random_unimodular(rng, n)
            conj = linalg.matmul(linalg.matmul(p, gram), linalg.transpose(p))
            l1 = Lattice(gram)
            l2 = Lattice(conj)
            iso = find_isometry(l1, l2, 3)
            if iso is not None:
                assert genus_equal(l1, l2) == MATCH_OR_UNKNOWN
                assert verify_isometry(iso)

    def test_definite_search_uses_complete_pools(self):
        # [[2]] vs [[8]] have equal rank and different determinants
        assert find_isometry(make_standard("rank1", 2), make_standard("rank1", 8), 50) is None
        # definite isometric pair found without large entries
        d1 = Lattice(((2, 1), (1, 2)))
        p = [[1, 1], [0, 1]]
        conj = linalg.matmul(linalg.matmul(p, d1.gram), linalg.transpose(p))
        d2 = Lattice(conj)
        iso = find_isometry(d1, d2, 3)
        assert iso is not None and verify_isometry(iso)

    def test_bound_validation(self):
        with pytest.raises(ValueError):
            find_isometry(U, U, 0)

    def test_singular_gram_rejected(self):
        # a Sublattice may carry a singular Gram matrix, here the zero form;
        # every 2x2 box matrix carries it onto itself, so the first one,
        # ((-1, -1), (-1, -1)), is not unimodular
        zero = Sublattice(direct_sum(U, U), [[1, 0, 0, 0], [0, 0, 1, 0]])
        assert zero.gram == ((0, 0), (0, 0))
        nondegenerate = Sublattice(direct_sum(U, U), [[1, 1, 0, 0], [0, 0, 1, 1]])
        for l1, l2 in ((zero, zero), (zero, nondegenerate), (nondegenerate, zero)):
            with pytest.raises(LatticeError):
                find_isometry(l1, l2, 1)
        assert find_isometry(nondegenerate, nondegenerate, 1) is not None

    def test_self_search_succeeds_at_bound_one(self):
        rng = random.Random(59)
        for _ in range(15):
            n = rng.randint(1, 3)
            lat = Lattice(random_symmetric_lattice_gram(rng, n))
            iso = find_isometry(lat, lat, 1)
            assert iso is not None and verify_isometry(iso)


class TestFindHodgeIsometry:
    def test_self_gives_unit_scalar(self):
        h = base_abelian_model(2).transcendental_hodge()
        iso = find_hodge_isometry(h, h, 1)
        assert iso is not None
        assert abs(iso.lam) == 1
        assert verify_isometry(iso)

    def test_quotient_vs_base_transcendental(self):
        # rank-4 lattices with periods; a rational-scalar witness exists
        for n in (2, 3):
            s = quotient_surface_hodge(n)
            t_s = transcendental_lattice(s)
            h1 = hodge_lattice(
                t_s.as_lattice(), restrict_period(t_s, s.period)
            )
            h2 = base_abelian_model(n).transcendental_hodge()
            iso = find_hodge_isometry(h1, h2, 3)
            assert iso is not None
            assert iso.lam != 0
            assert verify_isometry(iso)

    def test_disjoint_symbol_supports_absent(self):
        sb = SymbolBasis(("1", "w1", "w2"))
        s1 = period_from_columns(U, sb, {"w1": (1, 0)})
        s2 = period_from_columns(U, sb, {"w2": (1, 0)})
        h1 = hodge_lattice(U, s1)
        h2 = hodge_lattice(U, s2)
        assert find_hodge_isometry(h1, h2, 2) is None

    def test_non_spanning_period_takes_first_transporting_witness(self):
        # one column on a rank-2 lattice: the plain witnesses come in lex
        # order, and -I fails before the negated swap carries (1, 0) to
        # -(0, 1)
        sb = SymbolBasis(("1", "s"))
        h1 = hodge_lattice(U, period_from_columns(U, sb, {"s": (1, 0)}))
        h2 = hodge_lattice(U, period_from_columns(U, sb, {"s": (0, 1)}))
        data = (h1.period.columns(), h2.period.columns())
        for bound in (1, 2):
            iso = find_hodge_isometry(h1, h2, bound)
            assert iso.matrix == ((0, -1), (-1, 0)) == reference_search(U.gram, U.gram, bound, data)
            assert iso.lam == -1 and verify_isometry(iso)
        # (1, 1) has norm 2, so no isometry reaches it at any bound
        h3 = hodge_lattice(U, period_from_columns(U, sb, {"s": (1, 1)}))
        assert find_hodge_isometry(h1, h3, 2) is None
        assert isometry._hodge_witness(h1, h3, 2)[2] == "no witness with entries bounded by 2"

    def test_plain_isometry_can_exist_where_hodge_does_not(self):
        sb = SymbolBasis(("1", "w1", "w2"))
        s1 = period_from_columns(U, sb, {"w1": (1, 0)})
        s2 = period_from_columns(U, sb, {"w2": (1, 0)})
        assert find_isometry(U, U, 2) is not None
        assert find_hodge_isometry(hodge_lattice(U, s1), hodge_lattice(U, s2), 2) is None


def _conjugate(rng, gram):
    p = random_unimodular(rng, len(gram), shears=4, cap=3)
    return p, linalg.matmul(linalg.matmul(p, gram), linalg.transpose(p))


def _random_definite_gram(rng, n):
    while True:
        m = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        if linalg.det(m) != 0:
            return linalg.matmul(m, linalg.transpose(m))


def _random_indefinite_gram(rng, n):
    while True:
        gram = random_symmetric_lattice_gram(rng, n, bound=3)
        pos, neg = Lattice(gram).signature()
        if pos and neg:
            return gram


def _row_scaled(rng, gram):
    """gram scaled by D on both sides, D diagonal: row i gains divisor d_i."""
    d = [rng.choice((1, 1, 2, 3)) for _ in gram]
    return [[d[i] * x * d[j] for j, x in enumerate(row)] for i, row in enumerate(gram)]


class TestRowDomains:
    """Row i's domain is exactly its norm pool's primitive vectors v with
    gcd(v.G2) = gcd(G1[i]), in lexicographic order."""

    def check(self, g1, g2, bound, definite):
        n = len(g1)
        domains = _row_domains(g1, g2, bound)
        assert len(domains) == n

        def times_g2(v):
            return [sum(v[k] * g2[k][j] for k in range(n)) for j in range(n)]

        cut_primitive = cut_divisor = 0
        for i, (row, dom) in enumerate(zip(g1, domains)):
            if definite:
                halved = fraction_short_vectors(g2, row[i])
                pool = sorted(halved + [tuple(-c for c in v) for v in halved])
            else:
                pool = box_pool(g2, row[i], bound)
            # soundness: each entry pairs a primitive v with v.G2 of the row's divisor
            for v, vg in dom:
                assert list(vg) == times_g2(v)
                assert gcd(*v) == 1 and gcd(*vg) == gcd(*row)
            # completeness, in lex order: every pool vector with both properties
            kept = []
            for v in pool:
                if gcd(*v) != 1:
                    cut_primitive += 1
                elif gcd(*times_g2(v)) != gcd(*row):
                    cut_divisor += 1
                else:
                    kept.append(v)
            assert [v for v, _ in dom] == kept
        return cut_primitive, cut_divisor

    def test_definite_forms(self):
        rng = random.Random(101)
        cuts = [0, 0]
        for _ in range(30):
            gram = _row_scaled(rng, _random_definite_gram(rng, rng.randint(1, 3)))
            got = self.check(gram, _conjugate(rng, gram)[1], 1, True)
            cuts = [a + b for a, b in zip(cuts, got)]
        assert all(cuts)

    def test_indefinite_forms(self):
        rng = random.Random(103)
        cuts = [0, 0]
        for _ in range(30):
            gram = _row_scaled(rng, _random_indefinite_gram(rng, rng.randint(2, 4)))
            conj = _conjugate(rng, gram)[1]
            for bound in (1, 2):
                got = self.check(gram, conj, bound, False)
                cuts = [a + b for a, b in zip(cuts, got)]
        assert all(cuts)

    def test_example43_row_zero_domain(self):
        # T(S) for n = 4 against U + U(4): row 0 has norm 0 and divisor 4,
        # which leaves 4 of the 177 isotropic box vectors
        g1 = transcendental_lattice(quotient_surface_hodge(4)).as_lattice().gram
        g2 = direct_sum(U, make_standard("U_n", 4)).gram
        assert len(_norm_pools(g2, [0], 3, 0)[0]) == 177
        assert [v for v, _ in _row_domains(g1, g2, 3)[0]] == [
            (0, 0, -1, 0), (0, 0, 0, -1), (0, 0, 0, 1), (0, 0, 1, 0)
        ]


class TestSearchAgainstReference:
    """The forward-checked _search returns exactly the plain backtracker's witness."""

    def assert_same(self, g1, g2, bounds):
        found = 0
        for bound in bounds:
            got = next(_search(g1, g2, bound), None)
            assert got == reference_search(g1, g2, bound, None)
            found += got is not None
        return found

    def test_search_yields_every_witness_in_lex_order(self):
        # the generator's witnesses are exactly the isometries in the box,
        # row-major lexicographically ordered
        for g, bound in ((U.gram, 2), ([[2, 1], [1, 2]], 1), ([[0, 1], [1, 2]], 2)):
            box = range(-bound, bound + 1)
            brute = []
            for entries in product(box, repeat=4):
                m = (entries[:2], entries[2:])
                if linalg.mat_eq(linalg.matmul(linalg.matmul(m, g), linalg.transpose(m)), g):
                    brute.append(m)
            assert list(_search(g, g, bound)) == brute

    def test_definite_conjugate_pairs(self):
        rng = random.Random(71)
        found = 0
        for _ in range(16):
            gram = _random_definite_gram(rng, rng.randint(1, 4))
            found += self.assert_same(gram, _conjugate(rng, gram)[1], (1, 2))
        assert found > 0

    def test_indefinite_conjugate_pairs(self):
        rng = random.Random(73)
        found = 0
        for _ in range(16):
            gram = _random_indefinite_gram(rng, rng.randint(2, 4))
            found += self.assert_same(gram, _conjugate(rng, gram)[1], (1, 2))
        assert found > 0

    def test_example43_transcendental_pairs(self):
        # T(S) of the order-n construction against U + U(n), each side
        # also conjugated: two rows of T(S) carry divisor n, so the
        # divisor filter cuts the domains and must keep the witness
        rng = random.Random(107)
        found = cut = 0
        for n in range(1, 5):
            t_s = transcendental_lattice(quotient_surface_hodge(n)).as_lattice().gram
            u_un = direct_sum(U, make_standard("U_n", n)).gram
            pairs = [(t_s, u_un), (_conjugate(rng, t_s)[1], u_un), (t_s, _conjugate(rng, u_un)[1])]
            for g1, g2 in pairs:
                found += self.assert_same(g1, g2, (1, 2))
                pools = [_norm_pools(g2, [row[i]], 2, 0)[row[i]] for i, row in enumerate(g1)]
                cut += sum(map(len, pools)) > sum(map(len, _row_domains(g1, g2, 2)))
        assert 0 < found < 24 and cut == 12

    def test_three_norm_pairs(self):
        # find_isometry against the plain backtracker on pairs whose rows
        # carry at least three distinct norms, so one pool pass serves them
        rng = random.Random(419)
        found = missed = 0
        for definite in (True, False):
            pairs = 0
            while pairs < 12:
                n = rng.randint(3, 5)
                if definite:
                    gram = _random_definite_gram(rng, n)
                else:
                    gram = _random_indefinite_gram(rng, n)
                conj = _conjugate(rng, gram)[1]
                norms = {conj[i][i] for i in range(n)}
                # definite pools hold every vector of the norm: keep them small
                if len(norms) < 3 or definite and max(norms) > 40:
                    continue
                pairs += 1
                for g1, g2 in ((conj, gram), (gram, conj)):
                    for bound in (1, 2):
                        iso = find_isometry(Lattice(g1), Lattice(g2), bound)
                        ref = reference_search(g1, g2, bound, None)
                        assert (iso and iso.matrix) == ref
                        found += ref is not None
                        missed += ref is None
        assert found and missed

    def test_non_isometric_pairs(self):
        odd_u = [[1, 0], [0, -1]]
        a2 = [[2, 1], [1, 2]]
        diag13 = [[1, 0], [0, 3]]
        u = U.gram
        pairs = [(u, odd_u), (a2, diag13), (odd_u, u)]
        rng = random.Random(79)
        for g1, g2 in list(pairs):
            pairs.append((g1, _conjugate(rng, g2)[1]))
        for g1, g2 in pairs:
            assert self.assert_same(g1, g2, (1, 2)) == 0
        # independent forms sharing rank and determinant, isometric or not
        by_det = {}
        for _ in range(60):
            gram = random_symmetric_lattice_gram(rng, rng.randint(2, 3), bound=2)
            by_det.setdefault((len(gram), linalg.det(gram)), []).append(gram)
        for grams in by_det.values():
            for g1, g2 in zip(grams, grams[1:]):
                self.assert_same(g1, g2, (1, 2))

    def test_period_pinned_pairs(self):
        # 120 spanning Hodge pairs: each source conjugated four times and its
        # period scaled by six scalars. The closed form's witness is the
        # reference search's wherever that finds one; elsewhere it verifies
        # and has an entry above the bound.
        rng = random.Random(83)
        sources = [base_abelian_model(n).transcendental_hodge() for n in (1, 2, 3)]
        for n in (2, 3):
            s = quotient_surface_hodge(n)
            t_s = transcendental_lattice(s)
            sources.append(hodge_lattice(t_s.as_lattice(), restrict_period(t_s, s.period)))
        found = beyond = 0
        for h in sources:
            g = h.lattice.gram
            for _ in range(4):
                p, conj = _conjugate(rng, g)
                target = Lattice(conj)
                period = h.period.map_by(linalg.invert_unimodular(p), target)
                for factor in (1, -1, 2, -2, Fraction(1, 2), Fraction(3, 2)):
                    h2 = hodge_lattice(target, period.scaled(factor))
                    data = (h.period.columns(), h2.period.columns())
                    for bound in (1, 2, 3):
                        iso = find_hodge_isometry(h, h2, bound)
                        assert verify_isometry(iso)
                        ref = reference_search(g, conj, bound, data)
                        if ref is None:
                            assert max(abs(x) for row in iso.matrix for x in row) > bound
                            beyond += 1
                        else:
                            assert iso.matrix == ref
                            found += 1
        assert found and beyond


class TestVerifier:
    def test_non_integral_entries_rejected(self):
        with pytest.raises(CertificationError):
            IsometryMap(source=U, target=U, matrix=((Fraction(1, 2), 0), (0, 1)))
        with pytest.raises(CertificationError):
            IsometryMap(source=U, target=U, matrix=((1.5, 0), (0, 1)))
        iso = IsometryMap(source=U, target=U, matrix=((Fraction(2, 2), 0), (0, 1.0)))
        assert iso.matrix == ((1, 0), (0, 1)) and verify_isometry(iso)

    def test_tampered_matrix_rejected(self):
        iso = find_isometry(U, U, 1)
        bad = IsometryMap(source=U, target=U, matrix=((1, 0), (1, 1)))
        with pytest.raises(CertificationError):
            verify_isometry(bad)
        assert verify_isometry(iso)

    def test_non_unimodular_rejected(self):
        bad = IsometryMap(
            source=make_standard("U_n", 4), target=U, matrix=((2, 0), (0, 2))
        )
        with pytest.raises(CertificationError):
            verify_isometry(bad)

    def test_wrong_scale_rejected(self):
        bad = IsometryMap(source=U, target=U, matrix=((1, 0), (0, 1)), scale=2)
        with pytest.raises(CertificationError):
            verify_isometry(bad)

    def test_scale_is_an_integer(self):
        doubled = IsometryMap(source=U, target=U.twist(2), matrix=((1, 0), (0, 1)), scale=Fraction(2))
        assert type(doubled.scale) is int and verify_isometry(doubled)
        with pytest.raises(CertificationError, match="scale"):
            IsometryMap(source=U, target=U, matrix=((1, 0), (0, 1)), scale=Fraction(1, 2))

    def test_tampered_period_scalar_rejected(self):
        h = base_abelian_model(2).transcendental_hodge()
        iso = find_hodge_isometry(h, h, 1)
        bad = IsometryMap(
            source=iso.source,
            target=iso.target,
            matrix=iso.matrix,
            lam=iso.lam * 7,
            source_period=iso.source_period,
            target_period=iso.target_period,
        )
        with pytest.raises(CertificationError):
            verify_isometry(bad)

    def test_zero_period_scalar_rejected(self):
        h2 = base_abelian_model(2).h2
        bad = IsometryMap(source=h2.lattice, target=h2.lattice, matrix=linalg.identity(6),
                          lam=0, source_period=h2.period, target_period=h2.period)
        with pytest.raises(CertificationError, match="period is not transported at scalar 0"):
            verify_isometry(bad)

    def test_scalar_without_both_periods_rejected(self):
        # the scalar of a map with one period, or none, is checked against
        # nothing; only both periods or neither, with no scalar, certify
        h = base_abelian_model(2).transcendental_hodge()
        plain = IsometryMap(source=h.lattice, target=h.lattice, matrix=linalg.identity(4))
        assert verify_isometry(plain)
        for periods in ({}, {"source_period": h.period}, {"target_period": h.period}):
            for lam in (None, 7):
                if periods or lam is not None:
                    with pytest.raises(CertificationError, match="a period at each end"):
                        verify_isometry(replace(plain, lam=lam, **periods))
        with pytest.raises(CertificationError, match="period is not transported at scalar 7"):
            verify_isometry(replace(plain, lam=7, source_period=h.period, target_period=h.period))

    def test_periods_on_other_symbol_bases_rejected(self):
        h = base_abelian_model(2).transcendental_hodge()
        iso = find_hodge_isometry(h, h, 1)
        symbols = h.period.symbols.symbols
        renamed = SymbolBasis(tuple(s if s == "1" else s + "'" for s in symbols))
        bad = replace(iso, target_period=PeriodVector(h.lattice, renamed, h.period.num, h.period.den))
        with pytest.raises(CertificationError, match="symbol bases"):
            verify_isometry(bad)

    def test_periods_off_the_endpoints_rejected(self):
        h = base_abelian_model(2).transcendental_hodge()
        iso = find_hodge_isometry(h, h, 1)
        off = PeriodVector(h.lattice.twist(3), h.period.symbols, h.period.num, h.period.den)
        for bad in (replace(iso, source_period=off), replace(iso, target_period=off)):
            with pytest.raises(CertificationError, match="endpoint"):
                verify_isometry(bad)

    def test_shape_mismatch_rejected(self):
        bad = IsometryMap(source=U, target=U, matrix=((1, 0),))
        with pytest.raises(CertificationError):
            verify_isometry(bad)
