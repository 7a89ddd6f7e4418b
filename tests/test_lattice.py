import random
from collections import Counter, defaultdict
from dataclasses import fields
from fractions import Fraction
from itertools import combinations, product
from math import lcm, prod

import pytest
from sympy import Matrix

from kummerlat import (
    GenusInvariants,
    Lattice,
    LatticeError,
    Sublattice,
    direct_sum,
    discriminant_form,
    genus_of,
    make_standard,
    orthogonal_complement,
    render_lattice,
    saturate,
    sublattice_quotient,
)
from kummerlat import lattice as lattice_module, linalg
from util import (
    brute_det,
    contains,
    frac_mod,
    fraction_value_profile,
    genus_corpus_digest,
    invert,
    is_square_mod,
    naive_pair,
    random_rational_vector,
    random_congruent,
    random_symmetric_lattice_gram,
    random_unimodular,
    scaled_diagonal,
    signature_oracle,
    smith_left_transform,
    two_primary,
    value_counts_mod,
)

U = make_standard("U")

# A 6x6 Gram whose Smith transform has entries near 10^26.
REGRESSION_GRAM = [
    [36, -23, 0, 0, 22, -13],
    [-23, 23, 0, 0, -16, 13],
    [0, 0, 3, 3, 0, 0],
    [0, 0, 3, 5, 0, 0],
    [22, -16, 0, 0, 20, -11],
    [-13, 13, 0, 0, -11, 8],
]


# util.genus_corpus_digest at the commit before the odd symbols were read
# off the discriminant form and its invariants built on first read.
GENUS_CORPUS_SHA256 = "9b8318be0c34e73a8fa465b200a29c94f5e5ecd831bda6a9b2d8a5aa677bde1a"


class TestConstruction:
    def test_standard_u(self):
        assert U.gram == ((0, 1), (1, 0))

    def test_u_n_one_matches_u(self):
        assert make_standard("U_n", 1).gram == U.gram

    def test_u_n_three(self):
        assert make_standard("U_n", 3).gram == ((0, 3), (3, 0))

    def test_rank1(self):
        assert make_standard("rank1", -2).gram == ((-2,),)

    def test_degenerate_parameters_rejected(self):
        with pytest.raises(LatticeError):
            make_standard("U_n", 0)
        with pytest.raises(LatticeError):
            make_standard("rank1", 0)

    def test_non_integral_parameters_rejected(self):
        # int() would truncate these to U(3) and <2>
        for kind, param in (("U_n", Fraction(7, 2)), ("U_n", 3.5), ("rank1", 2.5),
                            ("rank1", Fraction(-5, 2))):
            with pytest.raises(LatticeError):
                make_standard(kind, param)

    def test_integral_non_int_parameters_accepted(self):
        assert make_standard("U_n", Fraction(6, 2)).gram == ((0, 3), (3, 0))
        assert make_standard("U_n", 3.0).gram == ((0, 3), (3, 0))
        assert make_standard("rank1", Fraction(-4, 2)).gram == ((-2,),)
        assert make_standard("rank1", 2.0).gram == ((2,),)

    def test_empty_lattice_not_constructible(self):
        with pytest.raises(LatticeError):
            Lattice(())

    def test_asymmetric_gram_rejected(self):
        with pytest.raises(LatticeError):
            Lattice(((0, 1), (2, 0)))

    def test_degenerate_gram_rejected(self):
        with pytest.raises(LatticeError):
            Lattice(((1, 1), (1, 1)))

    def test_non_integral_entries_rejected(self):
        with pytest.raises(LatticeError):
            Lattice([[Fraction(3, 2)]])
        with pytest.raises(LatticeError):
            Lattice([[2.7, 1], [1, 2]])
        assert Lattice([[Fraction(4, 2), 1], [1, 2.0]]).gram == ((2, 1), (1, 2))

    def test_label_validation(self):
        with pytest.raises(LatticeError):
            Lattice(((1,),), ("a", "b"))
        with pytest.raises(LatticeError):
            Lattice(((0, 1), (1, 0)), ("a", "a"))


class TestTwist:
    def test_twist_u_by_two(self):
        assert U.twist(2).gram == ((0, 2), (2, 0))

    def test_identity_twist(self):
        assert U.twist(1) == U

    def test_twist_composition(self):
        assert make_standard("U_n", 2).twist(3).gram == ((0, 6), (6, 0))

    def test_zero_twist_rejected(self):
        with pytest.raises(LatticeError):
            U.twist(0)

    def test_non_integral_twist_rejected(self):
        # int() would truncate these to twists by 2 and -1
        for m in (Fraction(5, 2), 2.5, Fraction(-3, 2)):
            with pytest.raises(LatticeError):
                U.twist(m)

    def test_integral_non_int_twist_accepted(self):
        assert U.twist(Fraction(4, 2)) == U.twist(2.0) == U.twist(2)
        assert U.twist(Fraction(-3)).gram == ((0, -3), (-3, 0))


class TestDirectSum:
    def test_rank_and_det(self):
        s = direct_sum(U, make_standard("U_n", 2))
        assert s.rank == 4
        # determinant of the block matrix, via the independent oracle
        assert brute_det(s.gram) == 4
        assert s.det == 4

    def test_u_cubed(self):
        s = direct_sum(direct_sum(U, U), U)
        assert s.rank == 6
        assert s.signature() == (3, 3)
        assert s.det == -1

    def test_label_disambiguation(self):
        s = direct_sum(U, U)
        assert s.labels == ("e", "f", "e.2", "f.2")


class TestPair:
    def test_defining_matrix(self):
        assert U.pair((1, 0), (0, 1)) == 1

    def test_scaled_plane(self):
        n = 5
        assert make_standard("U_n", n).pair((1, 0), (0, 1)) == n

    def test_norm(self):
        assert U.pair((1, 1), (1, 1)) == 2

    def test_rational_vectors(self):
        assert U.pair((Fraction(1, 2), 0), (0, 1)) == Fraction(1, 2)

    def test_dimension_mismatch(self):
        with pytest.raises(LatticeError):
            U.pair((1, 0, 0), (0, 1))


class TestComplementAndSaturate:
    def test_isotropic_self_complement(self):
        # derived by solving e . v = 0 in U: v = (a, 0)
        s = Sublattice(U, ((1, 0),))
        assert orthogonal_complement(s).basis == ((1, 0),)

    def test_full_lattice_complement_is_zero(self):
        assert orthogonal_complement(U.full_sublattice()).basis == ()

    def test_saturate_index_two(self):
        assert saturate(Sublattice(U, ((2, 0),))).basis == ((1, 0),)

    def test_saturate_diagonal_vector(self):
        assert saturate(Sublattice(U, ((2, 2),))).basis == ((1, 1),)

    def test_saturate_idempotent_random(self):
        rng = random.Random(11)
        for _ in range(30):
            n = rng.randint(1, 4)
            lat = Lattice(random_symmetric_lattice_gram(rng, n))
            k = rng.randint(1, n)
            rows = []
            while linalg.rank(rows) < k:
                rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(k)]
            s = Sublattice(lat, rows)
            once = saturate(s)
            assert saturate(once).basis == once.basis

    def test_double_complement_is_saturation(self):
        rng = random.Random(23)
        tried = 0
        while tried < 25:
            n = rng.randint(2, 4)
            lat = Lattice(random_symmetric_lattice_gram(rng, n))
            k = rng.randint(1, n - 1)
            rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]
            if linalg.rank(rows) < k:
                continue
            s = Sublattice(lat, rows)
            if linalg.det(s.gram) == 0:
                continue  # degenerate restriction: identity not guaranteed
            tried += 1
            assert orthogonal_complement(orthogonal_complement(s)).basis == saturate(s).basis


class TestQuotient:
    def test_index_two(self):
        s = Sublattice(U, ((1, 0), (0, 2)))
        assert sublattice_quotient(s) == (2, [2])

    def test_full_lattice(self):
        assert sublattice_quotient(U.full_sublattice()) == (1, [])

    def test_order_three_inclusion_image(self):
        u2 = direct_sum(U, U)
        image = Sublattice(u2, ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 3, 0), (0, 0, 0, 1)))
        assert sublattice_quotient(image) == (3, [3])

    def test_infinite_index(self):
        index, divisors = sublattice_quotient(Sublattice(U, ((1, 0),)))
        assert index is None
        assert divisors == []

    def test_index_squared_times_det(self):
        rng = random.Random(5)
        for _ in range(25):
            n = rng.randint(1, 4)
            lat = Lattice(random_symmetric_lattice_gram(rng, n))
            rows = random_unimodular(rng, n)
            for i in range(n):
                rows[i] = [x * rng.randint(1, 3) for x in rows[i]]
            s = Sublattice(lat, rows)
            index, _ = sublattice_quotient(s)
            assert index is not None
            assert abs(brute_det(s.gram)) == index ** 2 * abs(lat.det)


class TestDiscriminantForm:
    def test_unimodular_trivial(self):
        assert discriminant_form(U).is_trivial()

    def test_scaled_plane(self):
        # oracle: dual basis vectors e/n, f/n generate (Z/n)^2, are
        # isotropic, and pair to 1/n
        for n in (2, 3, 5):
            d = discriminant_form(make_standard("U_n", n))
            assert d.elementary_divisors == (n, n)
            assert d.q_values == (0, 0)
            assert d.pairings[0][1] == Fraction(1, n)

    def test_rank1_two(self):
        # oracle: dual generator e/2 has q(e/2) = 2*(1/2)^2 = 1/2 mod 2Z
        d = discriminant_form(make_standard("rank1", 2))
        assert d.elementary_divisors == (2,)
        assert d.q_values == (Fraction(1, 2),)

    def test_group_order_equals_det(self):
        rng = random.Random(17)
        for _ in range(40):
            n = rng.randint(1, 4)
            lat = Lattice(random_symmetric_lattice_gram(rng, n))
            assert discriminant_form(lat).order == abs(lat.det)

    def test_unimodular_congruence_invariance(self):
        # == leaves the presentation out: conjugates mostly get other SNF
        # generators, and their forms and genus records still compare equal
        rng = random.Random(29)
        moved = 0
        for _ in range(200):
            n = rng.randint(1, 5)
            gram = random_symmetric_lattice_gram(rng, n, bound=5)
            lat = Lattice(gram)
            p = random_unimodular(rng, n)
            conj = linalg.matmul(linalg.matmul(p, gram), linalg.transpose(p))
            lat2 = Lattice(conj)
            d1, d2 = discriminant_form(lat), discriminant_form(lat2)
            assert d1 == d2
            assert genus_of(lat) == genus_of(lat2)
            assert lat.signature() == lat2.signature()
            moved += d1.generators != d2.generators
        assert moved > 100

    def test_profile_against_coset_enumeration_oracle(self):
        # independent route: enumerate dual/lattice cosets directly from
        # HNF residue representatives of Z^n / G Z^n, bypassing the SNF;
        # the cosets of 2-power order are the 2-primary part
        rng = random.Random(131)
        checked = 0
        while checked < 15:
            n = rng.randint(1, 3)
            gram = random_symmetric_lattice_gram(rng, n, bound=4)
            lat = Lattice(gram)
            if abs(lat.det) > 60:
                continue
            checked += 1
            d = discriminant_form(lat)
            h = linalg.hnf(gram)
            reps = []
            for combo in product(*(range(h[i][i]) for i in range(n))):
                reps.append(list(combo))
            assert len(reps) == abs(lat.det)
            ginv = invert(gram)
            modulus = 2 if lat.is_even() else 1
            profile = []
            for z in reps:
                dual = linalg.vec_times_mat([Fraction(x) for x in z], ginv)
                # order of the coset: least m with m*dual integral
                m = lcm(*(x.denominator for x in dual))
                q = frac_mod(naive_pair(gram, dual, dual), modulus)
                profile.append((m, q))
            assert two_primary(tuple(sorted(profile))) == d.profile

    def test_value_profile_against_fraction_enumeration(self):
        rng = random.Random(137)
        checked = 0
        while checked < 60:
            n = rng.randint(1, 6)
            gram = random_symmetric_lattice_gram(rng, n, bound=4)
            if abs(brute_det(gram)) > 1500:
                continue
            checked += 1
            d = discriminant_form(Lattice(gram))
            assert d.profile == two_primary(fraction_value_profile(
                gram, d.elementary_divisors, d.generators, d.modulus
            ))

    def test_generators_are_reduced_and_data_unchanged(self):
        # generators read off the huge SNF transform directly give the same
        # q values, pairings and 2-primary profile as their fractional parts
        gram = REGRESSION_GRAM
        lat = Lattice(gram)
        d = discriminant_form(lat)
        assert all(0 <= x < 1 for g in d.generators for x in g)
        diag, t = linalg.snf_with_transforms(gram)
        s_inv = linalg.invert_unimodular(smith_left_transform(gram, diag, t))
        g_inv = invert(gram)
        raw = [
            linalg.vec_times_mat([row[i] for row in s_inv], g_inv)
            for i in range(6)
            if diag[i] > 1
        ]
        assert max(abs(x) for g in raw for x in g) > 1
        modulus = 2 if lat.is_even() else 1
        assert d.q_values == tuple(
            frac_mod(naive_pair(gram, g, g), modulus) for g in raw
        )
        assert d.pairings == tuple(
            tuple(frac_mod(naive_pair(gram, gi, gj), 1) for gj in raw) for gi in raw
        )
        assert d.profile == two_primary(
            fraction_value_profile(gram, d.elementary_divisors, raw, modulus)
        )

    def test_value_profile_edge_cases(self):
        # trivial group, odd lattices, non-cyclic groups with a large last
        # factor, a cyclic 2-group just under the enumeration cap, and a
        # group above the cap whose 2-primary part is small
        rng = random.Random(139)
        cases = [
            ([[0, 1], [1, 0]], ()),
            ([[1, 0], [0, 3]], (3,)),
            ([[3, 1], [1, 5]], (14,)),
            ([[2, 0, 0], [0, 2, 0], [0, 0, 1066]], (2, 2, 1066)),
            ([[3, 0, 0], [0, 3, 0], [0, 0, 15]], (3, 3, 15)),
            ([[1, 0, 0], [0, 4, 0], [0, 0, 12]], (4, 12)),
        ]
        cases += [(random_congruent(rng, gram), divisors) for gram, divisors in cases]
        cases.append(([[1, 0], [0, 16384]], (16384,)))
        cases.append(([[8, 0], [0, 2501]], (20008,)))
        for gram, divisors in cases:
            lat = Lattice(gram)
            d = discriminant_form(lat)
            assert d.elementary_divisors == divisors
            assert d.profile == two_primary(fraction_value_profile(
                gram, d.elementary_divisors, d.generators, d.modulus
            ))
        assert discriminant_form(U).profile == ((1, 0),)
        assert discriminant_form(Lattice(((1, 0), (0, 3)))).modulus == 1

    def test_generators_against_sympy_inverses(self):
        # column i of S^-1 times G^-1, with both inverses taken by sympy and
        # S = D T^-1 G^-1 derived from the Smith diagonal and T
        rng = random.Random(149)
        grams = [REGRESSION_GRAM]
        while len(grams) < 31:
            gram = random_symmetric_lattice_gram(rng, rng.randint(1, 6), bound=4)
            if abs(brute_det(gram)) <= 1500:
                grams.append(gram)
        for gram in grams:
            n = len(gram)
            lat = Lattice(gram)
            d = discriminant_form(lat)
            diag, t = linalg.snf_with_transforms(gram)
            s_inv, g_inv = Matrix(smith_left_transform(gram, diag, t)).inv(), Matrix(gram).inv()
            raw = []
            for i in range(n):
                if diag[i] > 1:
                    v = s_inv[:, i].T * g_inv
                    raw.append([Fraction(int(x.p), int(x.q)) for x in v])
            assert d.generators == tuple(tuple(x % 1 for x in g) for g in raw)
            modulus = 2 if lat.is_even() else 1
            assert d.q_values == tuple(naive_pair(gram, g, g) % modulus for g in raw)
            assert d.pairings == tuple(
                tuple(naive_pair(gram, gi, gj) % 1 for gj in raw) for gi in raw
            )
            assert d.profile == two_primary(fraction_value_profile(
                gram, d.elementary_divisors, raw, modulus
            ))

    def test_genus_record_builds_no_generator(self):
        # the genus record keeps the Smith columns as integers; the Fraction
        # generators, q values and pairings are built only when read, and
        # reading them leaves the record's == unchanged
        rng = random.Random(157)
        for gram in [REGRESSION_GRAM] + [
            random_symmetric_lattice_gram(rng, rng.randint(1, 6), bound=4) for _ in range(40)
        ]:
            lat = Lattice(gram)
            genus = genus_of(lat)
            disc = genus.disc
            assert not {"generators", "q_values", "pairings"} & set(disc.__dict__)
            assert all(
                isinstance(c, int) and 0 <= c < d
                for d, col in zip(disc.elementary_divisors, disc.columns) for c in col
            )
            assert disc.generators == tuple(
                tuple(Fraction(c, d) for c in col)
                for d, col in zip(disc.elementary_divisors, disc.columns)
            )
            assert "generators" in disc.__dict__
            assert genus == genus_of(lat)

    def test_large_group_skips_profile_but_stays_sound(self):
        # |A_2| above the enumeration cap: divisors and odd symbols still
        # compare, and a conjugate is not separated
        gram = [[2, 0, 0, 0], [0, 8, 0, 0], [0, 0, 32, 0], [0, 0, 0, 64 * 3 * 7]]
        d = discriminant_form(Lattice(gram))
        assert d.order == 2 ** 15 * 3 * 7
        assert d.profile is None
        assert [p for p, _ in d.odd_symbols] == [3, 7]
        assert d == d
        conj = discriminant_form(Lattice(random_congruent(random.Random(151), gram)))
        assert conj.profile is None
        assert d == conj
        # an odd group above the cap: its 2-primary part is trivial, so
        # the profile is kept, and the odd symbols cover the whole group
        lat = Lattice(
            (
                (3, 0, 0, 0, 0),
                (0, 7, 0, 0, 0),
                (0, 0, 11, 0, 0),
                (0, 0, 0, 13, 0),
                (0, 0, 0, 0, 17),
            )
        )
        d = discriminant_form(lat)
        assert d.order == 51051
        assert d.profile == ((1, 0),)
        assert [p for p, _ in d.odd_symbols] == [3, 7, 11, 13, 17]
        assert d == d

    def test_dual_quotient_enumeration_oracle(self):
        # brute count of dual vectors modulo the lattice for U(n)
        n = 3
        lat = make_standard("U_n", n)
        count = 0
        for a, b in product(range(3 * n), repeat=2):
            v = (Fraction(a, n), Fraction(b, n))
            if all(
                lat.pair(v, w).denominator == 1 for w in ((1, 0), (0, 1))
            ) and a < n and b < n:
                count += 1
        assert count == discriminant_form(lat).order


class TestOddSymbols:
    def test_invariant_under_unimodular_conjugation(self):
        rng = random.Random(211)
        grams = [REGRESSION_GRAM]
        while len(grams) < 321:
            grams.append(random_symmetric_lattice_gram(rng, rng.randint(1, 6), bound=6))
        with_symbols = 0
        for gram in grams:
            d = discriminant_form(Lattice(gram))
            conj = discriminant_form(Lattice(random_congruent(rng, gram)))
            assert d.odd_symbols == conj.odd_symbols
            assert d == conj
            with_symbols += bool(d.odd_symbols)
        assert with_symbols > 250

    def test_equal_symbols_iff_equal_value_counts(self):
        # Grams of one rank and one det lie in one p-adic genus exactly when
        # their symbols at p agree, and such Grams have equal counts of
        # x G x^T mod p^k. The converse holds on these inputs too, so the
        # symbol is neither coarser nor finer than the counts.
        rng = random.Random(223)
        groups = defaultdict(list)
        drawn = 0
        while drawn < 400:
            n = rng.randint(1, 3)
            gram = random_symmetric_lattice_gram(rng, n, bound=4)
            det = brute_det(gram)
            for p in (3, 5, 7):
                if det % p == 0:
                    groups[n, det, p].append(gram)
                    drawn += 1
        equal = unequal = 0
        for (_, _, p), grams in groups.items():
            symbols = [dict(discriminant_form(Lattice(g)).odd_symbols)[p] for g in grams]
            counts = [[value_counts_mod(g, p, k) for k in (1, 2)] for g in grams]
            for i, j in combinations(range(len(grams)), 2):
                assert (symbols[i] == symbols[j]) == (counts[i] == counts[j])
                equal += symbols[i] == symbols[j]
                unequal += symbols[i] != symbols[j]
        assert equal > 500 and unequal > 100

    def test_diagonal_symbols_match_exactly(self):
        # diag(p^k_i u_i) is its own Jordan decomposition: n_k counts the
        # entries of scale p^k and eps_k tells whether the product of their
        # units is a square mod p
        rng = random.Random(227)
        for _ in range(120):
            p = rng.choice((3, 5, 7, 11, 13))
            scales = [rng.randint(0, 3) for _ in range(rng.randint(1, 5))]
            if not any(scales):
                scales[0] = 1
            units = [rng.choice([u for u in range(-20, 21) if u % p]) for _ in scales]
            gram = [[0] * len(scales) for _ in scales]
            for i, (k, u) in enumerate(zip(scales, units)):
                gram[i][i] = p ** k * u
            expected = tuple(
                (k, scales.count(k),
                 1 if is_square_mod(prod(u for kk, u in zip(scales, units) if kk == k), p)
                 else -1)
                for k in sorted(set(scales)) if k
            )
            for g in (gram, random_congruent(rng, gram)):
                assert dict(discriminant_form(Lattice(g)).odd_symbols)[p] == expected

    def test_full_fraction_profile_is_a_one_way_oracle(self):
        # where the value profiles over the whole group differ, the forms
        # differ; on these inputs equal profiles also mean equal data
        rng = random.Random(229)
        groups = defaultdict(list)
        drawn = 0
        while drawn < 500:
            gram = random_symmetric_lattice_gram(rng, rng.randint(1, 3), bound=4)
            if abs(brute_det(gram)) > 200:
                continue
            d = discriminant_form(Lattice(gram))
            if not d.elementary_divisors:
                continue
            drawn += 1
            full = fraction_value_profile(gram, d.elementary_divisors, d.generators, d.modulus)
            groups[d.elementary_divisors, d.modulus].append((d, full))
        differ = 0
        for items in groups.values():
            for (d1, full1), (d2, full2) in combinations(items, 2):
                assert (d1 == d2) == (full1 == full2)
                differ += full1 != full2
        assert differ > 1000


def _diagonal_fixture(rng, p, top):
    """A unimodular conjugate of diag(p^k u), scales k in [0, top] (one of them top), rank 1-6."""
    n = rng.randint(1, 6)
    scales = [rng.randint(0, top) for _ in range(n)]
    scales[rng.randrange(n)] = top
    return random_congruent(rng, scaled_diagonal(rng, p, scales))


class TestOddSymbolFromTheForm:
    def test_form_symbol_matches_the_whole_gram(self):
        # the symbol read off the m x m form of A_p is the one the same
        # diagonalisation gives on the whole Gram over Z/p^(v+1), v = v_p(det)
        rng = random.Random(233)
        compared = non_cyclic = 0
        top_scale = 0
        for i in range(330):
            if i % 3 == 2:
                gram = random_symmetric_lattice_gram(rng, rng.randint(1, 6), bound=7)
            else:
                gram = _diagonal_fixture(rng, rng.choice((3, 5, 7, 11, 13)), rng.randint(1, 4))
            lat = Lattice(gram)
            d = discriminant_form(lat)
            for p, symbol in d.odd_symbols:
                v = lattice_module._valuation(lat.det, p)
                whole = lattice_module._symbol(
                    ((k, u) for k, u in lattice_module._pivot_units(lat.gram, p, v + 1) if k), p)
                assert symbol == whole
                compared += 1
                m = sum(dv % p == 0 for dv in d.elementary_divisors)
                non_cyclic += m >= 2
                if m >= 2:
                    top_scale = max(top_scale, max(scale for scale, _, _ in symbol))
        assert compared >= 300 and non_cyclic >= 50 and top_scale == 4


class TestStagedComparison:
    def test_equality_reads_no_further_than_the_first_difference(self):
        rng = random.Random(239)
        seen = Counter()
        for j in range(300):
            if j % 3 == 0:
                a = Lattice(random_symmetric_lattice_gram(rng, rng.randint(1, 5), bound=5))
                b = Lattice(random_congruent(rng, a.gram))
            elif j % 3 == 1:
                # a diagonal form and the same with the signs of a scale-p^k
                # entry and a unit entry of opposite sign swapped: equal
                # divisors, parity and signature; the symbol at p changes
                # by (-1 / p), so exactly when p = 3 mod 4
                p = rng.choice((3, 5, 7, 11, 13))
                n = rng.randint(2, 5)
                entries = [p ** rng.randint(1, 3) * rng.choice((1, 2)), -rng.choice((1, 2))]
                entries += [rng.choice((-1, 1)) * p ** rng.randint(0, 2) for _ in range(n - 2)]
                flipped = [-entries[0], -entries[1]] + entries[2:]
                a, b = (Lattice(random_congruent(rng, [[x if i == k else 0 for k in range(n)]
                                                 for i, x in enumerate(es)]))
                        for es in (entries, flipped))
            else:
                # two random Grams of one rank and one signature
                n = rng.randint(1, 4)
                a = Lattice(random_symmetric_lattice_gram(rng, n, bound=3))
                b = a
                while b is a or signature_oracle(b.gram) != signature_oracle(a.gram):
                    b = Lattice(random_symmetric_lattice_gram(rng, n, bound=3))
            ga, gb = genus_of(a), genus_of(b)
            equal = ga == gb
            built = set(vars(ga.disc)) | set(vars(gb.disc))
            full = [(g.rank, g.signature, g.disc.elementary_divisors, g.disc.modulus,
                     g.disc.odd_symbols, g.disc.profile) for g in (ga, gb)]
            assert equal == (full[0] == full[1]) == (genus_of(a) == genus_of(b))
            if equal:
                assert hash(ga) == hash(gb) and hash(ga.disc) == hash(gb.disc)
                seen["equal"] += 1
                continue
            first = next(i for i, (x, y) in enumerate(zip(*full)) if x != y)
            if first <= 3:
                assert not {"odd_symbols", "profile"} & built
            elif first == 4:
                assert "profile" not in built
            seen[("rank", "signature", "divisors", "modulus", "odd symbol", "profile")[first]] += 1
        assert seen["equal"] >= 80 and seen["divisors"] >= 50 and seen["odd symbol"] >= 30


class TestGenusCorpus:
    def test_digest(self):
        # genus records and genus_equal verdicts of a seeded corpus, pinned
        # byte for byte; util.genus_corpus describes the corpus
        assert genus_corpus_digest() == GENUS_CORPUS_SHA256


class TestSignature:
    def test_hyperbolic(self):
        assert U.signature() == (1, 1)

    def test_additivity(self):
        u3 = direct_sum(direct_sum(U, U), U)
        assert u3.signature() == (3, 3)

    def test_negative_definite_rank1(self):
        assert make_standard("rank1", -2).signature() == (0, 1)

    def test_against_char_poly_oracle(self, monkeypatch):
        # ranks 1-8; a third of the Grams have a zero diagonal, so the
        # reduction must create its first pivot by a row+column add. A
        # Gram with every leading minor nonzero takes Jacobi's rule off
        # the determinant elimination and runs no symmetric reduction;
        # any other runs exactly one.
        reductions = []
        original = lattice_module._symmetric_inertia

        def counting(gram):
            reductions.append(gram)
            return original(gram)

        monkeypatch.setattr(lattice_module, "_symmetric_inertia", counting)
        rng = random.Random(41)
        checked = zero_blocks = no_swap = swap = 0
        for k in range(240):
            n = rng.randint(1, 8)
            gram = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    gram[i][j] = gram[j][i] = 0 if k % 3 == 0 and i == j else rng.randint(-5, 5)
            if k % 3 == 1:
                gram = random_congruent(rng, gram)
            if Matrix(gram).det() == 0:
                continue
            minors_nonzero = all(brute_det([row[:i] for row in gram[:i]]) for i in range(1, n + 1))
            lat = Lattice(gram)
            del reductions[:]
            assert lat.signature() == signature_oracle(gram)
            assert len(reductions) == (0 if minors_nonzero else 1)
            checked += 1
            zero_blocks += k % 3 == 0 and n > 1
            no_swap += minors_nonzero
            swap += not minors_nonzero
        assert checked > 120 and zero_blocks > 30
        assert no_swap >= 100 and swap >= 30
        assert Lattice([[0, 2, 1], [2, 0, 3], [1, 3, 0]]).signature() == (1, 2)

    def test_inertia_is_kept_only_without_a_swap(self):
        # kept beside det, outside the fields: no part in == or hashing
        lat = Lattice([[2, 1, 0], [1, 3, 0], [0, 0, -1]])
        assert lat._inertia == (2, 1) == lat.signature()
        assert Lattice(U.gram)._inertia is None and U.signature() == (1, 1)
        assert "_inertia" not in {f.name for f in fields(Lattice)}


class TestGenusAndRendering:
    def test_genus_fields(self):
        g = genus_of(make_standard("U_n", 2))
        assert g.rank == 2 and g.signature == (1, 1) and g.even

    def test_parity_is_read_off_the_discriminant_modulus(self):
        # one record of parity: the q-value modulus, 2 exactly for even forms
        assert [f.name for f in fields(GenusInvariants)] == ["rank", "signature", "disc"]
        rng = random.Random(61)
        parities = set()
        for _ in range(30):
            lattice = Lattice(random_symmetric_lattice_gram(rng, rng.randint(1, 4), bound=3))
            g = genus_of(lattice)
            assert g.even == lattice.is_even() == (g.disc.modulus == 2)
            assert ("even" if g.even else "odd") in g.describe()
            parities.add(g.even)
        assert parities == {True, False}
        assert genus_of(U).describe() == "rank 2, signature (1,1), even, disc divisors []"
        assert genus_of(make_standard("rank1", 3)).describe() == (
            "rank 1, signature (1,0), odd, disc divisors [3]"
        )

    def test_render_golden(self):
        expected = (
            "lattice U\n"
            "rank 2\n"
            "gram 0 1\n"
            "gram 1 0\n"
            "det -1\n"
            "signature 1 1\n"
        )
        assert render_lattice("U", U) == expected


class TestMembershipOracles:
    def test_complement_membership_by_enumeration(self):
        rng = random.Random(97)
        for _ in range(12):
            n = rng.randint(2, 3)
            lat = Lattice(random_symmetric_lattice_gram(rng, n, bound=3))
            k = rng.randint(1, n - 1)
            rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(k)]
            if linalg.rank(rows) < k:
                continue
            s = Sublattice(lat, rows)
            comp = orthogonal_complement(s)
            for v in product(range(-3, 4), repeat=n):
                expected = all(lat.pair(v, row) == 0 for row in s.basis)
                assert contains(comp, v) == expected

    def test_saturation_membership_by_enumeration(self):
        rng = random.Random(89)
        for _ in range(12):
            n = rng.randint(2, 3)
            lat = Lattice(random_symmetric_lattice_gram(rng, n, bound=3))
            rows = [[rng.randint(-2, 2) * 2 for _ in range(n)] for _ in range(1)]
            if linalg.rank(rows) < 1:
                continue
            s = Sublattice(lat, rows)
            sat = saturate(s)
            for v in product(range(-4, 5), repeat=n):
                # v is in the saturation iff some nonzero multiple lies in s
                in_sat = False
                for m in range(1, 5):
                    scaled = tuple(m * x for x in v)
                    if contains(s, scaled):
                        in_sat = True
                        break
                if in_sat:
                    assert contains(sat, v)
                if contains(sat, v):
                    # saturation adds only rational-span points
                    x = contains(s, tuple(12 * c for c in v))
                    assert x


class TestSublatticeValidation:
    def test_dependent_rows_rejected(self):
        with pytest.raises(LatticeError):
            Sublattice(U, ((1, 0), (2, 0)))

    def test_non_integral_rows_rejected(self):
        with pytest.raises(LatticeError):
            Sublattice(U, [[Fraction(1, 2), 0]])
        with pytest.raises(LatticeError):
            Sublattice(U, [[1, 0.5]])
        assert Sublattice(U, [[Fraction(6, 3), 1.0]]).basis == ((2, 1),)

    def test_wrong_width_rejected(self):
        with pytest.raises(LatticeError):
            Sublattice(U, ((1, 0, 0),))

    def test_induced_gram(self):
        s = Sublattice(U, ((1, 1),))
        assert s.gram == ((2,),)

    def test_contains_and_coordinates(self):
        s = Sublattice(U, ((1, 0), (0, 2)))
        assert contains(s, (3, 4))
        assert not contains(s, (0, 1))
        coords, d = s.coordinates_of((3, 4))
        assert tuple(Fraction(c, d) for c in coords) == (Fraction(3), Fraction(2))

    def test_vectors_of_the_wrong_length_rejected(self):
        s = Sublattice(direct_sum(U, U), ((1, 0, 0, 0), (0, 1, 0, 0)))
        assert s.coordinates_of((1, 0, 0, 0)) == ((1, 0), 1)
        for v in ((1, 0), (1, 0, 0, 0, 5), (), []):
            with pytest.raises(LatticeError):
                s.coordinates_of(v)
            with pytest.raises(LatticeError):
                contains(s, v)
        for vectors in ([(1, 0, 0, 0), (1, 0)], [(1, 0), (0, 1)], [(0, 1, 0, 0, 5)]):
            with pytest.raises(LatticeError):
                s.coordinates_of(vectors)
        with pytest.raises(LatticeError):
            contains(Sublattice(U, ()), (0,))
        assert contains(Sublattice(U, ()), (0, 0))

    def test_staircase_bases_next_to_the_rule(self):
        lat = direct_sum(U, U)
        accepted = [
            ((1, 0, 0, 0), (0, 1, 0, 0)),
            ((0, 2, 5, 1), (0, 0, 0, 3)),
            ((0, 1), (1, 0)),  # independent, not a staircase
            ((1, 1, 0, 0), (2, 1, 0, 0), (0, 0, 0, 1)),
        ]
        rejected = [
            ((1, 0, 0, 0), (2, 1, 0, 0), (3, 1, 0, 0)),  # equal leading columns
            ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 0)),  # zero row last
            ((1, 0, 0, 0), (0, 0, 0, 0), (0, 0, 1, 0)),  # zero row in the middle
            ((0, 0, 0, 0),),
            ((0, 1, 0, 0), (0, 2, 0, 0)),
        ]
        for rows in accepted:
            ambient = U if len(rows[0]) == 2 else lat
            assert Sublattice(ambient, rows).basis == rows
        for rows in rejected:
            with pytest.raises(LatticeError, match="linearly independent"):
                Sublattice(lat, rows)

    def test_staircase_rule_against_rank(self, monkeypatch):
        rng = random.Random(2207)
        lat = direct_sum(direct_sum(U, U), U)
        ranks = []
        original = linalg.rank

        def counting(rows):
            ranks.append(rows)
            return original(rows)

        kinds = Counter()
        for _ in range(300):
            k = rng.randint(1, 6)
            rows = [[rng.choice((0, 0, 0, rng.randint(-3, 3))) for _ in range(6)] for _ in range(k)]
            if rng.random() < 0.5:
                rows = linalg.hnf(rows) or rows
            independent = linalg.rank(rows) == len(rows)
            with monkeypatch.context() as patch:
                patch.setattr(linalg, "rank", counting)
                del ranks[:]
                try:
                    Sublattice(lat, rows)
                    accepted = True
                except LatticeError:
                    accepted = False
            assert accepted == independent
            staircase = _staircase(rows)
            assert ranks == ([] if staircase else [tuple(map(tuple, rows))])
            kinds[staircase, independent] += 1
        assert kinds[True, True] > 30 and kinds[False, True] > 10 and kinds[False, False] > 30


def _staircase(rows):
    """Whether each row is nonzero and leads strictly right of the row above."""
    leads = [next((j for j, x in enumerate(row) if x), None) for row in rows]
    return None not in leads and all(a < b for a, b in zip(leads, leads[1:]))


def _random_sublattice(rng, k):
    """A sublattice of rank k in a random nondegenerate lattice of rank k..6."""
    n = rng.randint(k, 6)
    lat = Lattice(random_symmetric_lattice_gram(rng, n, bound=3))
    while True:
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]
        if linalg.rank(rows) == k:
            return Sublattice(lat, rows)


class TestSublatticeKernels:
    def test_several_coordinates_against_solve(self, monkeypatch):
        rng = random.Random(41)
        eliminations = []
        original = linalg.echelon

        def counting(rows):
            eliminations.append(rows)
            return original(rows)

        monkeypatch.setattr(linalg, "echelon", counting)
        for k in range(1, 7):
            for _ in range(4):
                s = _random_sublattice(rng, k)
                # fractional coordinates, a zero vector and a basis row
                coords = [random_rational_vector(rng, k) for _ in range(rng.randint(1, 4))]
                coords += [(0,) * k, tuple(int(i == 0) for i in range(k))]
                rng.shuffle(coords)
                vectors = [tuple(sum(c * row[j] for c, row in zip(cs, s.basis))
                                 for j in range(s.ambient.rank)) for cs in coords]
                del eliminations[:]
                nums, d = s.coordinates_of(vectors)
                assert len(eliminations) == 1
                assert all(type(c) is int for cs in nums for c in cs) and type(d) is int and d
                got = tuple(tuple(Fraction(c, d) for c in cs) for cs in nums)
                assert got == tuple(tuple(Fraction(c, e) for c in x) for x, e in (
                    linalg.solve(linalg.transpose(s.basis), v) for v in vectors))
                assert got == tuple(tuple(Fraction(c) for c in cs) for cs in coords)
                assert got == tuple(tuple(Fraction(c, e) for c in x) for x, e in (
                    s.coordinates_of(v) for v in vectors))
                if k == s.ambient.rank:
                    continue
                outside = next(row for row in linalg.identity(s.ambient.rank)
                               if linalg.rank(list(s.basis) + [row]) > k)
                mixed = list(vectors)
                mixed.insert(rng.randint(0, len(mixed)), outside)
                for arg in (outside, mixed):
                    with pytest.raises(LatticeError) as err:
                        s.coordinates_of(arg)
                    assert str(err.value) == "vector does not lie in the rational span"

    def test_gram_computed_once(self):
        rng = random.Random(43)
        for k in range(1, 7):
            s = _random_sublattice(rng, k)
            fresh = tuple(tuple(naive_pair(s.ambient.gram, a, b) for b in s.basis)
                          for a in s.basis)
            assert s.gram == fresh
            assert s.gram is s.gram
            assert s.as_lattice().gram == fresh
            # the kept matrix takes no part in equality or hashing
            twin = Sublattice(s.ambient, s.basis)
            assert twin == s and hash(twin) == hash(s)
