import random
from collections import Counter
from dataclasses import fields
from fractions import Fraction
from itertools import product
from math import gcd
from types import SimpleNamespace

import pytest

from kummerlat import (
    BField,
    BrauerClass,
    CertificationError,
    KummerModel,
    Lattice,
    LatticeError,
    NonIntegralTwist,
    Sublattice,
    brauer_class_of,
    brauer_equal,
    direct_sum,
    exp_b_embedding,
    generalized_transcendental,
    hodge_lattice,
    kernel_with_coords,
    kummer_bfield,
    make_standard,
    mukai_lattice,
    order_of,
    twisted_period,
    verify_isometry,
)
from kummerlat import linalg
from kummerlat.construction import base_abelian_model, u_plus_u, u_plus_u_period
from kummerlat.kummer import project_coords_on_T
from util import (
    brute_det,
    contains,
    fraction_class_values,
    fraction_kernel_coords,
    fraction_order,
    fraction_projection,
    fraction_same_class,
    fraction_twisted_columns,
    random_class_fixtures,
    random_rational_vector,
    random_sublattice_basis,
    random_symmetric_lattice_gram,
    saturation_exp_b_embedding,
    simple_full_rank_period,
)

U = make_standard("U")


def u_target(b):
    """T(U, B) for the full-rank period on U, the target of exp(B) embeddings from U."""
    return generalized_transcendental(simple_full_rank_period(U), b)


def h0_shifted(mukai):
    """The Mukai form with its h0 diagonal entry set to 2.

    It restricts to the Mukai form on the h0 = 0 plane, where every
    exp(B) image lies, but is another ambient lattice.
    """
    return Lattice([[2] + list(mukai.gram[0][1:])] + [list(r) for r in mukai.gram[1:]])


class TestMukaiLattice:
    def test_h0_h4_pairing(self):
        # <(1,0,0),(0,0,1)> = -1 straight from the pairing formula
        m = mukai_lattice(U).pair((1, 0, 0, 0), (0, 0, 0, 1))
        assert m == -1

    def test_h2_block(self):
        a = (0, 1, 0, 0)
        b = (0, 0, 1, 0)
        assert mukai_lattice(U).pair(a, b) == U.pair((1, 0), (0, 1))

    def test_signature(self):
        u3 = direct_sum(direct_sum(U, U), U)
        assert mukai_lattice(u3).signature() == (4, 4)

    def test_labels(self):
        m = mukai_lattice(U)
        assert m.labels == ("h0", "e", "f", "h4")

    def test_built_once_per_h2_object(self, monkeypatch):
        u3 = direct_sum(direct_sum(U, U), U)
        # one elimination per Lattice construction, counted by its size
        eliminations = []
        original = linalg.echelon

        def counting(rows):
            eliminations.append(len(rows))
            return original(rows)

        monkeypatch.setattr(linalg, "echelon", counting)
        first = mukai_lattice(u3)
        assert mukai_lattice(u3) is first
        assert mukai_lattice(u3).pair((1,) + (0,) * 7, (0,) * 7 + (1,)) == -1
        assert eliminations == [8]
        # an equal lattice is another object, with its own Mukai lattice
        twin = Lattice(u3.gram, u3.labels)
        assert twin == u3 and hash(twin) == hash(u3)
        assert mukai_lattice(twin) == first and mukai_lattice(twin) is not first
        assert eliminations == [8, 6, 8]
        assert "_mukai" not in {f.name for f in fields(Lattice)}


class TestBrauerClassOf:
    def test_zero_field_is_trivial(self):
        alpha = brauer_class_of(BField.zero(U), U.full_sublattice())
        assert order_of(alpha) == 1

    def test_half_e_on_u(self):
        alpha = brauer_class_of(BField(U, (Fraction(1, 2), 0)), U.full_sublattice())
        assert alpha.values == (0, Fraction(1, 2))

    def test_receptacle_fixture(self):
        n = 5
        u2 = u_plus_u()
        alpha = brauer_class_of(
            BField(u2, (0, 0, 0, Fraction(1, n))), u2.full_sublattice()
        )
        assert alpha.values == (0, 0, Fraction(1, n), 0)

    def test_order_examples(self):
        u2 = u_plus_u()
        t = u2.full_sublattice()
        assert order_of(BrauerClass(t, (0, 0, Fraction(1, 4), 0))) == 4
        assert order_of(BrauerClass(t, (Fraction(1, 2), Fraction(1, 3), 0, 0))) == 6


class TestKernel:
    def test_trivial_class_keeps_t(self):
        t = U.full_sublattice()
        alpha = BrauerClass(t, (0, 0))
        assert kernel_with_coords(alpha)[0].basis == ((1, 0), (0, 1))

    def test_order_two_kernel_by_enumeration(self):
        t = U.full_sublattice()
        alpha = BrauerClass(t, (0, Fraction(1, 2)))
        kernel = kernel_with_coords(alpha)[0]
        assert kernel.basis == ((1, 0), (0, 2))
        # oracle: walk U/2U and check which cosets killed the class
        for x, y in product(range(2), repeat=2):
            value = x * alpha.values[0] + y * alpha.values[1]
            assert (value.denominator == 1) == contains(kernel, (x, y))

    def test_receptacle_kernel(self):
        n = 4
        u2 = u_plus_u()
        alpha = BrauerClass(u2.full_sublattice(), (0, 0, Fraction(1, n), 0))
        kernel = kernel_with_coords(alpha)[0]
        assert kernel.basis == ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, n, 0), (0, 0, 0, 1))

    def test_kernel_membership_by_enumeration(self):
        rng = random.Random(43)
        for _ in range(15):
            rank = rng.randint(1, 3)
            lat = Lattice(random_symmetric_lattice_gram(rng, rank))
            t = lat.full_sublattice()
            b = BField(lat, random_rational_vector(rng, rank, max_den=4))
            alpha = brauer_class_of(b, t)
            kernel = kernel_with_coords(alpha)[0]
            for x in product(range(-3, 4), repeat=rank):
                value = sum(Fraction(c) * v for c, v in zip(x, alpha.values))
                assert (value.denominator == 1) == contains(kernel, x)

    def test_index_equals_order_randomized(self):
        rng = random.Random(61)
        for _ in range(60):
            rank = rng.randint(1, 4)
            lat = Lattice(random_symmetric_lattice_gram(rng, rank))
            b = BField(lat, random_rational_vector(rng, rank))
            alpha = brauer_class_of(b, lat.full_sublattice())
            _, coords = kernel_with_coords(alpha)
            index = abs(linalg.det(coords))
            assert index == order_of(alpha)


class TestTwistedPeriod:
    def test_zero_field_embeds_period(self):
        sigma = u_plus_u_period(2)
        phi = twisted_period(sigma, BField.zero(sigma.lattice))
        for s in range(4):
            col = phi.column(s)
            assert col[0] == 0 and col[-1] == 0
            assert col[1:-1] == sigma.column(s)

    def test_h4_component_of_fixture(self):
        n = 3
        sigma = u_plus_u_period(n)
        b = BField(sigma.lattice, (0, 0, 0, Fraction(1, n)))
        phi = twisted_period(sigma, b)
        w1 = sigma.symbols.symbols.index("w1")
        one = sigma.symbols.symbols.index("1")
        assert phi.column(w1)[-1] == 1  # pair(k2/n, n k1) = 1
        assert phi.column(one)[-1] == 0  # pair(k2/n, g1) = 0


class TestGeneralizedTranscendental:
    def test_zero_field_reproduces_t(self):
        n = 2
        sigma = u_plus_u_period(n)
        sub = generalized_transcendental(sigma, BField.zero(sigma.lattice))
        assert sub.rank == 4
        # restricted form equals the plain transcendental form
        assert sub.gram == sigma.lattice.gram

    def test_fixture_span(self):
        n = 3
        sigma = u_plus_u_period(n)
        b = BField(sigma.lattice, (0, 0, 0, Fraction(1, n)))
        sub = generalized_transcendental(sigma, b)
        assert sub.basis == (
            (0, 1, 0, 0, 0, 0),
            (0, 0, 1, 0, 0, 0),
            (0, 0, 0, n, 0, 1),
            (0, 0, 0, 0, 1, 0),
        )

    def test_rank_is_preserved(self):
        rng = random.Random(67)
        for _ in range(20):
            rank = rng.randint(1, 4)
            lat = Lattice(random_symmetric_lattice_gram(rng, rank))
            sigma = simple_full_rank_period(lat)
            b = BField(lat, random_rational_vector(rng, rank))
            assert generalized_transcendental(sigma, b).rank == rank


class TestExpBEmbedding:
    def test_isotropic_vector(self):
        b = BField(U, (Fraction(1, 2), 0))
        alpha = brauer_class_of(b, U.full_sublattice())
        kernel = kernel_with_coords(alpha)[0]
        iso = exp_b_embedding(kernel, b, u_target(b))
        # kernel basis is (e, 2f); images are (0, e, 0) and (0, 2f, 1)
        image_rows = [
            [0] + list(row) + [int(U.pair(row, b.coords))] for row in kernel.basis
        ]
        assert image_rows[0] == [0, 1, 0, 0]
        assert image_rows[1] == [0, 0, 2, 1]
        mukai = mukai_lattice(U)
        assert mukai.pair(image_rows[0], image_rows[1]) == 2 == U.pair((1, 0), (0, 2))
        assert verify_isometry(iso)

    def test_zero_field_is_inclusion(self):
        b = BField.zero(U)
        iso = exp_b_embedding(U.full_sublattice(), b, u_target(b))
        assert iso.matrix == ((1, 0), (0, 1))
        assert iso.target.basis == ((0, 1, 0, 0), (0, 0, 1, 0))

    def test_non_kernel_vector_rejected(self):
        b = BField(U, (Fraction(1, 2), 0))
        with pytest.raises(NonIntegralTwist):
            exp_b_embedding(U.full_sublattice(), b, u_target(b))

    def test_image_saturates_onto_twisted_lattice(self):
        rng = random.Random(71)
        for _ in range(30):
            rank = rng.randint(1, 4)
            lat = Lattice(random_symmetric_lattice_gram(rng, rank))
            sigma = simple_full_rank_period(lat)
            b = BField(lat, random_rational_vector(rng, rank))
            alpha = brauer_class_of(b, lat.full_sublattice())
            kernel = kernel_with_coords(alpha)[0]
            target = generalized_transcendental(sigma, b)
            iso = exp_b_embedding(kernel, b, target)
            assert verify_isometry(iso)
            # Mukai pairing of embedded vectors equals the source pairing
            mukai = mukai_lattice(lat)
            rows = [[0] + list(r) + [int(lat.pair(r, b.coords))] for r in kernel.basis]
            for i, ri in enumerate(rows):
                for j, rj in enumerate(rows):
                    assert mukai.pair(ri, rj) == lat.pair(kernel.basis[i], kernel.basis[j])

    def test_wrong_target_rejected(self):
        b = BField(U, (Fraction(1, 2), 0))
        alpha = brauer_class_of(b, U.full_sublattice())
        kernel = kernel_with_coords(alpha)[0]
        mukai = mukai_lattice(U)
        wrong = Sublattice(mukai, ((1, 0, 0, 0), (0, 1, 0, 0)))
        with pytest.raises(CertificationError, match="not in the span of the target"):
            exp_b_embedding(kernel, b, target=wrong)
        target = u_target(b)
        rows = [list(r) for r in target.basis]
        index_two = Sublattice(mukai, [[2 * x for x in rows[0]]] + rows[1:])
        with pytest.raises(CertificationError, match="not integral over the target basis"):
            exp_b_embedding(kernel, b, index_two)
        with pytest.raises(CertificationError, match="Mukai extension"):
            exp_b_embedding(kernel, b, Sublattice(h0_shifted(mukai), rows))
        # an index-2 kernel embeds with integral coordinates of determinant 2
        smaller = Sublattice(U, [[2 * x for x in kernel.basis[0]]] + [list(kernel.basis[1])])
        with pytest.raises(CertificationError, match="not unimodular"):
            exp_b_embedding(smaller, b, target)

    def test_no_saturation_and_one_elimination(self, monkeypatch):
        b = BField(U, (Fraction(1, 2), 0))
        kernel = kernel_with_coords(brauer_class_of(b, U.full_sublattice()))[0]
        target = u_target(b)
        saturated, solved = [], []
        original_saturation, original_coordinates = linalg.saturation, Sublattice.coordinates_of

        def counting_saturation(rows, ncols):
            saturated.append(rows)
            return original_saturation(rows, ncols)

        def counting_coordinates(s, v):
            solved.append(v)
            return original_coordinates(s, v)

        monkeypatch.setattr(linalg, "saturation", counting_saturation)
        monkeypatch.setattr(Sublattice, "coordinates_of", counting_coordinates)
        iso = exp_b_embedding(kernel, b, target)
        # the certificate is the one coordinate matrix; nothing is saturated
        assert saturated == [] and solved == [[[0, 1, 0, 0], [0, 0, 2, 1]]]
        assert verify_isometry(iso)

    def test_matches_saturation_oracle(self):
        # six targets per fixture: T(X, B), T(X, B') for another B', an
        # index-2 sublattice, a sublattice missing a row, and the rows of
        # T(X, B) over the Mukai lattice with the form negated and with
        # the h0 diagonal entry set to 2; and an index-2 kernel onto T(X, B)
        rng = random.Random(331)
        outcomes = Counter()
        for lat, b, alpha in random_class_fixtures(330, 300):
            sigma = simple_full_rank_period(lat)
            kernel = kernel_with_coords(alpha)[0]
            mukai = mukai_lattice(lat)
            other = BField(lat, random_rational_vector(rng, lat.rank, max_den=6))
            target = generalized_transcendental(sigma, b)
            rows = [list(r) for r in target.basis]
            negated = Lattice([[-x for x in row] for row in mukai.gram])
            smaller = Sublattice(lat, [[2 * x for x in kernel.basis[0]]]
                                 + [list(r) for r in kernel.basis[1:]])
            cases = [(kernel, given) for given in (
                target,
                generalized_transcendental(sigma, other),
                Sublattice(mukai, [[2 * x for x in rows[0]]] + rows[1:]),
                Sublattice(mukai, rows[:-1]),
                Sublattice(negated, rows),
                Sublattice(h0_shifted(mukai), rows),
            )] + [(smaller, target)]
            for source, given in cases:
                results = []
                for embed in (exp_b_embedding, saturation_exp_b_embedding):
                    try:
                        results.append(embed(source, b, given).matrix)
                    except Exception as exc:
                        results.append(type(exc))
                assert results[0] == results[1], (lat.gram, b.coords, source.basis, given.basis)
                outcomes[results[0] if isinstance(results[0], type) else "map"] += 1
        # every kind of outcome is reached
        assert outcomes["map"] >= 300 and outcomes[CertificationError] >= 1500


class TestBrauerEqual:
    def test_reflexive(self):
        b = BField(U, (Fraction(1, 2), 0))
        assert brauer_equal(b, b, U.full_sublattice())

    def test_integral_shift(self):
        b1 = BField(U, (Fraction(1, 2), 0))
        b2 = BField(U, (Fraction(1, 2), 1))
        assert brauer_equal(b1, b2, U.full_sublattice())

    def test_distinct_half_classes(self):
        b1 = BField(U, (Fraction(1, 2), 0))
        b2 = BField(U, (0, Fraction(1, 2)))
        assert not brauer_equal(b1, b2, U.full_sublattice())

    def test_matches_componentwise_class_equality(self):
        rng = random.Random(73)
        for _ in range(40):
            rank = rng.randint(1, 4)
            lat = Lattice(random_symmetric_lattice_gram(rng, rank))
            t = lat.full_sublattice()
            b1 = BField(lat, random_rational_vector(rng, rank))
            b2 = BField(lat, random_rational_vector(rng, rank))
            lhs = brauer_equal(b1, b2, t)
            rhs = brauer_class_of(b1, t).values == brauer_class_of(b2, t).values
            assert lhs == rhs


class TestStoredForm:
    """B-fields and classes as integer numerators over one denominator."""

    def test_floats_strings_and_bad_denominators_rejected(self):
        t = U.full_sublattice()
        for entries in ((0.1, 0), (0.5, 0), ("1/2", 0), (None, 0)):
            with pytest.raises(LatticeError):
                BField(U, entries)
            with pytest.raises(LatticeError):
                BrauerClass(t, entries)
        for den in (0, 2.0, Fraction(2), "2", None):
            with pytest.raises(LatticeError):
                BField(U, (1, 0), den)
            with pytest.raises(LatticeError):
                BrauerClass(t, (1, 0), den)
        with pytest.raises(LatticeError):
            BField(U, (Fraction(1, 2),))
        with pytest.raises(LatticeError):
            BrauerClass(t, (1, 0, 0), 2)

    def test_degenerate_t_is_rejected_by_the_projection(self):
        # T spanned by the isotropic vector e of the first U block
        model = base_abelian_model(2)
        lat = model.h2.lattice
        t = Sublattice(lat, ((1, 0, 0, 0, 0, 0),))
        assert [list(row) for row in t.gram] == [[0]]
        # the projection reads only h2 and T, so a stand-in carries the degenerate T
        degenerate = SimpleNamespace(h2=model.h2, T=t)
        for coords in ((0, Fraction(1, 2), 0, 0, 0, 0), (0,) * 6):
            with pytest.raises(LatticeError, match="restricted form on T is degenerate"):
                project_coords_on_T(degenerate, BField(lat, coords))

    def test_kernels_against_fraction_oracle(self):
        rng = random.Random(2324)
        seen = Counter()
        for i in range(300):
            if i % 10:
                n = rng.randint(1, 5)
                lat = Lattice(random_symmetric_lattice_gram(rng, n, bound=4))
                t = Sublattice(lat, random_sublattice_basis(rng, n))
            else:
                # every tenth T is spanned by an isotropic vector of a U(m)
                # block, so its restricted form is degenerate
                n = rng.randint(2, 5)
                lat = make_standard("U_n", rng.randint(1, 3))
                if n > 2:
                    lat = direct_sum(lat, Lattice(random_symmetric_lattice_gram(rng, n - 2, bound=4)))
                t = Sublattice(lat, ((rng.choice((1, 2, -3)),) + (0,) * (n - 1),))
                assert [list(row) for row in t.gram] == [[0]]
            coords = random_rational_vector(rng, n, max_den=8, max_num=7)
            b = BField(lat, coords)
            assert b.coords == coords and b.den > 0 and gcd(b.den, *b.num) == 1
            assert all(type(x) is int for x in b.num)
            for k in (2, -3, 7):
                twin = BField(lat, [k * x for x in b.num], k * b.den)
                assert (twin.num, twin.den) == (b.num, b.den)
                assert twin == b and hash(twin) == hash(b)

            alpha = brauer_class_of(b, t)
            values = fraction_class_values(coords, t)
            assert alpha.values == values
            assert order_of(alpha) == alpha.den == fraction_order(values)
            assert (order_of(alpha) == 1) == (not any(values))
            assert all(type(x) is int and 0 <= x < alpha.den for x in alpha.num)
            for twin in (
                BrauerClass(t, values),
                BrauerClass(t, [x + rng.randint(-3, 3) * alpha.den for x in alpha.num], alpha.den),
                BrauerClass(t, [-5 * x for x in alpha.num], -5 * alpha.den),
            ):
                assert (twin.num, twin.den) == (alpha.num, alpha.den)
                assert twin == alpha and hash(twin) == hash(alpha)
            seen["trivial" if order_of(alpha) == 1 else "nontrivial"] += 1

            if rng.random() < 0.5:
                other = tuple(x + rng.randint(-2, 2) for x in coords)
            else:
                other = random_rational_vector(rng, n, max_den=8, max_num=7)
            same = brauer_equal(b, BField(lat, other), t)
            assert same == fraction_same_class(coords, other, t)
            seen["same" if same else "different"] += 1

            kernel, kernel_coords = kernel_with_coords(alpha)
            assert kernel_coords == fraction_kernel_coords(values)
            assert abs(brute_det(kernel_coords)) == alpha.den
            for row in kernel_coords:
                assert sum(Fraction(c) * v for c, v in zip(row, values)).denominator == 1

            sigma = simple_full_rank_period(lat)
            assert twisted_period(sigma, b).columns() == fraction_twisted_columns(sigma, coords)

            model = SimpleNamespace(h2=hodge_lattice(lat, sigma), T=t)
            y = fraction_projection(t, coords)
            if y is None:
                with pytest.raises(LatticeError, match="degenerate"):
                    project_coords_on_T(model, b)
                seen["degenerate"] += 1
                continue
            x, d = project_coords_on_T(model, b)
            assert tuple(Fraction(c, d) for c in x) == y
            t_km = t.as_lattice().twist(2)
            km = KummerModel(hodge=hodge_lattice(t_km, simple_full_rank_period(t_km)), pi_star=None)
            assert kummer_bfield(model, km, b).coords == tuple(c / 2 for c in y)
        # every branch is reached: trivial and nontrivial classes, equal and
        # unequal pairs, and degenerate restricted forms
        assert len(seen) == 5 and min(seen.values()) >= 5
