import random
from fractions import Fraction

import pytest

from kummerlat import (
    DIFFER,
    MATCH_OR_UNKNOWN,
    AbelianSurfaceModel,
    BField,
    CertificationError,
    IsometryMap,
    Lattice,
    LatticeError,
    SymbolBasis,
    TwistedSurface,
    brauer_class_of,
    find_hodge_isometry,
    genus_equal,
    hodge_lattice,
    hodge_verdict,
    is_square_ratio,
    kummer_bfield,
    kummer_transcendental,
    direct_sum,
    make_standard,
    order_of,
    period_from_columns,
    t_equivalence,
    transport_isometry,
    twisted_transcendental_model,
    verify_isometry,
)
from kummerlat import isometry as isometry_module, kummer as kummer_module, lattice as lattice_module, linalg
from kummerlat.construction import base_abelian_model, product_bfield, product_abelian_model, u_cubed
from util import (
    frac_mod,
    random_rational_vector,
    random_surface_fixture,
    random_u3_isometry,
    random_unimodular,
    signature_oracle,
    simple_full_rank_period,
)


def u_plane_model():
    """A U^3 model whose transcendental lattice is the first U plane."""
    lat = u_cubed()
    sb = SymbolBasis(("1", "w1", "w2"))
    period = period_from_columns(
        lat, sb, {"w1": (1, 0, 0, 0, 0, 0), "w2": (0, 1, 0, 0, 0, 0)}
    )
    return AbelianSurfaceModel.from_h2(hodge_lattice(lat, period))


def untwisted(model):
    return TwistedSurface(model, BField.zero(model.h2.lattice))


def transformed_model(model, q):
    lat = model.h2.lattice
    period = model.h2.period.map_by(q, lat)
    return AbelianSurfaceModel.from_h2(hodge_lattice(lat, period))


def witness_between(model1, b1, model2, b2, q):
    """The twisted Hodge isometry induced by the ambient isometry q."""
    tw1 = twisted_transcendental_model(model1.h2, b1)
    tw2 = twisted_transcendental_model(model2.h2, b2)
    n = model1.h2.lattice.rank
    mq = [[0] * (n + 2) for _ in range(n + 2)]
    mq[0][0] = mq[n + 1][n + 1] = 1
    for i in range(n):
        for j in range(n):
            mq[1 + i][1 + j] = q[i][j]
    rows = []
    for r in tw1.sub.basis:
        image = linalg.vec_times_mat(r, mq)
        coords, d = tw2.sub.coordinates_of(image)
        assert all(c % d == 0 for c in coords)
        rows.append([c // d for c in coords])
    iso = IsometryMap(
        source=tw1.hodge.lattice,
        target=tw2.hodge.lattice,
        matrix=rows,
        lam=Fraction(1),
        source_period=tw1.hodge.period,
        target_period=tw2.hodge.period,
    )
    verify_isometry(iso)
    return iso


class TestKummerTranscendental:
    def test_u_plane_doubles_to_u2(self):
        km = kummer_transcendental(u_plane_model())
        assert km.T_km.gram == ((0, 2), (2, 0))

    def test_base_model_doubling(self):
        n = 3
        km = kummer_transcendental(base_abelian_model(n))
        assert km.T_km.gram == (
            (0, 2, 0, 0),
            (2, 0, 0, 0),
            (0, 0, 0, 2 * n),
            (0, 0, 2 * n, 0),
        )

    def test_pairing_doubles(self):
        model = base_abelian_model(2)
        km = kummer_transcendental(model)
        t_gram = model.T.gram
        rng = random.Random(5)
        for _ in range(10):
            u = [rng.randint(-3, 3) for _ in range(4)]
            v = [rng.randint(-3, 3) for _ in range(4)]
            assert km.T_km.pair(u, v) == 2 * linalg.pair_with(t_gram, u, v)

    def test_pi_star_certified(self):
        km = kummer_transcendental(base_abelian_model(2))
        assert km.pi_star.scale == 2
        assert verify_isometry(km.pi_star)


def projection(model, b):
    """p(B) in ambient coordinates, as Fractions: its T-coordinates times T's basis."""
    x, d = kummer_module.project_coords_on_T(model, b)
    return tuple(Fraction(c, d) for c in linalg.vec_times_mat(x, model.T.basis))


class TestProjection:
    def test_transcendental_vector_fixed(self):
        model = base_abelian_model(2)
        b = BField(model.h2.lattice, (Fraction(1, 3), 0, 0, 0, 0, 0))  # a1 in T
        assert projection(model, b) == b.coords

    def test_ns_vector_killed(self):
        model = u_plane_model()
        b = BField(model.h2.lattice, (0, 0, Fraction(1, 2), 0, 0, 0))  # a2 in NS
        assert projection(model, b) == (0,) * 6

    def test_linearity_on_random_splits(self):
        rng = random.Random(7)
        model = base_abelian_model(3)
        t_rows = model.T.basis
        ns_rows = model.NS.basis
        for _ in range(20):
            t_part = [Fraction(0)] * 6
            for row in t_rows:
                c = Fraction(rng.randint(-4, 4), rng.randint(1, 5))
                t_part = [a + c * x for a, x in zip(t_part, row)]
            s_part = [Fraction(0)] * 6
            for row in ns_rows:
                c = Fraction(rng.randint(-4, 4), rng.randint(1, 5))
                s_part = [a + c * x for a, x in zip(s_part, row)]
            b = BField(model.h2.lattice, tuple(a + s for a, s in zip(t_part, s_part)))
            assert projection(model, b) == tuple(t_part)


class TestKummerBrauerClass:
    def test_bfield_on_another_lattice_rejected(self):
        # same rank, other form: the projection refuses it on every path
        model = base_abelian_model(2)
        km = kummer_transcendental(model)
        b = BField(model.h2.lattice.twist(-1), (Fraction(1, 3), 0, 0, 0, 0, 0))
        for name in ("km_bfield", "km_brauer", "brauer", "kernel_map", "doubling"):
            with pytest.raises(LatticeError):
                getattr(TwistedSurface(model, b), name)
        with pytest.raises(LatticeError):
            kummer_bfield(model, km, b)
        with pytest.raises(LatticeError):
            projection(model, b)

    def test_zero_field_trivial(self):
        model = base_abelian_model(2)
        beta = untwisted(model).km_brauer
        assert order_of(beta) == 1

    def test_u_plane_half_class(self):
        # doubled-pairing arithmetic: B = e/2 projects to e/4 on the
        # doubled plane and evaluates to 1/2 on f
        model = u_plane_model()
        km = kummer_transcendental(model)
        b = BField(model.h2.lattice, (Fraction(1, 2), 0, 0, 0, 0, 0))
        assert kummer_bfield(model, km, b).coords == (Fraction(1, 4), 0)
        beta = TwistedSurface(model, b).km_brauer
        assert beta.values == (0, Fraction(1, 2))
        assert order_of(beta) == 2

    def test_order_preserved_randomized(self):
        rng = random.Random(11)
        for _ in range(25):
            model, _, _ = random_surface_fixture(rng)
            b = BField(model.h2.lattice, random_rational_vector(rng, 6))
            alpha = brauer_class_of(b, model.T)
            beta = TwistedSurface(model, b).km_brauer
            assert order_of(beta) == order_of(alpha)

    def test_group_homomorphism_on_values(self):
        rng = random.Random(13)
        model = base_abelian_model(2)
        for _ in range(15):
            b1 = BField(model.h2.lattice, random_rational_vector(rng, 6))
            b2 = BField(model.h2.lattice, random_rational_vector(rng, 6))
            bsum = BField(
                model.h2.lattice, tuple(x + y for x, y in zip(b1.coords, b2.coords))
            )
            v1 = TwistedSurface(model, b1).km_brauer.values
            v2 = TwistedSurface(model, b2).km_brauer.values
            vs = TwistedSurface(model, bsum).km_brauer.values
            assert vs == tuple(frac_mod(a + b, 1) for a, b in zip(v1, v2))

    def test_invariant_under_equivalent_bfields(self):
        rng = random.Random(17)
        model = base_abelian_model(3)
        for _ in range(15):
            b = BField(model.h2.lattice, random_rational_vector(rng, 6))
            shift = [rng.randint(-3, 3) for _ in range(6)]
            ns_shift = [Fraction(0)] * 6
            for row in model.NS.basis:
                c = Fraction(rng.randint(-2, 2), rng.randint(1, 4))
                ns_shift = [a + c * x for a, x in zip(ns_shift, row)]
            b2 = BField(
                model.h2.lattice,
                tuple(x + s + t for x, s, t in zip(b.coords, shift, ns_shift)),
            )
            from kummerlat import brauer_equal

            assert brauer_equal(b, b2, model.T)
            assert (TwistedSurface(model, b).km_brauer.values
                    == TwistedSurface(model, b2).km_brauer.values)


class TestInducedKummerIsometry:
    def test_zero_field_identity(self):
        model = base_abelian_model(2)
        iso = untwisted(model).kernel_map
        assert linalg.mat_eq(iso.matrix, linalg.identity(4))
        assert iso.scale == 2
        assert verify_isometry(iso)

    def test_u_plane_half_twist(self):
        model = u_plane_model()
        b = BField(model.h2.lattice, (Fraction(1, 2), 0, 0, 0, 0, 0))
        iso = TwistedSurface(model, b).kernel_map
        assert verify_isometry(iso)
        # kernel of (0, 1/2) on either side is spanned by e and 2f
        assert iso.source.basis == ((1, 0, 0, 0, 0, 0), (0, 2, 0, 0, 0, 0))
        assert iso.target.basis == ((1, 0), (0, 2))

    def test_order_n_fixture(self):
        for n in (2, 3, 5):
            model = product_abelian_model(n)
            iso = TwistedSurface(model, product_bfield(n)).kernel_map
            assert verify_isometry(iso)
            index = abs(linalg.det(iso.matrix))
            assert index == 1  # bases match one to one

    def test_identity_at_scale_two_randomized(self):
        rng = random.Random(23)
        for _ in range(30):
            model, _, _ = random_surface_fixture(rng)
            b = BField(model.h2.lattice, random_rational_vector(rng, 6, max_den=6))
            surface = TwistedSurface(model, b)
            iso = surface.kernel_map
            assert iso.scale == 2 and verify_isometry(iso)
            assert linalg.mat_eq(iso.matrix, linalg.identity(4))
            # the target kernel, read in T-coordinates, is the source kernel
            assert linalg.mat_eq(linalg.matmul(iso.target.basis, model.T.basis), iso.source.basis)
            assert abs(linalg.det(iso.target.basis)) == order_of(surface.brauer)
            values = surface.km_brauer.values
            assert all(sum(c * v for c, v in zip(row, values)).denominator == 1
                       for row in iso.target.basis)

    def test_differing_kernel_bases_rejected(self, monkeypatch):
        surface = TwistedSurface(product_abelian_model(3), product_bfield(3))
        km_lattice = surface.kummer.T_km
        original = kummer_module.kernel_with_coords

        def skewed(alpha):
            sub, coords = original(alpha)
            if alpha.T.ambient == km_lattice:
                coords = [[2 * x for x in coords[0]]] + [list(row) for row in coords[1:]]
            return sub, coords

        monkeypatch.setattr(kummer_module, "kernel_with_coords", skewed)
        with pytest.raises(CertificationError, match="kernel coordinate lattices disagree"):
            surface.kernel_map


class TestDoubling:
    def test_composite_is_certified(self, monkeypatch):
        surface = TwistedSurface(product_abelian_model(3), product_bfield(3))
        original = kummer_module.exp_b_embedding

        def doubled_row(kernel, bfield, target):
            iso = original(kernel, bfield, target)
            if target is not surface.km_twisted.sub:
                return iso
            # an unverified factor whose first row is doubled
            matrix = [[2 * x for x in iso.matrix[0]]] + [list(row) for row in iso.matrix[1:]]
            return IsometryMap(source=iso.source, target=iso.target, matrix=matrix)

        monkeypatch.setattr(kummer_module, "exp_b_embedding", doubled_row)
        with pytest.raises(CertificationError, match="not unimodular"):
            surface.doubling

    def test_one_product_at_scale_two(self):
        surface = TwistedSurface(product_abelian_model(3), product_bfield(3))
        iso = surface.doubling
        assert iso.source is surface.twisted.sub and iso.target is surface.km_twisted.sub
        assert iso.scale == 2 and iso.lam is None and verify_isometry(iso)


class TestTransport:
    def test_identity_fixture(self):
        model = base_abelian_model(2)
        b0 = BField.zero(model.h2.lattice)
        g = witness_between(model, b0, model, b0, linalg.identity(6))
        result = transport_isometry(TwistedSurface(model, b0), TwistedSurface(model, b0), g)
        assert result.paths_agree
        assert linalg.mat_eq(result.map.matrix, linalg.identity(4))
        assert verify_isometry(result.map)

    def test_randomized_octagon_fixtures(self):
        rng = random.Random(19)
        done = 0
        while done < 8:
            model1, _, _ = random_surface_fixture(rng)
            q = random_u3_isometry(rng)
            model2 = transformed_model(model1, q)
            b1 = BField(model1.h2.lattice, random_rational_vector(rng, 6, max_den=4, max_num=3))
            b2 = BField(model2.h2.lattice, tuple(linalg.vec_times_mat(list(b1.coords), q)))
            g = witness_between(model1, b1, model2, b2, q)
            result = transport_isometry(TwistedSurface(model1, b1), TwistedSurface(model2, b2), g)
            assert result.paths_agree
            assert verify_isometry(result.map)
            assert result.map.lam is not None and result.map.lam == g.lam
            done += 1

    def test_negated_doubling_breaks_path_agreement(self, monkeypatch):
        rng = random.Random(23)
        model1, _, _ = random_surface_fixture(rng)
        q = random_u3_isometry(rng)
        model2 = transformed_model(model1, q)
        b1 = BField(model1.h2.lattice, random_rational_vector(rng, 6, max_den=4, max_num=3))
        b2 = BField(model2.h2.lattice, tuple(linalg.vec_times_mat(list(b1.coords), q)))
        g = witness_between(model1, b1, model2, b2, q)
        surface1, surface2 = TwistedSurface(model1, b1), TwistedSurface(model2, b2)
        down = surface2.doubling
        negated = IsometryMap(source=down.source, target=down.target,
                              matrix=[[-x for x in row] for row in down.matrix], scale=down.scale)
        verify_isometry(negated)
        monkeypatch.setitem(vars(surface2), "doubling", negated)
        result = transport_isometry(surface1, surface2, g)
        # the composite is still a certified Hodge isometry, at scalar -lambda(g)
        assert verify_isometry(result.map) and result.map.lam == -g.lam
        assert not result.paths_agree
        # the two matrix paths agree by associativity whatever the doubling maps are
        top = linalg.matmul(g.matrix, negated.matrix)
        bottom = linalg.matmul(surface1.doubling.matrix, result.map.matrix)
        assert top == bottom


class TestTEquivalence:
    def test_self_equivalence(self):
        surface = untwisted(base_abelian_model(2))
        verdict = t_equivalence(surface, surface, bound=2)
        assert verdict.kind == "equivalent"
        assert verify_isometry(verdict.witness)

    def test_refuted_by_discriminant(self):
        verdict = t_equivalence(
            untwisted(base_abelian_model(2)), untwisted(product_abelian_model(1)), bound=2
        )
        assert verdict.kind == "refuted"
        assert "disc divisors [2, 2]" in verdict.reason

    def test_refutation_builds_one_form_per_side(self, monkeypatch):
        calls = []
        original = lattice_module.discriminant_form

        def counting(lat):
            calls.append(lat)
            return original(lat)

        monkeypatch.setattr(lattice_module, "discriminant_form", counting)
        verdict = t_equivalence(
            untwisted(base_abelian_model(2)), untwisted(product_abelian_model(1)), bound=2
        )
        assert verdict.kind == "refuted"
        assert len(calls) == 2

    def test_verdicts_compute_no_display_data(self, monkeypatch):
        # q_values and pairings are read only by the disc command
        forms = []
        original = lattice_module.discriminant_form

        def keeping(lat):
            forms.append(original(lat))
            return forms[-1]

        monkeypatch.setattr(lattice_module, "discriminant_form", keeping)
        a, ef = untwisted(base_abelian_model(2)), product_abelian_model(2)
        for other, kind in ((untwisted(ef), "refuted"),
                            (TwistedSurface(ef, product_bfield(2)), "equivalent"),
                            (a, "equivalent")):
            assert t_equivalence(a, other, bound=2).kind == kind
        assert genus_equal(make_standard("U"), make_standard("U_n", 2)) == DIFFER
        assert genus_equal(make_standard("U_n", 6), make_standard("U_n", 6)) == MATCH_OR_UNKNOWN
        assert len(forms) == 10
        assert all(not {"q_values", "pairings"} & set(vars(d)) for d in forms)
        assert forms[-1].q_values == (0, 0) and "q_values" in vars(forms[-1])

    def test_twisted_equivalence_found(self):
        for n in (2, 4):
            a = untwisted(base_abelian_model(n))
            ef1 = TwistedSurface(product_abelian_model(n), product_bfield(n))
            verdict = t_equivalence(a, ef1, bound=3)
            assert verdict.kind == "equivalent"
            assert verdict.witness.lam != 0

    def test_symmetry(self):
        a = untwisted(base_abelian_model(2))
        ef = untwisted(product_abelian_model(1))
        ef1 = TwistedSurface(product_abelian_model(2), product_bfield(2))
        assert t_equivalence(a, ef, 2).kind == "refuted"
        assert t_equivalence(ef, a, 2).kind == "refuted"
        fwd = t_equivalence(a, ef1, 3)
        rev = t_equivalence(ef1, a, 3)
        assert fwd.kind == rev.kind == "equivalent"

    def test_inconclusive_is_surfaced(self):
        # same lattice genus, but the periods live on unrelated symbol
        # bases, so no bounded search can connect them
        model1 = base_abelian_model(2)
        lat = model1.h2.lattice
        other = SymbolBasis(("1", "v1", "v2", "v1v2"), (("v1", "v2", (("v1v2", 1),)),))
        period2 = period_from_columns(
            lat,
            other,
            {
                "1": (1, 0, 0, 0, 0, 0),
                "v1": (0, 0, 1, 0, 0, 0),
                "v2": (0, 0, 0, 2, 1, 0),
                "v1v2": (0, -2, 0, 0, 0, 0),
            },
        )
        model2 = AbelianSurfaceModel.from_h2(hodge_lattice(lat, period2))
        verdict = t_equivalence(untwisted(model1), untwisted(model2), bound=2)
        assert verdict.kind == "inconclusive"
        assert "not a proof" in verdict.reason

    def test_bound_validation(self):
        surface = untwisted(base_abelian_model(2))
        with pytest.raises(LatticeError):
            t_equivalence(surface, surface, bound=0)


class TestMissCauses:
    """Same-genus pairs with no rational-scalar Hodge isometry, one per failing step.

    Each pair is the hyperbolic plane U twice, the source period spanning
    it; the target period is the source's moved by a rational map that
    is not an integral isometry, so the closed form fails at one step and
    the verdict stays inconclusive with that step in its reason.
    """

    SYMBOLS = SymbolBasis(("1", "s", "t"))

    def pair(self, source, target, symbols=SYMBOLS, lattices=(None, None)):
        l1, l2 = (lat or make_standard("U") for lat in lattices)
        return (hodge_lattice(l1, period_from_columns(l1, symbols, source)),
                hodge_lattice(l2, period_from_columns(l2, symbols, target)))

    def moved(self, m):
        """The spanning source period and its image under the row map m."""
        source = {"s": (1, 0), "t": (0, 1)}
        return self.pair(source, {"s": tuple(m[0]), "t": tuple(m[1])})

    def assert_miss(self, h1, h2, cause):
        verdict = hodge_verdict(h1, h2, bound=3)
        assert verdict.kind == "inconclusive"
        assert cause in verdict.reason
        assert verdict.reason.endswith("; not a proof of non-isometry")
        assert find_hodge_isometry(h1, h2, 3) is None

    def test_solve(self):
        # the third column is the sum of the first two on one side only
        symbols = SymbolBasis(("1", "s", "t", "u"))
        h1, h2 = self.pair({"s": (1, 0), "t": (0, 1), "u": (1, 1)},
                           {"s": (1, 0), "t": (0, 1), "u": (1, -1)}, symbols)
        self.assert_miss(h1, h2, "no rational map carries the source period onto the target period")

    def test_gram_not_proportional(self):
        self.assert_miss(*self.moved([[1, 1], [0, 1]]), "pulls the target form back to no multiple")

    def test_not_a_rational_square(self):
        self.assert_miss(*self.moved([[2, 0], [0, 1]]), "lambda^2 = 1/2 is not a rational square")

    def test_not_integral(self):
        half = Fraction(1, 2)
        self.assert_miss(*self.moved([[2, 0], [0, half]]), "+-lambda*M0 is not integral")

    def test_not_unimodular(self):
        # no same-genus pair reaches this step: a Gram-preserving integral
        # map between forms of equal |det| is unimodular; U(4) -> U is one
        h1, h2 = self.pair({"s": (1, 0), "t": (0, 1)}, {"s": (2, 0), "t": (0, 2)},
                           lattices=(make_standard("U_n", 4), None))
        assert find_hodge_isometry(h1, h2, 3) is None
        assert "+-lambda*M0 is not unimodular: det = 4" in isometry_module._hodge_witness(h1, h2, 3)[2]
        assert hodge_verdict(h1, h2).kind == "refuted"

    def test_witness_runs_once_per_verdict(self, monkeypatch):
        # a period that does not span falls back to the bounded search; the
        # verdict reads its reason from the same run instead of a second one
        calls = []
        real = isometry_module._hodge_witness

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(isometry_module, "_hodge_witness", counting)
        h1, h2 = self.pair({"s": (1, 0)}, {"s": (1, 1)}, SymbolBasis(("1", "s")))
        verdict = hodge_verdict(h1, h2, bound=3)
        assert verdict.kind == "inconclusive"
        assert verdict.reason == "no witness with entries bounded by 3; not a proof of non-isometry"
        assert len(calls) == 1
        del calls[:]
        verdict = hodge_verdict(*self.moved([[2, 0], [0, 1]]), bound=3)
        assert verdict.kind == "inconclusive" and len(calls) == 1

    def test_moved_by_an_isometry_is_found(self):
        # the same construction with an integral isometry of U is decided
        h1, h2 = self.moved([[0, -1], [-1, 0]])
        verdict = hodge_verdict(h1, h2, bound=1)
        assert verdict.kind == "equivalent"
        assert verdict.witness.matrix == ((0, -1), (-1, 0)) and verdict.witness.lam == 1


def _model_on(gram):
    lat = Lattice(gram)
    return AbelianSurfaceModel.from_h2(hodge_lattice(lat, simple_full_rank_period(lat)))


class TestFromH2:
    """from_h2 checks rank 6 and even unimodularity; the signature (3, 3) follows."""

    def test_rejections_keep_their_messages(self):
        odd = [[(1 if i < 3 else -1) if i == j else 0 for j in range(6)] for i in range(6)]
        u = make_standard("U")
        scaled = direct_sum(direct_sum(u, u), make_standard("U_n", 2)).gram
        rank5 = direct_sum(direct_sum(u, u), make_standard("rank1", 2)).gram
        for gram, message in ((odd, "H2 form must be even unimodular of signature (3,3)"),
                              (scaled, "H2 form must be even unimodular of signature (3,3)"),
                              (rank5, "abelian-surface H2 must have rank 6")):
            with pytest.raises(LatticeError) as err:
                _model_on(gram)
            assert str(err.value) == message
        assert signature_oracle(odd) == (3, 3)

    def test_unimodular_conjugates_of_u3_accepted_without_a_reduction(self, monkeypatch):
        def refuse(gram):
            raise AssertionError("symmetric reduction run")

        monkeypatch.setattr(lattice_module, "_symmetric_inertia", refuse)
        rng = random.Random(331)
        g = u_cubed().gram
        for k in range(40):
            q = random_u3_isometry(rng) if k % 2 else random_unimodular(rng, 6, shears=5, cap=4)
            gram = linalg.matmul(linalg.matmul(q, g), linalg.transpose(q))
            assert signature_oracle(gram) == (3, 3)
            assert _model_on(gram).h2.lattice.gram == tuple(map(tuple, gram))
        for _ in range(10):
            model, _, _ = random_surface_fixture(rng)
            assert model.h2.lattice.gram == g


class TestSquareRatio:
    def test_truth_table(self):
        assert is_square_ratio(6, 24)
        assert not is_square_ratio(2, 6)

    def test_randomized_square_multiples(self):
        rng = random.Random(23)
        for _ in range(50):
            q = rng.randint(1, 12)
            m = rng.choice([x for x in range(-12, 13) if x])
            assert is_square_ratio(q * q * m, m)

    def test_sign_mismatch(self):
        assert not is_square_ratio(-2, 2)
        assert is_square_ratio(-2, -2)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            is_square_ratio(0, 3)
