import random
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings, strategies as st

from kummerlat import (
    BField,
    BrauerClass,
    CertificationError,
    H1Frame,
    IsometryMap,
    Lattice,
    LatticeError,
    MATCH_OR_UNKNOWN,
    PeriodVector,
    Sublattice,
    SymbolBasis,
    TwistedSurface,
    UndeclaredProduct,
    brauer_class_of,
    brauer_equal,
    direct_sum,
    exp_b_embedding,
    find_isometry,
    generalized_transcendental,
    genus_equal,
    hodge_lattice,
    kernel_with_coords,
    kummer_bfield,
    kummer_transcendental,
    make_standard,
    omega_symbols,
    order_of,
    orthogonal_complement,
    period_from_columns,
    period_pairing,
    period_scalar,
    restrict_period,
    transcendental_lattice,
    twisted_period,
    wedge_square_lattice,
    wedge_square_map,
)
from kummerlat import linalg
from kummerlat.linalg import scalar_ratio
from kummerlat.construction import (
    base_abelian_model,
    product_abelian_model,
    quotient_pullback_matrix,
    quotient_surface_hodge,
    u_plus_u,
    u_plus_u_period,
)
from util import (
    contains,
    fraction_period_pairing,
    fractions_built,
    random_rational_vector,
    random_surface_fixture,
    random_symmetric_lattice_gram,
    random_u3_isometry,
    simple_full_rank_period,
)

theta_entries = st.lists(
    st.lists(st.integers(-3, 3), min_size=4, max_size=4), min_size=4, max_size=4
)


class TestSymbolBasis:
    def test_identity_products_are_implicit(self):
        sb = omega_symbols()
        assert sb.product("1", "w1") == {"w1": Fraction(1)}
        assert sb.product("w1w2", "1") == {"w1w2": Fraction(1)}

    def test_declared_product(self):
        sb = omega_symbols()
        assert sb.product("w1", "w2") == {"w1w2": Fraction(1)}
        assert sb.product("w2", "w1") == {"w1w2": Fraction(1)}

    def test_undeclared_product_raises_with_fields(self):
        sb = omega_symbols()
        with pytest.raises(UndeclaredProduct) as exc:
            sb.product("w1", "w1")
        assert exc.value.left == "w1" and exc.value.right == "w1"

    def test_must_contain_one(self):
        with pytest.raises(LatticeError):
            SymbolBasis(("w1", "w2"))

    def test_conflicting_declarations_rejected(self):
        with pytest.raises(LatticeError):
            SymbolBasis(
                ("1", "a", "b"),
                (("a", "b", (("a", 1),)), ("b", "a", (("b", 1),))),
            )

    def test_floats_and_strings_rejected_in_exact_inputs(self):
        # product coefficients, period scale factors and isometry scalars
        # take ints and Fractions only; a float used to be stored as its
        # binary expansion and a string was parsed
        for bad in (0.1, "1/3", 1.0):
            with pytest.raises(LatticeError):
                SymbolBasis(("1", "a", "b"), (("a", "a", (("b", bad),)),))
        lat = make_standard("U")
        sigma = period_from_columns(lat, SymbolBasis(("1", "s")), {"1": (1, 0), "s": (0, 1)})
        for bad in (0.1, "1/2", 2.0):
            with pytest.raises(LatticeError):
                sigma.scaled(bad)
        identity = ((1, 0), (0, 1))
        for bad in (0.1, "1/3", 1.0):
            with pytest.raises(CertificationError):
                IsometryMap(lat, lat, identity, lam=bad)
        sb = SymbolBasis(("1", "a", "b"), (("a", "a", (("b", Fraction(1, 3)), ("1", 2))),))
        assert sb.product("a", "a") == {"b": Fraction(1, 3), "1": 2}
        assert sigma.scaled(Fraction(1, 2)).den == 2 and sigma.scaled(-3).num[1] == (0, -3)
        assert IsometryMap(lat, lat, identity, lam=2).lam == 2
        assert IsometryMap(lat, lat, identity, lam=Fraction(1, 3)).lam == Fraction(1, 3)

    def test_identity_declarations_must_match_identity(self):
        with pytest.raises(LatticeError):
            SymbolBasis(("1", "a"), (("1", "a", (("a", 2),)),))
        # a redundant but correct identity declaration is accepted
        sb = SymbolBasis(("1", "a"), (("1", "a", (("a", 1),)),))
        assert sb.product("1", "a") == {"a": Fraction(1)}


class TestWedgeSquareLattice:
    def test_complementary_pair_signs(self):
        lat = wedge_square_lattice(H1Frame(("dx1", "dx2", "dy1", "dy2")))
        labels = lat.labels
        i = labels.index("dx1^dx2")
        j = labels.index("dy1^dy2")
        assert lat.gram[i][j] == 1
        k = labels.index("dx1^dy1")
        l = labels.index("dx2^dy2")
        assert lat.gram[k][l] == -1

    def test_repeated_factor_pairs_to_zero(self):
        lat = wedge_square_lattice(H1Frame(("dx1", "dx2", "dy1", "dy2")))
        labels = lat.labels
        k = labels.index("dx1^dy1")
        l = labels.index("dx1^dy2")
        assert lat.gram[k][l] == 0

    def test_isometric_to_u_cubed(self):
        lat = wedge_square_lattice(H1Frame(("a", "b", "c", "d")))
        u3 = direct_sum(direct_sum(make_standard("U"), make_standard("U")), make_standard("U"))
        assert genus_equal(lat, u3) == MATCH_OR_UNKNOWN
        witness = find_isometry(lat, u3, 1)
        assert witness is not None

    def test_orientation_flips_signs(self):
        plain = wedge_square_lattice(H1Frame(("a", "b", "c", "d")))
        flipped = wedge_square_lattice(
            H1Frame(("a", "b", "c", "d"), orientation=("b", "a", "c", "d"))
        )
        assert flipped.gram[0][5] == -plain.gram[0][5]


class TestWedgeSquareMap:
    def test_identity(self):
        w = wedge_square_map(linalg.identity(4))
        assert linalg.mat_eq(w, linalg.identity(6))

    def test_quotient_pullback_row(self):
        n = 3
        w = wedge_square_map(quotient_pullback_matrix(n))
        # dz1^dz2 (source pair index 0) maps to n dx1^dx2
        assert w[0] == [n, 0, 0, 0, 0, 0]

    def test_singular_rejected(self):
        with pytest.raises(LatticeError):
            wedge_square_map([[0] * 4] * 4)

    @settings(max_examples=50)
    @given(theta_entries, theta_entries)
    def test_functorial(self, a, b):
        if linalg.det(a) == 0 or linalg.det(b) == 0:
            return
        lhs = wedge_square_map(linalg.matmul(a, b))
        rhs = linalg.matmul(wedge_square_map(a), wedge_square_map(b))
        assert linalg.mat_eq(lhs, rhs)

    @settings(max_examples=50)
    @given(theta_entries)
    def test_respects_pairings_up_to_det(self, theta):
        if linalg.det(theta) == 0:
            return
        src = wedge_square_lattice(H1Frame(("s1", "s2", "s3", "s4")))
        tgt = wedge_square_lattice(H1Frame(("t1", "t2", "t3", "t4")))
        w = wedge_square_map(theta)
        rng = random.Random(99)
        for _ in range(5):
            a = [rng.randint(-2, 2) for _ in range(6)]
            b = [rng.randint(-2, 2) for _ in range(6)]
            ia = linalg.vec_times_mat(a, w)
            ib = linalg.vec_times_mat(b, w)
            assert tgt.pair(ia, ib) == linalg.det(theta) * src.pair(a, b)


def pairing_outcome(pair, sigma, tau):
    """("value", the pairing) or ("raised", the undeclared pair) of pair(sigma, tau)."""
    try:
        return "value", pair(sigma, tau)
    except UndeclaredProduct as e:
        return "raised", (e.left, e.right)


class TestPeriodPairing:
    def test_base_model_period_is_isotropic(self):
        sigma = u_plus_u_period(3)
        assert period_pairing(sigma, sigma) == {}

    def test_product_period_is_isotropic(self):
        h = product_abelian_model(2).h2
        assert period_pairing(h.period, h.period) == {}

    def test_single_symbol_error_path(self):
        sb = SymbolBasis(("1", "w1"))
        sigma = period_from_columns(make_standard("rank1", 2), sb, {"w1": (1,)})
        with pytest.raises(UndeclaredProduct):
            period_pairing(sigma, sigma)

    def test_matches_fraction_oracle_on_surface_and_twisted_periods(self):
        rng = random.Random(1515)
        outcomes = set()
        for _ in range(6):
            model, _, _ = random_surface_fixture(rng)
            bfield = BField(model.h2.lattice, random_rational_vector(rng, 6, max_den=4, max_num=3))
            surface = TwistedSurface(model, bfield)
            for h in (model.h2, surface.twisted.hodge, surface.km_twisted.hodge):
                sigma = h.period
                tau = sigma.scaled(Fraction(rng.randint(1, 5), rng.randint(1, 5)))
                for left, right in ((sigma, sigma), (sigma, tau), (tau, sigma)):
                    assert period_pairing(left, right) == fraction_period_pairing(left, right) == {}
                # the columns moved one symbol on pair to nonzero values: over
                # omega_symbols some product is undeclared, over a full table
                # with rational coefficients every one is declared
                cols = sigma.columns()
                names = sigma.symbols.symbols
                full = SymbolBasis(names, products=tuple(
                    (a, b, (("1", Fraction(k + 1, 2)), (b, -1)))
                    for k, (a, b) in enumerate(combinations_with_replacement(names[1:], 2))))
                for basis in (sigma.symbols, full):
                    rotated = period_from_columns(sigma.lattice, basis,
                                                  {s: cols[k - 1] for k, s in enumerate(names)})
                    again = period_from_columns(sigma.lattice, basis, dict(zip(names, cols)))
                    for left, right in ((rotated, rotated), (again, rotated), (rotated, again)):
                        outcome = pairing_outcome(fraction_period_pairing, left, right)
                        assert pairing_outcome(period_pairing, left, right) == outcome
                        outcomes.add(outcome[0])
        assert outcomes == {"raised", "value"}

    def test_rational_products_match_fraction_oracle(self):
        # rational product coefficients; c * c and b * c are left undeclared
        sb = SymbolBasis(
            ("1", "a", "b", "c"),
            products=(
                ("a", "a", (("1", Fraction(1, 3)), ("b", Fraction(-2, 5)))),
                ("a", "b", (("c", Fraction(3, 7)),)),
                ("b", "b", (("1", 2),)),
                ("a", "c", (("a", Fraction(5, 2)), ("c", -1))),
            ),
        )
        rng = random.Random(1516)
        outcomes = set()
        for _ in range(150):
            lat = Lattice(random_symmetric_lattice_gram(rng, rng.randint(1, 4), bound=3))

            def period():
                cols = {s: random_rational_vector(rng, lat.rank, max_den=4, max_num=3)
                        for s in sb.symbols if rng.random() < 0.6}
                cols["1"] = random_rational_vector(rng, lat.rank, max_den=4, max_num=3)
                if not any(x for col in cols.values() for x in col):
                    cols["1"] = (1,) + (0,) * (lat.rank - 1)
                return period_from_columns(lat, sb, cols)

            sigma, tau = period(), period()
            for left, right in ((sigma, sigma), (sigma, tau)):
                outcome = pairing_outcome(fraction_period_pairing, left, right)
                assert pairing_outcome(period_pairing, left, right) == outcome
                outcomes.add(outcome[0])
        assert outcomes == {"raised", "value"}

    def test_undeclared_product_raises_only_on_nonzero_pairing(self):
        sb = SymbolBasis(("1", "a", "b"))  # no product of a and b is declared
        u = make_standard("U")
        # a and b both sit on the isotropic e1: every a/b pairing vanishes
        sigma = period_from_columns(u, sb, {"1": (0, 1), "a": (1, 0), "b": (2, 0)})
        assert period_pairing(sigma, sigma) == fraction_period_pairing(sigma, sigma)
        assert period_pairing(sigma, sigma) == {"a": 2, "b": 4}
        tau = period_from_columns(u, sb, {"a": (1, 0), "b": (0, Fraction(1, 3))})
        with pytest.raises(UndeclaredProduct) as raised:
            period_pairing(tau, tau)
        assert {raised.value.left, raised.value.right} == {"a", "b"}
        with pytest.raises(UndeclaredProduct):
            fraction_period_pairing(tau, tau)

    def test_cleared_columns(self):
        u, sb = make_standard("U"), SymbolBasis(("1", "a"))
        sigma = period_from_columns(u, sb, {"1": (Fraction(1, 2), 0), "a": (Fraction(-2, 3), 1)})
        assert (sigma.num, sigma.den) == (((3, 0), (-4, 6)), 6)
        assert sigma.columns() == [(Fraction(1, 2), 0), (Fraction(-2, 3), 1)]
        # the same period over k * den, a negative den included, is
        # brought to lowest terms: equal, with one hash
        for k in (2, 5, -1, -7):
            other = PeriodVector(u, sb, [[k * x for x in col] for col in sigma.num], k * sigma.den)
            assert (other.num, other.den) == (sigma.num, sigma.den)
            assert other == sigma and hash(other) == hash(sigma)
        with pytest.raises(LatticeError):
            PeriodVector(u, sb, sigma.num, 0)
        with pytest.raises(LatticeError):
            PeriodVector(u, sb, ((Fraction(1, 2), 0), (0, 1)))
        # rejected although the product with sigma's columns is integral
        with pytest.raises(LatticeError):
            sigma.map_by(((0, 1), (Fraction(1, 2), 0)), u)
        with pytest.raises(LatticeError):
            sigma.map_by(((0, 1),), u)

    def test_nonisotropic_period_rejected_when_checkable(self):
        sigma = period_from_columns(
            make_standard("U"), omega_symbols(), {"1": (1, 1)}
        )
        with pytest.raises(LatticeError):
            hodge_lattice(make_standard("U"), sigma)


class TestPeriodVector:
    def test_period_from_columns_rejects_unknown_symbols_and_lengths(self):
        u = make_standard("U")
        for columns in ({"1": (1, 0, 7), "w3": (5, 5)}, {"1": (1, 0), "w3": (5, 5)},
                        {"1": (1, 0, 7)}, {"w1": (1,)}, {"w1": ()}):
            with pytest.raises(LatticeError):
                period_from_columns(u, omega_symbols(), columns)
        sigma = period_from_columns(u, omega_symbols(), {"w2": (Fraction(1, 2), 3)})
        assert sigma.columns() == [(0, 0), (0, 0), (Fraction(1, 2), 3), (0, 0)]

    def test_integer_kernels_build_no_fraction(self, monkeypatch):
        assert fractions_built(monkeypatch, lambda: Fraction(1, 2) + Fraction(1, 3)) >= 3
        model = base_abelian_model(3)
        sigma = model.h2.period
        lat, sb, num = sigma.lattice, sigma.symbols, [list(col) for col in sigma.num]
        rational = (Fraction(1, 2), 0, Fraction(-1, 3), 0, 0, 1)
        bfield = BField(lat, rational)
        other = BField(lat, (0, Fraction(1, 4), 0, 0, Fraction(2, 3), 0))
        p = random_u3_isometry(random.Random(21))
        phi = twisted_period(sigma, bfield)
        assert phi.den > 1
        h_phi = hodge_lattice(phi.lattice, phi)
        t = model.T
        alpha = brauer_class_of(bfield, t)
        assert alpha.den > 1
        kernel = kernel_with_coords(alpha)[0]
        target = generalized_transcendental(sigma, bfield)
        basis_t = linalg.transpose(t.basis)
        km = kummer_transcendental(model)
        work = [
            lambda: PeriodVector(lat, sb, num),
            lambda: PeriodVector(lat, sb, [[4 * x for x in col] for col in num], -8),
            lambda: period_from_columns(lat, sb, dict(zip(sb.symbols, num))),
            lambda: sigma.map_by(p, lat),
            lambda: twisted_period(sigma, bfield),
            lambda: transcendental_lattice(model.h2),
            lambda: transcendental_lattice(h_phi),
            lambda: period_pairing(sigma, sigma),
            lambda: period_pairing(phi, phi),
            lambda: linalg.solve(basis_t, sigma.num[1]),
            lambda: linalg.solve(basis_t, linalg.transpose(sigma.num)),
            lambda: t.coordinates_of(sigma.num),
            lambda: contains(t, sigma.num[1]),
            lambda: restrict_period(t, sigma),
            lambda: restrict_period(target, phi),
            lambda: exp_b_embedding(kernel, bfield, target),
            lambda: linalg.invert_unimodular(p),
            lambda: Sublattice(lat, t.basis),
            lambda: Sublattice(lat, p),
            lambda: BField(lat, (3, 0, -2, 0, 0, 6), -6),
            lambda: BField(lat, rational),
            lambda: BrauerClass(t, (7, -1, 0, 3), 6),
            lambda: brauer_class_of(bfield, t),
            lambda: brauer_equal(bfield, other, t),
            lambda: kernel_with_coords(alpha),
            lambda: order_of(alpha),
            lambda: kummer_bfield(model, km, bfield),
        ]
        assert [fractions_built(monkeypatch, w) for w in work] == [0] * len(work)


class TestTranscendental:
    def test_product_surface_span(self):
        h = product_abelian_model(1).h2
        t = transcendental_lattice(h)
        assert t.basis == (
            (0, 1, 0, 0, 0, 0),
            (0, 0, 1, 0, 0, 0),
            (0, 0, 0, 1, 0, 0),
            (0, 0, 0, 0, 1, 0),
        )

    def test_full_support_gives_full_lattice(self):
        lat = make_standard("U_n", 2)
        h = hodge_lattice(lat, simple_full_rank_period(lat))
        t = transcendental_lattice(h)
        assert t.basis == ((1, 0), (0, 1))

    def test_quotient_surface_span(self):
        n = 4
        h = quotient_surface_hodge(n)
        t = transcendental_lattice(h)
        assert t.basis == (
            (1, 0, 0, -n, 0, 0),
            (0, 1, 0, 0, 0, 0),
            (0, 0, 1, 0, 0, 0),
            (0, 0, 0, 0, 1, 0),
        )

    def test_transcendental_is_primitive(self):
        for model in (product_abelian_model(3), base_abelian_model(2)):
            t = model.T
            from kummerlat import saturate

            assert saturate(t).basis == t.basis


class TestNeronSeveri:
    def test_product_surface(self):
        h = product_abelian_model(1).h2
        ns = orthogonal_complement(transcendental_lattice(h))
        assert ns.rank == 2
        assert ns.basis == ((1, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 1))

    def test_quotient_surface(self):
        n = 3
        ns = orthogonal_complement(transcendental_lattice(quotient_surface_hodge(n)))
        assert ns.rank == 2
        assert ns.basis == ((1, 0, 0, 0, 0, 0), (0, 0, 1, 0, 0, n))
        witness = find_isometry(ns.as_lattice(), make_standard("U_n", n), 3)
        assert witness is not None

    def test_full_rank_transcendental_means_no_ns(self):
        lat = make_standard("U_n", 2)
        h = hodge_lattice(lat, simple_full_rank_period(lat))
        ns = orthogonal_complement(transcendental_lattice(h))
        assert ns.rank == 0 and ns.basis == ()

    def test_orthogonality_and_rank_additivity(self):
        for m in (1, 2, 5):
            model = product_abelian_model(m)
            for t_row in model.T.basis:
                for n_row in model.NS.basis:
                    assert model.h2.lattice.pair(t_row, n_row) == 0
            assert model.T.rank + model.NS.rank == 6

    def test_rank_additivity_random_periods(self):
        # rank(T) + rank(NS) = rank(L) whenever the restricted form on T
        # is nondegenerate; orthogonality holds regardless
        import random

        from kummerlat import SymbolBasis, transcendental_lattice
        from util import random_symmetric_lattice_gram

        rng = random.Random(37)
        from kummerlat import Lattice

        for _ in range(30):
            n = rng.randint(2, 4)
            lat = Lattice(random_symmetric_lattice_gram(rng, n))
            k = rng.randint(1, n)
            sb = SymbolBasis(("1",) + tuple("s%d" % i for i in range(k)))
            cols = {}
            for i in range(k):
                cols["s%d" % i] = [rng.randint(-3, 3) for _ in range(n)]
            if not any(any(v) for v in cols.values()):
                continue
            h = hodge_lattice(lat, period_from_columns(lat, sb, cols))
            t = transcendental_lattice(h)
            ns = orthogonal_complement(t)
            for t_row in t.basis:
                for n_row in ns.basis:
                    assert lat.pair(t_row, n_row) == 0
            if t.rank and linalg.det(t.gram) != 0:
                assert t.rank + ns.rank == n


class TestProportionality:
    """Periods compared by the one scalar reader, linalg.scalar_ratio, on their columns."""

    def test_self(self):
        sigma = u_plus_u_period(2)
        assert scalar_ratio(sigma.columns(), sigma.columns()) == 1

    def test_scaled(self):
        sigma = u_plus_u_period(2)
        assert scalar_ratio(sigma.scaled(Fraction(-2, 3)).columns(), sigma.columns()) == Fraction(-2, 3)

    def test_wedge_pullback_scales_by_n(self):
        for n in (1, 2, 5):
            s = quotient_surface_hodge(n)
            ef = product_abelian_model(1).h2
            w = wedge_square_map(quotient_pullback_matrix(n))
            pushed = s.period.map_by(w, ef.lattice)
            assert scalar_ratio(pushed.columns(), ef.period.columns()) == n

    def test_permuted_column_is_not_proportional(self):
        lat = u_plus_u()
        sigma = u_plus_u_period(2)
        permuted = period_from_columns(
            lat,
            omega_symbols(),
            {
                "1": (0, -2, 0, 0),      # w1w2 column moved under "1"
                "w1": (0, 0, 2, 0),
                "w2": (0, 0, 0, 1),
                "w1w2": (1, 0, 0, 0),
            },
        )
        assert scalar_ratio(sigma.columns(), permuted.columns()) is None


def column_scalar(source, matrix, target):
    """period_scalar column by column: the lam != 0 with cs * M == lam * ct for every symbol."""
    pairs = [([sum(c * matrix[i][j] for i, c in enumerate(cs)) for j in range(len(ct))], ct)
             for cs, ct in zip(source.columns(), target.columns())]
    ratios = [Fraction(x) / y for image, ct in pairs for x, y in zip(image, ct) if y]
    if not ratios or not ratios[0]:
        return None
    lam = ratios[0]
    if all([Fraction(x) for x in image] == [lam * y for y in ct] for image, ct in pairs):
        return lam
    return None


class TestPeriodScalar:
    def test_against_column_definition(self):
        rng = random.Random(171)
        seen = {"none": 0, "one": 0, "other": 0}
        for _ in range(40):
            model, n, p = random_surface_fixture(rng)
            base = base_abelian_model(n).h2.period
            target = model.h2.period
            q = linalg.matmul(p, random_u3_isometry(rng))
            k = Fraction(rng.choice((-3, -2, 2, 5)), rng.randint(1, 4))
            cases = [(base, p, target), (base, p, target.scaled(k)), (base, q, target),
                     (target, linalg.invert_unimodular(p), base), (base, linalg.identity(6), target)]
            for source, matrix, tgt in cases:
                got = period_scalar(source, matrix, tgt)
                assert got == column_scalar(source, matrix, tgt)
                seen["none" if got is None else "one" if got == 1 else "other"] += 1
            assert period_scalar(base, p, target) == 1
            assert period_scalar(base, p, target.scaled(k)) == 1 / k
        assert all(seen.values())


class TestRestrictPeriod:
    def test_roundtrip_coordinates(self):
        model = base_abelian_model(3)
        restricted = restrict_period(model.T, model.h2.period)
        # pushing back through the basis reproduces the ambient columns
        basis = model.T.basis
        for s in range(4):
            col = list(restricted.column(s))
            ambient = linalg.vec_times_mat(col, basis)
            assert list(model.h2.period.column(s)) == ambient

    def test_rejects_outside_span(self):
        model = base_abelian_model(2)
        with pytest.raises(LatticeError):
            restrict_period(model.NS, model.h2.period)

    def test_one_solve_for_every_column(self, monkeypatch):
        calls = []
        original = linalg.solve

        def counting(a, b):
            calls.append(b)
            return original(a, b)

        monkeypatch.setattr(linalg, "solve", counting)
        lat = direct_sum(make_standard("U"), make_standard("U"))
        sub = Sublattice(lat, ((1, 0, 0, 0), (0, 1, 0, 2)))
        half = Fraction(1, 2)
        # the "1" column is zero and the w1w2 column has fractional coordinates
        period = period_from_columns(lat, omega_symbols(), {
            "w1": (1, 0, 0, 0), "w2": (0, 1, 0, 2), "w1w2": (half, -3 * half, 0, -3)})
        restricted = restrict_period(sub, period)
        assert len(calls) == 1
        assert restricted.columns() == [(0, 0), (1, 0), (0, 1), (half, -3 * half)]
        assert restricted.lattice.gram == sub.gram


class TestH1Frame:
    def test_distinct_labels_required(self):
        with pytest.raises(LatticeError):
            H1Frame(("a", "a", "b", "c"))

    def test_orientation_must_be_permutation(self):
        with pytest.raises(LatticeError):
            H1Frame(("a", "b", "c", "d"), orientation=("a", "b", "c", "c"))
