from functools import cached_property

import pytest

from kummerlat import (
    CertificationError,
    Lattice,
    LatticeError,
    MATCH_OR_UNKNOWN,
    NonIntegralTwist,
    SymbolBasis,
    UndeclaredProduct,
    construction,
    genus_equal,
    kummer,
    linalg,
    orthogonal_complement,
    transcendental_lattice,
)
from kummerlat.construction import (
    base_abelian_model,
    embedding_preserves_form,
    inclusion_into_u_plus_u,
    product_abelian_model,
    quotient_surface_hodge,
    run_example43,
    u_plus_u,
)
from kummerlat.report import REFUTED, VERIFIED
from util import two_kernel_saturation

CHECK_NAMES = [
    "period-isotropy",
    "wedge-pullback-scaling",
    "ns-class",
    "transcendental-class",
    "untwisted-comparison",
    "inclusion-cokernel",
    "brauer-kernel",
    "exp-b-image",
    "twisted-equivalence",
    "kummer-brauer-order",
]


class TestFixtures:
    def test_base_model_invariants(self):
        for n in (1, 2, 5):
            model = base_abelian_model(n)
            assert model.T.rank == 4
            assert model.NS.rank == 2
            gram = model.T.gram
            assert gram == ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, n), (0, 0, n, 0))

    def test_ns_is_built_when_read(self):
        # from_h2 only validates; T is the saturated span of the period and
        # NS its orthogonal complement, each built on first read and kept,
        # and neither takes part in ==
        model = base_abelian_model(3)
        assert "T" not in vars(model) and "NS" not in vars(model)
        ns = model.NS
        assert "T" in vars(model) and model.T == transcendental_lattice(model.h2)
        assert ns == orthogonal_complement(model.T) and model.NS is ns
        assert model == kummer.AbelianSurfaceModel(h2=model.h2)

    def test_product_model_matches_base_for_n1(self):
        ef = product_abelian_model(1)
        base = base_abelian_model(1)
        assert genus_equal(ef.T.as_lattice(), base.T.as_lattice()) == MATCH_OR_UNKNOWN

    def test_quotient_ns_is_complement_of_t(self):
        n = 3
        h = quotient_surface_hodge(n)
        from kummerlat import transcendental_lattice

        t = transcendental_lattice(h)
        ns = orthogonal_complement(t)
        assert ns.basis == ((1, 0, 0, 0, 0, 0), (0, 0, 1, 0, 0, n))

    def test_inclusion_preserves_form_only_with_corrected_image(self):
        n = 3
        model = base_abelian_model(n)
        good = inclusion_into_u_plus_u(n)
        assert embedding_preserves_form(good, model.T.gram, u_plus_u().gram)
        # the uncorrected variant sends f2 to n k2 and fails
        bad = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, n, 0), (0, 0, 0, n))
        assert not embedding_preserves_form(bad, model.T.gram, u_plus_u().gram)


class TestRunExample:
    def test_check_names_and_order(self):
        rep = run_example43(2)
        assert [c.name for c in rep.checks] == CHECK_NAMES

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_verdicts(self, n):
        rep = run_example43(n)
        verdicts = {c.name: c.verdict for c in rep.checks}
        for name in CHECK_NAMES:
            if name == "untwisted-comparison":
                assert verdicts[name] == (VERIFIED if n == 1 else REFUTED)
            else:
                assert verdicts[name] == VERIFIED
        assert rep.overall == (VERIFIED if n == 1 else REFUTED)

    def test_invalid_n_rejected(self):
        with pytest.raises(ValueError):
            run_example43(0)

    def test_report_is_deterministic(self):
        assert run_example43(2).render_text() == run_example43(2).render_text()

    def test_certificates_present(self):
        rep = run_example43(3)
        by_name = {c.name: c for c in rep.checks}
        assert "witness" in by_name["ns-class"].certificate
        assert "witness" in by_name["transcendental-class"].certificate
        assert "witness" in by_name["twisted-equivalence"].certificate
        assert "invariants" in by_name["untwisted-comparison"].certificate
        assert "km_witness" in by_name["kummer-brauer-order"].certificate
        assert by_name["kummer-brauer-order"].certificate["paths_agree"] == "true"

    def test_exp_b_programming_error_propagates(self, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("broken")

        monkeypatch.setattr(construction, "exp_b_embedding", broken)
        with pytest.raises(TypeError):
            run_example43(2)

    @pytest.mark.parametrize("error", [LatticeError, NonIntegralTwist, CertificationError])
    def test_exp_b_certification_failure_is_refuted(self, monkeypatch, error):
        def failing(*args, **kwargs):
            raise error("no certificate")

        monkeypatch.setattr(construction, "exp_b_embedding", failing)
        check = {c.name: c for c in run_example43(2).checks}["exp-b-image"]
        assert check.verdict == REFUTED
        assert check.values == {"error": "no certificate"}

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_each_model_built_once(self, monkeypatch, n):
        # five distinct twisted models, two Kummer models and two induced
        # B-fields exist per n
        built = {"twisted": 0, "kummer": 0, "km_bfield": 0}

        def counting(name, original):
            def wrapper(*args):
                built[name] += 1
                return original(*args)
            return wrapper

        monkeypatch.setattr(kummer, "twisted_transcendental_model",
                            counting("twisted", kummer.twisted_transcendental_model))
        monkeypatch.setattr(kummer, "kummer_transcendental",
                            counting("kummer", kummer.kummer_transcendental))
        monkeypatch.setattr(kummer, "kummer_bfield",
                            counting("km_bfield", kummer.kummer_bfield))
        doubled = []
        build_doubling = kummer.TwistedSurface.__dict__["doubling"].func

        def recording_doubling(surface):
            doubled.append(surface)
            return build_doubling(surface)

        doubling = cached_property(recording_doubling)
        doubling.__set_name__(kummer.TwistedSurface, "doubling")
        monkeypatch.setattr(kummer.TwistedSurface, "doubling", doubling)
        compared, transported = [], []

        def recording_equivalence(surface1, surface2, bound):
            verdict = kummer.t_equivalence(surface1, surface2, bound)
            compared.append((surface1.twisted, surface2.twisted, verdict))
            return verdict

        def recording_transport(surface1, surface2, g):
            result = kummer.transport_isometry(surface1, surface2, g)
            transported.append((surface1.twisted, surface2.twisted, g, surface1, surface2))
            return result

        monkeypatch.setattr(construction, "t_equivalence", recording_equivalence)
        monkeypatch.setattr(construction, "transport_isometry", recording_transport)
        run_example43(n, 3)
        assert built == {"twisted": 5, "kummer": 2, "km_bfield": 2}
        # the transport reads the very models step 9 compared, and its witness
        assert len(compared) == 2 and len(transported) == 1
        (a5, _, _), (a9, ef9, verdict9) = compared
        assert all(x is y for x, y in zip(transported[0], (a9, ef9, verdict9.witness)))
        assert a5 is a9  # T(A_n, 0) serves steps 5 and 9
        # each side's doubling map is built once, on the surfaces transported
        assert len(doubled) == 2 and all(x is y for x, y in zip(doubled, transported[0][3:]))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_transport_scalar_is_the_witness_scalar(self, n):
        # both doubling maps carry the period at scalar 1, so the composite
        # on the Kummer side scales it as the witness g does
        by_name = {c.name: c for c in run_example43(n, 3).checks}
        lam = by_name["twisted-equivalence"].values["lambda"]
        certificate = by_name["kummer-brauer-order"].certificate
        assert certificate["km_lambda"] == lam == "-1"
        assert certificate["paths_agree"] == "true"


class TestKernelsWorkOnce:
    """Each exact kernel of the example43 path does its work once."""

    def test_lattice_det_is_kept_from_the_nondegeneracy_check(self, monkeypatch):
        # one elimination per construction; det and signature read its result
        calls = []
        echelon = linalg.echelon

        def counting(rows):
            calls.append(rows)
            return echelon(rows)

        monkeypatch.setattr(linalg, "echelon", counting)
        lat = Lattice([[2, 1, 0], [1, 3, 0], [0, 0, -1]])
        assert len(calls) == 1
        assert lat.det == -5 and lat.det == -5 and lat.signature() == (2, 1)
        assert len(calls) == 1
        # and the kept value takes no part in equality or hashing
        same = Lattice(lat.gram)
        assert same == lat and hash(same) == hash(lat)

    def test_degenerate_gram_still_rejected(self):
        with pytest.raises(LatticeError):
            Lattice([[1, 2], [2, 4]])
        with pytest.raises(LatticeError):
            Lattice([[0, 0], [0, 0]])

    def test_saturation_makes_no_right_kernel_call(self, monkeypatch):
        rows = [[2, 4, 6], [1, 1, 1], [0, 0, 0], [3, 3, 3]]
        expected = two_kernel_saturation(rows, 3)
        h = base_abelian_model(2).h2
        expected_t = transcendental_lattice(h).basis

        def forbidden(*args):
            raise AssertionError("right_kernel called")

        monkeypatch.setattr(linalg, "right_kernel", forbidden)
        assert linalg.saturation(rows, 3) == expected == [[1, 0, -1], [0, 1, 2]]
        assert transcendental_lattice(h).basis == expected_t

    def test_undeclared_product_still_raises(self):
        sb = SymbolBasis(("1", "a", "b"), products=(("a", "a", (("b", 1),)),))
        assert sb.product("a", "a") == {"b": 1}
        assert sb.product("1", "b") == {"b": 1}
        for left, right in (("a", "b"), ("b", "a"), ("b", "b")):
            with pytest.raises(UndeclaredProduct) as raised:
                sb.product(left, right)
            assert (raised.value.left, raised.value.right) == (left, right)
