"""The explicit order-n twist construction, end to end.

Fixtures: an abelian surface A_n with NS(A) of scaled-hyperbolic type
U(n), the product of two elliptic curves E x F (not isogenous), the
degree-n quotient S of E x F, and the product E_1 x F with a rescaled
first period. run_example43 mechanizes the whole chain of claims about
these surfaces and emits a report with explicit certificates.

Basis conventions used by every fixture:
  * the abstract H2 model of A_n is U + U + U with labels a1 b1 a2 b2 a3 b3;
    the transcendental lattice is spanned by a1, b1, a2, n*b2 + a3;
  * product surfaces use the wedge square of the H1 frame
    (dx1, dx2, dy1, dy2); S uses the frame (dz1, dz2, dw1, dw2);
  * the abstract rank-4 receptacle of the index-n inclusion is U + U with
    labels g1 g2 k1 k2.
"""

from __future__ import annotations

from . import linalg
from .brauer import (
    BField,
    NonIntegralTwist,
    brauer_class_of,
    exp_b_embedding,
    generalized_transcendental,
    kernel_with_coords,
    order_of,
)
from .hodge import (
    H1Frame,
    hodge_lattice,
    omega_symbols,
    period_from_columns,
    period_pairing,
    period_scalar,
    transcendental_lattice,
    wedge_square_lattice,
    wedge_square_map,
)
from .isometry import CertificationError, find_isometry
from .kummer import (
    AbelianSurfaceModel,
    TwistedSurface,
    t_equivalence,
    transport_isometry,
)
from .lattice import (
    Lattice,
    LatticeError,
    Sublattice,
    direct_sum,
    make_standard,
    orthogonal_complement,
    sublattice_quotient,
)
from .report import INCONCLUSIVE, REFUTED, VERIFIED, Report


def u_cubed():
    """U + U + U with labels a1 b1 a2 b2 a3 b3."""
    u = make_standard("U")
    lat = direct_sum(direct_sum(u, u), u)
    return Lattice(lat.gram, ("a1", "b1", "a2", "b2", "a3", "b3"))


def u_plus_u():
    """U + U with labels g1 g2 k1 k2."""
    lat = direct_sum(make_standard("U"), make_standard("U"))
    return Lattice(lat.gram, ("g1", "g2", "k1", "k2"))


def base_abelian_model(n):
    """A_n: the U^3 model whose period spans U + U(n) primitively.

    Period columns: 1 -> a1, w1 -> a2, w2 -> n*b2 + a3, w1w2 -> -n*b1.
    """
    lat = u_cubed()
    symbols = omega_symbols()
    period = period_from_columns(
        lat,
        symbols,
        {
            "1": (1, 0, 0, 0, 0, 0),
            "w1": (0, 0, 1, 0, 0, 0),
            "w2": (0, 0, 0, n, 1, 0),
            "w1w2": (0, -n, 0, 0, 0, 0),
        },
    )
    return AbelianSurfaceModel.from_h2(hodge_lattice(lat, period))


def product_frame():
    return H1Frame(("dx1", "dx2", "dy1", "dy2"))


def quotient_frame():
    return H1Frame(("dz1", "dz2", "dw1", "dw2"))


def product_abelian_model(m):
    """E x F for m = 1; the rescaled product E_1 x F for m = n.

    The holomorphic 2-form is (dx1 + m w1 dx2) wedge (dy1 + w2 dy2).
    """
    lat = wedge_square_lattice(product_frame())
    symbols = omega_symbols()
    period = period_from_columns(
        lat,
        symbols,
        {
            "1": (0, 1, 0, 0, 0, 0),      # dx1^dy1
            "w1": (0, 0, 0, m, 0, 0),     # m dx2^dy1
            "w2": (0, 0, 1, 0, 0, 0),     # dx1^dy2
            "w1w2": (0, 0, 0, 0, m, 0),   # m dx2^dy2
        },
    )
    return AbelianSurfaceModel.from_h2(hodge_lattice(lat, period))


def quotient_surface_hodge(n):
    """S = (E x F)/C_n: wedge model and its holomorphic 2-form.

    With H1(S) spanned by (c1+d1)/n, c2, d1, d2 over the product basis
    (c1, c2, d1, d2), the holomorphic frame is du = dz1/n + w1 dz2 and
    dv = dz1/n + dw1 + w2 dw2; n du^dv expands to the columns below.
    The w1 column n dz2^dw1 - dz1^dz2 is what makes the form isotropic
    and compatible with the degree-n pullback to the product.
    """
    lat = wedge_square_lattice(quotient_frame())
    symbols = omega_symbols()
    period = period_from_columns(
        lat,
        symbols,
        {
            "1": (0, 1, 0, 0, 0, 0),       # dz1^dw1
            "w1": (-1, 0, 0, n, 0, 0),     # n dz2^dw1 - dz1^dz2
            "w2": (0, 0, 1, 0, 0, 0),      # dz1^dw2
            "w1w2": (0, 0, 0, 0, n, 0),    # n dz2^dw2
        },
    )
    return hodge_lattice(lat, period)


def quotient_pullback_matrix(n):
    """The H1 pullback of the degree-n quotient map, as row-vector images.

    dz1 -> n dx1, dz2 -> dx2, dw1 -> -dx1 + dy1, dw2 -> dy2.
    """
    return [
        [n, 0, 0, 0],
        [0, 1, 0, 0],
        [-1, 0, 1, 0],
        [0, 0, 0, 1],
    ]


def inclusion_into_u_plus_u(n):
    """The index-n inclusion matrix of T(A_n) into U + U.

    Sends the transcendental basis (e1, e2, f1, f2) to (g1, g2, n k1, k2);
    the k1 image carries the n (sending k2 to n k2 as well would not
    preserve the form). This is a form-preserving embedding, unimodular
    only for n = 1, so it is checked as an embedding rather than
    certified as an IsometryMap.
    """
    return (
        (1, 0, 0, 0),
        (0, 1, 0, 0),
        (0, 0, n, 0),
        (0, 0, 0, 1),
    )


def embedding_preserves_form(matrix, source_gram, target_gram):
    """Exact check that matrix * target * matrix^T equals the source form."""
    lhs = linalg.matmul(linalg.matmul(matrix, target_gram), linalg.transpose(matrix))
    return linalg.mat_eq(lhs, source_gram)


def u_plus_u_period(n):
    """The transported period on U + U: g1 - n w1w2 g2 + n w1 k1 + w2 k2."""
    return period_from_columns(
        u_plus_u(),
        omega_symbols(),
        {
            "1": (1, 0, 0, 0),
            "w1": (0, 0, n, 0),
            "w2": (0, 0, 0, 1),
            "w1w2": (0, -n, 0, 0),
        },
    )


def product_bfield(n):
    """B = (dx1^dy2)/n on the product wedge lattice."""
    return BField(wedge_square_lattice(product_frame()), (0, 0, 1, 0, 0, 0), n)


def run_example43(n, bound=3):
    """Run the ten checks of the order-n construction and report verdicts.

    All arithmetic is exact; every verified line carries a certificate
    (a witness matrix, a scalar, or the separating invariants).
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    rep = Report(command="example43 --n %d --bound %d" % (n, bound))

    s_hodge = quotient_surface_hodge(n)
    ef_model = product_abelian_model(1)
    ef1_model = product_abelian_model(n)
    a_model = base_abelian_model(n)
    u2 = u_plus_u()

    # (1) both holomorphic 2-forms are isotropic
    sq_s = period_pairing(s_hodge.period, s_hodge.period)
    sq_ef = period_pairing(ef_model.h2.period, ef_model.h2.period)
    rep.add(
        "period-isotropy",
        VERIFIED if not sq_s and not sq_ef else REFUTED,
        values={"sigma_S^2": sq_s or 0, "sigma_ExF^2": sq_ef or 0},
    )

    # (2) the wedge-square of the pullback scales sigma_S onto n sigma_ExF
    wmap = wedge_square_map(quotient_pullback_matrix(n))
    lam = period_scalar(s_hodge.period, wmap, ef_model.h2.period)
    rep.add(
        "wedge-pullback-scaling",
        VERIFIED if lam == n else REFUTED,
        values={"scalar": lam if lam is not None else "absent"},
        certificate={"wedge_matrix": wmap},
    )

    # (3) NS(S) is the scaled hyperbolic plane U(n); T(S) is built once, for steps 3 and 4
    t_s = transcendental_lattice(s_hodge)
    ns_s = orthogonal_complement(t_s)
    rho = ns_s.rank
    wit_ns = find_isometry(ns_s.as_lattice(), make_standard("U_n", n), bound)
    rep.add(
        "ns-class",
        VERIFIED if rho == 2 and wit_ns is not None else INCONCLUSIVE,
        values={"picard_number": rho, "ns_basis": ns_s.basis},
        certificate={} if wit_ns is None else {"witness": wit_ns.matrix},
    )

    # (4) T(S) is U + U(n)
    wit_ts = find_isometry(
        t_s.as_lattice(), direct_sum(make_standard("U"), make_standard("U_n", n)), bound
    )
    rep.add(
        "transcendental-class",
        VERIFIED if t_s.rank == 4 and wit_ts is not None else INCONCLUSIVE,
        values={"rank": t_s.rank, "t_basis": t_s.basis},
        certificate={} if wit_ts is None else {"witness": wit_ts.matrix},
    )

    # (5) untwisted comparison of A_n with E x F: equivalent only for n = 1
    # T(A_n, 0) is built once, for steps 5 and 9
    a_surface = TwistedSurface(a_model, BField.zero(a_model.h2.lattice))
    ef_surface = TwistedSurface(ef_model, BField.zero(ef_model.h2.lattice))
    verdict5 = t_equivalence(a_surface, ef_surface, bound)
    values5 = {"verdict": verdict5.kind}
    cert5 = {}
    if verdict5.kind == "equivalent":
        cert5 = {"witness": verdict5.witness.matrix, "lambda": verdict5.witness.lam}
        out5 = VERIFIED
    elif verdict5.kind == "refuted":
        cert5 = {"invariants": verdict5.reason}
        out5 = REFUTED
    else:
        out5 = INCONCLUSIVE
    rep.add("untwisted-comparison", out5, values=values5, certificate=cert5)

    # (6) the corrected inclusion of T(A_n) into U + U has cyclic cokernel
    inc = inclusion_into_u_plus_u(n)
    isometric = embedding_preserves_form(inc, a_model.T.gram, u2.gram)
    image = Sublattice(u2, inc)
    index, divisors = sublattice_quotient(image)
    ok6 = isometric and index == n and divisors == ([n] if n > 1 else [])
    rep.add(
        "inclusion-cokernel",
        VERIFIED if ok6 else REFUTED,
        values={"form_preserved": isometric, "index": index, "divisors": divisors},
        certificate={"inclusion": inc},
    )

    # (7) the class of k2/n has order n with kernel the inclusion image
    b_u2 = BField(u2, (0, 0, 0, 1), n)
    alpha = brauer_class_of(b_u2, u2.full_sublattice())
    kernel, _ = kernel_with_coords(alpha)
    ok7 = order_of(alpha) == n and kernel.same_span(image)
    rep.add(
        "brauer-kernel",
        VERIFIED if ok7 else REFUTED,
        values={"values": alpha.values, "order": order_of(alpha)},
        certificate={"kernel_basis": kernel.basis},
    )

    # (8) exp(B) carries the kernel onto the twisted transcendental lattice
    sigma_u2 = u_plus_u_period(n)
    target = generalized_transcendental(sigma_u2, b_u2)
    try:
        embed = exp_b_embedding(kernel, b_u2, target)
    except (LatticeError, NonIntegralTwist, CertificationError) as exc:
        # a failed certification is a verdict; any other error propagates
        rep.add("exp-b-image", REFUTED, values={"error": str(exc)})
    else:
        rep.add(
            "exp-b-image",
            VERIFIED,
            values={"target_basis": target.basis},
            certificate={"embedding": embed.matrix},
        )

    # (9) (A_n, 0) and (E_1 x F, k2/n) are T-equivalent
    ef1_surface = TwistedSurface(ef1_model, product_bfield(n))
    verdict9 = t_equivalence(a_surface, ef1_surface, bound)
    if verdict9.kind == "equivalent":
        rep.add(
            "twisted-equivalence",
            VERIFIED,
            values={"lambda": verdict9.witness.lam},
            certificate={"witness": verdict9.witness.matrix},
        )
    else:
        rep.add(
            "twisted-equivalence",
            REFUTED if verdict9.kind == "refuted" else INCONCLUSIVE,
            values={"verdict": verdict9.kind, "detail": verdict9.reason},
        )

    # (10) the transported class on the Kummer side has order n
    # its Kummer model and p(B)/2 are built once, for this check and the transport
    beta = ef1_surface.km_brauer
    ok10 = order_of(beta) == n
    values10 = {"km_order": order_of(beta), "km_values": beta.values}
    cert10 = {}
    if verdict9.kind == "equivalent":
        transported = transport_isometry(a_surface, ef1_surface, verdict9.witness)
        ok10 = ok10 and transported.paths_agree
        cert10 = {
            "km_witness": transported.map.matrix,
            "km_lambda": transported.map.lam,
            "paths_agree": transported.paths_agree,
        }
        rep.add("kummer-brauer-order", VERIFIED if ok10 else REFUTED,
                values=values10, certificate=cert10)
    else:
        rep.add("kummer-brauer-order", INCONCLUSIVE if ok10 else REFUTED,
                values=values10)
    return rep
