"""The Kummer-surface correspondence and T-equivalence testing.

The Kummer side of an abelian surface is modeled abstractly by its
transcendental lattice with the form doubled, identified coordinatewise
(every statement in scope factors through that identification). Brauer
classes move across via the orthogonal projection to the transcendental
part, and twisted transcendental lattices move via exp(B) embeddings.
A TwistedSurface holds one pair (A, B) and builds everything on the
Kummer side that the pair fixes: T(Km), p(B)/2, the transported class,
the twist-kernel map and the doubling map T(A, B) -> T(Km, p(B)/2).
Each map on the Kummer side is one integer matrix product, certified
once by verify_isometry.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import linalg
from .brauer import (
    BField,
    brauer_class_of,
    exp_b_embedding,
    kernel_with_coords,
    twisted_period,
)
from .hodge import (
    HodgeLattice,
    PeriodVector,
    hodge_lattice,
    period_scalar,
    restrict_period,
    transcendental_lattice,
)
from .isometry import (
    CertificationError,
    IsometryMap,
    _certified_hodge_witness,
    _rational_sqrt,
    verify_isometry,
)
from .lattice import LatticeError, Sublattice, genus_of, orthogonal_complement


@dataclass(frozen=True)
class AbelianSurfaceModel:
    """H2 of an abelian surface with its transcendental/NS splitting.

    Only h2 is stored, so h2 alone takes part in ==. T and NS are built
    on first read and kept: T(A, B) is built from h2, so a caller that
    reads only the twisted side never saturates the period for T(A).
    """

    h2: HodgeLattice

    @classmethod
    def from_h2(cls, h2):
        """The model of h2, after checking that h2 is rank 6, even unimodular, of signature (3, 3).

        The signature needs no check of its own: an even unimodular form
        of signature (p, q) has p - q = 0 mod 8, and at rank 6 the only
        such p - q in [-6, 6] is 0, so p = q = 3.
        """
        lat = h2.lattice
        if lat.rank != 6:
            raise LatticeError("abelian-surface H2 must have rank 6")
        if abs(lat.det) != 1 or not lat.is_even():
            raise LatticeError("H2 form must be even unimodular of signature (3,3)")
        return cls(h2=h2)

    @cached_property
    def T(self):
        """The transcendental lattice T(A), the saturated span of the period."""
        return transcendental_lattice(self.h2)

    @cached_property
    def NS(self):
        """The Neron-Severi lattice, T's orthogonal complement."""
        return orthogonal_complement(self.T)

    def transcendental_hodge(self):
        """T with its induced form and the restricted period."""
        period = restrict_period(self.T, self.h2.period)
        return hodge_lattice(period.lattice, period)


@dataclass(frozen=True)
class KummerModel:
    """The transcendental side of the Kummer surface of a model.

    T_km is T(A) with the form doubled on the same coordinates; pi_star
    is the coordinate identity certified as an isometry at scale 2; the
    period is the transported one.
    """

    hodge: HodgeLattice
    pi_star: IsometryMap

    @property
    def T_km(self):
        return self.hodge.lattice


def kummer_transcendental(model):
    """Double the form on T(A) and transport the period coordinatewise."""
    t_hodge = model.transcendental_hodge()
    t_km = t_hodge.lattice.twist(2)
    period = t_hodge.period
    km_period = PeriodVector(t_km, period.symbols, period.num, period.den)
    pi_star = IsometryMap(
        source=model.T,
        target=t_km,
        matrix=linalg.identity(t_km.rank),
        scale=2,
        lam=Fraction(1),
        source_period=period,
        target_period=km_period,
    )
    verify_isometry(pi_star)
    return KummerModel(hodge=hodge_lattice(t_km, km_period), pi_star=pi_star)


def project_coords_on_T(model, bfield):
    """The orthogonal projection p(B) of B to T(A) tensor Q, in T-coordinates.

    The unique p(B) in the span of T with B - p(B) orthogonal to T, as
    (x, d): integer coordinates over a nonzero int d. Needs B on the
    model's H2 lattice and a nondegenerate form on T: the Gram system,
    solved with the identity beside it in one elimination, is
    inconsistent exactly when that form is degenerate.
    """
    if bfield.lattice != model.h2.lattice:
        raise LatticeError("B-field is not on the model's H2 lattice")
    t = model.T
    rhs = [[t.ambient.pair(row, bfield.num)] + e for row, e in zip(t.basis, linalg.identity(t.rank))]
    solved = linalg.solve(t.gram, rhs)
    if solved is None:
        raise LatticeError("restricted form on T is degenerate")
    x, d = solved
    return [row[0] for row in x], d * bfield.den


def kummer_bfield(model, km, bfield):
    """The induced B-field p(B)/2 on the doubled lattice T_km."""
    x, d = project_coords_on_T(model, bfield)
    return BField(km.T_km, x, 2 * d)


@dataclass(frozen=True)
class TwistedModel:
    """A generalized transcendental lattice with its restricted period."""

    sub: Sublattice
    hodge: HodgeLattice


def twisted_transcendental_model(h2_hodge, bfield):
    """T(X, B) inside the Mukai extension, as an abstract Hodge lattice."""
    phi = twisted_period(h2_hodge.period, bfield)
    sub = transcendental_lattice(hodge_lattice(phi.lattice, phi))
    period = restrict_period(sub, phi)
    return TwistedModel(sub=sub, hodge=hodge_lattice(period.lattice, period))


@dataclass(frozen=True)
class TwistedSurface:
    """A surface model with a B-field, and the objects built from the pair.

    Each object is built on first read and kept, so that t_equivalence,
    transport_isometry and the example43 checks on the same
    TwistedSurface build it once.
    """

    model: AbelianSurfaceModel
    bfield: BField

    @cached_property
    def twisted(self):
        """T(A, B) as a TwistedModel."""
        return twisted_transcendental_model(self.model.h2, self.bfield)

    @cached_property
    def kummer(self):
        """The KummerModel of the surface (the B-field plays no part)."""
        return kummer_transcendental(self.model)

    @cached_property
    def km_bfield(self):
        """The induced B-field p(B)/2 on T_km."""
        return kummer_bfield(self.model, self.kummer, self.bfield)

    @cached_property
    def km_twisted(self):
        """T(Km, p(B)/2) as a TwistedModel."""
        return twisted_transcendental_model(self.kummer.hodge, self.km_bfield)

    @cached_property
    def brauer(self):
        """The class alpha of B on T(A)."""
        return brauer_class_of(self.bfield, self.model.T)

    @cached_property
    def km_brauer(self):
        """The transported class beta of p(B)/2 on T_km.

        Its value on the i-th basis vector of T_km is pair(t_i, p(B)) mod Z
        under the original form (the halving and the doubled pairing
        cancel), so it has the values, and the order, of alpha.
        """
        return brauer_class_of(self.km_bfield, self.kummer.T_km.full_sublattice())

    @cached_property
    def kernel_map(self):
        """The coordinate identity between the two twist kernels, certified.

        Source: the kernel of alpha inside T(A); target: the kernel of
        beta inside T_km. Both kernel bases are Hermite normal forms over
        the same T-coordinates, so the kernels are equal exactly when the
        bases are; the identity is then certified at scale 2. Its matrix
        is the identity by construction: the equality check and the
        scale-2 certificate are the kernel identification.
        """
        k_a, coords_a = kernel_with_coords(self.brauer)
        k_km, coords_km = kernel_with_coords(self.km_brauer)
        if coords_a != coords_km:
            raise CertificationError("kernel coordinate lattices disagree")
        iso = IsometryMap(source=k_a, target=k_km,
                          matrix=linalg.identity(len(coords_a)), scale=2)
        verify_isometry(iso)
        return iso

    @cached_property
    def doubling(self):
        """The certified map T(A, B) -> T(Km, p(B)/2), at scale 2.

        The inverse exp(B)-embedding E1 of the kernel of alpha, the kernel
        map, then the exp(p(B)/2)-embedding E2 of the kernel of beta. The
        kernel map is the identity, so the matrix is E1^-1 * E2; the
        product is certified once as a map of the two twisted lattices.
        """
        f_map = self.kernel_map
        embed = exp_b_embedding(f_map.source, self.bfield, self.twisted.sub)
        km_embed = exp_b_embedding(f_map.target, self.km_bfield, self.km_twisted.sub)
        iso = IsometryMap(source=embed.target, target=km_embed.target,
                          matrix=linalg.matmul(linalg.invert_unimodular(embed.matrix),
                                               km_embed.matrix),
                          scale=2)
        verify_isometry(iso)
        return iso


@dataclass(frozen=True)
class TEquivalenceVerdict:
    """Three-valued outcome of the twisted Hodge-isometry test.

    kind is one of "equivalent" (with a certified witness), "refuted"
    (with the separating invariants) or "inconclusive" (with the step at
    which the witness construction failed). Generalized transcendental
    lattices always have spanning periods, so the witness is found in
    closed form and bound does not limit it; an inconclusive verdict
    means no Hodge isometry with a rational scalar exists, which does not
    rule out one with an irrational scalar, so it is never a refutation.
    """

    kind: str
    witness: IsometryMap = None
    reason: str = ""
    bound: int = None


def hodge_verdict(h1, h2, bound=3):
    """T-equivalence verdict for two Hodge lattices, with certificates.

    Refutes via genus invariants, proves with the witness of one
    _certified_hodge_witness run, and otherwise reports the step that
    failed, read from that same run.
    """
    g1, g2 = genus_of(h1.lattice), genus_of(h2.lattice)
    if g1 != g2:
        return TEquivalenceVerdict(
            kind="refuted",
            reason="genus invariants differ: [%s] vs [%s]" % (g1.describe(), g2.describe()),
            bound=bound,
        )
    witness, miss = _certified_hodge_witness(h1, h2, bound)
    if witness is not None:
        return TEquivalenceVerdict(kind="equivalent", witness=witness, bound=bound)
    return TEquivalenceVerdict(
        kind="inconclusive",
        reason="%s; not a proof of non-isometry" % miss,
        bound=bound,
    )


def t_equivalence(surface1, surface2, bound=3):
    """Decide T-equivalence of two twisted surfaces, with certificates.

    hodge_verdict on the generalized transcendental lattices T(A1, B1)
    and T(A2, B2), read from each TwistedSurface, which builds its own
    once.
    """
    if bound < 1:
        raise LatticeError("bound must be >= 1")
    return hodge_verdict(surface1.twisted.hodge, surface2.twisted.hodge, bound)


@dataclass(frozen=True)
class TransportResult:
    """Outcome of pushing a twisted Hodge isometry to the Kummer side."""

    map: IsometryMap
    paths_agree: bool


def transport_isometry(surface1, surface2, g):
    """Carry g: T(A1, B1) -> T(A2, B2) around the doubling diagram.

    The matrix is D1^-1 * g * D2 for the doubling maps D1, D2 of the two
    TwistedSurfaces, which read the models t_equivalence built. g is
    verified on entry; the product is certified once, with the Kummer-side
    periods attached. Both doubling maps carry the period at scalar 1, so
    going around the diagram either way scales it by the same factor:
    paths_agree reports whether the certified scalar of the composite
    equals that of g.
    """
    verify_isometry(g)
    down1, down2 = surface1.doubling, surface2.doubling
    matrix = linalg.matmul(linalg.matmul(linalg.invert_unimodular(down1.matrix), g.matrix),
                           down2.matrix)
    src, tgt = surface1.km_twisted.hodge, surface2.km_twisted.hodge
    f = IsometryMap(
        source=src.lattice,
        target=tgt.lattice,
        matrix=matrix,
        lam=period_scalar(src.period, matrix, tgt.period),
        source_period=src.period,
        target_period=tgt.period,
    )
    verify_isometry(f)
    return TransportResult(map=f, paths_agree=f.lam == g.lam)


def is_square_ratio(h1_sq, h2_sq):
    """Whether h1_sq / h2_sq is a square in Q (both inputs nonzero)."""
    if h1_sq == 0 or h2_sq == 0:
        raise ValueError("inputs must be nonzero")
    return _rational_sqrt(Fraction(h1_sq, h2_sq)) is not None
