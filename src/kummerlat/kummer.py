"""The Kummer-surface correspondence and T-equivalence testing.

The Kummer side of an abelian surface is modeled abstractly by its
transcendental lattice with the form doubled, identified coordinatewise
(every statement in scope factors through that identification). Brauer
classes move across via the orthogonal projection to the transcendental
part, and twisted transcendental lattices move via exp(B) embeddings.
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
from .hodge import HodgeLattice, hodge_lattice, restrict_period, transcendental_lattice
from .isometry import (
    CertificationError,
    IsometryMap,
    _rational_sqrt,
    find_hodge_isometry,
    hodge_miss_reason,
    verify_isometry,
)
from .lattice import LatticeError, Sublattice, genus_of, orthogonal_complement


@dataclass(frozen=True)
class AbelianSurfaceModel:
    """H2 of an abelian surface with its transcendental/NS splitting."""

    h2: HodgeLattice
    T: Sublattice
    NS: Sublattice

    @classmethod
    def from_h2(cls, h2):
        lat = h2.lattice
        if lat.rank != 6:
            raise LatticeError("abelian-surface H2 must have rank 6")
        if abs(lat.det) != 1 or not lat.is_even() or lat.signature() != (3, 3):
            raise LatticeError("H2 form must be even unimodular of signature (3,3)")
        T = transcendental_lattice(h2)
        return cls(h2=h2, T=T, NS=orthogonal_complement(T))

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

    source: AbelianSurfaceModel
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
    km_period = period.map_by(linalg.identity(t_km.rank), t_km)
    pi_star = IsometryMap(
        source=model.T,
        target=t_km,
        matrix=linalg.identity(t_km.rank),
        scale=Fraction(2),
        lam=Fraction(1),
        source_period=period,
        target_period=km_period,
    )
    verify_isometry(pi_star)
    return KummerModel(source=model, hodge=hodge_lattice(t_km, km_period), pi_star=pi_star)


def project_coords_on_T(model, bfield):
    """The orthogonal projection p(B) of B to T(A) tensor Q, in T-coordinates.

    The unique p(B) in the span of T with B - p(B) orthogonal to T; needs
    B on the model's H2 lattice and the form restricted to T to be
    nondegenerate.
    """
    if bfield.lattice != model.h2.lattice:
        raise LatticeError("B-field is not on the model's H2 lattice")
    t = model.T
    gram_t = t.gram()
    if linalg.det(gram_t) == 0:
        raise LatticeError("restricted form on T is degenerate")
    rhs = [t.ambient.pair(row, bfield.coords) for row in t.basis]
    return tuple(linalg.solve(gram_t, rhs))


def project_to_transcendental(model, bfield):
    """p(B) in ambient coordinates: its T-coordinates times T's basis."""
    return tuple(linalg.vec_times_mat(project_coords_on_T(model, bfield), model.T.basis))


def kummer_bfield(model, km, bfield):
    """The induced B-field p(B)/2 on the doubled lattice T_km."""
    y = project_coords_on_T(model, bfield)
    return BField(km.T_km, tuple(x / 2 for x in y))


def kummer_brauer_class(model, bfield, km=None):
    """Transport a Brauer class to the Kummer side.

    Computed from the projection p(B): the value on the i-th basis vector
    of T_km is pair(t_i, p(B)) mod Z under the original form (the halving
    and the doubled pairing cancel). Orders are preserved.
    """
    if km is None:
        km = kummer_transcendental(model)
    b_km = kummer_bfield(model, km, bfield)
    t_full = km.T_km.full_sublattice()
    return brauer_class_of(b_km, t_full)


def induced_kummer_isometry(model, bfield, km=None):
    """The coordinate identity between the two twist kernels, certified.

    Source: kernel of kappa(B, T(A)) inside T(A); target: kernel of the
    transported class inside T_km. Certifies that the form is preserved
    at scale 2 and that the image equals the independently computed
    Kummer-side kernel.
    """
    if km is None:
        km = kummer_transcendental(model)
    alpha = brauer_class_of(bfield, model.T)
    k_a, coords_a = kernel_with_coords(alpha)
    beta = kummer_brauer_class(model, bfield, km)
    k_km, coords_km = kernel_with_coords(beta)
    # the identity on T-coordinates should carry one kernel onto the other
    x = linalg.solve(linalg.transpose(coords_km), linalg.transpose(coords_a))
    if x is None or any(c.denominator != 1 for col in x for c in col):
        raise CertificationError("Kummer-side kernel does not contain the coordinate image")
    rows = linalg.transpose(x)
    if linalg.hnf(coords_a) != linalg.hnf(coords_km):
        raise CertificationError("kernel coordinate lattices disagree")
    iso = IsometryMap(
        source=k_a,
        target=k_km,
        matrix=rows,
        scale=Fraction(2),
    )
    verify_isometry(iso)
    return iso


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
    """A surface model with a B-field, and the models built from the pair.

    Each model is built on first read and kept, so that t_equivalence and
    transport_isometry on the same TwistedSurface build it once.
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

    Refutes via genus invariants, proves via find_hodge_isometry, and
    otherwise reports the step that failed.
    """
    g1, g2 = genus_of(h1.lattice), genus_of(h2.lattice)
    if g1 != g2:
        return TEquivalenceVerdict(
            kind="refuted",
            reason="genus invariants differ: [%s] vs [%s]" % (g1.describe(), g2.describe()),
            bound=bound,
        )
    witness = find_hodge_isometry(h1, h2, bound)
    if witness is not None:
        return TEquivalenceVerdict(kind="equivalent", witness=witness, bound=bound)
    return TEquivalenceVerdict(
        kind="inconclusive",
        reason="%s; not a proof of non-isometry" % hodge_miss_reason(h1, h2, bound),
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
    km_bfield1: BField
    km_bfield2: BField


def transport_isometry(surface1, surface2, g):
    """Carry g: T(A1, B1) -> T(A2, B2) around the doubling diagram.

    Composes the inverse exp(B1)-embedding, the kernel identification to
    the Kummer side, and the exp of the induced Kummer B-field, on both
    flanks of g. The twisted and Kummer models are read from the two
    TwistedSurfaces, so those t_equivalence built are not built again.
    Every factor is certified; the two composite paths from T(A1, B1) to
    the Kummer-side twisted lattice of surface2 are compared as matrices
    and their agreement is reported.
    """
    verify_isometry(g)
    downs = []
    for side in (surface1, surface2):
        # f_map certifies both twist kernels: its source and its target
        f_map = induced_kummer_isometry(side.model, side.bfield, side.kummer)
        embed = exp_b_embedding(f_map.source, side.bfield, k=2, target=side.twisted.sub)
        km_embed = exp_b_embedding(f_map.target, side.km_bfield, k=1, target=side.km_twisted.sub)
        downs.append(embed.inverse().then(f_map).then(km_embed))
    down1, down2 = downs
    f = down1.inverse().then(g).then(down2)
    # periods are attached end to end for certification of the composite
    src, tgt = surface1.km_twisted.hodge, surface2.km_twisted.hodge
    f = IsometryMap(
        source=src.lattice,
        target=tgt.lattice,
        matrix=f.matrix,
        scale=Fraction(1),
        lam=linalg.scalar_ratio(linalg.matmul(src.period.columns(), f.matrix),
                                tgt.period.columns()),
        source_period=src.period,
        target_period=tgt.period,
    )
    verify_isometry(f)
    path_top = g.then(down2).matrix
    path_bottom = down1.then(f).matrix
    return TransportResult(
        map=f,
        paths_agree=path_top == path_bottom,
        km_bfield1=surface1.km_bfield,
        km_bfield2=surface2.km_bfield,
    )


def is_square_ratio(h1_sq, h2_sq):
    """Whether h1_sq / h2_sq is a square in Q (both inputs nonzero)."""
    if h1_sq == 0 or h2_sq == 0:
        raise ValueError("inputs must be nonzero")
    return _rational_sqrt(Fraction(h1_sq, h2_sq)) is not None
