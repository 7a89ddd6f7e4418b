"""Exact lattice arithmetic for twisted transcendental structures.

The package decides, with certificates, when twisted surface models have
Hodge-isometric (generalized) transcendental lattices, and mechanizes the
order-n Kummer twist construction end to end. All arithmetic is exact.
"""

from .lattice import (
    DiscriminantForm,
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
from .hodge import (
    H1Frame,
    HodgeLattice,
    PeriodVector,
    SymbolBasis,
    UndeclaredProduct,
    hodge_lattice,
    omega_symbols,
    period_from_columns,
    period_pairing,
    period_scalar,
    restrict_period,
    transcendental_lattice,
    wedge_square_lattice,
    wedge_square_map,
)
from .isometry import (
    DIFFER,
    MATCH_OR_UNKNOWN,
    CertificationError,
    IsometryMap,
    find_hodge_isometry,
    find_isometry,
    genus_equal,
    short_vectors,
    verify_isometry,
)
from .brauer import (
    BField,
    BrauerClass,
    NonIntegralTwist,
    brauer_class_of,
    brauer_equal,
    exp_b_embedding,
    generalized_transcendental,
    kernel_with_coords,
    mukai_lattice,
    order_of,
    twisted_period,
)
from .kummer import (
    AbelianSurfaceModel,
    KummerModel,
    TEquivalenceVerdict,
    TransportResult,
    TwistedSurface,
    hodge_verdict,
    is_square_ratio,
    kummer_bfield,
    kummer_transcendental,
    t_equivalence,
    transport_isometry,
    twisted_transcendental_model,
)
from .construction import run_example43
from .report import Report

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
