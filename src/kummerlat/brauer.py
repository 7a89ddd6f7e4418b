"""Brauer classes as B-fields and the exp(B) lattice machinery.

B-fields and Brauer classes are stored like periods: integer numerators
over one positive denominator, in lowest terms; Fractions are only views.
A Brauer class of a surface with transcendental lattice T is stored by
its value vector in Q/Z on a fixed basis of T (the representing B-field
is not unique), reduced mod the denominator, which is then its order.
The Mukai extension glues an H0/H4 hyperbolic block onto the H2 lattice;
generalized transcendental lattices live inside it on the h0 = 0 plane.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from . import linalg
from .hodge import PeriodVector, transcendental_lattice, hodge_lattice
from .isometry import CertificationError, IsometryMap, verify_isometry
from .lattice import Lattice, LatticeError, Sublattice


class NonIntegralTwist(Exception):
    """exp(B) was applied to a vector pairing non-integrally with B."""


def _store_lowest_terms(obj, rank, modulo):
    """Store obj.num / obj.den as rank ints over den > 0 in lowest terms, num mod den if modulo.

    Entries are ints or Fractions, cleared into den once; den is a nonzero
    int. Anything else, a float or a string, raises LatticeError.
    """
    num, den = tuple(obj.num), obj.den
    if not set(map(type, num)) <= {int, Fraction} or type(den) is not int or den == 0:
        raise LatticeError("need int or Fraction entries over a nonzero int denominator")
    if len(num) != rank:
        raise LatticeError("%s needs %d entries, one per basis vector" % (type(obj).__name__, rank))
    num, scale = linalg.clear_denominators(num)
    den *= scale
    if modulo:
        num = [x % den for x in num]
    g = gcd(den, *num)
    g = g if den > 0 else -g
    object.__setattr__(obj, "num", tuple(x // g for x in num))
    object.__setattr__(obj, "den", den // g)


@dataclass(frozen=True)
class BField:
    """A rational class num / den in (H2 of the surface) tensor Q.

    Stored in lowest terms, so == and hashing compare the class; coords
    is the Fraction view.
    """

    lattice: Lattice
    num: tuple
    den: int = 1

    def __post_init__(self):
        _store_lowest_terms(self, self.lattice.rank, modulo=False)

    @property
    def coords(self):
        return tuple(Fraction(x, self.den) for x in self.num)

    @classmethod
    def zero(cls, lattice):
        return cls(lattice, (0,) * lattice.rank)


@dataclass(frozen=True)
class BrauerClass:
    """Hom(T, Q/Z) element: values num / den on the stored basis of T.

    num is reduced into [0, den) and den is in lowest terms, so den is
    the order; values is the Fraction view.
    """

    T: Sublattice
    num: tuple
    den: int = 1

    def __post_init__(self):
        _store_lowest_terms(self, self.T.rank, modulo=True)

    @property
    def values(self):
        return tuple(Fraction(x, self.den) for x in self.num)


def mukai_lattice(h2):
    """H0 + H2 + H4 with pairing <a, b> = a2.b2 - a0 b4 - a4 b0.

    Coordinates are ordered (h0, h2 ..., h4); the h0/h4 block is
    [[0, -1], [-1, 0]] placed at the outer corners. The lattice is built
    once per H2 Lattice object and kept on it, like Sublattice.gram; it
    is not a field, so it takes no part in == or hashing.
    """
    mukai = getattr(h2, "_mukai", None)
    if mukai is not None:
        return mukai
    n = h2.rank
    gram = [[0] * (n + 2) for _ in range(n + 2)]
    for i in range(n):
        for j in range(n):
            gram[1 + i][1 + j] = h2.gram[i][j]
    gram[0][n + 1] = -1
    gram[n + 1][0] = -1
    labels = None
    if h2.labels is not None:
        labels = ("h0",) + h2.labels + ("h4",)
    mukai = Lattice(gram, labels)
    object.__setattr__(h2, "_mukai", mukai)
    return mukai


def brauer_class_of(bfield, T):
    """The class t -> pair(t, B) mod Z on the basis of T, over B's denominator."""
    if T.ambient != bfield.lattice:
        raise LatticeError("B-field and sublattice have different ambients")
    return BrauerClass(T, [T.ambient.pair(row, bfield.num) for row in T.basis], bfield.den)


def order_of(alpha):
    """Order in Hom(T, Q/Z): the class's denominator; 1 iff trivial."""
    return alpha.den


def kernel_with_coords(alpha):
    """(kernel sublattice, its basis in T-coordinates).

    Hermite reduction of the congruence system num . x = 0 (mod den) in
    the coordinates of T's basis; the index in T equals the order den.
    """
    n = alpha.den
    k = alpha.T.rank
    if n == 1 or k == 0:
        coords = linalg.identity(k)
    else:
        aug = linalg.right_kernel([list(alpha.num) + [n]], k + 1)
        coords = linalg.hnf([row[:k] for row in aug])
    sub = Sublattice(alpha.T.ambient, linalg.matmul(coords, alpha.T.basis))
    return sub, coords


def brauer_equal(b1, b2, T):
    """Whether two B-fields induce the same class on T, by integer divisibility."""
    if b1.lattice != b2.lattice or T.ambient != b1.lattice:
        raise LatticeError("B-fields must share the sublattice ambient")
    diff = [x * b2.den - y * b1.den for x, y in zip(b1.num, b2.num)]
    return all(T.ambient.pair(row, diff) % (b1.den * b2.den) == 0 for row in T.basis)


def twisted_period(sigma, bfield):
    """The generalized Calabi-Yau period exp(B) sigma = (0, sigma, B.sigma).

    Per symbol column v the Mukai coefficients are (0, v, pair(B, v)).
    With sigma = num / den and B = b / d_B, b integral, the column of
    num[s] is (0, num[s] d_B, pair(b, num[s])) over den d_B, in integers.
    """
    if sigma.lattice != bfield.lattice:
        raise LatticeError("period and B-field live on different lattices")
    b, d_b = bfield.num, bfield.den
    num = [(0,) + tuple(x * d_b for x in v) + (sigma.lattice.pair(b, v),) for v in sigma.num]
    return PeriodVector(mukai_lattice(sigma.lattice), sigma.symbols, num, sigma.den * d_b)


def generalized_transcendental(sigma, bfield):
    """Minimal primitive Mukai-extension sublattice holding exp(B) sigma.

    Lives on the h0 = 0 plane and carries the restricted Mukai form.
    """
    phi = twisted_period(sigma, bfield)
    return transcendental_lattice(hodge_lattice(phi.lattice, phi))


def exp_b_embedding(kernel, bfield, target):
    """The Hodge isometry gamma -> (0, gamma, pair(B, gamma)) onto target.

    kernel must consist of vectors pairing integrally with B (otherwise
    NonIntegralTwist); target is the generalized transcendental
    sublattice of the Mukai extension. The image rows are written over
    the target basis in one elimination, and the certificate is that
    coordinate matrix: integral, unimodular and carrying the form of the
    target back to that of the kernel. Integral and unimodular means the
    image is the target itself.
    """
    ambient = kernel.ambient
    if ambient != bfield.lattice:
        raise LatticeError("kernel and B-field have different ambients")
    b, d_b = bfield.num, bfield.den
    image_rows = []
    for row in kernel.basis:
        h4 = ambient.pair(row, b)
        if h4 % d_b:
            raise NonIntegralTwist(
                "vector %r pairs with B to %s, not an integer" % (list(row), Fraction(h4, d_b))
            )
        image_rows.append([0] + list(row) + [h4 // d_b])
    if target.ambient != mukai_lattice(ambient):
        raise CertificationError("target is not in the Mukai extension of the kernel's ambient")
    try:
        coords, d = target.coordinates_of(image_rows) if image_rows else ((), 1)
    except LatticeError as exc:
        raise CertificationError("exp(B) image is not in the span of the target") from exc
    if any(c % d for row in coords for c in row):
        raise CertificationError("exp(B) image is not integral over the target basis")
    matrix = [[c // d for c in row] for row in coords]
    iso = IsometryMap(source=kernel, target=target, matrix=matrix)
    verify_isometry(iso)
    return iso
