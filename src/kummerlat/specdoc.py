"""The structured-text input format for lattices, periods and B-fields.

A document is a sequence of named sections. Section headers are
``<kind> <name>`` at column zero; the body lines are indented key/value
entries. Rationals are plain integers, which may carry a sign, or
``p/q`` with q a positive integer written without a sign; decimals,
exponents and zero denominators are malformed. Example::

    lattice U
      gram 0 1
      gram 1 0
      labels e f

    symbols W
      names 1 w1 w2 w1w2
      product w1 w2 = 1 w1w2

    period sigma
      lattice U3
      symbols W
      coeff 1 = 1 0 0 0 0 0

    bfield B
      lattice U3
      coords 0 1/2 0 0 0 0

    sublattice T
      ambient U3
      row 1 0 0 0 0 0

    surface A
      period sigma
      bfield B

Parsing is strict: unknown section kinds or keys, repeated entries
(only ``gram``, ``row`` and ``product`` lines may repeat), dangling
references, asymmetric or degenerate Gram matrices, and malformed
rationals are all rejected with a line-anchored message.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .brauer import BField
from .hodge import SymbolBasis, hodge_lattice, period_from_columns
from .kummer import AbelianSurfaceModel, TwistedSurface
from .lattice import Lattice, LatticeError, Sublattice


class SpecParseError(ValueError):
    """Input rejection with the offending line number."""

    def __init__(self, line, message):
        super().__init__("line %d: %s" % (line, message))
        self.line = line


_SECTION_KINDS = ("lattice", "symbols", "period", "bfield", "sublattice", "surface")
_SECTION_KEYS = {
    "lattice": {"gram", "labels"},
    "symbols": {"names", "product"},
    "period": {"lattice", "symbols", "coeff"},
    "bfield": {"lattice", "coords"},
    "sublattice": {"ambient", "row"},
    "surface": {"period", "bfield"},
}


@dataclass
class SpecDocument:
    """Parsed and fully resolved document contents."""

    lattices: dict = field(default_factory=dict)
    symbol_bases: dict = field(default_factory=dict)
    periods: dict = field(default_factory=dict)
    bfields: dict = field(default_factory=dict)
    sublattices: dict = field(default_factory=dict)
    surfaces: dict = field(default_factory=dict)
    order: list = field(default_factory=list)  # (kind, name) in input order

    def surface_model(self, name=None):
        """The TwistedSurface of the named (or only) surface."""
        if name is None:
            if len(self.surfaces) != 1:
                raise LatticeError("document must designate exactly one surface")
            name = next(iter(self.surfaces))
        if name not in self.surfaces:
            raise LatticeError("unknown surface %r" % name)
        period_name, bfield_name = self.surfaces[name]
        period = self.periods[period_name]
        model = AbelianSurfaceModel.from_h2(hodge_lattice(period.lattice, period))
        if bfield_name is None:
            bfield = BField.zero(period.lattice)
        else:
            bfield = self.bfields[bfield_name]
            if bfield.lattice != period.lattice:
                raise LatticeError(
                    "surface %r: B-field and period use different lattices" % name
                )
        return TwistedSurface(model, bfield)


def _parse_rational(tok, lineno):
    """An integer token as an int, and ``p/q`` as Fraction(p, q).

    p may carry a sign and q must be a positive integer with no sign;
    anything else, decimals and exponents included, is a malformed
    rational at lineno.
    """
    num, slash, den = tok.partition("/")
    try:
        if not slash:
            return int(num)
        if den[:1].isdigit() and int(den) > 0:
            return Fraction(int(num), int(den))
    except ValueError:
        pass
    raise SpecParseError(lineno, "malformed rational %r" % tok)


def _parse_int(tok, lineno):
    try:
        return int(tok)
    except ValueError:
        raise SpecParseError(lineno, "malformed integer %r" % tok)


def parse_spec(text):
    """Parse and validate a document; raises SpecParseError on any defect."""
    sections = []
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip()
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        indented = line[0] in " \t"
        parts = line.split()
        if not indented:
            if len(parts) != 2:
                raise SpecParseError(lineno, "section header must be '<kind> <name>'")
            kind, name = parts
            if kind not in _SECTION_KINDS:
                raise SpecParseError(lineno, "unknown section kind %r" % kind)
            current = {"kind": kind, "name": name, "line": lineno, "entries": []}
            sections.append(current)
            seen = set()
        else:
            if current is None:
                raise SpecParseError(lineno, "indented entry outside any section")
            key = parts[0]
            if key not in _SECTION_KEYS[current["kind"]]:
                raise SpecParseError(
                    lineno, "unknown key %r in %s section" % (key, current["kind"])
                )
            if key not in ("gram", "row", "product"):  # coeff entries are told apart by symbol
                entry = " ".join(parts[:2]) if key == "coeff" else key
                if entry in seen:
                    raise SpecParseError(
                        lineno, "repeated %r entry in %s section" % (entry, current["kind"])
                    )
                seen.add(entry)
            current["entries"].append((lineno, key, parts[1:]))

    doc = SpecDocument()
    seen = set()
    for sec in sections:
        key = (sec["kind"], sec["name"])
        if key in seen:
            raise SpecParseError(sec["line"], "duplicate %s section %r" % key)
        seen.add(key)

    for sec in sections:
        kind = sec["kind"]
        if kind == "lattice":
            _build_lattice(doc, sec)
        elif kind == "symbols":
            _build_symbols(doc, sec)
        elif kind == "period":
            _build_period(doc, sec)
        elif kind == "bfield":
            _build_bfield(doc, sec)
        elif kind == "sublattice":
            _build_sublattice(doc, sec)
        elif kind == "surface":
            _build_surface(doc, sec)
        doc.order.append((kind, sec["name"]))
    return doc


def _build_lattice(doc, sec):
    rows = []
    labels = None
    for lineno, key, toks in sec["entries"]:
        if key == "gram":
            rows.append([_parse_int(t, lineno) for t in toks])
        elif key == "labels":
            labels = tuple(toks)
    if not rows:
        raise SpecParseError(sec["line"], "lattice %r has no gram rows" % sec["name"])
    try:
        lat = Lattice(rows, labels)
    except LatticeError as exc:
        raise SpecParseError(sec["line"], "lattice %r: %s" % (sec["name"], exc))
    doc.lattices[sec["name"]] = lat


def _build_symbols(doc, sec):
    names = None
    products = []
    for lineno, key, toks in sec["entries"]:
        if key == "names":
            names = tuple(toks)
        elif key == "product":
            if len(toks) < 4 or toks[2] != "=" or len(toks[3:]) % 2:
                raise SpecParseError(
                    lineno, "product entry must be 'product a b = c1 s1 [c2 s2 ...]'"
                )
            combo = []
            vals = toks[3:]
            for i in range(0, len(vals), 2):
                combo.append((vals[i + 1], _parse_rational(vals[i], lineno)))
            products.append((toks[0], toks[1], tuple(combo)))
    if names is None:
        raise SpecParseError(sec["line"], "symbols %r needs a names entry" % sec["name"])
    try:
        doc.symbol_bases[sec["name"]] = SymbolBasis(names, tuple(products))
    except LatticeError as exc:
        raise SpecParseError(sec["line"], "symbols %r: %s" % (sec["name"], exc))


def _build_period(doc, sec):
    lattice = symbols = None
    coeffs = {}
    for lineno, key, toks in sec["entries"]:
        if key == "lattice":
            lattice = _resolve(doc.lattices, toks, "lattice", lineno)
        elif key == "symbols":
            symbols = _resolve(doc.symbol_bases, toks, "symbols", lineno)
        elif key == "coeff":
            if len(toks) < 3 or toks[1] != "=":
                raise SpecParseError(lineno, "coeff entry must be 'coeff SYM = q1 ...'")
            coeffs[(lineno, toks[0])] = [_parse_rational(t, lineno) for t in toks[2:]]
    if lattice is None or symbols is None:
        raise SpecParseError(
            sec["line"], "period %r needs lattice and symbols entries" % sec["name"]
        )
    columns = {}
    for (lineno, sym), vec in coeffs.items():
        if sym not in symbols.symbols:
            raise SpecParseError(lineno, "coeff references undeclared symbol %r" % sym)
        if len(vec) != lattice.rank:
            raise SpecParseError(
                lineno, "coeff vector needs %d entries, got %d" % (lattice.rank, len(vec))
            )
        columns[sym] = vec
    try:
        doc.periods[sec["name"]] = period_from_columns(lattice, symbols, columns)
    except LatticeError as exc:
        raise SpecParseError(sec["line"], "period %r: %s" % (sec["name"], exc))


def _build_bfield(doc, sec):
    lattice = None
    coords = None
    for lineno, key, toks in sec["entries"]:
        if key == "lattice":
            lattice = _resolve(doc.lattices, toks, "lattice", lineno)
        elif key == "coords":
            coords = ([_parse_rational(t, lineno) for t in toks], lineno)
    if lattice is None or coords is None:
        raise SpecParseError(
            sec["line"], "bfield %r needs lattice and coords entries" % sec["name"]
        )
    vec, lineno = coords
    if len(vec) != lattice.rank:
        raise SpecParseError(
            lineno, "coords needs %d entries, got %d" % (lattice.rank, len(vec))
        )
    doc.bfields[sec["name"]] = BField(lattice, tuple(vec))


def _build_sublattice(doc, sec):
    ambient = None
    rows = []
    for lineno, key, toks in sec["entries"]:
        if key == "ambient":
            ambient = _resolve(doc.lattices, toks, "lattice", lineno)
        elif key == "row":
            rows.append(([_parse_int(t, lineno) for t in toks], lineno))
    if ambient is None:
        raise SpecParseError(sec["line"], "sublattice %r needs an ambient" % sec["name"])
    for vec, lineno in rows:
        if len(vec) != ambient.rank:
            raise SpecParseError(
                lineno, "row needs %d entries, got %d" % (ambient.rank, len(vec))
            )
    try:
        doc.sublattices[sec["name"]] = Sublattice(ambient, [v for v, _ in rows])
    except LatticeError as exc:
        raise SpecParseError(sec["line"], "sublattice %r: %s" % (sec["name"], exc))


def _build_surface(doc, sec):
    period = None
    bfield = None
    for lineno, key, toks in sec["entries"]:
        if key == "period":
            if len(toks) != 1 or toks[0] not in doc.periods:
                raise SpecParseError(lineno, "unresolved period reference %r" % (toks,))
            period = toks[0]
        elif key == "bfield":
            if len(toks) != 1 or toks[0] not in doc.bfields:
                raise SpecParseError(lineno, "unresolved bfield reference %r" % (toks,))
            bfield = toks[0]
    if period is None:
        raise SpecParseError(sec["line"], "surface %r needs a period" % sec["name"])
    doc.surfaces[sec["name"]] = (period, bfield)


def _resolve(table, toks, what, lineno):
    if len(toks) != 1:
        raise SpecParseError(lineno, "expected one %s name" % what)
    if toks[0] not in table:
        raise SpecParseError(lineno, "unresolved %s reference %r" % (what, toks[0]))
    return table[toks[0]]


def render_spec(doc):
    """Deterministic text form; parse(render(doc)) equals doc."""
    out = []
    for kind, name in doc.order:
        if kind == "lattice":
            lat = doc.lattices[name]
            out.append("lattice %s" % name)
            for row in lat.gram:
                out.append("  gram " + " ".join(str(x) for x in row))
            if lat.labels is not None:
                out.append("  labels " + " ".join(lat.labels))
        elif kind == "symbols":
            sb = doc.symbol_bases[name]
            out.append("symbols %s" % name)
            out.append("  names " + " ".join(sb.symbols))
            for left, right, combo in sb.products:
                terms = " ".join("%s %s" % (str(c), s) for s, c in combo)
                out.append("  product %s %s = %s" % (left, right, terms))
        elif kind == "period":
            per = doc.periods[name]
            out.append("period %s" % name)
            out.append("  lattice " + _name_of(doc.lattices, per.lattice))
            out.append("  symbols " + _name_of(doc.symbol_bases, per.symbols))
            for s, sym in enumerate(per.symbols.symbols):
                col = per.column(s)
                if any(col):
                    out.append(
                        "  coeff %s = %s" % (sym, " ".join(str(x) for x in col))
                    )
        elif kind == "bfield":
            bf = doc.bfields[name]
            out.append("bfield %s" % name)
            out.append("  lattice " + _name_of(doc.lattices, bf.lattice))
            out.append("  coords " + " ".join(str(x) for x in bf.coords))
        elif kind == "sublattice":
            sub = doc.sublattices[name]
            out.append("sublattice %s" % name)
            out.append("  ambient " + _name_of(doc.lattices, sub.ambient))
            for row in sub.basis:
                out.append("  row " + " ".join(str(x) for x in row))
        elif kind == "surface":
            period, bfield = doc.surfaces[name]
            out.append("surface %s" % name)
            out.append("  period " + period)
            if bfield is not None:
                out.append("  bfield " + bfield)
        out.append("")
    return "\n".join(out)


def _name_of(table, value):
    for k, v in table.items():
        if v == value:
            return k
    raise LatticeError("value is not registered in the document")
