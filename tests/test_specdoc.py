from fractions import Fraction

import pytest

from kummerlat.specdoc import SpecParseError, parse_spec, render_spec

GOOD_DOC = """\
lattice U3
  gram 0 1 0 0 0 0
  gram 1 0 0 0 0 0
  gram 0 0 0 1 0 0
  gram 0 0 1 0 0 0
  gram 0 0 0 0 0 1
  gram 0 0 0 0 1 0
  labels a1 b1 a2 b2 a3 b3

symbols W
  names 1 w1 w2 w1w2
  product w1 w2 = 1 w1w2

period sigma
  lattice U3
  symbols W
  coeff 1 = 1 0 0 0 0 0
  coeff w1 = 0 0 1 0 0 0
  coeff w2 = 0 0 0 2 1 0
  coeff w1w2 = 0 -2 0 0 0 0

bfield B
  lattice U3
  coords 0 1/2 0 0 0 0

sublattice T
  ambient U3
  row 1 0 0 0 0 0
  row 0 1 0 0 0 0

surface A
  period sigma
  bfield B
"""


class TestParse:
    def test_good_document(self):
        doc = parse_spec(GOOD_DOC)
        assert set(doc.lattices) == {"U3"}
        assert doc.lattices["U3"].rank == 6
        assert doc.periods["sigma"].column(0) == (1, 0, 0, 0, 0, 0)
        assert doc.bfields["B"].coords[1] == Fraction(1, 2)
        assert doc.sublattices["T"].rank == 2
        assert doc.surfaces["A"] == ("sigma", "B")

    def test_surface_model_resolution(self):
        doc = parse_spec(GOOD_DOC)
        surface = doc.surface_model()
        assert surface.model.T.rank == 4
        assert surface.bfield.coords[1] == Fraction(1, 2)

    def test_comments_and_blank_lines_ignored(self):
        text = "# leading comment\n\n" + GOOD_DOC
        assert parse_spec(text).surfaces == parse_spec(GOOD_DOC).surfaces

    def test_roundtrip(self):
        doc = parse_spec(GOOD_DOC)
        text = render_spec(doc)
        again = parse_spec(text)
        assert render_spec(again) == text
        assert again.lattices == doc.lattices
        assert again.periods == doc.periods
        assert again.bfields == doc.bfields
        assert again.sublattices == doc.sublattices
        assert again.surfaces == doc.surfaces


class TestRejections:
    def assert_error(self, text, needle, line=None):
        with pytest.raises(SpecParseError) as exc:
            parse_spec(text)
        assert needle in str(exc.value)
        if line is not None:
            assert exc.value.line == line

    def test_unknown_section(self):
        self.assert_error("widget W\n", "unknown section kind", line=1)

    def test_unknown_key(self):
        self.assert_error("lattice U\n  shape 1\n", "unknown key", line=2)

    def test_asymmetric_gram(self):
        self.assert_error(
            "lattice L\n  gram 0 1\n  gram 2 0\n", "symmetric", line=1
        )

    def test_degenerate_gram(self):
        self.assert_error(
            "lattice L\n  gram 1 1\n  gram 1 1\n", "nondegenerate"
        )

    def test_malformed_rational(self):
        self.assert_error(
            "lattice U\n  gram 0 1\n  gram 1 0\n\nbfield B\n  lattice U\n  coords x 0\n",
            "malformed rational",
            line=7,
        )

    @pytest.mark.parametrize("tok, value", [
        ("3", 3), ("-3", -3), ("+3", 3), ("0", 0),
        ("1/2", Fraction(1, 2)), ("-1/2", Fraction(-1, 2)), ("4/2", 2),
    ])
    def test_rational_grammar_accepts_integers_and_p_over_q(self, tok, value):
        doc = parse_spec("lattice L\n  gram 2\n\nbfield B\n  lattice L\n  coords %s\n" % tok)
        assert doc.bfields["B"].coords == (value,)

    @pytest.mark.parametrize("tok", ["0.5", "1e3", "1/0", "1/-2", "1/", "/2", "1//2", "x"])
    def test_rational_grammar_rejects_the_rest(self, tok):
        # decimals, exponents, and zero or signed denominators are not rationals
        # of the grammar, in coords, coeff and product entries alike
        self.assert_error("lattice L\n  gram 2\n\nbfield B\n  lattice L\n  coords %s\n" % tok,
                          "malformed rational", line=6)
        doc = GOOD_DOC.replace("coeff w1 = 0 0 1", "coeff w1 = 0 0 %s" % tok)
        self.assert_error(doc, "malformed rational", line=GOOD_DOC.count("\n", 0, GOOD_DOC.index("coeff w1")) + 1)
        doc = GOOD_DOC.replace("product w1 w2 = 1 w1w2", "product w1 w2 = %s w1w2" % tok)
        self.assert_error(doc, "malformed rational", line=GOOD_DOC.count("\n", 0, GOOD_DOC.index("product")) + 1)

    def test_undeclared_symbol_in_period(self):
        text = (
            "lattice U\n  gram 0 1\n  gram 1 0\n\n"
            "symbols W\n  names 1 w1\n\n"
            "period s\n  lattice U\n  symbols W\n  coeff nope = 1 0\n"
        )
        self.assert_error(text, "undeclared symbol", line=11)

    def test_dangling_reference(self):
        self.assert_error(
            "period s\n  lattice missing\n  symbols missing\n",
            "unresolved lattice reference",
        )

    def test_duplicate_section(self):
        text = "lattice U\n  gram 0 1\n  gram 1 0\n\nlattice U\n  gram 0 1\n  gram 1 0\n"
        self.assert_error(text, "duplicate")

    def test_repeated_entry_rejected_at_its_line(self):
        # gram, row and product lines may repeat; every other key appears
        # once per section, and coeff once per symbol
        lines = GOOD_DOC.splitlines()
        keys = set()
        for i, line in enumerate(lines):
            key = line.split()[0] if line.startswith("  ") else None
            if key in (None, "gram", "row", "product"):
                continue
            self.assert_error("\n".join(lines[:i + 1] + lines[i:]) + "\n", "repeated", line=i + 2)
            keys.add(key)
        assert keys == {"labels", "names", "lattice", "symbols", "coeff", "coords", "ambient",
                        "period", "bfield"}
        # a second value is not a silent override
        for first, second in (("  coords 0 1/2 0 0 0 0\n", "  coords 0 0 0 0 0 0\n"),
                              ("  coeff w1 = 0 0 1 0 0 0\n", "  coeff w1 = 0 0 0 0 1 0\n")):
            line = GOOD_DOC[:GOOD_DOC.index(first)].count("\n") + 2
            self.assert_error(GOOD_DOC.replace(first, first + second), "repeated", line=line)
        twice = GOOD_DOC.replace("  product w1 w2 = 1 w1w2\n", "  product w1 w2 = 1 w1w2\n" * 2)
        assert parse_spec(twice).symbol_bases == parse_spec(GOOD_DOC).symbol_bases

    def test_entry_outside_section(self):
        self.assert_error("  gram 1\n", "outside any section", line=1)

    def test_wrong_vector_width(self):
        self.assert_error(
            "lattice U\n  gram 0 1\n  gram 1 0\n\nbfield B\n  lattice U\n  coords 1/2\n",
            "needs 2 entries",
        )

    def test_surface_without_period(self):
        self.assert_error("surface A\n", "needs a period")

    def test_zero_period_rejected(self):
        text = (
            "lattice U\n  gram 0 1\n  gram 1 0\n\n"
            "symbols W\n  names 1 w1\n\n"
            "period s\n  lattice U\n  symbols W\n"
        )
        self.assert_error(text, "nonzero column")
