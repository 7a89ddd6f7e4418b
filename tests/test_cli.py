import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from kummerlat import AbelianSurfaceModel, BField, IsometryMap, hodge_lattice, linalg, verify_isometry
from kummerlat.cli import main
from kummerlat.construction import (
    base_abelian_model,
    product_abelian_model,
    product_bfield,
    u_cubed,
)
from kummerlat.kummer import twisted_transcendental_model
from kummerlat.report import Report
from kummerlat.specdoc import SpecDocument, render_spec
from util import (
    _eichler,
    brute_det,
    fractions_built,
    random_sublattice_basis,
    random_symmetric_lattice_gram,
)

SRC = Path(__file__).resolve().parent.parent / "src"

U_DOC = """\
lattice U
  gram 0 1
  gram 1 0
  labels e f

lattice U2
  gram 0 2
  gram 2 0

bfield B
  lattice U
  coords 1/2 0
"""


def doc_for_surface(model, bfield=None):
    """Render a surface model (and optional B-field) as a document."""
    doc = SpecDocument()
    doc.lattices["H2"] = model.h2.lattice
    doc.symbol_bases["W"] = model.h2.symbols
    doc.periods["sigma"] = model.h2.period
    doc.order = [("lattice", "H2"), ("symbols", "W"), ("period", "sigma")]
    name = None
    if bfield is not None:
        doc.bfields["B"] = bfield
        doc.order.append(("bfield", "B"))
        name = "B"
    doc.surfaces["A"] = ("sigma", name)
    doc.order.append(("surface", "A"))
    return render_spec(doc)


# `disc` on lattices of rank 1-6, four of them with a 2-primary part A_2
# above the value-profile cap: (Gram, SHA-256 of stdout, SHA-256 of the
# --report JSON).
DISC_GOLDEN = [
    ([[2]],
     "aeff98048cf41299f9e8948fa2d90a6724c5674b96c536e1a2ef4c58ed201901",
     "1b61d8e34d412c9e1f503b349473eaee9e9db0576f086e6bc487c9bc9f7a9627"),
    ([[-7]],
     "2eb4d3cf045907bb078702a052098cb54a457720c1611ebc882dd624f1ccf4a1",
     "59af8be6eadea1ff390d1e6fefab55a0098afc1fb2334ed9d5c86194aa4116a8"),
    ([[16384]],
     "77cf5fa4ed8fa956d0de7dd81c3fd0b3db971b5b8fb51a4a0b94e51cf7b6a94a",
     "f9710cb39aaec95bcc0b77cdd102f11d71018ea2a3c68f0a5cb7f5e0d0c5f08f"),
    ([[0, 1], [1, 0]],
     "91f4e3b8a4186772844020143016a0de0c5345c89d255a0f0edc8dc78050de8b",
     "159f891b275d796a5e90bc12c53717070f03c08e0f233db52c8d32fd8bc54996"),
    ([[0, 6], [6, 0]],
     "6a5a240b7344c83dab90d4ce8a7b017756f8e2cb53fac082a28526eb0cfd6b64",
     "55baf07728142902d199f438c682dd243bb5a23e431b68799b7f20bb77f78841"),
    ([[2, -1], [-1, 2]],
     "7111ae8dc9bba88ca845e870d08bf0c17afbb5f1bc1683251ce86a219f4b2f5d",
     "68aa0d18b1a704c67bc217c91aa419d101b72f6b00f8aaace9efa42112db1a9b"),
    ([[10, 3], [3, -20]],
     "968c73436615640ed7576c1c8ab09b9cc2a2406bed3c2f2c2aad1b894a8a3ae2",
     "54917cfe4f5252201b8b660568be82b9d927f7aa3b156bce007da6d72752cfa5"),
    ([[256, 0], [0, 128]],
     "da338b41777d1da8068b07091c3b6d7d6979eac7e522075eaddec18cd005d2b0",
     "644552e9248667aabc65964211ef5bb601175dbfb523578bce5b7e9272637e32"),
    ([[1, 0, 0], [0, 3, 0], [0, 0, 5]],
     "1a31c70453ad1d6a56d4207315684e1be31a98cf6b0653121d98215607a4c50b",
     "311df6689650f65b4d7fa260347a3f2ca9892a8236f26403753d2f149570c66e"),
    ([[4, 2, 0], [2, 6, 1], [0, 1, 8]],
     "875a1d6dd88bb040f7967f447ec4a1f06348f2d49a0b4cb129a794907be21008",
     "ab2d5e407104a1d3808693bedbed2d4aa90940188ca77211ac01bb7a9afe2c2b"),
    ([[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]],
     "1bb5bb88c22b379f97b45cc14082b2f26d7e263a67c33a1f51ae44eb230d59be",
     "5abd4637ae488adca68d7bf994958ca7f524db9d3c862224c173ec066a57bdc8"),
    ([[2, 0, 0, 0], [0, 8, 0, 0], [0, 0, 32, 0], [0, 0, 0, 1344]],
     "2e1b4db1d70a95891ec7352bdd5a922ff2f5f9d3ac124729c77e6d29cc096667",
     "46a09525047111c8d267944239c0d0596da95bf15f4107bf995c3def13a5a005"),
    ([[0, 2, 0, 0], [2, 0, 0, 0], [0, 0, 0, 4], [0, 0, 4, 0]],
     "eaff19884bfc392d07351501b950c16aeea6e4fdc2d1f9e9eebe2b3bad1bafff",
     "3e542e86512e276ab9b6bd1f9a2a39a7d33d8b92a47e048d9f93b5231dc3dd14"),
    ([[3, 0, 0, 0, 0], [0, 7, 0, 0, 0], [0, 0, 11, 0, 0], [0, 0, 0, 13, 0], [0, 0, 0, 0, 17]],
     "b1ecb035a87a466a3470dc14d0af927c52e3c06405fb9e66d62d857e8756d89f",
     "e2e724774656967c430326235b5c4cea69deea2951adc196eb847d51c7077eda"),
    ([[2, 0, 0, 0, 0], [0, 4, 0, 0, 0], [0, 0, 8, 0, 0], [0, 0, 0, 16, 0], [0, 0, 0, 0, 32]],
     "72113f02049f20fe7ef61f9a3723fbc664c243fa2b6314db4cd27dcaf0a48f43",
     "9d02d3d29072390951e15093d1801bab71988953bc6052af45caed17325cfda5"),
    ([[2, 1, 0, 0, 1], [1, -2, 1, 0, 0], [0, 1, 4, 1, 0], [0, 0, 1, -6, 2], [1, 0, 0, 2, 8]],
     "7d7d63f4a7043476af6a3576e28f7ad3116160fd3d86504b79f88489fbb35666",
     "a52d2ccf07ddbb9d4fc6c8d63ad67462c8e3ced21f370a4adb7d34f4cc44cbac"),
    ([[36, -23, 0, 0, 22, -13], [-23, 23, 0, 0, -16, 13], [0, 0, 3, 3, 0, 0],
      [0, 0, 3, 5, 0, 0], [22, -16, 0, 0, 20, -11], [-13, 13, 0, 0, -11, 8]],
     "9928150e976ba0b6c73d10254b5be6075b7f72bb967d677c9386b06a34de8761",
     "8afde4c1b3b03e016a4f326dbdfb198dca805e1d357787215c90ce1cba1ff96c"),
    ([[0, 2, 0, 0, 0, 0], [2, 0, 0, 0, 0, 0], [0, 0, 0, 4, 0, 0],
      [0, 0, 4, 0, 0, 0], [0, 0, 0, 0, 2, 0], [0, 0, 0, 0, 0, -6]],
     "da65000b602a4e4a0edf9890e417a163bfb996f24779715af0da29b6ea0f9535",
     "5d2d4f6ab8ba015059785e8b0662c706caa9006d13508205f5b8ef16445e30ab"),
    ([[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], [0, 0, -1, 0, 0, 0],
      [0, 0, 0, 2, 1, 0], [0, 0, 0, 1, 2, 0], [0, 0, 0, 0, 0, 1034273]],
     "cf3a45c87b9de3780ca792a820c3925ba249ca0262220861e72ae4b89c942e9f",
     "aaa0fd0cb62b6b6814f9e6e6bc487e3078d5ce0d195ec3330b1ab321960ec172"),
    ([[4, 2, 0, 0, 0, 0], [2, 4, 0, 0, 0, 0], [0, 0, 8, 0, 0, 0],
      [0, 0, 0, 16, 0, 0], [0, 0, 0, 0, 32, 0], [0, 0, 0, 0, 0, -10]],
     "832d6e6311010d739e2a8c7f3678c99a77868e35a37691dba71e22dea4f4cd63",
     "2e9fbfeb405c8f6b8b5eaf902abf149b023056648cc0bd92c51c71ccf3fb1e4e"),
]


# SHA-256 of the `disc` stdout and --report bytes of every Gram in
# disc_corpus(), concatenated in order. Recorded while
# snf_with_transforms still built S: the generators are read off T's
# columns, so this pins T's operation sequence.
DISC_CORPUS_SHA256 = "dcb1d7add3ebbd12ca37b92ea1e29d6b73ac0b952e1acbab2e49c7d818d8cae4"


def disc_corpus():
    """300 seeded nondegenerate symmetric Grams of rank 1-6, entries in [-6, 6].

    Even and odd lattices alternate: an even one has every diagonal
    entry even, an odd one at least one odd diagonal entry.
    """
    rng = random.Random(1717)
    grams = []
    while len(grams) < 300:
        n = rng.randint(1, 6)
        even = len(grams) % 2 == 0
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                m[i][j] = m[j][i] = rng.randint(-6, 6)
        if even:
            for i in range(n):
                m[i][i] -= m[i][i] % 2
        if all(m[i][i] % 2 == 0 for i in range(n)) == even and brute_det(m):
            grams.append(m)
    return grams


# SHA-256 of the `kernel` stdout and --report bytes of every document in
# kernel_corpus(), concatenated in order. Recorded while B-fields and
# Brauer classes were stored as Fraction tuples; the class values render
# into the report.
KERNEL_CORPUS_SHA256 = "98c027e8dd321e805a52b097099c24abd15064552fd5e1a48a7229d5907fdf6b"


def kernel_corpus():
    """200 seeded (document, kernel arguments) pairs on lattices of rank 1-5.

    Each document holds a nondegenerate Gram with entries in [-4, 4], a
    B-field with entries p/q, |p| <= 7, 1 <= q <= 8, and a sublattice T
    of rank 1 up to the ambient rank (util.random_sublattice_basis). One
    pair in three omits --sublattice, so the class lives on the whole
    lattice.
    """
    rng = random.Random(2323)
    corpus = []
    for k in range(200):
        n = rng.randint(1, 5)
        gram = random_symmetric_lattice_gram(rng, n, bound=4)
        coords = [Fraction(rng.randint(-7, 7), rng.randint(1, 8)) for _ in range(n)]
        rows = random_sublattice_basis(rng, n)
        text = "lattice L\n" + "".join("  gram %s\n" % " ".join(map(str, row)) for row in gram)
        text += "\nbfield B\n  lattice L\n  coords %s\n" % " ".join(map(str, coords))
        text += "\nsublattice T\n  ambient L\n" + "".join(
            "  row %s\n" % " ".join(map(str, row)) for row in rows)
        corpus.append((text, ["--bfield", "B"] + ([] if k % 3 == 0 else ["--sublattice", "T"])))
    return corpus


@pytest.fixture
def u_doc(tmp_path):
    path = tmp_path / "u.doc"
    path.write_text(U_DOC)
    return str(path)


class TestInfoCommands:
    def test_lattice_info_golden(self, u_doc, capsys):
        assert main(["lattice-info", u_doc, "--name", "U"]) == 0
        out = capsys.readouterr().out
        assert out == (
            "lattice U\nrank 2\ngram 0 1\ngram 1 0\ndet -1\nsignature 1 1\n"
        )

    def test_disc_golden(self, u_doc, capsys):
        assert main(["disc", u_doc, "--name", "U2"]) == 0
        out = capsys.readouterr().out
        assert out == (
            "discriminant U2\norder 4\ndivisors 2 2\nq 1 0\nq 2 0\npairing 1 2 1/2\n"
        )

    @pytest.mark.parametrize("gram, out_digest, report_digest", DISC_GOLDEN)
    def test_disc_bytes_match_golden(self, gram, out_digest, report_digest, tmp_path, capsys):
        doc = tmp_path / "l.doc"
        doc.write_text("lattice L\n" + "".join(
            "  gram %s\n" % " ".join(map(str, row)) for row in gram))
        report = tmp_path / "rep.json"
        assert main(["disc", str(doc), "--name", "L", "--report", str(report)]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == out_digest
        assert hashlib.sha256(report.read_bytes()).hexdigest() == report_digest

    def test_disc_corpus_bytes_match_digest(self, tmp_path, capsys):
        doc = tmp_path / "l.doc"
        report = tmp_path / "rep.json"
        digest = hashlib.sha256()
        for gram in disc_corpus():
            doc.write_text("lattice L\n" + "".join(
                "  gram %s\n" % " ".join(map(str, row)) for row in gram))
            assert main(["disc", str(doc), "--name", "L", "--report", str(report)]) == 0
            digest.update(capsys.readouterr().out.encode())
            digest.update(report.read_bytes())
        assert digest.hexdigest() == DISC_CORPUS_SHA256

    def test_twist(self, u_doc, capsys):
        assert main(["twist", u_doc, "--name", "U", "--by", "3"]) == 0
        out = capsys.readouterr().out
        assert "gram 0 3" in out and "U(3)" in out

    def test_kernel(self, u_doc, capsys):
        assert main(["kernel", u_doc, "--bfield", "B"]) == 0
        out = capsys.readouterr().out
        assert "order = 2" in out
        assert "kernel_basis = [[1, 0], [0, 2]]" in out

    def test_kernel_corpus_bytes_match_digest(self, tmp_path, capsys):
        doc = tmp_path / "k.doc"
        report = tmp_path / "rep.json"
        digest = hashlib.sha256()
        for text, args in kernel_corpus():
            doc.write_text(text)
            assert main(["kernel", str(doc)] + args + ["--report", str(report)]) == 0
            digest.update(capsys.readouterr().out.encode())
            digest.update(report.read_bytes())
        assert digest.hexdigest() == KERNEL_CORPUS_SHA256

    def test_missing_name_is_input_error(self, u_doc, capsys):
        for argv, what in (
            (["lattice-info", "--name", "nope"], "lattice"),
            (["disc", "--name", "nope"], "lattice"),
            (["twist", "--name", "nope", "--by", "2"], "lattice"),
            (["transcendental", "--period", "nope"], "period"),
            (["kernel", "--bfield", "nope"], "bfield"),
            (["kernel", "--bfield", "B", "--sublattice", "nope"], "sublattice"),
        ):
            assert main(argv[:1] + [u_doc] + argv[1:]) == 3
            captured = capsys.readouterr()
            assert captured.err == "error: no %s named 'nope' in the document\n" % what
            assert captured.out == ""

    def test_stdin_input(self, monkeypatch, capsys):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(U_DOC))
        assert main(["lattice-info", "-", "--name", "U"]) == 0
        assert "lattice U" in capsys.readouterr().out


def transvection_conjugate():
    """A_2 conjugated by a transvection along e_1 of U^3."""
    x = [0, 0, -1, -1, 1, -1]
    base = base_abelian_model(2).h2.period
    period = base.map_by(_eichler(u_cubed().gram, 1, x), base.lattice)
    return AbelianSurfaceModel.from_h2(hodge_lattice(period.lattice, period))


# The two documents of each `tequiv` guard pair, as (model, B-field) sides.
TEQUIV_PAIRS = {
    "verified": lambda: ((base_abelian_model(1), None), (product_abelian_model(1), None)),
    "refuted": lambda: ((base_abelian_model(2), None), (product_abelian_model(1), None)),
    "twisted": lambda: ((product_abelian_model(3), product_bfield(3)), (base_abelian_model(3), None)),
    "identical": lambda: ((base_abelian_model(2), None), (base_abelian_model(2), None)),
    "transvection": lambda: ((transvection_conjugate(), None),
                             (product_abelian_model(2), product_bfield(2))),
}


def write_pair(directory, stem, sides):
    """Write the two (model, B-field) sides as documents; their paths as strings."""
    paths = []
    for k, (model, bfield) in enumerate(sides):
        path = directory / ("%s%d.doc" % (stem, k))
        path.write_text(doc_for_surface(model, bfield))
        paths.append(str(path))
    return paths


# Exit code and SHA-256 of the `tequiv --bound 3 --report` bytes per pair.
TEQUIV_REPORT_SHA256 = {
    "identical": (0, "3c93ff14d0fbb17c4efa2481019e5df3bd23c04edc54a1ed5e37cce3bb2dac4f"),
    "refuted": (1, "ce69ed95387169f22cb5ee741a212637c486ce8f8e52d4617289c2546df7918d"),
    "transvection": (0, "32fb6bb0486b2cc40c160fb55b1b86344e0a8e1269b9671dbfa27ba2ddb1c3c0"),
    "twisted": (0, "a9adeb5e7e5a604c50655b47e13c525945aea7f03ad056c150787a2be4180246"),
    "verified": (0, "e61fde42f0a8c78e7929e6a9d37e202b9a276a5e0d0db56f42cae4d51d550110"),
}

# Exit code and SHA-256 of the `theta --surface A --report` bytes for
# (E_n x F, B = product_bfield(n)) and (A_n, B = 0).
THETA_REPORT_SHA256 = {
    ("product", 1): (0, "a565cb865dbc2aacfa076e73685ec43e709e30081edeeb1e82601953384e2402"),
    ("product", 2): (0, "a223c0601e37afaab96986a1d648eaf266d487a3bec73db45f074a65bf53122b"),
    ("product", 3): (0, "d56a8d37a8b78292f00bef31b8303f8754e88e93f2c0c7f93d05ef103e56db12"),
    ("product", 4): (0, "f8f6aafe66be743f4d49ea9c0f59ca82b5e00654c3dae71f1b7e3fa6fa36e9a9"),
    ("product", 5): (0, "b740b5bce574cbb8babdde39027124c56e822bed17822d2a701b752bba4af96a"),
    ("base", 1): (0, "96cef5e879914b3f411d06c66c8dbf8b90d657d05fab3f7c21c3706098104ca1"),
    ("base", 2): (0, "a2233de64e8b2a74dc34cde6192193de5ef9108a22a996d1c93852268446aa51"),
    ("base", 3): (0, "d42a55130df10aab50c9a52e18188c338a3a162d79e7b48c6e21aa6e12dd990b"),
}


class TestSurfaceCommands:
    def test_transcendental(self, tmp_path, capsys):
        path = tmp_path / "a.doc"
        path.write_text(doc_for_surface(base_abelian_model(2)))
        assert main(["transcendental", str(path), "--period", "sigma"]) == 0
        out = capsys.readouterr().out
        assert "t_rank = 4" in out
        assert "picard_number = 2" in out

    def test_theta(self, tmp_path, capsys):
        model = product_abelian_model(3)
        path = tmp_path / "ef1.doc"
        path.write_text(doc_for_surface(model, product_bfield(3)))
        assert main(["theta", str(path), "--surface", "A"]) == 0
        out = capsys.readouterr().out
        assert "km_order = 3" in out
        assert "source_order = 3" in out

    def test_tequiv_verified(self, tmp_path, capsys):
        n = 2
        a = tmp_path / "a.doc"
        a.write_text(doc_for_surface(base_abelian_model(n)))
        b = tmp_path / "b.doc"
        b.write_text(doc_for_surface(product_abelian_model(n), product_bfield(n)))
        assert main(["tequiv", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "verdict = equivalent" in out
        assert "overall: verified" in out

    def test_tequiv_refuted(self, tmp_path, capsys):
        a = tmp_path / "a.doc"
        a.write_text(doc_for_surface(base_abelian_model(2)))
        b = tmp_path / "b.doc"
        b.write_text(doc_for_surface(product_abelian_model(1)))
        assert main(["tequiv", str(a), str(b)]) == 1
        out = capsys.readouterr().out
        assert "overall: refuted" in out

    def test_tequiv_identical_documents(self, tmp_path, capsys):
        a = tmp_path / "a.doc"
        a.write_text(doc_for_surface(base_abelian_model(2)))
        assert main(["tequiv", str(a), str(a)]) == 0
        out = capsys.readouterr().out
        assert "verdict = equivalent" in out


    def test_tequiv_transvection_conjugate(self, tmp_path, capsys):
        # A_2 conjugated by a transvection along e_1 against (E_2 x F, k2/2):
        # the witness has an entry of size 4, past the old search bound 3
        model1 = transvection_conjugate()
        model2, b2 = product_abelian_model(2), product_bfield(2)
        a = tmp_path / "a.doc"
        a.write_text(doc_for_surface(model1))
        b = tmp_path / "b.doc"
        b.write_text(doc_for_surface(model2, b2))
        report = tmp_path / "rep.json"
        assert main(["tequiv", str(a), str(b), "--bound", "3", "--report", str(report)]) == 0
        assert "verdict = equivalent" in capsys.readouterr().out
        entry = json.loads(report.read_text())["checks"][0]
        matrix = json.loads(entry["certificate"]["witness"])
        assert max(abs(v) for row in matrix for v in row) > 3
        source = twisted_transcendental_model(model1.h2, BField.zero(model1.h2.lattice)).hodge
        target = twisted_transcendental_model(model2.h2, b2).hodge
        assert verify_isometry(IsometryMap(
            source=source.lattice, target=target.lattice, matrix=matrix,
            lam=Fraction(entry["values"]["lambda"]),
            source_period=source.period, target_period=target.period,
        ))

    @pytest.mark.parametrize("name", sorted(TEQUIV_REPORT_SHA256))
    def test_tequiv_report_bytes(self, name, tmp_path, capsys):
        paths = write_pair(tmp_path, name, TEQUIV_PAIRS[name]())
        report = tmp_path / "rep.json"
        code = main(["tequiv", *paths, "--bound", "3", "--quiet", "--report", str(report)])
        capsys.readouterr()
        assert (code, hashlib.sha256(report.read_bytes()).hexdigest()) == TEQUIV_REPORT_SHA256[name]

    @pytest.mark.parametrize("kind, n", sorted(THETA_REPORT_SHA256))
    def test_theta_report_bytes(self, kind, n, tmp_path, capsys):
        if kind == "product":
            model, bfield = product_abelian_model(n), product_bfield(n)
        else:
            model, bfield = base_abelian_model(n), None
        path = tmp_path / "a.doc"
        path.write_text(doc_for_surface(model, bfield))
        report = tmp_path / "rep.json"
        code = main(["theta", str(path), "--surface", "A", "--quiet", "--report", str(report)])
        capsys.readouterr()
        assert (code, hashlib.sha256(report.read_bytes()).hexdigest()) == THETA_REPORT_SHA256[kind, n]


# SHA-256 of the `example43 --n N --bound B --report` bytes at the bounds
# other than bench/golden_example43.json's 3. The bound changes the candidate
# pools, so these pin the lex-least witnesses wherever the search's domain
# filters take effect.
EXAMPLE43_REPORT_SHA256 = {
    (1, 1): "3a6987edcb0f13727ee82a71608416105f2fc9ecc8472960c7c3443517ffd684",
    (2, 1): "3f68af07a5376e4db6f338ea8b86c7eccd13f368b628e5d99fc4b81808f03f59",
    (3, 1): "beba3390f2902b15b2a09afd1afebfe6553a50a57ce398a6eedcf1306209b651",
    (4, 1): "99a3dd1dcefba3afc2a03810a59887138b37f0ea74e79407c271b5d4b5a91ee3",
    (5, 1): "8b953cdd843ba6e07299cfaf0658222828ba45175bc1181103ba787a6c2bd1bf",
    (6, 1): "c588f8eee694dae6637b85b028893168fb3141f44c2fbb6c782c2b70b64638c9",
    (7, 1): "ca1b46993b70fdc68f5e23f15efedf4c37bcd1553426a5d688b88e9f48d427b0",
    (8, 1): "bf320eb0f6448b3cc84346aba3e62df154f92860f579e914ae9e548b4fad5078",
    (1, 2): "f569941222d033a73b42874858c2f999196a8859dd9510e247550da1c3d2380d",
    (2, 2): "aeecb73aefc356dc51e34b54eea4560c26a97332c06dd5c60ac4f1fe31cbea59",
    (3, 2): "ddc794d166d46ad0f4425e0e60e9a67c8bd4b06b48c83e0fbabca92dcf7ef081",
    (4, 2): "e7a8d256534fff659734c84523ea54b28e4bc84a89091d0c6c9b4d7bee719993",
    (5, 2): "41714f632b35700e5cee66647ffa0bd6ebb50af857257c8cfa50b86ce2e9a5cc",
    (6, 2): "5e544253b81e85c039892e2ad559395a830d64521c5053efb44e000ea8d833a8",
    (7, 2): "4029eae1b43e9c78add960acbf9a5ab9c830a5625e15d475a70794739122f77b",
    (8, 2): "8e7399bd94f8f6917e21fa91e690a2bf3c5f9b1a326319dc4f536d9bd5b3e88f",
    (1, 4): "8749714b444cbca89ea43da4081a79972a84cd56138eed3726678416e43c0254",
    (2, 4): "6b282d5695b7979bf0d10763b6d9fa3bfe63737c147e87f1eb7ec273c5b07d3e",
    (3, 4): "173bc76fd7444d7fffbe8a4fe5e57669507a6f255b2e8449a498229c920a986b",
    (4, 4): "c5b9cb869708795c967d71ed00d963816db5e28fb49131f1bd2d060fac0ebe7a",
    (5, 4): "07d3e7996cf81f6e6a21031ad169b7b124d7b1a7f27eb1991217e1ed827ef43d",
    (6, 4): "e9623c0e20006b198269c6fb2a0222037390df6c1331f1277ca2b8a5149636a1",
    (7, 4): "15af990a44a29945074bb39ae87546966ef5c3d7727b4560dcb35ad5ba6cf40b",
    (8, 4): "50564463c22da642b8d007c33587278421a6779f6d817e9a8497a903c81cd037",
}


class TestExample43Command:
    def test_exit_codes(self, capsys):
        assert main(["example43", "--n", "1", "--quiet"]) == 0
        assert main(["example43", "--n", "2", "--quiet"]) == 1
        capsys.readouterr()

    def test_text_output(self, capsys):
        assert main(["example43", "--n", "2"]) == 1
        out = capsys.readouterr().out
        assert out.startswith("command: example43 --n 2 --bound 3\n")
        assert "check untwisted-comparison: refuted" in out
        assert out.rstrip().endswith("overall: refuted")

    def test_deterministic_bytes(self, capsys):
        main(["example43", "--n", "2"])
        first = capsys.readouterr().out
        main(["example43", "--n", "2"])
        second = capsys.readouterr().out
        assert first == second

    def test_json_report(self, tmp_path, capsys):
        report = tmp_path / "rep.json"
        assert main(["example43", "--n", "3", "--quiet", "--report", str(report)]) == 1
        capsys.readouterr()
        data = json.loads(report.read_text())
        assert data["overall"] == "refuted"
        assert len(data["checks"]) == 10
        names = [c["name"] for c in data["checks"]]
        assert "twisted-equivalence" in names

    @pytest.mark.parametrize("n", range(1, 9))
    def test_report_bytes_match_golden(self, n, tmp_path, capsys):
        # digests recorded with the benchmark; report bytes must never drift
        golden = Path(__file__).resolve().parent.parent / "bench" / "golden_example43.json"
        digest = json.loads(golden.read_text())["sha256"][str(n)]
        report = tmp_path / "rep.json"
        main(["example43", "--n", str(n), "--bound", "3", "--quiet", "--report", str(report)])
        capsys.readouterr()
        assert hashlib.sha256(report.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("n, bound", sorted(EXAMPLE43_REPORT_SHA256))
    def test_report_bytes_across_bounds(self, n, bound, tmp_path, capsys):
        report = tmp_path / "rep.json"
        args = ["example43", "--n", str(n), "--bound", str(bound), "--quiet", "--report", str(report)]
        assert main(args) == (0 if n == 1 else 1)
        capsys.readouterr()
        assert hashlib.sha256(report.read_bytes()).hexdigest() == EXAMPLE43_REPORT_SHA256[n, bound]

    def test_invalid_n(self, capsys):
        assert main(["example43", "--n", "0"]) == 3
        capsys.readouterr()

    def test_bound_defaults_to_three(self, tmp_path, capsys):
        # without --bound, example43 prints and writes the --bound 3 bytes
        runs = []
        for extra in ([], ["--bound", "3"]):
            report = tmp_path / "rep.json"
            assert main(["example43", "--n", "1", "--report", str(report)] + extra) == 0
            runs.append((capsys.readouterr(), report.read_bytes()))
        assert runs[0] == runs[1]
        assert "example43 --n 1 --bound 3" in runs[0][0].out
        golden = Path(__file__).resolve().parent.parent / "bench" / "golden_example43.json"
        assert hashlib.sha256(runs[0][1]).hexdigest() == json.loads(golden.read_text())["sha256"]["1"]


class TestRobustness:
    def test_usage_error_is_input_error(self, capsys):
        assert main(["no-such-command"]) == 3
        assert main([]) == 3
        capsys.readouterr()

    def test_commands_in_sequence_repeat_their_output(self, tmp_path, capsys):
        # one process, one parser: tequiv, a usage error, example43 and
        # tequiv again, twice over; every call gives the stdout, stderr,
        # report bytes and exit code of the first call of its command
        a = tmp_path / "a.doc"
        a.write_text(doc_for_surface(base_abelian_model(2)))
        b = tmp_path / "b.doc"
        b.write_text(doc_for_surface(product_abelian_model(2), product_bfield(2)))
        report = tmp_path / "rep.json"
        tequiv = ["tequiv", str(a), str(b), "--report", str(report)]
        usage = ["tequiv", str(a), "--bound"]
        example = ["example43", "--n", "2", "--report", str(report)]
        first = {}
        for argv in [tequiv, usage, example, tequiv] * 2:
            report.write_bytes(b"")
            code = main(argv)
            captured = capsys.readouterr()
            seen = (code, captured.out, captured.err, report.read_bytes())
            assert first.setdefault(tuple(argv), seen) == seen
        assert [first[tuple(argv)][0] for argv in (tequiv, usage, example)] == [0, 3, 1]
        assert first[tuple(usage)][2].startswith("usage: kummerlat tequiv")

    def test_missing_file(self, capsys):
        assert main(["lattice-info", "/nonexistent/x.doc", "--name", "U"]) == 3
        capsys.readouterr()

    def test_fuzzed_documents_never_crash(self, tmp_path, capsys):
        rng = random.Random(101)
        base = U_DOC
        for i in range(60):
            text = base
            for _ in range(rng.randint(1, 4)):
                op = rng.randrange(5)
                lines = text.splitlines()
                if op == 0 and lines:
                    del lines[rng.randrange(len(lines))]
                    text = "\n".join(lines)
                elif op == 1 and lines:
                    j = rng.randrange(len(lines))
                    lines.insert(j, lines[j])
                    text = "\n".join(lines)
                elif op == 2 and text:
                    j = rng.randrange(len(text))
                    text = text[:j] + chr(rng.randint(33, 126)) + text[j + 1:]
                elif op == 3:
                    text = text[: rng.randrange(len(text) + 1)]
                else:
                    lines.insert(rng.randrange(len(lines) + 1), "junk %d" % i)
                    text = "\n".join(lines)
            path = tmp_path / ("fuzz%d.doc" % i)
            path.write_text(text)
            code = main(["lattice-info", str(path), "--name", "U", "--quiet"])
            assert code in (0, 3)
            code = main(["kernel", str(path), "--bfield", "B", "--quiet"])
            assert code in (0, 3)
        capsys.readouterr()


class TestReportWriter:
    """--report writes a pipe as it comes and closes what it opens."""

    def test_pipe_gets_the_whole_report(self, tmp_path, capsys):
        paths = write_pair(tmp_path, "verified", TEQUIV_PAIRS["verified"]())
        read_end, write_end = os.pipe()
        with os.fdopen(read_end, "rb") as reader:
            try:
                open_fds = len(os.listdir("/dev/fd"))
                code = main(["tequiv", *paths, "--quiet", "--report", "/dev/fd/%d" % write_end])
                # checked before the read, which a writer left open would block
                assert len(os.listdir("/dev/fd")) == open_fds
            finally:
                os.close(write_end)
            data = reader.read()
        assert (code, hashlib.sha256(data).hexdigest()) == TEQUIV_REPORT_SHA256["verified"]
        assert capsys.readouterr().err == ""

    def test_directory_is_an_input_error(self, tmp_path, capsys):
        paths = write_pair(tmp_path, "verified", TEQUIV_PAIRS["verified"]())
        assert main(["tequiv", *paths, "--quiet", "--report", str(tmp_path)]) == 3
        assert capsys.readouterr().err.startswith("error: ")

    def test_dev_mode_runs_warn_of_nothing(self, tmp_path):
        # -X dev with ResourceWarning as an error: a file the program leaves
        # open would print to stderr
        equivalent = write_pair(tmp_path, "verified", TEQUIV_PAIRS["verified"]())
        refuted = write_pair(tmp_path, "refuted", TEQUIV_PAIRS["refuted"]())
        report = tmp_path / "rep.json"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
        for args, code in ((["tequiv", *equivalent], 0), (["tequiv", *refuted], 1),
                           (["example43", "--n", "2"], 1)):
            done = subprocess.run(
                [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-m", "kummerlat.cli",
                 *args, "--report", str(report)],
                capture_output=True, env=env, timeout=120,
            )
            assert (done.returncode, done.stderr) == (code, b"")


class TestTequivWork:
    """What one tequiv call builds; each count repeats exactly from call to call."""

    def test_two_saturations_few_fractions_and_no_text_when_quiet(self, tmp_path, monkeypatch, capsys):
        # shaped like the benchmark pool: one twisted pair and two mismatched ones
        pairs = {
            "twisted": TEQUIV_PAIRS["twisted"](),
            "refuted": TEQUIV_PAIRS["refuted"](),
            "mismatched": ((base_abelian_model(3), None), (base_abelian_model(1), None)),
        }
        report = tmp_path / "rep.json"
        argvs = [["tequiv", *write_pair(tmp_path, name, sides), "--report", str(report)]
                 for name, sides in pairs.items()]
        saturations, renders = [], []
        saturation, render_text = linalg.saturation, Report.render_text
        monkeypatch.setattr(linalg, "saturation",
                            lambda rows, ncols: saturations.append(1) or saturation(rows, ncols))
        monkeypatch.setattr(Report, "render_text", lambda rep: renders.append(1) or render_text(rep))

        def counts(argv):
            codes = []
            saturations.clear()
            renders.clear()
            fractions = fractions_built(monkeypatch, lambda: codes.append(main(argv)))
            return codes[0], len(saturations), fractions, len(renders)

        rounds = [[counts(argv + ["--quiet"]) for argv in argvs] for _ in range(2)]
        assert rounds[0] == rounds[1]
        assert [c[0] for c in rounds[0]] == [0, 1, 1]
        # T(A, B) once per document: T(A) is never built
        assert [c[1] for c in rounds[0]] == [2, 2, 2]
        assert sum(c[2] for c in rounds[0]) <= 25 * len(argvs)
        assert [c[3] for c in rounds[0]] == [0, 0, 0]
        capsys.readouterr()
        # printed, the report is rendered once
        assert counts(argvs[0])[3] == 1
        assert "overall: verified" in capsys.readouterr().out
