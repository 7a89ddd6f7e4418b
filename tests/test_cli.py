import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from kummerlat import AbelianSurfaceModel, BField, IsometryMap, hodge_lattice, verify_isometry
from kummerlat.cli import main
from kummerlat.construction import (
    base_abelian_model,
    product_abelian_model,
    product_bfield,
    u_cubed,
)
from kummerlat.kummer import twisted_transcendental_model
from kummerlat.specdoc import SpecDocument, render_spec
from util import _eichler

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

    def test_twist(self, u_doc, capsys):
        assert main(["twist", u_doc, "--name", "U", "--by", "3"]) == 0
        out = capsys.readouterr().out
        assert "gram 0 3" in out and "U(3)" in out

    def test_kernel(self, u_doc, capsys):
        assert main(["kernel", u_doc, "--bfield", "B"]) == 0
        out = capsys.readouterr().out
        assert "order = 2" in out
        assert "kernel_basis = [[1, 0], [0, 2]]" in out

    def test_missing_name_is_input_error(self, u_doc, capsys):
        assert main(["lattice-info", u_doc, "--name", "nope"]) == 3
        assert "error:" in capsys.readouterr().err

    def test_stdin_input(self, monkeypatch, capsys):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(U_DOC))
        assert main(["lattice-info", "-", "--name", "U"]) == 0
        assert "lattice U" in capsys.readouterr().out


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
        x = [0, 0, -1, -1, 1, -1]
        base = base_abelian_model(2).h2.period
        period = base.map_by(_eichler(u_cubed().gram, 1, x), base.lattice)
        model1 = AbelianSurfaceModel.from_h2(hodge_lattice(period.lattice, period))
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
        source = twisted_transcendental_model(model1.h2, BField.zero(period.lattice)).hodge
        target = twisted_transcendental_model(model2.h2, b2).hodge
        assert verify_isometry(IsometryMap(
            source=source.lattice, target=target.lattice, matrix=matrix,
            lam=Fraction(entry["values"]["lambda"]),
            source_period=source.period, target_period=target.period,
        ))


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

    def test_invalid_n(self, capsys):
        assert main(["example43", "--n", "0"]) == 3
        capsys.readouterr()

    def test_bound_env_var(self, monkeypatch, capsys):
        monkeypatch.setenv("KUMMERLAT_BOUND", "4")
        assert main(["example43", "--n", "1", "--quiet"]) == 0
        monkeypatch.setenv("KUMMERLAT_BOUND", "junk")
        assert main(["example43", "--n", "1", "--quiet"]) == 0
        capsys.readouterr()


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
