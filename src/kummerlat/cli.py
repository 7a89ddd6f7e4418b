"""Command-line surface.

Exit codes: 0 = overall verified, 1 = refuted, 2 = inconclusive,
3 = input error. Malformed input never produces a traceback.

The search bound is 3 unless --bound says otherwise. The bound limits
the entries of the example43 lattice witnesses; it no longer limits
Hodge isometries between spanning periods, which covers every tequiv
input, and tequiv keeps --bound K only because its reports print it.
Reports print exact rationals only. FILE arguments accept "-" for stdin.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache

from .brauer import brauer_class_of, kernel_with_coords, order_of
from .construction import run_example43
from .hodge import hodge_lattice, transcendental_lattice
from .kummer import t_equivalence
from .lattice import LatticeError, discriminant_form, orthogonal_complement, render_lattice
from .report import EXIT_INPUT_ERROR, INCONCLUSIVE, REFUTED, VERIFIED, Report
from .specdoc import SpecParseError, parse_spec


def _read_file(path):
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


@cache
def _build_parser():
    """The argument parser, built on the first call and reused after it."""
    parser = argparse.ArgumentParser(
        prog="kummerlat",
        description="Exact lattice checks for twisted transcendental structures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_file=True):
        if with_file:
            p.add_argument("file", metavar="FILE", help="input document, '-' for stdin")
        p.add_argument("--report", metavar="PATH", help="write a JSON report")
        p.add_argument("--quiet", action="store_true", help="suppress stdout")

    p = sub.add_parser("lattice-info", help="canonical rendering of a named lattice")
    add_common(p)
    p.add_argument("--name", required=True)

    p = sub.add_parser("disc", help="discriminant form of a named lattice")
    add_common(p)
    p.add_argument("--name", required=True)

    p = sub.add_parser("twist", help="rescale the form of a named lattice")
    add_common(p)
    p.add_argument("--name", required=True)
    p.add_argument("--by", required=True, type=int, metavar="M")

    p = sub.add_parser("transcendental", help="transcendental and NS sublattices")
    add_common(p)
    p.add_argument("--period", required=True, metavar="NAME")

    p = sub.add_parser("kernel", help="Brauer class of a B-field and its kernel")
    add_common(p)
    p.add_argument("--bfield", required=True, metavar="NAME")
    p.add_argument("--sublattice", metavar="NAME",
                   help="transcendental sublattice; defaults to the full lattice")

    p = sub.add_parser("theta", help="transport a Brauer class to the Kummer side")
    add_common(p)
    p.add_argument("--surface", metavar="NAME", help="surface section to use")

    p = sub.add_parser("tequiv", help="T-equivalence of two twisted surfaces")
    p.add_argument("file1", metavar="FILE1")
    p.add_argument("file2", metavar="FILE2")
    p.add_argument("--report", metavar="PATH")
    p.add_argument("--quiet", action="store_true")
    p.add_argument("--bound", type=int, default=3)

    p = sub.add_parser("example43", help="run the order-n worked construction")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--bound", type=int, default=3)
    p.add_argument("--report", metavar="PATH")
    p.add_argument("--quiet", action="store_true")

    return parser


def _emit(args, report, text=None):
    """Print text, or report's text rendering, and write report's JSON to --report.

    Nothing is printed under --quiet, and report is then not rendered as
    text at all.
    """
    if not args.quiet:
        sys.stdout.write(report.render_text() if text is None else text)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())


def _named(table, name, what):
    """The entry of a document table under name; an input error if absent."""
    if name not in table:
        raise LatticeError("no %s named %r in the document" % (what, name))
    return table[name]


def _cmd_lattice_info(args):
    doc = parse_spec(_read_file(args.file))
    lat = _named(doc.lattices, args.name, "lattice")
    rep = Report(command="lattice-info --name %s" % args.name)
    pos, neg = lat.signature()
    rep.add("lattice-info", VERIFIED, values={
        "rank": lat.rank, "det": lat.det, "signature": (pos, neg),
        "gram": lat.gram,
    })
    _emit(args, rep, render_lattice(args.name, lat))
    return 0


def _cmd_disc(args):
    doc = parse_spec(_read_file(args.file))
    lat = _named(doc.lattices, args.name, "lattice")
    disc = discriminant_form(lat)
    lines = ["discriminant %s" % args.name,
             "order %d" % disc.order,
             "divisors %s" % (" ".join(str(d) for d in disc.elementary_divisors) or "-")]
    for i, q in enumerate(disc.q_values):
        lines.append("q %d %s" % (i + 1, q))
    for i in range(len(disc.q_values)):
        for j in range(i + 1, len(disc.q_values)):
            lines.append("pairing %d %d %s" % (i + 1, j + 1, disc.pairings[i][j]))
    rep = Report(command="disc --name %s" % args.name)
    rep.add("disc", VERIFIED, values={
        "order": disc.order,
        "divisors": disc.elementary_divisors,
        "q_values": disc.q_values,
    })
    _emit(args, rep, "\n".join(lines) + "\n")
    return 0


def _cmd_twist(args):
    doc = parse_spec(_read_file(args.file))
    twisted = _named(doc.lattices, args.name, "lattice").twist(args.by)
    name = "%s(%d)" % (args.name, args.by)
    rep = Report(command="twist --name %s --by %d" % (args.name, args.by))
    rep.add("twist", VERIFIED, values={"gram": twisted.gram, "det": twisted.det})
    _emit(args, rep, render_lattice(name, twisted))
    return 0


def _cmd_transcendental(args):
    doc = parse_spec(_read_file(args.file))
    period = _named(doc.periods, args.period, "period")
    h = hodge_lattice(period.lattice, period)
    t = transcendental_lattice(h)
    ns = orthogonal_complement(t)
    rep = Report(command="transcendental --period %s" % args.period)
    rep.add("transcendental", VERIFIED, values={
        "t_rank": t.rank, "t_basis": t.basis, "t_gram": t.gram,
        "ns_rank": ns.rank, "ns_basis": ns.basis, "picard_number": ns.rank,
    })
    _emit(args, rep)
    return rep.exit_code


def _cmd_kernel(args):
    doc = parse_spec(_read_file(args.file))
    bf = _named(doc.bfields, args.bfield, "bfield")
    if args.sublattice is not None:
        t = _named(doc.sublattices, args.sublattice, "sublattice")
    else:
        t = bf.lattice.full_sublattice()
    alpha = brauer_class_of(bf, t)
    kernel, coords = kernel_with_coords(alpha)
    rep = Report(command="kernel --bfield %s%s" % (
        args.bfield,
        "" if args.sublattice is None else " --sublattice %s" % args.sublattice,
    ))
    rep.add("kernel", VERIFIED, values={
        "values": alpha.values,
        "order": order_of(alpha),
        "kernel_basis": kernel.basis,
    }, certificate={"kernel_in_t_coords": coords})
    _emit(args, rep)
    return rep.exit_code


def _cmd_theta(args):
    doc = parse_spec(_read_file(args.file))
    surface = doc.surface_model(args.surface)
    km, beta, alpha = surface.kummer, surface.km_brauer, surface.brauer
    rep = Report(command="theta%s" % ("" if args.surface is None else " --surface %s" % args.surface))
    rep.add("theta", VERIFIED, values={
        "km_gram": km.T_km.gram,
        "km_values": beta.values,
        "km_order": order_of(beta),
        "source_order": order_of(alpha),
    })
    _emit(args, rep)
    return rep.exit_code


def _cmd_tequiv(args):
    doc1 = parse_spec(_read_file(args.file1))
    doc2 = parse_spec(_read_file(args.file2))
    verdict = t_equivalence(doc1.surface_model(), doc2.surface_model(), args.bound)
    rep = Report(command="tequiv --bound %d" % args.bound)
    if verdict.kind == "equivalent":
        rep.add("t-equivalence", VERIFIED,
                values={"verdict": "equivalent", "lambda": verdict.witness.lam},
                certificate={"witness": verdict.witness.matrix})
    elif verdict.kind == "refuted":
        rep.add("t-equivalence", REFUTED,
                values={"verdict": "refuted"},
                certificate={"invariants": verdict.reason})
    else:
        rep.add("t-equivalence", INCONCLUSIVE,
                values={"verdict": "inconclusive", "bound": verdict.bound,
                        "detail": verdict.reason})
    _emit(args, rep)
    return rep.exit_code


def _cmd_example43(args):
    if args.n < 1:
        raise LatticeError("--n must be a positive integer")
    if args.bound < 1:
        raise LatticeError("--bound must be a positive integer")
    rep = run_example43(args.n, args.bound)
    _emit(args, rep)
    return rep.exit_code


_HANDLERS = {
    "lattice-info": _cmd_lattice_info,
    "disc": _cmd_disc,
    "twist": _cmd_twist,
    "transcendental": _cmd_transcendental,
    "kernel": _cmd_kernel,
    "theta": _cmd_theta,
    "tequiv": _cmd_tequiv,
    "example43": _cmd_example43,
}


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; normalize to the input-error code
        return EXIT_INPUT_ERROR if exc.code not in (0, None) else 0
    try:
        return _HANDLERS[args.command](args)
    except (SpecParseError, LatticeError, OSError, ValueError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
