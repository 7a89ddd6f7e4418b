"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines; every
tolerance here is exact equality (the library carries no floating point).
"""

import random
import time

from kummerlat import (
    BField,
    DIFFER,
    Lattice,
    TwistedSurface,
    brauer_class_of,
    brauer_equal,
    direct_sum,
    exp_b_embedding,
    find_isometry,
    generalized_transcendental,
    genus_equal,
    is_square_ratio,
    kernel_with_coords,
    kummer_transcendental,
    make_standard,
    mukai_lattice,
    order_of,
    saturate,
    transport_isometry,
    verify_isometry,
)
from kummerlat import linalg
from kummerlat.cli import main
from kummerlat.construction import run_example43
from kummerlat.report import REFUTED, VERIFIED
from util import (
    random_class_fixtures,
    random_rational_vector,
    random_symmetric_lattice_gram,
    random_surface_fixture,
    random_u3_isometry,
)
from test_kummer import transformed_model, witness_between


def _line(num, ok, text):
    print("[%s] criterion %d: %s" % ("PASS" if ok else "FAIL", num, text))
    assert ok, "criterion %d failed: %s" % (num, text)


def test_criterion_1_worked_example_all_orders():
    failures = []
    for n in (1, 2, 3, 5, 6):
        t0 = time.monotonic()
        rep = run_example43(n, bound=3)
        elapsed = time.monotonic() - t0
        verdicts = {c.name: c.verdict for c in rep.checks}
        expected5 = VERIFIED if n == 1 else REFUTED
        ok = (
            len(rep.checks) == 10
            and verdicts["untwisted-comparison"] == expected5
            and all(
                v == VERIFIED
                for k, v in verdicts.items()
                if k != "untwisted-comparison"
            )
            and all(
                c.certificate or c.values for c in rep.checks
            )
            and elapsed < 10.0
        )
        if not ok:
            failures.append((n, verdicts, elapsed))
    _line(1, not failures, "example43 verdicts and runtime for N in {1,2,3,5,6}"
          + ("" if not failures else " -- failures: %r" % failures))


def test_criterion_2_kernel_index_law():
    fixtures = random_class_fixtures(202, 200)
    bad = 0
    for lat, b, alpha in fixtures:
        _, coords = kernel_with_coords(alpha)
        index = abs(linalg.det(coords))
        if index != order_of(alpha):
            bad += 1
    _line(2, bad == 0, "[T : ker] = order on %d fixtures (%d failures)" % (len(fixtures), bad))


def test_criterion_3_exp_b_isometry():
    from util import simple_full_rank_period

    fixtures = random_class_fixtures(303, 200)
    bad = 0
    for lat, b, alpha in fixtures:
        sigma = simple_full_rank_period(lat)
        kernel, _ = kernel_with_coords(alpha)
        target = generalized_transcendental(sigma, b)
        mukai = mukai_lattice(lat)
        rows = [[0] + list(r) + [int(lat.pair(r, b.coords))] for r in kernel.basis]
        ok = True
        try:
            iso = exp_b_embedding(kernel, b, target)
            verify_isometry(iso)
        except Exception:
            ok = False
        for i, ri in enumerate(rows):
            for j, rj in enumerate(rows):
                if mukai.pair(ri, rj) != lat.pair(kernel.basis[i], kernel.basis[j]):
                    ok = False
        from kummerlat import Sublattice

        image = Sublattice(mukai, rows)
        if not saturate(image).same_span(target):
            ok = False
        if not ok:
            bad += 1
    _line(3, bad == 0, "exp(B) preserves the form and saturates onto T(X,B) "
          "on 200 fixtures (%d failures)" % bad)


def test_criterion_4_theta_order_preservation():
    rng = random.Random(404)
    bad = 0
    total = 200
    for _ in range(total):
        model, _, _ = random_surface_fixture(rng)
        b = BField(model.h2.lattice, random_rational_vector(rng, 6, max_den=6))
        alpha = brauer_class_of(b, model.T)
        beta = TwistedSurface(model, b).km_brauer
        if order_of(beta) != order_of(alpha):
            bad += 1
            continue
        # invariance under replacing B by any equivalent B-field
        shift = [rng.randint(-3, 3) for _ in range(6)]
        b2 = BField(model.h2.lattice, tuple(x + s for x, s in zip(b.coords, shift)))
        if not brauer_equal(b, b2, model.T):
            bad += 1
            continue
        if TwistedSurface(model, b2).km_brauer.values != beta.values:
            bad += 1
    _line(4, bad == 0, "theta preserves order and is lift-independent on %d fixtures "
          "(%d failures)" % (total, bad))


def test_criterion_5_doubling():
    rng = random.Random(505)
    bad = 0
    total = 60
    for _ in range(total):
        model, _, _ = random_surface_fixture(rng)
        km = kummer_transcendental(model)
        expected = tuple(tuple(2 * x for x in row) for row in model.T.gram)
        if km.T_km.gram != expected:
            bad += 1
    _line(5, bad == 0, "gram(T_km) = 2 gram(T(A)) entrywise on %d fixtures (%d failures)" % (total, bad))


def test_criterion_6_refutation_soundness():
    u = make_standard("U")
    ok = genus_equal(u, make_standard("U_n", 2)) == DIFFER
    ok = ok and find_isometry(u, make_standard("U_n", 2), 3) is None
    uu = direct_sum(u, u)
    for n in (2, 3, 4):
        tw = direct_sum(u, make_standard("U_n", n))
        ok = ok and genus_equal(tw, uu) == DIFFER
        ok = ok and find_isometry(tw, uu, 3) is None
    _line(6, ok, "U vs U(2) and U+U(n) vs U+U refuted by discriminant data; "
          "bounded search concurs")


def test_criterion_7_octagon_commutativity():
    rng = random.Random(707)
    bad = 0
    done = 0
    while done < 20:
        model1, _, _ = random_surface_fixture(rng)
        q = random_u3_isometry(rng)
        model2 = transformed_model(model1, q)
        b1 = BField(model1.h2.lattice, random_rational_vector(rng, 6, max_den=4, max_num=3))
        b2 = BField(model2.h2.lattice, tuple(linalg.vec_times_mat(list(b1.coords), q)))
        g = witness_between(model1, b1, model2, b2, q)
        result = transport_isometry(TwistedSurface(model1, b1), TwistedSurface(model2, b2), g)
        if not result.paths_agree:
            bad += 1
        try:
            verify_isometry(result.map)
        except Exception:
            bad += 1
        done += 1
    _line(7, bad == 0, "both octagon paths scale the period alike on %d transport fixtures "
          "(%d failures)" % (done, bad))


def test_criterion_8_certification_and_fuzzing(tmp_path, capsys):
    # every witness produced by any search revalidates from scratch
    rng = random.Random(808)
    witnesses = 0
    ok = True
    for _ in range(25):
        n = rng.randint(1, 3)
        gram = random_symmetric_lattice_gram(rng, n, bound=4)
        lat = Lattice(gram)
        from util import random_unimodular

        p = random_unimodular(rng, n)
        conj = linalg.matmul(linalg.matmul(p, gram), linalg.transpose(p))
        lat2 = Lattice(conj)
        iso = find_isometry(lat, lat2, 3)
        if iso is not None:
            witnesses += 1
            try:
                verify_isometry(iso)
            except Exception:
                ok = False
    # Hodge searches revalidate as well
    from kummerlat import find_hodge_isometry
    from kummerlat.construction import base_abelian_model

    for n in (2, 3):
        h = base_abelian_model(n).transcendental_hodge()
        iso = find_hodge_isometry(h, h, 2)
        if iso is None:
            ok = False
        else:
            witnesses += 1
            try:
                verify_isometry(iso)
            except Exception:
                ok = False
    # fuzzing: mutated inputs never crash; malformed input exits 3
    base = (
        "lattice U\n  gram 0 1\n  gram 1 0\n\nbfield B\n  lattice U\n  coords 1/2 0\n"
    )
    crashes = 0
    for i in range(120):
        text = base
        for _ in range(rng.randint(1, 5)):
            lines = text.splitlines()
            op = rng.randrange(5)
            if op == 0 and lines:
                del lines[rng.randrange(len(lines))]
                text = "\n".join(lines)
            elif op == 1 and text:
                j = rng.randrange(len(text))
                text = text[:j] + chr(rng.randint(32, 126)) + text[j + 1:]
            elif op == 2:
                text = text[: rng.randrange(len(text) + 1)]
            elif op == 3 and lines:
                j = rng.randrange(len(lines))
                lines.insert(j, lines[j])
                text = "\n".join(lines)
            else:
                text = text + "\nnoise %d" % i
        path = tmp_path / ("f%d.doc" % i)
        path.write_text(text)
        try:
            code = main(["kernel", str(path), "--bfield", "B", "--quiet"])
        except BaseException:
            crashes += 1
            continue
        if code not in (0, 3):
            crashes += 1
    assert main(["lattice-info", str(tmp_path / "missing.doc"), "--name", "U"]) == 3
    capsys.readouterr()
    ok = ok and crashes == 0 and witnesses > 0
    _line(8, ok, "%d witnesses revalidated; %d fuzzed runs, %d crashes" % (witnesses, 120, crashes))


def test_criterion_9_square_ratio():
    ok = is_square_ratio(6, 24) and not is_square_ratio(2, 6)
    rng = random.Random(909)
    bad = 0
    for _ in range(100):
        q = rng.randint(1, 30)
        m = rng.choice([x for x in range(-20, 21) if x])
        if not is_square_ratio(q * q * m, m):
            bad += 1
    _line(9, ok and bad == 0, "square-ratio truth table plus 100 randomized square "
          "multiples (%d failures)" % bad)
