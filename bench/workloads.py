"""The three benchmark workloads: inputs, the timed operation, known answers.

Each workload builds a pool of passes from its seed at set-up. A pass
has a fixed composition, so runs with different seeds do the same kind
of work and differ only in the random inputs. The timed operation goes
through kummerlat's public API; the known-answer check runs after it,
untimed, and takes its expected verdict from how the input was built,
never from the library. Witnesses are re-checked with ``exact``. An
operation still running after its workload's ``limit_s`` is stopped and
counts as failed.

Outcome fields: ``decided`` is true for a verified or refuted verdict;
``failure`` names a missed known answer (None when the answer holds);
``unsound`` marks a failure where the library asserted something false
(a wrong refutation or verification, a witness that does not re-check,
or changed report bytes), as opposed to a verdict left undecided.
"""

import hashlib
import json
import os
from collections import namedtuple
from fractions import Fraction
from math import gamma, pi, sqrt

import exact

Outcome = namedtuple("Outcome", "decided failure unsound")
OK_DECIDED = Outcome(True, None, False)
OK_UNDECIDED = Outcome(False, None, False)

HERE = os.path.dirname(os.path.abspath(__file__))


def _fail(reason, unsound=False, decided=False):
    return Outcome(decided, reason, unsound)


def _parse_value(text):
    """Report values are exact renderings: nested lists of ints, or p/q."""
    try:
        return json.loads(text)
    except ValueError:
        return Fraction(text)


def _witness_outcome(error):
    return _fail(error, unsound=True, decided=True) if error else OK_DECIDED


class Example43:
    """``kummerlat example43 --n N --bound 3`` for N = 1..8 in a seeded order.

    This is the paper's headline pipeline; nearly all of its time is the
    indefinite (2K+1)^4 box scan in isometry.find_isometry, with almost
    no discriminant-form work.
    """

    name = "example43"
    limit_s = 60
    max_failed_share = 0.0
    POOL_PASSES = 24
    ORDERS = range(1, 9)

    def __init__(self, km, rng, workdir):
        self.km = km
        self.report = os.path.join(workdir, "example43.json")
        self.pool = [rng.sample(self.ORDERS, len(self.ORDERS)) for _ in range(self.POOL_PASSES)]
        with open(os.path.join(HERE, "golden_example43.json"), encoding="utf-8") as fh:
            self.golden = {int(k): v for k, v in json.load(fh)["sha256"].items()}
        self.models = {}

    def run(self, n):
        return self.km.cli.main(["example43", "--n", str(n), "--bound", "3",
                                 "--quiet", "--report", self.report])

    def check(self, n, code):
        with open(self.report, "rb") as fh:
            data = fh.read()
        if hashlib.sha256(data).hexdigest() != self.golden[n]:
            return _fail("report bytes differ from the golden digest", unsound=True)
        rep = json.loads(data)
        checks = {c["name"]: c for c in rep["checks"]}
        expected_refuted = {"untwisted-comparison"} if n > 1 else set()
        refuted = {name for name, c in checks.items() if c["verdict"] == "refuted"}
        verified = {name for name, c in checks.items() if c["verdict"] == "verified"}
        if code != (1 if n > 1 else 0) or refuted != expected_refuted \
                or verified != set(checks) - expected_refuted:
            return _fail("verdicts differ from the construction's known answer",
                         unsound=bool(refuted - expected_refuted))
        return _witness_outcome(self._witness_error(n, checks))

    def _witness_error(self, n, checks):
        wedge = exact.wedge_gram()
        u_n = exact.hyperbolic(n)
        for name, basis_key, target in (
            ("ns-class", "ns_basis", u_n),
            ("transcendental-class", "t_basis", exact.block_diag(exact.hyperbolic(1), u_n)),
        ):
            basis = _parse_value(checks[name]["values"][basis_key])
            source = exact.matmul(exact.matmul(basis, wedge), exact.transpose(basis))
            error = exact.isometry_error(_parse_value(checks[name]["certificate"]["witness"]),
                                         source, target)
            if error:
                return "%s: %s" % (name, error)
        src, tgt, km_src, km_tgt = self._twisted_models(n)
        for name, key, lam_key, lam_in, a, b in (
            ("twisted-equivalence", "witness", "lambda", "values", src, tgt),
            ("kummer-brauer-order", "km_witness", "km_lambda", "certificate", km_src, km_tgt),
        ):
            m = _parse_value(checks[name]["certificate"][key])
            lam = Fraction(checks[name][lam_in][lam_key])
            error = exact.isometry_error(m, a.lattice.gram, b.lattice.gram) or exact.period_error(
                m, a.period.columns(), b.period.columns(), lam)
            if error:
                return "%s: %s" % (name, error)
        return None

    def _twisted_models(self, n):
        """Hodge lattices the two twisted witnesses map between, built once per n."""
        if n not in self.models:
            con, kum = self.km.construction, self.km.kummer
            sides = []
            for model, bfield in (
                (con.base_abelian_model(n), None),
                (con.product_abelian_model(n), con.product_bfield(n)),
            ):
                if bfield is None:
                    bfield = self.km.brauer.BField.zero(model.h2.lattice)
                km = kum.kummer_transcendental(model)
                b_km = kum.kummer_bfield(model, km, bfield)
                sides.append((kum.twisted_transcendental_model(model.h2, bfield).hodge,
                              kum.twisted_transcendental_model(km.hodge, b_km).hodge))
            (a, km_a), (b, km_b) = sides
            self.models[n] = (a, b, km_a, km_b)
        return self.models[n]


def _u3_generators():
    """Block permutations, an e/f swap and a sign flip: generators of O(U^3)."""
    gens = []
    for perm in ((1, 0, 2), (0, 2, 1)):
        m = [[0] * 6 for _ in range(6)]
        for b, target in enumerate(perm):
            m[2 * b][2 * target] = m[2 * b + 1][2 * target + 1] = 1
        gens.append(m)
    swap = [[int(i == j) for j in range(6)] for i in range(6)]
    swap[0][0] = swap[1][1] = 0
    swap[0][1] = swap[1][0] = 1
    flip = [[int(i == j) for j in range(6)] for i in range(6)]
    flip[0][0] = flip[1][1] = -1
    return gens + [swap, flip]


U3_GRAM = exact.block_diag(*[exact.hyperbolic(1)] * 3)


def _eichler(e_idx, x):
    """Transvection v -> v + (v.e) x - (v.x) e - (x.x/2)(v.e) e on U^3."""
    gx = exact.matmul([x], U3_GRAM)[0]
    half = sum(a * b for a, b in zip(gx, x)) // 2
    rows = []
    for i in range(6):
        ve = U3_GRAM[i][e_idx]
        vx = gx[i]
        row = [int(i == t) + ve * x[t] for t in range(6)]
        row[e_idx] -= vx + half * ve
        rows.append(row)
    return rows


def random_u3_isometry(rng, kind):
    """One random step in O(U^3): a generator, or an Eichler transvection along e_kind."""
    if kind is None:
        return rng.choice(_u3_generators())
    return _eichler(kind, [0, 0] + [rng.randint(-1, 1) for _ in range(4)])


class TEquiv:
    """``kummerlat tequiv F1 F2 --bound 3`` on spec files written at set-up.

    F1 holds a random O(U^3) conjugate of A_n (n <= 4). F2 holds either a
    conjugate of A_m with m != n, or E_n x F with B = dx1^dy2/n. A pass is,
    for each n, one twisted pair and two mismatched pairs, shuffled.
    Known answer: refuted exactly when n != m; a twisted pair is
    equivalent or, when the bound is exhausted, inconclusive.

    The pairs share CONJUGATES spec files per order, written at set-up:
    creating a file cost about 0.5 ms on the ext4 disk of the baseline
    machine, and more with every run when each pair had files of its own.
    Conjugate k is one step of kind KINDS[k % 4], and the twisted pair of
    pass p uses conjugate p, so every run holds the same mix of kinds.
    Transvections along e_1 make the slowest searches, most of them
    exhausting the bound. Drawn at random, they gave 10-19 exhaustions a
    run, so latency_tail_s, the eleventh-largest latency, sat on the edge
    of that cluster and moved by up to a fifth from seed to seed; at half
    of the twisted pairs they give about 20, and the tail sits inside it.
    """

    name = "tequiv"
    limit_s = 10
    max_failed_share = 0.0
    ORDERS = range(1, 5)
    POOL_PASSES = CONJUGATES = 64  # more passes than a 30 s run makes
    # One step per conjugate: the three-step words of the test suite give
    # pairs whose bounded search runs for up to 40 s, longer than a run.
    KINDS = (None, 1, 0, 1)  # a generator or a transvection along e_0, e_1

    def __init__(self, km, rng, workdir):
        self.km = km
        self.workdir = workdir
        self.report = os.path.join(workdir, "tequiv.json")
        con = km.construction
        self.base = {n: con.base_abelian_model(n).h2.period for n in self.ORDERS}
        self.products = {}
        for n in self.ORDERS:
            model, bfield = con.product_abelian_model(n), con.product_bfield(n)
            path = self._write("product%d" % n, model.h2.period, bfield)
            self.products[n] = (path, model, bfield)
        self.conjugates = {n: [self._conjugate(rng, n, k) for k in range(self.CONJUGATES)]
                           for n in self.ORDERS}
        self.pool = []
        self.twisted = {}
        self.product_twisted = {}
        for p in range(self.POOL_PASSES):
            items = []
            for n in self.ORDERS:
                items.append((n, n, p, None))
                for _ in range(2):
                    m = rng.choice([x for x in self.ORDERS if x != n])
                    items.append((n, m, rng.randrange(self.CONJUGATES),
                                  rng.randrange(self.CONJUGATES)))
            rng.shuffle(items)
            self.pool.append(items)

    def _write(self, stem, period, bfield=None):
        spec = self.km.specdoc
        doc = spec.SpecDocument()
        doc.lattices["H"] = period.lattice
        doc.symbol_bases["W"] = period.symbols
        doc.periods["sigma"] = period
        doc.order = [("lattice", "H"), ("symbols", "W"), ("period", "sigma")]
        if bfield is not None:
            doc.bfields["B"] = bfield
            doc.order.append(("bfield", "B"))
        doc.surfaces["X"] = ("sigma", None if bfield is None else "B")
        doc.order.append(("surface", "X"))
        path = os.path.join(self.workdir, stem + ".spec")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(spec.render_spec(doc))
        return path

    def _conjugate(self, rng, n, k):
        base = self.base[n]
        period = base.map_by(random_u3_isometry(rng, self.KINDS[k % 4]), base.lattice)
        return self._write("a%d_%d" % (n, k), period), period

    def run(self, item):
        n, m, a, b = item
        f1 = self.conjugates[n][a][0]
        f2 = self.products[n][0] if b is None else self.conjugates[m][b][0]
        return self.km.cli.main(["tequiv", f1, f2, "--bound", "3", "--quiet",
                                 "--report", self.report])

    def check(self, item, code):
        n, m, _, _ = item
        with open(self.report, encoding="utf-8") as fh:
            entry = json.load(fh)["checks"][0]
        verdict = entry["values"]["verdict"]
        if code != {"equivalent": 0, "refuted": 1, "inconclusive": 2}.get(verdict):
            return _fail("exit code %d does not match verdict %s" % (code, verdict), unsound=True)
        if n != m:
            if verdict == "refuted":
                return OK_DECIDED
            return _fail("A_%d vs A_%d not refuted" % (n, m), unsound=verdict == "equivalent",
                         decided=verdict == "equivalent")
        if verdict == "refuted":
            return _fail("twisted pair of order %d refuted" % n, unsound=True, decided=True)
        if verdict == "inconclusive":
            return OK_UNDECIDED
        source, target = self._twisted_models(item)
        m_wit = _parse_value(entry["certificate"]["witness"])
        lam = Fraction(entry["values"]["lambda"])
        return _witness_outcome(
            exact.isometry_error(m_wit, source.lattice.gram, target.lattice.gram)
            or exact.period_error(m_wit, source.period.columns(), target.period.columns(), lam))

    def _twisted_models(self, item):
        n, _, a, _ = item
        period = self.conjugates[n][a][1]
        kum = self.km.kummer
        if n not in self.product_twisted:
            _, product, bfield = self.products[n]
            self.product_twisted[n] = kum.twisted_transcendental_model(product.h2, bfield).hodge
        if (n, a) not in self.twisted:
            model = kum.AbelianSurfaceModel.from_h2(self.km.hodge.hodge_lattice(period.lattice, period))
            zero = self.km.brauer.BField.zero(period.lattice)
            self.twisted[n, a] = kum.twisted_transcendental_model(model.h2, zero).hodge
        return self.twisted[n, a], self.product_twisted[n]


# Primes p with (2/p) = -1. If p divides d and not det M, then <1>+<d>+M
# and [[2,1],[1,(d+1)/2]]+M have unimodular p-adic Jordan constituents
# with determinants differing by the non-square 2, so they lie in
# different genera, while rank, signature, parity, |det| and the
# discriminant group all agree.
NONRESIDUE_PRIMES = (3, 5, 11, 13, 19, 29, 37, 43, 53, 59, 61, 67, 83)
POSITIVE_BLOCKS = ([[1]], [[2]], [[3]], [[2, 1], [1, 2]], [[2, 1], [1, 3]])
NEGATIVE_BLOCKS = ([[-1]], [[-2]], [[-3]], [[0, 1], [1, 0]])
# kind, definite, scale (2 makes the lattice even), rank, discriminant-order
# band. Ranks are fixed per stratum so that each stratum's cost is narrow.
# A 30 s run makes four or five passes: four or five 12000-16000 and
# twelve to fifteen 3000-5000 operations, so latency_tail_s, the
# eleventh-largest latency, falls inside the 3000-5000 cluster; the
# four 300-1000 strata put the median inside the cluster below it. The
# cheapest conjugates are of rank 4: of the definite conjugates tried,
# rank 4 lost its witness to the short_vectors bound_sqrt defect most
# often (1 to 2 in 100 at discriminant order 10-100).
STRATA = (
    ("conjugate", True, 1, 4, (10, 100)),
    ("distinct", True, 1, 2, (10, 100)),
    ("conjugate", True, 1, 5, (100, 300)),
    ("distinct", True, 1, 5, (100, 300)),
    ("conjugate", True, 1, 6, (100, 300)),
    ("distinct", True, 1, 4, (100, 300)),
    ("conjugate", False, 1, 3, (300, 1000)),
    ("distinct", False, 1, 3, (300, 1000)),
    ("conjugate", False, 2, 3, (300, 1000)),
    ("distinct", False, 2, 3, (300, 1000)),
    ("conjugate", False, 1, 4, (3000, 5000)),
    ("distinct", False, 2, 3, (3000, 5000)),
    ("conjugate", False, 1, 3, (3000, 5000)),
    ("distinct", True, 2, 2, (12000, 16000)),
    ("conjugate", True, 1, 2, (20001, 60000)),
    ("distinct", False, 2, 4, (20001, 60000)),
)
# Largest Fincke-Pohst pool size estimate allowed for a definite pair,
# so that its search stays well inside Classify.limit_s. Without it,
# rank-5 and rank-6 conjugates ran up to and past 3 s; with it or
# without it, about 1 in 100 definite conjugates of rank 3-5 had a pool
# cut short by the short_vectors defect.
SEARCH_BUDGET = 300


def _core(twin, d):
    return [[1, 0], [0, d]] if twin == 0 else [[2, 1], [1, (d + 1) // 2]]


def _pool_estimate(rank, norm, det):
    """Lattice points of norm <= norm in a definite lattice, by volume."""
    return pi ** (rank / 2) / gamma(rank / 2 + 1) * norm ** (rank / 2) / sqrt(det)


def _random_unimodular(rng, r):
    """Product of r + 2 random shears and sign flips, entries at most 3."""
    while True:
        m = [[int(i == j) for j in range(r)] for i in range(r)]
        for _ in range(r + 2):
            i, j = rng.sample(range(r), 2)
            f = rng.choice((-1, 1))
            m[i] = [a + f * b for a, b in zip(m[i], m[j])]
            if rng.random() < 0.3:
                k = rng.randrange(r)
                m[k] = [-a for a in m[k]]
        if max(abs(x) for row in m for x in row) <= 3:
            return m


def _draw_blocks(rng, definite, size):
    blocks = []
    while sum(len(b) for b in blocks) < size:
        left = size - sum(len(b) for b in blocks)
        menu = POSITIVE_BLOCKS
        if not definite and (not blocks or rng.random() < 0.4):
            menu = NEGATIVE_BLOCKS
        choices = [b for b in menu if len(b) <= left]
        blocks.append(rng.choice(choices))
    if not definite and all(b in POSITIVE_BLOCKS for b in blocks):
        return None
    return blocks


def draw_pair(rng, kind, definite, scale, r, band):
    """(gram1, gram2) of a conjugate pair or of a pair from distinct genera."""
    while True:
        blocks = _draw_blocks(rng, definite, r - 2)
        if blocks is None:
            continue
        det_m = abs(exact.det(exact.block_diag(*blocks))) if blocks else 1
        unit = scale ** r * det_m
        lo, hi = max(5, -(-band[0] // unit)), band[1] // unit
        primes = [p for p in NONRESIDUE_PRIMES if det_m % p]
        if hi < lo:
            continue
        for _ in range(100):
            d = rng.randint(lo, hi)
            if d % 4 == 1 and any(d % p == 0 for p in primes):
                break
        else:
            continue
        twins = rng.sample((0, 1), 2)
        if kind == "conjugate":
            twins[1] = twins[0]
        grams = [[[scale * x for x in row] for row in exact.block_diag(_core(t, d), *blocks)]
                 for t in twins]
        if definite and _pool_estimate(r, max(grams[0][i][i] for i in range(r)),
                                       unit * d) > SEARCH_BUDGET:
            continue
        u = _random_unimodular(rng, r)
        return grams[0], exact.matmul(exact.matmul(u, grams[1]), exact.transpose(u))


class Classify:
    """Library calls genus_equal(L1, L2), then find_isometry(L1, L2, 2) unless DIFFER.

    A pass is one pair from each stratum in STRATA: conjugate pairs (L2 a
    unimodular conjugate of L1) and pairs from distinct genera with equal
    rank, signature, parity, |det| and discriminant group, in bands of
    discriminant order from ~10 to past the library's profile cap.
    Known answer: conjugates are never DIFFER; definite conjugates get a
    witness (their norm pools are documented as complete); pairs from
    distinct genera never get a witness.
    """

    name = "classify"
    limit_s = 3
    # Failures expected at this commit: definite conjugates that lose their
    # witness to the short_vectors bound_sqrt defect, and rank-6 pairs whose
    # Smith normal form stalls past limit_s; each is 0-2 of ~60 operations.
    max_failed_share = 0.1
    POOL_PASSES = 24

    def __init__(self, km, rng, workdir):
        self.km = km
        lattice = km.lattice.Lattice
        self.pool = []
        for _ in range(self.POOL_PASSES):
            items = []
            for kind, definite, scale, rank, band in STRATA:
                g1, g2 = draw_pair(rng, kind, definite, scale, rank, band)
                items.append((kind, definite, g1, g2, lattice(g1), lattice(g2)))
            rng.shuffle(items)
            self.pool.append(items)

    def run(self, item):
        iso = self.km.isometry
        l1, l2 = item[4], item[5]
        genus = iso.genus_equal(l1, l2)
        return genus, None if genus == iso.DIFFER else iso.find_isometry(l1, l2, 2)

    def check(self, item, result):
        kind, definite, g1, g2 = item[:4]
        genus, witness = result
        differ = genus == self.km.isometry.DIFFER
        if kind == "distinct":
            if witness is not None:
                return _fail("witness between distinct genera", unsound=True, decided=True)
            return OK_DECIDED if differ else OK_UNDECIDED
        if differ:
            return _fail("conjugates reported as DIFFER", unsound=True, decided=True)
        if witness is None:
            return _fail("no witness for definite conjugates") if definite else OK_UNDECIDED
        return _witness_outcome(exact.isometry_error(witness.matrix, g1, g2))


WORKLOADS = {w.name: w for w in (Example43, TEquiv, Classify)}
