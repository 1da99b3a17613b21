"""Workload definitions: seeded CLI argument vectors and output checks.

Every operation is one call of ``qpl.cli.main(argv)``.  Inputs are drawn
here, from the benchmark's seed, without calling into qpl; the program
only receives the generated argv.  Each operation carries a check that
parses the captured stdout and tests relations that hold for any input,
partly against the benchmark's own independent arithmetic below.
"""

import csv
import io
import itertools
import json
import math
import random
from fractions import Fraction

import numpy as np

SCAN_ROWS = 128          # rows per scan-box invocation
SCAN_CHUNK = 1024        # scan-box's default --chunk-size
SIEVE_SAMPLES = 50       # samples per prime per sieve-scan invocation
SIEVE_PRIMES = (5, 7)
SIEVE_BOUND = 9
WIDE_BOUND = 10 ** 12
WIDE_PREDICATES = ("disc_nonzero", "positive_disc", "negative_disc",
                   "cusp_condition")
DEFAULT_PREDICATES = ("disc_nonzero", "strongly_irreducible")
QP_DEPTH = 3             # caps the Hensel search on the W_p pairs
HUGE_COORD = 10 ** 30
HUGE_CUTOFF = 10 ** 400


class Mismatch(Exception):
    """An output that violates a relation every correct run satisfies."""


def expect(cond, what):
    if not cond:
        raise Mismatch(what)


class Op:
    """One CLI invocation: argv, the rows of work it stands for, the
    payload format ("json" or "csv"), and its output check."""

    __slots__ = ("argv", "rows", "fmt", "check", "large")

    def __init__(self, argv, check, rows=1, fmt="json", large=False):
        self.argv = argv
        self.rows = rows
        self.fmt = fmt
        self.check = check
        self.large = large


# -- the benchmark's own arithmetic on pairs ---------------------------------

_IJ = [(0, 0), (0, 1), (0, 2), (0, 3), (1, 1), (1, 2), (1, 3), (2, 2), (2, 3),
       (3, 3)]
_CASES = ((0, 1, 2, 3), (0, 1, 2, 4, 5), (0, 1, 2, 10, 11, 12),
          (0, 1, 4, 10, 11, 14))


def _gram2(cs):
    M = [[0] * 4 for _ in range(4)]
    for (i, j), c in zip(_IJ, cs):
        M[i][j] = M[j][i] = 2 * c if i == j else c
    return M


def _det4(M):
    """Laplace expansion along the first two rows."""
    (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3), (d0, d1, d2, d3) = M
    return ((a0 * b1 - a1 * b0) * (c2 * d3 - c3 * d2)
            - (a0 * b2 - a2 * b0) * (c1 * d3 - c3 * d1)
            + (a0 * b3 - a3 * b0) * (c1 * d2 - c2 * d1)
            + (a1 * b2 - a2 * b1) * (c0 * d3 - c3 * d0)
            - (a1 * b3 - a3 * b1) * (c0 * d2 - c2 * d0)
            + (a2 * b3 - a3 * b2) * (c0 * d1 - c1 * d0))


def resolvent(coords):
    """Coefficients (a, b, c, d, e) of f(x, y) = det(2A x + 2B y), x^4
    first, interpolated from f at (1,0), (0,1), (1,1), (-1,1), (2,1)."""
    MA, MB = _gram2(coords[:10]), _gram2(coords[10:])

    def f(x, y):
        return _det4([[x * u + y * v for u, v in zip(ra, rb)]
                      for ra, rb in zip(MA, MB)])

    a, e = f(1, 0), f(0, 1)
    gp, gm, g2 = f(1, 1), f(-1, 1), f(2, 1)
    c = (gp + gm) // 2 - a - e
    s = (gp - gm) // 2                      # b + d
    b = (g2 - 16 * a - 4 * c - e - 2 * s) // 6
    return [a, b, c, s - b, e]


def invariants(coords):
    a, b, c, d, e = resolvent(coords)
    I = 12 * a * e - 3 * b * d + c * c
    J = 72 * a * c * e + 9 * b * c * d - 27 * a * d * d - 27 * b * b * e - 2 * c ** 3
    return I, J


def scaled_disc(coords):
    I, J = invariants(coords)
    return 4 * I ** 3 - J ** 2


def quad_value(cs, x):
    return sum(c * x[i] * x[j] for (i, j), c in zip(_IJ, cs))


def iroot(n, k):
    """Floor k-th root of n >= 0 by bisection on exact integers."""
    lo, hi = 0, 1 << (n.bit_length() // k + 1)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid ** k <= n:
            lo = mid
        else:
            hi = mid - 1
    return lo


# -- input generation -------------------------------------------------------


def _box_pair(rng, bound=5):
    """A uniform pair in [-bound, bound]^20 with nonzero discriminant."""
    while True:
        coords = [rng.randint(-bound, bound) for _ in range(20)]
        if scaled_disc(coords):
            return coords


def _pair_off_p(rng, p, bound=5):
    """A box pair whose discriminant is a unit at p (as in criterion 07)."""
    while True:
        coords = _box_pair(rng, bound)
        if (scaled_disc(coords) // 27) % p:
            return coords


def _wp_pair(rng, p, bound=5):
    """A pair whose two forms vanish along e1 mod p.  Then e1 is a
    singular point of the intersection mod p, p^2 divides the
    discriminant, and the Hensel search often has to go past depth 1."""
    while True:
        coords = [rng.randint(-bound, bound) for _ in range(20)]
        for j in (0, 1, 2, 3, 10, 11, 12, 13):
            coords[j] *= p
        sd = scaled_disc(coords)
        if sd and sd % (p * p) == 0:
            return coords


def _text(coords):
    return " ".join(str(c) for c in coords)


# -- checks -----------------------------------------------------------------


def _check_invariants(coords):
    res = resolvent(coords)
    I, J = invariants(coords)
    sd = 4 * I ** 3 - J ** 2

    def check(out):
        o = json.loads(out)
        expect(o["resolvent"] == res, "resolvent")
        expect((o["I"], o["J"]) == (I, J), "(I, J)")
        expect(o["scaled_disc"] == sd and 27 * o["disc"] == sd, "discriminant")
        expect(o["scaled_height"] == max(4 * abs(I) ** 3, J * J), "height")
    return check


def _case(coords):
    """reducibility_case: the first coordinate-vanishing condition met."""
    return next((k for k, idx in enumerate(_CASES, 1)
                 if all(coords[i] == 0 for i in idx)), None)


def _check_classify(coords):
    a, b, c, d, e = resolvent(coords)
    nondeg = scaled_disc(coords) != 0
    case = _case(coords)

    def check(out):
        o = json.loads(out)
        expect(o["disc_zero"] == (not nondeg), "disc_zero")
        expect(o["reducibility_case"] == case, "reducibility_case")
        root = o["rational_root"]
        if root is not None:
            r, s = root
            expect(math.gcd(r, s) == 1 and
                   a * r ** 4 + b * r ** 3 * s + c * r * r * s * s
                   + d * r * s ** 3 + e * s ** 4 == 0, "rational_root")
        expect(o["strongly_irreducible"] == (nondeg and root is None),
               "strongly_irreducible")
        expect(o["real_class"] in (0, 1, 2), "real_class")
        expect(isinstance(o["R_soluble"], bool), "R_soluble")
    return check


def _check_qp(coords, p):
    def check(out):
        o = json.loads(out)
        expect(o["prime"] == p, "prime")
        expect(o["verdict"] in ("soluble", "insoluble", "unknown"), "verdict")
        if o["verdict"] == "soluble":
            w, m = o["witness"], o["modulus"]
            expect(any(v % p for v in w), "witness is not primitive")
            expect(quad_value(coords[:10], w) % m == 0
                   and quad_value(coords[10:], w) % m == 0,
                   "witness is not a zero mod %d" % m)
        else:
            expect("witness" not in o, "witness without soluble verdict")
    return check


def _check_stabilizer(p):
    def check(out):
        o = json.loads(out)
        expect(o["prime"] == p, "prime")
        expect(o["agrees"] is True, "stabilizer order != #E(F_p)[4]")
        expect(o["stabilizer_order"] in (1, 2, 4, 8, 16), "order divides 16")
    return check


def _check_selmer(bound):
    def check(out):
        o = json.loads(out)
        expect(o["status"] == "optimal", "status")
        expect(Fraction(o["optimum"]) <= bound, "optimum above a feasible value")
    return check


def _check_count_ij(X):
    rect = (2 * iroot(X - 1, 3) + 1) * (2 * math.isqrt(4 * X - 1) + 1)

    def check(out):
        o = json.loads(out)
        expect(o["X"] == X, "X")
        expect(o["total"] == rect
               == o["n_positive"] + o["n_negative"] + o["n_zero"], "total")
        expect(o["n_zero"] == 1 + 2 * iroot(X - 1, 6), "n_zero")
    return check


def _scan_rows(seed, bound):
    """The pairs scan-box draws: chunk 0 of its documented stream keyed
    by (seed, chunk index)."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(0,))
    rng = np.random.Generator(np.random.Philox(ss))
    draws = rng.integers(-bound, bound + 1, size=(SCAN_CHUNK, 20), dtype=np.int64)
    return [[int(v) for v in row] for row in draws[:SCAN_ROWS]]


def _check_scan(seed, bound, predicates):
    def check(out):
        o = json.loads(out)
        expect((o["seed"], o["bound"], o["samples"]) == (seed, bound, SCAN_ROWS),
               "scan parameters")
        expect(sum(r for _, r in o["chunks"]) == SCAN_ROWS, "chunk rows")
        n = o["counts"]
        expect(sorted(n) == sorted(predicates), "predicates")
        rows = _scan_rows(seed, bound)
        sds = [scaled_disc(c) for c in rows]
        expect(n["disc_nonzero"] == sum(sd != 0 for sd in sds), "disc_nonzero")
        if "strongly_irreducible" in n:
            expect(0 <= n["strongly_irreducible"] <= n["disc_nonzero"],
                   "strongly_irreducible > disc_nonzero")
        if "positive_disc" in n:
            expect(n["positive_disc"] + n["negative_disc"] == n["disc_nonzero"],
                   "positive + negative != disc_nonzero")
            expect(n["positive_disc"] == sum(sd > 0 for sd in sds), "positive_disc")
        if "cusp_condition" in n:
            expect(n["cusp_condition"] == sum(_case(c) is not None for c in rows),
                   "cusp_condition")
    return check


def _check_sieve(seed):
    def check(out):
        rows = list(csv.reader(io.StringIO(out)))
        expect(rows[0] == ["p", "samples", "count_Wp", "count_Wp1", "count_Wp2",
                           "gamma_verified"], "header")
        expect([int(r[0]) for r in rows[1:]] == list(SIEVE_PRIMES), "primes")
        for row in rows[1:]:
            p, n, wp, wp1, wp2, ok = (int(v) for v in row)
            expect(n == SIEVE_SAMPLES, "samples")
            expect(wp == wp1 + wp2, "count_Wp != count_Wp1 + count_Wp2")
            expect(0 <= ok <= wp2, "gamma_verified")
            # sieve-scan's documented draws: random.Random("seed:p")
            rng = random.Random("%d:%d" % (seed, p))
            sds = [scaled_disc([rng.randint(-SIEVE_BOUND, SIEVE_BOUND)
                                for _ in range(20)]) for _ in range(n)]
            expect(wp == sum(sd != 0 and sd % (p * p) == 0 for sd in sds),
                   "count_Wp")
    return check


# -- workloads ----------------------------------------------------------------


def _rng(seed, workload, index):
    return random.Random("%d:%s:%s" % (seed, workload, index))


def _scan_op(seed, bound, predicates, flags):
    argv = ["scan-box", "--bound", str(bound), "--samples", str(SCAN_ROWS),
            "--seed", str(seed)] + flags
    return Op(argv, _check_scan(seed, bound, predicates), rows=SCAN_ROWS)


def scan_small_op(rng):
    return _scan_op(rng.getrandbits(32), 5, DEFAULT_PREDICATES, [])


def scan_wide_op(rng):
    return _scan_op(rng.getrandbits(32), WIDE_BOUND, WIDE_PREDICATES,
                    ["--predicates", ",".join(WIDE_PREDICATES)])


def sieve_op(rng):
    seed = rng.getrandbits(32)
    argv = ["sieve-scan", "--primes", ",".join(map(str, SIEVE_PRIMES)),
            "--samples", str(SIEVE_SAMPLES), "--bound", str(SIEVE_BOUND),
            "--seed", str(seed)]
    return Op(argv, _check_sieve(seed), rows=SIEVE_SAMPLES * len(SIEVE_PRIMES),
              fmt="csv")


# One deck of queries.  Three in four are cheap single-pair queries; the
# p = 7 stabilizers are a tenth of the deck so that query_p90_ms falls
# inside that tier rather than on the edge between two tiers; the two
# large-magnitude queries (5%) fail at the seed commit with OverflowError.
DECK = (["invariants"] * 8 + ["classify"] * 9
        + ["qp-box-5", "qp-wp-5", "qp-box-7", "qp-wp-7"] * 3
        + ["stab-5"] * 3 + ["stab-7"] * 4 + ["selmer", "count-ij"]
        + ["stab-huge", "count-ij-huge"])


def _selmer_targets(rng):
    """Moments of a random distribution on shapes inside caps (6, 10),
    so the LP is feasible; returns them with the distribution's own
    objective value, an upper bound on the optimum."""
    shapes = rng.sample([(a, b) for a in range(4) for b in range(4)], 3)
    weights = [rng.randint(1, 5) for _ in shapes]
    total = sum(weights)
    probs = [Fraction(w, total) for w in weights]
    s2 = sum(q * 2 ** (a + b) for q, (a, b) in zip(probs, shapes))
    o4 = sum(q * (4 ** a - 2 ** a) for q, (a, b) in zip(probs, shapes))
    obj = sum(q * (2 ** (a + b) - 2 ** a) for q, (a, b) in zip(probs, shapes))
    return s2, o4, obj


def query_op(kind, rng):
    if kind in ("invariants", "classify"):
        coords = _box_pair(rng)
        check = (_check_invariants if kind == "invariants" else _check_classify)
        return Op([kind, _text(coords)], check(coords))
    if kind.startswith("qp-"):
        _, source, p = kind.split("-")
        p = int(p)
        if source == "box":
            coords = _box_pair(rng)
            argv = ["qp-solve", _text(coords), "--prime", str(p)]
        else:
            coords = _wp_pair(rng, p)
            argv = ["qp-solve", _text(coords), "--prime", str(p),
                    "--depth", str(QP_DEPTH)]
        return Op(argv, _check_qp(coords, p))
    if kind.startswith("stab-"):
        p = 5 if kind == "stab-huge" else int(kind[5:])
        coords = _pair_off_p(rng, p)
        if kind == "stab-huge":
            j = rng.randrange(20)
            while True:
                coords[j] = HUGE_COORD + rng.randrange(1000)
                if (scaled_disc(coords) // 27) % p:
                    break
        argv = ["stabilizer-fp", _text(coords), "--prime", str(p)]
        return Op(argv, _check_stabilizer(p), large=kind == "stab-huge")
    if kind == "selmer":
        s2, o4, obj = _selmer_targets(rng)
        argv = ["selmer-bound", "--target-s2", str(s2),
                "--target-order4", str(o4)]
        return Op(argv, _check_selmer(obj))
    if kind == "count-ij":
        X = rng.randint(10 ** 3, 10 ** 6)
        return Op(["count-ij", "--cutoff", str(X)], _check_count_ij(X))
    if kind == "count-ij-huge":
        X = HUGE_CUTOFF + rng.randrange(1000)
        return Op(["count-ij", "--cutoff", str(X)], _check_count_ij(X),
                  large=True)
    raise ValueError(kind)


class Workload:
    """A named, seeded stream of operations, run in whole units of
    `unit` operations.  Why each workload exists: BENCHMARK.json."""

    def __init__(self, name, make, units_per_s, unit=1, repeats=1):
        self.name = name
        self.make = make          # (rng, position in unit) -> Op
        self.unit = unit
        # Back-to-back runs of each op, the fastest counting.  On the
        # scans and the sieve the ops cost about the same, so the spread
        # of their times is mostly machine noise, which a repeat cuts; on
        # queries the spread comes from the inputs, which need the samples.
        self.repeats = repeats
        # Nominal rate at the commit that defined the benchmark; it fixes
        # how many units a traced run covers (see spans.units_for).
        self.units_per_s = units_per_s

    def units(self, seed, tag=""):
        """Endless iterator over units (lists of Ops) for this seed."""
        for u in itertools.count():
            key = "%s%d" % (tag, u)
            order = list(range(self.unit))
            _rng(seed, self.name, key + ":order").shuffle(order)
            yield [self.make(_rng(seed, self.name, "%s:%d" % (key, i)), i)
                   for i in order]


WORKLOADS = {w.name: w for w in (
    Workload("scan-small", lambda rng, _: scan_small_op(rng), 20, repeats=2),
    Workload("scan-wide", lambda rng, _: scan_wide_op(rng), 20, repeats=2),
    Workload("sieve", lambda rng, _: sieve_op(rng), 20, repeats=2),
    Workload("queries", lambda rng, i: query_op(DECK[i], rng), 1, unit=len(DECK)),
)}
