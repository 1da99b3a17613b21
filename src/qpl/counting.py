"""Counting infrastructure: torus weights of the 20 coordinates, exact
counts of invariant pairs (I, J) below a height cutoff, reproducible
randomized scans over coordinate boxes, lattice-point-vs-volume
comparisons for box-shaped regions, and enumeration of minimal
Weierstrass curves of bounded height.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt

import numpy as np

from .arith import QplError, icbrt, iroot, primes_upto
from .forms import (COORD_NAMES, PairOfQuadrics, invariants, is_strongly_irreducible,
                    reducibility_case)
from .quartic import rational_linear_factor

# ---------------------------------------------------------------------------
# torus weights
#
# The maximal torus acts with character e1 on the pencil coordinate and
# characters t_i on the four ambient coordinates; the t_i below sum to
# zero, and a_ij / b_ij pick up -e1 + t_i + t_j and +e1 + t_i + t_j.
# Weights are recorded as integer 4-vectors (e1-component first).

_T = {
    1: (0, -3, -1, -1),
    2: (0, 1, -1, -1),
    3: (0, 1, 1, -1),
    4: (0, 1, 1, 3),
}

_E1 = (1, 0, 0, 0)

HAAR_EXPONENTS = (-2, -12, -8, -12)


def _vadd(*vs):
    return tuple(sum(c) for c in zip(*vs))


def _vneg(v):
    return tuple(-c for c in v)


def coordinate_weight(name):
    """Torus weight of one of the 20 coordinates, e.g. 'a14' or 'b22'."""
    if name not in COORD_NAMES:
        raise QplError("unknown coordinate %r" % (name,))
    which, ij = name[0], name[1:]
    i, j = int(ij[0]), int(ij[1])
    sign = _E1 if which == "b" else _vneg(_E1)
    return _vadd(sign, _T[i], _T[j])


def weight_table():
    return {name: coordinate_weight(name) for name in COORD_NAMES}


def verify_weight_sums():
    """The four t_i sum to zero, coordinate-wise."""
    return _vadd(_T[1], _T[2], _T[3], _T[4]) == (0, 0, 0, 0)


def verify_sibound_products():
    """The product identities behind the cusp volume bound.

    With u1 = -w(a14), u2 = -w(a23), u3 = -w(b13), u4 = -w(b22):
    u1 u2 = s1^2, u1 u4 = s3^2 and u3 e1 = s2 s4 in multiplicative
    notation, i.e. the sums land on 2e_1, 2e_3 and e_2 + e_4.
    """
    u1 = _vneg(coordinate_weight("a14"))
    u2 = _vneg(coordinate_weight("a23"))
    u3 = _vneg(coordinate_weight("b13"))
    u4 = _vneg(coordinate_weight("b22"))
    ok = (u1 == (1, 2, 0, -2) and u2 == (1, -2, 0, 2)
          and u3 == (-1, 2, 0, 2) and u4 == (-1, -2, 2, 2))
    ok = ok and _vadd(u1, u2) == (2, 0, 0, 0)
    ok = ok and _vadd(u1, u4) == (0, 0, 2, 0)
    ok = ok and _vadd(u3, _E1) == (0, 2, 0, 2)
    return ok


# ---------------------------------------------------------------------------
# exact counts of invariant pairs below a height cutoff


@dataclass(frozen=True)
class InvariantPairCount:
    X: int
    n_positive: int
    n_negative: int
    n_zero: int

    @property
    def total(self):
        return self.n_positive + self.n_negative + self.n_zero

    def to_json_dict(self):
        x56 = float(self.X) ** (5.0 / 6.0)
        return {
            "X": self.X,
            "n_positive": self.n_positive,
            "n_negative": self.n_negative,
            "n_zero": self.n_zero,
            "total": self.total,
            "positive_over_X56": self.n_positive / x56,
            "negative_over_X56": self.n_negative / x56,
        }


def count_invariant_pairs(X):
    """Exact counts of integer pairs (I, J) with max(4|I|^3, J^2) < 4X,
    split by the sign of 4I^3 - J^2.

    Positive sign forces I >= 1 and |J| <= isqrt(4I^3 - 1); summing over
    I gives the count in O(X^{1/3}) integer square roots.  The zero
    locus is the cuspidal curve (I, J) = (m^2, +-2m^3).  The negative
    count is the rectangle total minus the other two.
    """
    if X < 1:
        raise QplError("cutoff X must be a positive integer")
    imax = icbrt(X - 1)               # |I|^3 <= X - 1  <=>  4|I|^3 < 4X
    jmax = isqrt(4 * X - 1)           # J^2 < 4X
    n_pos = 0
    for I in range(1, imax + 1):
        n_pos += 2 * isqrt(4 * I ** 3 - 1) + 1
    n_zero = 1 + 2 * iroot(X - 1, 6)
    total = (2 * imax + 1) * (2 * jmax + 1)
    return InvariantPairCount(X, n_pos, total - n_pos - n_zero, n_zero)


def count_invariant_pairs_naive(X):
    """Brute-force double loop over the (I, J) rectangle; oracle for the
    closed forms above, only sensible for small X."""
    imax = icbrt(X - 1)
    jmax = isqrt(4 * X - 1)
    n_pos = n_neg = n_zero = 0
    for I in range(-imax, imax + 1):
        c = 4 * I ** 3
        for J in range(-jmax, jmax + 1):
            d = c - J * J
            if d > 0:
                n_pos += 1
            elif d < 0:
                n_neg += 1
            else:
                n_zero += 1
    return InvariantPairCount(X, n_pos, n_neg, n_zero)


# ---------------------------------------------------------------------------
# reproducible randomized scans over coordinate boxes


def _predicate_disc_nonzero(pair):
    return invariants(pair).scaled_disc != 0


def _predicate_rational_root(pair):
    return rational_linear_factor(pair.resolvent_quartic()) is not None


def _predicate_cusp_condition(pair):
    return reducibility_case(pair) is not None


def _predicate_positive_disc(pair):
    return invariants(pair).scaled_disc > 0


def _predicate_negative_disc(pair):
    return invariants(pair).scaled_disc < 0


PREDICATES = {
    "disc_nonzero": _predicate_disc_nonzero,
    "strongly_irreducible": is_strongly_irreducible,
    "rational_root": _predicate_rational_root,
    "cusp_condition": _predicate_cusp_condition,
    "positive_disc": _predicate_positive_disc,
    "negative_disc": _predicate_negative_disc,
}

DEFAULT_CHUNK = 1024


@dataclass
class CountReport:
    bound: int
    samples: int
    seed: int
    chunk_size: int
    counts: dict
    chunks: list = field(default_factory=list)   # (chunk_index, rows_used)

    def merge(self, other):
        if (self.bound, self.seed, self.chunk_size) != (other.bound, other.seed, other.chunk_size):
            raise QplError("cannot merge reports with different scan parameters")
        mine = {k for k, _ in self.chunks}
        if mine & {k for k, _ in other.chunks}:
            raise QplError("cannot merge reports with overlapping chunks")
        counts = dict(self.counts)
        for k, v in other.counts.items():
            counts[k] = counts.get(k, 0) + v
        return CountReport(self.bound, self.samples + other.samples, self.seed,
                           self.chunk_size, counts,
                           sorted(self.chunks + other.chunks))

    def to_json_dict(self):
        return {
            "bound": self.bound,
            "samples": self.samples,
            "seed": self.seed,
            "chunk_size": self.chunk_size,
            "counts": dict(sorted(self.counts.items())),
            "chunks": [list(c) for c in self.chunks],
        }


def _chunk_rng(seed, chunk_index):
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(chunk_index,))
    return np.random.Generator(np.random.Philox(ss))


def scan_chunks(bound, seed, chunk_plan, predicate_names, chunk_size=DEFAULT_CHUNK,
                on_chunk_done=None):
    """Evaluate predicates on uniform integer pairs from [-bound, bound]^20.

    chunk_plan is a list of (chunk_index, rows_used); each logical chunk
    is generated from its own counter-based stream keyed by (seed,
    chunk_index), so partitioning the work differently cannot change the
    draws and reports from disjoint chunk sets merge exactly.
    """
    for name in predicate_names:
        if name not in PREDICATES:
            raise QplError("unknown predicate %r" % (name,))
    counts = {name: 0 for name in predicate_names}
    done = []
    for chunk_index, rows_used in chunk_plan:
        if not 0 < rows_used <= chunk_size:
            raise QplError("bad chunk plan entry %r" % ((chunk_index, rows_used),))
        rng = _chunk_rng(seed, chunk_index)
        draws = rng.integers(-bound, bound + 1, size=(chunk_size, 20), dtype=np.int64)
        for row in draws[:rows_used]:
            pair = PairOfQuadrics([int(v) for v in row])
            for name in predicate_names:
                if PREDICATES[name](pair):
                    counts[name] += 1
        done.append((chunk_index, rows_used))
        if on_chunk_done is not None:
            on_chunk_done(CountReport(bound, sum(r for _, r in done), seed,
                                      chunk_size, dict(counts), list(done)))
    return CountReport(bound, sum(r for _, r in done), seed, chunk_size,
                       counts, done)


def plan_chunks(samples, chunk_size=DEFAULT_CHUNK, start=0):
    """Chunk plan covering logical samples [start*chunk_size, ... ) up to
    the requested total."""
    plan = []
    k = start
    remaining = samples
    while remaining > 0:
        take = min(chunk_size, remaining)
        plan.append((k, take))
        remaining -= take
        k += 1
    return plan


def scan_box(bound, samples, seed, predicate_names=("disc_nonzero", "strongly_irreducible"),
             chunk_size=DEFAULT_CHUNK, on_chunk_done=None):
    return scan_chunks(bound, seed, plan_chunks(samples, chunk_size),
                       predicate_names, chunk_size, on_chunk_done)


# ---------------------------------------------------------------------------
# lattice points vs volume


def _as_fraction(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(x).limit_denominator(10 ** 9)
    if isinstance(x, str):
        return Fraction(x)
    raise QplError("cannot interpret %r as an exact number" % (x,))


@dataclass(frozen=True)
class DavenportReport:
    lattice_count: int
    volume: float
    volume_is_exact: bool
    projection_bound: float

    def to_json_dict(self):
        return {
            "lattice_count": self.lattice_count,
            "volume": self.volume,
            "volume_is_exact": self.volume_is_exact,
            "projection_bound": self.projection_bound,
            "discrepancy": abs(self.lattice_count - self.volume),
        }


def _ineq_holds(val, op, rhs):
    if op == "<=":
        return val <= rhs
    if op == "<":
        return val < rhs
    if op == ">=":
        return val >= rhs
    if op == ">":
        return val > rhs
    if op == "==":
        return val == rhs
    raise QplError("unknown inequality op %r" % (op,))


def _eval_terms(terms, point):
    total = 0
    for coef, exps in terms:
        mono = coef
        for x, e in zip(point, exps):
            mono *= x ** e
        total += mono
    return total


def _region_is_linear(region):
    for ineq in region.get("inequalities", []):
        for _, exps in ineq["terms"]:
            if sum(exps) > 1:
                return False
    return True


def davenport_check(region, mc_samples=200000, seed=0):
    """Compare the number of lattice points in a region with its volume.

    The region is a JSON-style dict: {"dim": d, "box": [[lo, hi], ...],
    "inequalities": [{"terms": [[coef, [e_1..e_d]], ...], "op": "<=",
    "rhs": r}, ...]}.  Counting is exact.  The volume is exact for
    two-dimensional regions cut out by linear inequalities (polygon
    clipping + shoelace); otherwise it is a Monte-Carlo estimate over
    the box.  The reported projection bound is the largest box extent,
    the quantity controlling the boundary error for regions of this
    bounded shape.
    """
    dim = region["dim"]
    box = [(_as_fraction(lo), _as_fraction(hi)) for lo, hi in region["box"]]
    if len(box) != dim:
        raise QplError("box has %d intervals for dimension %d" % (len(box), dim))
    ineqs = region.get("inequalities", [])
    for lo, hi in box:
        if hi < lo:
            raise QplError("empty box interval")

    ranges = [range(math.ceil(lo), math.floor(hi) + 1) for lo, hi in box]
    grids = np.meshgrid(*[np.array(list(r), dtype=np.int64) for r in ranges],
                        indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    all_int = all(isinstance(c, int) for ineq in ineqs for c, _ in ineq["terms"]) \
        and all(isinstance(ineq["rhs"], int) for ineq in ineqs)
    if all_int:
        mask = np.ones(len(pts), dtype=bool)
        for ineq in ineqs:
            vals = np.zeros(len(pts), dtype=np.int64)
            for coef, exps in ineq["terms"]:
                mono = np.full(len(pts), int(coef), dtype=np.int64)
                for d in range(dim):
                    if exps[d]:
                        mono = mono * pts[:, d] ** exps[d]
                vals += mono
            rhs = ineq["rhs"]
            op = ineq["op"]
            mask &= {"<=": vals <= rhs, "<": vals < rhs, ">=": vals >= rhs,
                     ">": vals > rhs, "==": vals == rhs}[op]
        count = int(mask.sum())
    else:
        count = 0
        for pt in pts:
            point = [Fraction(int(x)) for x in pt]
            if all(_ineq_holds(_eval_terms([(_as_fraction(c), e) for c, e in ineq["terms"]],
                                           point), ineq["op"], _as_fraction(ineq["rhs"]))
                   for ineq in ineqs):
                count += 1

    if dim == 2 and _region_is_linear(region):
        volume = float(_polygon_volume(box, ineqs))
        exact = True
    else:
        volume, exact = _mc_volume(box, ineqs, dim, mc_samples, seed), False

    proj = max(float(hi - lo) for lo, hi in box) if box else 0.0
    return DavenportReport(count, volume, exact, proj)


def _polygon_volume(box, ineqs):
    """Exact area of a box clipped by linear halfplanes, via
    Sutherland-Hodgman in rational arithmetic and the shoelace formula."""
    (x0, x1), (y0, y1) = box
    poly = [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]
    for ineq in ineqs:
        a = b = Fraction(0)
        c0 = Fraction(0)
        for coef, exps in ineq["terms"]:
            coef = _as_fraction(coef)
            if exps == [1, 0] or tuple(exps) == (1, 0):
                a += coef
            elif exps == [0, 1] or tuple(exps) == (0, 1):
                b += coef
            elif exps == [0, 0] or tuple(exps) == (0, 0):
                c0 += coef
            else:
                raise QplError("nonlinear term in polygon volume")
        rhs = _as_fraction(ineq["rhs"]) - c0
        op = ineq["op"]
        if op in (">=", ">"):
            a, b, rhs = -a, -b, -rhs
        elif op not in ("<=", "<"):
            raise QplError("equality constraints have zero area")
        poly = _clip(poly, a, b, rhs)
        if not poly:
            return Fraction(0)
    area = Fraction(0)
    for i in range(len(poly)):
        xa, ya = poly[i]
        xb, yb = poly[(i + 1) % len(poly)]
        area += xa * yb - xb * ya
    return abs(area) / 2


def _clip(poly, a, b, rhs):
    """Keep the part of the polygon with a x + b y <= rhs."""
    out = []
    n = len(poly)
    for i in range(n):
        P = poly[i]
        Q = poly[(i + 1) % n]
        fp = a * P[0] + b * P[1] - rhs
        fq = a * Q[0] + b * Q[1] - rhs
        if fp <= 0:
            out.append(P)
        if (fp < 0 < fq) or (fq < 0 < fp):
            t = fp / (fp - fq)
            out.append((P[0] + t * (Q[0] - P[0]), P[1] + t * (Q[1] - P[1])))
    return out


def _mc_volume(box, ineqs, dim, samples, seed):
    rng = _chunk_rng(seed, 0)
    lo = np.array([float(l) for l, _ in box])
    hi = np.array([float(h) for _, h in box])
    pts = rng.random((samples, dim)) * (hi - lo) + lo
    mask = np.ones(samples, dtype=bool)
    for ineq in ineqs:
        vals = np.zeros(samples)
        for coef, exps in ineq["terms"]:
            mono = np.full(samples, float(coef))
            for d in range(dim):
                if exps[d]:
                    mono = mono * pts[:, d] ** exps[d]
            vals += mono
        rhs = float(ineq["rhs"])
        op = ineq["op"]
        if op in ("<=", "<"):
            mask &= vals <= rhs
        elif op in (">=", ">"):
            mask &= vals >= rhs
        else:
            mask &= vals == rhs
    box_vol = float(np.prod(hi - lo))
    return float(box_vol * mask.sum() / samples)


def shear_region(N):
    """The unit-shear image of the square [0, N]^2: {(u, v): 0 <= u - v <= N,
    0 <= v <= N}, over the covering box [0, 2N] x [0, N]."""
    return {
        "dim": 2,
        "box": [[0, 2 * N], [0, N]],
        "inequalities": [
            {"terms": [[1, [1, 0]], [-1, [0, 1]]], "op": ">=", "rhs": 0},
            {"terms": [[1, [1, 0]], [-1, [0, 1]]], "op": "<=", "rhs": N},
        ],
    }


# ---------------------------------------------------------------------------
# minimal Weierstrass curves of bounded height


@dataclass(frozen=True)
class CurveCount:
    X: int
    count: int
    predicted: float

    def to_json_dict(self):
        return {"X": self.X, "count": self.count, "predicted": self.predicted,
                "ratio": (self.count / self.predicted) if self.predicted else None}


ZETA10 = math.pi ** 10 / 93555.0


def _is_minimal(A, B):
    """No prime p with p^4 | A and p^6 | B (A = B = 0 never reaches here)."""
    if A == 0:
        bound = iroot(abs(B), 6)
        return all(B % p ** 6 for p in primes_upto(bound)) if bound >= 2 else True
    bound = iroot(abs(A), 4)
    if bound < 2:
        return True
    for p in primes_upto(bound):
        if A % p ** 4 == 0 and (B == 0 or B % p ** 6 == 0):
            return False
    return True


def _family_allows(A, B, family):
    if family is None:
        return True
    m = family["modulus"]
    return [A % m, B % m] in family["residues"] or (A % m, B % m) in \
        {tuple(r) for r in family["residues"]}


def enumerate_curves(X, family=None):
    """Count minimal curves y^2 = x^3 + A x + B with 108|A|^3 < 4X and
    729 B^2 < 4X (the height window matching invariant pairs via
    (I, J) = (-3A, -27B)), discriminant nonzero, optionally restricted
    to a congruence family {"modulus": m, "residues": [[rA, rB], ...]}.

    The prediction is (8 X^{5/6} / 81) times the product of local
    densities: (1 - p^{-10}) at primes away from the modulus, and an
    exact residue count at primes dividing it.
    """
    if X < 1:
        raise QplError("cutoff X must be a positive integer")
    amax = 0
    while 108 * (amax + 1) ** 3 < 4 * X:
        amax += 1
    bmax = isqrt((4 * X - 1) // 729)
    count = 0
    for A in range(-amax, amax + 1):
        for B in range(-bmax, bmax + 1):
            if 4 * A ** 3 + 27 * B ** 2 == 0:
                continue
            if not _family_allows(A, B, family):
                continue
            if _is_minimal(A, B):
                count += 1
    vol = 8.0 * X ** (5.0 / 6.0) / 81.0
    if family is None:
        predicted = vol / ZETA10
    else:
        # away from the modulus the local density is (1 - p^{-10});
        # their product over all p is 1/zeta(10), so divide the primes
        # of the modulus back out and use the exact density there.
        predicted = vol / ZETA10 * float(family_density(family))
        for p in primes_upto(family["modulus"]):
            if family["modulus"] % p == 0:
                predicted /= 1.0 - p ** -10.0
    return CurveCount(X, count, predicted)


def family_density(family):
    """Exact density of {(A, B): congruent to an allowed residue mod m
    and minimal at every p | m}, as a fraction of all integer pairs.

    For each residue r and each p | m with p^v || m, the chance that a
    pair in the class r is non-minimal at p is p^{-max(4-v,0)-max(6-v,0)}
    when r is compatible with p^4 | A, p^6 | B, and zero otherwise; the
    primes are independent by the Chinese remainder theorem.
    """
    m = family["modulus"]
    pv = []
    for p in primes_upto(m):
        if m % p == 0:
            v = 0
            mm = m
            while mm % p == 0:
                v += 1
                mm //= p
            if v > 6:
                raise QplError("family modulus exponent above 6 is not supported")
            pv.append((p, v))
    total = Fraction(0)
    for rA, rB in family["residues"]:
        keep = Fraction(1)
        for p, v in pv:
            a_ok = rA % p ** min(v, 4) == 0
            b_ok = rB % p ** min(v, 6) == 0
            if a_ok and b_ok:
                keep *= 1 - Fraction(1, p ** (max(4 - v, 0) + max(6 - v, 0)))
        total += keep
    return total / (m * m)
