"""Counting infrastructure: torus weights of the 20 coordinates, exact
counts of invariant pairs (I, J) below a height cutoff, reproducible
randomized scans over coordinate boxes, lattice-point-vs-volume
comparisons for box-shaped regions, and enumeration of minimal
Weierstrass curves of bounded height.
"""

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import isqrt

import numpy as np

from .arith import QplError, factorize, iroot
from .forms import (COORD_NAMES, coord_columns, cusp_mask, resolvent_coeffs,
                    scaled_discs)
from .quartic import _root_search, root_free_mask

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

# Most terms an exact sum over the cutoff may take: the I-loop of
# count_invariant_pairs and the Moebius d-loop of enumerate_curves, both
# checked before they loop or evaluate a float.
MAX_SUM_TERMS = 10 ** 6


def _check_terms(what, terms):
    if terms > MAX_SUM_TERMS:
        raise QplError("%s needs %d terms, above the limit of %d"
                       % (what, terms, MAX_SUM_TERMS))


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
    imax = iroot(X - 1, 3)            # |I|^3 <= X - 1  <=>  4|I|^3 < 4X
    _check_terms("the (I, J) count", imax)
    jmax = isqrt(4 * X - 1)           # J^2 < 4X
    n_pos = 0
    for I in range(1, imax + 1):
        n_pos += 2 * isqrt(4 * I ** 3 - 1) + 1
    n_zero = 1 + 2 * iroot(X - 1, 6)
    total = (2 * imax + 1) * (2 * jmax + 1)
    return InvariantPairCount(X, n_pos, total - n_pos - n_zero, n_zero)


# ---------------------------------------------------------------------------
# reproducible randomized scans over coordinate boxes

class _ChunkColumns:
    """One chunk of a scan as 20 coordinate columns.  Its resolvent
    coefficients, scaled discriminants 4I^3 - J^2 and rational-root mask
    are each computed once, for the whole chunk, when first needed."""

    def __init__(self, coords):
        self.coords = coords

    @cached_property
    def coeffs(self):
        return resolvent_coeffs(self.coords)

    @cached_property
    def sd(self):
        return scaled_discs(self.coeffs)

    @cached_property
    def has_root(self):
        """Which rows' resolvents have a root in P^1(Q); the exact search
        runs only on the rows the local root sieve cannot certify."""
        out = np.zeros(len(self.coords[0]), dtype=bool)
        for i in np.flatnonzero(~root_free_mask(self.coeffs)).tolist():
            out[i] = _root_search(*(int(c[i]) for c in self.coeffs)) is not None
        return out


# Each predicate maps a chunk's columns to a boolean mask over its rows.
PREDICATES = {
    "disc_nonzero": lambda ch: ch.sd != 0,
    "strongly_irreducible": lambda ch: (ch.sd != 0) & ~ch.has_root,
    "rational_root": lambda ch: ch.has_root,
    "cusp_condition": lambda ch: cusp_mask(ch.coords),
    "positive_disc": lambda ch: ch.sd > 0,
    "negative_disc": lambda ch: ch.sd < 0,
}

DEFAULT_CHUNK = 1024

# Largest chunk scan_box accepts.  On the object path each of the few dozen
# live intermediate columns of resolvent_coeffs holds one Python int per
# row: a 65536-row chunk at bound 10^12 peaked about 175 MB above the
# interpreter's footprint (Python 3.11, numpy 2.4).
MAX_CHUNK_ROWS = 65536


@dataclass
class CountReport:
    bound: int
    samples: int
    seed: int
    chunk_size: int
    counts: dict
    chunks: list          # (chunk_index, rows_used)

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


def scan_box(bound, samples, seed, predicate_names=("disc_nonzero", "strongly_irreducible"),
             chunk_size=DEFAULT_CHUNK):
    """Count the pairs satisfying each predicate among `samples` uniform
    integral pairs from [-bound, bound]^20.

    Chunk k = 0, 1, ... draws chunk_size x 20 int64 from the Philox stream
    keyed by (seed, k) and uses its first rows, chunk_size of them except
    in the last chunk; chunk_size is at most MAX_CHUNK_ROWS.  Each chunk is
    evaluated as columns (see _ChunkColumns): int64 when the bound proves
    the resolvent cannot overflow, exact Python ints otherwise.  A
    predicate named twice counts once.
    """
    if not 0 <= bound <= 2 ** 63 - 1:
        raise QplError("scan-box needs a bound in [0, 2^63 - 1], got %d" % bound)
    if samples < 0:
        raise QplError("scan-box needs samples >= 0, got %d" % samples)
    if not 1 <= chunk_size <= MAX_CHUNK_ROWS:
        raise QplError("chunk size must be an integer in [1, %d], got %r"
                       % (MAX_CHUNK_ROWS, chunk_size))
    for name in predicate_names:
        if name not in PREDICATES:
            raise QplError("unknown predicate %r" % (name,))
    counts = dict.fromkeys(predicate_names, 0)
    chunks = []
    for chunk_index in range(-(-samples // chunk_size)):
        rows_used = min(chunk_size, samples - chunk_index * chunk_size)
        draws = _chunk_rng(seed, chunk_index).integers(
            -bound, bound + 1, size=(chunk_size, 20), dtype=np.int64)
        chunk = _ChunkColumns(coord_columns(draws[:rows_used], bound))
        for name in counts:
            counts[name] += int(np.count_nonzero(PREDICATES[name](chunk)))
        chunks.append((chunk_index, rows_used))
    return CountReport(bound, sum(r for _, r in chunks), seed, chunk_size, counts, chunks)


# ---------------------------------------------------------------------------
# lattice points vs volume


def _as_fraction(x):
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    if isinstance(x, float) and math.isfinite(x):
        return Fraction(x).limit_denominator(10 ** 9)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            pass
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


_OPS = {"<=": operator.le, "<": operator.lt, ">=": operator.ge,
        ">": operator.gt, "==": operator.eq}

# Largest lattice box davenport_check enumerates; the box [0, 2000] x
# [0, 1000] of the N = 1000 shear holds 2,003,001 points.
MAX_LATTICE_POINTS = 4 * 10 ** 6

# Largest region dimension: np.indices builds dim + 1 axes, and numpy 1.x
# allows 32.
MAX_DIM = 31

# Largest exact-bound bit length of one monomial, sum of e_d times the bit
# length of the box reach along axis d: about the float range, far above
# the 30 bits of 10^13 x^3 on [0, 1000].
MAX_TERM_BITS = 1024


def _seq(x, what, length=None):
    if isinstance(x, (list, tuple)) and length in (None, len(x)):
        return x
    raise QplError("%s must be a list%s, got %r"
                   % (what, "" if length is None else " of length %d" % length, x))


def _parse_region(region):
    """Validate a region dict once.  Returns (box, ineqs): box is a list of
    (lo, hi) Fractions, and each inequality is (terms, op, rhs), scaled by
    the positive lcm of its denominators so that every coefficient and rhs
    is an integer; terms are (coef, exponent tuple) pairs."""
    if not isinstance(region, dict) or "dim" not in region or "box" not in region:
        raise QplError("a region needs the keys 'dim' and 'box'")
    dim = region["dim"]
    if not isinstance(dim, int) or not 1 <= dim <= MAX_DIM:
        raise QplError("region dim must be an integer in [1, %d], got %r"
                       % (MAX_DIM, dim))
    box = [tuple(map(_as_fraction, _seq(iv, "box interval", 2)))
           for iv in _seq(region["box"], "box", dim)]
    if any(hi < lo for lo, hi in box):
        raise QplError("empty box interval")
    ineqs = []
    for ineq in _seq(region.get("inequalities", []), "inequalities"):
        if not isinstance(ineq, dict) or not {"terms", "op", "rhs"} <= ineq.keys():
            raise QplError("an inequality needs the keys 'terms', 'op' and 'rhs'")
        if not isinstance(ineq["op"], str) or ineq["op"] not in _OPS:
            raise QplError("unknown inequality op %r" % (ineq["op"],))
        terms = []
        for term in _seq(ineq["terms"], "terms"):
            coef, exps = _seq(term, "term", 2)
            exps = tuple(_seq(exps, "exponent vector", dim))
            if not all(isinstance(e, int) and e >= 0 for e in exps):
                raise QplError("exponents must be nonnegative integers, got %r" % (exps,))
            terms.append((_as_fraction(coef), exps))
        rhs = _as_fraction(ineq["rhs"])
        scale = math.lcm(rhs.denominator, *(c.denominator for c, _ in terms))
        ineqs.append(([(int(c * scale), e) for c, e in terms], ineq["op"],
                      int(rhs * scale)))
    return box, ineqs


def _region_mask(ineqs, pts):
    """Which rows of the (n, dim) array pts satisfy every inequality.

    The arithmetic is that of pts' dtype: exact for int64 (when no value
    can reach 2^63) and object arrays of Python ints, rounded for the
    float Monte-Carlo samples."""
    mask = np.ones(len(pts), dtype=bool)
    for terms, op, rhs in ineqs:
        vals = 0
        for coef, exps in terms:
            mono = coef
            for d, e in enumerate(exps):
                if e:
                    mono = mono * pts[:, d] ** e
            vals = vals + mono
        mask &= _OPS[op](vals, rhs)
    return mask


def _lattice_points(box, ineqs):
    """The integer points of the box as an (n, dim) array: int64 when an
    exact bound shows no coordinate, partial monomial sum or rhs reaches
    2^63, Python ints otherwise."""
    lows = [math.ceil(lo) for lo, _ in box]
    sizes = [math.floor(hi) - low + 1 for (_, hi), low in zip(box, lows)]
    if math.prod(max(s, 1) for s in sizes) > MAX_LATTICE_POINTS:
        raise QplError("box of %s lattice points exceeds the limit of %d"
                       % (" x ".join(map(str, sizes)), MAX_LATTICE_POINTS))
    reach = [max(abs(low), abs(low + s - 1), 1) for low, s in zip(lows, sizes)]
    bits = max((sum(e * r.bit_length() for r, e in zip(reach, exps))
                for terms, _, _ in ineqs for _, exps in terms), default=0)
    if bits > MAX_TERM_BITS:
        raise QplError("a monomial on this box reaches %d bits, above the limit of %d"
                       % (bits, MAX_TERM_BITS))
    bound = max(reach)
    for terms, _, rhs in ineqs:
        total = sum(max(abs(c), 1) * math.prod(r ** e for r, e in zip(reach, exps))
                    for c, exps in terms)
        bound = max(bound, abs(rhs), total)
    dtype = np.int64 if bound < 2 ** 63 else object
    idx = np.indices(sizes).reshape(len(box), -1).T
    return idx.astype(dtype) + np.array(lows, dtype=dtype)


def davenport_check(region, mc_samples=200000, seed=0):
    """Compare the number of lattice points in a region with its volume.

    The region is a JSON-style dict: {"dim": d, "box": [[lo, hi], ...],
    "inequalities": [{"terms": [[coef, [e_1..e_d]], ...], "op": "<=",
    "rhs": r}, ...]} with op one of <=, <, >=, >, ==, exact numbers (ints,
    "p/q" strings, or floats read to denominators below 10^9) and
    nonnegative integer exponents; anything else raises QplError.  The
    dimension may be at most MAX_DIM, the box may hold at most
    MAX_LATTICE_POINTS lattice points, and a monomial may reach at most
    MAX_TERM_BITS bits on it.  Counting is exact.  The volume is exact for
    two-dimensional regions cut out by linear inequalities (polygon
    clipping + shoelace); otherwise it is a Monte-Carlo estimate over the
    box, which needs every number within float range.  The reported
    projection bound is the largest box extent, the quantity controlling
    the boundary error for regions of this bounded shape.
    """
    box, ineqs = _parse_region(region)
    count = int(_region_mask(ineqs, _lattice_points(box, ineqs)).sum())
    if len(box) == 2 and all(sum(e) <= 1 for terms, _, _ in ineqs for _, e in terms):
        volume, exact = float(_polygon_volume(box, ineqs)), True
    else:
        volume, exact = _mc_volume(box, ineqs, mc_samples, seed), False
    proj = max(float(hi - lo) for lo, hi in box)
    return DavenportReport(count, volume, exact, proj)


def _polygon_volume(box, ineqs):
    """Exact area of a box clipped by linear halfplanes, via
    Sutherland-Hodgman in rational arithmetic and the shoelace formula."""
    (x0, x1), (y0, y1) = box
    poly = [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]
    for terms, op, rhs in ineqs:
        a = sum(c for c, e in terms if e == (1, 0))
        b = sum(c for c, e in terms if e == (0, 1))
        rhs -= sum(c for c, e in terms if e == (0, 0))
        if op in (">=", ">"):
            a, b, rhs = -a, -b, -rhs
        elif op == "==":
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


def _mc_volume(box, ineqs, samples, seed):
    try:
        lo = np.array([float(l) for l, _ in box])
        hi = np.array([float(h) for _, h in box])
        ineqs = [([(float(c), e) for c, e in terms], op, float(rhs))
                 for terms, op, rhs in ineqs]
    except OverflowError:
        raise QplError("the Monte-Carlo volume needs every bound, coefficient "
                       "and rhs within float range") from None
    rng = _chunk_rng(seed, 0)
    pts = rng.random((samples, len(box))) * (hi - lo) + lo
    box_vol = float(np.prod(hi - lo))
    return float(box_vol * _region_mask(ineqs, pts).sum() / samples)


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


def _parse_family(family):
    """Validate a congruence family {"modulus": m, "residues": [[rA, rB],
    ...]}: m an integer in [1, MAX_SUM_TERMS], residues integer pairs in
    [0, m).  Returns m and the set of distinct residues; None is the
    modulus-1 family with the single residue (0, 0)."""
    if family is None:
        return 1, {(0, 0)}
    if not isinstance(family, dict) or not {"modulus", "residues"} <= family.keys():
        raise QplError("a family needs the keys 'modulus' and 'residues'")
    m = family["modulus"]
    if not isinstance(m, int) or not 1 <= m <= MAX_SUM_TERMS:
        raise QplError("family modulus must be an integer in [1, %d], got %r"
                       % (MAX_SUM_TERMS, m))
    residues = set()
    for r in _seq(family["residues"], "residues"):
        if not all(isinstance(x, int) and 0 <= x < m for x in _seq(r, "residue", 2)):
            raise QplError("a residue must be an integer pair in [0, %d), got %r"
                           % (m, r))
        residues.add(tuple(r))
    return m, residues


def _congruent_count(s, r, m, bound):
    """Number of x in [-bound, bound] with s x = r (mod m)."""
    g = math.gcd(s, m)
    if r % g:
        return 0
    step = m // g
    x0 = r // g * pow(s // g, -1, step) % step
    return (bound - x0) // step - (-bound - 1 - x0) // step


def _mobius(n):
    """[mu(0), ..., mu(n)] by a sieve of Eratosthenes (mu(0) is unused)."""
    mu = np.ones(n + 1, dtype=np.int8)
    composite = np.zeros(n + 1, dtype=bool)
    for p in range(2, n + 1):
        if not composite[p]:
            composite[p::p] = True
            mu[p::p] *= -1
            mu[p * p::p * p] = 0
    return mu.tolist()


def enumerate_curves(X, family=None):
    """Count minimal curves y^2 = x^3 + A x + B with 108|A|^3 < 4X and
    729 B^2 < 4X (the height window matching invariant pairs via
    (I, J) = (-3A, -27B)), discriminant nonzero, optionally restricted
    to a congruence family {"modulus": m, "residues": [[rA, rB], ...]}.

    The count is the Moebius sum over squarefree d <= D of mu(d) times
    the allowed window pairs (d^4 A', d^6 B') off the cusp (A', B') =
    (-3k^2, 2k^3); its D max(m, #residues) terms are at most MAX_SUM_TERMS.

    The prediction is (8 X^{5/6} / 81) times the product of local
    densities: (1 - p^{-10}) at primes away from the modulus, and an
    exact residue count at primes dividing it.
    """
    if X < 1:
        raise QplError("cutoff X must be a positive integer")
    m, residues = _parse_family(family)
    amax = iroot((4 * X - 1) // 108, 3)
    bmax = isqrt((4 * X - 1) // 729)
    D = max(iroot(amax, 4), iroot(bmax, 6))
    _check_terms("the Moebius sum", D * max(m, len(residues)))
    count = 0
    mu = _mobius(D)
    for d in range(1, D + 1):
        if mu[d] == 0:
            continue
        a, b = amax // d ** 4, bmax // d ** 6
        sa, sb = d ** 4 % m, d ** 6 % m
        n = sum(_congruent_count(sa, rA, m, a) * _congruent_count(sb, rB, m, b)
                for rA, rB in residues)
        # on the cusp 108|A|^3 = 729 B^2, so 3k^2 <= a iff 2|k|^3 <= b
        cusp = isqrt(a // 3)
        n -= sum(_congruent_count(1, k, m, cusp) for k in range(m)
                 if (-3 * sa * k * k % m, 2 * sb * k ** 3 % m) in residues)
        count += mu[d] * n
    vol = 8.0 * X ** (5.0 / 6.0) / 81.0
    # away from the modulus the local density is (1 - p^{-10}); their
    # product over all p is 1/zeta(10), so divide the primes of the
    # modulus back out and use the exact density there.
    predicted = vol / ZETA10 * float(family_density(family))
    for p, _ in factorize(m):
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
    m, residues = _parse_family(family)
    pv = factorize(m)
    total = Fraction(0)
    for rA, rB in residues:
        keep = Fraction(1)
        for p, v in pv:
            a_ok = rA % p ** min(v, 4) == 0
            b_ok = rB % p ** min(v, 6) == 0
            if a_ok and b_ok:
                keep *= 1 - Fraction(1, p ** (max(4 - v, 0) + max(6 - v, 0)))
        total += keep
    return total / (m * m)
