"""Pairs (A, B) of quaternary quadratic forms with integral coordinates,
the group action, the resolvent quartic and its invariants, and the
strong-irreducibility predicate.

Coordinate convention: the stored primitives are the 20 integral
coordinates a11..a44, b11..b44.  The doubled Gram matrix 2A has diagonal
entries 2*a_ii and off-diagonal entries a_ij, so the resolvent

    f(x, y) = det(2A x + 2B y)  ( = 16 det(Ax + By) )

has coefficients in the coordinate domain with no denominators.
Coordinates may be ints, Fractions, elements of F_p (ints with an
explicit modulus passed to the functions that need one), or any
commutative-ring objects (symbolic coefficients work through every
purely algebraic operation here).
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arith import (QplError, det_generic, iroot, mat_identity, mat_inv_exact,
                    mat_mul, mat_eq)
from .quartic import (BinaryQuartic, compose_row, disc_is_zero, quartic_invariants,
                      rational_linear_factor)

COORD_NAMES = ("a11", "a12", "a13", "a14", "a22", "a23", "a24", "a33", "a34", "a44",
               "b11", "b12", "b13", "b14", "b22", "b23", "b24", "b33", "b34", "b44")

# (i, j) index pairs in the serialization order of one form's coordinates
_IJ = [(0, 0), (0, 1), (0, 2), (0, 3), (1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3)]


class PairOfQuadrics:
    __slots__ = ("coords",)

    def __init__(self, coords):
        coords = tuple(_as_exact(c) for c in coords)
        if len(coords) != 20:
            raise QplError("a pair of quadrics needs 20 coordinates, got %d" % len(coords))
        self.coords = coords

    # -- construction ------------------------------------------------------

    @classmethod
    def from_string(cls, text):
        parts = text.split()
        if len(parts) != 20:
            raise QplError("pair serialization needs 20 entries, got %d" % len(parts))
        vals = []
        for pos, t in enumerate(parts, 1):
            try:
                vals.append(Fraction(t) if "/" in t else int(t))
            except (ValueError, ZeroDivisionError):
                raise QplError("pair entry %d is not an integer or a fraction "
                               "p/q with q != 0: %r" % (pos, t)) from None
        return cls(vals)

    @classmethod
    def from_named(cls, **kw):
        """Build from named coordinates (unspecified ones are 0)."""
        vals = [0] * 20
        for key, v in kw.items():
            if key not in COORD_NAMES:
                raise QplError("unknown coordinate %r" % key)
            vals[COORD_NAMES.index(key)] = v
        return cls(vals)

    @classmethod
    def from_gram(cls, A, B):
        """From genuine Gram matrices (off-diagonal entries may be halves)."""
        vals = []
        for M in (A, B):
            for i, j in _IJ:
                vals.append(M[i][j] if i == j else _as_exact(2 * M[i][j]))
        return cls(vals)

    def to_string(self):
        out = []
        for c in self.coords:
            if isinstance(c, Fraction) and c.denominator == 1:
                c = c.numerator
            out.append(str(c))
        return " ".join(out)

    # -- coordinate access -------------------------------------------------

    def named(self, name):
        return self.coords[COORD_NAMES.index(name)]

    def a_coords(self):
        return self.coords[:10]

    def b_coords(self):
        return self.coords[10:]

    def gram2(self, which):
        """The integral matrix 2A (which=0) or 2B (which=1)."""
        return _gram_rows(self.a_coords() if which == 0 else self.b_coords())

    def q_values(self, x):
        """(Q_A(x), Q_B(x)) evaluated exactly in the coordinate domain.

        Only +, - and * are used, so the entries of x may be scalars or
        numpy columns (one row per point), and the values come back alike.
        """
        xx = [x[i] * x[j] for i, j in _IJ]
        return tuple(sum(c * m for c, m in zip(cs, xx))
                     for cs in (self.a_coords(), self.b_coords()))

    def jacobian_minors(self, x):
        """The six 2x2 minors of the Jacobian with rows (2A)x and (2B)x,
        columns (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3).  Ring-generic
        like q_values: x may hold scalars or numpy columns."""
        ja, jb = ([sum(M[i][j] * x[j] for j in range(4)) for i in range(4)]
                  for M in (self.gram2(0), self.gram2(1)))
        return tuple(ja[k] * jb[l] - ja[l] * jb[k]
                     for k in range(4) for l in range(k + 1, 4))

    def scale(self, lam):
        return PairOfQuadrics([lam * c for c in self.coords])

    def reduce_mod(self, m):
        return PairOfQuadrics([c % m for c in self.coords])

    def is_integral(self):
        for c in self.coords:
            if isinstance(c, Fraction):
                if c.denominator != 1:
                    return False
            elif not isinstance(c, int):
                return False
        return True

    def normalized_integral(self):
        """Collapse integral Fractions back to ints (error if non-integral)."""
        if not self.is_integral():
            raise QplError("pair has non-integral coordinates")
        return PairOfQuadrics([int(c) for c in self.coords])

    def __eq__(self, other):
        return isinstance(other, PairOfQuadrics) and self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self):
        return "PairOfQuadrics(%s)" % (self.to_string(),)


def _gram_rows(cs):
    """The doubled Gram matrix of one form's 10 coordinates, as rows."""
    M = [[None] * 4 for _ in range(4)]
    for (i, j), c in zip(_IJ, cs):
        M[i][j] = M[j][i] = 2 * c if i == j else c
    return M


def _as_exact(v):
    if isinstance(v, Fraction) and v.denominator == 1:
        return v.numerator
    return v


# Laplace expansion of a 4x4 determinant along rows {0, 1}: the columns
# of each 2x2 minor of rows 0, 1, the complementary columns of its partner
# minor of rows 2, 3, and the sign of the term.
_LAPLACE = (((0, 1), (2, 3), 1), ((0, 2), (1, 3), -1), ((0, 3), (1, 2), 1),
            ((1, 2), (0, 3), 1), ((1, 3), (0, 2), -1), ((2, 3), (0, 1), 1))


def resolvent_coeffs(coords):
    """The coefficients (a, b, c, d, e) of f(x, y) = det(2A x + 2B y),
    x^4 first, from the 20 coordinates.

    Laplace expansion along rows {0, 1} | {2, 3}: twelve 2x2 minors, each
    a binary quadratic in (x, y), then six signed products of
    complementary minors.  Only +, - and * are used, so the coordinates
    may be ints, Fractions, symbolic entries or numpy columns (int64 or
    object, one row per pair), and the coefficients come back alike.
    """
    A, B = _gram_rows(coords[:10]), _gram_rows(coords[10:])

    def minor(r, j, k):
        # (A_rj x + B_rj y)(A_sk x + B_sk y) - (A_rk x + B_rk y)(A_sj x + B_sj y)
        s = r + 1
        return (A[r][j] * A[s][k] - A[r][k] * A[s][j],
                A[r][j] * B[s][k] + B[r][j] * A[s][k]
                - A[r][k] * B[s][j] - B[r][k] * A[s][j],
                B[r][j] * B[s][k] - B[r][k] * B[s][j])

    out = None
    for top, bottom, sign in _LAPLACE:
        p0, p1, p2 = minor(0, *top)
        q0, q1, q2 = minor(2, *bottom)
        term = (p0 * q0, p0 * q1 + p1 * q0, p0 * q2 + p1 * q1 + p2 * q0,
                p1 * q2 + p2 * q1, p2 * q2)
        if out is None:
            out = term
        elif sign > 0:
            out = tuple(o + t for o, t in zip(out, term))
        else:
            out = tuple(o - t for o, t in zip(out, term))
    return out


def resolvent_quartic(pair):
    """det(2A x + 2B y) expanded as a binary quartic."""
    return BinaryQuartic(*resolvent_coeffs(pair.coords))


# Largest coordinate bound under which resolvent_coeffs on int64 columns
# is exact: Gram entries are at most E = 2 bound, a minor's coefficients
# at most 4 E^2, and every partial sum of the six products of minors at
# most 6 * 3 * (4 E^2)^2 = 288 E^4 in absolute value, below 2^63.
INT64_COORD_BOUND = iroot((2 ** 63 - 1) // 288, 4) // 2


def coord_columns(rows, bound=None):
    """The 20 coordinate columns of `rows` (an (n, 20) integer array or a
    list of 20-lists): int64 when every entry is known to be at most
    `bound` <= INT64_COORD_BOUND in absolute value, dtype object (the
    entries as given, exact) otherwise."""
    exact = bound is not None and bound <= INT64_COORD_BOUND
    return list(np.array(rows, dtype=np.int64 if exact else object).reshape(-1, 20).T)


def scaled_discs(coeffs):
    """4I^3 - J^2 of each row of resolvent coefficient columns, as an
    object array of exact numbers."""
    I, J = quartic_invariants(BinaryQuartic(*(np.asarray(c).astype(object)
                                              for c in coeffs)))
    return 4 * I ** 3 - J ** 2


@dataclass(frozen=True)
class InvariantPair:
    I: object
    J: object

    @property
    def scaled_disc(self):
        """4I^3 - J^2, i.e. 27 * disc."""
        return 4 * self.I ** 3 - self.J ** 2

    @property
    def scaled_height(self):
        """max(4|I|^3, J^2), i.e. 4 * height."""
        return max(4 * abs(self.I) ** 3, self.J ** 2)

    @property
    def disc(self):
        s = self.scaled_disc
        if isinstance(s, int):
            q, r = divmod(s, 27)
            return q if r == 0 else Fraction(s, 27)
        return s / 27

    @property
    def height(self):
        s = self.scaled_height
        if isinstance(s, int):
            return Fraction(s, 4)
        return s / 4


def invariants(pair):
    I, J = quartic_invariants(resolvent_quartic(pair))
    return InvariantPair(I, J)


# ---------------------------------------------------------------------------
# the group


class GroupElement:
    """(g2, g4) with det(g2) det(g4) = 1, modulo the scaling (u^-2 I2, u I4).

    Entries may be ints or Fractions.
    """

    __slots__ = ("g2", "g4")

    def __init__(self, g2, g4):
        self.g2 = tuple(tuple(row) for row in g2)
        self.g4 = tuple(tuple(row) for row in g4)
        d = det_generic(self.g2) * det_generic(self.g4)
        if d != 1:
            raise QplError("det(g2)*det(g4) must be 1, got %s" % (d,))

    @classmethod
    def identity(cls):
        return cls(mat_identity(2), mat_identity(4))

    @classmethod
    def from_g2(cls, g2):
        """Embed an SL2 element (det(g2) must be 1)."""
        return cls(g2, mat_identity(4))

    @classmethod
    def from_g4(cls, g4):
        """Embed an SL4 element (det(g4) must be 1)."""
        return cls(mat_identity(2), g4)

    def det2(self):
        return det_generic(self.g2)

    def det4(self):
        return det_generic(self.g4)

    def compose(self, other):
        """self after other: act(self.compose(other), v) = act(self, act(other, v))."""
        return GroupElement(mat_mul(self.g2, other.g2), mat_mul(self.g4, other.g4))

    def inverse(self):
        return GroupElement(mat_inv_exact(self.g2), mat_inv_exact(self.g4))

    def canonical(self):
        """Scale by the central (u^-2, u) so the first nonzero g4 entry is 1."""
        flat = [self.g4[i][j] for i in range(4) for j in range(4)]
        c = next((x for x in flat if x != 0), None)
        if c is None:
            raise QplError("g4 is zero")
        u = Fraction(1, 1) / Fraction(c)
        g4 = [[_as_exact(Fraction(x) * u) for x in row] for row in self.g4]
        g2 = [[_as_exact(Fraction(x) / u ** 2) for x in row] for row in self.g2]
        return GroupElement(g2, g4)

    def __eq__(self, other):
        if not isinstance(other, GroupElement):
            return False
        a, b = self.canonical(), other.canonical()
        return mat_eq(a.g2, b.g2) and mat_eq(a.g4, b.g4)

    def __hash__(self):
        c = self.canonical()
        return hash((c.g2, c.g4))

    def __repr__(self):
        return "GroupElement(g2=%r, g4=%r)" % (self.g2, self.g4)


def act(g, pair):
    """The action: g2 = [[r,s],[t,u]] sends (A,B) to (rA+sB, tA+uB), then g4
    acts by congruence (g4 A g4^t, g4 B g4^t).  The two commute; done here in
    one pass on the doubled Gram matrices."""
    (r, s), (t, u) = g.g2
    MA = pair.gram2(0)
    MB = pair.gram2(1)
    C = [[r * MA[i][j] + s * MB[i][j] for j in range(4)] for i in range(4)]
    D = [[t * MA[i][j] + u * MB[i][j] for j in range(4)] for i in range(4)]
    g4 = g.g4
    newC = _congruence(g4, C)
    newD = _congruence(g4, D)
    coords = []
    for M in (newC, newD):
        for i, j in _IJ:
            v = _half(M[i][i]) if i == j else M[i][j]
            coords.append(v)
    return PairOfQuadrics(coords)


def _congruence(g, M):
    n = len(g)
    GM = [[sum(g[i][k] * M[k][j] for k in range(n)) for j in range(4)] for i in range(n)]
    return [[sum(GM[i][k] * g[j][k] for k in range(n)) for j in range(n)] for i in range(n)]


def _half(v):
    if isinstance(v, int):
        q, r = divmod(v, 2)
        if r == 0:
            return q
        return Fraction(v, 2)
    if isinstance(v, Fraction):
        return _as_exact(v / 2)
    return v / 2


def twist_identity_check(g, pair):
    """Exact check of the covariance of the resolvent:
    f_{g.(A,B)}(x,y) = det(g4)^2 * f_{A,B}((x,y) g2)."""
    lhs = resolvent_quartic(act(g, pair))
    f = resolvent_quartic(pair)
    d4 = det_generic(g.g4)
    return lhs == compose_row(f, g.g2).scale(d4 * d4)


# ---------------------------------------------------------------------------
# irreducibility


_CASE_CONDITIONS = (
    ("a11", "a12", "a13", "a14"),
    ("a11", "a12", "a13", "a22", "a23"),
    ("a11", "a12", "a13", "b11", "b12", "b13"),
    ("a11", "a12", "a22", "b11", "b12", "b22"),
)


def reducibility_case(pair):
    """The first of the four coordinate-vanishing conditions the pair
    satisfies (1-based), or None.  Each condition forces the resolvent to
    have a rational linear factor or vanishing discriminant."""
    for idx, names in enumerate(_CASE_CONDITIONS, start=1):
        if all(pair.named(n) == 0 for n in names):
            return idx
    return None


def cusp_mask(coords):
    """Which rows of the 20 coordinate columns satisfy one of the
    conditions of reducibility_case."""
    return np.logical_or.reduce([
        np.logical_and.reduce([coords[COORD_NAMES.index(n)] == 0 for n in names])
        for names in _CASE_CONDITIONS])


def _as_quartic(obj):
    if isinstance(obj, PairOfQuadrics):
        return resolvent_quartic(obj)
    return obj


def is_strongly_irreducible(pair_or_quartic):
    """disc != 0 and the resolvent quartic has no root in P^1(Q); takes a
    pair or its resolvent."""
    f = _as_quartic(pair_or_quartic)
    if disc_is_zero(f):
        return False
    return rational_linear_factor(f) is None
