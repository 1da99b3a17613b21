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
from itertools import combinations

from .arith import (QplError, _PERMS, det_generic, mat_identity, mat_inv_exact,
                    mat_inv_mod, mat_mul, mat_eq)
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
        for t in parts:
            if "/" in t:
                vals.append(Fraction(t))
            else:
                vals.append(int(t))
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
        cs = self.a_coords() if which == 0 else self.b_coords()
        M = [[None] * 4 for _ in range(4)]
        for (i, j), c in zip(_IJ, cs):
            if i == j:
                M[i][i] = 2 * c
            else:
                M[i][j] = c
                M[j][i] = c
        return M

    def upper(self, which):
        """Upper-triangular coefficient matrix U with Q(x) = x^T U x."""
        cs = self.a_coords() if which == 0 else self.b_coords()
        U = [[0] * 4 for _ in range(4)]
        for (i, j), c in zip(_IJ, cs):
            U[i][j] = c
        return U

    def q_values(self, x):
        """(Q_A(x), Q_B(x)) evaluated exactly in the coordinate domain."""
        out = []
        for which in (0, 1):
            U = self.upper(which)
            acc = 0
            for i in range(4):
                for j in range(i, 4):
                    acc = acc + U[i][j] * x[i] * x[j]
            out.append(acc)
        return tuple(out)

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

    # -- resolvent and invariants -----------------------------------------

    def resolvent_quartic(self):
        return resolvent_quartic(self)

    def invariants(self):
        return invariants(self)


def _as_exact(v):
    if isinstance(v, Fraction) and v.denominator == 1:
        return v.numerator
    return v


def resolvent_quartic(pair):
    """det(2A x + 2B y) expanded as a binary quartic.

    Permutation expansion of the determinant of a matrix of linear forms;
    each product of four linear forms is convolved exactly, so the result
    is valid over any commutative coefficient ring.
    """
    MA = pair.gram2(0)
    MB = pair.gram2(1)
    zero = MA[0][0] * 0
    out = [zero] * 5
    for perm, sign in _PERMS[4]:
        # product of the four linear forms (MA[i][perm[i]] x + MB[i][perm[i]] y)
        prod = [MA[0][perm[0]], MB[0][perm[0]]]
        for i in range(1, 4):
            na, nb = MA[i][perm[i]], MB[i][perm[i]]
            new = [zero] * (len(prod) + 1)
            for k, c in enumerate(prod):
                new[k] = new[k] + c * na
                new[k + 1] = new[k + 1] + c * nb
            prod = new
        for k in range(5):
            out[k] = out[k] + (prod[k] if sign > 0 else -prod[k])
    return BinaryQuartic(*out)


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

    Over F_p pass modulus=p; the determinant condition and equality are
    then taken mod p.  Entries may be ints or Fractions otherwise.
    """

    __slots__ = ("g2", "g4", "modulus")

    def __init__(self, g2, g4, modulus=None):
        self.g2 = tuple(tuple(row) for row in g2)
        self.g4 = tuple(tuple(row) for row in g4)
        self.modulus = modulus
        d = det_generic(self.g2) * det_generic(self.g4)
        ok = (d - 1) % modulus == 0 if modulus else d == 1
        if not ok:
            raise QplError("det(g2)*det(g4) must be 1, got %s" % (d,))

    @classmethod
    def identity(cls, modulus=None):
        return cls(mat_identity(2), mat_identity(4), modulus)

    @classmethod
    def from_g2(cls, g2, modulus=None):
        """Embed an SL2 element (det(g2) must be 1)."""
        return cls(g2, mat_identity(4), modulus)

    @classmethod
    def from_g4(cls, g4, modulus=None):
        """Embed an SL4 element (det(g4) must be 1)."""
        return cls(mat_identity(2), g4, modulus)

    def det2(self):
        d = det_generic(self.g2)
        return d % self.modulus if self.modulus else d

    def det4(self):
        d = det_generic(self.g4)
        return d % self.modulus if self.modulus else d

    def compose(self, other):
        """self after other: act(self.compose(other), v) = act(self, act(other, v))."""
        if self.modulus != other.modulus:
            raise QplError("modulus mismatch in composition")
        g2 = mat_mul(self.g2, other.g2)
        g4 = mat_mul(self.g4, other.g4)
        if self.modulus:
            g2 = [[x % self.modulus for x in row] for row in g2]
            g4 = [[x % self.modulus for x in row] for row in g4]
        return GroupElement(g2, g4, self.modulus)

    def inverse(self):
        if self.modulus:
            p = self.modulus
            inv2 = mat_inv_mod(self.g2, p)
            inv4 = mat_inv_mod(self.g4, p)
            return GroupElement(inv2, inv4, p)
        return GroupElement(mat_inv_exact(self.g2), mat_inv_exact(self.g4))

    def canonical(self):
        """Scale by the central (u^-2, u) so the first nonzero g4 entry is 1."""
        flat = [self.g4[i][j] for i in range(4) for j in range(4)]
        c = next((x for x in flat if (x % self.modulus if self.modulus else x) != 0), None)
        if c is None:
            raise QplError("g4 is zero")
        if self.modulus:
            u = pow(int(c), -1, self.modulus)
            g4 = [[(x * u) % self.modulus for x in row] for row in self.g4]
            u2 = pow(u, -2, self.modulus)
            g2 = [[(x * u2) % self.modulus for x in row] for row in self.g2]
        else:
            u = Fraction(1, 1) / Fraction(c)
            g4 = [[_as_exact(Fraction(x) * u) for x in row] for row in self.g4]
            g2 = [[_as_exact(Fraction(x) / u ** 2) for x in row] for row in self.g2]
        return GroupElement(g2, g4, self.modulus)

    def __eq__(self, other):
        if not isinstance(other, GroupElement) or self.modulus != other.modulus:
            return False
        a, b = self.canonical(), other.canonical()
        return mat_eq(a.g2, b.g2) and mat_eq(a.g4, b.g4)

    def __hash__(self):
        c = self.canonical()
        return hash((c.g2, c.g4, c.modulus))

    def __repr__(self):
        return "GroupElement(g2=%r, g4=%r%s)" % (
            self.g2, self.g4, ", mod %d" % self.modulus if self.modulus else "")


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
    out = PairOfQuadrics(coords)
    if g.modulus:
        out = out.reduce_mod(g.modulus)
    return out


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
    rhs = compose_row(f, g.g2).scale(d4 * d4)
    if g.modulus:
        lhs = lhs.reduce_mod(g.modulus)
        rhs = rhs.reduce_mod(g.modulus)
    return lhs == rhs


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


def is_strongly_irreducible(pair):
    """disc != 0 and the resolvent quartic has no root in P^1(Q)."""
    f = resolvent_quartic(pair)
    if disc_is_zero(f):
        return False
    return rational_linear_factor(f) is None
