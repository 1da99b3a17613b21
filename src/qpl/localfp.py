"""Local arithmetic at a prime p: points of the quadric intersection over
F_p, Q_p-solubility by breadth-first Hensel refinement, the stabilizer of
a pair inside the group over F_p (a resolvent filter over the classes of
PGL_2(F_p), then one mod-p kernel of linear equations per class for the
GL_4 part, searched up to scalars), and 4-torsion counts of the
associated elliptic curve by 2-descent.

The quadric values and Jacobian minors come from one ring-generic
evaluator, PairOfQuadrics.q_values / jacobian_minors: the point scan runs
it on the int64 columns of P^3(F_p), the Hensel lift on Python ints.
Pairs are reduced mod p in Python before any numpy array is built, so
coordinates may be of any size; no array over F_p exceeds MAX_FP_ROWS
rows, and larger work raises QplError before anything is allocated.

The headline identity tested downstream: for a nondegenerate pair, the
stabilizer order equals #E(F_p)[4] for the Jacobian E of the quadric
intersection, taken from the resolvent's cubic model at every odd p.
"""

from dataclasses import dataclass
from itertools import product

import numpy as np

from .arith import (DegenerateInput, QplError, det_generic, is_prime,
                    kernel_mod_p, valuation)
from .quartic import BinaryQuartic, compose_row, roots_mod_p
from .forms import invariants, resolvent_quartic

# Most rows of any array built over F_p: the p^3 + p^2 + p + 1 points of
# P^3(F_p), as many classes of PGL_2(F_p) in the stabilizer's filter, and
# the (p^k - 1)/(p - 1) projective g4 candidates of one class (k <= 4), so
# p <= 61 for both the point scan and the stabilizer.  Checked before the
# array is built.  The stabilizer evaluates its rows _FP_BLOCK at a time,
# so its temporaries stay a few MB whatever p is.
MAX_FP_ROWS = 2 ** 18
_FP_BLOCK = 2 ** 13


def _check_fp_rows(n, what):
    if n > MAX_FP_ROWS:
        raise QplError("%s needs %d rows over F_p, above the work limit "
                       "MAX_FP_ROWS = %d" % (what, n, MAX_FP_ROWS))


def _projective_reps(p, n, what):
    """The (p^n - 1)/(p - 1) canonical representatives of P^(n-1)(F_p),
    first nonzero coordinate equal to 1, as an (N, n) int64 array; what
    names the work in the error raised above MAX_FP_ROWS."""
    _check_fp_rows((p ** n - 1) // (p - 1), what)
    blocks = []
    for lead in range(n):
        tail = n - 1 - lead
        if tail:
            grid = np.indices((p,) * tail).reshape(tail, -1).T
        else:
            grid = np.zeros((1, 0), dtype=np.int64)
        block = np.zeros((grid.shape[0], n), dtype=np.int64)
        block[:, lead] = 1
        block[:, lead + 1:] = grid
        blocks.append(block)
    return np.vstack(blocks)


def _row_blocks(rows):
    """rows in consecutive slices of at most _FP_BLOCK rows."""
    return (rows[lo:lo + _FP_BLOCK] for lo in range(0, len(rows), _FP_BLOCK))


def proj_point_array(p):
    """All p^3 + p^2 + p + 1 canonical representatives of P^3(F_p):
    first nonzero coordinate equal to 1, as an (N, 4) int64 array."""
    return _projective_reps(p, 4, "the point scan of P^3(F_%d)" % p)


def fp_points_on_intersection(pair, p):
    """Points of {Q_A = Q_B = 0} in P^3(F_p) with smoothness flags.

    A point is smooth when the 2x4 Jacobian (rows (2A)x and (2B)x) has
    rank 2, i.e. some 2x2 minor is nonzero mod p.  Both are evaluated on
    the int64 columns of P^3(F_p) after reducing the pair mod p; a minor
    is below 50 p^4, far inside int64 for any p under MAX_FP_ROWS.
    """
    if not is_prime(p) or p == 2:
        raise QplError("need an odd prime, got %r" % (p,))
    if not pair.is_integral():
        raise QplError("F_p point scan needs integral coordinates")
    pair = pair.reduce_mod(p)
    X = proj_point_array(p)
    qa, qb = pair.q_values(X.T)
    on = (qa % p == 0) & (qb % p == 0)
    Xon = X[on]
    smooth = np.logical_or.reduce([m % p != 0 for m in pair.jacobian_minors(Xon.T)])
    return [(tuple(int(v) for v in x), bool(s)) for x, s in zip(Xon, smooth)]


@dataclass(frozen=True)
class SolubilityVerdict:
    status: str              # "soluble" | "insoluble" | "unknown"
    witness: tuple = None    # coordinates mod p^modulus_exponent when soluble
    modulus_exponent: int = 0
    depth: int = 0

    def to_json_dict(self, p):
        d = {"prime": p, "depth": self.depth, "verdict": self.status}
        if self.witness is not None:
            d["witness"] = list(self.witness)
            d["modulus"] = p ** self.modulus_exponent
        return d


def qp_soluble(pair, p, depth=None):
    """Three-valued Q_p-solubility by breadth-first refinement.

    Smooth residue points lift by Hensel; a singular survivor x mod p^k
    is declared soluble when some 2x2 Jacobian minor m satisfies
    2 v_p(m) < k (Newton's condition for the two-equation system); dead
    branches everywhere mean insoluble; surviving singular branches at
    the depth limit mean unknown.
    """
    if not is_prime(p) or p == 2:
        raise QplError("need an odd prime, got %r" % (p,))
    inv = invariants(pair)
    sd = inv.scaled_disc
    if sd == 0:
        raise DegenerateInput("zero discriminant")
    if depth is None:
        depth = valuation(sd, p) + 2
    def min_minor_valuation(x):
        # None = all minors vanish exactly
        return min((valuation(m, p) for m in pair.jacobian_minors(x) if m != 0),
                   default=None)

    queue = []
    pk = p
    for x, _ in fp_points_on_intersection(pair, p):
        e = min_minor_valuation(x)
        if e is not None and 2 * e < 1:
            return SolubilityVerdict("soluble", x, 1, 1)
        unit = next(i for i, v in enumerate(x) if v == 1)
        queue.append((list(x), unit))
    k = 1
    while queue and k < depth:
        pk1 = pk * p
        nxt = []
        for x, unit in queue:
            free = [i for i in range(4) if i != unit]
            for t in product(range(p), repeat=3):
                y = list(x)
                for i, ti in zip(free, t):
                    y[i] = x[i] + pk * ti
                qa, qb = pair.q_values(y)
                if qa % pk1 or qb % pk1:
                    continue
                e = min_minor_valuation(y)
                if e is not None and 2 * e < k + 1:
                    return SolubilityVerdict("soluble", tuple(y), k + 1, k + 1)
                nxt.append((y, unit))
        queue = nxt
        pk = pk1
        k += 1
    if queue:
        return SolubilityVerdict("unknown", None, 0, depth)
    return SolubilityVerdict("insoluble", None, 0, k)


# ---------------------------------------------------------------------------
# stabilizer over F_p


def stabilizer_order_fp(pair, p):
    """Order of the stabilizer of the pair in the group over F_p.

    The group is GL_2 x GL_4 with det(g2) det(g4) = 1, modulo the p - 1
    scalings (l^-2, l), so each of its elements is counted once as a pair
    (class of g2 up to scalars, g4 up to scalars).  The pair is reduced
    mod p first, so no numpy array sees a large integer.

    g2 -> l g2 multiplies both f(.g2) and det(g2)^2 by l^4, so one numpy
    evaluation of compose_row over the p^3 + p^2 + p + 1 classes of
    PGL_2(F_p) (first nonzero entry 1) keeps those with
    f(.g2) = det(g2)^2 f, a necessary condition for (g2, *) to stabilize.
    For each survivor, with (C, D) the g2-combination of (2A, 2B), a
    stabilizing g4 solves g4 C g4^T = 2A and g4 D g4^T = 2B; with
    H = g4^{-T} these become the linear equations g4 C = 2A H,
    g4 D = 2B H, whose kernel is taken mod p once per class (scaling g2
    scales H and leaves the g4-parts alone).  As f is not 0 mod p, no
    kernel vector has a zero g4-part, so the g4-parts are independent; as
    f is squarefree mod p they span k <= 4 dimensions.

    The candidates X run over the (p^k - 1)/(p - 1) projective
    coefficient vectors of that span.  X is accepted when some c != 0
    gives X C X^T = c 2A, X D X^T = c 2B and det(g2) det(X) = c^2; then
    (c^-1 g2, X) stabilizes, and it is the only element of the group
    with that class and that X up to scalars.  So the order is the number
    of accepted (class, X) pairs.

    Every intermediate stays below about 10^3 p^5, inside int64 for every
    p the work limit admits (p <= 61), which is checked first.
    """
    if p < 3 or not is_prime(p):
        raise QplError("need a prime p >= 3")
    classes = _projective_reps(p, 4, "the PGL_2(F_%d) classes" % p)
    if not pair.is_integral():
        raise QplError("stabilizer count needs integral coordinates")
    inv = invariants(pair)
    if inv.disc % p == 0:     # disc, not 27*disc: 3 | scaled_disc always
        raise DegenerateInput("discriminant vanishes mod %d" % p)
    pair = pair.reduce_mod(p)
    A2 = np.array(pair.gram2(0), dtype=np.int64) % p
    B2 = np.array(pair.gram2(1), dtype=np.int64) % p
    f_mod = resolvent_quartic(pair).reduce_mod(p)
    order = 0
    for block in _row_blocks(classes):
        r, s, t, u = block.T
        det2 = (r * u - s * t) % p
        keep = det2 != 0
        for lhs, c in zip(compose_row(f_mod, [[r, s], [t, u]]).coeffs(),
                          f_mod.coeffs()):
            keep &= (lhs - det2 * det2 * c) % p == 0
        order += sum(_count_projective_g4(g2, A2, B2, p) for g2 in block[keep])
    return order


def _count_projective_g4(g2, A2, B2, p):
    """Number of X up to scalars with X C X^T = c 2A, X D X^T = c 2B and
    det(g2) det(X) = c^2 for some c != 0, where (C, D) is the
    g2-combination of (2A, 2B)."""
    r, s, t, u = (int(v) for v in g2)
    det2 = (r * u - s * t) % p
    C = (r * A2 + s * B2) % p
    D = (t * A2 + u * B2) % p
    # unknowns (vec X, vec H) row-major: vec(X C) = (1 (x) C^T) vec X and
    # vec(2A H) = (2A (x) 1) vec H
    eye = np.eye(4, dtype=np.int64)
    M = np.block([[np.kron(eye, C.T), -np.kron(A2, eye)],
                  [np.kron(eye, D.T), -np.kron(B2, eye)]]) % p
    basis = np.array(kernel_mod_p(M.tolist(), p), dtype=np.int64)
    k = len(basis)
    if k == 0:
        return 0
    coeffs = _projective_reps(p, k, "the g4 candidates of a %d-dimensional "
                              "kernel" % k)
    # 2A is not 0 mod p (else f = det(2B) y^4 mod p), so one nonzero
    # entry (i, j) of it fixes c; a first cut on that entry and on the
    # same entry of X D X^T leaves about 1/p of the candidates
    i, j = (int(v) for v in np.argwhere(A2)[0])
    a_inv = pow(int(A2[i, j]), -1, p)
    count = 0
    for block in _row_blocks(coeffs):
        X = (block @ basis[:, :16] % p).reshape(-1, 4, 4)
        XCi = X[:, i] @ C % p
        XDi = X[:, i] @ D % p
        c = (XCi * X[:, j]).sum(axis=1) % p * a_inv % p
        cut = ((c != 0)
               & ((XDi * X[:, j]).sum(axis=1) % p == c * B2[i, j] % p))
        X, c = X[cut], c[cut][:, None, None]
        Xt = X.transpose(0, 2, 1)
        ok = (((X @ C % p) @ Xt % p == c * A2 % p).all(axis=(1, 2))
              & ((X @ D % p) @ Xt % p == c * B2 % p).all(axis=(1, 2)))
        d4 = det_generic([[X[:, a, b] for b in range(4)] for a in range(4)])
        count += int((ok & (det2 * d4 % p == c[:, 0, 0] ** 2 % p)).sum())
    return count


# ---------------------------------------------------------------------------
# elliptic curves over F_p and 4-torsion


@dataclass(frozen=True)
class FpCurve:
    """y^2 = x^3 + a x + b over F_p, p > 3, nondegenerate."""
    p: int
    a: int
    b: int

    def __post_init__(self):
        if self.p <= 3 or not is_prime(self.p):
            raise QplError("FpCurve needs a prime p > 3")
        if (4 * self.a ** 3 + 27 * self.b ** 2) % self.p == 0:
            raise DegenerateInput("curve discriminant vanishes mod %d" % self.p)


def curve_from_invariants(I, J, p):
    """E: y^2 = x^3 - (I/3) x - (J/27) reduced mod p (p > 3)."""
    if p <= 3 or not is_prime(p):     # before 3 is inverted mod p
        raise QplError("FpCurve needs a prime p > 3")
    a = (-I * pow(3, -1, p)) % p
    b = (-J * pow(27, -1, p)) % p
    return FpCurve(p, a, b)


def _is_square_mod(v, p):
    """Euler's criterion for v a unit mod the odd prime p."""
    return pow(v, (p - 1) // 2, p) == 1


def _cubic_four_torsion(c, P, Q, p):
    """#E(F_p)[4] for E: y^2 = g(x) = x^3 + c x^2 + P x + Q, g squarefree
    mod the odd prime p, by 2-descent (Silverman, The Arithmetic of
    Elliptic Curves, ch. X): doubling maps E(F_p)[4] onto the 2-torsion
    points that are doubles in E(F_p), with kernel E[2](F_p), so the count
    is #E[2](F_p) times the number of those doubles.

    With three roots e of g in F_p, (e, 0) is a double iff e - e' is a
    square for both other roots e'.  With one root, it is a double iff
    g'(e) = N(e - e') is a square, as an element e - e' of F_{p^2} is a
    square iff its norm is.  The roots are simple, so every tested value
    is a unit.
    """
    roots = [r for (r, s), _ in roots_mod_p(BinaryQuartic(0, 1, c, P, Q), p)
             if s]
    if len(roots) == 3:
        doubles = sum(all(_is_square_mod(e - f, p) for f in roots if f != e)
                      for e in roots)
    else:
        doubles = sum(_is_square_mod((3 * e + 2 * c) * e + P, p) for e in roots)
    return (1 + len(roots)) * (1 + doubles)


def curve_four_torsion(E):
    """#E(F_p)[4] by 2-descent on x^3 + ax + b."""
    return _cubic_four_torsion(0, E.a, E.b, E.p)


def jacobian_four_torsion(pair, p):
    """#E(F_p)[4] for the Jacobian E of the pair's quadric intersection, at
    any odd prime p not dividing disc.  E is the resolvent's cubic model
    y^2 = x^3 + c x^2 + (bd - 4ae) x + (b^2 e + a d^2 - 4ace) for
    f = (a, b, c, d, e) (Cremona, J. Symbolic Comput. 31, 2001), whose
    cubic has discriminant disc; for p > 3, x -> x - c/3 turns it into
    y^2 = x^3 - (I/3) x - J/27."""
    if p == 2 or not is_prime(p):
        raise QplError("need an odd prime, got %r" % (p,))
    if not pair.is_integral():
        raise QplError("4-torsion count needs integral coordinates")
    if invariants(pair).disc % p == 0:
        raise DegenerateInput("discriminant vanishes mod %d" % p)
    a, b, c, d, e = resolvent_quartic(pair).coeffs()
    return _cubic_four_torsion(c % p, (b * d - 4 * a * e) % p,
                               (b * b * e + a * d * d - 4 * a * c * e) % p, p)


# the name criterion 07 imports
jacobian_four_torsion_small_p = jacobian_four_torsion
