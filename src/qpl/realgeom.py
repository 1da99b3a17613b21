"""Real geometry of pencils: real root classes of the resolvent,
solubility of the pair over R, and the standard orbit representatives for
each real class.

Everything is exact: the root class from signs of invariants, Sturm
chains for isolating real roots, Sylvester's criterion for definiteness.
"""

from fractions import Fraction

from .arith import DegenerateInput, PreconditionError, QplError, det_generic, iroot
from .forms import PairOfQuadrics, _as_quartic, resolvent_quartic
from .quartic import quartic_invariants, real_root_separators


def real_class(pair_or_quartic):
    """Number of conjugate pairs of non-real roots of the resolvent: 0, 1 or 2.

    (So 4 - 2*real_class roots are real, counting the root at infinity.)
    Raises DegenerateInput when the discriminant vanishes.

    By J. E. Cremona, Classical invariants and 2-descent on elliptic
    curves (J. Symbolic Comput. 31, 2001): two roots are real when
    4I^3 - J^2 < 0.  When it is > 0, all four are real if H = 8ac - 3b^2 < 0
    and H^2 > 16 a^2 I, and none otherwise; with a = 0 that holds, as
    disc != 0 then forces b != 0 (and [1:0] is a real root).
    """
    f = _as_quartic(pair_or_quartic)
    I, J = quartic_invariants(f)
    scaled_disc = 4 * I ** 3 - J ** 2
    if scaled_disc == 0:
        raise DegenerateInput("resolvent has vanishing discriminant")
    if scaled_disc < 0:
        return 1
    H = 8 * f.a * f.c - 3 * f.b ** 2
    return 0 if H < 0 and H * H > 16 * f.a ** 2 * I else 2


def is_R_soluble(pair):
    """Whether Q_A = Q_B = 0 has a nonzero real solution.

    By Calabi's theorem (Proc. AMS 15, 1964; Finsler 1937), for n >= 3 it
    has none exactly when some member x A + y B of the pencil is definite.
    A definite member diagonalizes the pencil over R, so the resolvent
    f(x, y) = det(2A x + 2B y) has four real roots: classes 1 and 2 are
    soluble.  For class 0, definiteness is constant on each arc of P^1(R)
    between roots of f, and a definite 4x4 matrix has det > 0; so one
    rational point is tested per arc where f > 0.
    """
    f = resolvent_quartic(pair)
    if real_class(f) != 0:
        return True
    seps = [(q.numerator, q.denominator) for q in real_root_separators(f.coeffs())]
    # With a != 0 the arc through [1:0] holds both end separators; with
    # a = 0, [1:0] is a root and each end separator lies on its own arc.
    points = [(1, 0)] + seps[1:-1] if f.a != 0 else seps
    A2, B2 = pair.gram2(0), pair.gram2(1)
    for x, y in points:
        if f(x, y) > 0 and _is_definite(
                [[x * a + y * b for a, b in zip(ra, rb)] for ra, rb in zip(A2, B2)]):
            return False
    return True


def _is_definite(M):
    """Sylvester: M is positive definite iff its leading principal minors
    are all positive, negative definite iff they alternate in sign starting
    negative."""
    s = (M[0][0] > 0) - (M[0][0] < 0)
    return all(det_generic([row[:k] for row in M[:k]]) * s ** k > 0
               for k in range(1, len(M) + 1))


# ---------------------------------------------------------------------------
# representatives of the real orbits


def representative_L(tag, params=(), kappa=1):
    """The standard pair for a real class, scaled so its resolvent is
    16*kappa*f for the class's reference quartic f.

    tag "0#": params (l1, l2, l3) -> A = diag(0,-1,1,-1), B = diag(1,-l1,l2,-l3)
    tag "1":  params (l, r)       -> A = antidiag block on (3,4) with A22=-1,
                                     B = diag(1,-l,r,-r)
    tag "2":  params (r1, r2)     -> A = antidiag blocks on (1,2) and (3,4),
                                     B = diag(r1,-r1,r2,-r2)
    Both Gram matrices are multiplied by kappa^(1/4); kappa must be the
    fourth power of a positive rational (PreconditionError otherwise).
    """
    if tag == "0#":
        l1, l2, l3 = params
        A = _diag(0, -1, 1, -1)
        B = _diag(1, -l1, l2, -l3)
    elif tag == "1":
        l, r = params
        A = [[0, 0, 0, 0], [0, -1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
        B = _diag(1, -l, r, -r)
    elif tag == "2":
        r1, r2 = params
        A = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
        B = _diag(r1, -r1, r2, -r2)
    else:
        raise QplError("unknown real-class tag %r" % (tag,))
    s = _fourth_root(kappa)
    A = [[s * v for v in row] for row in A]
    B = [[s * v for v in row] for row in B]
    return PairOfQuadrics.from_gram(A, B)


def _diag(*vals):
    return [[vals[i] if i == j else 0 for j in range(4)] for i in range(4)]


def _fourth_root(kappa):
    kappa = Fraction(kappa)
    if kappa > 0:
        root = Fraction(iroot(kappa.numerator, 4), iroot(kappa.denominator, 4))
        if root ** 4 == kappa:
            return root
    raise PreconditionError("kappa must be the fourth power of a positive rational, "
                            "got %s" % kappa)
