"""Squarefree-sieve machinery at a prime p > 3.

W_p is the locus of integral pairs whose resolvent discriminant is
divisible by p^2.  It splits into W_p^(1) (all partial derivatives of the
discriminant vanish mod p as well -- the "deep" stratum) and the
complement W_p^(2), where p^2 | disc happens for a mod-p geometric
reason: the resolvent acquires a rational double root mod p.  Pairs in
W_p^(2) can be moved by an integral group element into a shape where the
non-integral element gamma_p = ([[1,0],[0,p]], diag(1/p,1,1,1)) acts
integrally, strictly reducing coordinates while preserving (I, J).
"""

from dataclasses import dataclass
from fractions import Fraction
import random

import numpy as np

from .arith import (PreconditionError, QplError, ext_gcd, is_prime,
                    kernel_mod_p, complete_unimodular, mat_identity)
from .forms import (COORD_NAMES, GroupElement, PairOfQuadrics, act, coord_columns,
                    invariants, resolvent_coeffs, resolvent_quartic, scaled_discs)
from .quartic import BinaryQuartic, quartic_invariants, roots_mod_p


def _scaled_disc(pair):
    return invariants(pair).scaled_disc


def _check_prime(p):
    if p <= 3 or not is_prime(p):
        raise PreconditionError("sieve routines need a prime p > 3, got %r" % (p,))


def in_Wp(pair, p):
    """p^2 divides the resolvent discriminant (p > 3, so the factor 27
    in 4I^3 - J^2 = 27 disc does not interfere)."""
    _check_prime(p)
    sd = _scaled_disc(pair)
    if sd == 0:
        return True
    return sd % (p * p) == 0


def _deep_strata(rows, p):
    """The deep-stratum test of in_Wp1 on many coordinate rows at once.

    Each row v and its 20 bumps v + p e_t go through one resolvent_coeffs
    pass.  Returns, per row, (I, J, deep, witness): the invariants of v
    and in_Wp1's answer for it.  Raises where in_Wp1 raises on any row.
    """
    if not rows:
        return []
    bumped = []
    for coords in rows:
        bumped.append(list(coords))
        for t in range(20):
            bumped.append(list(coords))
            bumped[-1][t] += p
    integral = all(isinstance(c, int) for coords in rows for c in coords)
    bound = max(abs(c) for coords in rows for c in coords) + p if integral else None
    coeffs = resolvent_coeffs(coord_columns(bumped, bound))
    I, J = quartic_invariants(BinaryQuartic(*(np.asarray(c).astype(object)
                                              for c in coeffs)))
    sd = (4 * I ** 3 - J ** 2).reshape(-1, 21)
    steps = sd[:, 1:] - sd[:, :1]
    rem = steps % p
    failed = (rem != 0) | ((steps // p) % p != 0)
    out = []
    for k, d0 in enumerate(sd[:, 0]):
        witness = None
        if d0 != 0 and d0 % (p * p) != 0:
            witness = {"reason": "valuation", "direction": None}
        elif failed[k].any():
            t = int(failed[k].argmax())
            if rem[k, t]:
                # impossible for integral rows
                raise QplError("finite difference not divisible by p")
            witness = {"reason": "derivative", "direction": COORD_NAMES[t]}
        out.append((I[21 * k], J[21 * k], witness is None, witness))
    return out


def in_Wp1(pair, p):
    """Membership in the deep stratum W_p^(1): p^2 | disc and every
    partial derivative of disc vanishes mod p.

    Derivatives are exact finite differences: disc is a polynomial with
    integer coefficients, so (disc(v + p e_t) - disc(v)) / p is an
    integer congruent to the t-th partial mod p.  The discriminant at v
    and at its 20 bumps v + p e_t come from one 21-row pass of
    resolvent_coeffs.

    Returns (bool, witness); when the answer is False the witness names
    what failed: {"reason": "valuation"} or {"reason": "derivative",
    "direction": coordinate_name}.
    """
    _check_prime(p)
    (_, _, deep, witness), = _deep_strata([pair.coords], p)
    return deep, witness


def in_Wp2(pair, p):
    if not in_Wp(pair, p):
        return False
    deep, _ = in_Wp1(pair, p)
    return not deep


def _satisfies_normal_conditions(pair, p):
    a11, a12, a13, a14 = pair.coords[0], pair.coords[1], pair.coords[2], pair.coords[3]
    b11 = pair.coords[10]
    return (a11 % (p * p) == 0 and a12 % p == 0 and a13 % p == 0
            and a14 % p == 0 and b11 % p == 0)


def _wp2_invariants(pair, p):
    """(I, J) of a pair that normalize_Wp2 accepts; raises
    PreconditionError for one outside W_p^(2)."""
    _check_prime(p)
    try:
        (I, J, deep, _), = _deep_strata([pair.coords], p)
        sd = 4 * I ** 3 - J ** 2
    except QplError:
        # in_Wp1 fails only on non-integral pairs; a zero discriminant
        # is reported first
        if _scaled_disc(pair) != 0:
            raise
        sd = 0
    if sd == 0:
        raise PreconditionError("degenerate pair (zero discriminant)")
    if sd % (p * p):
        raise PreconditionError("pair is not in W_p at %d" % p)
    if deep:
        raise PreconditionError("pair lies in the deep stratum W_p^(1) at %d" % p)
    return I, J


def normalize_Wp2(pair, p):
    """An integral group element Gamma with act(Gamma, pair) satisfying
    (1) p | a12, a13, a14, b11 and (2) p^2 | a11, i.e. the shape on which
    gamma_p acts integrally.  Returns (Gamma, transformed_pair).

    The double root of the resolvent mod p is moved to [1:0] by an
    SL_2(Z) change of the pencil basis; then the kernel of the leading
    form mod p (one-dimensional in W_p^(2)) is moved to the first basis
    vector by an SL_4(Z) change of the ambient basis.  For honest
    W_p^(2) input the remaining congruences hold automatically.
    """
    _wp2_invariants(pair, p)
    return _normal_form(pair, p)


def _normal_form(pair, p):
    """normalize_Wp2 on a pair already known to lie in W_p^(2)."""
    if _satisfies_normal_conditions(pair, p):
        return GroupElement.identity(), pair

    double = [root for root, m in roots_mod_p(resolvent_quartic(pair), p) if m >= 2]
    if not double:
        raise QplError("resolvent has no rational double root mod %d" % p)
    r, s = double[0]

    g, x, y = ext_gcd(r, s)
    if g != 1:
        raise QplError("double root lift (%d, %d) is not primitive" % (r, s))
    g2 = [[r, s], [-y, x]]          # det = rx + sy = 1
    # the leading form after g2 is rA + sB
    A2 = [[(r * a + s * b) % p for a, b in zip(ra, rb)]
          for ra, rb in zip(pair.gram2(0), pair.gram2(1))]
    basis = kernel_mod_p(A2, p)
    if len(basis) != 1:
        raise QplError("leading form has kernel of dimension %d mod %d, expected 1"
                       % (len(basis), p))
    g4 = complete_unimodular(basis[0])
    gamma = GroupElement(g2, g4)
    out = act(gamma, pair)
    if not _satisfies_normal_conditions(out, p):
        raise QplError("normalization postconditions failed at %d" % p)
    return gamma, out


def gamma_p(p):
    """The non-integral element ([[1,0],[0,p]], diag(1/p,1,1,1)); its
    determinant product is p * (1/p) = 1."""
    g4 = [[Fraction(1, p), 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    return GroupElement([[1, 0], [0, p]], g4)


def apply_gamma_p(pair, p):
    """act(gamma_p, pair), collapsed back to integer coordinates.

    Integral exactly on the normalized shape.  Computed by the coordinate
    effect a11 -> a11/p^2, a1j -> a1j/p, b11 -> b11/p, b1j -> b1j,
    b_ij -> p b_ij (i, j >= 2), with the a_ij (i, j >= 2) unchanged.
    """
    c = pair.coords
    out = PairOfQuadrics([_quotient(c[0], p * p)] + [_quotient(v, p) for v in c[1:4]]
                         + list(c[4:10]) + [_quotient(c[10], p)] + list(c[11:14])
                         + [p * v for v in c[14:]])
    if not out.is_integral():
        raise QplError("gamma_p image is not integral; normalize first")
    return out


def _quotient(v, d):
    """v / d, exact: an int when d divides the integer v."""
    if isinstance(v, int) and v % d == 0:
        return v // d
    return Fraction(1, d) * v


def random_wp2_instance(p, rng=None, coeff_bound=9):
    """A random integral pair in normalized W_p^(2) position.

    Draw a11 = p^2 k, a12, a13, a14, b11 divisible by p and the other 15
    coordinates freely; expanding det(Ax + By) along the first row and
    column shows every monomial of the resolvent then carries enough
    powers of p to force p^2 | disc, so membership in W_p is automatic
    and only the deep stratum needs to be rejected.
    """
    _check_prime(p)
    if rng is None:
        rng = random.Random()
    while True:
        draw = [rng.randint(-coeff_bound, coeff_bound) for _ in range(20)]
        draw[0] = p * p * rng.randint(-2, 2)
        for j in (1, 2, 3, 10):
            draw[j] = p * rng.randint(-coeff_bound, coeff_bound)
        (I, J, deep, _), = _deep_strata([draw], p)
        sd = 4 * I ** 3 - J ** 2
        if sd % (p * p):
            raise QplError("constructed instance escaped W_p")  # impossible
        if sd != 0 and not deep:
            return PairOfQuadrics(draw)


def random_integral_group_element(rng, size=2):
    """A random element of the integral group, as a short product of
    elementary matrices so the entries stay small."""
    def elem(n):
        M = [list(row) for row in mat_identity(n)]
        i = rng.randrange(n)
        j = rng.randrange(n)
        while j == i:
            j = rng.randrange(n)
        M[i][j] = rng.choice((-2, -1, 1, 2))
        return M

    from .arith import mat_mul
    g2 = mat_identity(2)
    g4 = mat_identity(4)
    for _ in range(size):
        g2 = mat_mul(g2, elem(2))
        g4 = mat_mul(g4, elem(4))
    return GroupElement(g2, g4)


def verify_gamma_descent(pair, p):
    """Full pipeline check on one W_p^(2) pair: normalize, apply gamma_p,
    confirm the image is integral, stays in W_p^(1) at p, and has the
    same (I, J).  Returns the descended pair."""
    (descended,) = _descend([pair], [_wp2_invariants(pair, p)], p)
    if isinstance(descended, QplError):
        raise descended
    return descended


def _descend(pairs, invs, p):
    """verify_gamma_descent on W_p^(2) pairs whose (I, J) are `invs`, with
    the images' strata and invariants from one _deep_strata pass.  Returns,
    per pair, the descended pair or the QplError that stopped it."""
    out = []
    for pair in pairs:
        try:
            out.append(apply_gamma_p(_normal_form(pair, p)[1], p))
        except QplError as exc:
            out.append(exc)
    done = [k for k, image in enumerate(out) if isinstance(image, PairOfQuadrics)]
    for k, (I, J, deep, _) in zip(done, _deep_strata([out[k].coords for k in done], p)):
        if (I, J) != invs[k]:
            out[k] = QplError("gamma_p changed the invariants")
        elif not deep:
            out[k] = QplError("gamma_p image escaped W_p^(1)")
    return out


@dataclass
class SievePrimeData:
    p: int
    samples: int
    count_Wp: int
    count_Wp1: int
    count_Wp2: int
    gamma_verified: int

    def csv_row(self):
        return [self.p, self.samples, self.count_Wp, self.count_Wp1,
                self.count_Wp2, self.gamma_verified]

    CSV_HEADER = ["p", "samples", "count_Wp", "count_Wp1", "count_Wp2",
                  "gamma_verified"]


# Samples sieve_scan draws and evaluates as one block of columns.
SIEVE_BLOCK = 1024


def sieve_scan(primes, samples, coeff_bound, seed):
    """Monte-Carlo stratum counts over random integral pairs, plus a
    descent verification for every W_p^(2) hit.

    The samples for p are drawn from random.Random("seed:p"), 20
    coordinates at a time; their scaled discriminants come from one
    resolvent_coeffs pass per block of SIEVE_BLOCK samples, the strata of
    the block's W_p hits from one _deep_strata pass, and the descents of
    its W_p^(2) hits from one more."""
    if samples < 0:
        raise QplError("sieve-scan needs samples >= 0, got %d" % samples)
    if coeff_bound < 0:
        raise QplError("sieve-scan needs a coefficient bound >= 0, got %d" % coeff_bound)
    rows = []
    for p in primes:
        _check_prime(p)
        rng = random.Random("%d:%d" % (seed, p))
        n_wp = n_wp1 = n_wp2 = n_ok = 0
        for start in range(0, samples, SIEVE_BLOCK):
            block = [[rng.randint(-coeff_bound, coeff_bound) for _ in range(20)]
                     for _ in range(min(SIEVE_BLOCK, samples - start))]
            sds = scaled_discs(resolvent_coeffs(coord_columns(block, coeff_bound)))
            hits = [draw for draw, sd in zip(block, sds) if sd != 0 and sd % (p * p) == 0]
            shallow, invs = [], []
            for draw, (I, J, deep, _) in zip(hits, _deep_strata(hits, p)):
                if not deep:
                    shallow.append(PairOfQuadrics(draw))
                    invs.append((I, J))
            n_wp += len(hits)
            n_wp1 += len(hits) - len(shallow)
            n_wp2 += len(shallow)
            n_ok += sum(isinstance(d, PairOfQuadrics) for d in _descend(shallow, invs, p))
        rows.append(SievePrimeData(p, samples, n_wp, n_wp1, n_wp2, n_ok))
    return rows
