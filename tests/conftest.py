from itertools import product
from math import gcd, isqrt
import random

import numpy as np
import sympy

from qpl import GroupElement, PairOfQuadrics, invariants
from qpl.arith import (_PERMS, DegenerateInput, QplError, det_generic, iroot,
                       is_prime, kernel_mod_p, mat_identity, mat_mul)
from qpl.counting import InvariantPairCount
from qpl.forms import (COORD_NAMES, coord_columns, resolvent_coeffs,
                       resolvent_quartic, scaled_discs)
from qpl.localfp import _check_fp_rows, fp_points_on_intersection
from qpl.quartic import (BinaryQuartic, _clear_denominators, _divisors, _sgn,
                         _sign_changes, _sturm_chain, compose_row, disc_is_zero)
from qpl.sieve import verify_gamma_descent


def random_pair(rng, bound=5):
    return PairOfQuadrics([rng.randint(-bound, bound) for _ in range(20)])


def random_nondegenerate_pair(rng, bound=5):
    while True:
        pair = random_pair(rng, bound)
        if invariants(pair).scaled_disc != 0:
            return pair


def resolvent_oracle(coords):
    """det(2A x + 2B y) by permutation expansion of the determinant of a
    matrix of linear forms, each product of four linear forms convolved
    exactly: the slow reference for qpl.forms.resolvent_coeffs, valid over
    any commutative coefficient ring.  Returns (a, b, c, d, e)."""
    pair = PairOfQuadrics(coords)
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
    return tuple(out)


def is_prime_oracle(n):
    """Trial division up to sqrt(n): the slow reference for
    qpl.arith.is_prime."""
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def random_sl2pm(rng, bound=5):
    """2x2 integer matrix with determinant +-1, by rejection."""
    while True:
        m = [[rng.randint(-bound, bound) for _ in range(2)] for _ in range(2)]
        if abs(m[0][0] * m[1][1] - m[0][1] * m[1][0]) == 1:
            return m


def random_unimodular4(rng, steps=4, entry_bound=None):
    """Product of elementary shears (det 1 each)."""
    while True:
        M = mat_identity(4)
        for _ in range(steps):
            i, j = rng.sample(range(4), 2)
            E = mat_identity(4)
            E[i][j] = rng.choice((-2, -1, 1, 2))
            M = mat_mul(M, E)
        if entry_bound is None or max(abs(v) for row in M for v in row) <= entry_bound:
            return M


def random_group_element(rng, bound=5, g4_steps=4, entry_bound=None):
    """Random element with integer entries and det(g2) det(g4) = 1."""
    g2 = random_sl2pm(rng, bound)
    g4 = random_unimodular4(rng, g4_steps, entry_bound)
    if det_generic(g2) == -1:
        g4 = [[-v for v in g4[0]]] + [list(r) for r in g4[1:]]
    return GroupElement(g2, g4)


def stabilizer_order_oracle(pair, p):
    """Stabilizer order over F_p by exhaustive scan: every g2 in GL_2(F_p),
    and for each all g4 by row-by-row backtracking over all of F_p^4.  The
    slow reference for qpl.localfp.stabilizer_order_fp.

    One table K[v, w] = p (v^T 2A w) + (v^T 2B w) mod p codes both Gram
    values of every pair of vectors.  The rows w_i of g4 must satisfy
    (w_i^T C w_j, w_i^T D w_j) = (2A_ij, 2B_ij) with (C, D) the
    g2-combination of (2A, 2B), i.e. K[w_i, w_j] = the code of
    g2^{-1} (2A_ij, 2B_ij), so each step of the search is one row of K
    compared with one target code."""
    if p < 3 or not is_prime(p):
        raise QplError("need a prime p >= 3")
    if not pair.is_integral():
        raise QplError("stabilizer count needs integral coordinates")
    inv = invariants(pair)
    if inv.disc % p == 0:
        raise DegenerateInput("discriminant vanishes mod %d" % p)
    A2 = np.array(pair.gram2(0), dtype=np.int64) % p
    B2 = np.array(pair.gram2(1), dtype=np.int64) % p
    V = np.indices((p,) * 4).reshape(4, -1).T.astype(np.int16)  # all of F_p^4
    K = (p * ((V @ A2.astype(np.int16) % p) @ V.T % p)
         + (V @ B2.astype(np.int16) % p) @ V.T % p)     # entries < p^2
    diag = {code: np.flatnonzero(K.diagonal() == code) for code in range(p * p)}
    raw = 0
    for g2 in product(range(p), repeat=4):
        r, s, t, u = g2
        det2 = (r * u - s * t) % p
        if det2:
            d_inv = pow(det2, -1, p)
            target = [[int(p * ((u * A2[i, j] - s * B2[i, j]) * d_inv % p)
                           + (r * B2[i, j] - t * A2[i, j]) * d_inv % p)
                       for j in range(4)] for i in range(4)]
            raw += _count_g4_by_table(K, diag, target, det2, V, p)
    if raw % (p - 1):
        raise QplError("raw stabilizer count %d not divisible by p-1" % raw)
    return raw // (p - 1)


def _count_g4_by_table(K, diag, target, det2, V, p):
    """Number of row tuples (w_1, .., w_4) of F_p^4 with
    K[w_i, w_j] = target[i][j] for all i <= j and det(g2) det(g4) = 1."""
    count = 0
    c2, c3, c4 = (diag[target[i][i]] for i in (1, 2, 3))
    for i1 in diag[target[0][0]]:
        for i2 in c2[K[i1, c2] == target[0][1]]:
            for i3 in c3[(K[i1, c3] == target[0][2]) & (K[i2, c3] == target[1][2])]:
                for i4 in c4[(K[i1, c4] == target[0][3]) & (K[i2, c4] == target[1][3])
                             & (K[i3, c4] == target[2][3])]:
                    g4 = [list(map(int, V[i])) for i in (i1, i2, i3, i4)]
                    if det2 * det_generic(g4) % p == 1:
                        count += 1
    return count


def stabilizer_order_gl2_oracle(pair, p):
    """Order of the stabilizer of the pair in the group over F_p, by a
    filter over all of GL_2(F_p) and all p^k kernel combinations per g2:
    the slow reference for qpl.localfp.stabilizer_order_fp at p <= 19,
    which counts one representative per scalar class on both sides.

    The pair is reduced mod p first, so no numpy array sees a large
    integer.  One numpy evaluation of compose_row over all of GL_2(F_p)
    keeps the g2 with f(.g2) = det(g2)^2 f, a necessary condition for
    (g2, *) to stabilize.  For each survivor, with (C, D) the
    g2-combination of (2A, 2B), a stabilizing g4 solves g4 C g4^T = 2A
    and g4 D g4^T = 2B; with H = g4^{-T} these become the linear
    equations g4 C = 2A H, g4 D = 2B H, whose kernel is taken mod p.  As
    f is not 0 mod p, no kernel vector has a zero g4-part, so the g4-parts
    are independent; as f is squarefree mod p they span at most 4
    dimensions.  All of their <= p^4 combinations are tested at once
    against the two quadric equations and det(g2) det(g4) = 1.  The raw
    pair count is divided by the (p-1) central scalings.

    Every intermediate stays below about 10^3 p^5, inside int64 for every
    p with p^4 <= MAX_FP_ROWS, which is checked first.
    """
    if p < 3 or not is_prime(p):
        raise QplError("need a prime p >= 3")
    _check_fp_rows(p ** 4, "the GL_2(F_%d) filter" % p)
    if not pair.is_integral():
        raise QplError("stabilizer count needs integral coordinates")
    inv = invariants(pair)
    if inv.disc % p == 0:     # disc, not 27*disc: 3 | scaled_disc always
        raise DegenerateInput("discriminant vanishes mod %d" % p)
    pair = pair.reduce_mod(p)
    A2 = np.array(pair.gram2(0), dtype=np.int64) % p
    B2 = np.array(pair.gram2(1), dtype=np.int64) % p
    f_mod = resolvent_quartic(pair).reduce_mod(p)
    r, s, t, u = np.indices((p,) * 4).reshape(4, -1)
    det2 = (r * u - s * t) % p
    keep = det2 != 0
    for lhs, c in zip(compose_row(f_mod, [[r, s], [t, u]]).coeffs(),
                      f_mod.coeffs()):
        keep &= (lhs - det2 * det2 * c) % p == 0
    raw = sum(_count_g4_solutions(g2, A2, B2, p)
              for g2 in zip(r[keep], s[keep], t[keep], u[keep]))
    if raw % (p - 1):
        raise QplError("raw stabilizer count %d not divisible by p-1" % raw)
    return raw // (p - 1)


def _count_g4_solutions(g2, A2, B2, p):
    """Number of g4 with g4 C g4^T = 2A, g4 D g4^T = 2B and det condition,
    where (C, D) is the g2-combination of (2A, 2B)."""
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
    _check_fp_rows(p ** k, "the g4 kernel of dimension %d" % k)
    coeffs = np.indices((p,) * k).reshape(k, -1).T
    X = (coeffs @ basis[:, :16] % p).reshape(-1, 4, 4)
    Xt = X.transpose(0, 2, 1)
    ok = (((X @ C % p) @ Xt % p == A2).all(axis=(1, 2))
          & ((X @ D % p) @ Xt % p == B2).all(axis=(1, 2)))
    d4 = det_generic([[X[:, i, j] for j in range(4)] for i in range(4)])
    return int((ok & (det2 * d4 % p == 1)).sum())


def count_invariant_pairs_naive(X):
    """Brute-force double loop over the (I, J) rectangle; the oracle for
    qpl.counting.count_invariant_pairs, only sensible for small X."""
    imax = iroot(X - 1, 3)
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


def disc(f):
    """Discriminant of a binary quartic via the explicit degree-6 polynomial
    in its coefficients; an independent oracle for 27 disc = 4I^3 - J^2
    and for qpl.quartic.disc_via_resultant."""
    a, b, c, d, e = f.coeffs()
    return (256 * a**3 * e**3 - 192 * a**2 * b * d * e**2
            - 128 * a**2 * c**2 * e**2 + 144 * a**2 * c * d**2 * e
            - 27 * a**2 * d**4 + 144 * a * b**2 * c * e**2
            - 6 * a * b**2 * d**2 * e - 80 * a * b * c**2 * d * e
            + 18 * a * b * c * d**3 + 16 * a * c**4 * e
            - 4 * a * c**3 * d**2 - 27 * b**4 * e**2
            + 18 * b**3 * c * d * e - 4 * b**3 * d**3
            - 4 * b**2 * c**3 * e + b**2 * c**2 * d**2)


def rational_root_oracle(f):
    """The projective rational root [r:s] of f, or None, by the divisor
    search alone: the slow reference for qpl.quartic.rational_linear_factor
    and for the local root sieve it runs first.

    Returned normalized: gcd(r,s) = 1, s > 0, or (1, 0) for the root at
    infinity.  Roots are searched in a fixed order so the result is
    deterministic; any rational root certifies a linear factor over Q.
    """
    a, b, c, d, e = _clear_denominators(f.coeffs())[0]
    f = BinaryQuartic(a, b, c, d, e)
    if f.is_zero():
        return (1, 0)
    if e == 0:
        return (0, 1)
    if a == 0:
        return (1, 0)
    for s in _divisors(a):
        for r0 in _divisors(e):
            for r in (r0, -r0):
                if gcd(r0, s) == 1 and f(r, s) == 0:
                    return (r, s)
    return None


def real_class_oracle(f):
    """The real class (4 - #real roots in P^1(R)) / 2 of a binary quartic
    with disc != 0, by Sturm's theorem on f(x, 1), plus the root [1:0]
    when a = 0: the slow reference for qpl.realgeom.real_class."""
    if disc_is_zero(f):
        raise DegenerateInput("resolvent has vanishing discriminant")
    chain = _sturm_chain(f.coeffs())
    at_plus = [_sgn(p[0]) for p in chain]
    at_minus = [_sgn(p[0]) * (-1) ** (len(p) - 1) for p in chain]
    n = _sign_changes(at_minus) - _sign_changes(at_plus) + (f.a == 0)
    return (4 - n) // 2


def resultant_oracle(f, g):
    """Res(f, g) of two integer coefficient lists (highest degree first,
    leading zeros dropped) as the determinant of their Sylvester matrix,
    by sympy: the slow reference for qpl.quartic.resultant."""
    f, g = list(f), list(g)
    while f and f[0] == 0:
        f = f[1:]
    while g and g[0] == 0:
        g = g[1:]
    if not f or not g:
        return 0
    m, n = len(f) - 1, len(g) - 1
    if m == 0 or n == 0:
        return f[0] ** n * g[0] ** m
    S = [[0] * (m + n) for _ in range(m + n)]
    for i in range(n):
        S[i][i:i + m + 1] = f
    for i in range(m):
        S[n + i][i:i + n + 1] = g
    return int(sympy.Matrix(S).det())


def is_minimal(A, B):
    """No prime p with p^4 | A and p^6 | B (A = B = 0 never reaches here)."""
    if A == 0:
        bound = iroot(abs(B), 6)
        return all(B % p ** 6 for p in range(2, bound + 1) if is_prime(p))
    bound = iroot(abs(A), 4)
    return not any(A % p ** 4 == 0 and B % p ** 6 == 0
                   for p in range(2, bound + 1) if is_prime(p))


def enumerate_curves_oracle(X, family=None):
    """Brute-force double loop over the (A, B) window with trial-division
    minimality; the oracle for the count of qpl.counting.enumerate_curves,
    only sensible for small X."""
    amax = 0
    while 108 * (amax + 1) ** 3 < 4 * X:
        amax += 1
    bmax = isqrt((4 * X - 1) // 729)
    m = 1 if family is None else family["modulus"]
    residues = {(0, 0)} if family is None else {tuple(r) for r in family["residues"]}
    return sum(1 for A in range(-amax, amax + 1) for B in range(-bmax, bmax + 1)
               if 4 * A ** 3 + 27 * B ** 2 != 0
               and (A % m, B % m) in residues and is_minimal(A, B))


def curve_points(E):
    """All points of E(F_p), with None as the point at infinity."""
    pts = [None]
    sqrts = {}
    for y in range(E.p):
        sqrts.setdefault(y * y % E.p, []).append(y)
    for x in range(E.p):
        rhs = (x * x * x + E.a * x + E.b) % E.p
        for y in sqrts.get(rhs, []):
            pts.append((x, y))
    return pts


def ec_add(P, Q, E):
    """The chord-and-tangent group law on E(F_p)."""
    p = E.p
    if P is None:
        return Q
    if Q is None:
        return P
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2 and (y1 + y2) % p == 0:
        return None
    if P == Q:
        lam = (3 * x1 * x1 + E.a) * pow(2 * y1, -1, p) % p
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (lam * lam - x1 - x2) % p
    y3 = (lam * (x1 - x3) - y1) % p
    return (x3, y3)


def ec_mul(k, P, E):
    R = None
    Q = P
    while k:
        if k & 1:
            R = ec_add(R, Q, E)
        Q = ec_add(Q, Q, E)
        k >>= 1
    return R


def four_torsion_oracle(E):
    """#E(F_p)[4] by listing E(F_p) and doubling each point twice: the
    slow reference for qpl.localfp.curve_four_torsion."""
    n = 0
    for P in curve_points(E):
        T2 = ec_add(P, P, E)
        if ec_add(T2, T2, E) is None:
            n += 1
    return n


_FOUR_TORSION_BY_ORDER = {1: 1, 2: 2, 3: 1, 4: 4, 5: 1, 6: 2, 7: 1}


def four_torsion_from_group_order(n):
    """#E(F_p)[4] from #E(F_p) when #E(F_p) <= 7.

    Orders up to 7 determine the group up to the ambiguity Z/4 vs
    (Z/2)^2 at n = 4, and both have all four elements killed by 4.
    """
    if n not in _FOUR_TORSION_BY_ORDER:
        raise QplError("group order %d does not determine 4-torsion without more data" % n)
    return _FOUR_TORSION_BY_ORDER[n]


def jacobian_four_torsion_oracle(pair, p):
    """#E(F_p)[4] for the Jacobian of the pair's quadric intersection,
    derived from the point count of the intersection itself (the curve is
    a torsor of its Jacobian, so over a finite field the counts agree).
    Only valid where Hasse forces the order to be <= 7, i.e. p = 3: the
    slow reference for qpl.localfp.jacobian_four_torsion at p = 3."""
    pts = fp_points_on_intersection(pair, p)
    if not all(s for _, s in pts):
        raise DegenerateInput("intersection is singular mod %d" % p)
    n = len(pts)
    if abs(n - (p + 1)) > 2 * p ** 0.5:
        raise QplError("point count %d violates the Hasse window at %d" % (n, p))
    return four_torsion_from_group_order(n)


def roots_mod_p_oracle(f, p):
    """qpl.quartic.roots_mod_p by trying every r < p: the multiplicity of
    [r:1] is the number of exact synthetic divisions of f(x, 1) by x - r,
    that of [1:0] the number of leading coefficients divisible by p."""
    cs = [c % p for c in f.coeffs()]
    lead = next(i for i, c in enumerate(cs) if c)
    roots = [((1, 0), lead)] if lead else []
    for r in range(p):
        g, mult = cs[lead:], 0
        while len(g) > 1:
            q = [g[0]]
            for c in g[1:]:
                q.append((q[-1] * r + c) % p)
            if q.pop():
                break
            g, mult = q, mult + 1
        if mult:
            roots.append(((r, 1), mult))
    return sorted(roots)


def in_Wp1_oracle(pair, p):
    """qpl.sieve.in_Wp1 one pair at a time: the discriminant at v and at
    its 20 bumps v + p e_t from one 21-row resolvent pass, then the finite
    differences (disc(v + p e_t) - disc(v)) / p in coordinate order."""
    coords = pair.coords
    rows = [list(coords)]
    for t in range(20):
        rows.append(list(coords))
        rows[-1][t] += p
    bound = max(map(abs, coords)) + p if pair.is_integral() else None
    d0, *bumped = scaled_discs(resolvent_coeffs(coord_columns(rows, bound)))
    if d0 != 0 and d0 % (p * p) != 0:
        return False, {"reason": "valuation", "direction": None}
    for name, d1 in zip(COORD_NAMES, bumped):
        step = d1 - d0
        if step % p:
            raise QplError("finite difference not divisible by p")
        if (step // p) % p:
            return False, {"reason": "derivative", "direction": name}
    return True, None


def sieve_scan_oracle(primes, samples, coeff_bound, seed):
    """The csv rows of qpl.sieve.sieve_scan, one sample at a time: the
    same draws, in_Wp1_oracle on each W_p hit, then verify_gamma_descent
    on each W_p^(2) hit."""
    rows = []
    for p in primes:
        rng = random.Random("%d:%d" % (seed, p))
        n_wp = n_wp1 = n_wp2 = n_ok = 0
        for _ in range(samples):
            pair = PairOfQuadrics([rng.randint(-coeff_bound, coeff_bound)
                                   for _ in range(20)])
            sd = invariants(pair).scaled_disc
            if sd == 0 or sd % (p * p):
                continue
            n_wp += 1
            if in_Wp1_oracle(pair, p)[0]:
                n_wp1 += 1
                continue
            n_wp2 += 1
            try:
                verify_gamma_descent(pair, p)
                n_ok += 1
            except QplError:
                pass
        rows.append([p, samples, n_wp, n_wp1, n_wp2, n_ok])
    return rows
