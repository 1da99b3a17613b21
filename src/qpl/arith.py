"""Shared exact-arithmetic helpers: determinants and inverses of small
matrices, extended gcd, unimodular completion, mod-p linear algebra.

Everything here is pure Python over ints / Fractions (and duck-types
through to any coefficient domain supporting +, -, *, ==).
"""

from fractions import Fraction
from itertools import permutations


class QplError(Exception):
    """Base class for domain errors raised by this package."""


class DegenerateInput(QplError):
    """Zero discriminant (or otherwise degenerate) input where nonzero is required."""


class PreconditionError(QplError):
    """Structured input fails a documented precondition."""


def _perm_sign(perm):
    inv = 0
    n = len(perm)
    for i in range(n):
        for j in range(i + 1, n):
            if perm[i] > perm[j]:
                inv += 1
    return -1 if inv % 2 else 1


_PERMS = {n: [(p, _perm_sign(p)) for p in permutations(range(n))] for n in (1, 2, 3, 4)}


def det_generic(M):
    """Determinant by permutation expansion (n <= 4); works over any commutative ring."""
    n = len(M)
    if n not in _PERMS:
        raise QplError("det_generic handles sizes 1 to 4, got %d" % n)
    total = None
    for perm, sign in _PERMS[n]:
        term = M[0][perm[0]]
        for i in range(1, n):
            term = term * M[i][perm[i]]
        if sign < 0:
            term = -term
        total = term if total is None else total + term
    return total


def mat_mul(A, B):
    n, m, k = len(A), len(B[0]), len(B)
    return [[sum(A[i][t] * B[t][j] for t in range(k)) for j in range(m)] for i in range(n)]


def mat_vec(A, v):
    return [sum(A[i][j] * v[j] for j in range(len(v))) for i in range(len(A))]


def mat_transpose(A):
    return [list(col) for col in zip(*A)]


def mat_identity(n, one=1, zero=0):
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def mat_eq(A, B):
    return all(A[i][j] == B[i][j] for i in range(len(A)) for j in range(len(A[0])))


def mat_inv_exact(M):
    """Exact inverse over the rationals (entries become Fractions): the
    adjugate over the determinant, for sizes 2 to 4."""
    n = len(M)
    if not 2 <= n <= 4:
        raise QplError("mat_inv_exact handles sizes 2 to 4, got %d" % n)
    d = det_generic(M)
    if d == 0:
        raise QplError("matrix is singular")
    def cofactor(i, j):
        minor = [[M[r][c] for c in range(n) if c != j] for r in range(n) if r != i]
        return (-1) ** (i + j) * det_generic(minor)
    return [[Fraction(cofactor(j, i)) / d for j in range(n)] for i in range(n)]


def ext_gcd(a, b):
    """(g, x, y) with a*x + b*y = g = gcd(a, b) >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def valuation(n, p):
    """p-adic valuation of a nonzero integer; raises on n = 0 or p < 2."""
    if p < 2:
        raise QplError("valuation needs a base p >= 2, got %r" % (p,))
    if n == 0:
        raise QplError("valuation of zero is undefined")
    v = 0
    n = abs(n)
    while n % p == 0:
        n //= p
        v += 1
    return v


def iroot(n, k):
    """Floor k-th root of n >= 0, by integer Newton iteration."""
    if n < 0:
        raise ValueError("iroot of negative")
    if n == 0:
        return 0
    r = 1 << -(-n.bit_length() // k)   # 2^ceil(bits/k), above the root
    while True:
        s = ((k - 1) * r + n // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


# Miller-Rabin on the prime bases 2..41 is exact below this bound, the
# least strong pseudoprime to all of them (Sorenson and Webster, "Strong
# pseudoprimes to twelve prime bases", Math. Comp. 86, 2017).
MR_LIMIT = 3317044064679887385961981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n):
    """Whether n is prime, by deterministic Miller-Rabin; n must be below
    MR_LIMIT (about 3.3 * 10^24), or QplError is raised."""
    if n >= MR_LIMIT:
        raise QplError("primality of %d is only decided below %d" % (n, MR_LIMIT))
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n):
    """Trial-division factorization of n >= 1 as [(p, e), ...], p increasing."""
    factors, p = [], 2
    while p * p <= n:
        if n % p == 0:
            e = valuation(n, p)
            factors.append((p, e))
            n //= p ** e
        p += 1 if p == 2 else 2
    if n > 1:
        factors.append((n, 1))
    return factors


def complete_unimodular(v):
    """A matrix in SL_4(Z) whose first row is the primitive vector v.

    Built from 2x2 gcd moves: U with v @ U = (1,0,0,0); the completion is
    U^{-1}, assembled from exact 2x2 inverses so everything stays integral.
    """
    v = [int(x) for x in v]
    if len(v) != 4:
        raise ValueError("need a length-4 vector")
    w = list(v)
    inv_moves = []  # 4x4 integer matrices composing to the completion
    # Collapse entries from the right: (.., w[i], w[i+1]) -> (.., g, 0).
    for i in (2, 1, 0):
        a, b = w[i], w[i + 1]
        if a == 0 and b == 0:
            continue
        g, x, y = ext_gcd(a, b)
        # 2x2: (a b) @ [[x, -b/g],[y, a/g]] = (g, 0), det = 1
        T = mat_identity(4)
        T[i][i], T[i][i + 1] = x, -b // g
        T[i + 1][i], T[i + 1][i + 1] = y, a // g
        Tinv = mat_identity(4)
        Tinv[i][i], Tinv[i][i + 1] = a // g, b // g
        Tinv[i + 1][i], Tinv[i + 1][i + 1] = -y, x
        w = mat_vec(mat_transpose(T), w)
        inv_moves.append(Tinv)
    if w != [1, 0, 0, 0]:
        raise PreconditionError("vector is not primitive: %r" % (v,))
    # v @ (T_a T_b T_c) = e1, so the matrix with first row v is the
    # product of the inverses in reverse order.
    comp = mat_identity(4)
    for Tinv in reversed(inv_moves):
        comp = mat_mul(comp, Tinv)
    assert comp[0] == v and det_generic(comp) == 1
    return comp


def _rref_mod_p(M, p):
    """Reduced row echelon form of M over F_p, and its pivot columns."""
    A = [[x % p for x in row] for row in M]
    n_rows, n_cols = len(A), len(A[0])
    pivots = []
    for c in range(n_cols):
        r = len(pivots)
        if r == n_rows:
            break
        piv = next((i for i in range(r, n_rows) if A[i][c]), None)
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        inv = pow(A[r][c], -1, p)
        A[r] = [(x * inv) % p for x in A[r]]
        for i in range(n_rows):
            if i != r and A[i][c]:
                f = A[i][c]
                A[i] = [(x - f * y) % p for x, y in zip(A[i], A[r])]
        pivots.append(c)
    return A, pivots


def kernel_mod_p(M, p):
    """Basis of the right kernel of a matrix over F_p (lists of ints in [0,p))."""
    A, pivots = _rref_mod_p(M, p)
    n_cols = len(A[0])
    basis = []
    for fc in range(n_cols):
        if fc in pivots:
            continue
        vec = [0] * n_cols
        vec[fc] = 1
        for i, pc in enumerate(pivots):
            vec[pc] = (-A[i][fc]) % p
        basis.append(vec)
    return basis
