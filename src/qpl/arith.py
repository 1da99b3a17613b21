"""Shared exact-arithmetic helpers: generic determinants, resultants,
extended gcd, unimodular completion, mod-p linear algebra.

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


_PERMS = {n: [(p, _perm_sign(p)) for p in permutations(range(n))] for n in (2, 3, 4)}


def det_generic(M):
    """Determinant by permutation expansion; works over any commutative ring."""
    n = len(M)
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
    """Exact inverse over the rationals (entries become Fractions)."""
    n = len(M)
    A = [[Fraction(M[i][j]) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)]
         for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if A[r][col] != 0), None)
        if piv is None:
            raise QplError("matrix is singular")
        A[col], A[piv] = A[piv], A[col]
        pv = A[col][col]
        A[col] = [x / pv for x in A[col]]
        for r in range(n):
            if r != col and A[r][col] != 0:
                f = A[r][col]
                A[r] = [x - f * y for x, y in zip(A[r], A[col])]
    return [row[n:] for row in A]


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
    """p-adic valuation of a nonzero integer; raises on n = 0."""
    if n == 0:
        raise QplError("valuation of zero is undefined")
    v = 0
    n = abs(n)
    while n % p == 0:
        n //= p
        v += 1
    return v


def iroot(n, k):
    """Floor k-th root of n >= 0."""
    if n < 0:
        raise ValueError("iroot of negative")
    if n == 0:
        return 0
    r = round(n ** (1 / k)) + 1
    while r ** k > n:
        r -= 1
    while (r + 1) ** k <= n:     # guard against float under-estimates
        r += 1
    return r


def icbrt(n):
    """Floor cube root of n >= 0."""
    return iroot(n, 3)


def is_prime(n):
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def primes_upto(n):
    return [p for p in range(2, n + 1) if is_prime(p)]


def _exact_div(a, b):
    if isinstance(a, int) and isinstance(b, int):
        q, r = divmod(a, b)
        if r:
            raise ArithmeticError("inexact division in fraction-free elimination")
        return q
    return a / b


def det_bareiss(M):
    """Exact determinant via fraction-free (Bareiss) elimination.

    Over ints stays in ints; Fractions also fine.  Preferred over the
    permutation expansion for anything bigger than 4x4 (Sylvester matrices).
    """
    A = [list(row) for row in M]
    n = len(A)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if A[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if A[i][k] != 0), None)
            if piv is None:
                return A[0][0] * 0
            A[k], A[piv] = A[piv], A[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = _exact_div(A[i][j] * A[k][k] - A[i][k] * A[k][j], prev)
        prev = A[k][k]
    return sign * A[n - 1][n - 1]


def leading_principal_minors(M):
    """The leading principal minors of a square matrix, in order of size, from
    one fraction-free (Bareiss) elimination without pivoting.  Stops after
    the first zero minor, past which elimination without pivoting cannot go.
    """
    A = [list(row) for row in M]
    n = len(A)
    minors = []
    prev = 1
    for k in range(n):
        minors.append(A[k][k])  # after step k-1, A[k][k] is the (k+1)-th minor
        if A[k][k] == 0:
            break
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = _exact_div(A[i][j] * A[k][k] - A[i][k] * A[k][j], prev)
        prev = A[k][k]
    return minors


def resultant(f, g):
    """Resultant of two univariate polynomials, coefficient lists highest-first.

    Exact over ints/Fractions (Sylvester determinant).
    """
    f = list(f)
    g = list(g)
    while f and f[0] == 0:
        f = f[1:]
    while g and g[0] == 0:
        g = g[1:]
    if not f or not g:
        return 0
    m = len(f) - 1
    n = len(g) - 1
    if m == 0 and n == 0:
        return 1
    if m == 0:
        return f[0] ** n
    if n == 0:
        return g[0] ** m
    size = m + n
    S = [[0] * size for _ in range(size)]
    for i in range(n):
        for j, c in enumerate(f):
            S[i][i + j] = c
    for i in range(m):
        for j, c in enumerate(g):
            S[n + i][i + j] = c
    return det_bareiss(S)


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


def mat_inv_mod(M, p):
    """Inverse of a square matrix over F_p (entries in [0,p))."""
    n = len(M)
    A, pivots = _rref_mod_p([list(row) + [int(i == j) for j in range(n)]
                             for i, row in enumerate(M)], p)
    if pivots != list(range(n)):
        raise QplError("matrix not invertible mod %d" % p)
    return [row[n:] for row in A]
