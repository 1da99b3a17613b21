"""Binary quartic forms f(x,y) = a x^4 + b x^3 y + c x^2 y^2 + d x y^3 + e y^4.

Invariants I, J, the discriminant as a resultant (27 disc = 4I^3 - J^2
gives a second route), rational roots (a sieve mod small primes, then an
exact search), Sturm isolation of real roots, and roots over F_p with
multiplicities.  Coefficients may live in any commutative ring for the
symbolic operations; resultants and root finding need exact rationals.
"""

from fractions import Fraction
from itertools import count
from math import comb, gcd, lcm, prod
from operator import index

import numpy as np

from .arith import QplError, is_prime


class BinaryQuartic:
    __slots__ = ("a", "b", "c", "d", "e")

    def __init__(self, a, b, c, d, e):
        self.a, self.b, self.c, self.d, self.e = (
            v.numerator if isinstance(v, Fraction) and v.denominator == 1 else v
            for v in (a, b, c, d, e))

    @classmethod
    def from_string(cls, text):
        parts = text.split()
        if len(parts) != 5:
            raise QplError("expected 5 coefficients, got %d" % len(parts))
        return cls(*(_parse_exact(t) for t in parts))

    def coeffs(self):
        return (self.a, self.b, self.c, self.d, self.e)

    def __call__(self, x, y):
        return (((self.a * x + self.b * y) * x + self.c * y * y) * x
                + self.d * y ** 3) * x + self.e * y ** 4

    def __eq__(self, other):
        return isinstance(other, BinaryQuartic) and self.coeffs() == other.coeffs()

    def __hash__(self):
        return hash(self.coeffs())

    def __repr__(self):
        return "BinaryQuartic%r" % (self.coeffs(),)

    def scale(self, lam):
        return BinaryQuartic(*(lam * c for c in self.coeffs()))

    def map_coeffs(self, fn):
        return BinaryQuartic(*(fn(c) for c in self.coeffs()))

    def reduce_mod(self, m):
        return self.map_coeffs(lambda c: c % m)

    def is_zero(self):
        return all(c == 0 for c in self.coeffs())


def _parse_exact(token):
    if "/" in token:
        return Fraction(token)
    return int(token)


def quartic_invariants(f):
    """The invariants (I, J): I = 12ae - 3bd + c^2 (degree 2, weight 4),
    J = 72ace + 9bcd - 27ad^2 - 27b^2e - 2c^3 (degree 3, weight 6)."""
    a, b, c, d, e = f.coeffs()
    I = 12 * a * e - 3 * b * d + c * c
    J = (72 * a * c * e + 9 * b * c * d - 27 * a * d * d
         - 27 * b * b * e - 2 * c ** 3)
    return I, J


def disc_via_resultant(f):
    """Discriminant via Res(f(x,1), f'(x,1)) / a for exact rationals, with
    Res(F, F') = D^7 Res(f, f') for the integral F = D f.

    When the x^4-coefficient vanishes the form is first moved by the
    unimodular substitution (x, y) -> (x, kx + y) (which leaves the
    discriminant unchanged) until it does not.
    """
    if f.is_zero():
        return 0
    if f.a == 0:
        for k in range(5):
            if f(1, k) != 0:
                return disc_via_resultant(compose_row(f, [[1, k], [0, 1]]))
        raise AssertionError("nonzero quartic vanished at five points")
    F, den = _clear_denominators(f.coeffs())
    res = resultant(F, [4 * F[0], 3 * F[1], 2 * F[2], F[3]])
    return res // F[0] if den == 1 else Fraction(res, den ** 6 * F[0])


def resultant(f, g):
    """Res(f, g) of integer polynomials (coefficient lists, highest degree
    first), by pseudo-remainders (H. Cohen, GTM 138, Sec. 3.3): for
    deg f = m >= deg g = n > 0 and r = _poly_prem(f, g) of degree d,
    Res(f, g) = (-1)^(mn) lc(g)^(m-d) |lc g|^(-(m-n+1)n) Res(g, r).  Each r
    is made primitive, and the |lc g| powers are divided out at the end."""
    f, g = _poly_trim(list(f)), _poly_trim(list(g))
    if not f or not g:
        return 0
    if len(f) < len(g):
        return (-1) ** ((len(f) - 1) * (len(g) - 1)) * resultant(g, f)
    num = den = 1
    while len(g) > 1:
        m, n = len(f) - 1, len(g) - 1
        r = _poly_prem(f, g)
        if not r:
            return 0
        c = gcd(*r)
        num *= (-1) ** (m * n) * g[0] ** (m - len(r) + 1) * c ** n
        den *= abs(g[0]) ** ((m - n + 1) * n)
        f, g = g, [a // c for a in r]
    return num * g[0] ** (len(f) - 1) // den


def _clear_denominators(coeffs):
    """(D * coeffs, D) for the least D >= 1 that makes the exact rationals
    coeffs integral; ints have denominator 1 and pass through with D = 1."""
    den = lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def compose_row(f, m):
    """f composed with the row action of the 2x2 matrix m = [[r,s],[t,u]]:
    returns g(x,y) = f(xr + yt, xs + yu)."""
    (r, s), (t, u) = m
    a, b, c, d, e = f.coeffs()
    # powers of the two linear forms rx + ty and sx + uy
    p1 = _lin_powers(r, t)
    p2 = _lin_powers(s, u)
    out = [a * 0] * 5
    for coef, i in ((a, 4), (b, 3), (c, 2), (d, 1), (e, 0)):
        prod = _conv(p1[i], p2[4 - i])
        for k in range(5):
            out[k] = out[k] + coef * prod[k]
    return BinaryQuartic(*out)


def _lin_powers(r, t):
    """(rx + ty)^k for k = 0..4 as coefficient lists [x^k, x^{k-1}y, ...]."""
    pows = [[r * 0 + 1]]
    for k in range(1, 5):
        pows.append([comb(k, j) * r ** (k - j) * t ** j for j in range(k + 1)])
    return pows


def _conv(u, v):
    out = [u[0] * v[0] * 0] * (len(u) + len(v) - 1)
    for i, x in enumerate(u):
        for j, y in enumerate(v):
            out[i + j] = out[i + j] + x * y
    return out


# ---------------------------------------------------------------------------
# rational roots


def _divisors(n):
    n = abs(n)
    small, big = [], []
    i = 1
    while i * i <= n:
        if n % i == 0:
            small.append(i)
            if i != n // i:
                big.append(n // i)
        i += 1
    return small + big[::-1]


def rational_linear_factor(f):
    """The projective rational root [r:s] of f, or None.

    Returned normalized: gcd(r,s) = 1, s > 0, or (1, 0) for the root at
    infinity.  The divisor search runs in a fixed order, and only when
    root_free_mask cannot certify f root-free.
    """
    F = _clear_denominators(f.coeffs())[0]
    return None if root_free_mask([[c] for c in F])[0] else _root_search(*F)


def _root_search(a, b, c, d, e):
    """rational_linear_factor of integer coefficients by trying divisors
    of a against divisors of e, with no sieve."""
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


# Odd primes of the local root sieve, in the order they are tried, and
# their product, which is below 2^63.  p = 2 certifies little: 2A x + 2B y
# is alternating mod 2, so a resolvent is the square of a Pfaffian mod 2
# and is root-free there only when that Pfaffian is x^2 + xy + y^2.
ROOT_SIEVE_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
_SIEVE_MODULUS = prod(ROOT_SIEVE_PRIMES)

# x^(4-i) mod p as a (5, p) table: coefficients (mod p) times it give
# f(x, 1) for x = 0..p-1, below 5 p^2 before the reduction.
_SIEVE_POWERS = {p: np.array([[pow(x, k, p) for x in range(p)] for k in range(4, -1, -1)],
                             dtype=np.int64)
                 for p in ROOT_SIEVE_PRIMES}


def root_free_mask(coeffs):
    """Which rows of integer coefficient columns (a, b, c, d, e) certainly
    give a binary quartic with no root in P^1(Q).

    A row is certified when, for some p in ROOT_SIEVE_PRIMES, f mod p has
    no root in P^1(F_p); f = 0 mod p counts as having the root [1:0].  A
    rational root [r:s] with gcd(r, s) = 1 reduces to a root of f mod p
    whenever f is nonzero mod p, so a certified row has none.  A row left
    uncertified may have one or not.  The coefficients are reduced mod the
    product of the primes first, so the work is in int64 whatever the
    dtype of the columns; other columns (plain lists) are read as exact ints.
    """
    F = np.stack([c if getattr(c, "dtype", None) in (np.int64, object)
                  else np.array(c, dtype=object) for c in coeffs])
    F = (F % _SIEVE_MODULUS).astype(np.int64)
    certified = np.zeros(F.shape[1], dtype=bool)
    todo = np.arange(F.shape[1])
    for p in ROOT_SIEVE_PRIMES:
        Fp = F[:, todo] % p
        free = (Fp[0] != 0) & (Fp.T @ _SIEVE_POWERS[p] % p).all(axis=1)
        certified[todo[free]] = True
        todo = todo[~free]
        if not len(todo):
            break
    return certified


# ---------------------------------------------------------------------------
# real root isolation (Sturm chains of integer polynomials)


def _poly_trim(p):
    while p and p[0] == 0:
        p = p[1:]
    return p


def _poly_prem(f, g):
    """|lc g|^(m-n+1) f - q g, a positive multiple of the remainder of f by
    g, for integer coefficient lists of degrees m >= n (f when m < n)."""
    lc, s = abs(g[0]), _sgn(g[0])
    for _ in range(len(f) - len(g) + 1):
        q = f[0] * s
        f = [lc * a - q * b for a, b in zip(f[1:], g[1:])] + [lc * a for a in f[len(g):]]
    return _poly_trim(f)


def _primitive(p):
    g = gcd(*p)
    return [c // g for c in p]


def _sign_changes(signs):
    signs = [s for s in signs if s != 0]
    return sum(1 for x, y in zip(signs, signs[1:]) if x * y < 0)


def _sgn(x):
    return (x > 0) - (x < 0)


def _sturm_chain(coeffs):
    """Sturm chain of a squarefree polynomial (coeff list, highest degree
    first, exact rationals).  Each member is a positive multiple of the
    classical one, scaled to a primitive integer polynomial."""
    f = _primitive(_clear_denominators(_poly_trim(list(coeffs)))[0])
    chain = [f, _primitive([c * (len(f) - 1 - i) for i, c in enumerate(f[:-1])])]
    while len(chain[-1]) > 1:
        chain.append(_primitive([-c for c in _poly_prem(chain[-2], chain[-1])]))
    return [p for p in chain if p]


def _hval(p, n, d):
    """d^deg(p) * p(n/d) for an integer polynomial: the sign of p(n/d) when d > 0."""
    acc, dk = p[0], d
    for c in p[1:]:
        acc = acc * n + c * dk
        dk *= d
    return acc


def real_root_separators(coeffs):
    """Rationals s_0 < r_1 < s_1 < ... < r_k < s_k interleaving the k distinct
    real roots r_i of a squarefree polynomial (coeff list, highest degree
    first, exact rationals).  No s_i is a root.

    Sturm bisection on dyadic points (n, d) = n/d from the Cauchy bound; a
    split point that is a root is moved towards the left end until it is not.
    """
    chain = _sturm_chain(coeffs)
    f = chain[0]

    def variations(pt):
        return _sign_changes([_sgn(_hval(p, *pt)) for p in chain])

    def midpoint(lo, hi):
        d = max(lo[1], hi[1])
        return (lo[0] * (d // lo[1]) + hi[0] * (d // hi[1]), 2 * d)

    def split(lo, hi, v_lo, v_hi):
        # v_lo - v_hi roots lie in (lo, hi); neither end is a root
        if v_lo - v_hi == 1:
            seps.append(hi)
        elif v_lo > v_hi:
            mid = midpoint(lo, hi)
            while _hval(f, *mid) == 0:
                mid = midpoint(lo, mid)
            v_mid = variations(mid)
            split(lo, mid, v_lo, v_mid)
            split(mid, hi, v_mid, v_hi)

    # Cauchy: every root has |r| < 1 + max |c_i / c_0|.
    bound = max((abs(c) for c in f[1:]), default=0) // abs(f[0]) + 2
    lo, hi = (-bound, 1), (bound, 1)
    seps = [lo]
    split(lo, hi, variations(lo), variations(hi))
    return [Fraction(n, d) for n, d in seps]


def disc_is_zero(f):
    """Whether 4I^3 - J^2 (= 27 disc) vanishes."""
    I, J = quartic_invariants(f)
    return 4 * I ** 3 - J ** 2 == 0


# ---------------------------------------------------------------------------
# roots over F_p


def _fp_poly_divmod(f, g, p):
    """Quotient and remainder of coefficient lists (highest first) over F_p.
    Both are reduced mod p and trimmed, and g is nonzero; so are the
    results."""
    n, m = len(f), len(g)
    if n < m:
        return [], f
    inv = pow(g[0], -1, p)
    r = list(f)
    q = []
    for i in range(n - m + 1):
        lead = r[i] * inv % p
        q.append(lead)
        if lead:
            for j in range(1, m):
                r[i + j] = (r[i + j] - lead * g[j]) % p
    return q, _poly_trim(r[n - m + 1:])


def fp_poly_gcd(f, g, p):
    f = _poly_trim([c % p for c in f])
    g = _poly_trim([c % p for c in g])
    while g:
        _, r = _fp_poly_divmod(f, g, p)
        f, g = g, r
    if f:
        inv = pow(f[0], -1, p)
        f = [(c * inv) % p for c in f]
    return f


def _fp_poly_powmod(u, n, m, p):
    """u^n mod the polynomial m over F_p, by repeated squaring; n >= 1.
    u and m are reduced mod p and trimmed, m nonzero."""
    def mulmod(v, w):
        if not (v and w):
            return []
        return _fp_poly_divmod(_poly_trim([c % p for c in _conv(v, w)]), m, p)[1]

    out = [1]
    while n:
        if n & 1:
            out = mulmod(out, u)
        u = mulmod(u, u)
        n >>= 1
    return out


def _fp_split_roots(g, p):
    """The roots of a monic product g of distinct linear factors over F_p.
    For odd p, gcd(g, (x + t)^((p-1)/2) - 1) keeps the roots r with r + t a
    nonzero square; t = 0, 1, ... runs to the first proper factor, which
    some t < p gives (Cantor-Zassenhaus, Math. Comp. 36, 1981)."""
    if len(g) <= 2:
        return [(-g[1]) % p] if len(g) == 2 else []
    if p == 2:  # g = x (x + 1)
        return [0, 1]
    for t in count():
        h = [0] + _fp_poly_powmod([1, t], (p - 1) // 2, g, p)
        h[-1] -= 1
        d = fp_poly_gcd(g, h, p)
        if 1 < len(d) < len(g):
            return (_fp_split_roots(d, p)
                    + _fp_split_roots(_fp_poly_divmod(g, d, p)[0], p))


def roots_mod_p(f, p):
    """Projective roots of f over F_p with multiplicities.

    Returns a sorted list of ((r, s), mult) with (r, s) normalized to
    s = 1 or (1, 0).  Raises unless p is prime, f is integral and nonzero
    mod p.  Affine roots split gcd(f(x, 1), x^p - x), in time polynomial in log p.
    """
    if not is_prime(p):
        raise QplError("need a prime, got %r" % (p,))
    try:
        poly = _poly_trim([index(c) % p for c in f.coeffs()])  # f(x, 1), highest first
    except TypeError:
        raise QplError("roots mod p need integer coefficients, got %r" % (f,)) from None
    if not poly:
        raise QplError("quartic vanishes identically mod %d" % p)
    # multiplicity of [1:0] = number of leading zero coefficients
    roots = [((1, 0), 5 - len(poly))] if len(poly) < 5 else []
    xp = [0, 0] + _fp_poly_powmod([1, 0], p, poly, p)
    xp[-2] -= 1  # x^p - x mod f(x, 1)
    for r in _fp_split_roots(fp_poly_gcd(poly, xp, p), p):
        q, rem, mult = poly, [], -1
        while not rem:
            (q, rem), mult = _fp_poly_divmod(q, [1, -r % p], p), mult + 1
        roots.append(((r, 1), mult))
    return sorted(roots)
