"""Binary quartic forms f(x,y) = a x^4 + b x^3 y + c x^2 y^2 + d x y^3 + e y^4.

Invariants I, J, three independent routes to the discriminant, exact
rational root search, Sturm-based real root counts, and roots over F_p
with multiplicities.  Coefficients may live in any commutative ring for
the symbolic operations; the root-finding operations require exact
integers or rationals.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, lcm

from .arith import QplError, resultant


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


def disc(f):
    """Discriminant via the explicit degree-6 polynomial in the coefficients.

    Satisfies 27*disc = 4I^3 - J^2 (checked exhaustively in the tests); kept
    as an independent formula so the identity is a real crosscheck.
    """
    a, b, c, d, e = f.coeffs()
    return (256 * a**3 * e**3 - 192 * a**2 * b * d * e**2
            - 128 * a**2 * c**2 * e**2 + 144 * a**2 * c * d**2 * e
            - 27 * a**2 * d**4 + 144 * a * b**2 * c * e**2
            - 6 * a * b**2 * d**2 * e - 80 * a * b * c**2 * d * e
            + 18 * a * b * c * d**3 + 16 * a * c**4 * e
            - 4 * a * c**3 * d**2 - 27 * b**4 * e**2
            + 18 * b**3 * c * d * e - 4 * b**3 * d**3
            - 4 * b**2 * c**3 * e + b**2 * c**2 * d**2)


def disc_via_resultant(f):
    """Discriminant via Res(f(x,1), f'(x,1)) / a.

    When the x^4-coefficient vanishes the form is first moved by the
    unimodular substitution (x, y) -> (x, kx + y) (which leaves the
    discriminant unchanged) until it does not.
    """
    a, b, c, d, e = f.coeffs()
    if f.is_zero():
        return 0
    if a == 0:
        for k in range(5):
            if f(1, k) != 0:
                return disc_via_resultant(compose_row(f, [[1, k], [0, 1]]))
        raise AssertionError("nonzero quartic vanished at five points")
    F = [a, b, c, d, e]
    dF = [4 * a, 3 * b, 2 * c, d]
    res = resultant(F, dF)
    if isinstance(a, int) and isinstance(res, int):
        q, r = divmod(res, a)
        if r == 0:
            return q
    return res / a


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
    infinity.  Roots are searched in a fixed order so the result is
    deterministic; any rational root certifies a linear factor over Q.
    """
    coeffs = f.coeffs()
    if any(isinstance(c, Fraction) for c in coeffs):
        lcm = 1
        for c in coeffs:
            c = Fraction(c)
            lcm = lcm * c.denominator // gcd(lcm, c.denominator)
        f = BinaryQuartic(*(int(c * lcm) for c in coeffs))
    a, b, c, d, e = f.coeffs()
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


# ---------------------------------------------------------------------------
# real roots (Sturm chains of integer polynomials)


def _poly_trim(p):
    while p and p[0] == 0:
        p = p[1:]
    return p


def _poly_prem(f, g):
    """A positive multiple of the remainder of f by g (integer coefficient
    lists): each step scales f by |lc(g)| before cancelling its lead."""
    lc, s = abs(g[0]), _sgn(g[0])
    while len(f) >= len(g):
        q = f[0] * s
        f = _poly_trim([lc * a - q * b for a, b in zip(f[1:], g[1:])]
                       + [lc * a for a in f[len(g):]])
    return f


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
    f = _poly_trim([Fraction(c) for c in coeffs])
    den = lcm(*(c.denominator for c in f))
    f = _primitive([int(c * den) for c in f])
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


def real_root_count_poly(coeffs):
    """Number of distinct real roots of a squarefree polynomial (coeff list,
    highest degree first, exact rationals)."""
    chain = _sturm_chain(coeffs)
    at_plus = [_sgn(p[0]) for p in chain]
    at_minus = [_sgn(p[0]) * (-1) ** (len(p) - 1) for p in chain]
    return _sign_changes(at_minus) - _sign_changes(at_plus)


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


def real_projective_root_count(f):
    """Distinct real roots of the binary quartic in P^1(R); requires disc != 0."""
    n = real_root_count_poly(f.coeffs())
    if f.a == 0:
        n += 1  # the root at infinity [1:0]
    return n


def disc_is_zero(f):
    """Whether 4I^3 - J^2 (= 27 disc) vanishes."""
    I, J = quartic_invariants(f)
    return 4 * I ** 3 - J ** 2 == 0


@dataclass(frozen=True)
class QuarticClassification:
    real_class: object          # 0, 1, 2 conjugate pairs of complex roots; None if degenerate
    has_rational_linear_factor: bool
    disc_is_zero: bool


def real_classification(f):
    degenerate = disc_is_zero(f)
    has_root = rational_linear_factor(f) is not None
    if degenerate:
        return QuarticClassification(None, has_root, True)
    n_real = real_projective_root_count(f)
    return QuarticClassification((4 - n_real) // 2, has_root, False)


# ---------------------------------------------------------------------------
# roots over F_p


def _fp_trim(f):
    while f and f[0] == 0:
        f = f[1:]
    return f


def _fp_poly_divmod(f, g, p):
    """Quotient and remainder of coefficient lists (highest first) over F_p."""
    f = _fp_trim([c % p for c in f])
    g = _fp_trim([c % p for c in g])
    if not g:
        raise ZeroDivisionError("polynomial division by zero mod %d" % p)
    inv = pow(g[0], -1, p)
    q = [0] * max(0, len(f) - len(g) + 1)
    while len(f) >= len(g):
        lead = (f[0] * inv) % p
        q[len(q) - (len(f) - len(g)) - 1] = lead
        f = [(c - lead * gc) % p for c, gc in zip(f, g)] + f[len(g):]
        f = _fp_trim(f[1:])
    return _fp_trim(q), f


def fp_poly_gcd(f, g, p):
    f = _fp_trim([c % p for c in f])
    g = _fp_trim([c % p for c in g])
    while g:
        _, r = _fp_poly_divmod(f, g, p)
        f, g = g, r
    if f:
        inv = pow(f[0], -1, p)
        f = [(c * inv) % p for c in f]
    return f


def roots_mod_p(f, p):
    """Projective roots of f over F_p with multiplicities.

    Returns a sorted list of ((r, s), mult) with (r, s) normalized to
    s = 1 or (1, 0).  Raises if f vanishes identically mod p.
    """
    cs = [c % p for c in f.coeffs()]
    if all(c == 0 for c in cs):
        raise QplError("quartic vanishes identically mod %d" % p)
    roots = []
    # multiplicity of [1:0] = number of leading zero coefficients
    lead_zeros = 0
    for c in cs:
        if c == 0:
            lead_zeros += 1
        else:
            break
    if lead_zeros:
        roots.append(((1, 0), lead_zeros))
    poly = cs  # f(x, 1), highest degree first
    for r in range(p):
        if _fp_eval(poly, r, p) == 0:
            mult = 0
            g = poly
            while _fp_eval(g, r, p) == 0 and len(g) > 1:
                g, rem = _fp_poly_divmod(g, [1, (-r) % p], p)
                assert not rem
                mult += 1
            if mult:
                roots.append(((r, 1), mult))
    return sorted(roots)


def _fp_eval(poly, x, p):
    acc = 0
    for c in poly:
        acc = (acc * x + c) % p
    return acc


def repeated_factor_mod_p(f, p):
    """Structure of the repeated part of f mod p, via gcd(f, f').

    Returns None (squarefree), ("linear", [roots with mult >= 2]), or
    ("quadratic", gcd-coeffs) when the repeated factor is an irreducible
    quadratic over F_p.  Only meaningful for odd p.
    """
    cs = [c % p for c in f.coeffs()]
    if all(c == 0 for c in cs):
        raise QplError("quartic vanishes identically mod %d" % p)
    dcs = [(4 - i) * c % p for i, c in enumerate(cs[:-1])]
    g = fp_poly_gcd(cs, dcs, p)
    rep = [(root, m) for root, m in roots_mod_p(f, p) if m >= 2]
    if rep:
        return ("linear", rep)
    if len(g) - 1 >= 2:
        return ("quadratic", g)
    # Degree drop can hide a repeated root at infinity (mult of [1:0] >= 2 is
    # already covered by roots_mod_p); remaining case: gcd trivial.
    return None
