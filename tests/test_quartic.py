import random
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from qpl.arith import MR_LIMIT, DegenerateInput, QplError, is_prime
from qpl.forms import coord_columns, resolvent_coeffs
from qpl.quartic import (BinaryQuartic, compose_row, disc_is_zero,
                         disc_via_resultant, fp_poly_gcd, quartic_invariants,
                         rational_linear_factor, resultant, root_free_mask,
                         roots_mod_p)
from qpl.realgeom import real_class

from conftest import (disc, rational_root_oracle, real_class_oracle, resultant_oracle,
                      roots_mod_p_oracle)

X, Y = sympy.symbols("x y")


def _to_sympy(f):
    a, b, c, d, e = f.coeffs()
    return a * X ** 4 + b * X ** 3 * Y + c * X ** 2 * Y ** 2 + d * X * Y ** 3 + e * Y ** 4


def test_invariants_fixture():
    # 16 x y (x^2 - y^2) has (I, J) = (768, 0)
    f = BinaryQuartic(0, 16, 0, -16, 0)
    assert quartic_invariants(f) == (768, 0)


def test_disc_fixtures():
    assert disc(BinaryQuartic(1, 0, 0, 0, 1)) == 256
    # (x - y) x y (x + y): distinct roots, disc = prod of squared differences
    f = BinaryQuartic(0, 1, 0, -1, 0)
    assert disc(f) != 0
    # double root: x^2 (x - y)(x + y)
    assert disc(BinaryQuartic(1, 0, -1, 0, 0)) == 0


def test_disc_routes_agree():
    rng = random.Random(11)
    for _ in range(300):
        f = BinaryQuartic(*(rng.randint(-8, 8) for _ in range(5)))
        assert disc(f) == disc_via_resultant(f)


@pytest.mark.parametrize("coeffs, expected", [
    ((Fraction(1, 2), 0, Fraction(-3, 4), 0, 1), Fraction(529, 32)),
    ((0, Fraction(1, 3), 0, 1, Fraction(2, 5)), Fraction(-136, 675)),   # a = 0
])
def test_disc_via_resultant_fractions(coeffs, expected):
    f = BinaryQuartic(*coeffs)
    assert disc_via_resultant(f) == disc(f) == expected


_BIG = st.one_of(st.integers(-10, 10), st.integers(-10 ** 40, 10 ** 40))
_POLY = st.lists(_BIG, min_size=0, max_size=7)   # degrees up to 6, leading zeros allowed


def _times_linear(cofactor, r, s):
    """(s x - r) times the cofactor: a polynomial with the root r/s."""
    out = [0] * (len(cofactor) + 1)
    for i, c in enumerate(cofactor):
        out[i] += s * c
        out[i + 1] -= r * c
    return out


@settings(max_examples=150, deadline=None)
@given(_POLY, _POLY, st.booleans(), st.integers(-10 ** 20, 10 ** 20),
       st.integers(1, 10 ** 20))
@example([0, 0, 1, -2], [0, 1, -2], False, 0, 1)
@example([0, 0], [1, 2], False, 0, 1)
@example([3], [0, 0, 5], False, 0, 1)
@example([2, 0, 1], [-7], False, 0, 1)
def test_resultant_matches_sylvester_oracle(f, g, common_root, r, s):
    if common_root:
        f, g = _times_linear(f[:5], r, s), _times_linear(g[:5], r, s)
        assert resultant(f, g) == 0
    assert resultant(f, g) == resultant_oracle(f, g)


def test_disc_against_sympy():
    rng = random.Random(12)
    for _ in range(60):
        f = BinaryQuartic(*(rng.randint(-6, 6) for _ in range(5)))
        expected = sympy.discriminant(_to_sympy(f).subs(Y, 1), X)
        if f.a != 0:
            assert disc(f) == int(expected)


def test_invariant_syzygy():
    # 27 * disc = 4 I^3 - J^2
    rng = random.Random(13)
    for _ in range(200):
        f = BinaryQuartic(*(rng.randint(-7, 7) for _ in range(5)))
        I, J = quartic_invariants(f)
        assert 4 * I ** 3 - J ** 2 == 27 * disc(f)


def test_compose_row_against_sympy():
    rng = random.Random(14)
    for _ in range(50):
        f = BinaryQuartic(*(rng.randint(-5, 5) for _ in range(5)))
        m = [[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)]
        g = compose_row(f, m)
        fs = _to_sympy(f)
        r, s, t, u = m[0][0], m[0][1], m[1][0], m[1][1]
        expected = sympy.expand(fs.subs({X: r * X + t * Y, Y: s * X + u * Y},
                                        simultaneous=True))
        assert sympy.expand(_to_sympy(g) - expected) == 0


def test_compose_row_multiplicative():
    rng = random.Random(15)
    from qpl.arith import mat_mul
    for _ in range(40):
        f = BinaryQuartic(*(rng.randint(-4, 4) for _ in range(5)))
        m1 = [[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)]
        m2 = [[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)]
        assert compose_row(compose_row(f, m1), m2) == compose_row(f, mat_mul(m2, m1))


def test_rational_linear_factor_fixture():
    # (x - 3y)(x^3 + x y^2 + y^3) has the rational root (3, 1)
    x, y = X, Y
    expr = sympy.expand((x - 3 * y) * (x ** 3 + x * y ** 2 + y ** 3))
    coeffs = [int(expr.coeff(x, 4 - i).coeff(y, i)) for i in range(5)]
    f = BinaryQuartic(*coeffs)
    root = rational_linear_factor(f)
    assert root == (3, 1)
    assert f(3, 1) == 0


def test_rational_linear_factor_infinity_and_zero():
    assert rational_linear_factor(BinaryQuartic(0, 1, 1, 1, 1)) == (1, 0)
    assert rational_linear_factor(BinaryQuartic(1, 1, 1, 1, 0)) == (0, 1)
    # x^4 + y^4 has no rational root
    assert rational_linear_factor(BinaryQuartic(1, 0, 0, 0, 1)) is None


def test_rational_linear_factor_fraction_coeffs():
    # scale-invariance of the root set
    f = BinaryQuartic(Fraction(1, 2), Fraction(-3, 2), 0, 0, Fraction(1))
    g = f.scale(2)
    assert rational_linear_factor(f) == rational_linear_factor(g)


def test_real_root_counts():
    # (x^2+y^2)(x^2+4y^2): no real roots -> 2 conjugate pairs
    assert 4 - 2 * real_class(BinaryQuartic(1, 0, 5, 0, 4)) == 0
    # x y (x^2 + y^2): two real, one pair
    assert 4 - 2 * real_class(BinaryQuartic(0, 1, 0, 1, 0)) == 2
    # (x+y)(x+2y)(x+3y)(x+4y): all real
    assert 4 - 2 * real_class(BinaryQuartic(1, 10, 35, 50, 24)) == 4


def test_real_root_counts_against_numpy():
    import numpy as np
    rng = random.Random(16)
    checked = 0
    while checked < 150:
        f = BinaryQuartic(*(rng.randint(-6, 6) for _ in range(5)))
        if disc(f) == 0:
            continue
        roots = np.roots([float(c) for c in f.coeffs()])
        n_real = sum(1 for r in roots if abs(r.imag) < 1e-7)
        want = n_real + (1 if f.a == 0 else 0)    # point at infinity
        assert 4 - 2 * real_class(f) == want, f
        checked += 1


_BIG = st.integers(-10 ** 40, 10 ** 40)
_SMALL = st.integers(-6, 6)
_ROOT_COORD = st.integers(-10 ** 10, 10 ** 10)


def _real_rooted(roots):
    """The binary quartic with the real projective roots [r:s] (r, s from
    the list), as the product of the four linear forms s x - r y."""
    f = [1]
    for r, s in roots:
        f = [s * u - r * v for u, v in zip(f + [0], [0] + f)]
    return BinaryQuartic(*f)


@settings(max_examples=120, deadline=None)
@given(st.one_of(
    st.lists(st.one_of(_SMALL, _BIG), min_size=5, max_size=5),
    st.tuples(st.just(0), _BIG, _BIG, _BIG, _BIG).map(list),
    st.tuples(_BIG, _BIG, _BIG, _BIG, st.just(0)).map(list),
    st.lists(st.fractions(-10 ** 6, 10 ** 6, max_denominator=10 ** 6),
             min_size=5, max_size=5),
    st.lists(st.tuples(_ROOT_COORD, st.one_of(st.just(0), _ROOT_COORD)),
             min_size=4, max_size=4)
    .map(lambda roots: _real_rooted(roots).coeffs()),
))
@example([0, 1, 0, -1, 0])             # xy(x - y)(x + y): a = 0, four real
@example([1, 0, 0, 0, 1])             # x^4 + y^4: none real
@example([1, 10, 35, 50, 24])         # four real, a != 0
def test_real_class_closed_form_matches_sturm(coeffs):
    f = BinaryQuartic(*coeffs)
    if disc_is_zero(f):
        with pytest.raises(DegenerateInput):
            real_class(f)
    else:
        assert real_class(f) == real_class_oracle(f)


def test_real_classification_degenerate_flag():
    f = BinaryQuartic(1, 0, -1, 0, 0)  # x^2 (x - y)(x + y)
    assert disc_is_zero(f)
    with pytest.raises(DegenerateInput):
        real_class(f)
    f2 = BinaryQuartic(1, 0, 0, 0, 1)
    assert not disc_is_zero(f2) and real_class(f2) == 2


def test_roots_mod_p_brute_force():
    rng = random.Random(17)
    for p in (3, 5, 7):
        for _ in range(40):
            f = BinaryQuartic(*(rng.randint(0, p - 1) for _ in range(5)))
            if all(c % p == 0 for c in f.coeffs()):
                continue
            got = {root for root, _ in roots_mod_p(f, p)}
            want = set()
            for r in range(p):
                if f(r, 1) % p == 0:
                    want.add((r, 1))
            if f.a % p == 0:
                want.add((1, 0))
            assert got == want


def test_roots_mod_p_multiplicities():
    # (x - y)^2 (x - 2y) x mod 7
    expr = sympy.expand((X - Y) ** 2 * (X - 2 * Y) * X)
    f = BinaryQuartic(*(int(expr.coeff(X, 4 - i).coeff(Y, i)) for i in range(5)))
    roots = dict(roots_mod_p(f, 7))
    assert roots == {(0, 1): 1, (1, 1): 2, (2, 1): 1}


def test_roots_mod_p_at_infinity_multiplicity():
    # y^2 (x^2 + ...) with leading zeros: [1:0] has multiplicity 2 when a = b = 0
    f = BinaryQuartic(0, 0, 1, 1, 1)
    roots = dict(roots_mod_p(f, 5))
    assert roots[(1, 0)] == 2


def _expand(expr):
    expr = sympy.expand(expr)
    return BinaryQuartic(*(int(expr.coeff(X, 4 - i).coeff(Y, i)) for i in range(5)))


@pytest.mark.parametrize("f, p, roots", [
    # a linear double factor and two simple ones
    (_expand((X - Y) ** 2 * (X + Y) * (X - 3 * Y)), 7, [((1, 1), 2), ((3, 1), 1), ((6, 1), 1)]),
    # squarefree with no root: x^4 is 0 or 1 on F_5
    (BinaryQuartic(1, 0, 0, 0, 1), 5, []),
    # the square of x^2 + y^2, irreducible over F_3
    (BinaryQuartic(1, 0, 2, 0, 1), 3, []),
    # x^3 (x + y) over F_2, where (p - 1)/2 = 0 splits nothing
    (BinaryQuartic(1, 1, 0, 0, 0), 2, [((0, 1), 3), ((1, 1), 1)]),
    # f(x, 1) = 3 x^4 divides x^p: x^p mod f(x, 1) is 0
    (BinaryQuartic(3, 0, 0, 0, 0), 7, [((0, 1), 4)]),
    # x^2 (x - y)(x + y): every point of P^1(F_3) but [1:0]
    (BinaryQuartic(1, 0, -1, 0, 0), 3, [((0, 1), 2), ((1, 1), 1), ((2, 1), 1)]),
    # 4 y^4: f(x, 1) is a nonzero constant
    (BinaryQuartic(0, 0, 0, 0, 4), 3, [((1, 0), 4)]),
], ids=["linear-double", "squarefree", "irreducible-square", "p2", "zero-remainder",
        "all-affine-points", "infinity-only"])
def test_roots_mod_p_known_roots(f, p, roots):
    assert roots_mod_p(f, p) == roots == roots_mod_p_oracle(f, p)


@pytest.mark.parametrize("p", [4, 9, 1, 0, -7])
def test_roots_mod_p_rejects_non_prime(p):
    with pytest.raises(QplError, match="need a prime"):
        roots_mod_p(BinaryQuartic(1, 0, 0, 0, 1), p)


def test_roots_mod_p_rejects_non_integral():
    with pytest.raises(QplError, match="integer coefficients"):
        roots_mod_p(BinaryQuartic(Fraction(1, 2), 0, 0, 0, Fraction(-1, 2)), 5)
    with pytest.raises(QplError, match="integer coefficients"):
        roots_mod_p(BinaryQuartic(1.0, 0, 0, 0, 1), 5)
    # integral Fractions become ints, and numpy integers are integers
    assert roots_mod_p(BinaryQuartic(Fraction(4, 2), 0, 0, 0, -2), 5) == \
        roots_mod_p(BinaryQuartic(*(np.int64(c) for c in (2, 0, 0, 0, -2))), 5) == \
        [((1, 1), 1), ((2, 1), 1), ((3, 1), 1), ((4, 1), 1)]


_PRIMES = [p for p in range(2, 10 ** 4) if is_prime(p)]
_BIG = st.integers(-10 ** 30, 10 ** 30)


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.sampled_from((2, 3)), st.sampled_from(_PRIMES)),
       st.lists(st.one_of(st.integers(-3, 3), _BIG), min_size=5, max_size=5))
def test_roots_mod_p_matches_oracle(p, cs):
    f = BinaryQuartic(*cs)
    if all(c % p == 0 for c in cs):
        with pytest.raises(QplError, match="vanishes identically"):
            roots_mod_p(f, p)
    else:
        assert roots_mod_p(f, p) == roots_mod_p_oracle(f, p)


# the largest prime below MR_LIMIT, the bound of is_prime
_PRIME_BELOW_MR_LIMIT = MR_LIMIT - 168


def _non_residue(p):
    return next(n for n in range(2, p) if pow(n, (p - 1) // 2, p) == p - 1)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((10 ** 12 + 39, 10 ** 18 + 3, _PRIME_BELOW_MR_LIMIT)), st.data())
def test_roots_mod_p_of_chosen_roots_at_large_p(p, data):
    """A quartic built from chosen roots in P^1(F_p), repeated by drawing
    four of at most four, and optionally an irreducible quadratic factor
    in place of the last two, returns exactly those roots."""
    assert is_prime(p)
    root = st.one_of(st.just((1, 0)), st.tuples(st.integers(0, p - 1), st.just(1)))
    pool = data.draw(st.lists(root, min_size=1, max_size=4))
    chosen = [pool[i % len(pool)] for i in data.draw(
        st.lists(st.integers(0, 3), min_size=4, max_size=4))]
    factors = [[s, -r] for r, s in chosen]
    if data.draw(st.booleans()):
        chosen, factors = chosen[:2], factors[:2] + [[1, 0, -_non_residue(p)]]
    poly = [data.draw(st.integers(1, p - 1))]
    for u in factors:
        poly = [sum(poly[i] * u[k - i] for i in range(len(poly)) if 0 <= k - i < len(u))
                for k in range(len(poly) + len(u) - 1)]
    lift = data.draw(st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=5, max_size=5))
    f = BinaryQuartic(*(c + p * t for c, t in zip(poly, lift)))
    assert roots_mod_p(f, p) == sorted((r, chosen.count(r)) for r in set(chosen))


def test_fp_poly_gcd():
    # gcd((x-1)^2(x-2), (x-1)(x-3)) = x - 1 over F_7
    a = sympy.Poly((X - 1) ** 2 * (X - 2), X).all_coeffs()
    b = sympy.Poly((X - 1) * (X - 3), X).all_coeffs()
    g = fp_poly_gcd([int(c) % 7 for c in a], [int(c) % 7 for c in b], 7)
    assert [int(c) % 7 for c in g] == [1, 6]   # x - 1 = x + 6


# -- the local root sieve ---------------------------------------------------

_R = st.integers(-10 ** 6, 10 ** 6)
_ROOT = st.one_of(st.tuples(st.just(0), _R), st.tuples(_R, st.just(0)), st.tuples(_R, _R))


def _with_root(r, s, g):
    """(s x - r y) g(x, y) for the binary cubic g = (g0, g1, g2, g3)."""
    g0, g1, g2, g3 = g
    return (s * g0, s * g1 - r * g0, s * g2 - r * g1, s * g3 - r * g2, -r * g3)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(_ROOT, st.lists(_R, min_size=4, max_size=4)),
                min_size=1, max_size=12))
@example([((0, 1), [1, 0, 0, 1]), ((1, 0), [1, 0, 0, 1]), ((0, 0), [1, 2, 3, 4])])
def test_root_free_mask_never_certifies_a_root(cases):
    rows = [_with_root(r, s, g) for (r, s), g in cases]
    for dtype in (np.int64, object):
        cols = [np.array(col, dtype=dtype) for col in zip(*rows)]
        assert not root_free_mask(cols).any()


def test_root_free_mask_certifies_most_resolvents():
    rng = random.Random(8)
    rows = [[rng.randint(-5, 5) for _ in range(20)] for _ in range(256)]
    coeffs = resolvent_coeffs(coord_columns(rows, 5))
    mask = root_free_mask(coeffs)
    for i in np.flatnonzero(mask):
        f = BinaryQuartic(*(int(c[i]) for c in coeffs))
        assert rational_root_oracle(f) is None
    assert mask.sum() > 240
    # x^4 + y^4 has no root mod 3
    assert root_free_mask([np.array([1]), *[np.array([0])] * 3, np.array([1])]).all()


def test_root_free_mask_reads_plain_ints_exactly():
    # [1:1] is a root; as plain lists numpy would read the column of
    # a >= 2^63 as uint64 and the negative ones as int64, and stack both
    # as float64
    row = [9223372135806584605, -4611687032497775756, -4611685103308808839, -51, 41]
    assert BinaryQuartic(*row)(1, 1) == 0
    assert not root_free_mask([[c] for c in row]).any()


_ROOT_SMALL = st.integers(-60, 60)


@settings(max_examples=60, deadline=None)
@given(st.one_of(
    st.lists(_ROOT_SMALL, min_size=5, max_size=5),
    st.tuples(st.tuples(_ROOT_SMALL, _ROOT_SMALL),
              st.lists(_ROOT_SMALL, min_size=4, max_size=4))
    .map(lambda t: _with_root(*t[0], t[1])),
))
def test_rational_linear_factor_matches_divisor_search(coeffs):
    f = BinaryQuartic(*coeffs)
    assert rational_linear_factor(f) == rational_root_oracle(f)
