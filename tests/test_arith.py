import math
import random
import time
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, strategies as st

from qpl.arith import (MR_LIMIT, PreconditionError, QplError, complete_unimodular,
                       det_generic, ext_gcd, factorize, iroot, is_prime,
                       kernel_mod_p, mat_identity, mat_inv_exact, mat_mul,
                       valuation)
from qpl.quartic import resultant

from conftest import is_prime_oracle


def test_det_against_sympy():
    rng = random.Random(1)
    for _ in range(40):
        n = rng.choice((2, 3, 4))
        M = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        expected = int(sympy.Matrix(M).det())
        assert det_generic(M) == expected


def test_det_generic_sizes():
    assert det_generic([[5]]) == 5
    with pytest.raises(QplError, match="sizes 1 to 4"):
        det_generic([[int(i == j) for j in range(5)] for i in range(5)])


def test_det_fraction_entries():
    M = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), Fraction(2, 7)]]
    assert det_generic(M) == Fraction(1, 2) * Fraction(2, 7) - Fraction(1, 3) * Fraction(1, 5)


@given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
def test_ext_gcd(a, b):
    g, x, y = ext_gcd(a, b)
    assert a * x + b * y == g
    assert g >= 0
    if a or b:
        assert a % g == 0 and b % g == 0


@given(st.integers(0, 10**4000), st.integers(2, 12))
@example(10**4000, 4)
@example(10**4000 - 1, 4)
@example(2**4000 - 1, 12)
def test_iroot_floor(n, k):
    r = iroot(n, k)
    assert r ** k <= n < (r + 1) ** k


@given(st.integers(1, 10**9))
def test_factorize(n):
    factors = factorize(n)
    assert math.prod(p ** e for p, e in factors) == n
    assert all(is_prime(p) and e >= 1 for p, e in factors)
    assert [p for p, _ in factors] == sorted({p for p, _ in factors})


def test_icbrt_is_cube_root():
    assert iroot(0, 3) == 0
    assert iroot(26, 3) == 2
    assert iroot(27, 3) == 3
    assert iroot(999999999, 3) == 999


def test_valuation():
    assert valuation(48, 2) == 4
    assert valuation(-45, 3) == 2
    assert valuation(7, 5) == 0
    with pytest.raises(Exception):
        valuation(0, 3)


@pytest.mark.parametrize("p", [1, 0, -1])
def test_valuation_rejects_base_below_2(p):
    with pytest.raises(QplError, match="base p >= 2"):
        valuation(12, p)


def test_is_prime_small():
    assert [p for p in range(25) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19, 23]


def test_is_prime_matches_trial_division():
    assert [n for n in range(-3, 10 ** 5 + 1) if is_prime(n)] == \
        [n for n in range(-3, 10 ** 5 + 1) if is_prime_oracle(n)]


CARMICHAEL = (561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265,
              321197185, 5394826801, 232250619601, 9746347772161)

# the least strong pseudoprimes to the first 1, 2, 3, 4, 5, 6, 7, 9 and 12
# prime bases, each with its factorization
STRONG_PSEUDOPRIMES = (
    (2047, (23, 89)), (1373653, (829, 1657)), (25326001, (2251, 11251)),
    (3215031751, (151, 751, 28351)), (2152302898747, (6763, 10627, 29947)),
    (3474749660383, (1303, 16927, 157543)),
    (341550071728321, (10670053, 32010157)),
    (3825123056546413051, (149491, 747451, 34233211)),
    (318665857834031151167461, (399165290221, 798330580441)))


def test_is_prime_pseudoprimes():
    for n in CARMICHAEL:
        assert not is_prime(n) and not is_prime_oracle(n)
    for n, factors in STRONG_PSEUDOPRIMES:
        assert math.prod(factors) == n and all(map(sympy.isprime, factors))
        assert not is_prime(n)
        assert all(map(is_prime, factors))


def test_is_prime_large_is_fast_and_bounded():
    t0 = time.perf_counter()
    assert is_prime(10 ** 14 + 31)
    assert time.perf_counter() - t0 < 0.01
    assert is_prime(MR_LIMIT - 2) == sympy.isprime(MR_LIMIT - 2)
    with pytest.raises(QplError, match=str(MR_LIMIT)):
        is_prime(MR_LIMIT)


def test_mat_inv_exact_roundtrip():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.choice((2, 3, 4))
        M = [[Fraction(rng.randint(-6, 6)) for _ in range(n)] for _ in range(n)]
        if det_generic(M) == 0:
            continue
        inv = mat_inv_exact(M)
        assert mat_mul(M, inv) == mat_identity(n, one=Fraction(1), zero=Fraction(0))


@pytest.mark.parametrize("M", [
    [[1, 2], [2, 4]],
    [[1, 2, 3], [4, 5, 6], [7, 8, 9]],
    [[Fraction(1, 2), 1, 0, 0], [1, 2, 0, 0], [0, 0, 1, 1], [0, 0, 3, 3]],
], ids=["2x2", "3x3", "4x4-fractions"])
def test_mat_inv_exact_singular(M):
    with pytest.raises(QplError, match="singular"):
        mat_inv_exact(M)


@pytest.mark.parametrize("n", [1, 5])
def test_mat_inv_exact_sizes(n):
    with pytest.raises(QplError, match="sizes 2 to 4"):
        mat_inv_exact(mat_identity(n))


def test_resultant_sign_convention():
    # Res(f, g) = lc(f)^{deg g} * prod g(alpha) over the roots of f
    assert resultant([1, 0], [1, -1]) == -1          # Res(x, x-1) = g(0)
    assert resultant([1, -2], [1, -3]) == -1         # g(2) = 2 - 3
    assert resultant([1, -2], [1, -1]) == 1
    assert resultant([2, 0], [1, -1]) == -2          # lc 2, g(0) = -1


def test_resultant_against_sympy():
    # sympy may swap arguments internally, flipping the sign by (-1)^(mn);
    # compare up to that and pin equality when deg f >= deg g.
    rng = random.Random(9)
    x = sympy.Symbol("x")
    for _ in range(60):
        f = [rng.randint(-5, 5) for _ in range(rng.randint(2, 6))]
        g = [rng.randint(-5, 5) for _ in range(rng.randint(2, 6))]
        if f[0] == 0 or g[0] == 0:
            continue
        fs = sum(c * x ** (len(f) - 1 - i) for i, c in enumerate(f))
        gs = sum(c * x ** (len(g) - 1 - i) for i, c in enumerate(g))
        expected = int(sympy.resultant(fs, gs, x))
        got = resultant(f, g)
        assert abs(got) == abs(expected)
        if len(f) >= len(g):
            assert got == expected


def test_complete_unimodular_random_primitive():
    from math import gcd
    rng = random.Random(3)
    done = 0
    while done < 60:
        v = [rng.randint(-30, 30) for _ in range(4)]
        g = gcd(gcd(abs(v[0]), abs(v[1])), gcd(abs(v[2]), abs(v[3])))
        if g != 1:
            continue
        M = complete_unimodular(v)
        assert M[0] == v
        assert det_generic(M) == 1
        done += 1


def test_complete_unimodular_rejects_imprimitive():
    with pytest.raises(PreconditionError):
        complete_unimodular([2, 4, 6, 8])


def test_kernel_mod_p():
    # rank-3 matrix mod 5 with kernel spanned by (1, 2, 3, 4)
    rng = random.Random(8)
    v = [1, 2, 3, 4]
    rows = []
    while len(rows) < 3:
        r = [rng.randint(0, 4) for _ in range(4)]
        if sum(a * b for a, b in zip(r, v)) % 5 == 0:
            rows.append(r)
    M = rows + [[(rows[0][j] + rows[1][j]) % 5 for j in range(4)]]
    basis = kernel_mod_p(M, 5)
    if len(basis) == 1:        # rows may degenerate; only check the generic draw
        w = basis[0]
        k = next(i for i, x in enumerate(w) if x)
        scale = v[k] * pow(w[k], -1, 5) % 5
        assert [(scale * x) % 5 for x in w] == [x % 5 for x in v]
    for w in basis:
        for row in M:
            assert sum(a * b for a, b in zip(row, w)) % 5 == 0
