"""Selmer shape bookkeeping and the exact extremal linear program,
cross-checked against a floating-point solver."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from qpl.arith import QplError
from qpl.selmer import (SelmerShape, extremal_bound, pointwise_inequality,
                        solve_equality_lp)


# -- shapes -----------------------------------------------------------------


@given(st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=10))
def test_size_identity(a, b):
    s = SelmerShape(a, b)
    assert s.size_s4 == 4 ** a * 2 ** b
    assert s.size_s2 == 2 ** (a + b)
    assert s.check_size_identity()


def test_shape_rejects_negative():
    with pytest.raises(QplError):
        SelmerShape(-1, 0)


def test_pointwise_inequality():
    for a in range(0, 21):
        lhs, rhs = pointwise_inequality(a)
        assert lhs <= rhs
        assert (lhs == rhs) == (a in (1, 2))


# -- the simplex core -------------------------------------------------------


def test_lp_simple_optimal():
    # min x1 + x2 with x1 + x2 = 1: optimum 1, any split
    res = solve_equality_lp([[1, 1]], [1], [1, 1])
    assert res.status == "optimal" and res.optimum == 1
    assert sum(res.x) == 1


def test_lp_unbalanced_rows():
    # min x2 s.t. x1 - x2 = -2 (negative rhs gets normalized internally)
    res = solve_equality_lp([[1, -1]], [-2], [0, 1])
    assert res.status == "optimal" and res.optimum == 2


def test_lp_infeasible_farkas():
    # x1 + x2 = -1 with x >= 0 is infeasible
    res = solve_equality_lp([[1, 1]], [-1], [0, 0])
    assert res.status == "infeasible"
    assert res.farkas is not None


def test_lp_against_scipy():
    from scipy.optimize import linprog
    rng = random.Random(0)
    agreements = 0
    for _ in range(40):
        m, n = rng.randint(1, 3), rng.randint(2, 5)
        A = [[Fraction(rng.randint(-4, 4)) for _ in range(n)] for _ in range(m)]
        b = [Fraction(rng.randint(-4, 4)) for _ in range(m)]
        c = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
        ref = linprog([float(v) for v in c],
                      A_eq=[[float(v) for v in row] for row in A],
                      b_eq=[float(v) for v in b],
                      bounds=[(0, None)] * n, method="highs")
        if ref.status == 3:       # unbounded: our solver raises instead
            with pytest.raises(QplError):
                solve_equality_lp(A, b, c)
            continue
        res = solve_equality_lp(A, b, c)
        if ref.status == 2:
            assert res.status == "infeasible"
        else:
            assert res.status == "optimal"
            assert abs(float(res.optimum) - ref.fun) < 1e-7
        agreements += 1
    assert agreements >= 20


def test_lp_certificates_are_exact():
    A = [[Fraction(1), Fraction(2), Fraction(0)],
         [Fraction(0), Fraction(1), Fraction(3)]]
    b = [Fraction(4), Fraction(6)]
    c = [Fraction(1), Fraction(1), Fraction(1)]
    res = solve_equality_lp(A, b, c)
    assert res.status == "optimal"
    # dual feasibility and strong duality, re-checked here exactly
    for j in range(3):
        assert sum(A[i][j] * res.dual[i] for i in range(2)) <= c[j]
    assert sum(b[i] * res.dual[i] for i in range(2)) == res.optimum


# -- the extremal bound -----------------------------------------------------


def test_extremal_bound_headline():
    res = extremal_bound(3, 4)
    assert res.status == "optimal"
    assert res.optimum == Fraction(3, 5)
    assert res.distribution == {(1, 0): Fraction(1, 2),
                                (1, 1): Fraction(3, 10),
                                (2, 0): Fraction(1, 5)}
    assert res.dual == [Fraction(-8, 5), Fraction(1), Fraction(-1, 5)]


def test_extremal_bound_no_order4_mass():
    res = extremal_bound(3, 0)
    assert res.status == "optimal"
    assert res.optimum == 2
    # E[2^{a+b}] = 3 with no 4-part forces E[2^a] = 1, i.e. mass on a = 0
    assert all(a == 0 for a, _ in res.distribution)


def test_extremal_bound_infeasible():
    # E[2^{a+b}] = 1 forces the point mass on (0, 0), where 4^a - 2^a = 0
    res = extremal_bound(1, 4)
    assert res.status == "infeasible"
    assert res.farkas is not None


def test_extremal_bound_cap_stability():
    want = Fraction(3, 5)
    for caps in ((2, 1), (3, 3), (6, 10), (7, 11)):
        assert extremal_bound(3, 4, caps=caps).optimum == want


def test_extremal_distribution_moments():
    res = extremal_bound(3, 4)
    dist = res.distribution
    assert sum(dist.values()) == 1
    assert sum(q * 2 ** (a + b) for (a, b), q in dist.items()) == 3
    assert sum(q * (4 ** a - 2 ** a) for (a, b), q in dist.items()) == 4
    assert sum(q * (2 ** (a + b) - 2 ** a) for (a, b), q in dist.items()) == \
        res.optimum


def test_lp_result_json():
    d = extremal_bound(3, 4).to_json_dict()
    assert d["status"] == "optimal"
    assert d["optimum"] == "3/5"
    assert abs(d["optimum_float"] - 0.6) < 1e-12
    assert d["distribution"]["(1,0)"] == "1/2"
