"""Real classification and solubility over the reals, cross-checked
against an exact feasibility oracle."""

import random
from fractions import Fraction

import pytest
import sympy

from qpl import PairOfQuadrics, act, GroupElement, invariants, resolvent_quartic
from qpl.arith import DegenerateInput, PreconditionError
from qpl.quartic import BinaryQuartic
from qpl.realgeom import _is_definite, is_R_soluble, real_class, representative_L
from qpl.selmer import solve_equality_lp

from conftest import random_unimodular4


# -- real class -------------------------------------------------------------


def test_real_class_fixtures():
    assert real_class(BinaryQuartic(1, 0, 0, 0, -1)) == 1   # x^4 - y^4
    assert real_class(BinaryQuartic(1, 0, 0, 0, 1)) == 2    # x^4 + y^4
    assert real_class(BinaryQuartic(0, 1, 0, -1, 0)) == 0   # xy(x-y)(x+y)
    assert real_class(BinaryQuartic(1, 0, 1, 0, -2)) == 1   # (x^2+2y^2)(x^2-y^2)


def test_real_class_degenerate_raises():
    with pytest.raises(DegenerateInput):
        real_class(BinaryQuartic(1, 2, 1, 0, 0))  # (x^2 + xy)^2


def test_real_class_of_pairs():
    diag = PairOfQuadrics.from_named(a11=1, a22=1, a33=1, a44=1,
                                     b11=1, b22=2, b33=3, b44=4)
    assert real_class(diag) == 0


def test_real_class_invariant_under_congruence():
    rng = random.Random(0)
    diag = PairOfQuadrics.from_named(a11=1, a22=1, a33=1, a44=1,
                                     b11=1, b22=2, b33=3, b44=4)
    for _ in range(10):
        g = GroupElement.from_g4(random_unimodular4(rng))
        assert real_class(act(g, diag)) == 0


# -- representatives --------------------------------------------------------


def test_representatives_hit_their_classes():
    assert real_class(representative_L("0#", (2, 3, 5))) == 0
    assert real_class(representative_L("1", (2, 3))) == 1
    assert real_class(representative_L("2", (1, 2))) == 2


def test_representative_scaling():
    base = representative_L("0#", (2, 3, 5))
    scaled = representative_L("0#", (2, 3, 5), kappa=16)
    f0 = resolvent_quartic(base)
    f1 = resolvent_quartic(scaled)
    assert f1 == f0.scale(16)


def test_representative_0sharp_resolvent():
    # A = diag(0,-1,1,-1), B = diag(1,-2,3,-5):
    # det(2Ax + 2By) = 16 y (x + 2y)(x + 3y)(x + 5y)
    pair = representative_L("0#", (2, 3, 5))
    f = resolvent_quartic(pair)
    want = BinaryQuartic(0, 1, 10, 31, 30).scale(16)
    assert f == want


def test_representative_bad_tag():
    from qpl.arith import QplError
    with pytest.raises(QplError):
        representative_L("3", ())


def test_representative_kappa_not_fourth_power():
    with pytest.raises(PreconditionError):
        representative_L("0#", (2, 3, 5), kappa=2)


# -- solubility over R ------------------------------------------------------


def test_classes_1_and_2_soluble():
    assert is_R_soluble(representative_L("1", (2, 3)))
    assert is_R_soluble(representative_L("2", (1, 2)))


def test_definite_pair_insoluble():
    # Q_A positive definite: no nonzero real common zero
    pair = PairOfQuadrics.from_named(a11=1, a22=1, a33=1, a44=1,
                                     b11=1, b22=2, b33=3, b44=4)
    assert not is_R_soluble(pair)


def test_0sharp_representative_soluble():
    assert is_R_soluble(representative_L("0#", (2, 3, 5)))


def _congruent_diagonal(rng, diag, frac):
    """P^T diag(d) P for a random integer (or, with frac, rational) P, which
    may be singular: symmetric, and semidefinite when all d share a sign."""
    def entry():
        n = rng.randint(-3, 3)
        return Fraction(n, rng.randint(1, 4)) if frac else n
    P = [[entry() for _ in range(4)] for _ in range(4)]
    return [[sum(P[k][i] * diag[k] * P[k][j] for k in range(4)) for j in range(4)]
            for i in range(4)]


def _definiteness_cases():
    rng = random.Random(21)
    cases = [[[0, 0, 0, 0]] * 4,
             [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],   # leading minor 0
             [[0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],   # semidefinite
             [[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],   # second minor 0
             [[-2, 1, 0, 0], [1, -2, 1, 0], [0, 1, -2, 1], [0, 0, 1, -2]]]
    for k in range(240):
        frac = k % 2 == 1
        sign = rng.choice((1, -1))
        shape = k % 4
        if shape == 0:      # definite when P is invertible
            diag = [sign * rng.randint(1, 5) for _ in range(4)]
        elif shape == 1:    # semidefinite, singular
            diag = [sign * rng.randint(0, 5) for _ in range(3)] + [0]
        elif shape == 2:    # indefinite
            diag = [rng.randint(1, 5), -rng.randint(1, 5)] + [rng.randint(-5, 5) for _ in range(2)]
        else:               # symmetric, entries independent
            M = [[0] * 4 for _ in range(4)]
            for i in range(4):
                for j in range(i, 4):
                    M[i][j] = M[j][i] = rng.randint(-4, 4) * (Fraction(1, 3) if frac else 1)
            cases.append(M)
            continue
        cases.append(_congruent_diagonal(rng, diag, frac))
    return cases


def test_is_definite_against_sympy():
    seen = set()
    for M in _definiteness_cases():
        S = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row]
                          for row in M])
        expected = S.is_positive_definite or S.is_negative_definite
        assert _is_definite(M) == expected
        seen.add((expected, S.det() == 0, S[0, 0] == 0))
    # definite and not, singular and not, a zero corner entry among the indefinite
    assert {(True, False, False), (False, True, False), (False, False, False),
            (False, False, True), (False, True, True)} <= seen


def _diag_pair_soluble_oracle(a, b):
    """Exact: a diagonal pair is R-soluble iff there are t_i >= 0, sum 1,
    with sum a_i t_i = 0 and sum b_i t_i = 0 (t_i = x_i^2)."""
    A = [[Fraction(v) for v in a], [Fraction(v) for v in b], [Fraction(1)] * 4]
    rhs = [Fraction(0), Fraction(0), Fraction(1)]
    res = solve_equality_lp(A, rhs, [Fraction(0)] * 4)
    assert res.status in ("optimal", "infeasible")
    return res.status == "optimal"


def test_solubility_matches_exact_oracle():
    rng = random.Random(3)
    tested = 0
    while tested < 30:
        a = [rng.randint(-4, 4) for _ in range(4)]
        b = [rng.randint(-4, 4) for _ in range(4)]
        pair = PairOfQuadrics.from_named(
            a11=a[0], a22=a[1], a33=a[2], a44=a[3],
            b11=b[0], b22=b[1], b33=b[2], b44=b[3])
        if invariants(pair).scaled_disc == 0:
            continue
        want = _diag_pair_soluble_oracle(a, b)
        assert is_R_soluble(pair) == want
        g = GroupElement.from_g4(random_unimodular4(rng))
        assert is_R_soluble(act(g, pair)) == want
        tested += 1


def test_solubility_dyadic_roots():
    # resolvent roots -1/4, 0, 1/4, 1/2: bisection midpoints from the
    # Cauchy bound land on them, and a test point on a root is no test
    a, b = (4, -4, -1, -4), (-2, -1, 0, 1)
    pair = PairOfQuadrics.from_named(
        a11=a[0], a22=a[1], a33=a[2], a44=a[3],
        b11=b[0], b22=b[1], b33=b[2], b44=b[3])
    assert not _diag_pair_soluble_oracle(a, b)
    assert not is_R_soluble(pair)


@pytest.mark.parametrize("N", [10 ** 5, 10 ** 6, 10 ** 12])
def test_solubility_clustered_roots(N):
    # B - (N - 1) A is positive definite; the resolvent's real roots are
    # [1:0] and three within 3 of -N
    pair = PairOfQuadrics.from_named(a11=1, a12=2, a22=1, a33=1, a44=1,
                                     b11=N, b12=2 * N, b22=2 * N + 1,
                                     b33=N + 2, b44=N + 3)
    assert real_class(pair) == 0
    assert not is_R_soluble(pair)


def test_solubility_invariant_under_congruence():
    rng = random.Random(4)
    diag = PairOfQuadrics.from_named(a11=1, a22=1, a33=1, a44=1,
                                     b11=1, b22=2, b33=3, b44=4)
    # (t1..t4) = (7, 5, 0, 1) solves sum a_i t_i = sum b_i t_i = 0, t >= 0
    sol = PairOfQuadrics.from_named(a11=1, a22=-1, a33=2, a44=-2,
                                    b11=1, b22=-2, b33=-1, b44=3)
    assert not is_R_soluble(diag)
    assert is_R_soluble(sol)
    for _ in range(8):
        g = GroupElement.from_g4(random_unimodular4(rng))
        assert not is_R_soluble(act(g, diag))
        assert is_R_soluble(act(g, sol))
