"""Pairs of quadrics: serialization, resolvent, group action, twist
identity, invariant scaling, and the irreducibility predicates."""

import random
from fractions import Fraction

import pytest

from qpl import (GroupElement, PairOfQuadrics, act, invariants,
                 is_strongly_irreducible, twist_identity_check)
from qpl.arith import QplError, det_generic
from qpl.forms import (COORD_NAMES, reducibility_case, resolvent_quartic)
from qpl.quartic import BinaryQuartic, compose_row

from conftest import (random_group_element, random_nondegenerate_pair,
                      random_pair, random_unimodular4)


# -- serialization ----------------------------------------------------------


def test_string_roundtrip():
    rng = random.Random(0)
    for _ in range(50):
        pair = random_pair(rng, bound=9)
        assert PairOfQuadrics.from_string(pair.to_string()) == pair


def test_string_rationals():
    text = "0 0 0 0 0 0 1 1/2 0 0 -1/2 0 0 0 0 1 0 0 0 -1"
    pair = PairOfQuadrics.from_string(text)
    assert pair.named("a33") == Fraction(1, 2)
    assert pair.named("b11") == Fraction(-1, 2)
    assert pair.to_string() == text
    assert not pair.is_integral()
    assert pair.scale(2).is_integral()


def test_bad_serialization_raises():
    with pytest.raises(QplError):
        PairOfQuadrics.from_string("1 2 3")
    with pytest.raises(QplError):
        PairOfQuadrics(list(range(19)))
    with pytest.raises(QplError):
        PairOfQuadrics.from_named(a99=1)


def test_gram_convention():
    # 2A has diagonal 2*a_ii and off-diagonal a_ij
    pair = PairOfQuadrics(list(range(1, 21)))
    M = pair.gram2(0)
    assert M[0][0] == 2 * pair.named("a11")
    assert M[0][1] == M[1][0] == pair.named("a12")
    assert M[2][3] == M[3][2] == pair.named("a34")
    N = pair.gram2(1)
    assert N[3][3] == 2 * pair.named("b44")
    # from_gram reconstructs the same coordinates (halving off-diagonals)
    A = [[Fraction(M[i][j], 2) for j in range(4)] for i in range(4)]
    B = [[Fraction(N[i][j], 2) for j in range(4)] for i in range(4)]
    assert PairOfQuadrics.from_gram(A, B) == pair


def test_q_values_match_gram():
    rng = random.Random(1)
    for _ in range(20):
        pair = random_pair(rng)
        x = [rng.randint(-3, 3) for _ in range(4)]
        qa, qb = pair.q_values(x)
        for which, q in ((0, qa), (1, qb)):
            M = pair.gram2(which)
            quad = sum(M[i][j] * x[i] * x[j] for i in range(4) for j in range(4))
            assert quad == 2 * q


# -- resolvent --------------------------------------------------------------


def test_resolvent_diagonal_pair():
    # A = I, B = diag(1,2,3,4): det(2Ix + 2By) = 16 (x+y)(x+2y)(x+3y)(x+4y)
    pair = PairOfQuadrics.from_named(a11=1, a22=1, a33=1, a44=1,
                                     b11=1, b22=2, b33=3, b44=4)
    assert resolvent_quartic(pair) == BinaryQuartic(16, 160, 560, 800, 384)
    inv = invariants(pair)
    assert (inv.I, inv.J) == (3328, -286720)


def test_resolvent_rational_pair():
    pair = PairOfQuadrics.from_string("0 0 0 0 0 0 1 1/2 0 0 -1/2 0 0 0 0 1 0 0 0 -1")
    assert resolvent_quartic(pair) == BinaryQuartic(0, 1, 0, 0, -2)
    inv = invariants(pair)
    assert (inv.I, inv.J) == (0, 54)
    assert inv.scaled_disc == -54 ** 2
    assert inv.disc == -108


def test_resolvent_numeric_oracle():
    # compare against a float determinant of A x + B y at sample points
    import numpy as np
    rng = random.Random(2)
    for _ in range(20):
        pair = random_pair(rng)
        f = resolvent_quartic(pair)
        MA = np.array(pair.gram2(0), dtype=float)
        MB = np.array(pair.gram2(1), dtype=float)
        for x, y in ((1.0, 0.5), (-2.0, 3.0), (0.0, 1.0)):
            want = np.linalg.det(MA * x + MB * y)
            got = float(f(x, y))
            assert abs(got - want) <= 1e-6 * max(1.0, abs(want))


# -- group laws -------------------------------------------------------------


def test_group_det_condition():
    with pytest.raises(QplError):
        GroupElement([[1, 0], [0, 2]], [[1, 0, 0, 0], [0, 1, 0, 0],
                                        [0, 0, 1, 0], [0, 0, 0, 1]])


def test_group_compose_inverse():
    rng = random.Random(3)
    e = GroupElement.identity()
    for _ in range(25):
        g = random_group_element(rng)
        h = random_group_element(rng)
        assert g.compose(g.inverse()) == e
        assert g.inverse().compose(g) == e
        assert g.compose(h).inverse() == h.inverse().compose(g.inverse())


@pytest.mark.parametrize("p", [5, 7, 11])
def test_group_compose_inverse_mod_p(p):
    rng = random.Random(p)
    e = GroupElement.identity(p)
    for _ in range(25):
        g2 = [[rng.randrange(p) for _ in range(2)] for _ in range(2)]
        g4 = [[rng.randrange(p) for _ in range(4)] for _ in range(4)]
        d = det_generic(g2) * det_generic(g4) % p
        if d == 0:
            continue
        g4[0] = [x * pow(d, -1, p) % p for x in g4[0]]
        g = GroupElement(g2, g4, p)
        assert g.compose(g.inverse()) == e
        assert g.inverse().compose(g) == e


def test_group_canonical_quotient():
    # (u^-2 I2, u I4) scalings are identified
    g = GroupElement([[2, 1], [1, 1]], random_unimodular4(random.Random(4)))
    u = Fraction(3, 2)
    g2 = [[x / u ** 2 for x in row] for row in g.g2]
    g4 = [[x * u for x in row] for row in g.g4]
    scaled = GroupElement(g2, g4)
    assert scaled == g
    assert hash(scaled) == hash(g)


def test_action_is_action():
    rng = random.Random(5)
    for _ in range(15):
        pair = random_pair(rng)
        g = random_group_element(rng)
        h = random_group_element(rng)
        assert act(GroupElement.identity(), pair) == pair
        assert act(g.compose(h), pair) == act(g, act(h, pair))


def test_action_line_mixing():
    # g4 = id, g2 = [[r,s],[t,u]] sends (A, B) to (rA+sB, tA+uB)
    pair = PairOfQuadrics(list(range(1, 21)))
    g = GroupElement.from_g2([[1, 1], [0, 1]])
    out = act(g, pair)
    a, b = pair.a_coords(), pair.b_coords()
    assert out.a_coords() == tuple(x + y for x, y in zip(a, b))
    assert out.b_coords() == b


def test_action_congruence():
    # g2 = id, g4 acts by congruence on the Gram matrices
    rng = random.Random(6)
    pair = random_pair(rng)
    g4 = random_unimodular4(rng)
    out = act(GroupElement.from_g4(g4), pair)
    M = pair.gram2(0)
    want = [[sum(g4[i][k] * M[k][l] * g4[j][l] for k in range(4) for l in range(4))
             for j in range(4)] for i in range(4)]
    assert out.gram2(0) == want


# -- twist identity and invariant scaling -----------------------------------


def test_twist_identity_random():
    rng = random.Random(7)
    for _ in range(40):
        pair = random_pair(rng)
        g = random_group_element(rng)
        assert twist_identity_check(g, pair)


def test_twist_identity_fractional():
    # non-integral element: det(g2) = 4 balanced by det(g4) = 1/4
    g = GroupElement([[2, 0], [0, 2]],
                     [[Fraction(1, 2), 0, 0, 0], [0, Fraction(1, 2), 0, 0],
                      [0, 0, 1, 0], [0, 0, 0, 1]])
    rng = random.Random(8)
    for _ in range(10):
        assert twist_identity_check(g, random_pair(rng))


def test_twist_expands_correctly():
    # hand check of the composed-row side on one pair
    pair = PairOfQuadrics.from_named(a11=1, a22=1, a33=1, a44=1,
                                     b11=1, b22=2, b33=3, b44=4)
    g = GroupElement.from_g2([[0, -1], [1, 0]])
    f = resolvent_quartic(pair)
    assert resolvent_quartic(act(g, pair)) == compose_row(f, g.g2)


def test_invariant_scaling():
    # scaling all 20 coordinates by lam scales (I, J) by (lam^8, lam^12)
    rng = random.Random(9)
    for _ in range(60):
        pair = random_pair(rng)
        inv = invariants(pair)
        for lam in (-2, -1, 2, 3):
            sinv = invariants(pair.scale(lam))
            assert sinv.I == lam ** 8 * inv.I
            assert sinv.J == lam ** 12 * inv.J


def test_height_disc_relations():
    pair = PairOfQuadrics.from_string("1 0 -1 1 -1 -2 -1 2 2 1 -1 -1 -2 -2 -1 -1 -1 -1 0 0")
    inv = invariants(pair)
    assert (inv.I, inv.J) == (-144, -48384)
    assert inv.scaled_disc == 4 * inv.I ** 3 - inv.J ** 2
    assert 27 * inv.disc == inv.scaled_disc
    assert inv.scaled_height == max(4 * abs(inv.I) ** 3, inv.J ** 2)


# -- irreducibility ---------------------------------------------------------


def _pair_with_zeros(rng, names):
    vals = [rng.randint(-5, 5) for _ in range(20)]
    for n in names:
        vals[COORD_NAMES.index(n)] = 0
    return PairOfQuadrics(vals)


CUSP_CASES = (
    ("a11", "a12", "a13", "a14"),
    ("a11", "a12", "a13", "a22", "a23"),
    ("a11", "a12", "a13", "b11", "b12", "b13"),
    ("a11", "a12", "a22", "b11", "b12", "b22"),
)


@pytest.mark.parametrize("case", range(4))
def test_cusp_cases_not_strongly_irreducible(case):
    rng = random.Random(10 + case)
    for _ in range(50):
        pair = _pair_with_zeros(rng, CUSP_CASES[case])
        assert reducibility_case(pair) is not None
        assert not is_strongly_irreducible(pair)


def test_strongly_irreducible_example():
    pair = PairOfQuadrics.from_string("1 0 -1 1 -1 -2 -1 2 2 1 -1 -1 -2 -2 -1 -1 -1 -1 0 0")
    assert reducibility_case(pair) is None
    assert is_strongly_irreducible(pair)


def test_degenerate_not_strongly_irreducible():
    # disc = 0 examples must fail regardless of factorization
    assert not is_strongly_irreducible(PairOfQuadrics([0] * 20))
    pair = PairOfQuadrics.from_named(a11=1, a22=1, a33=1, a44=1,
                                     b11=1, b22=1, b33=3, b44=4)
    assert invariants(pair).scaled_disc == 0
    assert not is_strongly_irreducible(pair)


def test_strong_irreducibility_invariant_under_action():
    rng = random.Random(11)
    checked = 0
    while checked < 15:
        pair = random_nondegenerate_pair(rng)
        g = random_group_element(rng)
        if is_strongly_irreducible(pair):
            assert is_strongly_irreducible(act(g, pair))
            checked += 1
