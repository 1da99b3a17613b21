"""Pairs of quadrics: serialization, resolvent, group action, twist
identity, invariant scaling, and the irreducibility predicates."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qpl import (GroupElement, PairOfQuadrics, act, invariants,
                 is_strongly_irreducible, twist_identity_check)
from qpl.arith import QplError
from qpl.forms import (COORD_NAMES, INT64_COORD_BOUND, coord_columns, cusp_mask,
                       reducibility_case, resolvent_coeffs, resolvent_quartic,
                       scaled_discs)
from qpl.quartic import BinaryQuartic, compose_row

from conftest import (random_group_element, random_nondegenerate_pair,
                      random_pair, random_unimodular4, resolvent_oracle)


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


def test_jacobian_minors_match_gram():
    rng = random.Random(2)
    for _ in range(20):
        pair = random_pair(rng)
        x = [rng.randint(-3, 3) for _ in range(4)]
        ja, jb = ([sum(M[i][j] * x[j] for j in range(4)) for i in range(4)]
                  for M in (pair.gram2(0), pair.gram2(1)))
        assert pair.jacobian_minors(x) == tuple(
            ja[k] * jb[l] - ja[l] * jb[k]
            for k in range(4) for l in range(k + 1, 4))


@pytest.mark.parametrize("pair", [
    PairOfQuadrics(list(range(-9, 11))),
    PairOfQuadrics([0] * 20),                    # every coordinate = 0 mod p
    PairOfQuadrics.from_named(a11=1, b22=3),     # many zero coefficients
    PairOfQuadrics.from_string("1/2 " + "0 " * 9 + "-2/3 " + "1 " * 8 + "5/7"),
], ids=["ints", "zero", "sparse", "fractions"])
def test_evaluators_on_columns_match_scalars(pair):
    rng = np.random.default_rng(3)
    X = rng.integers(-7, 8, size=(40, 4), dtype=np.int64)
    for evaluate in (pair.q_values, pair.jacobian_minors):
        cols = evaluate(X.T)
        assert all(np.shape(c) == (40,) for c in cols)
        for n, x in enumerate(X.tolist()):
            assert tuple(c[n] for c in cols) == evaluate(x)


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


# Coordinate bounds on both sides of the int64 switch and far beyond it.
RESOLVENT_BOUNDS = (5, INT64_COORD_BOUND, INT64_COORD_BOUND + 1, 10 ** 12, 10 ** 40)


@st.composite
def coordinate_rows(draw):
    """(bound, rows): up to 8 rows of 20 coordinates in [-bound, bound],
    with the extremes +-bound and 0 drawn often."""
    bound = draw(st.sampled_from(RESOLVENT_BOUNDS))
    coord = st.one_of(st.sampled_from((-bound, bound, 0)), st.integers(-bound, bound))
    rows = draw(st.lists(st.lists(coord, min_size=20, max_size=20),
                         min_size=1, max_size=8))
    return bound, rows


def _rows_of(cols):
    return [tuple(int(c[i]) for c in cols) for i in range(len(cols[0]))]


@settings(max_examples=60, deadline=None)
@given(coordinate_rows())
def test_resolvent_coeffs_matches_oracle(case):
    bound, rows = case
    want = [resolvent_oracle(row) for row in rows]
    assert [resolvent_coeffs(row) for row in rows] == want
    cols = coord_columns(rows, bound)
    assert cols[0].dtype == (np.int64 if bound <= INT64_COORD_BOUND else object)
    assert _rows_of(resolvent_coeffs(cols)) == want
    obj = coord_columns(rows)
    assert obj[0].dtype == object
    coeffs = resolvent_coeffs(obj)
    assert _rows_of(coeffs) == want
    assert list(scaled_discs(coeffs)) == \
        [invariants(PairOfQuadrics(row)).scaled_disc for row in rows]


@settings(max_examples=30, deadline=None)
@given(st.lists(st.fractions(-10 ** 6, 10 ** 6, max_denominator=60),
                min_size=20, max_size=20))
def test_resolvent_coeffs_fractions(coords):
    want = resolvent_oracle(coords)
    assert resolvent_coeffs(coords) == want
    assert tuple(c[0] for c in resolvent_coeffs(coord_columns([coords]))) == want


def test_cusp_mask_matches_reducibility_case():
    rng = random.Random(3)
    rows = [[rng.choice((0, 0, 0, 1, -2)) for _ in range(20)] for _ in range(400)]
    mask = cusp_mask(coord_columns(rows, 2))
    assert list(mask) == [reducibility_case(PairOfQuadrics(r)) is not None for r in rows]
    assert 0 < mask.sum() < len(rows)


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
