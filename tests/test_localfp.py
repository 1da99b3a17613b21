"""Local computations at finite primes: projective point scans, p-adic
solubility verdicts, F_p stabilizer orders, and 4-torsion of the
associated elliptic curves."""

import random
from fractions import Fraction
from itertools import combinations, product
from math import prod

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from qpl import PairOfQuadrics, invariants
from qpl.arith import DegenerateInput, QplError, det_generic, is_prime
from qpl.forms import _gram_rows, resolvent_coeffs, resolvent_quartic
from qpl.localfp import (MAX_FP_ROWS, FpCurve, curve_four_torsion,
                         curve_from_invariants, fp_points_on_intersection,
                         jacobian_four_torsion, proj_point_array,
                         qp_soluble, stabilizer_order_fp)
from qpl.quartic import BinaryQuartic, compose_row, quartic_invariants

from conftest import (curve_points, ec_add, ec_mul,
                      four_torsion_from_group_order, four_torsion_oracle,
                      jacobian_four_torsion_oracle, random_nondegenerate_pair,
                      random_pair, stabilizer_order_gl2_oracle,
                      stabilizer_order_oracle)


DIAG = PairOfQuadrics.from_named(a11=1, a22=1, a33=1, a44=1,
                                 b11=1, b22=2, b33=3, b44=4)
# a_ii = 1 with b12 = b34 = 2 and b23 = 2s where s^2 = -2 mod p; the
# resolvent is then congruent to 16(x^4 + y^4) mod p
SYM3 = PairOfQuadrics.from_named(a11=1, a22=1, a33=1, a44=1,
                                 b12=2, b23=2, b34=2)
SYM11 = PairOfQuadrics.from_named(a11=1, a22=1, a33=1, a44=1,
                                  b12=2, b23=6, b34=2)
# nondegenerate mod 3 with I = 0 mod 3: unipotent pencil shears give
# stabilizer orders 3 and 12 over F_3
CHAR3_ORDER3 = PairOfQuadrics.from_string(
    "2 5 0 -3 5 4 -5 -2 -3 4 0 5 -4 5 -3 -4 3 3 4 -2")
CHAR3_ORDER12 = PairOfQuadrics.from_string(
    "-5 -5 5 -3 -1 2 -3 -3 1 4 -5 -5 2 2 4 4 4 2 0 -3")

_coords = st.lists(st.integers(-5, 5), min_size=20, max_size=20)
_shifts = st.lists(st.integers(-10**40, 10**40), min_size=20, max_size=20)


def _shifted(pair, p, ks):
    return PairOfQuadrics([c + p * k for c, k in zip(pair.coords, ks)])


# -- projective point scan --------------------------------------------------


@pytest.mark.parametrize("p", [3, 5, 7])
def test_proj_point_array_is_canonical(p):
    X = proj_point_array(p)
    assert len(X) == p ** 3 + p ** 2 + p + 1
    seen = set()
    for row in X:
        row = tuple(int(v) for v in row)
        lead = next(v for v in row if v)
        assert lead == 1
        assert row not in seen
        seen.add(row)


def _points_oracle(pair, p):
    """Set of common zeros, by direct evaluation at canonical reps."""
    out = set()
    for x in [r for r in product(range(p), repeat=4)]:
        nz = [v for v in x if v % p]
        if not nz or nz[0] != 1:
            continue
        qa, qb = pair.q_values(x)
        if qa % p == 0 and qb % p == 0:
            out.add(x)
    return out


def _smooth_oracle(pair, x, p):
    """Singular iff some nonzero (lam, mu) kills both gradients."""
    ga = [sum(pair.gram2(0)[i][j] * x[j] for j in range(4)) % p for i in range(4)]
    gb = [sum(pair.gram2(1)[i][j] * x[j] for j in range(4)) % p for i in range(4)]
    for lam, mu in [(1, m) for m in range(p)] + [(0, 1)]:
        if all((lam * a + mu * b) % p == 0 for a, b in zip(ga, gb)):
            return False
    return True


@pytest.mark.parametrize("p", [3, 5])
def test_point_scan_against_oracle(p):
    rng = random.Random(p)
    for _ in range(20):
        pair = random_pair(rng)
        got = fp_points_on_intersection(pair, p)
        assert {x for x, _ in got} == _points_oracle(pair, p)
        for x, smooth in got:
            assert smooth == _smooth_oracle(pair, list(x), p)


@given(_coords, _shifts)
@settings(max_examples=25, deadline=None)
def test_point_scan_huge_coordinates(coords, ks):
    pair = PairOfQuadrics(coords)
    for p in (3, 5):
        assert fp_points_on_intersection(_shifted(pair, p, ks), p) == \
            fp_points_on_intersection(pair.reduce_mod(p), p)


def test_point_scan_fixture():
    assert fp_points_on_intersection(SYM3, 3) == [
        ((1, 1, 2, 0), True), ((1, 2, 2, 0), True),
        ((0, 1, 1, 2), True), ((0, 1, 2, 2), True)]


def test_point_scan_rejects_bad_input():
    with pytest.raises(QplError):
        fp_points_on_intersection(DIAG, 4)
    with pytest.raises(QplError):
        fp_points_on_intersection(DIAG, 2)
    half = PairOfQuadrics.from_string("1/2 " + "0 " * 18 + "1")
    with pytest.raises(QplError):
        fp_points_on_intersection(half, 3)


def test_fp_arrays_respect_work_limit():
    # 61 is the largest accepted prime for both the point scan of P^3(F_p)
    # and the stabilizer's PGL_2(F_p) classes, as many rows each; 67 is
    # refused before any array is built
    assert 61 ** 3 + 61 ** 2 + 62 <= MAX_FP_ROWS < 67 ** 3
    with pytest.raises(QplError, match="%d rows" % (67 ** 3 + 67 ** 2 + 68)):
        proj_point_array(67)
    with pytest.raises(QplError, match="%d rows" % (67 ** 3 + 67 ** 2 + 68)):
        stabilizer_order_fp(DIAG, 67)


# -- p-adic solubility ------------------------------------------------------


def test_soluble_with_smooth_point():
    v = qp_soluble(DIAG, 5)
    assert v.status == "soluble"
    assert v.witness == (1, 2, 2, 1)
    qa, qb = DIAG.q_values(v.witness)
    assert qa % 5 == 0 and qb % 5 == 0


def test_insoluble_no_residue_points():
    pair = PairOfQuadrics.from_string("-1 2 2 0 -1 -1 0 -2 2 -2 2 -1 0 0 0 0 0 1 1 2")
    v = qp_soluble(pair, 3)
    assert v.status == "insoluble"
    assert fp_points_on_intersection(pair, 3) == []


def test_unknown_at_shallow_depth_then_resolved():
    scaled = DIAG.scale(3)
    assert qp_soluble(scaled, 3, depth=2).status == "unknown"
    v = qp_soluble(scaled, 5)
    assert v.status == "soluble" and v.witness == (1, 2, 2, 1)


def test_soluble_witness_modulus():
    rng = random.Random(7)
    for _ in range(25):
        pair = random_pair(rng)
        if invariants(pair).scaled_disc == 0:
            continue
        v = qp_soluble(pair, 5)
        if v.status == "soluble":
            qa, qb = pair.q_values(v.witness)
            m = 5 ** v.modulus_exponent
            assert qa % m == 0 and qb % m == 0
            assert any(x % 5 for x in v.witness)


def test_verdict_json():
    v = qp_soluble(DIAG, 5)
    d = v.to_json_dict(5)
    assert d["verdict"] == "soluble" and d["modulus"] == 5
    assert d["witness"] == [1, 2, 2, 1]


def test_degenerate_disc_raises():
    with pytest.raises(DegenerateInput):
        qp_soluble(PairOfQuadrics([0] * 20), 5)


# -- stabilizer over F_p ----------------------------------------------------


def test_stabilizer_diag_5():
    assert stabilizer_order_fp(DIAG, 5) == 8


def test_stabilizer_matches_oracle():
    cases = [(DIAG, 5), (SYM3, 3), (CHAR3_ORDER3, 3), (CHAR3_ORDER12, 3)]
    rng = random.Random(4)
    for p, n in ((3, 12), (5, 4), (7, 1)):
        while n:
            pair = random_nondegenerate_pair(rng)
            if invariants(pair).disc % p:
                cases.append((pair, p))
                n -= 1
    orders = [stabilizer_order_fp(pair, p) for pair, p in cases]
    assert orders == [stabilizer_order_oracle(pair, p) for pair, p in cases]
    assert orders[:4] == [8, 4, 3, 12]


def _seeded_pairs_off(p, n, seed):
    rng = random.Random(seed)
    pairs = []
    while len(pairs) < n:
        pair = random_nondegenerate_pair(rng)
        if invariants(pair).disc % p:
            pairs.append(pair)
    return pairs


def test_stabilizer_matches_gl2_oracle():
    # the full GL_2(F_p) filter with every p^k kernel combination, where
    # the exhaustive oracle is out of reach
    for p, n in ((11, 3), (13, 1)):
        for pair in _seeded_pairs_off(p, n, seed=p):
            assert stabilizer_order_fp(pair, p) == \
                stabilizer_order_gl2_oracle(pair, p), (p, pair)


@pytest.mark.parametrize("p", [13, 17, 19, 23, 29, 31, 37, 53, 61])
def test_stabilizer_equals_four_torsion_large_p(p):
    # the identity away from characteristics 2 and 3, up to the work limit
    pair, = _seeded_pairs_off(p, 1, seed=p)
    assert stabilizer_order_fp(pair, p) == jacobian_four_torsion(pair, p)


@given(st.sampled_from([3, 5, 7]), _coords, _shifts)
@settings(max_examples=30, deadline=None)
def test_stabilizer_huge_coordinates(p, coords, ks):
    pair = PairOfQuadrics(coords)
    assume(invariants(pair).disc % p)
    assert stabilizer_order_fp(_shifted(pair, p, ks), p) == \
        stabilizer_order_fp(pair, p)


def test_stabilizer_degenerate_raises():
    # the diagonal pair's resolvent roots collide mod 3
    assert invariants(DIAG).disc % 3 == 0
    with pytest.raises(DegenerateInput):
        stabilizer_order_fp(DIAG, 3)


def test_stabilizer_rejects_bad_p():
    with pytest.raises(QplError):
        stabilizer_order_fp(DIAG, 4)


# -- elliptic curves and 4-torsion ------------------------------------------


def test_curve_validation():
    with pytest.raises(DegenerateInput):
        FpCurve(5, 0, 0)
    with pytest.raises(QplError):
        FpCurve(3, 1, 1)
    with pytest.raises(QplError):
        FpCurve(9, 1, 1)


@pytest.mark.parametrize("p", [3, 4, 2, 9, 0, -5])
def test_curve_from_invariants_rejects_bad_p(p):
    # 3 and 27 are not invertible mod 3, 9 or 0: the prime check comes first
    with pytest.raises(QplError, match="prime p > 3"):
        curve_from_invariants(1, 1, p)


def test_curve_point_count_fixture():
    E = FpCurve(5, 1, 1)
    assert len(curve_points(E)) == 9
    assert curve_four_torsion(E) == 1  # odd group order


def test_hasse_window():
    rng = random.Random(8)
    for p in (7, 11):
        for _ in range(10):
            a, b = rng.randrange(p), rng.randrange(p)
            if (4 * a ** 3 + 27 * b ** 2) % p == 0:
                continue
            n = len(curve_points(FpCurve(p, a, b)))
            assert abs(n - (p + 1)) <= 2 * p ** 0.5


def test_group_law():
    E = FpCurve(5, 1, 1)
    pts = curve_points(E)
    n = len(pts)
    for P in pts:
        assert ec_mul(n, P, E) is None       # Lagrange
        for Q in pts:
            assert ec_add(P, Q, E) == ec_add(Q, P, E)
    P, Q, R = pts[1], pts[3], pts[5]
    assert ec_add(ec_add(P, Q, E), R, E) == ec_add(P, ec_add(Q, R, E), E)


def _nonsingular_curves(p):
    return [FpCurve(p, a, b) for a in range(p) for b in range(p)
            if (4 * a ** 3 + 27 * b ** 2) % p]


@pytest.mark.parametrize("p", [5, 7, 11, 13, 17, 19, 23])
def test_four_torsion_matches_oracle_every_curve(p):
    for E in _nonsingular_curves(p):
        assert curve_four_torsion(E) == four_torsion_oracle(E), (E.a, E.b)


@given(st.sampled_from([p for p in range(29, 400) if is_prime(p)]),
       st.integers(0, 10 ** 6), st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_four_torsion_matches_oracle_random_curves(p, a, b):
    assume((4 * a ** 3 + 27 * b ** 2) % p)
    E = FpCurve(p, a % p, b % p)
    assert curve_four_torsion(E) == four_torsion_oracle(E)


def test_four_torsion_table():
    assert [four_torsion_from_group_order(n) for n in range(1, 8)] == \
        [1, 2, 1, 4, 1, 2, 1]
    with pytest.raises(QplError):
        four_torsion_from_group_order(8)


def test_curve_from_invariants_fixture():
    inv = invariants(DIAG)
    E = curve_from_invariants(inv.I, inv.J, 5)
    assert (E.a, E.b) == (4, 0)
    assert curve_four_torsion(E) == 8


# -- the stabilizer / 4-torsion identity on witnesses -----------------------


def test_identity_diag_at_5():
    inv = invariants(DIAG)
    E = curve_from_invariants(inv.I, inv.J, 5)
    assert stabilizer_order_fp(DIAG, 5) == curve_four_torsion(E) == 8


def test_identity_symmetric_pair_at_3():
    # the resolvent's cubic model needs only 2 invertible, so p = 3 takes
    # the same 2-descent as every other prime
    assert jacobian_four_torsion(SYM3, 3) == 4
    assert jacobian_four_torsion_oracle(SYM3, 3) == 4
    assert stabilizer_order_fp(SYM3, 3) == 4


def test_char3_stabilizer_can_exceed_four_torsion():
    # In characteristic 3 the stabilizer/4-torsion identity genuinely
    # fails on a positive-density locus: when I = 0 mod 3 and the
    # resolvent keeps a rational root, unipotent pencil shears
    # g2 = [[1, k], [0, 1]] can stabilize, contributing a factor of 3
    # that no 4-torsion group contains.  (The identity is a theorem only
    # away from characteristics 2 and 3.)  Frozen verified example:
    pair = CHAR3_ORDER3
    assert invariants(pair).disc % 3 != 0          # nondegenerate mod 3
    assert invariants(pair).I % 3 == 0
    assert stabilizer_order_oracle(pair, 3) == stabilizer_order_fp(pair, 3) == 3
    assert jacobian_four_torsion(pair, 3) == 1


# the eight nontrivial unipotent elements of GL_2(F_3): trace 2, det 1
_UNIPOTENTS_F3 = [[[r, s], [t, u]] for r, s, t, u in product(range(3), repeat=4)
                  if (r + u) % 3 == 2 and (r * u - s * t) % 3 == 1
                  and (r, s, t, u) != (1, 0, 0, 1)]


def _fixed_by_unipotent_mod_3(pair):
    f = resolvent_quartic(pair).reduce_mod(3)
    return any(compose_row(f, g).reduce_mod(3) == f for g in _UNIPOTENTS_F3)


def test_char3_excess_is_unipotent_fixing():
    # Tested observation (no proof written down): over F_3 the stabilizer
    # order is 3 * #E(F_3)[4] exactly when the resolvent mod 3 is fixed
    # by a nontrivial unipotent element of GL_2(F_3), and #E(F_3)[4]
    # otherwise.  This names the pairs that criterion 07 reports.
    assert len(_UNIPOTENTS_F3) == 8
    rng = random.Random(11)
    fixed = checked = 0
    while checked < 200:
        pair = random_pair(rng, bound=4)
        if invariants(pair).disc % 3 == 0:
            continue
        checked += 1
        excess = 3 if _fixed_by_unipotent_mod_3(pair) else 1
        assert stabilizer_order_fp(pair, 3) == \
            excess * jacobian_four_torsion(pair, 3), pair
        fixed += excess == 3
    assert 0 < fixed < checked
    assert _fixed_by_unipotent_mod_3(CHAR3_ORDER3)
    assert _fixed_by_unipotent_mod_3(CHAR3_ORDER12)


def test_symmetric_pair_at_11_curve():
    assert resolvent_quartic(SYM11).reduce_mod(11) == BinaryQuartic(5, 0, 0, 0, 5)
    inv = invariants(SYM11)
    E = curve_from_invariants(inv.I, inv.J, 11)
    assert (E.a, E.b) == (10, 0)             # y^2 = x^3 - x
    assert curve_four_torsion(E) == 4


def test_jacobian_small_p_rejects_singular():
    # everything vanishes mod 3: every point lies on the intersection and
    # every gradient is zero, so the very first point is singular
    with pytest.raises(DegenerateInput):
        jacobian_four_torsion_oracle(DIAG.scale(3), 3)
    with pytest.raises(DegenerateInput):
        jacobian_four_torsion(DIAG.scale(3), 3)
    # disc(DIAG) = 0 mod 3 although its F_3 points are all smooth
    with pytest.raises(DegenerateInput):
        jacobian_four_torsion(DIAG, 3)


def test_jacobian_small_p_rejects_hasse_violation():
    # disc(DIAG) = 0 mod 3 but the singular points are not F_3-rational:
    # the scan sees 8 smooth points, impossible for a genus-one curve at 3
    assert all(s for _, s in fp_points_on_intersection(DIAG, 3))
    with pytest.raises(QplError):
        jacobian_four_torsion_oracle(DIAG, 3)


@pytest.mark.parametrize("p", [2, 4, 9, 1, 0, -3])
def test_jacobian_four_torsion_rejects_bad_p(p):
    with pytest.raises(QplError, match="odd prime"):
        jacobian_four_torsion(DIAG, p)


def test_jacobian_four_torsion_rejects_fractions():
    with pytest.raises(QplError, match="integral"):
        jacobian_four_torsion(PairOfQuadrics([Fraction(1, 2)] + [1] * 19), 5)


_big_coords = st.lists(st.one_of(st.integers(-5, 5),
                                 st.integers(-10 ** 30, 10 ** 30)),
                       min_size=20, max_size=20)


@given(_big_coords)
@settings(max_examples=80, deadline=None)
def test_jacobian_four_torsion_matches_point_count_at_3(coords):
    pair = PairOfQuadrics(coords)
    assume(invariants(pair).disc % 3)
    assert jacobian_four_torsion(pair, 3) == jacobian_four_torsion_oracle(pair, 3)


@given(st.sampled_from([p for p in range(5, 400) if is_prime(p)]), _big_coords)
@settings(max_examples=80, deadline=None)
def test_jacobian_four_torsion_matches_curve_from_invariants(p, coords):
    pair = PairOfQuadrics(coords)
    inv = invariants(pair)
    assume(inv.disc % p)
    assert jacobian_four_torsion(pair, p) == \
        curve_four_torsion(curve_from_invariants(inv.I, inv.J, p))


@given(_big_coords)
@settings(max_examples=40, deadline=None)
def test_jacobian_four_torsion_at_large_p(coords):
    # the roots of the cubic come from gcd(g, x^p - x), not a loop over F_p
    p = 10 ** 18 + 3
    pair = PairOfQuadrics(coords)
    inv = invariants(pair)
    assume(inv.disc % p)
    n = jacobian_four_torsion(pair, p)
    assert n in (1, 2, 4, 8, 16)
    assert n == curve_four_torsion(curve_from_invariants(inv.I, inv.J, p))


# -- the orbit-mass identity over F_3 ---------------------------------------


def _gl_order(n, p):
    return prod(p ** n - p ** k for k in range(n))


def _count_nondegenerate_mod_3(A, B):
    """Pairs (A, B[:, i]) with 3 not dividing disc = (4I^3 - J^2)/27.
    The resolvent coefficients are reduced mod 81 first, as 4I^3 would
    overflow int64; 27 divides 4I^3 - J^2, so 3 divides disc iff 81 does."""
    f = resolvent_coeffs(A + list(B))
    I, J = quartic_invariants(BinaryQuartic(*(np.asarray(c) % 81 for c in f)))
    sd = (4 * (I % 81) ** 3 - (J % 81) ** 2) % 81
    assert not (sd % 27).any()
    return int(np.count_nonzero(sd))


def test_f3_orbit_mass_identity():
    # Each nondegenerate fibre of (I, J) over F_p is one orbit over the
    # algebraic closure, so by Lang's theorem it holds
    # sum |G(F_p)|/#Stab = |G(F_p)| points, whatever the stabilizers are:
    # the pairs with p not dividing disc number (p^2 - p) |G(F_p)|, with
    # |G(F_p)| = |GL_2(F_p)| |GL_4(F_p)| / (p - 1)^2.  Counted exactly at
    # p = 3, where criterion 07's stabilizer excess lives.  A form over F_3
    # lies in one of 9 GL_4(F_3) classes, fixed by its rank and the square
    # class of the discriminant of its nondegenerate part, which a nonzero
    # principal minor of that rank gives.  Whether 3 divides disc is
    # GL_4-invariant, so every B is swept against the first and the last
    # form of each class, and the two counts must agree.
    p = 3
    forms = np.indices((p,) * 10).reshape(10, -1)      # all 3^10 forms
    M = _gram_rows(forms)
    rank = np.zeros(forms.shape[1], dtype=np.int64)
    square_class = np.zeros_like(rank)
    for k in range(1, 5):
        for S in combinations(range(4), k):
            sub = [[M[i][j] for j in S] for i in S]
            m = (sub[0][0] if k == 1 else det_generic(sub)) % p
            hit = (m != 0) & (rank < k)
            rank[hit] = k
            square_class[hit] = m[hit]
    total = 0
    sizes = {}
    for r, q in sorted(set(zip(rank.tolist(), square_class.tolist()))):
        members = np.flatnonzero((rank == r) & (square_class == q))
        first, last = ([int(v) for v in forms[:, i]] for i in members[[0, -1]])
        good = _count_nondegenerate_mod_3(first, forms)
        assert _count_nondegenerate_mod_3(last, forms) == good
        if r <= 2:
            assert good == 0                 # y^2 divides the resolvent
        sizes.setdefault(r, []).append(len(members))
        total += len(members) * good
    assert sum(map(len, sizes.values())) == 9
    # |GL_4(F_3)| / |O^-_4(F_3)| and / |O^+_4(F_3)|; rank 3: 40 radical
    # lines times |GL_3(F_3)| / |O_3(F_3)| = 234 for each square class
    assert sorted(sizes[4]) == [_gl_order(4, p) // 1440, _gl_order(4, p) // 1152]
    assert sizes[3] == [40 * _gl_order(3, p) // 48] * 2
    group = _gl_order(2, p) * _gl_order(4, p) // (p - 1) ** 2
    assert total == (p * p - p) * group == 1_746_800_640
