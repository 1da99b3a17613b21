"""Acceptance suite: one test per headline requirement, each ending in a
single PASS line with the measured quantities.  Budgets and tolerance
windows are asserted where the requirement pins them.
"""

import random
import time
from fractions import Fraction

import sympy

from qpl import (PairOfQuadrics, act, invariants, is_strongly_irreducible,
                 twist_identity_check)
from qpl.counting import (HAAR_EXPONENTS, count_invariant_pairs,
                          davenport_check, shear_region,
                          verify_sibound_products, verify_weight_sums)
from qpl.forms import COORD_NAMES, resolvent_quartic
from qpl.localfp import (curve_four_torsion, curve_from_invariants,
                         jacobian_four_torsion_small_p, stabilizer_order_fp)
from qpl.quartic import disc_via_resultant, roots_mod_p
from qpl.selmer import SelmerShape, extremal_bound, pointwise_inequality
from qpl.sieve import (apply_gamma_p, in_Wp1, normalize_Wp2,
                       random_integral_group_element, random_wp2_instance)

from conftest import random_group_element, random_pair


def _ok(num, text):
    print("criterion %02d PASS: %s" % (num, text))


def test_criterion_01_invariant_pair_counts():
    t0 = time.monotonic()
    tiny = count_invariant_pairs(1)
    assert (tiny.n_positive, tiny.n_negative) == (0, 2)
    c = count_invariant_pairs(10 ** 9)
    d = c.to_json_dict()
    rp, rn = d["positive_over_X56"], d["negative_over_X56"]
    assert 1.55 <= rp <= 1.65
    assert 6.2 <= rn <= 6.6
    elapsed = time.monotonic() - t0
    assert elapsed <= 300
    _ok(1, "X=1e9 counts (%d, %d), ratios %.4f / %.4f, %.2fs"
        % (c.n_positive, c.n_negative, rp, rn, elapsed))


def test_criterion_02_twist_identity_bulk():
    rng = random.Random(20)
    t0 = time.monotonic()
    for _ in range(10 ** 4):
        g = random_group_element(rng, bound=5, entry_bound=5)
        assert twist_identity_check(g, random_pair(rng, bound=5))
    elapsed = time.monotonic() - t0
    assert elapsed <= 60
    _ok(2, "10^4 exact twist identities, entries in [-5, 5], %.1fs" % elapsed)


def test_criterion_03_invariant_scaling():
    rng = random.Random(21)
    for _ in range(10 ** 3):
        pair = random_pair(rng)
        inv = invariants(pair)
        for lam in (-2, -1, 2, 3):
            s = invariants(pair.scale(lam))
            assert s.I == lam ** 8 * inv.I and s.J == lam ** 12 * inv.J
    _ok(3, "(I, J) -> (lam^8 I, lam^12 J) on 10^3 pairs, lam in {-2,-1,2,3}")


def test_criterion_04_syzygy_and_resultant_disc():
    rng = random.Random(22)
    for _ in range(10 ** 4):
        pair = random_pair(rng)
        inv = invariants(pair)
        sd = 4 * inv.I ** 3 - inv.J ** 2
        assert sd % 27 == 0
        assert 27 * disc_via_resultant(resolvent_quartic(pair)) == sd
    _ok(4, "27 | 4I^3 - J^2 and the resultant discriminant matches, 10^4 pairs")


def test_criterion_05_cusp_conditions_force_reducibility():
    cases = (("a11", "a12", "a13", "a14"),
             ("a11", "a12", "a13", "a22", "a23"),
             ("a11", "a12", "a13", "b11", "b12", "b13"),
             ("a11", "a12", "a22", "b11", "b12", "b22"))
    rng = random.Random(23)
    for names in cases:
        for _ in range(10 ** 3):
            vals = [rng.randint(-9, 9) for _ in range(20)]
            for n in names:
                vals[COORD_NAMES.index(n)] = 0
            assert not is_strongly_irreducible(PairOfQuadrics(vals))
    _ok(5, "4 coordinate-vanishing cases x 10^3 samples, none strongly irreducible")


def test_criterion_06_weight_bookkeeping():
    assert verify_weight_sums()
    assert verify_sibound_products()
    assert HAAR_EXPONENTS == (-2, -12, -8, -12)
    _ok(6, "weight sums, cusp product identities, and Haar exponents check out")


def _nondeg_pair_mod_p(rng, p):
    while True:
        pair = random_pair(rng, bound=5)
        inv = invariants(pair)
        if inv.scaled_disc != 0 and inv.disc % p != 0:
            return pair, inv


def test_criterion_07_stabilizer_equals_four_torsion():
    t0 = time.monotonic()
    rng = random.Random(24)
    checked = 0
    # p = 3: 4-torsion from the point count.
    # Collect disagreements instead of stopping at the first one: the
    # stabilizer/4-torsion identity is a theorem only away from
    # characteristics 2 and 3, and over F_3 it genuinely fails on a
    # positive-density locus (measured ~13% of random nondegenerate
    # pairs; always I = 0 mod 3 with a rational resolvent root, where
    # unipotent pencil shears contribute stabilizer order 3 or 12 --
    # see test_char3_stabilizer_can_exceed_four_torsion for a frozen,
    # independently re-verified example).  Demanding equality in every
    # case at p = 3 is therefore expected to fail; the loop below keeps
    # the strict form and reports every violating pair.
    bad3 = []
    for _ in range(20):
        pair, inv = _nondeg_pair_mod_p(rng, 3)
        stab = stabilizer_order_fp(pair, 3)
        tors = jacobian_four_torsion_small_p(pair, 3)
        if stab != tors:
            bad3.append((pair.to_string(), stab, tors, inv.I % 3))
        checked += 1
    # p > 3: 4-torsion from the Weierstrass model.
    # Here the identity is unconditional and any mismatch is a bug.
    for p, n in ((5, 25), (7, 15), (11, 10)):
        for _ in range(n):
            pair, inv = _nondeg_pair_mod_p(rng, p)
            E = curve_from_invariants(inv.I, inv.J, p)
            assert stabilizer_order_fp(pair, p) == curve_four_torsion(E)
            checked += 1
    # the trivial-stabilizer witness
    model = PairOfQuadrics.from_named(a24=2, a33=1, b11=-1, b23=2, b44=-2)
    inv = invariants(model)
    assert (inv.I, inv.J) == (0, 221184)
    assert stabilizer_order_fp(model, 7) == 1
    assert curve_four_torsion(curve_from_invariants(inv.I, inv.J, 7)) == 1
    elapsed = time.monotonic() - t0
    assert elapsed <= 1200
    if bad3:
        print("criterion 07 FAIL: stabilizer = #E[4] held on %d pairs over "
              "p in {5,7,11} plus the order-1 witness, but %d/20 pairs over "
              "F_3 violate it, %.1fs" % (checked - 20 + 1, len(bad3), elapsed))
    else:
        _ok(7, "stabilizer = #E[4] on %d pairs over p in {3,5,7,11} plus the "
            "order-1 witness, %.1fs" % (checked + 1, elapsed))
    assert not bad3, (
        "stabilizer order != #E(F_3)[4] on %d of 20 nondegenerate pairs "
        "mod 3: %s.  The identity requires characteristic not 2 or 3; in "
        "characteristic 3, pairs with I = 0 mod 3 whose resolvent keeps a "
        "rational root admit extra unipotent pencil shears, so no sampling "
        "seed can make this clause hold in every case.  See "
        "test_char3_stabilizer_can_exceed_four_torsion and notes in the "
        "repository README." % (len(bad3),
                                ", ".join("[%s] stab=%d tors=%d I%%3=%d"
                                          % b for b in bad3)))


def test_criterion_08_distinguished_witnesses():
    # quadruple-symmetry family: resolvent = 16(x^4 + y^4) mod p needs
    # s^2 = -2 mod p; at such p the resolvent has no root in P^1(F_p)
    for p, s in ((3, 1), (11, 3), (19, 6)):
        assert (s * s + 2) % p == 0
        w = PairOfQuadrics.from_named(a11=1, a22=1, a33=1, a44=1,
                                      b12=2, b23=2 * s, b34=2)
        f = resolvent_quartic(w).reduce_mod(p)
        assert f.coeffs() == tuple(c % p for c in (16, 0, 0, 0, 16))
        assert roots_mod_p(f, p) == []
    # one-parameter family with resolvent x^3 y - t y^4, checked symbolically
    t = sympy.Symbol("t")
    family = PairOfQuadrics.from_named(a24=1, a33=Fraction(1, 2),
                                       b11=Fraction(-1, 2), b23=1, b44=-t / 2)
    coeffs = [sympy.simplify(c) for c in resolvent_quartic(family).coeffs()]
    assert coeffs[0] == 0 and coeffs[1] == 1 and coeffs[2] == 0 \
        and coeffs[3] == 0 and sympy.simplify(coeffs[4] + t) == 0
    _ok(8, "16(x^4+y^4) witnesses rootless at p in {3,11,19}; "
        "x^3 y - t y^4 family verified symbolically")


def test_criterion_09_sieve_normalization_and_descent():
    t0 = time.monotonic()
    rng = random.Random(25)
    for p in (5, 7):
        for _ in range(500):
            pair = act(random_integral_group_element(rng, size=3),
                       random_wp2_instance(p, rng))
            # constructive shallow-stratum witness: the named partial
            # derivative really is nonzero mod p
            deep, witness = in_Wp1(pair, p)
            assert not deep and witness["reason"] == "derivative"
            t_idx = COORD_NAMES.index(witness["direction"])
            d0 = invariants(pair).scaled_disc
            bumped = list(pair.coords)
            bumped[t_idx] += p
            d1 = invariants(PairOfQuadrics(bumped)).scaled_disc
            assert ((d1 - d0) // p) % p != 0
            # normalization and integral descent preserving (I, J)
            _, normalized = normalize_Wp2(pair, p)
            descended = apply_gamma_p(normalized, p)
            assert descended.is_integral()
            assert invariants(descended) == invariants(pair)
            assert in_Wp1(descended, p)[0]
    elapsed = time.monotonic() - t0
    assert elapsed <= 300
    _ok(9, "10^3 shallow-stratum pairs at p in {5,7}: witness verified, "
        "descent integral, (I, J) preserved, image deep, %.1fs" % elapsed)


def test_criterion_10_extremal_lp():
    res = extremal_bound(3, 4, caps=(6, 10))
    assert res.status == "optimal" and res.optimum == Fraction(3, 5)
    for a in range(1, 21):
        lhs, rhs = pointwise_inequality(a)
        assert lhs <= rhs
        assert (lhs == rhs) == (a in (1, 2))
    _ok(10, "extremal LP value 3/5 at caps (6,10); pointwise bound tight "
        "exactly at a in {1,2}")


def test_criterion_11_shear_discrepancy():
    results = []
    for N in (10, 100, 1000):
        rep = davenport_check(shear_region(N))
        assert rep.volume_is_exact
        assert abs(rep.lattice_count - rep.volume) <= 4 * N
        results.append((N, rep.lattice_count, rep.volume))
    _ok(11, "shear discrepancy <= 4N at N in {10,100,1000}: %s" % (results,))


def test_criterion_12_size_identity_coverage():
    # The full Selmer average itself needs population-scale orbit data and
    # is out of reach at desk scale; what is certified here is the exact
    # size identity 4^a 2^b = (4^a - 2^a) 2^b + 2^{a+b} over the whole
    # shape grid, which together with the moment LP of criterion 10 is
    # the desk-sized surrogate.
    for a in range(7):
        for b in range(7):
            assert SelmerShape(a, b).check_size_identity()
    _ok(12, "size identity exact on the full (a,b) grid up to (6,6); "
        "global average delegated to the moment LP surrogate")
