"""Squarefree-sieve strata at p > 3: membership tests, the explicit
normalization of the shallow stratum, and the descent by gamma_p."""

from fractions import Fraction
import random

from hypothesis import given, settings, strategies as st
import pytest

from conftest import in_Wp1_oracle, sieve_scan_oracle
from qpl import PairOfQuadrics, act, invariants
from qpl.arith import PreconditionError, QplError
from qpl.forms import COORD_NAMES, INT64_COORD_BOUND
from qpl.sieve import (SievePrimeData, _deep_strata, apply_gamma_p, gamma_p, in_Wp,
                       in_Wp1, in_Wp2, normalize_Wp2, random_integral_group_element,
                       random_wp2_instance, sieve_scan, verify_gamma_descent)


DIAG = PairOfQuadrics.from_named(a11=1, a22=1, a33=1, a44=1,
                                 b11=1, b22=2, b33=3, b44=4)


def test_requires_prime_above_3():
    for p in (2, 3, 4, -5, 1):
        with pytest.raises(PreconditionError):
            in_Wp(DIAG, p)


def test_wp_membership_matches_valuation():
    # scaled_disc(DIAG) = 65229815808 is coprime to 5 and 7
    sd = invariants(DIAG).scaled_disc
    assert sd == 65229815808
    for p in (5, 7):
        assert sd % p != 0
        assert not in_Wp(DIAG, p)
        ok, witness = in_Wp1(DIAG, p)
        assert not ok and witness == {"reason": "valuation", "direction": None}


def test_scaling_lands_in_deep_stratum():
    # scale by p: disc gains p^24 and all its degree-11 partials gain p^11
    deep = DIAG.scale(5)
    assert in_Wp(deep, 5)
    ok, witness = in_Wp1(deep, 5)
    assert ok and witness is None
    assert not in_Wp2(deep, 5)


def test_random_instances_in_shallow_stratum():
    rng = random.Random(0)
    for p in (5, 7):
        for _ in range(10):
            pair = random_wp2_instance(p, rng)
            assert pair.is_integral()
            assert in_Wp2(pair, p)
            ok, witness = in_Wp1(pair, p)
            assert not ok
            assert witness["reason"] == "derivative"
            assert witness["direction"] in COORD_NAMES


def test_gamma_p_element():
    g = gamma_p(5)
    assert g.det2() * g.det4() == 1
    assert g.g2 == ((1, 0), (0, 5))


def test_gamma_p_coordinate_effect():
    # on the normalized shape: a11 /p^2, a1j /p, b11 /p, b1j fixed,
    # b_ij (i,j >= 2) * p, a_ij (i,j >= 2) fixed
    rng = random.Random(1)
    p = 5
    for _ in range(10):
        pair = random_wp2_instance(p, rng)
        out = apply_gamma_p(pair, p)
        n = pair.named
        m = out.named
        assert m("a11") == n("a11") // p ** 2
        for name in ("a12", "a13", "a14"):
            assert m(name) == n(name) // p
        assert m("b11") == n("b11") // p
        for name in ("b12", "b13", "b14"):
            assert m(name) == n(name)
        for name in ("a22", "a23", "a24", "a33", "a34", "a44"):
            assert m(name) == n(name)
        for name in ("b22", "b23", "b24", "b33", "b34", "b44"):
            assert m(name) == p * n(name)


def test_gamma_p_preserves_invariants():
    rng = random.Random(2)
    pair = random_wp2_instance(7, rng)
    out = apply_gamma_p(pair, 7)
    assert invariants(out) == invariants(pair)


def test_gamma_p_rejects_unnormalized():
    with pytest.raises(QplError):
        apply_gamma_p(DIAG, 5)


def test_normalize_identity_shortcircuit():
    rng = random.Random(3)
    pair = random_wp2_instance(5, rng)
    gamma, out = normalize_Wp2(pair, 5)
    assert out == pair
    assert gamma.g2 == ((1, 0), (0, 1)) and gamma.g4 == tuple(
        tuple(int(i == j) for j in range(4)) for i in range(4))


def test_normalize_preconditions():
    with pytest.raises(PreconditionError):
        normalize_Wp2(PairOfQuadrics([0] * 20), 5)       # degenerate
    with pytest.raises(PreconditionError):
        normalize_Wp2(DIAG, 5)                            # not in W_5
    with pytest.raises(PreconditionError):
        normalize_Wp2(DIAG.scale(5), 5)                   # deep stratum
    # zero discriminant, and a finite difference in_Wp1 cannot divide by p:
    # the precheck names the zero discriminant first
    frac = PairOfQuadrics([Fraction(1, 2), 1, 0, 0, 1, 0, 0, 1, 0, 1,
                           1, 0, 0, 0, Fraction(1, 3), 0, 0, 0, 0, 0])
    with pytest.raises(QplError, match="finite difference"):
        in_Wp1(frac, 5)
    with pytest.raises(PreconditionError, match="zero discriminant"):
        normalize_Wp2(frac, 5)


def test_normalize_scrambled_instances():
    rng = random.Random(4)
    for p in (5, 7):
        for _ in range(15):
            pair = act(random_integral_group_element(rng, size=3),
                       random_wp2_instance(p, rng))
            gamma, out = normalize_Wp2(pair, p)
            assert act(gamma, pair) == out
            assert out.named("a11") % p ** 2 == 0
            for name in ("a12", "a13", "a14", "b11"):
                assert out.named(name) % p == 0
            assert invariants(out) == invariants(pair)


def test_descent_pipeline():
    rng = random.Random(5)
    for p in (5, 7):
        for _ in range(10):
            pair = act(random_integral_group_element(rng, size=3),
                       random_wp2_instance(p, rng))
            descended = verify_gamma_descent(pair, p)
            assert descended.is_integral()
            assert invariants(descended) == invariants(pair)
            ok, _ = in_Wp1(descended, p)
            assert ok


def test_descent_pipeline_at_large_p():
    # the double root of the resolvent mod p comes from gcd(f, x^p - x)
    rng = random.Random(6)
    p = 10 ** 12 + 39
    for _ in range(5):
        pair = act(random_integral_group_element(rng, size=3),
                   random_wp2_instance(p, rng))
        descended = verify_gamma_descent(pair, p)
        assert invariants(descended) == invariants(pair)
        assert in_Wp1(descended, p)[0]


def test_sieve_scan_deterministic_and_consistent():
    rows1 = sieve_scan((5, 7), 300, 6, seed=0)
    rows2 = sieve_scan((5, 7), 300, 6, seed=0)
    assert [r.csv_row() for r in rows1] == [r.csv_row() for r in rows2]
    for row in rows1:
        assert row.count_Wp == row.count_Wp1 + row.count_Wp2
        assert row.gamma_verified == row.count_Wp2   # every descent verified
        assert len(row.csv_row()) == len(SievePrimeData.CSV_HEADER)
    assert sum(r.count_Wp for r in rows1) > 0        # the scan saw the strata


def _box(draw, bound):
    return draw(st.lists(st.integers(-bound, bound), min_size=20, max_size=20))


@st.composite
def stratum_rows(draw):
    """A prime p > 3 and a few pairs of mixed kinds: box pairs, moved
    W_p^(2) pairs, p-scaled (deep) pairs, pairs with |coords| up to 10^30,
    and Fraction pairs, generic or with zero discriminant."""
    p = draw(st.sampled_from([5, 7, 11, 13]))
    pairs = []
    for kind in draw(st.lists(st.sampled_from(
            ["box", "moved", "deep", "huge", "fraction", "fraction-degenerate"]),
            min_size=1, max_size=5)):
        if kind == "box":
            coords = _box(draw, 9)
        elif kind == "moved":
            rng = random.Random(draw(st.integers(0, 2 ** 32)))
            coords = act(random_integral_group_element(rng, size=2),
                         random_wp2_instance(p, rng)).coords
        elif kind == "deep":
            coords = [p * c for c in _box(draw, 9)]
        elif kind == "huge":
            coords = _box(draw, 10 ** 30)
        else:
            coords = draw(st.lists(st.fractions(-20, 20, max_denominator=6),
                                   min_size=20, max_size=20))
            if kind == "fraction-degenerate":
                # B of rank <= 2 (only b11, b12, b22): x^2 divides the
                # resolvent but not that of the b13 bump, whose disc
                # difference is then seldom a multiple of p, and in_Wp1 raises
                for t in (12, 13, 15, 16, 17, 18, 19):
                    coords[t] = 0
        pairs.append(PairOfQuadrics(coords))
    return p, pairs


@settings(max_examples=25, deadline=None)
@given(stratum_rows())
def test_deep_strata_matches_one_pair_oracle(case):
    # the batched kernel answers each row as the 21-row loop does alone
    p, pairs = case
    try:
        expected = [in_Wp1_oracle(pair, p) for pair in pairs]
    except QplError:
        with pytest.raises(QplError):
            _deep_strata([pair.coords for pair in pairs], p)
        return
    got = _deep_strata([pair.coords for pair in pairs], p)
    assert [(deep, witness) for _, _, deep, witness in got] == expected
    for pair, (I, J, _, _) in zip(pairs, got):
        assert (I, J) == (invariants(pair).I, invariants(pair).J)


def test_gamma_p_map_matches_action():
    rng = random.Random(7)
    rejected = 0
    for p in (5, 7, 11):
        for _ in range(5):
            moved = act(random_integral_group_element(rng, size=3),
                        random_wp2_instance(p, rng))
            for pair in (random_wp2_instance(p, rng), normalize_Wp2(moved, p)[1]):
                assert apply_gamma_p(pair, p) == \
                    act(gamma_p(p), pair).normalized_integral()
            # an integral pair off the normalized shape has no integral image
            image = act(gamma_p(p), moved)
            if image.is_integral():
                assert apply_gamma_p(moved, p) == image.normalized_integral()
            else:
                rejected += 1
                with pytest.raises(QplError):
                    apply_gamma_p(moved, p)
    assert rejected > 0


def test_gamma_p_map_on_fractions():
    # b_ij (i, j >= 2) = k/p still has an integral image; a Fraction
    # anywhere else does not
    rng = random.Random(8)
    p = 5
    pair = random_wp2_instance(p, rng)
    for t, integral in ((14, True), (19, True), (0, False), (4, False), (11, False)):
        coords = list(pair.coords)
        coords[t] = Fraction(coords[t] * p + 1, p)
        frac = PairOfQuadrics(coords)
        image = act(gamma_p(p), frac)
        assert image.is_integral() == integral
        if integral:
            assert apply_gamma_p(frac, p) == image.normalized_integral()
        else:
            with pytest.raises(QplError):
                apply_gamma_p(frac, p)


@pytest.mark.parametrize("primes, samples, bound, seed", [
    ((5, 7), 200, 9, 0),
    ((11, 13), 150, 5, 1),
    ((5, 7), 60, 10 * INT64_COORD_BOUND, 2),      # object columns
])
def test_sieve_scan_matches_one_pair_loop(primes, samples, bound, seed):
    rows = [r.csv_row() for r in sieve_scan(primes, samples, bound, seed)]
    assert rows == sieve_scan_oracle(primes, samples, bound, seed)
    assert sum(r[2] for r in rows) > 0


@pytest.mark.parametrize("samples, bound", [(-3, 9), (5, -1)])
def test_sieve_scan_rejects_negative_sizes(samples, bound):
    with pytest.raises(QplError, match=str(min(samples, bound))):
        sieve_scan((5,), samples, bound, seed=0)
    assert sieve_scan((5,), 0, 9, seed=0)[0].csv_row() == [5, 0, 0, 0, 0, 0]
