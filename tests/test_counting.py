"""Torus weights, exact invariant-pair counts, reproducible box scans,
lattice-vs-volume comparisons, and curve enumeration."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qpl.arith import QplError
import qpl.counting
import qpl.forms
from qpl.counting import (HAAR_EXPONENTS, MAX_CHUNK_ROWS, PREDICATES, coordinate_weight,
                          count_invariant_pairs, davenport_check,
                          enumerate_curves, family_density, scan_box,
                          shear_region, verify_sibound_products,
                          verify_weight_sums, weight_table, ZETA10)
from qpl.forms import (COORD_NAMES, PairOfQuadrics, invariants,
                       is_strongly_irreducible, reducibility_case,
                       resolvent_coeffs, resolvent_quartic)

from conftest import (count_invariant_pairs_naive, enumerate_curves_oracle, is_minimal,
                      rational_root_oracle)


# -- torus weights ----------------------------------------------------------


def test_weight_fixtures():
    assert coordinate_weight("a11") == (-1, -6, -2, -2)
    assert coordinate_weight("a14") == (-1, -2, 0, 2)
    assert coordinate_weight("a23") == (-1, 2, 0, -2)
    assert coordinate_weight("b13") == (1, -2, 0, -2)
    assert coordinate_weight("b22") == (1, 2, -2, -2)
    assert coordinate_weight("b44") == (1, 2, 2, 6)


def test_weight_table_complete_and_balanced():
    table = weight_table()
    assert set(table) == set(COORD_NAMES)
    # b-weight minus a-weight is always 2 e1
    for ij in ("11", "12", "13", "14", "22", "23", "24", "33", "34", "44"):
        wa, wb = table["a" + ij], table["b" + ij]
        assert tuple(y - x for x, y in zip(wa, wb)) == (2, 0, 0, 0)
    # the weights of all 20 coordinates sum to zero
    assert tuple(sum(w[k] for w in table.values()) for k in range(4)) == (0, 0, 0, 0)


def test_weight_identities():
    assert verify_weight_sums()
    assert verify_sibound_products()
    assert HAAR_EXPONENTS == (-2, -12, -8, -12)


def test_weight_unknown_name():
    with pytest.raises(QplError):
        coordinate_weight("c11")


# -- invariant-pair counts --------------------------------------------------


def test_count_tiny():
    c = count_invariant_pairs(1)
    assert (c.n_positive, c.n_negative, c.n_zero) == (0, 2, 1)
    assert c.total == 3


def test_count_matches_naive():
    for X in (1, 2, 3, 5, 10, 37, 64, 100, 729):
        fast = count_invariant_pairs(X)
        slow = count_invariant_pairs_naive(X)
        assert (fast.n_positive, fast.n_negative, fast.n_zero) == \
            (slow.n_positive, slow.n_negative, slow.n_zero)


def test_count_fixture_1000():
    c = count_invariant_pairs(1000)
    assert (c.n_positive, c.n_negative, c.n_zero) == (443, 1963, 7)


def test_count_large_is_fast_and_scales():
    c = count_invariant_pairs(10 ** 7)
    assert (c.n_positive, c.n_negative, c.n_zero) == (1090787, 4360903, 29)
    d = c.to_json_dict()
    # ratios against X^{5/6} approach their limits from below/above
    assert 1.5 < d["positive_over_X56"] < 1.7
    assert 6.2 < d["negative_over_X56"] < 6.6


def test_count_rejects_bad_cutoff():
    with pytest.raises(QplError):
        count_invariant_pairs(0)


# -- box scans --------------------------------------------------------------


def documented_rows(bound, samples, seed, chunk_size):
    """The rows scan_box documents: chunk k draws chunk_size x 20 int64
    from Philox keyed by (seed, k), and its first rows are used."""
    rows = []
    for k in range(-(-samples // chunk_size)):
        ss = np.random.SeedSequence(entropy=seed, spawn_key=(k,))
        rng = np.random.Generator(np.random.Philox(ss))
        draws = rng.integers(-bound, bound + 1, size=(chunk_size, 20), dtype=np.int64)
        rows.extend(draws[:min(chunk_size, samples - k * chunk_size)].tolist())
    return rows


RECOUNT = {
    "disc_nonzero": lambda pair: invariants(pair).scaled_disc != 0,
    "strongly_irreducible": is_strongly_irreducible,
    "rational_root": lambda pair: rational_root_oracle(resolvent_quartic(pair)) is not None,
    "cusp_condition": lambda pair: reducibility_case(pair) is not None,
    "positive_disc": lambda pair: invariants(pair).scaled_disc > 0,
    "negative_disc": lambda pair: invariants(pair).scaled_disc < 0,
}

WIDE = ("disc_nonzero", "positive_disc", "negative_disc", "cusp_condition")


# The root search is infeasible on 10^12 coordinates, so that box checks
# the predicates without it.
@pytest.mark.parametrize("bound, samples, seed, chunk_size, names", [
    (4, 300, 11, 128, tuple(PREDICATES)),
    (2, 300, 11, 1024, tuple(PREDICATES)),
    (10 ** 12, 70, 3, 32, WIDE),
])
def test_scan_matches_row_by_row_recount(bound, samples, seed, chunk_size, names):
    assert set(RECOUNT) == set(PREDICATES)
    rep = scan_box(bound, samples, seed, names, chunk_size=chunk_size)
    expected = dict.fromkeys(names, 0)
    for row in documented_rows(bound, samples, seed, chunk_size):
        pair = PairOfQuadrics(row)
        for name in names:
            expected[name] += RECOUNT[name](pair)
    assert rep.counts == expected
    assert rep.samples == samples
    assert rep.chunks == [(k, min(chunk_size, samples - k * chunk_size))
                          for k in range(-(-samples // chunk_size))]


@pytest.mark.parametrize("names", [("disc_nonzero", "strongly_irreducible"), WIDE])
def test_scan_builds_one_resolvent_per_row(monkeypatch, names):
    """One resolvent_coeffs pass per chunk covers every row; no per-row
    resolvent_quartic and no PairOfQuadrics are built."""
    passes, singles, pairs = [], [], []

    def counted(coords):
        passes.append(len(coords[0]))
        return resolvent_coeffs(coords)

    def single(pair):
        singles.append(pair)
        return resolvent_quartic(pair)

    def init(self, coords):
        pairs.append(coords)
        build(self, coords)

    build = PairOfQuadrics.__init__
    monkeypatch.setattr(qpl.counting, "resolvent_coeffs", counted)
    monkeypatch.setattr(qpl.forms, "resolvent_quartic", single)
    monkeypatch.setattr(PairOfQuadrics, "__init__", init)
    rep = scan_box(3, 150, seed=4, predicate_names=names, chunk_size=64)
    assert rep.samples == sum(passes) == 150
    assert passes == [64, 64, 22]
    assert singles == [] and pairs == []


def test_scan_rejects_chunk_over_limit():
    with pytest.raises(QplError, match=str(MAX_CHUNK_ROWS)):
        scan_box(3, 10, seed=0, chunk_size=MAX_CHUNK_ROWS + 1)
    assert scan_box(1, 3, seed=0, chunk_size=MAX_CHUNK_ROWS).samples == 3


def test_scan_counts_consistent():
    rep = scan_box(5, 400, seed=7,
                   predicate_names=("disc_nonzero", "strongly_irreducible",
                                    "rational_root"))
    assert rep.counts["strongly_irreducible"] <= rep.counts["disc_nonzero"]
    # nondegenerate pairs split into strongly irreducible vs rational root
    assert rep.counts["strongly_irreducible"] + rep.counts["rational_root"] \
        >= rep.counts["disc_nonzero"]
    assert rep.counts["disc_nonzero"] > 350   # degeneracy is rare


def test_scan_is_deterministic():
    a = scan_box(3, 300, seed=5)
    b = scan_box(3, 300, seed=5)
    assert a.counts == b.counts
    c = scan_box(3, 300, seed=6)
    assert c.counts != a.counts or c.seed != a.seed


def test_scan_unknown_predicate():
    with pytest.raises(QplError):
        scan_box(3, 10, seed=0, predicate_names=("no_such_thing",))


def test_scan_repeated_predicate_counts_once():
    once = scan_box(3, 50, seed=1, predicate_names=("disc_nonzero",))
    twice = scan_box(3, 50, seed=1, predicate_names=("disc_nonzero", "disc_nonzero"))
    assert twice.counts == once.counts == {"disc_nonzero": 49}


# -- lattice points vs volume -----------------------------------------------


def test_davenport_plain_box():
    region = {"dim": 2, "box": [[0, 10.5], [0, 2.5]], "inequalities": []}
    rep = davenport_check(region)
    assert rep.lattice_count == 33
    assert rep.volume == 26.25 and rep.volume_is_exact
    assert rep.projection_bound == 10.5


def test_davenport_halfplane():
    tri = {"dim": 2, "box": [[0, 2], [0, 2]],
           "inequalities": [{"terms": [[1, [1, 0]], [1, [0, 1]]],
                             "op": "<=", "rhs": 2}]}
    # the same triangle with rational coefficients, as strings
    tri_q = {"dim": 2, "box": [[0, 2], [0, 2]],
             "inequalities": [{"terms": [["1/2", [1, 0]], ["1/2", [0, 1]]],
                               "op": "<=", "rhs": "1"}]}
    for region in (tri, tri_q):
        rep = davenport_check(region)
        assert rep.lattice_count == 6
        assert rep.volume == 2.0 and rep.volume_is_exact


def test_davenport_shear_fixture():
    rep = davenport_check(shear_region(10))
    assert rep.lattice_count == 121       # the (N+1)^2 images of the square
    assert rep.volume == 100.0 and rep.volume_is_exact
    assert abs(rep.lattice_count - rep.volume) <= 4 * 10


@pytest.mark.parametrize("N", [10, 100])
def test_davenport_shear_bound(N):
    rep = davenport_check(shear_region(N))
    assert rep.lattice_count == (N + 1) ** 2
    assert rep.volume == float(N * N)
    assert abs(rep.lattice_count - rep.volume) <= 4 * N


def test_davenport_nonlinear_monte_carlo():
    circle = {"dim": 2, "box": [[-1, 1], [-1, 1]],
              "inequalities": [{"terms": [[1, [2, 0]], [1, [0, 2]]],
                                "op": "<=", "rhs": 1}]}
    rep = davenport_check(circle, mc_samples=200000, seed=0)
    assert rep.lattice_count == 5
    assert not rep.volume_is_exact
    assert isinstance(rep.volume, float)
    assert abs(rep.volume - math.pi) < 0.05


def test_davenport_empty_box_raises():
    with pytest.raises(QplError):
        davenport_check({"dim": 1, "box": [[1, 0]], "inequalities": []})


def _cubic_region(coef):
    # coef x^3 <= 10^21 on [0, 1000]; with coef = 10^13 this is x^3 <= 10^8
    return {"dim": 1, "box": [[0, 1000]],
            "inequalities": [{"terms": [[coef, [3]]], "op": "<=",
                              "rhs": 10 ** 21}]}


def test_davenport_count_exact_beyond_int64():
    # 10^13 * 1000^3 overflows int64; x <= 10^(8/3) = 464.15... gives 465 points
    assert davenport_check(_cubic_region(10 ** 13)).lattice_count == 465


def test_davenport_string_coefficient_nonlinear():
    rep = davenport_check(_cubic_region("10000000000000/1"))
    assert rep.lattice_count == 465
    assert not rep.volume_is_exact
    assert abs(rep.volume - 10 ** (8 / 3)) < 5


def test_davenport_box_over_lattice_limit_raises():
    with pytest.raises(QplError, match="limit"):
        davenport_check({"dim": 2, "box": [[0, 10 ** 12]] * 2, "inequalities": []})


@pytest.mark.parametrize("region", [
    [],
    {"box": [[0, 1]]},
    {"dim": 0, "box": []},
    {"dim": 2, "box": [[0, 1]]},
    {"dim": 1, "box": [[0, "x"]]},
    {"dim": 1, "box": [[0, 1]], "inequalities": [{"terms": [], "op": "<="}]},
    {"dim": 1, "box": [[0, 1]],
     "inequalities": [{"terms": [[1, [1]]], "op": "=<", "rhs": 0}]},
    {"dim": 1, "box": [[0, 1]],
     "inequalities": [{"terms": [[1, [1]]], "op": ["<="], "rhs": 0}]},
    {"dim": 2, "box": [[0, 1], [0, 1]],
     "inequalities": [{"terms": [[1, [1]]], "op": "<=", "rhs": 0}]},
    {"dim": 1, "box": [[0, 1]],
     "inequalities": [{"terms": [[1, [-1]]], "op": "<=", "rhs": 0}]},
    {"dim": 1, "box": [[0, 1]],
     "inequalities": [{"terms": [[1, 1]], "op": "<=", "rhs": 0}]},
    {"dim": 65, "box": [[0, 0]] * 65},
])
def test_davenport_malformed_region_raises(region):
    with pytest.raises(QplError):
        davenport_check(region)


@pytest.mark.parametrize("coef, exp, message", [
    (10 ** 400, 2, "float range"),      # Monte-Carlo volume needs floats
    (1, 10 ** 9, "10000000000 bits"),   # refused before any power is taken
])
def test_davenport_region_over_limits_raises(coef, exp, message):
    region = {"dim": 1, "box": [[0, 1000]],
              "inequalities": [{"terms": [[coef, [exp]]], "op": "<=", "rhs": 1}]}
    with pytest.raises(QplError, match=message):
        davenport_check(region)


# -- curve enumeration ------------------------------------------------------


def test_minimality_cases():
    assert not is_minimal(16, 64)    # 2^4 | A, 2^6 | B
    assert is_minimal(16, 32)
    assert not is_minimal(0, 64)
    assert not is_minimal(81, 729)   # 3^4 | A, 3^6 | B
    assert is_minimal(1, 1)
    assert is_minimal(0, 1)


@st.composite
def families(draw):
    m = draw(st.integers(1, 64))
    residue = st.lists(st.integers(0, m - 1), min_size=2, max_size=2)
    return {"modulus": m, "residues": draw(st.lists(residue, max_size=6))}


# A modulus with 2^7 | m: classes (0, 0) and (16, 64) force 2^4 | A and
# 2^6 | B, so they hold no minimal curve; the density is 2 / 128^2.
MOD128 = {"modulus": 128, "residues": [[0, 0], [1, 1], [3, 5], [16, 64]]}


# At X = 10^7 the window admits B' != 0 at d = 2, and this family tells
# d^4 from d^6 and k from k^3 in the cusp classes.
@settings(max_examples=40, deadline=None)
@given(st.integers(1, 10 ** 6), st.none() | families())
@example(10 ** 7, {"modulus": 7, "residues": [[r, s] for r in range(7)
                                              for s in range(7) if (r + s) % 3 == 0]})
@example(10 ** 4, MOD128)
@example(10 ** 7, MOD128)
def test_curves_match_oracle(X, family):
    assert enumerate_curves(X, family).count == enumerate_curves_oracle(X, family)


def test_curves_repeated_residue_counts_once():
    once = {"modulus": 2, "residues": [[1, 1]]}
    twice = {"modulus": 2, "residues": [[1, 1], [1, 1]]}
    assert enumerate_curves(10 ** 4, twice) == enumerate_curves(10 ** 4, once)
    assert family_density(twice) == family_density(once) == Fraction(1, 4)


def test_curves_tiny():
    assert enumerate_curves(1).count == 0


def test_curves_fixture():
    cc = enumerate_curves(10 ** 4)
    assert cc.count == 222
    assert abs(cc.predicted - 212.5722540128635) < 1e-9
    assert 0.9 < cc.count / cc.predicted < 1.15


def test_curves_full_family_matches_unrestricted():
    fam = {"modulus": 2, "residues": [[0, 0], [0, 1], [1, 0], [1, 1]]}
    plain = enumerate_curves(10 ** 4)
    restricted = enumerate_curves(10 ** 4, fam)
    assert restricted.count == plain.count
    assert abs(restricted.predicted - plain.predicted) < 1e-9


def test_family_density_exact():
    fam = {"modulus": 2, "residues": [[0, 0], [0, 1], [1, 0], [1, 1]]}
    # all residues mod 2: the density is exactly the local factor at 2
    assert family_density(fam) == 1 - Fraction(1, 1024)
    only_odd = {"modulus": 2, "residues": [[1, 1]]}
    assert family_density(only_odd) == Fraction(1, 4)
    assert family_density(MOD128) == Fraction(1, 8192)


def test_zeta10_value():
    assert abs(ZETA10 - 1.0009945751278182) < 1e-12
