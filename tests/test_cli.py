"""End-to-end command-line tests: exit codes, JSON/CSV payloads,
environment precedence, and manifest reproducibility."""

import csv
import hashlib
import io
import json
import random
import time

import pytest

from qpl import BinaryQuartic, PairOfQuadrics, is_strongly_irreducible
from qpl.arith import MR_LIMIT
from qpl.cli import main

from conftest import disc, real_class_oracle, resolvent_oracle

DIAG = "1 0 0 0 1 0 0 1 0 1 1 0 0 0 2 0 0 3 0 4"
SYM3 = "1 0 0 0 1 0 0 1 0 1 0 2 0 0 0 2 0 0 2 0"
# stabilizer order 3 over F_3 against #E(F_3)[4] = 1 (tests/test_localfp.py)
CHAR3_ORDER3 = "2 5 0 -3 5 4 -5 -2 -3 4 0 5 -4 5 -3 -4 3 3 4 -2"
# the same pair as DIAG mod 5
DIAG_HUGE = " ".join([str(1 + 5 * 10 ** 30)] + DIAG.split()[1:])
# B - 99999 A is positive definite, so there is no real common zero.
# The resolvent has a = 0: [1:0] is a root, the other three lie within
# 3 of -10^5, and the rational-root search returns at once.
CLUSTERED = "1 2 0 0 1 0 0 1 0 1 100000 200000 0 0 200001 0 0 100002 0 100003"
# The first pair of each real class drawn by random.Random(2026) with
# coordinates in [-5, 5], skipping zero discriminants; class 0 twice,
# with a definite pencil member (not R-soluble) and without (R-soluble).
SEEDED_CLASS = {
    "0-definite": "4 1 2 -3 2 -2 -4 5 2 5 2 3 -1 3 1 5 -1 3 5 3",
    "0-soluble": "1 3 4 2 1 3 -1 1 4 2 3 3 -5 4 -2 -3 -5 3 5 -4",
    "1": "-4 0 3 3 5 -4 -2 4 4 3 1 4 3 2 4 2 -2 -5 4 -4",
    "2": "-3 -3 3 -5 5 3 5 3 1 -1 -3 -2 -5 -5 -1 3 2 1 -1 0",
}


# random.Random(7): 20 pairs each with coordinates in [-10^4, 10^4],
# [-10^12, 10^12] and [-10^30, 10^30], drawn in that order.
_RNG = random.Random(7)
LARGE_PAIRS = [" ".join(str(_RNG.randint(-b, b)) for _ in range(20))
               for b in (10 ** 4, 10 ** 12, 10 ** 30) for _ in range(20)]
# class 0 and not R-soluble: a definite pencil member at |coords| <= 10^30
HUGE_CLASS_0 = LARGE_PAIRS[50]


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, argv):
    code, out = run(capsys, argv)
    return code, json.loads(out)


def test_invariants(tmp_path, capsys):
    code, obj = run_json(capsys, ["invariants", DIAG, "--out-dir", str(tmp_path)])
    assert code == 0
    assert obj["I"] == 3328 and obj["J"] == -286720
    assert obj["resolvent"] == [16, 160, 560, 800, 384]
    assert obj["scaled_disc"] == 4 * 3328 ** 3 - 286720 ** 2


def test_classify(tmp_path, capsys):
    code, obj = run_json(capsys, ["classify", DIAG, "--out-dir", str(tmp_path)])
    assert code == 0
    assert obj["strongly_irreducible"] is False
    assert obj["rational_root"] is not None
    assert obj["real_class"] == 0
    assert obj["R_soluble"] is False


def test_classify_clustered_roots(tmp_path, capsys):
    code, obj = run_json(capsys, ["classify", CLUSTERED, "--out-dir", str(tmp_path)])
    assert code == 0
    assert obj["real_class"] == 0
    assert obj["R_soluble"] is False


def test_classify_is_total_on_large_pairs(tmp_path, capsys):
    # The local root sieve certifies all 60 resolvents root-free, so no
    # divisor search runs; on a pair it left, that search would run to
    # the square roots of the resolvent's end coefficients.
    for text in LARGE_PAIRS:
        start = time.perf_counter()
        code, obj = run_json(capsys, ["classify", text, "--out-dir", str(tmp_path)])
        assert code == 0 and time.perf_counter() - start < 0.5, text
        pair = PairOfQuadrics.from_string(text)
        assert obj["strongly_irreducible"] == is_strongly_irreducible(pair), text
        f = BinaryQuartic(*resolvent_oracle(pair.coords))
        assert obj["disc_zero"] == (disc(f) == 0)
        assert obj["real_class"] == real_class_oracle(f), text


def test_classify_degenerate(tmp_path, capsys):
    code, obj = run_json(capsys, ["classify", " ".join(["0"] * 20),
                                  "--out-dir", str(tmp_path)])
    assert code == 0
    assert obj["disc_zero"] is True
    assert obj["real_class"] is None


def test_count_ij(tmp_path, capsys):
    code, obj = run_json(capsys, ["count-ij", "--cutoff", "1000",
                                  "--out-dir", str(tmp_path)])
    assert code == 0
    assert (obj["n_positive"], obj["n_negative"], obj["n_zero"]) == (443, 1963, 7)


def test_count_ij_bad_cutoff(tmp_path, capsys):
    code, _ = run(capsys, ["count-ij", "--cutoff", "0", "--out-dir", str(tmp_path)])
    assert code == 1


def test_count_ij_huge_cutoff_exit_1(tmp_path, capsys):
    code = main(["count-ij", "--cutoff", str(10 ** 400),
                 "--out-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("argv, terms", [
    (["count-ij", "--cutoff", str(10 ** 19)], 2154434),
    (["curves", "--cutoff", str(10 ** 80)], 3526844),
])
def test_cutoff_over_term_limit_exit_1(tmp_path, capsys, argv, terms):
    code = main(argv + ["--out-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and "Traceback" not in err
    assert " %d terms" % terms in err


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["count-ij"])          # missing required --cutoff
    assert exc.value.code == 2


def test_bad_pair_exit_1(tmp_path, capsys):
    code, _ = run(capsys, ["invariants", "1 2 3", "--out-dir", str(tmp_path)])
    assert code == 1


@pytest.mark.parametrize("command, entry", [("classify", "1/0"),
                                            ("invariants", "1.5")])
def test_bad_pair_entry_exit_1(tmp_path, capsys, command, entry):
    code = main([command, " ".join([entry] + ["0"] * 19),
                 "--out-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and "Traceback" not in err
    assert "entry 1 " in err and repr(entry) in err


@pytest.mark.parametrize("argv, flag", [
    (["selmer-bound", "--target-s2", "3", "--target-order4", "4",
      "--caps", "1,x"], "--caps"),
    (["sieve-scan", "--primes", "5,x", "--samples", "10"], "--primes"),
])
def test_bad_int_list_exit_1(tmp_path, capsys, argv, flag):
    code = main(argv + ["--out-dir", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err
    assert flag in captured.err and "'x'" in captured.err


def test_scan_box_seed_precedence(tmp_path, capsys, monkeypatch):
    base = ["scan-box", "--bound", "3", "--samples", "64",
            "--out-dir", str(tmp_path)]
    _, by_default = run_json(capsys, base)
    assert by_default["seed"] == 0
    monkeypatch.setenv("QPL_SEED", "123")
    _, by_env = run_json(capsys, base)
    assert by_env["seed"] == 123
    _, by_flag = run_json(capsys, base + ["--seed", "5"])
    assert by_flag["seed"] == 5
    monkeypatch.delenv("QPL_SEED")
    _, again = run_json(capsys, base + ["--seed", "123"])
    assert again["counts"] == by_env["counts"]


def test_scan_box_checkpoints(tmp_path, capsys):
    code, obj = run_json(capsys, ["scan-box", "--bound", "3", "--samples", "600",
                                  "--chunk-size", "256", "--out-dir", str(tmp_path)])
    assert code == 0
    assert obj["chunks"] == [[0, 256], [1, 256], [2, 88]]
    manifest = json.loads((tmp_path / "qpl_manifest_scan_box.json").read_text())
    assert manifest["checkpoints"] == [0, 1, 2]


@pytest.mark.parametrize("chunk_size", ["0", "-5", str(10 ** 9)])
def test_scan_box_bad_chunk_size_exit_1(tmp_path, capsys, chunk_size):
    code = main(["scan-box", "--bound", "3", "--samples", "10", "--chunk-size",
                 chunk_size, "--out-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("flag, value, limit", [
    ("--bound", str(10 ** 19), "2^63 - 1"),
    ("--bound", str(2 ** 63), "2^63 - 1"),
    ("--bound", "-1", "2^63 - 1"),
    ("--samples", "-5", "samples >= 0"),
])
def test_scan_box_out_of_range_exit_1(tmp_path, capsys, flag, value, limit):
    argv = {"--bound": "3", "--samples": "10", flag: value}
    code = main(["scan-box", *(x for kv in argv.items() for x in kv),
                 "--out-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and "Traceback" not in err
    assert limit in err and value in err


def test_scan_box_largest_bound(tmp_path, capsys):
    code, obj = run_json(capsys, ["scan-box", "--bound", str(2 ** 63 - 1), "--samples",
                                  "4", "--out-dir", str(tmp_path)])
    assert code == 0 and obj["samples"] == 4


# sha256 of stdout, recorded before the scans were batched into columns
PINNED_STDOUT = [
    pytest.param(["scan-box", "--bound", "5", "--samples", "3000", "--seed", "7"],
                 "a7ca45603434bcae0741b946094e69fdbbe4c93b5c631f0d7760c53d9096cea8",
                 id="scan-bound-5"),
    pytest.param(["scan-box", "--bound", "1", "--samples", "1000", "--seed", "11",
                  "--chunk-size", "256", "--predicates",
                  "disc_nonzero,strongly_irreducible,rational_root,cusp_condition,"
                  "positive_disc,negative_disc"],
                 "6c65c1fdf5cd393f835a977e4deb8e6167e54c22ad4589bb7e142c7206daff20",
                 id="scan-six-predicates"),
    pytest.param(["scan-box", "--bound", str(10 ** 12), "--samples", "300", "--seed", "5",
                  "--predicates", "disc_nonzero,positive_disc,negative_disc,cusp_condition"],
                 "10687bc78fa967d57535c166fa9792c7a199467808867be14574b4154012e265",
                 id="scan-bound-1e12"),
    pytest.param(["sieve-scan", "--primes", "5,7", "--samples", "500", "--seed", "3"],
                 "e92916336f74555c0afeeb4d796b58c81ab1384c7bccf68d83b478d89fc76172",
                 id="sieve-scan"),
    pytest.param(["sieve-scan", "--primes", "5,7,11", "--samples", "300", "--bound",
                  "100000", "--seed", "4"],
                 "1d6bcaabe48bb72100efce82fe0d7681c19b0e6c43982784e4dba734d3e0aa6d",
                 id="sieve-scan-object-columns"),
    # classify: recorded while Bareiss elimination still gave the leading
    # minors of the definiteness test
    pytest.param(["classify", DIAG],
                 "641341182b33b97c2f5137cade89f2717a7808ddc02d14999cdf9e9bdd919334",
                 id="classify-diag"),
    pytest.param(["classify", SYM3],
                 "3fd1f50af39564ac3018e53b9b5288b148fb679247b9a886ab36c32d5f02c6b1",
                 id="classify-sym3"),
    pytest.param(["classify", CLUSTERED],
                 "0c9a7b6feb030619d1069263716d1db2b3f85e89a1704292e89db3e0305e9313",
                 id="classify-clustered-roots"),
    pytest.param(["classify", SEEDED_CLASS["0-definite"]],
                 "3fd1f50af39564ac3018e53b9b5288b148fb679247b9a886ab36c32d5f02c6b1",
                 id="classify-class-0-definite"),
    pytest.param(["classify", SEEDED_CLASS["0-soluble"]],
                 "dff9d164c81f74e9bfdc9e456c5da519a63724a018e2aa151497815575f22e89",
                 id="classify-class-0-soluble"),
    pytest.param(["classify", SEEDED_CLASS["1"]],
                 "5388ddcd3dd221bfc833619dce576d6b2fdb2450baa179a55bc9d38befaca3b3",
                 id="classify-class-1"),
    pytest.param(["classify", SEEDED_CLASS["2"]],
                 "365540496f0a78a76e0f346fbde26232867456460df2ff76b880026f2a792730",
                 id="classify-class-2"),
    # resolvent and real class checked against resolvent_oracle and
    # real_class_oracle; the payload, and so the digest, is class 0-definite's
    pytest.param(["classify", HUGE_CLASS_0],
                 "3fd1f50af39564ac3018e53b9b5288b148fb679247b9a886ab36c32d5f02c6b1",
                 id="classify-1e30-class-0-definite"),
]


@pytest.mark.parametrize("argv, digest", PINNED_STDOUT)
def test_pinned_stdout_digest(tmp_path, capsys, argv, digest):
    code, out = run(capsys, argv + ["--out-dir", str(tmp_path)])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_davenport_shear(tmp_path, capsys):
    code, obj = run_json(capsys, ["davenport", "--shear", "10",
                                  "--out-dir", str(tmp_path)])
    assert code == 0
    assert obj["lattice_count"] == 121
    assert obj["volume"] == 100.0
    assert obj["volume_is_exact"] is True


def test_davenport_region_file(tmp_path, capsys):
    region = {"dim": 2, "box": [[-1, 1], [-1, 1]],
              "inequalities": [{"terms": [[1, [2, 0]], [1, [0, 2]]],
                                "op": "<=", "rhs": 1}]}
    path = tmp_path / "region.json"
    path.write_text(json.dumps(region))
    code, obj = run_json(capsys, ["davenport", "--region", str(path),
                                  "--out-dir", str(tmp_path)])
    assert code == 0
    assert obj["lattice_count"] == 5
    assert obj["volume_is_exact"] is False
    assert abs(obj["volume"] - 3.14159) < 0.05


def test_davenport_missing_file(tmp_path, capsys):
    code, _ = run(capsys, ["davenport", "--region", str(tmp_path / "nope.json"),
                           "--out-dir", str(tmp_path)])
    assert code == 1


@pytest.mark.parametrize("region", [
    {"dim": 2, "box": [[0, 1], [0, 1]],
     "inequalities": [{"terms": [[1, [1, 0]]], "op": "=<", "rhs": 1}]},
    {"box": [[0, 1], [0, 1]], "inequalities": []},
    {"dim": 2, "box": [[0, 1], [0, 1]],
     "inequalities": [{"terms": [[1, [1]]], "op": "<=", "rhs": 1}]},
], ids=["unknown-op", "missing-dim", "short-exponents"])
def test_davenport_malformed_region_exit_1(tmp_path, capsys, region):
    path = tmp_path / "region.json"
    path.write_text(json.dumps(region))
    code = main(["davenport", "--region", str(path), "--out-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and "Traceback" not in err


def test_curves(tmp_path, capsys):
    code, obj = run_json(capsys, ["curves", "--cutoff", "10000",
                                  "--out-dir", str(tmp_path)])
    assert code == 0
    assert obj["count"] == 222


def test_curves_modulus_128_family(tmp_path, capsys):
    path = tmp_path / "family.json"
    path.write_text(json.dumps({"modulus": 128, "residues": [[1, 1], [3, 5]]}))
    code, obj = run_json(capsys, ["curves", "--cutoff", "10000", "--family", str(path),
                                  "--out-dir", str(tmp_path)])
    assert code == 0
    assert obj["count"] > 0


def test_curves_huge_cutoff_is_fast(tmp_path, capsys):
    start = time.perf_counter()
    code, obj = run_json(capsys, ["curves", "--cutoff", str(10 ** 40),
                                  "--out-dir", str(tmp_path)])
    assert time.perf_counter() - start < 1
    assert code == 0
    assert obj["count"] == 212572254012850038381734081556312


@pytest.mark.parametrize("family", [
    {"residues": [[0, 0]]},
    {"modulus": 2, "residues": [[3, 1]]},
    {"modulus": 0, "residues": []},
    {"modulus": "2", "residues": [[0, 0]]},
    {"modulus": 2, "residues": [[0, 0, 1]]},
    [2, [[0, 0]]],
], ids=["missing-modulus", "residue-out-of-range", "zero-modulus",
        "string-modulus", "long-residue", "not-an-object"])
def test_curves_malformed_family_exit_1(tmp_path, capsys, family):
    path = tmp_path / "family.json"
    path.write_text(json.dumps(family))
    code = main(["curves", "--cutoff", "10000", "--family", str(path),
                 "--out-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and "Traceback" not in err


def test_sieve_scan_csv(tmp_path, capsys):
    code, out = run(capsys, ["sieve-scan", "--primes", "5,7", "--samples", "120",
                             "--seed", "0", "--out-dir", str(tmp_path)])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["p", "samples", "count_Wp", "count_Wp1", "count_Wp2",
                       "gamma_verified"]
    assert [r[0] for r in rows[1:]] == ["5", "7"]
    for r in rows[1:]:
        assert int(r[2]) == int(r[3]) + int(r[4])


@pytest.mark.parametrize("flag, value", [("--samples", "-3"), ("--bound", "-1")])
def test_sieve_scan_negative_size_exit_1(tmp_path, capsys, flag, value):
    code = main(["sieve-scan", "--primes", "5", flag, value, "--out-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and value in err and "Traceback" not in err


def test_stabilizer_fp(tmp_path, capsys):
    for pair in (DIAG, DIAG_HUGE):
        code, obj = run_json(capsys, ["stabilizer-fp", pair, "--prime", "5",
                                      "--out-dir", str(tmp_path)])
        assert code == 0
        assert obj == {"prime": 5, "stabilizer_order": 8,
                       "curve_four_torsion": 8, "agrees": True}


def test_stabilizer_fp_small_p(tmp_path, capsys):
    code, obj = run_json(capsys, ["stabilizer-fp", SYM3, "--prime", "3",
                                  "--out-dir", str(tmp_path)])
    assert code == 0
    assert obj["stabilizer_order"] == 4 and obj["agrees"] is True


def test_stabilizer_fp_char3_excess(tmp_path, capsys):
    # criterion 07's F_3 excess, through the same 4-torsion count as p > 3
    code, obj = run_json(capsys, ["stabilizer-fp", CHAR3_ORDER3, "--prime", "3",
                                  "--out-dir", str(tmp_path)])
    assert code == 0
    assert obj == {"prime": 3, "stabilizer_order": 3,
                   "curve_four_torsion": 1, "agrees": False}


def test_qp_solve(tmp_path, capsys):
    for pair in (DIAG, DIAG_HUGE):
        code, obj = run_json(capsys, ["qp-solve", pair, "--prime", "5",
                                      "--out-dir", str(tmp_path)])
        assert code == 0
        assert obj["verdict"] == "soluble"
        assert obj["witness"] == [1, 2, 2, 1]


def test_qp_solve_prime_over_primality_limit_exit_1(tmp_path, capsys):
    code = main(["qp-solve", DIAG, "--prime", str(MR_LIMIT + 2),
                 "--out-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and "Traceback" not in err
    assert str(MR_LIMIT) in err


@pytest.mark.parametrize("prime", ["1", "-1", "0"])
def test_qp_solve_prime_below_2_exit_1(tmp_path, capsys, prime):
    # valuation(sd, 1) looped forever before the prime was checked
    code = main(["qp-solve", DIAG, "--prime", prime, "--out-dir", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: need an odd prime")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv, rows", [
    (["stabilizer-fp", DIAG, "--prime", "211"], 211 ** 3 + 211 ** 2 + 212),
    (["qp-solve", DIAG, "--prime", "1009"], 1009 ** 3 + 1009 ** 2 + 1010),
])
def test_fp_work_over_limit_exit_1(tmp_path, capsys, argv, rows):
    # each would ask numpy for tens of GB without the work limit
    code = main(argv + ["--out-dir", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err
    assert " %d rows" % rows in captured.err


def test_selmer_bound(tmp_path, capsys):
    code, obj = run_json(capsys, ["selmer-bound", "--target-s2", "3",
                                  "--target-order4", "4",
                                  "--out-dir", str(tmp_path)])
    assert code == 0
    assert obj["optimum"] == "3/5"
    code2, obj2 = run_json(capsys, ["selmer-bound", "--target-s2", "1",
                                    "--target-order4", "4",
                                    "--out-dir", str(tmp_path)])
    assert code2 == 0
    assert obj2["status"] == "infeasible"


@pytest.mark.parametrize("flag, text", [("--target-s2", "1/0"),
                                        ("--target-order4", "four")])
def test_selmer_bound_bad_target_exit_1(tmp_path, capsys, flag, text):
    argv = {"--target-s2": "3", "--target-order4": "4", flag: text}
    code = main(["selmer-bound", *(x for kv in argv.items() for x in kv),
                 "--out-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and "Traceback" not in err
    assert flag in err and text in err


def test_verify_identities(tmp_path, capsys):
    code, obj = run_json(capsys, ["verify-identities", "--samples", "40",
                                  "--out-dir", str(tmp_path)])
    assert code == 0
    assert obj["ok"] is True
    assert set(obj["checks"]) == {"twist_identity", "scaled_disc_divisible_by_27",
                                  "disc_via_resultant_matches", "weight_products",
                                  "selmer_size_identity"}


def test_manifest_digest_and_reproducibility(tmp_path, capsys):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    _, out1 = run(capsys, ["count-ij", "--cutoff", "50", "--out-dir", str(d1)])
    _, out2 = run(capsys, ["count-ij", "--cutoff", "50", "--out-dir", str(d2)])
    assert out1 == out2
    m1 = json.loads((d1 / "qpl_manifest_count_ij.json").read_text())
    m2 = json.loads((d2 / "qpl_manifest_count_ij.json").read_text())
    assert m1["digest"] == hashlib.sha256(out1[:-1].encode()).hexdigest()
    m1.pop("timestamps")
    m2.pop("timestamps")
    assert m1 == m2


def test_manifest_out_dir_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("QPL_OUT_DIR", str(tmp_path / "envdir"))
    code, _ = run_json(capsys, ["count-ij", "--cutoff", "10"])
    assert code == 0
    assert (tmp_path / "envdir" / "qpl_manifest_count_ij.json").exists()
