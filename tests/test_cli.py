"""End-to-end command-line tests: exit codes, JSON/CSV payloads,
environment precedence, and manifest reproducibility."""

import csv
import hashlib
import io
import json
import os

import pytest

from qpl.cli import main

DIAG = "1 0 0 0 1 0 0 1 0 1 1 0 0 0 2 0 0 3 0 4"
SYM3 = "1 0 0 0 1 0 0 1 0 1 0 2 0 0 0 2 0 0 2 0"


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
    # B - 99999 A is positive definite, so there is no real common zero.
    # The resolvent has a = 0: [1:0] is a root, the other three lie within
    # 3 of -10^5, and the rational-root search returns at once.
    pair = "1 2 0 0 1 0 0 1 0 1 100000 200000 0 0 200001 0 0 100002 0 100003"
    code, obj = run_json(capsys, ["classify", pair, "--out-dir", str(tmp_path)])
    assert code == 0
    assert obj["real_class"] == 0
    assert obj["R_soluble"] is False


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
    code2, obj2 = run_json(capsys, ["count-ij", "--cutoff", "1000", "--naive",
                                    "--out-dir", str(tmp_path)])
    assert code2 == 0
    assert obj2["n_positive"] == obj["n_positive"]


def test_count_ij_bad_cutoff(tmp_path, capsys):
    code, _ = run(capsys, ["count-ij", "--cutoff", "0", "--out-dir", str(tmp_path)])
    assert code == 1


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


def test_curves(tmp_path, capsys):
    code, obj = run_json(capsys, ["curves", "--cutoff", "10000",
                                  "--out-dir", str(tmp_path)])
    assert code == 0
    assert obj["count"] == 222


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


def test_stabilizer_fp(tmp_path, capsys):
    code, obj = run_json(capsys, ["stabilizer-fp", DIAG, "--prime", "5",
                                  "--out-dir", str(tmp_path)])
    assert code == 0
    assert obj == {"prime": 5, "stabilizer_order": 8,
                   "curve_four_torsion": 8, "agrees": True}


def test_stabilizer_fp_small_p(tmp_path, capsys):
    code, obj = run_json(capsys, ["stabilizer-fp", SYM3, "--prime", "3",
                                  "--out-dir", str(tmp_path)])
    assert code == 0
    assert obj["stabilizer_order"] == 4 and obj["agrees"] is True


def test_qp_solve(tmp_path, capsys):
    code, obj = run_json(capsys, ["qp-solve", DIAG, "--prime", "5",
                                  "--out-dir", str(tmp_path)])
    assert code == 0
    assert obj["verdict"] == "soluble"
    assert obj["witness"] == [1, 2, 2, 1]


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
