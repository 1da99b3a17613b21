"""Command-line interface.

Exit codes: 0 success, 1 domain failure (bad mathematical input, failed
verification), 2 usage error (argparse).  Results are a single JSON
object on stdout, or CSV with a header row for tabular commands; every
run also writes a small manifest (command, version, seed, resolved
parameters, checkpoints, payload digest, timestamps) into the output
directory.  Flags beat the environment (QPL_SEED, QPL_OUT_DIR), which
beats built-in defaults.
"""

import argparse
import csv
import datetime
import hashlib
import io
import json
import os
import random
import sys
from fractions import Fraction

from . import __version__
from .arith import QplError
from .forms import (PairOfQuadrics, invariants, reducibility_case,
                    resolvent_quartic, twist_identity_check)
from .quartic import disc_is_zero, disc_via_resultant, rational_linear_factor
from .realgeom import is_R_soluble, real_class
from .counting import (DEFAULT_CHUNK, PREDICATES, count_invariant_pairs,
                       davenport_check, enumerate_curves, scan_box, shear_region,
                       verify_sibound_products, verify_weight_sums)
from .localfp import jacobian_four_torsion, qp_soluble, stabilizer_order_fp
from .selmer import SelmerShape, extremal_bound
from .sieve import SievePrimeData, random_integral_group_element, sieve_scan


def _jsonable(x):
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else str(x)
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


def _env_default(args_value, env_name, fallback, cast=str):
    if args_value is not None:
        return args_value
    env = os.environ.get(env_name)
    if env is not None:
        return cast(env)
    return fallback


def _resolve_seed(args):
    return _env_default(getattr(args, "seed", None), "QPL_SEED", 0, int)


def _resolve_out_dir(args):
    return _env_default(getattr(args, "out_dir", None), "QPL_OUT_DIR", ".")


def _write_manifest(args, command, params, payload, checkpoints=()):
    out_dir = _resolve_out_dir(args)
    os.makedirs(out_dir, exist_ok=True)
    started = getattr(args, "_started", None)
    manifest = {
        "command": command,
        "version": __version__,
        "seed": _resolve_seed(args),
        "params": _jsonable(params),
        "checkpoints": list(checkpoints),
        "digest": hashlib.sha256(payload.encode()).hexdigest(),
        "timestamps": {
            "started": started,
            "finished": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        },
    }
    path = os.path.join(out_dir, "qpl_manifest_%s.json" % command.replace("-", "_"))
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _emit_json(args, command, params, obj, checkpoints=()):
    payload = json.dumps(_jsonable(obj), indent=2, sort_keys=True)
    print(payload)
    _write_manifest(args, command, params, payload, checkpoints)
    return 0


def _emit_csv(args, command, params, header, rows, checkpoints=()):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    payload = buf.getvalue()
    sys.stdout.write(payload)
    _write_manifest(args, command, params, payload, checkpoints)
    return 0


def _parse_pair(text):
    return PairOfQuadrics.from_string(text)


def _parse_ints(flag, text):
    """The comma-separated integers of a flag's value."""
    vals = []
    for item in text.split(","):
        try:
            vals.append(int(item))
        except ValueError:
            raise QplError("%s needs comma-separated integers, got %r"
                           % (flag, item)) from None
    return vals


# -- subcommand handlers ----------------------------------------------------


def cmd_invariants(args):
    pair = _parse_pair(args.pair)
    inv = invariants(pair)
    f = resolvent_quartic(pair)
    obj = {
        "I": inv.I, "J": inv.J,
        "scaled_disc": inv.scaled_disc,
        "scaled_height": inv.scaled_height,
        "disc": inv.disc,
        "resolvent": list(f.coeffs()),
    }
    return _emit_json(args, "invariants", {"pair": args.pair}, obj)


def cmd_classify(args):
    pair = _parse_pair(args.pair)
    f = resolvent_quartic(pair)
    disc_zero = disc_is_zero(f)
    root = rational_linear_factor(f)
    obj = {
        "disc_zero": disc_zero,
        "reducibility_case": reducibility_case(pair),
        "rational_root": list(root) if root is not None else None,
        "strongly_irreducible": not disc_zero and root is None,
    }
    if not disc_zero:
        obj["real_class"] = real_class(f)
        obj["R_soluble"] = is_R_soluble(pair)
    else:
        obj["real_class"] = None
        obj["R_soluble"] = None
    return _emit_json(args, "classify", {"pair": args.pair}, obj)


def cmd_count_ij(args):
    if args.cutoff < 1:
        raise QplError("cutoff must be >= 1")
    result = count_invariant_pairs(args.cutoff)
    return _emit_json(args, "count-ij", {"cutoff": args.cutoff},
                      result.to_json_dict())


def cmd_scan_box(args):
    names = {"predicate_names": args.predicates.split(",")} if args.predicates else {}
    report = scan_box(args.bound, args.samples, _resolve_seed(args),
                      chunk_size=args.chunk_size, **names)
    return _emit_json(args, "scan-box",
                      {"bound": args.bound, "samples": args.samples,
                       "predicates": list(report.counts),
                       "chunk_size": args.chunk_size},
                      report.to_json_dict(), [k for k, _ in report.chunks])


def cmd_davenport(args):
    if args.shear is not None:
        region = shear_region(args.shear)
        params = {"shear": args.shear}
    else:
        with open(args.region) as fh:
            region = json.load(fh)
        params = {"region": args.region}
    report = davenport_check(region, seed=_resolve_seed(args))
    return _emit_json(args, "davenport", params, report.to_json_dict())


def cmd_curves(args):
    family = None
    if args.family:
        with open(args.family) as fh:
            family = json.load(fh)
    result = enumerate_curves(args.cutoff, family)
    return _emit_json(args, "curves",
                      {"cutoff": args.cutoff, "family": args.family},
                      result.to_json_dict())


def cmd_sieve_scan(args):
    primes = _parse_ints("--primes", args.primes)
    seed = _resolve_seed(args)
    rows = sieve_scan(primes, args.samples, args.bound, seed)
    return _emit_csv(args, "sieve-scan",
                     {"primes": primes, "samples": args.samples,
                      "bound": args.bound},
                     SievePrimeData.CSV_HEADER,
                     [r.csv_row() for r in rows])


def cmd_stabilizer_fp(args):
    pair = _parse_pair(args.pair)
    p = args.prime
    order = stabilizer_order_fp(pair, p)
    torsion = jacobian_four_torsion(pair, p)
    obj = {"prime": p, "stabilizer_order": order,
           "curve_four_torsion": torsion, "agrees": order == torsion}
    return _emit_json(args, "stabilizer-fp",
                      {"pair": args.pair, "prime": p}, obj)


def cmd_qp_solve(args):
    pair = _parse_pair(args.pair)
    verdict = qp_soluble(pair, args.prime, args.depth)
    return _emit_json(args, "qp-solve",
                      {"pair": args.pair, "prime": args.prime,
                       "depth": args.depth},
                      verdict.to_json_dict(args.prime))


def cmd_selmer_bound(args):
    caps = tuple(_parse_ints("--caps", args.caps))
    if len(caps) != 2 or caps[0] < 0 or caps[1] < 0:
        raise QplError("caps must be two nonnegative integers")
    targets = []
    for flag, text in (("--target-s2", args.target_s2),
                       ("--target-order4", args.target_order4)):
        try:
            targets.append(Fraction(text))
        except (ValueError, ZeroDivisionError):
            raise QplError("%s must be a rational number, got %r" % (flag, text)) from None
    res = extremal_bound(*targets, caps)
    return _emit_json(args, "selmer-bound",
                      {"target_s2": args.target_s2,
                       "target_order4": args.target_order4,
                       "caps": list(caps)},
                      res.to_json_dict())


def cmd_verify_identities(args):
    seed = _resolve_seed(args)
    rng = random.Random(seed)
    n = args.samples
    checks = {}

    def run(name, fn, samples):
        failures = 0
        for _ in range(samples):
            if not fn():
                failures += 1
        checks[name] = {"samples": samples, "failures": failures}

    def random_pair(bound=5):
        return PairOfQuadrics([rng.randint(-bound, bound) for _ in range(20)])

    def check_twist():
        g = random_integral_group_element(rng, size=3)
        return twist_identity_check(g, random_pair())

    def check_divisibility():
        inv = invariants(random_pair())
        return (4 * inv.I ** 3 - inv.J ** 2) % 27 == 0

    def check_disc_match():
        pair = random_pair()
        f = resolvent_quartic(pair)
        inv = invariants(pair)
        return 27 * disc_via_resultant(f) == 4 * inv.I ** 3 - inv.J ** 2

    run("twist_identity", check_twist, n)
    run("scaled_disc_divisible_by_27", check_divisibility, n)
    run("disc_via_resultant_matches", check_disc_match, n)
    run("weight_products", lambda: verify_sibound_products() and
        verify_weight_sums(), 1)
    run("selmer_size_identity",
        lambda: all(SelmerShape(a, b).check_size_identity()
                    for a in range(5) for b in range(5)), 1)

    ok = all(v["failures"] == 0 for v in checks.values())
    _emit_json(args, "verify-identities", {"samples": n},
               {"checks": checks, "ok": ok})
    return 0 if ok else 1


# -- parser -----------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qpl",
        description="Pairs of integral quaternary quadratic forms: invariants, "
                    "local tests, sieve maps, and counting utilities.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=handler)
        p.add_argument("--out-dir", default=None,
                       help="manifest directory (default: $QPL_OUT_DIR or .)")
        return p

    p = add("invariants", cmd_invariants, help="resolvent and invariants of a pair")
    p.add_argument("pair", help="20 space-separated coordinates")

    p = add("classify", cmd_classify, help="irreducibility/solubility classification")
    p.add_argument("pair")

    p = add("count-ij", cmd_count_ij, help="count invariant pairs below a cutoff")
    p.add_argument("--cutoff", type=int, required=True)

    p = add("scan-box", cmd_scan_box, help="randomized predicate scan over a box")
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--chunk-size", type=int, default=DEFAULT_CHUNK)
    p.add_argument("--predicates", default=None,
                   help="comma-separated subset of: %s" % ",".join(sorted(PREDICATES)))

    p = add("davenport", cmd_davenport, help="lattice count vs volume for a region")
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--region", help="JSON region file")
    grp.add_argument("--shear", type=int, help="built-in sheared square of size N")
    p.add_argument("--seed", type=int, default=None)

    p = add("curves", cmd_curves, help="count minimal curves of bounded height")
    p.add_argument("--cutoff", type=int, required=True)
    p.add_argument("--family", default=None, help="JSON congruence family file")

    p = add("sieve-scan", cmd_sieve_scan, help="stratum counts at several primes")
    p.add_argument("--primes", required=True)
    p.add_argument("--samples", type=int, default=500)
    p.add_argument("--bound", type=int, default=9)
    p.add_argument("--seed", type=int, default=None)

    p = add("stabilizer-fp", cmd_stabilizer_fp, help="stabilizer order over F_p")
    p.add_argument("pair")
    p.add_argument("--prime", type=int, required=True)

    p = add("qp-solve", cmd_qp_solve, help="Q_p-solubility verdict")
    p.add_argument("pair")
    p.add_argument("--prime", type=int, required=True)
    p.add_argument("--depth", type=int, default=None)

    p = add("selmer-bound", cmd_selmer_bound, help="extremal moment LP")
    p.add_argument("--target-s2", required=True)
    p.add_argument("--target-order4", required=True)
    p.add_argument("--caps", default="6,10")

    p = add("verify-identities", cmd_verify_identities,
            help="randomized exact identity checks")
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=None)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    args._started = datetime.datetime.now(datetime.timezone.utc).isoformat()
    try:
        return args.func(args)
    except (QplError, OSError, ValueError, ArithmeticError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
