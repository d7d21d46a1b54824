"""Command-line interface: single-field queries, density/measure computation,
geometry diagnostics, equidistribution runs, and the identity verification suite.

Exit codes: 0 success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass
from fractions import Fraction

import mpmath

from . import densities
from .algebra import CubicMatrix
from .basis import build_basis, derived_transition, tabulated_transition
from .field import AssumptionViolated, carefree_decompose_n, dual, sextic_field
from .general import general_integral_basis, general_shape_params, wild_data
from .geometry import (Box3, area_A, count_lattice_M2, count_lattice_M3, error_law_M2,
                       error_law_M3, monte_carlo_volume_M3, volume_V)
from .gram import gram6, gram_power, shape_gram, shape_params, normalized_shape_diag
from .harness import compare, report_to_json
from .types import ALL_TYPES, SexticType, classify, smallest_m_of_type, type_partition_check


@dataclass
class Config:
    cache_dir: str | None
    digits: int
    workers: int
    format: str
    seed: int

    def echo(self) -> dict:
        return asdict(self)


def _emit(cfg: Config, payload: dict) -> None:
    payload = {"config": cfg.echo(), **payload}
    if cfg.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True, default=str))
    else:
        for k, v in payload.items():
            if k == "config":
                continue
            print(f"{k}: {v}")


def _parse_sign(s: str) -> int:
    if s in ("+", "+1", "1"):
        return 1
    if s in ("-", "-1"):
        return -1
    raise argparse.ArgumentTypeError("sign must be + or -")


def _positive_int(s: str, what: str = "", least: int = 1) -> int:
    """An integer >= least (1, or 0 where zero means none) written in ASCII digits."""
    if not (s.isascii() and s.isdigit() and int(s) >= least):
        kind = "positive" if least else "nonnegative"
        raise argparse.ArgumentTypeError(f"{what}{s!r} is not a {kind} integer; "
                                         f"write it in digits")
    return int(s)


def _nonnegative_int(s: str) -> int:
    return _positive_int(s, least=0)


def _parse_ladder(s: str) -> list[int]:
    """N1,N2,...: positive integers written in digits."""
    return [_positive_int(entry, "ladder entry ") for entry in s.split(",")]


def cmd_classify(cfg: Config, args) -> int:
    t = classify(args.m)
    _emit(cfg, {"m": args.m, "type": str(t)})
    return 0


def cmd_basis(cfg: Config, args) -> int:
    f = sextic_field(args.m)
    b = build_basis(f)
    out = b.to_json()
    out["C"] = list(f.big_c)
    _emit(cfg, out)
    return 0


def cmd_general_basis(cfg: Config, args) -> int:
    try:
        gb = general_integral_basis(args.n, args.m)
    except AssumptionViolated as e:
        _emit(cfg, {"error": str(e)})
        return 1
    out = gb.to_json()
    wd = wild_data(args.n, args.m)
    out["S"] = list(wd.S)
    if args.shape:
        a = carefree_decompose_n(args.n, args.m)
        sp = general_shape_params(args.n, a)
        out["shape_exponents"] = {str(i): [str(e) for e in v] for i, v in sp.items()}
    _emit(cfg, out)
    return 0


def cmd_gram(cfg: Config, args) -> int:
    f = sextic_field(args.m)
    g = gram6(f)
    out = {"m": args.m, "type": str(classify(args.m)), "gram": g.to_json()}
    if cfg.digits:
        with mpmath.workdps(cfg.digits):
            out["gram_decimal"] = [[mpmath.nstr(x.evaluate(cfg.digits + 10), cfg.digits)
                                    for x in row] for row in g.entries]
    _emit(cfg, out)
    return 0


def cmd_shape(cfg: Config, args) -> int:
    f = sextic_field(args.m)
    canon = f if f.canonical else sextic_field(dual(f.tuple).m)
    sp = shape_params(canon)
    sg = shape_gram(f)
    out = {
        "m": args.m,
        "canonical_m": canon.m,
        "type": str(classify(args.m)),
        "lambdas": sp.to_json(cfg.digits),
        "shape_gram": sg.to_json(),
        "normalized_diagonal_exponents": [mono.to_json() for mono in normalized_shape_diag(canon)],
    }
    _emit(cfg, out)
    return 0


def cmd_geometry(cfg: Config, args) -> int:
    if args.op == "volume":
        _emit(cfg, {"volume": volume_V(args.N, args.L1p, args.L1, args.L2p, args.L2)})
    elif args.op == "count":
        _emit(cfg, {"count": count_lattice_M3(args.N, args.L1p, args.L1, args.L2p, args.L2)})
    elif args.op == "area":
        _emit(cfg, {"area": area_A(args.N, args.L1p, args.L1)})
    elif args.op == "count2":
        _emit(cfg, {"count": count_lattice_M2(args.N, args.L1p, args.L1)})
    elif args.op == "mc":
        est, se = monte_carlo_volume_M3(args.N, args.L1p, args.L1, args.L2p, args.L2,
                                        samples=args.samples, seed=cfg.seed)
        _emit(cfg, {"estimate": est, "standard_error": se,
                    "exact": volume_V(args.N, args.L1p, args.L1, args.L2p, args.L2)})
    elif args.op == "diagnose":
        rows3 = error_law_M3(args.ladder, args.L1p, args.L1, args.L2p, args.L2)
        rows2 = error_law_M2(args.ladder, args.L1p, args.L1)
        if args.csv:
            print("kind,N,count,main_term,scaled_error")
            for r in rows3:
                print(f"M3,{r.N},{r.count},{r.volume},{r.scaled_error}")
            for r in rows2:
                print(f"M2,{r.N},{r.count},{r.volume},{r.scaled_error}")
        else:
            _emit(cfg, {"M3": [asdict(r) for r in rows3], "M2": [asdict(r) for r in rows2]})
    return 0


def cmd_density(cfg: Config, args) -> int:
    t = SexticType.parse(args.type)
    if args.validate and args.a3 is not None:
        print("error: --validate checks the n-count only; drop --a3 or --validate",
              file=sys.stderr)
        return 2
    if args.a3 is None:
        v = densities.n_table(t, args.sign, args.a2, args.a4)
        out = {"kind": "n", "type": str(t), "sign": args.sign,
               "a2": args.a2, "a4": args.a4, "count": v}
        if args.validate:
            d = densities.n_table_direct(t, args.sign, args.a2, args.a4)
            out["direct_mod_15552"] = d
            out["crt_matches"] = d == v
    else:
        v = densities.m_table(t, args.sign, args.a2, args.a3, args.a4)
        out = {"kind": "m", "type": str(t), "sign": args.sign,
               "a2": args.a2, "a3": args.a3, "a4": args.a4, "count": v}
    _emit(cfg, out)
    return 0


def cmd_euler(cfg: Config, args) -> int:
    val, tail = densities.euler_product(args.kind, args.bound)
    _emit(cfg, {"kind": args.kind, "prime_bound": args.bound,
                "value": val, "tail_bound": tail})
    return 0


def cmd_measure(cfg: Config, args) -> int:
    t = SexticType.parse(args.type)
    box = Box3.parse(args.box, kind=args.family)
    kind = "mu" if args.family == "C" else "nu"
    out = densities.integrate_measure(kind, t, args.sign, box, args.prime_bound)
    _emit(cfg, {"family": args.family, "type": str(t), "sign": args.sign,
                "box": box.to_json(), "variants": out})
    return 0


def cmd_equidist(cfg: Config, args) -> int:
    t = SexticType.parse(args.type)
    box = Box3.parse(args.box, kind=args.family)
    report = compare(args.family, t, args.sign, box, args.ladder,
                     workers=cfg.workers, prime_bound=args.prime_bound)
    report["config"] = cfg.echo()
    text = report_to_json(report)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


def cmd_verify(cfg: Config, args) -> int:
    """The full identity suite: for each Type and the per-type corpus, check
    gram6 == reference table == C^T G_power C and derived == tabulated transitions."""
    types = ALL_TYPES if args.types == "all" else [SexticType.parse(args.types)]
    from .gram import g_table
    failures = []
    matrix = {}
    for t in types:
        ok = 0
        for m in smallest_m_of_type(t, args.per_type):
            f = sextic_field(m)
            b = build_basis(f)
            g = gram6(f, b)
            p = tabulated_transition(t, f)
            checks = {
                "table": g == g_table(t, f) * 6,
                "congruence": g == gram_power(f).congruence(
                    CubicMatrix.from_rational(m, [list(r) for r in p.entries])),
                "transition": derived_transition(b).entries == p.entries,
                "integral": all(e.is_algebraic_integer() for e in b.elements),
                "certificate": shape_gram(f).certificate_holds(),
            }
            if all(checks.values()):
                ok += 1
            else:
                failures.append({"type": str(t), "m": m,
                                 "failed": [k for k, v in checks.items() if not v]})
        matrix[str(t)] = f"{ok}/{args.per_type}"
    for t_name, res in sorted(matrix.items()):
        status = "PASS" if res.split("/")[0] == res.split("/")[1] else "FAIL"
        print(f"{status} {t_name}: {res}")
    if failures:
        print(json.dumps(failures, indent=2))
        return 1
    return 0


def cmd_partition(cfg: Config, args) -> int:
    if args.lo > args.hi:
        print(f"error: --lo {args.lo} is above --hi {args.hi}", file=sys.stderr)
        return 2
    rep = type_partition_check(args.lo, args.hi)
    _emit(cfg, rep)
    return 0 if rep["violation_count"] == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="puresextic",
                                 description="Integral bases, Gram matrices and lattice "
                                             "shapes of pure sextic fields")
    ap.add_argument("--cache-dir", default=os.environ.get("PURESEXTIC_CACHE"),
                    help="directory for density-table caches (env PURESEXTIC_CACHE)")
    ap.add_argument("--digits", type=_nonnegative_int, default=0,
                    help="decimal digits for numeric output")
    ap.add_argument("--workers", type=_positive_int, default=1)
    ap.add_argument("--format", choices=("json", "pretty"), default="json")
    ap.add_argument("--seed", type=int, default=0)
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("classify");  p.add_argument("--m", type=int, required=True)
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("basis");  p.add_argument("--m", type=int, required=True)
    p.set_defaults(fn=cmd_basis)

    p = sub.add_parser("general-basis")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--shape", action="store_true")
    p.set_defaults(fn=cmd_general_basis)

    for name, fn in (("gram", cmd_gram), ("shape", cmd_shape)):
        p = sub.add_parser(name)
        p.add_argument("--m", type=int, required=True)
        # SUPPRESS: given here it sets the one global value, absent it leaves it alone
        p.add_argument("--digits", type=_nonnegative_int, default=argparse.SUPPRESS)
        p.set_defaults(fn=fn)

    p = sub.add_parser("geometry")
    p.add_argument("op", choices=("volume", "count", "area", "count2", "mc", "diagnose"))
    p.add_argument("--N", type=Fraction, default=Fraction(10 ** 6))
    p.add_argument("--L1p", type=Fraction, default=Fraction(1))
    p.add_argument("--L1", type=Fraction, default=Fraction(2))
    p.add_argument("--L2p", type=Fraction, default=Fraction(1))
    p.add_argument("--L2", type=Fraction, default=Fraction(2))
    p.add_argument("--samples", type=_positive_int, default=10 ** 6)
    p.add_argument("--ladder", type=_parse_ladder, default="1000000,100000000")
    p.add_argument("--csv", action="store_true")
    p.set_defaults(fn=cmd_geometry)

    p = sub.add_parser("density")
    p.add_argument("--type", required=True)
    p.add_argument("--sign", type=_parse_sign, default=1)
    p.add_argument("--a2", type=_positive_int, required=True)
    p.add_argument("--a3", type=_positive_int, default=None)
    p.add_argument("--a4", type=_positive_int, required=True)
    p.add_argument("--validate", action="store_true",
                   help="also run the direct mod-15552 count (slow; not with --a3)")
    p.set_defaults(fn=cmd_density)

    p = sub.add_parser("euler")
    p.add_argument("--kind", choices=tuple(densities._EULER_KINDS), default="carefree")
    p.add_argument("--bound", type=_positive_int, default=10 ** 6)
    p.set_defaults(fn=cmd_euler)

    p = sub.add_parser("measure")
    p.add_argument("--family", choices=("C", "T"), required=True)
    p.add_argument("--type", required=True)
    p.add_argument("--sign", type=_parse_sign, default=1)
    p.add_argument("--box", required=True, help="R1p,R1,R2p,R2,R3p,R3")
    p.add_argument("--prime-bound", type=_positive_int, default=10 ** 6)
    p.set_defaults(fn=cmd_measure)

    p = sub.add_parser("equidist")
    p.add_argument("--family", choices=("C", "T"), required=True)
    p.add_argument("--type", required=True)
    p.add_argument("--sign", type=_parse_sign, default=1)
    p.add_argument("--box", required=True)
    p.add_argument("--ladder", type=_parse_ladder, required=True, help="N1,N2,...")
    p.add_argument("--prime-bound", type=_positive_int, default=10 ** 6)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_equidist)

    p = sub.add_parser("verify")
    p.add_argument("--types", default="all")
    p.add_argument("--per-type", type=_positive_int, default=25)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("partition")
    p.add_argument("--lo", type=int, default=-10 ** 6)
    p.add_argument("--hi", type=int, default=10 ** 6)
    p.set_defaults(fn=cmd_partition)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    cfg = Config(cache_dir=args.cache_dir, digits=args.digits, workers=args.workers,
                 format=args.format, seed=args.seed)
    if cfg.cache_dir:
        densities.set_cache_dir(cfg.cache_dir)
    try:
        return args.fn(cfg, args)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
