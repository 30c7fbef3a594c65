"""Command-line surface: evaluation, verification suites, profile data, ingestion.

Exit codes: 0 success, 1 runtime error, 2 success with a tail warning,
64 usage error.  Output is deterministic for fixed config and data: fixed
summation orders inside the library and %.12e float formatting here.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import fields

from .config import RunConfig, build_config
from .forms import BasisTable, MaassDataError, load_maass_data
from .heat import profile
from .hyperbolic import HPoint
from .synthesis import evaluate_heat_kernel
from .verify import SUITES, grid_for_config, run_suite

USAGE_EXIT = 64
DEFAULT_PROFILE_INDICES = (0, 4, 8)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        sys.exit(USAGE_EXIT)


def _fmt(x: float) -> str:
    return "%.12e" % float(x)


def _config_flags(p: argparse.ArgumentParser, grid: bool = False, fmt: bool = False,
                  norm_bound: bool = False) -> None:
    """--config and --data, plus the RunConfig flags the subcommand reads."""
    p.add_argument("--config", default=None, help="key=value configuration file")
    p.add_argument("--data", default=None, dest="maass_data_path",
                   help="Maass data file, not empty (default: $AUTOHEAT_DATA or packaged)")
    if grid:
        p.add_argument("--r-max", type=float, default=None, dest="r_max")
        p.add_argument("--panels", type=int, default=None)
        p.add_argument("--nodes-per-panel", type=int, default=None, dest="nodes_per_panel")
    if fmt:
        p.add_argument("--format", default=None, dest="output_format", choices=("csv", "json"))
    if norm_bound:
        p.add_argument("--norm-bound", type=float, default=None, dest="oracle_norm_bound")


def _config_from(args) -> RunConfig:
    overrides = {f.name: getattr(args, f.name, None) for f in fields(RunConfig)}
    return build_config(args.config, **overrides)


def make_parser() -> _Parser:
    parser = _Parser(prog="autoheat",
                     description="heat kernel on the modular surface: evaluate and verify")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate the heat kernel at one point")
    p_eval.add_argument("--t", type=float, required=True)
    p_eval.add_argument("--x", type=float, required=True)
    p_eval.add_argument("--y", type=float, required=True)
    _config_flags(p_eval, grid=True, fmt=True)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", nargs="?", default="all", choices=SUITES)
    _config_flags(p_verify, grid=True, norm_bound=True)

    p_profile = sub.add_parser("profile",
                               help="initial-condition gap and norms along a time list")
    p_profile.add_argument("--t-list", required=True, dest="t_list",
                           help="comma-separated strictly monotone times, e.g. 1,0.5,0.1")
    p_profile.add_argument("--s-list", default=None, dest="s_list",
                           help="comma-separated Sobolev indices (default 0,4,8)")
    _config_flags(p_profile, grid=True, fmt=True)

    p_ingest = sub.add_parser("ingest-check", help="parse and validate a Maass data file")
    _config_flags(p_ingest)
    return parser


def cmd_eval(args) -> int:
    cfg = _config_from(args)
    if not 0.0 < args.t < math.inf:
        print("error: pointwise evaluation requires a finite t > 0", file=sys.stderr)
        return 1
    try:
        z = HPoint(args.x, args.y)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    grid = grid_for_config(cfg)
    rep = evaluate_heat_kernel(args.t, z, grid)
    fields = [
        ("t", args.t), ("x", args.x), ("y", args.y),
        ("value", rep.value),
        ("cusp_part", rep.cusp_part),
        ("residual_part", rep.residual_part),
        ("eisenstein_part", rep.eisenstein_part),
        ("tail_estimate", rep.tail_estimate),
    ]
    if cfg.output_format == "json":
        print(json.dumps({k: float(_fmt(v)) for k, v in fields}, sort_keys=False))
    else:
        print(",".join(k for k, _ in fields))
        print(",".join(_fmt(v) for _, v in fields))
    return 2 if rep.tail_warning else 0


def cmd_verify(args) -> int:
    checks = run_suite(args.suite, _config_from(args))
    print(f"{'check':44s} {'measured':>14s} {'bound':>12s} status")
    for c in checks:
        print(c.row())
    n_fail = sum(not c.passed for c in checks)
    print(f"{len(checks) - n_fail}/{len(checks)} checks passed")
    return 0 if n_fail == 0 else 1


def cmd_profile(args) -> int:
    cfg = _config_from(args)
    try:
        ts = [float(tok) for tok in args.t_list.split(",") if tok.strip()]
    except ValueError:
        print("error: --t-list must be comma-separated numbers", file=sys.stderr)
        return USAGE_EXIT
    if not ts:
        print("error: empty --t-list", file=sys.stderr)
        return USAGE_EXIT
    if not all(0.0 < t < math.inf for t in ts):
        print("error: profile times must be finite and positive", file=sys.stderr)
        return USAGE_EXIT
    diffs = [b - a for a, b in zip(ts, ts[1:])]
    if diffs and not (all(d > 0 for d in diffs) or all(d < 0 for d in diffs)):
        print("error: --t-list must be strictly monotone", file=sys.stderr)
        return USAGE_EXIT
    if args.s_list is None:
        s_list = list(DEFAULT_PROFILE_INDICES)
    else:
        try:
            s_list = [int(tok) for tok in args.s_list.split(",") if tok.strip()]
        except ValueError:
            print("error: --s-list must be comma-separated integers", file=sys.stderr)
            return USAGE_EXIT
        if not s_list or len(set(s_list)) < len(s_list):
            print("error: --s-list must list distinct indices, at least one", file=sys.stderr)
            return USAGE_EXIT
    grid = grid_for_config(cfg)
    header = ["t", "gap"] + [f"s{s}" for s in s_list]
    rows = profile(ts, s_list, grid)
    if cfg.output_format == "json":
        print(json.dumps([
            {k: float(_fmt(v)) for k, v in zip(header, row)} for row in rows
        ]))
    else:
        print(",".join(header))
        for row in rows:
            print(",".join(_fmt(v) for v in row))
    return 0


def cmd_ingest_check(args) -> int:
    cfg = _config_from(args)
    path = cfg.resolve_data_path()
    try:
        data = load_maass_data(path)
        table = BasisTable(data, ())
        table.check()
    except (MaassDataError, OSError, ValueError) as exc:
        print(f"ingest-check FAILED for {path}: {exc}", file=sys.stderr)
        return 1
    print(f"ingest-check ok: {len(data)} forms from {path}")
    print(f"{'r':>18s} {'parity':>7s} {'n_coeffs':>9s} {'norm_const':>14s}")
    for f, norm in zip(data, table.norm):
        print(f"{f.r:18.13f} {f.parity.value:>7s} {f.n_coeffs:9d} {norm:14.6e}")
    return 0


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    handlers = {
        "eval": cmd_eval,
        "verify": cmd_verify,
        "profile": cmd_profile,
        "ingest-check": cmd_ingest_check,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
