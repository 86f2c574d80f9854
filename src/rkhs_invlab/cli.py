"""Command-line entry point.

Subcommands:
  run     execute the study described by a JSON config and write reports
  verify  run the built-in property suite over all module invariants
  rates   pure rate-conversion calculator (no computation on models)
  info    print diagnostics of a power-law problem

Exit codes: 0 success / all verdicts pass, 1 a verdict or check failed,
2 malformed input (bad flags, missing or invalid config), 3 numerical
failure such as a solver that did not converge (no report is written).
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import verify as verify_mod
from .errors import InvlabError, NumericalError
from .experiments import StudyConfig, run_study, write_report
from .rates import (classical_exponents, convert_lower, convert_upper,
                    hs_norm, loss_factor_tau, statistical_exponents)
from .regularization import FilterSpec
from .spectral_model import build_power_law_problem


def _positive_count(text):
    """argparse type of a count >= 1; anything else exits 2 at parsing."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got "
                                         f"{text!r}")
    return value


def _parse_override(raw):
    if "=" not in raw:
        raise ValueError(f"override {raw!r} is not KEY=VALUE")
    key, value = raw.split("=", 1)
    try:
        parsed = json.loads(value)
    except json.JSONDecodeError:
        parsed = value
    return key, parsed


def _apply_override(config, dotted, value):
    parts = dotted.split(".")
    node = config
    for part in parts[:-1]:
        if not isinstance(node, dict) or part not in node:
            raise KeyError(dotted)
        node = node[part]
    if not isinstance(node, dict) or parts[-1] not in node:
        raise KeyError(dotted)
    node[parts[-1]] = value


def _cmd_run(args):
    path = Path(args.config)
    try:
        raw = json.loads(path.read_text())
    except FileNotFoundError:
        print(f"error: config file not found: {path}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: config file {path} is not valid JSON: {exc}",
              file=sys.stderr)
        return 2
    try:
        for raw_override in args.set or []:
            key, value = _parse_override(raw_override)
            _apply_override(raw, key, value)
        if args.seed is not None:
            raw["seed"] = args.seed
        config = StudyConfig.from_dict(raw)
        report = run_study(config)
    except NumericalError as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return 3
    except (InvlabError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        write_report(report, "json", out_dir / f"{config.kind}.report.json")
        write_report(report, "csv", out_dir / f"{config.kind}.report.csv")
    except OSError as exc:
        print(f"error: cannot write report: {exc}", file=sys.stderr)
        return 2
    return 0 if report.verdict else 1


def _cmd_verify(args):
    results = verify_mod.run_all(seed=args.seed)
    failed = 0
    for result in results:
        status = "pass" if result.passed else "fail"
        print(f"CHECK {result.name} {status} ({result.detail})")
        failed += 0 if result.passed else 1
    print(f"VERIFY {'pass' if failed == 0 else 'fail'} "
          f"({len(results) - failed}/{len(results)} checks)")
    return 0 if failed == 0 else 1


def _cmd_rates(args):
    try:
        stat = statistical_exponents(args.r, args.b, gamma=args.gamma)
        upper = convert_upper(stat)
        lower = convert_lower(classical_exponents(args.r, args.b,
                                                  gamma=args.gamma))
        payload = {
            "inputs": {"r": args.r, "b": args.b, "gamma": stat.gamma,
                       "variant": args.variant},
            "tau": loss_factor_tau(args.r, args.b, args.variant),
            "statistical": {"alpha": stat.alpha, "p": stat.p},
            "upper_conversion": {"delta_exponent": upper.exponent,
                                 "lambda_delta_exponent": upper.lambda_exponent,
                                 "branch": upper.case},
            "lower_conversion": {"n_exponent": lower.exponent,
                                 "lambda_n_exponent": lower.lambda_exponent,
                                 "branch": lower.case},
        }
    except InvlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _cmd_info(args):
    try:
        problem = build_power_law_problem(args.J, args.b, args.d)
        lams = np.exp(np.linspace(np.log(10 * problem.mu[-1]),
                                  np.log(problem.mu[0]), args.lambda_points))
        hs = {f"{lam:.6g}": hs_norm(problem, FilterSpec.tikhonov(lam))
              for lam in lams}
        payload = {
            "J": problem.size, "b": problem.decay_b, "d": problem.decay_d,
            "mu_head": [float(m) for m in problem.mu[:8]],
            "mu_tail": float(problem.mu[-1]),
            "kernel_bound_sq": problem.kernel_bound_sq,
            "tikhonov_hs_norms": hs,
        }
    except InvlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="rkhs-invlab",
        description="Spectral test bench for kernel regression and "
                    "linear inverse problems.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a study from a JSON config")
    run_p.add_argument("--config", required=True, help="path to config JSON")
    run_p.add_argument("--out", default=".", help="report output directory")
    run_p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
    run_p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config entry (dotted path)")
    run_p.set_defaults(handler=_cmd_run)

    verify_p = sub.add_parser("verify", help="run the built-in property suite")
    verify_p.add_argument("--seed", type=int, default=20260809)
    verify_p.set_defaults(handler=_cmd_verify)

    rates_p = sub.add_parser("rates", help="rate conversion calculator")
    rates_p.add_argument("--r", type=float, required=True,
                         help="source smoothness exponent")
    rates_p.add_argument("--b", type=float, required=True,
                         help="eigenvalue decay exponent")
    rates_p.add_argument("--gamma", type=float, default=None,
                         help="bias-ratio exponent (default r + 1/2)")
    rates_p.add_argument("--variant", choices=("general", "tikhonov"),
                         default="general")
    rates_p.set_defaults(handler=_cmd_rates)

    info_p = sub.add_parser("info", help="print problem diagnostics")
    info_p.add_argument("--J", type=int, default=100)
    info_p.add_argument("--b", type=float, default=2.0)
    info_p.add_argument("--d", type=float, default=1.0)
    info_p.add_argument("--lambda-points", type=_positive_count, default=9)
    info_p.set_defaults(handler=_cmd_info)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


def app():
    sys.exit(main())
