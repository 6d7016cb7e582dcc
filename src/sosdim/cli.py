"""Command-line front end: estimate, test and simulate subcommands.

Exit codes: 0 success, 2 input/configuration error, 3 numerical failure.
JSON and CSV outputs are the stable contracts; text output is
human-oriented and unstable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from .bss import LAG_PRESETS
from .dimtest import (
    STRATEGIES,
    _check_test_args,
    bootstrap_noise_test,
    dimension_report,
    estimate_dimension,
    noise_test,
    test_report,
)
from .errors import InvalidInputError, NearSingularCovarianceError, SosdimError
from .series import LagSet, load_csv

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3

SEED_ENV_VAR = "SOSDIM_SEED"


def _seed(args) -> int:
    """--seed, else $SOSDIM_SEED, else 0; a non-negative integer, as numpy
    seeds must be."""
    if args.seed is None:
        name, text = SEED_ENV_VAR, os.environ.get(SEED_ENV_VAR, "0")
    else:
        name, text = "--seed", args.seed
    try:
        seed = int(text)
    except ValueError:
        raise InvalidInputError(f"{name} must be an integer, got {text!r}") from None
    if seed < 0:
        raise InvalidInputError(f"{name} must be >= 0, got {seed}")
    return seed


def _add_common(sub):
    sub.add_argument("--seed", type=int, default=None,
                     help=f"RNG seed (default: ${SEED_ENV_VAR} or 0)")
    sub.add_argument("--format", choices=("json", "csv", "text"), default="json")
    sub.add_argument("--output", default=None, help="write to file instead of stdout")


def _add_data_flags(sub):
    sub.add_argument("--input", required=True, help="CSV file, one row per time point")
    sub.add_argument("--header", action="store_true",
                     help="treat the first CSV row as a header")
    sub.add_argument("--lag-preset", choices=sorted(LAG_PRESETS), default=None)
    sub.add_argument("--lags", default=None,
                     help="explicit comma-separated lag list, e.g. 1,2,3")
    sub.add_argument("--method", choices=("amuse", "sobi"), default=None)
    _add_test_flags(sub)


def _add_test_flags(sub):
    sub.add_argument("--alpha", type=float, default=0.05)
    sub.add_argument("--test-kind", choices=("asymptotic", "bootstrap"),
                     default="asymptotic")
    sub.add_argument("-B", "--bootstrap-reps", type=int, default=200)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sosdim",
        description="Signal dimension estimation for second-order source separation",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    est = subs.add_parser("estimate", help="estimate the signal dimension of a CSV series")
    _add_data_flags(est)
    est.add_argument("--strategy", choices=STRATEGIES, default="divide_and_conquer")
    _add_common(est)

    tst = subs.add_parser("test", help="test a single white-noise subspace hypothesis")
    _add_data_flags(tst)
    tst.add_argument("--q", type=int, required=True, help="tested signal count")
    _add_common(tst)

    sim = subs.add_parser("simulate", help="run a Monte Carlo table for a named setting")
    sim.add_argument("--setting", required=True)
    sim.add_argument("--table", choices=("rejection", "dimension"), default="rejection")
    sim.add_argument("--q", type=int, default=None, help="rejection table only")
    sim.add_argument("--n", required=True, help="comma-separated sample sizes")
    sim.add_argument("--reps", type=int, required=True)
    sim.add_argument("--methods", default="amuse,sobi6,sobi12",
                     help="comma-separated estimator presets")
    _add_test_flags(sim)
    sim.add_argument("--strategy", choices=STRATEGIES, default="divide_and_conquer")
    sim.add_argument("--threads", type=int, default=os.cpu_count() or 1,
                     help="replicate pool size; results are thread-count independent")
    _add_common(sim)
    return parser


def _resolve_lags(args):
    if args.lags is not None and args.lag_preset is not None:
        raise InvalidInputError("--lags and --lag-preset are mutually exclusive")
    if args.lags is not None:
        try:
            lags = tuple(int(t) for t in args.lags.split(","))
        except ValueError:
            raise InvalidInputError(f"bad lag list: {args.lags!r}") from None
        method = args.method or ("amuse" if len(lags) == 1 else "sobi")
        return LagSet(lags), method
    preset = args.lag_preset or "sobi6"
    method = args.method or ("amuse" if preset == "amuse" else "sobi")
    return LagSet(LAG_PRESETS[preset]), method


def _emit(text: str, output):
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(payload: dict, output):
    _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", output)


def _emit_trace_csv(entries, output):
    """One q,stat,df,p_value,converged row per _test_entry dict."""
    lines = ["q,stat,df,p_value,converged"]
    for t in entries:
        lines.append(
            f"{t['q']},{t['stat']:.12g},{t['df']},{t['p_value']:.12g},"
            f"{str(t['converged']).lower()}"
        )
    _emit("\n".join(lines) + "\n", output)


def cmd_estimate(args) -> int:
    _check_test_args(args.alpha, args.test_kind, args.bootstrap_reps)
    x = load_csv(args.input, header=args.header)
    lags, method = _resolve_lags(args)
    seed = _seed(args)
    est = estimate_dimension(
        x,
        lags,
        alpha=args.alpha,
        strategy=args.strategy,
        method=method,
        test_kind=args.test_kind,
        b_reps=args.bootstrap_reps,
        seed=seed,
    )
    report = dimension_report(est)
    if args.format == "json":
        _emit_json(report, args.output)
    elif args.format == "csv":
        _emit_trace_csv(report["trace"], args.output)
    else:
        lines = [
            f"estimated signal dimension: {est.d_hat} "
            f"(method={est.method}, strategy={est.strategy}, alpha={est.alpha})"
        ]
        for t in est.trace:
            lines.append(
                f"  q={t.q}: stat={t.scaled_stat:.4f} df={t.df} p={t.p_value:.4g}"
            )
        _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def cmd_test(args) -> int:
    _check_test_args(args.alpha, args.test_kind, args.bootstrap_reps)
    x = load_csv(args.input, header=args.header)
    lags, method = _resolve_lags(args)
    seed = _seed(args)
    if args.test_kind == "asymptotic":
        ts = noise_test(x, lags, args.q, method)
    else:
        ts = bootstrap_noise_test(x, lags, args.q, method, args.bootstrap_reps, seed)
    report = test_report(ts)
    if args.format == "json":
        _emit_json(report, args.output)
    elif args.format == "csv":
        _emit_trace_csv([report], args.output)
    else:
        _emit(
            f"H0(q={ts.q}): stat={ts.scaled_stat:.4f} df={ts.df} "
            f"p={ts.p_value:.4g} method={ts.method}\n",
            args.output,
        )
    return EXIT_OK


def cmd_simulate(args) -> int:
    # Imported here: sosdim.simulate loads scipy.signal, which the other
    # subcommands do not need.
    from .simulate import SETTING_NAMES, dimension_table, make_setting, rejection_table

    if args.setting not in SETTING_NAMES:
        raise InvalidInputError(
            f"unknown setting: {args.setting!r}; expected one of {SETTING_NAMES}"
        )
    if args.reps < 1:
        raise InvalidInputError("--reps must be >= 1")
    if args.threads < 1:
        raise InvalidInputError(f"--threads must be >= 1, got {args.threads}")
    try:
        n_list = tuple(int(n) for n in args.n.split(","))
    except ValueError:
        raise InvalidInputError(f"bad sample-size list: {args.n!r}") from None
    methods = tuple(args.methods.split(","))
    setting = make_setting(args.setting)
    seed = _seed(args)
    start = time.perf_counter()
    if args.table == "rejection":
        if args.q is None:
            raise InvalidInputError("rejection table needs --q")
        table = rejection_table(
            setting, n_list, methods, args.q,
            alpha=args.alpha, reps=args.reps, seed=seed,
            test_kind=args.test_kind, b_reps=args.bootstrap_reps,
            n_jobs=args.threads,
        )
    else:
        table = dimension_table(
            setting, n_list, methods,
            alpha=args.alpha, strategy=args.strategy, reps=args.reps, seed=seed,
            estimator_kind=args.test_kind, b_reps=args.bootstrap_reps,
            n_jobs=args.threads,
        )
    elapsed = time.perf_counter() - start
    if args.format == "json":
        _emit_json(table.to_dict(), args.output)
    else:
        _emit(table.to_csv(), args.output)
    for method, seconds in table.timings.items():
        print(f"# wall-clock {method}: {seconds:.3f} s", file=sys.stderr)
    print(f"# wall-clock total: {elapsed:.3f} s", file=sys.stderr)
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    try:
        if args.command == "estimate":
            return cmd_estimate(args)
        if args.command == "test":
            return cmd_test(args)
        return cmd_simulate(args)
    except NearSingularCovarianceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except np.linalg.LinAlgError as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (InvalidInputError, SosdimError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
