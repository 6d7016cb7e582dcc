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
from functools import lru_cache

import numpy as np

from .bss import LAG_PRESETS
from .dimtest import (
    STRATEGIES,
    _ENTRY_FIELDS,
    _check_test_args,
    dimension_report,
    estimate_dimension,
    noise_test,
    test_report,
)
from .errors import InvalidInputError, NearSingularCovarianceError, SosdimError
from .series import LagSet, _available_cpus, load_csv

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
    sim.add_argument("--threads", type=int, default=_available_cpus(),
                     help="worker processes, this one included (default: the "
                          "CPUs this process may run on); results do not "
                          "depend on it")
    _add_common(sim)
    return parser


#: main's parser, built once per process.
_parser = lru_cache(maxsize=None)(build_parser)


def _note_bootstrap_floor(args):
    """Say on stderr when a bootstrap cannot reject: with B replicates its
    smallest p-value is 1/(B + 1), and a test rejects below --alpha."""
    b = args.bootstrap_reps
    if args.test_kind == "bootstrap" and 1 / (b + 1) >= args.alpha:
        print(f"note: the smallest p-value of a bootstrap with -B {b} is "
              f"1/{b + 1}, not below --alpha {args.alpha}, so no test can "
              f"reject", file=sys.stderr)


def _fit_args(args):
    """(series, lags, method, seed) of an estimate or test call. Every
    argument is checked before the CSV is read. The lags are --lags or
    --lag-preset (sobi6 if neither), and the method is amuse at one lag and
    sobi otherwise."""
    _check_test_args(args.test_kind, args.bootstrap_reps, None, args.alpha)
    if args.lags is not None and args.lag_preset is not None:
        raise InvalidInputError("--lags and --lag-preset are mutually exclusive")
    if args.lags is None:
        lags = LAG_PRESETS[args.lag_preset or "sobi6"]
    else:
        try:
            lags = tuple(int(t) for t in args.lags.split(","))
        except ValueError:
            raise InvalidInputError(f"bad lag list: {args.lags!r}") from None
    lags, seed = LagSet(lags), _seed(args)
    _note_bootstrap_floor(args)
    x = load_csv(args.input, header=args.header)
    return x, lags, "amuse" if len(lags) == 1 else "sobi", seed


def _emit(text: str, output):
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(payload: dict, output):
    _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", output)


def _emit_report(args, report: dict, entries: list, text_lines: list) -> int:
    """Write an estimate or test report in --format: the JSON report, a
    CSV of the _ENTRY_FIELDS of each _test_entry dict of entries, or the
    text lines."""
    if args.format == "json":
        _emit_json(report, args.output)
        return EXIT_OK
    lines = text_lines
    if args.format == "csv":
        lines = [",".join(_ENTRY_FIELDS)] + [
            ",".join(f"{t[k]:.12g}" for k in _ENTRY_FIELDS) for t in entries]
    _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def cmd_estimate(args) -> int:
    x, lags, method, seed = _fit_args(args)
    est = estimate_dimension(x, lags, alpha=args.alpha, strategy=args.strategy,
                             method=method, test_kind=args.test_kind,
                             b_reps=args.bootstrap_reps, seed=seed)
    report = dimension_report(est)
    return _emit_report(args, report, report["trace"], [
        f"estimated signal dimension: {est.d_hat} "
        f"(method={est.method}, strategy={est.strategy}, alpha={est.alpha})",
        *(f"  q={t.q}: stat={t.scaled_stat:.4f} df={t.df} p={t.p_value:.4g}"
          for t in est.trace)])


def cmd_test(args) -> int:
    x, lags, method, seed = _fit_args(args)
    ts = noise_test(x, lags, args.q, method, args.test_kind, args.bootstrap_reps, seed)
    report = test_report(ts)
    return _emit_report(args, report, [report], [
        f"H0(q={ts.q}): stat={ts.scaled_stat:.4f} df={ts.df} "
        f"p={ts.p_value:.4g} method={ts.method}"])


def cmd_simulate(args) -> int:
    # Imported here: sosdim.simulate loads scipy.signal, which the other
    # subcommands do not need.
    from .simulate import dimension_table, make_setting, rejection_table

    setting = make_setting(args.setting)
    if args.reps < 1:
        raise InvalidInputError("--reps must be >= 1")
    if args.threads < 1:
        raise InvalidInputError(f"--threads must be >= 1, got {args.threads}")
    try:
        n_list = tuple(int(n) for n in args.n.split(","))
    except ValueError:
        raise InvalidInputError(f"bad sample-size list: {args.n!r}") from None
    methods = tuple(args.methods.split(","))
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
            test_kind=args.test_kind, b_reps=args.bootstrap_reps,
            n_jobs=args.threads,
        )
    elapsed = time.perf_counter() - start
    _note_bootstrap_floor(args)
    if args.format == "json":
        _emit_json(table.to_dict(), args.output)
    else:
        _emit(table.to_csv(), args.output)
    print(f"# wall-clock total: {elapsed:.3f} s", file=sys.stderr)
    return EXIT_OK


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
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
    except (SosdimError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
