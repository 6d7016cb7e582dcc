"""Closed-loop client: runs ``sosdim.cli.main(argv)`` jobs back to back.

Usage: python3 jobloop.py CONFIG_JSON RESULT_JSON

One process, one job at a time, each started when the previous one has
returned. Job i runs ``argvs[i % len(argvs)]``, and the loop stops only
after a whole cycle of ``cycle`` jobs. Warm-up jobs run the first
``cycle`` argvs;
every later loop job is bracketed by calibration loops (see calib.py).
With ``trace`` false the loop times untraced jobs for ``seconds``; with
``trace`` true it alternates untraced and traced jobs, so the tracing
overhead is measured on neighbouring jobs. Then come the error-path probes, the optional serial job (traced)
and the all-q probe.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import calib
from tracing import Tracer


def _job(fn, argv, tracer=None):
    out, err = io.StringIO(), io.StringIO()
    if tracer is not None:
        tracer.install()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = tracer.run("cli.main", fn, argv) if tracer else fn(argv)
            except Exception:  # a crash is a failed job, not a failed run
                code = -1
                err.write(traceback.format_exc())
            wall = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    job = {"wall": wall, "code": code, "out": out.getvalue(), "err": err.getvalue()}
    if tracer is not None:
        job["spans"] = tracer.spans
    return job


def _bracketed(cal, fn, argv, tracer=None):
    """A job with a calibration loop timed right before and after it."""
    before = cal.loop_s()
    job = _job(fn, argv, tracer)
    job["cal"] = [before, cal.loop_s()]
    return job


def _all_q_seconds(cfg, repeats=5):
    """Time test_statistic for every q on one fit of the workload's data."""
    import numpy as np
    from sosdim.bss import unmix
    from sosdim.dimtest import test_statistic
    from sosdim.series import MultiSeries

    probe = cfg["all_q"]
    if "input" in probe:
        x = MultiSeries(np.loadtxt(probe["input"], delimiter=","))
    else:
        from sosdim.simulate import make_setting, simulate_setting
        x = simulate_setting(make_setting(probe["setting"]), probe["n"],
                             probe["entropy"])[0]
    fit = unmix(x, tuple(probe["lags"]), probe["method"])
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        for q in range(x.p):
            test_statistic(fit, q, x.T)
        times.append(time.perf_counter() - start)
    return times


def main(config_path, result_path):
    cfg = json.loads(Path(config_path).read_text())
    sys.path.insert(0, cfg["src"])
    from sosdim.cli import main as cli_main

    argvs, cycle, seconds = cfg["argvs"], cfg["cycle"], cfg["seconds"]
    result = {"warmup": [_job(cli_main, a) for a in argvs[:cycle]], "jobs": [],
              "traced": []}
    jobs = result["jobs"]
    with calib.Calibrator(cfg["cores"]) as cal:
        start = time.perf_counter()
        while (time.perf_counter() - start < seconds or len(jobs) < cfg["min_jobs"]
               or len(jobs) % cycle):
            argv = argvs[len(jobs) % len(argvs)]
            jobs.append(_bracketed(cal, cli_main, argv))
            if cfg["trace"]:
                result["traced"].append(_bracketed(cal, cli_main, argv, Tracer()))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["probes"] = [_job(cli_main, p) for p in cfg.get("probes", [])]
    if cfg.get("serial_argv"):
        result["serial"] = _job(cli_main, cfg["serial_argv"], Tracer())
    if cfg.get("all_q"):
        result["all_q_s"] = _all_q_seconds(cfg)
    Path(result_path).write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
