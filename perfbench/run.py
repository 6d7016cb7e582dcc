"""sosdim benchmark: four CLI workloads, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Inputs are generated from --seed by ``inputs.py``; the program only
receives the CSV files (simulate_h1's job is the generator, so it gets
the seed). A closed-loop client process (``jobloop.py``) runs one
``sosdim.cli.main(argv)`` job after another for --seconds after one
warm-up job per argv. At most two cores are busy at once: BLAS is pinned to one
thread per process, simulate_h1's two pool workers run while the client
waits, and the calibration loop (calib.py) runs between jobs.

--trace 0 prints the end-to-end metrics (tracing off); times are
host-speed adjusted (see calib.py) and the raw wall times are in the
report line. --trace 1 prints the per-layer metrics from spans recorded
around calls into each module (see tracing.py and layers.py).

Every job's output is checked (see checks.py). ``failed`` counts jobs
with an output a correct program never produces, so fail_rate = failed /
attempted and ``correct`` is false when any job failed. Estimates that
differ from the recipe's true d are counted apart, as the true-d miss
rate (see checks.py). The last stdout line is the JSON result.
"""

from __future__ import annotations

import os

# Before numpy loads, here and in every child: one BLAS thread per process.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import zlib  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median, quantiles  # noqa: E402

import calib  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 3
IMPORTTIME_SAMPLES = 3
CYCLE_SEEDS = 100  # distinct {cycle_seed} values; later cycles reuse them
RUNNER_TIMEOUT_S = 150


def _fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _parse_args():
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not 0 <= args.seed < 2**63:
        _fail("--seed must be a non-negative 64-bit integer")
    if args.seconds <= 0:
        _fail("--seconds must be positive")
    return args


def _child_env():
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _fresh_python(args):
    """Run a fresh interpreter; returns ([wall, cal before, cal after], process)."""
    cal = calib.Calibrator()
    before = cal.loop_s()
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], env=_child_env(), cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    wall = time.perf_counter() - start
    after = cal.loop_s()
    if proc.returncode != 0:
        _fail(f"fresh interpreter failed: {proc.stderr.strip()[-500:]}")
    return [wall, before, after], proc


def _machine():
    import numpy
    import scipy

    def read(path):
        try:
            return Path(path).read_text().strip()
        except OSError:
            return "unknown"

    model = next((line.split(":", 1)[1].strip()
                  for line in read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), platform.processor())
    caches = sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"))
    llc = max(((read(c / "level"), read(c / "size")) for c in caches),
              default=("?", "unknown"))
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "last_level_cache": f"L{llc[0]} {llc[1]}",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}: "
                f"{blas.get('openblas configuration', '')}",
        "blas_threads": THREAD_ENV,
    }


def _bad_copies(path, work, wl, seed_words):
    """Copies of the CSV with one non-numeric cell and one short (ragged) row.

    Returns [(path, row, column)] with 1-based positions the error must name.
    """
    import numpy as np

    rng = np.random.default_rng(seed_words + [1])
    lines = path.read_bytes().split(b"\n")
    p = lines[0].count(b",") + 1
    row_nan, row_short = (int(r) + 1 for r in
                          rng.choice(np.arange(wl.n_obs // 2, wl.n_obs), 2, replace=False))
    col_nan = int(rng.integers(1, p + 1))
    out = []
    for row, col, name in ((row_nan, col_nan, "nan_cell"), (row_short, p, "ragged_row")):
        bad = list(lines)
        fields = bad[row - 1].split(b",")
        if name == "nan_cell":
            fields[col - 1] = b"NA"
        else:
            fields = fields[:-1]
        bad[row - 1] = b",".join(fields)
        target = work / f"{name}.csv"
        target.write_bytes(b"\n".join(bad))
        out.append((target, row, col))
    return out


def _summary(walls):
    """Median, quartiles, count and the highest percentile with ten samples beyond it."""
    walls = sorted(walls)
    n = len(walls)
    q1, _, q3 = quantiles(walls, n=4) if n > 1 else (walls[0],) * 3
    tail = {"percentile": round(100.0 * (n - 10) / n, 2), "value": walls[n - 11]} \
        if n > 10 else None
    return {"median": median(walls), "q1": q1, "q3": q3, "samples": n, "tail": tail}


def main():
    if not (SRC / "sosdim" / "cli.py").is_file():
        _fail(f"no sosdim sources under {SRC}; run from a full checkout")
    args = _parse_args()
    sys.path.insert(0, str(SRC))

    import numpy as np
    import sosdim
    if Path(sosdim.__file__).resolve().parent != (SRC / "sosdim").resolve():
        _fail(f"imported sosdim from {sosdim.__file__}, not from {SRC}")
    from sosdim.dimtest import REPORT_SCHEMA, TEST_SCHEMA, estimate_dimension, noise_test
    from sosdim.series import MultiSeries

    import checks
    import layers
    from inputs import RECIPES, write_csv
    from workloads import LAYER_MAP, SIM_METHODS, SIM_N, SIM_P, SIM_REPS, SIM_WORKERS, \
        WORKLOADS

    wl = WORKLOADS[args.workload]
    seed_words = [args.seed, zlib.crc32(wl.name.encode())]
    work = HERE / "_work" / str(os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        inputs = {"seed": args.seed}
        csv_paths, references, true_d = [], [], None
        if wl.recipe:
            gen, true_d = RECIPES[wl.recipe]
            for i in range(wl.files):
                path = work / f"{wl.name}_{i}.csv"
                size = write_csv(path, gen(wl.n_obs, seed_words + [i] if i else seed_words))
                inputs[path.name] = {"bytes": size, "rows": wl.n_obs,
                                     "recipe": wl.recipe, "true_d": true_d}
                # The reference path parses the file independently of the program.
                x = MultiSeries(np.loadtxt(path, delimiter=","))
                references.append(estimate_dimension(x, wl.lags, method=wl.method)
                                  if wl.kind == "estimate"
                                  else noise_test(x, wl.lags, wl.q, wl.method))
                csv_paths.append(path)
        input_bytes = (sum(inputs[p.name]["bytes"] for p in csv_paths) / len(csv_paths)
                       if csv_paths else 0)
        # Job i runs argvs[i % len(argvs)]: input file i % files and, where the
        # template has {cycle_seed}, a seed of its own for each cycle.
        cycles = CYCLE_SEEDS if any("{cycle_seed}" in a for a in wl.argv) else 1
        argvs = [[a.format(input=csv_paths[i % wl.files] if csv_paths else None,
                           seed=args.seed,
                           cycle_seed=args.seed * cycles + i // wl.files)
                  for a in wl.argv]
                 for i in range(wl.files * cycles)]
        argv = argvs[0]
        cfg = {"src": str(SRC), "argvs": argvs, "cycle": wl.files,
               "seconds": args.seconds, "trace": bool(args.trace),
               "min_jobs": (2 if args.trace else 3) * wl.files,
               "cores": SIM_WORKERS if wl.kind == "simulate" else 1}
        bad = []
        if wl.name == "estimate_tall" and not args.trace:
            bad = _bad_copies(csv_paths[0], work, wl, seed_words)
            cfg["probes"] = [["estimate", "--input", str(b[0]), "--lag-preset", "amuse"]
                             for b in bad]
        if args.trace:
            if wl.kind == "simulate":
                cfg["serial_argv"] = [("1" if prev == "--threads" else a)
                                      for prev, a in zip([None] + argv, argv)]
                cfg["all_q"] = {"setting": "H1", "n": SIM_N[1],
                                "entropy": [args.seed, SIM_N[1], 0],
                                "lags": list(range(1, 7)), "method": "sobi"}
            else:
                cfg["all_q"] = {"input": str(csv_paths[0]), "lags": list(wl.lags),
                                "method": wl.method}
        cfg_path, result_path = work / "config.json", work / "result.json"
        cfg_path.write_text(json.dumps(cfg))
        proc = subprocess.run(
            [sys.executable, str(HERE / "jobloop.py"), str(cfg_path), str(result_path)],
            env=_child_env(), cwd=ROOT, capture_output=True, text=True,
            timeout=RUNNER_TIMEOUT_S)
        if proc.returncode != 0 or not result_path.is_file():
            _fail(f"job loop failed: {proc.stderr.strip()[-1000:]}")
        res = json.loads(result_path.read_text())

        # Correctness: every job, warm-up and probes included.
        if wl.kind == "estimate":
            def check(job, i):
                return checks.check_estimate(job, references[i], REPORT_SCHEMA, true_d)
        elif wl.kind == "bootstrap":
            def check(job, i):
                return checks.check_bootstrap(job, references[i], TEST_SCHEMA,
                                              wl.replicates)
        else:
            def check(job, i):
                return checks.check_dimension_table(job, SIM_N, SIM_METHODS, SIM_P,
                                                    SIM_REPS)
        first = res["warmup"][0]
        # A job with the same argv as a warm-up job must print the same output.
        warm = {tuple(a): j for a, j in zip(argvs, res["warmup"])}
        verdicts = [check(j, i) for i, j in enumerate(res["warmup"])] + [
            check(j, i % wl.files) + checks.check_same_output(
                j, warm.get(tuple(argvs[i % len(argvs)]), j), "the warm-up job")
            for jobs in (res["jobs"], res["traced"]) for i, j in enumerate(jobs)]
        if "serial" in res:
            verdicts.append(check(res["serial"], 0) + checks.check_same_output(
                res["serial"], first, "the 2-worker jobs (--threads 1 run)"))
        verdicts += [checks.check_csv_error(job, row, col)
                     for job, (_, row, col) in zip(res["probes"], bad)]
        attempted = len(verdicts)
        failed = sum(any(kind == "wrong" for kind, _ in v) for v in verdicts)
        missed = sum(any(kind == "miss" for kind, _ in v) for v in verdicts)
        problems = [p for v in verdicts for p in v]
        correct = failed == 0

        walls = [j["wall"] for j in res["jobs"]]
        loops = [c for j in res["jobs"] for c in j["cal"]]
        report = {
            "workload": wl.name, "why": wl.why, "argv": argvs, "seconds": args.seconds,
            "loop": "closed, one client process, one job at a time",
            "machine": _machine(), "inputs": inputs,
            "job_wall_s": _summary(walls), "calibration_loop_s": _summary(loops),
            "calibration_ref_s": calib.REF_S, "fail_rate": failed / attempted,
            "true_d_miss_rate": missed / attempted,
            "problems": sorted({f"{k}: {t}" for k, t in problems})[:20],
        }
        if not args.trace:
            setup = [_fresh_python(["-c", "import sosdim.cli"])[0]
                     for _ in range(SETUP_SAMPLES)]
            job_s = calib.adjusted([[j["wall"], *j["cal"]] for j in res["jobs"]],
                                   wl.files)
            metrics = {
                "job_s": (job_s, "s"),
                "setup_s": (calib.adjusted(setup), "s"),
                "replicates_per_s": (wl.replicates / job_s, "1/s"),
                "peak_rss_mb": (res["peak_rss_mb"], "MB"),
            }
            report["setup_samples"] = {"wall_s": [s[0] for s in setup],
                                       "calibration_loop_s": [s[1:] for s in setup]}
        else:
            imports = [_fresh_python(["-X", "importtime", "-c", "import sosdim.cli"])[1]
                       .stderr for _ in range(IMPORTTIME_SAMPLES)]
            values = layers.layer_metrics(
                res["traced"], walls, res.get("serial"), res.get("all_q_s", []),
                imports, input_bytes, SIM_WORKERS)
            metrics = {k: (values[k], u) for k, u in layers.UNITS.items()}
            report["traced_job_s"] = _summary([j["wall"] for j in res["traced"]])
            report["layer_map"] = LAYER_MAP
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for name, (value, unit) in metrics.items():
        print(f"{wl.name:14s} {name:32s} {value:14.6g} {unit}")
    print(f"{wl.name:14s} {'fail_rate':32s} {report['fail_rate']:14.6g} ratio "
          f"({failed} of {attempted} jobs)")
    if wl.kind == "estimate":
        print(f"{wl.name:14s} {'true_d_miss_rate':32s} "
              f"{report['true_d_miss_rate']:14.6g} ratio "
              f"({missed} of {attempted} jobs estimate d != {true_d})")
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
