"""Workload definitions and the rationale later changes cite by name.

Every job is one ``sosdim.cli.main(argv)`` call, exactly what the
``sosdim`` console script runs. ``{input}`` and ``{seed}`` in an argv
template are filled in per run, ``{cycle_seed}`` per cycle. A workload
with ``files`` k > 1 reads k input files in turn, one per job, and its
job_s is the median over cycles of k jobs of the mean job time.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "estimate" | "bootstrap" | "simulate"
    argv: tuple
    why: str
    recipe: str | None = None  # inputs.RECIPES key; None when no CSV is read
    n_obs: int = 0
    lags: tuple = ()
    method: str = ""
    replicates: int = 1  # per job: B, the table's (n, method, rep) cells, or 1 series
    q: int = 0
    files: int = 1  # input files, read one per job in turn


SIM_N = (500, 1000, 2000)
SIM_REPS = 60
SIM_METHODS = ("amuse", "sobi6", "sobi12")
SIM_P = 5  # H1 has five channels
SIM_WORKERS = 2

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="estimate_tall",
            kind="estimate",
            argv=("estimate", "--input", "{input}", "--lag-preset", "amuse"),
            why="series.load_csv is most of the job and jointdiag does no work, "
                "so a CSV change shows here and a diagonalizer change must not",
            recipe="S5", n_obs=50_000, lags=(1,), method="amuse",
        ),
        Workload(
            name="estimate_wide",
            kind="estimate",
            argv=("estimate", "--input", "{input}", "--lag-preset", "sobi12"),
            why="one large cold SOBI fit (100 Jacobi sweeps at p=20) dominates "
                "the job: the diagonalizer's headline workload",
            recipe="S5", n_obs=10_000, lags=tuple(range(1, 13)), method="sobi",
        ),
        # One B=100 test takes about 4 s, so a run held only three or four
        # samples, and host-speed changes inside a job escaped the
        # calibration loops around it. A B=25 test takes about 1 s, but how
        # many sweeps its refits need depends on the input file: over ten
        # run seeds, the total sweeps of twelve B=25 tests on one file had
        # a quartile spread of 9% of the median. Cycling through four files,
        # with a new bootstrap seed each cycle, brought it to 3%.
        Workload(
            name="bootstrap_d1",
            kind="bootstrap",
            argv=("test", "--input", "{input}", "--test-kind", "bootstrap",
                  "-B", "25", "--q", "5", "--lag-preset", "sobi6",
                  "--seed", "{cycle_seed}"),
            why="B=25 bootstrap tests on four D1 files in turn: mid-size refits "
                "with negligible CSV cost, so warm starts, the stopping rule "
                "and per-replicate overhead show here",
            recipe="D1", n_obs=2_000, lags=tuple(range(1, 7)), method="sobi",
            replicates=25, q=5, files=4,
        ),
        Workload(
            name="simulate_h1",
            kind="simulate",
            argv=("simulate", "--setting", "H1", "--table", "dimension",
                  "--n", ",".join(map(str, SIM_N)), "--reps", str(SIM_REPS),
                  "--methods", ",".join(SIM_METHODS),
                  "--threads", str(SIM_WORKERS), "--format", "csv",
                  "--seed", "{seed}"),
            why="540 tiny p=5 fits and nine per-cell process pools, no CSV: a "
                "Jacobi change that wins at p=20 but loses at p=5 shows here",
            replicates=len(SIM_N) * SIM_REPS * len(SIM_METHODS),
        ),
    )
}

#: Per-layer metric -> the end-to-end metric and workload it should move.
LAYER_MAP = {
    "series.load_csv_s": "job_s and peak_rss_mb on estimate_tall, partly on "
                         "estimate_wide, not at all on simulate_h1",
    "series.load_csv_mb_per_s": "as series.load_csv_s (file bytes / time)",
    "series.standardized_autocovs_s": "job_s on every workload, mostly "
                                      "estimate_tall (T=50,000)",
    "jointdiag.joint_diagonalize_s": "job_s on estimate_wide, replicates_per_s "
                                     "on bootstrap_d1; flat on estimate_tall; "
                                     "must not worsen simulate_h1",
    "jointdiag.sweeps": "as jointdiag.joint_diagonalize_s",
    "jointdiag.s_per_sweep": "as jointdiag.joint_diagonalize_s",
    "jointdiag.converged_share": "quality guard: must not fall",
    "jointdiag.final_off_criterion": "quality guard: must not rise beyond its "
                                     "own noise",
    "bss.fit_s": "job_s on estimate_wide, replicates_per_s on bootstrap_d1 "
                 "and simulate_h1",
    "bss.self_s": "ordering and the Gamma product: flat everywhere",
    "dimtest.all_q_stats_s": "job_s on estimate_wide, very little",
    "dimtest.estimate_from_fit_s": "job_s on the estimate workloads and "
                                   "replicates_per_s on simulate_h1",
    "dimtest.hypotheses_evaluated": "exact count of tests per job",
    "dimtest.bootstrap_replicate_s": "replicates_per_s on bootstrap_d1",
    "dimtest.self_s": "job_s on every workload, slightly",
    "simulate.replicate_draw_s": "replicates_per_s on simulate_h1",
    "simulate.replicate_fit_s": "replicates_per_s on simulate_h1",
    "simulate.pool_overhead_s": "replicates_per_s on simulate_h1 (target of "
                                "pool-once-per-table)",
    "simulate.parallel_efficiency": "replicates_per_s on simulate_h1",
    "simulate.import_s": "setup_s on every workload",
    "cli.import_s": "setup_s on every workload",
    "cli.report_validate_s": "job_s on every JSON workload, slightly",
    "cli.self_s": "job_s on every workload, slightly",
    "trace.overhead_s": "none: traced minus untraced job_s",
}
