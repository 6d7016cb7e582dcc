"""Per-layer metrics from the spans of the traced pass.

Times of call-level spans are medians per call; ``*.self_s`` is a span's
duration minus the time its child spans cover. A layer the workload
never calls reads 0 (for example ``jointdiag`` on AMUSE-only
``estimate_tall``), which is the flat line later changes are held to.
"""

from __future__ import annotations

import re
from statistics import median


def _med(values):
    return float(median(values)) if values else 0.0


class Spans:
    """Spans of several jobs, with per-span child time precomputed."""

    def __init__(self, jobs):
        self.rows = []  # (job index, name, duration, self time, info, children)
        for j, spans in enumerate(jobs):
            children = [[] for _ in spans]
            for i, s in enumerate(spans):
                if s[3] >= 0:
                    children[s[3]].append(i)
            for i, (name, t0, t1, _, info) in enumerate(spans):
                kids = [(spans[c][0], spans[c][2] - spans[c][1]) for c in children[i]]
                self.rows.append((j, name, t1 - t0,
                                  t1 - t0 - sum(d for _, d in kids), info, kids))
        self.n_jobs = len(jobs)

    def of(self, name):
        return [r for r in self.rows if r[1] == name]

    def durations(self, name):
        return [r[2] for r in self.of(name)]

    def per_job_total(self, prefix, field):
        """Median over jobs that enter the layer of the job's summed field."""
        totals = {}
        for r in self.rows:
            if r[1].startswith(prefix):
                totals[r[0]] = totals.get(r[0], 0.0) + field(r)
        return _med(list(totals.values()))


def parse_importtime(stderr: str) -> dict:
    """Cumulative import seconds per module from ``python -X importtime``."""
    out = {}
    for line in stderr.splitlines():
        m = re.match(r"import time:\s*(\d+)\s*\|\s*(\d+)\s*\|(\s*)(\S+)", line)
        if m:
            out[m.group(4)] = (int(m.group(2)) * 1e-6, len(m.group(3)))
    return out


def import_split(runs):
    """(simulate.import_s, cli.import_s) medians over importtime outputs."""
    sim, rest = [], []
    for stderr in runs:
        mods = parse_importtime(stderr)
        top = min((depth for name, (_, depth) in mods.items()
                   if name.startswith("sosdim")), default=None)
        total = sum(s for name, (s, depth) in mods.items()
                    if name.startswith("sosdim") and depth == top)
        s = mods.get("sosdim.simulate", (0.0, 0))[0]
        sim.append(s)
        rest.append(total - s)
    return _med(sim), _med(rest)


def layer_metrics(traced, untraced_walls, serial, all_q_s, import_runs,
                  input_bytes, workers):
    """All per-layer metric values, keyed by metric name."""
    jobs = [j["spans"] for j in traced] + ([serial["spans"]] if serial else [])
    sp = Spans(jobs)
    jd = sp.of("jointdiag.joint_diagonalize")
    sweeps = [r[4][0] for r in jd if r[4] and r[4][0] is not None]
    load = _med(sp.durations("series.load_csv"))
    m = {
        "series.load_csv_s": load,
        "series.load_csv_mb_per_s": input_bytes / 1e6 / load if load else 0.0,
        "series.standardized_autocovs_s":
            _med(sp.durations("series.standardized_autocovs")),
        "jointdiag.joint_diagonalize_s": _med([r[2] for r in jd]),
        "jointdiag.sweeps": _med(sweeps),
        "jointdiag.s_per_sweep":
            sum(r[2] for r in jd) / sum(sweeps) if sum(sweeps) else 0.0,
        "jointdiag.converged_share":
            sum(bool(r[4] and r[4][1]) for r in jd) / len(jd) if jd else 0.0,
        "jointdiag.final_off_criterion":
            _med([r[4][2] for r in jd if r[4] and r[4][2] is not None]),
        "bss.fit_s": _med(sp.durations("bss.unmix")),
        "bss.self_s": _med([r[3] for r in sp.of("bss.unmix")]),
        "dimtest.all_q_stats_s": _med(all_q_s),
        "dimtest.estimate_from_fit_s":
            _med(sp.durations("dimtest.estimate_dimension_from_fit")),
        "dimtest.hypotheses_evaluated": sp.per_job_total(
            "dimtest.estimate_dimension_from_fit", lambda r: r[4] or 0),
        "dimtest.bootstrap_replicate_s": _med([
            (r[2] - fits[0][1]) / (len(fits) - 1)
            for r in sp.of("dimtest.bootstrap_noise_test")
            for fits in [[k for k in r[5] if k[0] == "bss.unmix"]]
            if len(fits) > 1
        ]),
        "dimtest.self_s": sp.per_job_total("dimtest.", lambda r: r[3]),
        "simulate.replicate_draw_s": _med(sp.durations("simulate.simulate_setting")),
        "simulate.replicate_fit_s": _med([
            r[2] for r in sp.of("dimtest.estimate_dimension")
            if serial and r[0] == sp.n_jobs - 1
        ]),
        "cli.report_validate_s": _med(sp.durations("cli.report_validate")),
        "cli.self_s": _med([r[3] for r in sp.of("cli.main")]),
        "trace.overhead_s":
            _med([j["wall"] for j in traced]) - _med(untraced_walls),
    }
    m["simulate.import_s"], m["cli.import_s"] = import_split(import_runs)
    if serial:
        last = [r for r in sp.rows if r[0] == sp.n_jobs - 1]
        work = sum(r[2] for r in last if r[1] in ("simulate.simulate_setting",
                                                  "dimtest.estimate_dimension"))
        parallel = _med(untraced_walls)
        m["simulate.pool_overhead_s"] = parallel - work / workers
        m["simulate.parallel_efficiency"] = serial["wall"] / (workers * parallel)
    else:
        m["simulate.pool_overhead_s"] = 0.0
        m["simulate.parallel_efficiency"] = 0.0
    return m


#: Unit of each per-layer metric; every one is reported on every workload.
UNITS = {
    "series.load_csv_s": "s",
    "series.load_csv_mb_per_s": "MB/s",
    "series.standardized_autocovs_s": "s",
    "jointdiag.joint_diagonalize_s": "s",
    "jointdiag.sweeps": "count",
    "jointdiag.s_per_sweep": "s",
    "jointdiag.converged_share": "ratio",
    "jointdiag.final_off_criterion": "1",
    "bss.fit_s": "s",
    "bss.self_s": "s",
    "dimtest.all_q_stats_s": "s",
    "dimtest.estimate_from_fit_s": "s",
    "dimtest.hypotheses_evaluated": "count",
    "dimtest.bootstrap_replicate_s": "s",
    "dimtest.self_s": "s",
    "simulate.replicate_draw_s": "s",
    "simulate.replicate_fit_s": "s",
    "simulate.pool_overhead_s": "s",
    "simulate.parallel_efficiency": "ratio",
    "simulate.import_s": "s",
    "cli.import_s": "s",
    "cli.report_validate_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}
