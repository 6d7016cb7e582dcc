"""Correctness checks on job outputs.

Each check returns a list of problems; an empty list means the job
passed. A problem is ``(kind, text)``: ``"wrong"`` for an output a
correct program never produces, ``"miss"`` for an estimate that differs
from the generating recipe's true dimension. A miss also happens to a
correct program at a rate set by the test's size and power (and here
also through the calibration defect of the hypotheses above the true
dimension), and which seeds miss is a property of the data, not of the
run. So a miss is counted and reported on its own, as the true-d miss
rate, and does not make a job fail.
"""

from __future__ import annotations

import json
import re

import jsonschema
from scipy.stats import chi2

P_TOL = 1e-10
STAT_RTOL = 1e-10


def _load_json(job, schema):
    if job["code"] != 0:
        return None, [("wrong", f"exit code {job['code']}: {job['err'].strip()[-300:]}")]
    try:
        report = json.loads(job["out"])
        jsonschema.validate(report, schema)
    except (ValueError, jsonschema.ValidationError) as exc:
        return None, [("wrong", f"bad report: {str(exc)[:300]}")]
    return report, []


def check_estimate(job, reference, schema, true_d):
    """Schema, chi-square identity, agreement with a loadtxt-parsed reference, d."""
    report, problems = _load_json(job, schema)
    if report is None:
        return problems
    for t in report["trace"]:
        expected = float(chi2.sf(t["stat"], t["df"]))
        if abs(t["p_value"] - expected) > P_TOL:
            problems.append(("wrong", f"q={t['q']}: p={t['p_value']!r} but "
                                      f"chi2.sf(stat, df)={expected!r}"))
    ref = {t.q: t for t in reference.trace}
    if report["d_hat"] != reference.d_hat:
        problems.append(("wrong", f"d_hat {report['d_hat']} != reference "
                                  f"{reference.d_hat}"))
    if [t["q"] for t in report["trace"]] != [t.q for t in reference.trace]:
        problems.append(("wrong", "hypothesis sequence differs from reference"))
    for t in report["trace"]:
        r = ref.get(t["q"])
        if r is not None and (t["df"] != r.df or abs(t["p_value"] - r.p_value) > P_TOL):
            problems.append(("wrong", f"q={t['q']}: p={t['p_value']!r} df={t['df']} "
                                      f"vs reference p={r.p_value!r} df={r.df}"))
    if report["d_hat"] != true_d:
        problems.append(("miss", f"d_hat {report['d_hat']} != true d {true_d}"))
    return problems


def check_bootstrap(job, reference, schema, b_reps):
    """Statistic and df as the asymptotic test; p-value of the form (1+c)/(B+1)."""
    report, problems = _load_json(job, schema)
    if report is None:
        return problems
    if report["df"] != reference.df:
        problems.append(("wrong", f"df {report['df']} != asymptotic {reference.df}"))
    if abs(report["stat"] - reference.scaled_stat) > STAT_RTOL * abs(reference.scaled_stat):
        problems.append(("wrong", f"stat {report['stat']!r} != asymptotic "
                                  f"{reference.scaled_stat!r}"))
    c = report["p_value"] * (b_reps + 1) - 1
    if abs(c - round(c)) > 1e-6 or not 0 <= round(c) <= b_reps:
        problems.append(("wrong", f"p-value {report['p_value']!r} is not (1+c)/(B+1)"))
    return problems


def check_dimension_table(job, n_list, methods, p, reps):
    """CSV dimension table: one row per (n, method, d), frequencies k/reps summing to 1."""
    if job["code"] != 0:
        return [("wrong", f"exit code {job['code']}: {job['err'].strip()[-300:]}")]
    lines = job["out"].splitlines()
    expected = [f"{n},{m},{d}" for n in n_list for m in methods for d in range(p + 1)]
    if lines[:1] != ["n,method,d_hat,frequency"] or len(lines) != len(expected) + 1:
        return [("wrong", "dimension table has the wrong header or row count")]
    problems = []
    totals = {}
    for line, key in zip(lines[1:], expected):
        head, _, freq = line.rpartition(",")
        try:
            k = float(freq) * reps
            ok = head == key and k >= 0 and abs(k - round(k)) <= 1e-3
        except (ValueError, OverflowError):  # not a finite number
            ok = False
        if not ok:
            problems.append(("wrong", f"bad table row {line!r}"))
            continue
        cell = key.rsplit(",", 1)[0]
        totals[cell] = totals.get(cell, 0) + round(k)
    problems += [("wrong", f"cell {c} sums to {t}/{reps}")
                 for c, t in totals.items() if t != reps]
    return problems


def check_csv_error(job, row, col):
    """Exit code 2 and an error message naming the bad row and column."""
    text = job["err"]
    if job["code"] != 2:
        return [("wrong", f"exit code {job['code']} instead of 2")]
    if not (re.search(rf"\brow {row}\b", text) and re.search(rf"\bcolumn {col}\b", text)):
        return [("wrong", f"error does not name row {row}, column {col}: "
                          f"{text.strip()[:200]!r}")]
    return []


def check_same_output(job, first, what):
    if job["code"] == 0 and job["out"] != first["out"]:
        return [("wrong", f"output differs from {what}")]
    return []
