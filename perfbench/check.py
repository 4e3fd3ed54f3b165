"""Checks a pass's CSV outputs against the stored reference for its seed.

Every CSV row a call should produce is one attempted output; `fail_rate` is
failed rows over attempted rows.  Rules, per column:

* headers and row counts must match exactly; a call that exited non-zero or
  raised fails all of its expected rows;
* labels (`x`, `policy`, `seed`, `n`, `m`, `K`, `mode`, ...) must match as
  text, and parameters (`r`, `gamma`, `gamma1`) to 1e-12 relative;
* a Monte Carlo mean must agree with the reference mean within `Z_SCORE`
  combined standard errors, `sqrt(se**2 + se_ref**2)`, plus 1e-9 relative
  slack for rows whose standard error is zero; its standard error must lie
  within a factor `SE_FACTOR` of the reference's;
* an analytic D2D value (`mode` is `analytic`) must agree to 1e-9 relative,
  with a zero standard error;
* for workloads whose means depend on which optimal LP vertex the solver
  returns, a mean is only checked to lie in `[0, n_users]`; the LP optimum
  (`LPReport.objective`, from the traced run) must agree to `LP_REL_TOL`
  relative instead.
"""

from __future__ import annotations

import math

Z_SCORE = 6.0
SE_FACTOR = 2.0
ANALYTIC_REL_TOL = 1e-9
PARAM_REL_TOL = 1e-12
LP_REL_TOL = 1e-6

_PARAMS = {"r", "gamma", "gamma1"}
_ESTIMATES = {"mean_satisfied", "mean_active", "ratio"}


def parse_csv(text: str) -> tuple[list[str], list[list[str]]]:
    lines = text.splitlines()
    if not lines:
        return [], []
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def row_problems(header, row, ref, vertex_dependent=False, n_users=0) -> list[str]:
    """Why `row` disagrees with the reference row `ref`; empty when it agrees."""
    if len(row) != len(header):
        return [f"{len(row)} fields for {len(header)} columns"]
    got = dict(zip(header, row))
    want = dict(zip(header, ref))
    try:
        return _compare(got, want, vertex_dependent, n_users)
    except ValueError as exc:
        return [f"unparseable value: {exc}"]


def _compare(got: dict, want: dict, vertex_dependent: bool, n_users: int) -> list[str]:
    problems = []
    analytic = want.get("mode") == "analytic"
    for col, ref_text in want.items():
        text = got[col]
        if col in _PARAMS:
            if (text == "") != (ref_text == "") or (
                text and not _close(float(text), float(ref_text), PARAM_REL_TOL)
            ):
                problems.append(f"{col}={text} expected {ref_text}")
        elif col in _ESTIMATES:
            problems += _estimate(col, got, want, analytic, vertex_dependent, n_users)
        elif col == "stderr":
            problems += _stderr(got, want, analytic, vertex_dependent)
        elif text != ref_text:
            problems.append(f"{col}={text} expected {ref_text}")
    return problems


def _estimate(col, got, want, analytic, vertex_dependent, n_users) -> list[str]:
    value, ref = float(got[col]), float(want[col])
    if not math.isfinite(value):
        return [f"{col}={value} is not finite"]
    if vertex_dependent:
        if not 0.0 <= value <= n_users:
            return [f"{col}={value} outside [0, {n_users}]"]
        return []
    if analytic:
        if not _close(value, ref, ANALYTIC_REL_TOL):
            return [f"{col}={value!r} expected {ref!r} (analytic)"]
        return []
    # `ratio` is `mean_active / n`, so its standard error is `stderr / n`.
    scale = float(want["n"]) if col == "ratio" else 1.0
    se = float(got["stderr"]) / scale
    se_ref = float(want["stderr"]) / scale
    slack = Z_SCORE * math.hypot(se, se_ref) + ANALYTIC_REL_TOL * max(abs(ref), 1.0)
    if not abs(value - ref) <= slack:
        return [f"{col}={value!r} expected {ref!r} within {slack:.3g}"]
    return []


def _stderr(got, want, analytic, vertex_dependent) -> list[str]:
    se, se_ref = float(got["stderr"]), float(want["stderr"])
    if not (math.isfinite(se) and se >= 0.0):
        return [f"stderr={se} is not a finite non-negative number"]
    if analytic:
        return [] if se == 0.0 else [f"stderr={se} of an analytic row"]
    if vertex_dependent:
        return []
    if se_ref == 0.0:
        return [] if se <= ANALYTIC_REL_TOL else [f"stderr={se} expected 0"]
    if not se_ref / SE_FACTOR <= se <= se_ref * SE_FACTOR:
        return [f"stderr={se!r} not within a factor {SE_FACTOR} of {se_ref!r}"]
    return []


def check_call(call, outcome: dict, text: str | None, ref_text: str, workload) -> list[str]:
    """One message per failed row of one call, so at most `call.rows`."""
    if outcome["error"] is not None or outcome["exit"] != 0:
        reason = outcome["error"] or f"exit code {outcome['exit']}"
        return [reason] * call.rows
    if text is None:
        return ["no output file"] * call.rows
    header, rows = parse_csv(text)
    ref_header, ref_rows = parse_csv(ref_text)
    if header != ref_header:
        return [f"header {header} expected {ref_header}"] * call.rows
    if len(rows) != call.rows or len(ref_rows) != call.rows:
        return [f"{len(rows)} rows, expected {call.rows}"] * call.rows
    failed = []
    for number, (row, ref) in enumerate(zip(rows, ref_rows)):
        problems = row_problems(
            header, row, ref, workload.vertex_dependent, workload.n_users
        )
        if problems:
            failed.append(f"row {number}: " + "; ".join(problems))
    return failed


def objective_problems(objectives, ref_objectives) -> list[str | None]:
    """Per LP optimum, why it disagrees with the reference (None if it agrees);
    a count mismatch fails every position."""
    if len(objectives) != len(ref_objectives):
        return [f"{len(objectives)} LP optima, expected {len(ref_objectives)}"] * max(
            len(ref_objectives), 1
        )
    return [
        None if _close(got, want, LP_REL_TOL) else f"LP optimum {got!r} expected {want!r}"
        for got, want in zip(objectives, ref_objectives)
    ]
