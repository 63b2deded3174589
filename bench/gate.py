"""Correctness gate for the CSV a workload command writes.

``compare`` checks a CSV against the reference recorded for the workload's
acceptance seed.  ``check_shape`` checks a CSV of any seed against the same
reference for what does not depend on the seed: header, row keys, value
domains.  Both return a list of problems; an empty list passes.
"""

from __future__ import annotations

import csv
import io
import math

# the loosest relative tolerance the unit-test oracles use (the Cramer-Rao
# bound against a brute-force Fisher information matrix)
REL_TOL = 1e-6

# per command: columns that must match exactly, and numeric columns that
# must match within REL_TOL
EXACT = {
    "montecarlo": ("sweep_value", "estimator", "source_index", "trials", "failures"),
    "septable": ("L",),
    "verify": ("check", "m", "n", "l", "threshold", "pass"),
}
CLOSE = {
    "montecarlo": ("mse", "mse_db", "crb", "crb_db"),
    "septable": ("min_snr_db_median", "min_snr_db_iqr"),
    "verify": ("statistic",),
}
# columns that identify a row whatever the seed
KEYS = {
    "montecarlo": ("sweep_value", "estimator", "source_index", "trials"),
    "septable": ("L",),
    "verify": ("check", "m", "n", "l", "threshold"),
}


def parse(text: str):
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        return (), []
    header = tuple(rows[0])
    return header, [dict(zip(header, row)) for row in rows[1:]]


def _close(got: str, want: str, abs_tol: float) -> bool:
    a, b = float(got), float(want)
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=abs_tol)


def _rows(command: str, text: str, reference: str):
    """Problems with the header and row keys, and the (row, reference row)
    pairs, or None when the two tables cannot be lined up."""
    header, rows = parse(text)
    ref_header, ref_rows = parse(reference)
    if header != ref_header:
        return [f"header {header} differs from reference {ref_header}"], None
    if len(rows) != len(ref_rows):
        return [f"{len(rows)} rows, reference has {len(ref_rows)}"], None
    problems = []
    for i, (row, ref) in enumerate(zip(rows, ref_rows), start=1):
        keys = [(c, row[c], ref[c]) for c in KEYS[command] if row[c] != ref[c]]
        if keys:
            problems.append(f"row {i}: key columns {keys} differ from reference")
    return problems, list(zip(rows, ref_rows))


def compare(command: str, text: str, reference: str) -> list:
    """Problems of a CSV against the reference for the same config and seed."""
    problems, pairs = _rows(command, text, reference)
    for i, (row, ref) in enumerate(pairs or (), start=1):
        for col in EXACT[command]:
            if row[col] != ref[col]:
                problems.append(f"row {i}: {col} = {row[col]!r}, reference {ref[col]!r}")
        # a verify statistic near zero (determinant-roots sits at ~1e-15)
        # is compared on the scale of its threshold
        abs_tol = REL_TOL * abs(float(ref["threshold"])) if command == "verify" else 0.0
        for col in CLOSE[command]:
            try:
                ok = _close(row[col], ref[col], abs_tol)
            except ValueError:
                ok = False
            if not ok:
                problems.append(
                    f"row {i}: {col} = {row[col]}, reference {ref[col]} (rel tol {REL_TOL:g})"
                )
    return problems


def check_shape(command: str, text: str, reference: str) -> list:
    """Problems of a CSV of any seed: schema, row keys and value domains."""
    problems, pairs = _rows(command, text, reference)
    if problems:
        return problems
    for i, (row, _) in enumerate(pairs, start=1):
        try:
            values = {c: float(row[c]) for c in CLOSE[command]}
        except ValueError as exc:
            problems.append(f"row {i}: {exc}")
            continue
        if command == "montecarlo":
            trials, failures = int(row["trials"]), int(row["failures"])
            if not 0 <= failures <= trials:
                problems.append(f"row {i}: failures {failures} outside [0, {trials}]")
            if not (math.isfinite(values["crb"]) and values["crb"] > 0):
                problems.append(f"row {i}: crb {row['crb']} is not positive and finite")
            if math.isnan(values["mse"]) != (failures == trials):
                problems.append(f"row {i}: mse {row['mse']} with {failures}/{trials} failures")
        elif not all(map(math.isfinite, values.values())):
            problems.append(f"row {i}: non-finite value in {values}")
        if command == "verify" and row["pass"] not in ("true", "false"):
            problems.append(f"row {i}: pass = {row['pass']!r}")
    return problems


def failures(command: str, text: str) -> tuple:
    """(failed, attempted) operations read from one CSV.

    montecarlo: failed trials summed over (point, estimator) pairs, out of
    trials x estimators x points.  septable and verify: rows holding a
    non-finite value, out of all rows.
    """
    _, rows = parse(text)
    if command == "montecarlo":
        per_pair = {(r["sweep_value"], r["estimator"]): r for r in rows}
        return (sum(int(r["failures"]) for r in per_pair.values()),
                sum(int(r["trials"]) for r in per_pair.values()))
    bad = sum(1 for r in rows if not all(math.isfinite(float(r[c])) for c in CLOSE[command]))
    return bad, len(rows)
