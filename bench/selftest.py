"""Self-test of the benchmark at tiny sizes.

    python3 bench/selftest.py

For every workload, at the smallest size that still runs every layer:

* an untraced and a traced run emit every metric BENCHMARK.json names,
  with its unit, and pass the gate;
* a traced command writes the same CSV bytes as an untraced one at the
  workload's worker count;
* corrupted copies of the reference trip the gate, in ``gate.compare`` and
  in a whole run.

Exits 0 when every check holds; prints each failed check otherwise.
"""

from __future__ import annotations

import csv
import io
import math
import sys

import gate
import run as bench
from workloads import WORKLOADS, tiny

# per command: (column, how to corrupt its first usable value)
CORRUPT = {
    "montecarlo": (("failures", lambda v: str(int(v) + 1)), ("mse", lambda v: repr(float(v) * 1.001))),
    "septable": (("min_snr_db_median", lambda v: repr(float(v) + 0.01)),),
    "verify": (("pass", lambda v: "false" if v == "true" else "true"),
               ("statistic", lambda v: repr(float(v) * 1.001 + 1e-3))),
}


def _write(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([row[c] for c in header] for row in rows)
    return buf.getvalue()


def corruptions(command: str, reference: str):
    """(what, corrupted reference) pairs the gate must reject."""
    header, rows = gate.parse(reference)
    yield "renamed column", _write(header[:-1] + ("renamed",), [
        dict(r, renamed=r[header[-1]]) for r in rows])
    yield "missing row", _write(header, rows[:-1])
    for column, change in CORRUPT[command]:
        changed = [dict(r) for r in rows]
        row = next(r for r in changed if _finite_or_text(r[column]))
        row[column] = change(row[column])
        yield f"{column} changed", _write(header, changed)


def _finite_or_text(value: str) -> bool:
    try:
        return math.isfinite(float(value))
    except ValueError:
        return True


def check_workload(name: str, workdir, declared) -> list:
    w = tiny(WORKLOADS[name])
    deadline = bench.clock() + bench.RUN_LIMIT_S
    errors = []

    reference = bench.run_command(w, w.acceptance_seed, workdir, deadline)["csv"]
    for trace, seed in ((False, w.acceptance_seed), (True, w.acceptance_seed + 1)):
        kind = "per_layer" if trace else "end_to_end"
        result, lines = bench.run(w, seed, 0.0, trace, reference, workdir)
        if not result["correct"]:
            errors.append(f"{kind} run failed the gate: {lines}")
        got = {m: v["unit"] for m, v in result["metrics"].items()}
        if got != declared[kind]:
            errors.append(f"{kind} metrics {got} differ from BENCHMARK.json {declared[kind]}")

    untraced = bench.run_command(w, w.acceptance_seed, workdir, deadline)
    traced = bench.run_command(w, w.acceptance_seed, workdir, deadline, trace=True, workers=1)
    if traced["csv"] != untraced["csv"]:
        errors.append(f"traced CSV differs from the untraced one at {w.workers} workers")

    for what, bad in corruptions(w.command, reference):
        if not gate.compare(w.command, untraced["csv"], bad):
            errors.append(f"gate.compare accepted a reference with {what}")
    what, bad = next(corruptions(w.command, reference))
    if bench.run(w, w.acceptance_seed, 0.0, False, bad, workdir)[0]["correct"]:
        errors.append(f"a run accepted a reference with {what}")
    return [f"{name}: {e}" for e in errors]


def main() -> int:
    declared = bench.declared_metrics()
    errors = []
    with bench.scratch_dir("selftest") as workdir:
        for name in WORKLOADS:
            try:
                found = check_workload(name, workdir, declared)
            except bench.BenchError as exc:
                found = [f"{name}: {exc}"]
            print(f"{name}: {'ok' if not found else 'FAILED'}", flush=True)
            errors += found
    for e in errors:
        print(e)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
