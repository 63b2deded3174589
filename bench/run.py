"""smoothmusic benchmark: the CLI commands users wait for, timed end to end.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 bench/run.py --workload NAME --record    # re-record the reference CSV

Run from the repository root.  Each workload (see ``workloads.py``) is one
``smoothmusic.cli.main`` command, run closed loop: one fresh interpreter at a
time, each started after the previous one exits, until ``--seconds`` are
spent (at least three commands).  BLAS is pinned to one thread in every
command and its pool workers, so a workload's workers never exceed the CPUs.

End-to-end metrics (``--trace 0``), medians over the commands of the run:

* ``items_per_s``: items one command completes over its ``cli.main`` wall
  time.
* ``setup_s``: interpreter start, ``import smoothmusic.cli`` and loading the
  config, before the command runs.
* ``peak_rss_mb``: the larger high-water mark of the command's process and
  its reaped pool workers.

``fail_frac`` (estimator failures over attempts) is printed in the report;
it is a function of the seed alone and the correctness gate pins it exactly.

``--trace 1`` gives per-layer metrics instead.  It alternates untraced
commands with traced ones at one worker, which wrap the layers' public
functions (``tracing.py``); ``trace.overhead_frac`` is the traced wall time
over the untraced one at one worker, minus one.

Correctness gate: the CSV of the workload's acceptance seed must match
``reference/<workload>.csv`` (header, keys and failure counts exactly,
values within ``gate.REL_TOL``); every CSV of the run's seed must have the
reference's schema and be byte-identical across reruns, tracing and worker
counts.  A gate failure prints ``"correct": false`` and exits 1.

The last line of stdout is one JSON object: ``correct``, ``attempted`` and
``failed`` (commands run and commands that did not finish cleanly) and
``metrics``.  The lines before it are a readable report and the environment.
"""

from __future__ import annotations

import os

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = 1
# set before anything can import numpy; commands inherit it
os.environ.update({var: str(BLAS_THREADS) for var in BLAS_THREAD_VARS})

import argparse
import contextlib
import json
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import gate
from workloads import WORKLOADS, Workload

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference"
SCRATCH = ROOT / ".bench_out"

RUN_LIMIT_S = 170.0  # the whole run, gate and traced commands included
MIN_COMMANDS = 3  # timed commands in an untraced run, however short --seconds is


class BenchError(Exception):
    """The benchmark cannot produce a result (refused, crashed, timed out)."""


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def declared_metrics() -> dict:
    """{"end_to_end"|"per_layer": {name: unit}} from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {kind: {m["name"]: m["unit"] for m in spec[kind]} for kind in ("end_to_end", "per_layer")}


def check_threads(workers) -> None:
    cpus = nproc()
    for w in workers:
        if w * BLAS_THREADS > cpus:
            raise BenchError(
                f"refusing to run: {w} workers x {BLAS_THREADS} BLAS threads > nproc = {cpus}"
            )


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    env.pop("SMOOTHMUSIC_SEED", None)  # the --seed flag decides
    return env


@contextlib.contextmanager
def scratch_dir(prefix: str):
    """A fresh directory under SCRATCH, removed with its contents afterwards."""
    SCRATCH.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=SCRATCH, prefix=f"{prefix}-"))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use SCRATCH
            SCRATCH.rmdir()


def run_command(workload: Workload, seed: int, workdir: Path, deadline: float,
                trace: bool = False, workers: int | None = None) -> dict:
    """One command in a fresh interpreter; returns the child's record plus the CSV."""
    workers = workload.workers if workers is None else workers
    base = Path(tempfile.mkdtemp(dir=workdir, prefix="cmd-"))
    config = base / "config.ini"
    config.write_text(workload.config_text(seed), encoding="utf-8")
    result_path = base / "result.json"
    cli_args = [workload.command, "--config", str(config), "--out", str(base), "--seed", str(seed)]
    if workload.command == "montecarlo":
        cli_args += ["--workers", str(workers)]
    spawn = clock()
    argv = [sys.executable, str(BENCH / "child.py"), str(result_path), "1" if trace else "0",
            repr(spawn), str(config), "--", *cli_args]
    with open(base / "stderr.txt", "w+", encoding="utf-8") as err:
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err, start_new_session=True)
        try:
            proc.wait(timeout=max(deadline - clock(), 1.0))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)  # the command and its pool workers
            proc.wait()
            raise BenchError(f"{workload.name}: command timed out: {' '.join(cli_args)}")
        err.seek(0)
        stderr = err.read()
    if proc.returncode != 0 or not result_path.exists():
        raise BenchError(f"{workload.name}: command crashed with exit code {proc.returncode}: "
                         f"{' '.join(cli_args)}\n{stderr[-2000:]}")
    record = json.loads(result_path.read_text(encoding="utf-8"))
    if not Path(record["module"]).resolve().is_relative_to(SRC):
        raise BenchError(f"imported {record['module']}, not the package under {SRC}")
    csv_path = base / f"{workload.command}.csv"
    record.update(
        csv=csv_path.read_text(encoding="utf-8") if csv_path.exists() else "",
        seed=seed, trace=trace, workers=workers, stderr=stderr,
    )
    return record


def run(workload: Workload, seed: int, seconds: float, trace: bool, reference: str,
        workdir: Path) -> tuple:
    """Measure one workload and gate its CSVs; returns (result object, report lines)."""
    deadline = clock() + RUN_LIMIT_S
    check_threads({workload.workers, 1})

    start = clock()
    # the acceptance seed's CSV is compared with the reference; at another
    # seed that costs one extra untraced command, timed like the others
    gated = []
    if seed != workload.acceptance_seed:
        gated.append(run_command(workload, workload.acceptance_seed, workdir, deadline))

    # a traced run cycles through the workload's own worker count, untraced
    # at one worker (the baseline for the trace overhead), and traced
    kinds = [(False, workload.workers)]
    if trace:
        kinds += [(False, 1)] if workload.workers != 1 else []
        kinds += [(True, 1)]
    samples = []
    while True:
        samples += [run_command(workload, seed, workdir, deadline, t, w) for t, w in kinds]
        cycles = len(samples) // len(kinds)
        enough = cycles >= 1 if trace else len(gated) + len(samples) >= MIN_COMMANDS
        # stop when one more cycle would overrun --seconds; the gated
        # command counts as one command of a cycle
        elapsed = clock() - start
        per_cycle = elapsed / (cycles + len(gated) / len(kinds))
        if enough and elapsed + per_cycle > seconds:
            break
    commands = gated + samples
    if seed == workload.acceptance_seed:
        gated = samples

    failed = [c for c in commands if c["exit_code"] != 0 or not c["csv"]]
    problems = [f"seed {c['seed']}: exit code {c['exit_code']}: {c['stderr'][-500:]}" for c in failed]
    if not failed:
        for c in gated:
            problems += [f"seed {c['seed']}: {p}" for p in gate.compare(workload.command, c["csv"], reference)]
        first = samples[0]
        problems += [f"seed {seed}: {p}" for p in gate.check_shape(workload.command, first["csv"], reference)]
        problems += [
            f"seed {seed}: CSV of a {'traced' if c['trace'] else 'untraced'} command at "
            f"{c['workers']} workers differs from the first command's"
            for c in samples[1:] if c["csv"] != first["csv"]
        ]

    units = declared_metrics()["per_layer" if trace else "end_to_end"]
    values = {}
    lines = [f"# {workload.name}: seed {seed}, {len(commands)} commands, "
             f"{len(gated)} compared with reference/{workload.name}.csv"]
    if not problems:
        if trace:
            values = layer_values(workload, samples)
        else:
            failures, attempts = gate.failures(workload.command, samples[0]["csv"])
            measured = {
                "items_per_s": [workload.items / c["wall_s"] for c in commands],
                "setup_s": [c["setup_s"] for c in commands],
                "peak_rss_mb": [c["peak_rss_mb"] for c in commands],
            }
            values = {name: statistics.median(xs) for name, xs in measured.items()}
            lines += [f"# {name} over {len(xs)} commands: {', '.join(f'{x:.4g}' for x in sorted(xs))}"
                      for name, xs in measured.items()]
            lines.append(f"fail_frac {failures / attempts!r} ratio ({failures} of {attempts}; "
                         "exact per seed, pinned by the gate)")
        if set(values) != set(units):
            raise BenchError(f"metrics {sorted(set(values) ^ set(units))} are computed but not "
                             "declared in BENCHMARK.json, or declared but not computed")
    lines += [f"{name} {values[name]!r} {units[name]}" for name in sorted(values)]
    lines.append("# env " + json.dumps(environment(workload, samples[0], seed)))
    lines += [f"# gate: {p}" for p in problems] or ["# gate: ok"]
    result = {
        "correct": not problems,
        "attempted": len(commands),
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in values},
    }
    return result, lines


def layer_values(workload: Workload, samples: list) -> dict:
    """Per-layer metrics: medians over the traced commands of a run."""
    per_command = []
    for c in (c for c in samples if c["trace"]):
        layers = dict(c["layers"])
        errors = layers.pop("montecarlo.trials.find_doas_errors")
        failures, attempts = gate.failures(workload.command, c["csv"])
        layers["montecarlo.trials.wild"] = failures - errors
        layers["fail_frac"] = failures / attempts
        layers["cli.csv_bytes"] = len(c["csv"].encode("utf-8"))
        layers["trace.absent_hooks"] = len(c["absent_hooks"])
        per_command.append(layers)
    values = {name: statistics.median(d[name] for d in per_command) for name in per_command[0]}

    def wall(trace, workers):
        return statistics.median(
            c["wall_s"] for c in samples if c["trace"] == trace and c["workers"] == workers
        )

    values["montecarlo.pool.cpu_util"] = statistics.median(
        c["cpu_s"] / (c["wall_s"] * c["workers"])
        for c in samples if not c["trace"] and c["workers"] == workload.workers
    )
    values["trace.overhead_frac"] = wall(True, 1) / wall(False, 1) - 1.0
    return values


def environment(workload: Workload, record: dict, seed: int) -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30)
            commit = out.stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    src_lines = 0
    for path in sorted(SRC.rglob("*.py")):
        with open(path, "rb") as fh:
            src_lines += sum(1 for _ in fh)
    return {
        "python": record["python"],
        "numpy": record["numpy"],
        "scipy": record["scipy"],
        "blas": record["blas"],
        "nproc": nproc(),
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "workers": workload.workers,
        "seed": seed,
        "reference_seed": workload.acceptance_seed,
        "commit": commit,
        "src_lines": src_lines,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the workload's acceptance seed)")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="write reference/<workload>.csv from one command at the acceptance seed")
    args = parser.parse_args(argv)
    if args.seed is not None and not 0 <= args.seed < 2**64:
        parser.error("--seed must be an unsigned 64-bit integer")
    if not (SRC / "smoothmusic" / "cli.py").is_file():
        print(f"bench: no smoothmusic package under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    reference_path = REFERENCE / f"{workload.name}.csv"

    try:
        with scratch_dir(workload.name) as workdir:
            if args.record:
                cmd = run_command(workload, workload.acceptance_seed, workdir, clock() + RUN_LIMIT_S)
                if cmd["exit_code"] != 0 or not cmd["csv"]:
                    raise BenchError(f"command exited {cmd['exit_code']}: {cmd['stderr'][-2000:]}")
                REFERENCE.mkdir(exist_ok=True)
                reference_path.write_text(cmd["csv"], encoding="utf-8")
                print(f"bench: wrote {reference_path.relative_to(ROOT)}", file=sys.stderr)
                return 0
            seed = workload.acceptance_seed if args.seed is None else args.seed
            reference = reference_path.read_text(encoding="utf-8")
            result, lines = run(workload, seed, args.seconds, bool(args.trace), reference, workdir)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
