"""Command-line front end: config files in, CSV tables out.

Four subcommands cover the toolkit's batch workflows::

    smoothmusic spectrum   --config run.ini [--out DIR] [--strict-separation true]
    smoothmusic montecarlo --config run.ini [--workers 0] [--strict-separation true]
    smoothmusic septable   --config run.ini
    smoothmusic verify     --config run.ini

Configs are INI files; every command reads its own section plus (except
``verify``) a ``[scenario]`` section.  Angles are radians by default, with
explicit ``deg``/``rad`` suffixes accepted.  Unknown keys are rejected with
the offending line number.  The random seed resolves as: ``--seed`` flag,
then the ``SMOOTHMUSIC_SEED`` environment variable, then the config value.
CSV goes to stdout, or to ``<command>.csv`` under ``--out``; logs go to
stderr.  Exit status: 0 on success, 2 on configuration errors, 1 on
runtime failures.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import csv
import inspect
import logging
import math
import os
import sys
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import montecarlo, verify
from .array_model import ArrayScenario, SmoothedMatrix, _check_count, synthesize_snapshots, wrap_angle
from .subspace import (
    Pseudospectrum,
    SearchWindow,
    UnderResolvedError,
    find_doas,
    gmusic_weights,
    sample_covariance_eig,
)

__all__ = ["ConfigError", "main"]

log = logging.getLogger("smoothmusic")
_stderr_handler = logging.StreamHandler()
_stderr_handler.setFormatter(logging.Formatter("%(levelname)s %(message)s"))

COMMANDS = ("spectrum", "montecarlo", "septable", "verify")
VERBOSITIES = {"quiet": logging.WARNING, "info": logging.INFO, "debug": logging.DEBUG}


class ConfigError(Exception):
    """A configuration problem: bad file, unknown key, invalid value."""


# ---------------------------------------------------------------------------
# value parsers


def _parse_int(text: str) -> int:
    try:
        return int(text.strip())
    except ValueError:
        raise ValueError(f"expected an integer, got {text!r}")


def _parse_float(text: str) -> float:
    try:
        return float(text.strip())
    except ValueError:
        raise ValueError(f"expected a number, got {text!r}")


def _parse_angle(text: str) -> float:
    """An angle in radians; 'deg'/'rad' suffixes are accepted."""
    t = text.strip().lower()
    scale = 1.0
    if t.endswith("deg"):
        t, scale = t[:-3], math.pi / 180.0
    elif t.endswith("rad"):
        t = t[:-3]
    try:
        return float(t) * scale
    except ValueError:
        raise ValueError(f"expected an angle like '0.05', '0.05rad' or '30deg', got {text!r}")


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("true", "yes", "on", "1"):
        return True
    if t in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"expected a boolean (true/false), got {text!r}")


def _parse_str(text: str) -> str:
    return text.strip()


def _list_of(parse: Callable) -> Callable:
    def inner(text: str):
        items = [piece.strip() for piece in text.split(",")]
        items = [piece for piece in items if piece]
        if not items:
            raise ValueError("expected a comma-separated list")
        return tuple(parse(piece) for piece in items)

    return inner


# an optional key left out of the file is left out of the library call, so
# the library's own default applies; only keys the CLI alone reads have one here
_LIBRARY_DEFAULT = object()


@dataclass(frozen=True)
class Key:
    parse: Callable
    required: bool = True
    default: object = _LIBRARY_DEFAULT


_SCENARIO_SCHEMA = {
    "m": Key(_parse_int),
    "n": Key(_parse_int),
    "l": Key(_parse_int),
    "doas": Key(_list_of(_parse_angle)),
    "snr_db": Key(_parse_float),
    "signal_policy": Key(_parse_str, required=False),
    "seed": Key(_parse_int, required=False, default=0),
}

_OUTPUT_SCHEMA = {
    "out_dir": Key(_parse_str, required=False, default=None),
    "verbosity": Key(_parse_str, required=False, default="info"),
}

SCHEMAS = {
    "spectrum": {
        "scenario": _SCENARIO_SCHEMA,
        "spectrum": {
            "grid_points": Key(_parse_int, required=False, default=1024),
            "lo": Key(_parse_angle, required=False),
            "hi": Key(_parse_angle, required=False),
            "strict_separation": Key(_parse_bool, required=False),
        },
        "output": _OUTPUT_SCHEMA,
    },
    "montecarlo": {
        "scenario": _SCENARIO_SCHEMA,
        "montecarlo": {
            "sweep": Key(_parse_str),
            "values": Key(_list_of(_parse_float)),
            "trials": Key(_parse_int),
            "estimators": Key(_list_of(_parse_str), required=False),
            "doa_mode": Key(_parse_str, required=False),
            "include_failures": Key(_parse_bool, required=False),
            "fresh_signal": Key(_parse_bool, required=False),
            "strict_separation": Key(_parse_bool, required=False),
            "workers": Key(_parse_int, required=False),
        },
        "output": _OUTPUT_SCHEMA,
    },
    "septable": {
        "scenario": _SCENARIO_SCHEMA,
        "septable": {
            "l_values": Key(_list_of(_parse_int)),
            "draws": Key(_parse_int, required=False),
        },
        "output": _OUTPUT_SCHEMA,
    },
    "verify": {
        "verify": {
            "m": Key(_parse_int),
            "n": Key(_parse_int),
            "l": Key(_parse_int),
            "sigma2": Key(_parse_float, required=False, default=1.0),
            "trials": Key(_parse_int, required=False),
            "seed": Key(_parse_int, required=False, default=0),
        },
        "output": _OUTPUT_SCHEMA,
    },
}

def _line_of(lines, section: str, key: Optional[str]) -> Optional[int]:
    """1-based line number of a section header or of a key inside it."""
    in_section = False
    for i, raw in enumerate(lines, start=1):
        stripped = raw.strip()
        if stripped.startswith("[") and stripped.endswith("]"):
            if in_section and key is not None:
                return None
            in_section = stripped[1:-1].strip() == section
            if in_section and key is None:
                return i
            continue
        if in_section and key is not None:
            head = stripped.split("=", 1)[0].split(":", 1)[0].strip()
            if head.lower() == key:
                return i
    return None


def _where(path: str, lines, section: str, key: Optional[str]) -> str:
    line = _line_of(lines, section, key)
    return f"{path}:{line}" if line is not None else path


def load_config(path: str, command: str) -> dict:
    """Parse and validate one command's config into {section: {key: value}}."""
    schema = SCHEMAS[command]
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#", ";"))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
        parser.read_string(raw, source=path)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"invalid config: {exc}") from exc
    lines = raw.splitlines()

    for section in parser.sections():
        if section not in schema:
            raise ConfigError(
                f"{_where(path, lines, section, None)}: unknown section [{section}] "
                f"for command {command!r}"
            )
    if parser.defaults():
        key = next(iter(parser.defaults()))
        raise ConfigError(f"{path}: [DEFAULT] section is not supported (found key {key!r})")

    out = {}
    for section, keys in schema.items():
        # a section none of whose keys is required may be omitted
        if section not in parser and any(spec.required for spec in keys.values()):
            raise ConfigError(f"{path}: missing required section [{section}]")
        got = parser[section] if section in parser else {}
        for name in got:
            if name not in keys:
                raise ConfigError(
                    f"{_where(path, lines, section, name)}: unknown key {name!r} in [{section}]"
                )
        values = {}
        for name, spec in keys.items():
            if name in got:
                try:
                    values[name] = spec.parse(got[name])
                except ValueError as exc:
                    raise ConfigError(
                        f"{_where(path, lines, section, name)}: bad value for "
                        f"{name!r} in [{section}]: {exc}"
                    ) from exc
            elif spec.required:
                raise ConfigError(
                    f"{_where(path, lines, section, None)}: missing required key "
                    f"{name!r} in [{section}]"
                )
            elif spec.default is not _LIBRARY_DEFAULT:
                values[name] = spec.default
        out[section] = values
    return out


def _resolve_seed(config_seed: int, flag_seed: Optional[int]) -> int:
    if flag_seed is not None:
        seed = flag_seed
    else:
        env = os.environ.get("SMOOTHMUSIC_SEED")
        if env is not None:
            try:
                seed = int(env)
            except ValueError:
                raise ConfigError(f"SMOOTHMUSIC_SEED must be an integer, got {env!r}")
        else:
            seed = config_seed
    if not 0 <= seed < 2**64:
        raise ConfigError(f"seed must fit in an unsigned 64-bit integer, got {seed}")
    return seed


@contextlib.contextmanager
def _invalid(section: str):
    """The library's refusal of a value from [section], as a config error."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"invalid [{section}]: {exc}") from exc


def _used(fn, given: dict) -> dict:
    """The keyword values fn runs with when called with ``given``: those, and
    fn's own defaults for the parameters ``given`` leaves out."""
    params = inspect.signature(fn).parameters.values()
    return {p.name: p.default for p in params if p.default is not p.empty} | given


# ---------------------------------------------------------------------------
# CSV helpers


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def _write_csv(stream, header, rows) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])


def _db(value: float) -> float:
    if math.isnan(value):
        return math.nan
    if value <= 0.0:
        return -math.inf
    return 10.0 * math.log10(value)


# ---------------------------------------------------------------------------
# commands (each returns (header, rows))


def cmd_spectrum(cfg: dict, scenario: ArrayScenario):
    spec = dict(cfg["spectrum"])
    grid_points = spec.pop("grid_points")
    strict = {"strict": spec.pop("strict_separation")} if "strict_separation" in spec else {}
    with _invalid("spectrum"):
        _check_count("grid_points", grid_points, 2)
        window = SearchWindow(**spec)
    with _invalid("scenario"):
        # both spectra are the smoothed pair's, and the corrected one needs the most
        montecarlo._check_rank(scenario, ("gmusic-ss",))
    smoothed = SmoothedMatrix(snapshots=synthesize_snapshots(scenario), l=scenario.l)
    eig = sample_covariance_eig(smoothed, scenario.k)
    weights = gmusic_weights(eig, eig.noise_variance, eig.c_n, **strict)
    grid = np.linspace(window.lo, window.hi, grid_points)

    def column(name, spectrum):
        # the minima a trial's search finds, whatever the display grid, each
        # flagged at its nearest grid angle on the circle; both ends of a 2 pi
        # grid are one angle and both are flagged
        k, note = scenario.k, ""
        try:
            minima = find_doas(spectrum, k, window, scenario.m)
        except UnderResolvedError as exc:
            k, note = exc.found, f", found {exc.found} of {k}"
            minima = find_doas(spectrum, k, window, scenario.m) if k else ()
        log.info("spectrum %s: minima at [%s] rad%s", name, ", ".join(f"{t:.6g}" for t in minima), note)
        mask = np.zeros(grid.size, dtype=bool)
        for theta in minima:
            dist = np.abs(wrap_angle(grid - theta))
            mask |= dist <= dist.min() + 1e-12
        return spectrum(grid), mask

    trad, f_t = column("traditional", Pseudospectrum(eig))
    gm, f_g = column("gmusic", Pseudospectrum(eig, weights))
    rows = [(grid[i], trad[i], gm[i], bool(f_t[i]), bool(f_g[i])) for i in range(grid.size)]
    header = ("theta_rad", "eta_traditional", "eta_gmusic", "is_minimum_trad", "is_minimum_gmusic")
    return header, rows


def cmd_montecarlo(cfg: dict, scenario: ArrayScenario):
    mc = dict(cfg["montecarlo"])
    run = {"workers": mc.pop("workers")} if "workers" in mc else {}
    workers = _used(montecarlo.run_plan, run)["workers"]
    with _invalid("montecarlo"):
        plan = montecarlo.ExperimentPlan(scenario=scenario, **mc)
        _check_count("workers", workers, 0)
    log.info(
        "montecarlo: sweep %s over %d points, %d trials/point, workers=%d",
        plan.sweep,
        len(plan.values),
        plan.trials,
        workers,
    )
    rows = [
        (
            r.sweep_value,
            r.estimator,
            r.source_index,
            r.trials,
            r.failures,
            r.mse,
            _db(r.mse),
            r.crb,
            _db(r.crb),
        )
        for r in montecarlo.run_plan(plan, **run)
    ]
    header = (
        "sweep_value",
        "estimator",
        "source_index",
        "trials",
        "failures",
        "mse",
        "mse_db",
        "crb",
        "crb_db",
    )
    return header, rows


def cmd_septable(cfg: dict, scenario: ArrayScenario):
    sp = cfg["septable"]
    draws = _used(montecarlo.table1, sp)["draws"]
    with _invalid("septable"):
        _check_count("draws", draws, 1)
        montecarlo._table1_scenarios(scenario, sp["l_values"])
    log.info("septable: %d smoothing factors, %d draws each", len(sp["l_values"]), draws)
    rows = montecarlo.table1(scenario, **sp)
    header = ("L", "min_snr_db_median", "min_snr_db_iqr")
    return header, [(r.l, r.min_snr_db_median, r.min_snr_db_iqr) for r in rows]


def cmd_verify(cfg: dict, seed: int):
    vc = cfg["verify"]
    trials = _used(verify.run_verification_suite, vc)["trials"]
    with _invalid("verify"):
        verify._check_suite(vc["m"], vc["n"], vc["l"], vc["sigma2"], trials, seed)
    log.info("verify: M=%d N=%d L=%d sigma2=%g, %d trials", vc["m"], vc["n"], vc["l"], vc["sigma2"], trials)
    rows = verify.run_verification_suite(**vc, seed=seed)
    header = ("check", "m", "n", "l", "statistic", "threshold", "pass")
    return header, [tuple(r) for r in rows]


# the commands that run on the [scenario] section's ArrayScenario
_SCENARIO_COMMANDS = {"spectrum": cmd_spectrum, "montecarlo": cmd_montecarlo, "septable": cmd_septable}


# ---------------------------------------------------------------------------
# entry point


def _configure_logging(verbosity: str) -> None:
    if verbosity not in VERBOSITIES:
        raise ConfigError(f"verbosity must be one of {sorted(VERBOSITIES)}, got {verbosity!r}")
    log.addHandler(_stderr_handler)  # once: a handler already attached is kept
    log.propagate = False
    # this call's stderr, which a caller may have redirected since the last call;
    # assigned, since setStream() would flush the old stream, which may be closed
    _stderr_handler.stream = sys.stderr
    log.setLevel(VERBOSITIES[verbosity])


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smoothmusic",
        description="Spatially smoothed subspace DoA estimation experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    descriptions = {
        "spectrum": "evaluate the traditional and corrected pseudo-spectra on a grid",
        "montecarlo": "run an MSE sweep experiment",
        "septable": "tabulate the minimum separation SNR per smoothing factor",
        "verify": "run the random-matrix verification suite",
    }
    for name in COMMANDS:
        p = sub.add_parser(name, help=descriptions[name])
        p.add_argument("--config", required=True, help="INI config file")
        p.add_argument("--out", default=None, help="directory for <command>.csv (default: stdout)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        if name == "montecarlo":
            p.add_argument(
                "--workers", type=int, default=None, help="worker processes (0 = one per CPU)"
            )
        if name in ("spectrum", "montecarlo"):
            p.add_argument(
                "--strict-separation",
                choices=("true", "false"),
                default=None,
                help="override the strict_separation config key",
            )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # a flag overrides its key in the command's own section
    flags = {"workers": getattr(args, "workers", None)}
    if getattr(args, "strict_separation", None) is not None:
        flags["strict_separation"] = args.strict_separation == "true"
    try:
        cfg = load_config(args.config, args.command)
        _configure_logging(cfg["output"]["verbosity"])
        cfg[args.command].update((key, v) for key, v in flags.items() if v is not None)
        section = "verify" if args.command == "verify" else "scenario"
        seed = _resolve_seed(cfg[section].pop("seed"), args.seed)
        if args.command == "verify":
            header, rows = cmd_verify(cfg, seed)
        else:
            with _invalid("scenario"):
                scenario = ArrayScenario(**cfg["scenario"], seed=seed)
            header, rows = _SCENARIO_COMMANDS[args.command](cfg, scenario)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, np.linalg.LinAlgError) as exc:
        log.error("%s", exc)
        return 1

    out_dir = args.out if args.out is not None else cfg["output"]["out_dir"]
    if out_dir is None:
        try:
            _write_csv(sys.stdout, header, rows)
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader left (e.g. `| head`); as the signal module docs advise, send
            # what is still buffered to devnull so the flush at exit does not raise too
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            return 1
    else:
        try:
            os.makedirs(out_dir, exist_ok=True)
            path = os.path.join(out_dir, f"{args.command}.csv")
            with open(path, "w", encoding="utf-8", newline="") as fh:
                _write_csv(fh, header, rows)
        except OSError as exc:
            log.error("cannot write output: %s", exc)
            return 1
        log.info("wrote %s", path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
