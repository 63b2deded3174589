"""The benchmark's workloads: one smoothmusic CLI command each, as INI text.

Every workload runs the paper's closely spaced two-source scenario at
(M, N) = (160, 20) with DoAs (0, pi/320), a quarter beamwidth apart.  Sizes
are chosen so one command spends roughly 2-4 s in ``cli.main`` on a 2-CPU
machine: long enough that a median over a few commands settles, short
enough that several fit in one run.
"""

from __future__ import annotations

from dataclasses import dataclass

# pi / 320 written out, so the config and the reference CSVs never depend
# on how a float prints
CLOSE_DOAS = "0, 0.009817477042468103"

SCENARIO = {"m": "160", "n": "20", "l": "16", "doas": CLOSE_DOAS, "snr_db": "31"}


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``sections`` is the INI config without its seed; the seed goes into
    ``seed_section``.  ``items`` is the work one command completes: Monte-Carlo
    trials (one noise realization through every estimator) summed over sweep
    points, separation reports, or configured verification trials.
    """

    name: str
    command: str
    sections: dict
    seed_section: str
    acceptance_seed: int
    workers: int
    items: int

    def config_text(self, seed: int) -> str:
        lines = []
        for section, keys in self.sections.items():
            lines.append(f"[{section}]")
            lines.extend(f"{key} = {value}" for key, value in keys.items())
            if section == self.seed_section:
                lines.append(f"seed = {seed}")
            lines.append("")
        return "\n".join(lines)


def _montecarlo(name: str, doa_mode: str, workers: int, trials: int) -> Workload:
    values = (31, 34, 37)
    return Workload(
        name=name,
        command="montecarlo",
        sections={
            "scenario": SCENARIO,
            "montecarlo": {
                "sweep": "snr_db",
                "values": ", ".join(str(v) for v in values),
                "trials": str(trials),
                "estimators": "gmusic, music-ss, gmusic-ss",
                "doa_mode": doa_mode,
                "workers": str(workers),
            },
            "output": {"verbosity": "quiet"},
        },
        seed_section="scenario",
        acceptance_seed=1,
        workers=workers,
        items=trials * len(values),
    )


def _septable(draws: int) -> Workload:
    l_values = (2, 4, 8, 16, 32, 64, 96, 128)
    return Workload(
        name="septable",
        command="septable",
        sections={
            "scenario": dict(SCENARIO, l="2", snr_db="0"),
            "septable": {"l_values": ", ".join(str(v) for v in l_values), "draws": str(draws)},
            "output": {"verbosity": "quiet"},
        },
        seed_section="scenario",
        acceptance_seed=1,
        workers=1,
        items=draws * len(l_values),
    )


def _verify(trials: int) -> Workload:
    return Workload(
        name="verify",
        command="verify",
        sections={
            "verify": {"m": "160", "n": "20", "l": "16", "sigma2": "1.0", "trials": str(trials)},
            "output": {"verbosity": "quiet"},
        },
        seed_section="verify",
        acceptance_seed=0,
        workers=1,
        items=trials,
    )


WORKLOADS = {
    w.name: w
    for w in (
        # eigen layer about half the work, small interval scans, no pool:
        # the plain single-threaded baseline
        _montecarlo("mc-intervals", "intervals", workers=1, trials=40),
        # whole-circle 2561-point scans dominated by steering_matrix; the only
        # workload through the process pool and the only one with failures
        _montecarlo("mc-window", "window", workers=2, trials=20),
        # signal-covariance path and separation_report only: no sample
        # covariance, no search, no pool; U sweeps 159 down to 33
        _septable(draws=40),
        # the only workload for verify and rmt; 4x-size quadratic forms
        # work far outside L2
        _verify(trials=12),
    )
}


def tiny(workload: Workload) -> Workload:
    """The same workload at the smallest size that still exercises every layer."""
    if workload.command == "montecarlo":
        mode = workload.sections["montecarlo"]["doa_mode"]
        return _montecarlo(workload.name, mode, workload.workers, trials=2)
    if workload.command == "septable":
        return _septable(draws=2)
    return _verify(trials=2)
