"""End-to-end tests for the command-line interface.

Every test drives ``smoothmusic.cli.main`` in-process with a temporary INI
file and captured stdout/stderr, pinning the CSV schemas, the seed
precedence (flag over environment over config), config-error reporting with
file:line locations, and byte-identical reruns.
"""

import contextlib
import csv
import io
import logging
import math
import os
import pathlib
import subprocess
import sys

import pytest

from smoothmusic import cli


SPECTRUM_INI = """\
[scenario]
m = 32
n = 12
l = 4
doas = 0, 0.98
snr_db = 15
seed = 3

[spectrum]
grid_points = 64
"""

MONTECARLO_INI = """\
[scenario]
m = 32
n = 8
l = 4
doas = 0, 0.9817477
snr_db = 0
seed = 0

[montecarlo]
sweep = snr_db
values = 5, 15
trials = 3
estimators = music-ss, gmusic-ss
"""


def _spectrum_ini(m, n, l, doas, snr_db, seed, **spectrum):
    """A spectrum config; keyword arguments become [spectrum] keys."""
    ini = f"[scenario]\nm = {m}\nn = {n}\nl = {l}\ndoas = {doas}\nsnr_db = {snr_db}\nseed = {seed}\n"
    return ini + "\n[spectrum]\n" + "".join(f"{key} = {value}\n" for key, value in spectrum.items())


def _write(tmp_path, text, name="config.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def _run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _rows(out):
    reader = csv.reader(io.StringIO(out))
    header = tuple(next(reader))
    return header, list(reader)


def _child_env():
    """This environment without SMOOTHMUSIC_SEED, with the directory that
    holds the imported package first on PYTHONPATH, so a child interpreter
    imports the same package without an install."""
    env = {k: v for k, v in os.environ.items() if k != "SMOOTHMUSIC_SEED"}
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return env


@pytest.fixture(autouse=True)
def _no_ambient_seed(monkeypatch):
    monkeypatch.delenv("SMOOTHMUSIC_SEED", raising=False)


@pytest.fixture
def cli_log(caplog):
    """Records of the CLI's logger, which does not propagate to the root."""
    logger = logging.getLogger("smoothmusic")
    logger.addHandler(caplog.handler)
    yield caplog
    logger.removeHandler(caplog.handler)


def test_spectrum_schema_and_minima_flags(tmp_path, capsys):
    """Spectrum CSV: pinned header, one row per grid point, k flagged minima."""
    cfg = _write(tmp_path, SPECTRUM_INI)
    code, out, _ = _run(["spectrum", "--config", cfg], capsys)
    assert code == 0
    header, rows = _rows(out)
    assert header == (
        "theta_rad", "eta_traditional", "eta_gmusic", "is_minimum_trad", "is_minimum_gmusic"
    )
    assert len(rows) == 64
    thetas = [float(r[0]) for r in rows]
    assert thetas[0] == pytest.approx(-math.pi) and thetas[-1] == pytest.approx(math.pi)
    assert thetas == sorted(thetas), "grid must be ascending"
    for r in rows:
        assert 0.0 <= float(r[1]) <= 1.0, "traditional spectrum is clipped to [0, 1]"
        assert math.isfinite(float(r[2]))
        assert r[3] in ("true", "false") and r[4] in ("true", "false")
    for col in (3, 4):
        flagged = [float(r[0]) for r in rows if r[col] == "true"]
        assert len(flagged) == 2, f"column {col}: expected one flag per source"
        for doa in (0.0, 0.98):
            assert min(abs(t - doa) for t in flagged) < 0.08, f"no flag near {doa}"


def test_log_lines_go_to_the_stderr_of_each_call(tmp_path):
    """An in-process run logs to the stderr current at its call, not to the
    one an earlier run in the same process saw."""
    cfg = _write(tmp_path, SPECTRUM_INI)
    buffers = [io.StringIO(), io.StringIO()]
    for buf in buffers:
        with contextlib.redirect_stderr(buf), contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["spectrum", "--config", cfg]) == 0
    for buf in buffers:
        assert buf.getvalue().count("INFO spectrum ") == 2, buf.getvalue()


def test_spectrum_flags_dip_at_the_seam(tmp_path, capsys):
    """A dip next to -pi is flagged on the default whole-circle grid, at both
    of its end rows (the same angle), and no sidelobe is flagged instead."""
    seam = """\
[scenario]
m = 32
n = 20
l = 1
doas = -3.1405926535897933, 1.0
snr_db = 30
seed = 0
"""
    code, out, _ = _run(["spectrum", "--config", _write(tmp_path, seam)], capsys)
    assert code == 0
    _, rows = _rows(out)
    for col in (3, 4):
        flagged = [float(r[0]) for r in rows if r[col] == "true"]
        assert flagged[0] == -math.pi and flagged[-1] == math.pi
        assert flagged[1:-1] == pytest.approx([1.0], abs=0.01)


def test_spectrum_flags_the_close_pair_a_trial_resolves(tmp_path, capsys, cli_log):
    """Sources a quarter beamwidth apart at (160, 20, 16) and 31 dB: the
    1024-point display grid, 6.4 points per beamwidth, cannot split the two
    dips, but the flags come from a trial's search, which resolves both.  So
    each column flags one row near each source and no sidelobe."""
    doas = (0.0, 0.009817477042468103)
    ini = _spectrum_ini(160, 20, 16, f"{doas[0]!r}, {doas[1]!r}", 31, 1)
    code, out, _ = _run(["spectrum", "--config", _write(tmp_path, ini)], capsys)
    assert code == 0
    _, rows = _rows(out)
    for col in (3, 4):
        flagged = [float(r[0]) for r in rows if r[col] == "true"]
        assert len(flagged) == 2, f"column {col}: {flagged}"
        for theta in flagged:
            assert min(abs(theta - doa) for doa in doas) <= math.pi / 160, f"column {col}: {theta}"
    lines = [r.getMessage() for r in cli_log.records if r.getMessage().startswith("spectrum ")]
    assert len(lines) == 2 and not any("found" in line for line in lines), lines


@pytest.mark.parametrize("snr_db", [0, 10])
def test_spectrum_under_resolved_window_flags_what_it_finds(tmp_path, capsys, cli_log, snr_db):
    """A sub-window with one dip for two sources flags that one dip in each
    column, exits 0, and logs that it found 1 of 2 minima."""
    ini = _spectrum_ini(16, 20, 4, "0, 0.1", snr_db, 0, lo=-0.5, hi=0.6, grid_points=201)
    code, out, _ = _run(["spectrum", "--config", _write(tmp_path, ini)], capsys)
    assert code == 0
    _, rows = _rows(out)
    assert len(rows) == 201
    for col in (3, 4):
        assert sum(r[col] == "true" for r in rows) == 1, f"column {col}"
    lines = [r.getMessage() for r in cli_log.records if r.getMessage().startswith("spectrum ")]
    assert len(lines) == 2 and all(line.endswith("found 1 of 2") for line in lines), lines


@pytest.mark.parametrize("lo, hi", [("-4", "4"), ("-inf", "inf")])
def test_spectrum_window_wider_than_the_circle_is_a_config_error(tmp_path, capsys, lo, hi):
    """The [spectrum] window follows SearchWindow's rule: one wider than
    2 pi would scan a source twice and could leave another unflagged, so it
    exits 2 before any spectrum is computed."""
    ini = _spectrum_ini(16, 20, 4, "-3.0, 0.5", 20, 0, lo=lo, hi=hi, grid_points=801)
    code, out, err = _run(["spectrum", "--config", _write(tmp_path, ini)], capsys)
    assert code == 2 and out == ""
    assert "config error: invalid [spectrum]" in err and "wider than the circle" in err


def test_spectrum_reruns_byte_identical_and_out_dir(tmp_path, capsys):
    """Same config twice gives identical bytes; --out writes <dir>/spectrum.csv."""
    cfg = _write(tmp_path, SPECTRUM_INI)
    code1, out1, _ = _run(["spectrum", "--config", cfg], capsys)
    code2, out2, _ = _run(["spectrum", "--config", cfg], capsys)
    assert code1 == code2 == 0
    assert out1 == out2
    out_dir = tmp_path / "results"
    code3, out3, _ = _run(["spectrum", "--config", cfg, "--out", str(out_dir)], capsys)
    assert code3 == 0 and out3 == ""
    written = (out_dir / "spectrum.csv").read_text(encoding="utf-8")
    assert written == out1


def test_out_dir_from_config(tmp_path, capsys):
    """[output] out_dir works like the --out flag."""
    dest = tmp_path / "filed"
    cfg = _write(tmp_path, SPECTRUM_INI + f"\n[output]\nout_dir = {dest}\n")
    code, out, _ = _run(["spectrum", "--config", cfg], capsys)
    assert code == 0 and out == ""
    assert (dest / "spectrum.csv").exists()


def test_montecarlo_schema_and_worker_invariance(tmp_path, capsys):
    """MSE CSV: pinned header and db columns; workers never change the bytes."""
    cfg = _write(tmp_path, MONTECARLO_INI)
    code, out, _ = _run(["montecarlo", "--config", cfg], capsys)
    assert code == 0
    header, rows = _rows(out)
    assert header == (
        "sweep_value", "estimator", "source_index", "trials", "failures",
        "mse", "mse_db", "crb", "crb_db",
    )
    assert len(rows) == 2 * 2 * 2  # points x estimators x sources
    for r in rows:
        assert float(r[0]) in (5.0, 15.0)
        assert r[1] in ("music-ss", "gmusic-ss")
        assert int(r[2]) in (0, 1)
        assert int(r[3]) == 3
        assert 0 <= int(r[4]) <= 3
        mse, mse_db = float(r[5]), float(r[6])
        assert mse_db == pytest.approx(10.0 * math.log10(mse), rel=1e-12)
        crb, crb_db = float(r[7]), float(r[8])
        assert crb_db == pytest.approx(10.0 * math.log10(crb), rel=1e-12)
    code2, out2, _ = _run(["montecarlo", "--config", cfg, "--workers", "2"], capsys)
    assert code2 == 0
    assert out2 == out, "worker processes must not change the output bytes"


def test_montecarlo_strict_separation_flag_overrides_config(tmp_path, capsys):
    """--strict-separation true fails bulk-collision trials the config lets pass."""
    ini = MONTECARLO_INI.replace("values = 5, 15", "values = -12").replace("trials = 3", "trials = 10")
    cfg = _write(tmp_path, ini)
    _, lax, _ = _run(["montecarlo", "--config", cfg, "--strict-separation", "false"], capsys)
    _, strict, _ = _run(["montecarlo", "--config", cfg, "--strict-separation", "true"], capsys)

    def failures(out, estimator):
        _, rows = _rows(out)
        return {int(r[4]) for r in rows if r[1] == estimator}

    assert failures(lax, "gmusic-ss") == {0}
    assert all(f >= 5 for f in failures(strict, "gmusic-ss")), "deep noise must collide"
    assert failures(strict, "music-ss") == {0}, "plain spectra ignore strictness"


@pytest.mark.parametrize("sweep", ["l", "m"])
@pytest.mark.parametrize("value", ["inf", "nan"])
def test_montecarlo_non_finite_integer_sweep_value_is_config_error(tmp_path, capsys, sweep, value):
    """An inf or nan l/m sweep value exits 2 naming the value, not with a traceback."""
    ini = MONTECARLO_INI.replace("sweep = snr_db", f"sweep = {sweep}")
    ini = ini.replace("values = 5, 15", f"values = 4, {value}")
    code, out, err = _run(["montecarlo", "--config", _write(tmp_path, ini)], capsys)
    assert code == 2 and out == ""
    assert "config error: invalid [montecarlo]" in err and value in err


def test_seed_precedence_flag_env_config(tmp_path, capsys, monkeypatch):
    """--seed beats SMOOTHMUSIC_SEED beats the config seed."""
    cfg3 = _write(tmp_path, SPECTRUM_INI, "seed3.ini")
    cfg99 = _write(tmp_path, SPECTRUM_INI.replace("seed = 3", "seed = 99"), "seed99.ini")
    _, base, _ = _run(["spectrum", "--config", cfg3], capsys)
    _, other, _ = _run(["spectrum", "--config", cfg99], capsys)
    assert base != other, "different seeds must change the snapshots"

    monkeypatch.setenv("SMOOTHMUSIC_SEED", "3")
    _, env_wins, _ = _run(["spectrum", "--config", cfg99], capsys)
    assert env_wins == base

    monkeypatch.setenv("SMOOTHMUSIC_SEED", "99")
    _, flag_wins, _ = _run(["spectrum", "--config", cfg99, "--seed", "3"], capsys)
    assert flag_wins == base

    monkeypatch.setenv("SMOOTHMUSIC_SEED", "not-a-number")
    code, _, err = _run(["spectrum", "--config", cfg99], capsys)
    assert code == 2 and "SMOOTHMUSIC_SEED" in err


def test_config_errors_report_file_and_line(tmp_path, capsys):
    """Unknown sections/keys and bad values exit 2 and point at path:line."""
    bad_section = SPECTRUM_INI + "\n[bogus]\nx = 1\n"
    cfg = _write(tmp_path, bad_section, "bad_section.ini")
    line = bad_section.splitlines().index("[bogus]") + 1
    code, _, err = _run(["spectrum", "--config", cfg], capsys)
    assert code == 2
    assert f"{cfg}:{line}" in err and "unknown section" in err

    bad_key = SPECTRUM_INI.replace("seed = 3", "seed = 3\ntypo_key = 5")
    cfg = _write(tmp_path, bad_key, "bad_key.ini")
    line = bad_key.splitlines().index("typo_key = 5") + 1
    code, _, err = _run(["spectrum", "--config", cfg], capsys)
    assert code == 2
    assert f"{cfg}:{line}" in err and "unknown key" in err and "typo_key" in err

    bad_value = SPECTRUM_INI.replace("m = 32", "m = thirty-two")
    cfg = _write(tmp_path, bad_value, "bad_value.ini")
    line = bad_value.splitlines().index("m = thirty-two") + 1
    code, _, err = _run(["spectrum", "--config", cfg], capsys)
    assert code == 2
    assert f"{cfg}:{line}" in err and "bad value" in err


def test_section_without_required_keys_may_be_omitted(tmp_path, capsys):
    """[spectrum] has no required key, so a spectrum config may leave it out
    and gets its defaults; [montecarlo] has required keys and may not."""
    no_section = SPECTRUM_INI.replace("[spectrum]\ngrid_points = 64\n", "")
    code, out, _ = _run(["spectrum", "--config", _write(tmp_path, no_section)], capsys)
    assert code == 0
    header, rows = _rows(out)
    assert len(rows) == 1024
    assert float(rows[0][0]) == -math.pi and float(rows[-1][0]) == math.pi
    no_mc = MONTECARLO_INI[: MONTECARLO_INI.index("[montecarlo]")]
    code, _, err = _run(["montecarlo", "--config", _write(tmp_path, no_mc, "mc.ini")], capsys)
    assert code == 2 and "missing required section [montecarlo]" in err


def test_config_structural_errors(tmp_path, capsys):
    """Missing pieces, [DEFAULT], bad policies and ranges all exit 2."""
    cases = [
        (SPECTRUM_INI.replace("snr_db = 15\n", ""), "missing required key"),
        (SPECTRUM_INI.replace("[scenario]", "[DEFAULT]"), "[DEFAULT]"),
        ("[spectrum]\ngrid_points = 8\n", "missing required section"),
        (SPECTRUM_INI.replace("seed = 3", "signal_policy = fixed-matrix"), "signal_policy"),
        (SPECTRUM_INI.replace("grid_points = 64", "grid_points = 1"), "grid_points"),
        (SPECTRUM_INI.replace("seed = 3", "seed = -1"), "seed"),
        (SPECTRUM_INI.replace("doas = 0, 0.98", "doas = 0, 1bogus"), "bad value"),
        (SPECTRUM_INI + "\n[output]\nverbosity = loud\n", "verbosity"),
        (SPECTRUM_INI.replace("m = 32", "m = 4"), "invalid [scenario]"),
    ]
    for i, (text, needle) in enumerate(cases):
        cfg = _write(tmp_path, text, f"bad{i}.ini")
        code, _, err = _run(["spectrum", "--config", cfg], capsys)
        assert code == 2, f"case {i} should be a config error: {text!r}"
        assert needle in err, f"case {i}: expected {needle!r} in {err!r}"
    code, _, err = _run(["spectrum", "--config", str(tmp_path / "missing.ini")], capsys)
    assert code == 2 and "cannot read config" in err


def test_angle_suffixes_deg_and_rad(tmp_path, capsys):
    """'30deg' and its radian value produce identical runs; 'rad' is a no-op."""
    base = SPECTRUM_INI.replace("doas = 0, 0.98", "doas = 0deg, 30deg")
    equiv = SPECTRUM_INI.replace("doas = 0, 0.98", f"doas = 0, {math.pi / 6!r}rad")
    _, out_deg, _ = _run(["spectrum", "--config", _write(tmp_path, base, "deg.ini")], capsys)
    _, out_rad, _ = _run(["spectrum", "--config", _write(tmp_path, equiv, "rad.ini")], capsys)
    assert out_deg == out_rad


def test_runtime_failure_exits_one(tmp_path, capsys):
    """A non-separated strict spectrum is a runtime error (exit 1), not a crash."""
    ini = SPECTRUM_INI.replace("snr_db = 15", "snr_db = -25")
    ini = ini.replace("grid_points = 64", "grid_points = 64\nstrict_separation = true")
    cfg = _write(tmp_path, ini)
    code, out, _ = _run(["spectrum", "--config", cfg], capsys)
    assert code == 1
    assert out == ""
    # the flag overrides the config key on spectrum as on montecarlo
    lax = _write(tmp_path, ini.replace("strict_separation = true", ""), "lax.ini")
    assert _run(["spectrum", "--config", lax], capsys)[0] == 0
    code, out, _ = _run(["spectrum", "--config", lax, "--strict-separation", "true"], capsys)
    assert code == 1 and out == ""


@pytest.mark.parametrize("n", [1, 2])
def test_spectrum_rejects_too_few_virtual_snapshots(tmp_path, capsys, n):
    """spectrum applies the rank rule plans use: two sources at N L = 2 leave
    G-MUSIC no noise eigenvalue to estimate sigma2 from, and at N L = 1 MUSIC
    would read a null vector.  Exit 2 like montecarlo, not a CSV."""
    ini = f"[scenario]\nm = 16\nn = {n}\nl = 1\ndoas = 0.3, 1.2\nsnr_db = 20\nseed = 0\n\n[spectrum]\n"
    code, out, err = _run(["spectrum", "--config", _write(tmp_path, ini)], capsys)
    assert code == 2 and out == ""
    assert "config error: invalid [scenario]" in err and "gmusic-ss needs N L >= 3" in err


def test_flags_are_rejected_where_they_do_not_apply(tmp_path, capsys):
    """--workers belongs to montecarlo only, --strict-separation to spectrum
    and montecarlo; elsewhere argparse exits 2 instead of ignoring them."""
    cfg = _write(tmp_path, SPECTRUM_INI)
    for argv in (
        ["septable", "--config", cfg, "--workers", "2"],
        ["spectrum", "--config", cfg, "--workers", "2"],
        ["septable", "--config", cfg, "--strict-separation", "true"],
    ):
        with pytest.raises(SystemExit) as info:
            cli.main(argv)
        assert info.value.code == 2, argv
        assert "unrecognized arguments" in capsys.readouterr().err


def test_septable_schema_and_determinism(tmp_path, capsys):
    """Separation-table CSV: pinned header, one row per smoothing factor."""
    ini = """\
[scenario]
m = 20
n = 8
l = 2
doas = 0.3, 1.2
snr_db = 10
seed = 1

[septable]
l_values = 2, 4
draws = 5
"""
    cfg = _write(tmp_path, ini)
    code, out, _ = _run(["septable", "--config", cfg], capsys)
    assert code == 0
    header, rows = _rows(out)
    assert header == ("L", "min_snr_db_median", "min_snr_db_iqr")
    assert [int(r[0]) for r in rows] == [2, 4]
    for r in rows:
        assert math.isfinite(float(r[1]))
        assert float(r[2]) >= 0.0
    _, again, _ = _run(["septable", "--config", cfg], capsys)
    assert again == out
    # a sourceless table cannot be asked for: the doas parser refuses an empty list
    cfg = _write(tmp_path, ini.replace("doas = 0.3, 1.2", "doas = ,"), "sourceless.ini")
    code, out, err = _run(["septable", "--config", cfg], capsys)
    assert code == 2 and out == "" and "bad value for 'doas'" in err


def test_verify_schema(tmp_path, capsys):
    """Verification CSV: pinned header and the eight named checks in order."""
    ini = """\
[verify]
m = 64
n = 16
l = 8
trials = 2
seed = 0
"""
    cfg = _write(tmp_path, ini)
    code, out, _ = _run(["verify", "--config", cfg], capsys)
    assert code == 0
    header, rows = _rows(out)
    assert header == ("check", "m", "n", "l", "statistic", "threshold", "pass")
    assert [r[0] for r in rows] == [
        "mp-ks", "edge-confinement", "spike-eigenvalue", "spike-projection",
        "edge-sticking", "hankel-vs-iid-overlap", "determinant-roots",
        "quadratic-form-decay",
    ]
    for r in rows:
        assert (int(r[1]), int(r[2]), int(r[3])) == (64, 16, 8)
        assert math.isfinite(float(r[4])) and math.isfinite(float(r[5]))
        assert r[6] in ("true", "false")
    code2, _, err = _run(
        ["verify", "--config", _write(tmp_path, ini.replace("trials = 2", "trials = 1"), "v1.ini")],
        capsys,
    )
    assert code2 == 2 and "trials" in err
    code3, _, err = _run(
        ["verify", "--config", _write(tmp_path, ini.replace("l = 8", "l = 64"), "v64.ini")], capsys
    )
    assert code3 == 2 and "invalid [verify]" in err
    for sigma2 in ("nan", "inf", "0"):
        bad = ini.replace("trials = 2", f"trials = 2\nsigma2 = {sigma2}")
        code4, _, err = _run(["verify", "--config", _write(tmp_path, bad, "vs.ini")], capsys)
        assert code4 == 2 and "invalid [verify]" in err and "sigma2" in err, (sigma2, err)


def test_import_does_not_load_quadrature():
    """The package needs numpy alone, so `import smoothmusic.cli` loads no
    scipy module at all (scipy.integrate, scipy.optimize or any other); a
    fresh interpreter, so other tests' imports cannot hide a regression."""
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, smoothmusic.cli; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])",
        ],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# run one command in a fresh interpreter; print its exit code and the numpy
# and scipy modules that first loaded while cli.main ran
_NEW_MODULES_DURING_RUN = """\
import contextlib, io, sys
import smoothmusic.cli as cli
argv = sys.argv[1:]
cli.load_config(argv[2], argv[0])
before = set(sys.modules)
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(argv)
new = set(sys.modules) - before
print(code, *sorted(m for m in new if m.split(".")[0] in ("numpy", "scipy")))
"""


@pytest.mark.parametrize(
    "command, ini, flags",
    [
        ("spectrum", SPECTRUM_INI, []),
        ("montecarlo", MONTECARLO_INI + "doa_mode = intervals\n", ["--workers", "1"]),
        ("montecarlo", MONTECARLO_INI + "doa_mode = window\n", ["--workers", "1"]),
        (
            "septable",
            MONTECARLO_INI[: MONTECARLO_INI.index("[montecarlo]")]
            + "[septable]\nl_values = 2, 4\ndraws = 3\n",
            [],
        ),
        ("verify", "[verify]\nm = 32\nn = 8\nl = 4\ntrials = 2\nseed = 0\n", []),
    ],
    ids=["spectrum", "montecarlo-intervals", "montecarlo-window", "septable", "verify"],
)
def test_command_loads_no_numpy_or_scipy_module_while_it_runs(tmp_path, command, ini, flags):
    """Every numpy submodule a command uses is imported with the package, so
    none first loads inside the command's run, which the benchmark times
    apart from start-up; a fresh interpreter, so other tests' imports cannot
    hide a late import."""
    cfg = _write(tmp_path, ini)
    proc = subprocess.run(
        [sys.executable, "-c", _NEW_MODULES_DURING_RUN, command, "--config", cfg, *flags],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0"], proc.stdout


def test_console_script_matches_in_process(tmp_path, capsys):
    """The installed `smoothmusic` entry point emits the same CSV."""
    cfg = _write(tmp_path, SPECTRUM_INI)
    _, expected, _ = _run(["spectrum", "--config", cfg], capsys)
    proc = subprocess.run(
        [sys.executable, "-m", "smoothmusic.cli", "spectrum", "--config", cfg],
        input="",
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == expected


def test_spectrum_into_a_closed_pipe_exits_without_traceback(tmp_path):
    """A reader that stops after one line (`| head -1`) ends the command with
    exit 1 and no BrokenPipeError traceback; the CSV is far larger than a
    64 KiB pipe buffer, so the writer is still writing when the pipe closes."""
    cfg = _write(tmp_path, SPECTRUM_INI.replace("grid_points = 64", "grid_points = 20000"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "smoothmusic.cli", "spectrum", "--config", cfg],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_child_env(),
    )
    assert proc.stdout.readline().startswith(b"theta_rad,")
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err and "BrokenPipeError" not in err, err
