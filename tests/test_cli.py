"""Command-line interface: ingestion, outputs, manifests, exit codes."""

import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tvacov
from tvacov import acov, cli, tuning
from tvacov import study as study_module
from tvacov.cli import ingest_csv, main
from tvacov.errors import ConfigurationError, ParseError
from tvacov.kernels import epanechnikov
from tvacov.procgen import generate, model_preset
from tvacov.study import StudyConfig


def write_csv(path, values, header=None, index=False):
    lines = [] if header is None else [header]
    for i, v in enumerate(values):
        lines.append(f"2021-{i:05d},{float(v)!r}" if index
                     else repr(float(v)))
    path.write_text("\n".join(lines) + "\n")
    return path


def test_ingest_plain_column(tmp_path):
    rng = np.random.default_rng(0)
    vals = rng.normal(size=60)
    p = write_csv(tmp_path / "a.csv", vals)
    y = ingest_csv(p)
    assert y.n == 60
    np.testing.assert_array_equal(y.values, vals)


def test_ingest_two_columns_with_header(tmp_path):
    rng = np.random.default_rng(1)
    vals = rng.normal(size=55)
    p = write_csv(tmp_path / "b.csv", vals, header="date,value", index=True)
    y = ingest_csv(p)
    assert y.n == 55
    np.testing.assert_array_equal(y.values, vals)


def test_ingest_blank_lines_skipped(tmp_path):
    vals = [repr(float(v)) for v in range(60)]
    text = "\n\n".join(vals)
    p = tmp_path / "c.csv"
    p.write_text(text + "\n")
    assert ingest_csv(p).n == 60


def test_ingest_errors_name_the_line(tmp_path):
    rows = [repr(float(v)) for v in range(60)]
    rows[30] = "oops"
    p = tmp_path / "bad.csv"
    p.write_text("\n".join(rows) + "\n")
    with pytest.raises(ParseError, match="line 31"):
        ingest_csv(p)

    rows[30] = "nan"
    p.write_text("\n".join(rows) + "\n")
    with pytest.raises(ParseError, match="line 31"):
        ingest_csv(p)

    p.write_text("a,b,c\n" + "\n".join(repr(float(v)) for v in range(60)))
    with pytest.raises(ParseError, match="1 or 2 columns"):
        ingest_csv(p)

    p.write_text("\n".join(repr(float(v)) for v in range(10)) + "\n")
    with pytest.raises(ParseError, match="at least 50"):
        ingest_csv(p)

    with pytest.raises(ParseError, match="cannot read"):
        ingest_csv(tmp_path / "missing.csv")


def test_ingest_second_header_is_an_error(tmp_path):
    rows = ["value"] + [repr(float(v)) for v in range(30)] + ["value"]
    rows += [repr(float(v)) for v in range(30)]
    p = tmp_path / "two_headers.csv"
    p.write_text("\n".join(rows) + "\n")
    with pytest.raises(ParseError, match="line 32"):
        ingest_csv(p)


ESTIMATE_ARGS = [
    "estimate", "--model", "model1", "--n", "200", "--seed", "3",
    "--lags", "0,1", "--draws", "2000", "--h", "3",
    "--b-h", "0.2", "--b-k", "0.2", "--m", "3", "--tau", "0.2",
]


def test_estimate_manifest_roundtrip(tmp_path):
    d1 = tmp_path / "one"
    d2 = tmp_path / "two"
    assert main(ESTIMATE_ARGS + ["--out", str(d1)]) == 0
    assert (d1 / "gamma0_band.csv").exists()
    assert (d1 / "gamma1_band.csv").exists()
    assert main(["estimate", "--config", str(d1 / "manifest.txt"),
                 "--out", str(d2)]) == 0
    for name in ("gamma0_band.csv", "gamma1_band.csv", "manifest.txt"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_estimate_thread_count_invisible(tmp_path):
    d1 = tmp_path / "t1"
    d3 = tmp_path / "t3"
    assert main(ESTIMATE_ARGS + ["--out", str(d1), "--threads", "1"]) == 0
    assert main(ESTIMATE_ARGS + ["--out", str(d3), "--threads", "3"]) == 0
    for name in ("gamma0_band.csv", "gamma1_band.csv", "manifest.txt"):
        assert (d1 / name).read_bytes() == (d3 / name).read_bytes()
    assert "threads" not in (d1 / "manifest.txt").read_text()


def test_estimate_from_csv_resolves_tuning(tmp_path):
    rng = np.random.default_rng(7)
    vals = np.cumsum(rng.normal(size=300)) * 0.05 + rng.normal(size=300)
    src = write_csv(tmp_path / "series.csv", vals)
    d1 = tmp_path / "r1"
    d2 = tmp_path / "r2"
    args = ["estimate", "--input", str(src), "--lags", "0", "--h", "3",
            "--m", "4", "--tau", "0.2", "--draws", "2000"]
    assert main(args + ["--out", str(d1)]) == 0
    manifest = dict(
        line.split("=", 1) for line in
        (d1 / "manifest.txt").read_text().splitlines()
    )
    assert manifest["command"] == "estimate"
    assert manifest["h"] == "3"
    b_h = float(manifest["b_h"])  # cross-validated, echoed as a plain float
    assert 0.15 <= b_h <= 0.45
    assert main(["estimate", "--config", str(d1 / "manifest.txt"),
                 "--out", str(d2)]) == 0
    assert (d1 / "gamma0_band.csv").read_bytes() == \
        (d2 / "gamma0_band.csv").read_bytes()


def test_estimate_band_file_format(tmp_path):
    d = tmp_path / "fmt"
    assert main(ESTIMATE_ARGS + ["--out", str(d)]) == 0
    lines = (d / "gamma0_band.csv").read_text().splitlines()
    assert lines[0] == "t,center,lower,upper"
    t, c, lo, up = (np.array(col) for col in zip(
        *(list(map(float, line.split(","))) for line in lines[1:])
    ))
    assert np.all(lo <= c) and np.all(c <= up)
    assert np.all(np.diff(t) > 0)


def test_decaying_variance_series_end_to_end(tmp_path):
    # variance shrinking over time plus a positive short-range correlation:
    # the level-0 curve must trend down and the lag-1 band must exclude zero
    # somewhere
    rng = np.random.default_rng(12)
    n = 1200
    t = np.arange(1, n + 1) / n
    z = rng.normal(size=n + 1)
    scale = np.sqrt(2.0 - t)
    vals = scale * (z[1:] + 0.45 * z[:-1])
    src = write_csv(tmp_path / "north_like.csv", vals)
    d = tmp_path / "out"
    args = ["estimate", "--input", str(src), "--lags", "0,1", "--h", "3",
            "--b-h", "0.2", "--b-k", "0.2", "--m", "4", "--tau", "0.2",
            "--draws", "2000", "--out", str(d)]
    assert main(args) == 0

    g0 = np.loadtxt(d / "gamma0_band.csv", delimiter=",", skiprows=1)
    center = g0[:, 1]
    q = len(center) // 4
    assert center[:q].mean() > center[-q:].mean()

    g1 = np.loadtxt(d / "gamma1_band.csv", delimiter=",", skiprows=1)
    assert np.any(g1[:, 2] > 0.0)  # lower band above zero somewhere


def test_study_cli_writes_report(tmp_path, capsys):
    d = tmp_path / "study"
    rc = main(["study", "--model", "model1", "--n", "150", "--reps", "3",
               "--draws", "1000", "--out", str(d)])
    assert rc == 0
    shown = capsys.readouterr().out
    assert "difference study" in shown
    assert "coverage" in shown
    report = (d / "study_report.txt").read_text().splitlines()
    assert report[0] == "kind=difference"
    assert any(line.startswith("coverage.lag0=") for line in report)
    manifest = (d / "manifest.txt").read_text()
    assert "command=study" in manifest
    assert "threads" not in manifest


def test_naive_study_cli_smoke(capsys):
    rc = main(["naive-study", "--model", "model1", "--n", "150", "--reps",
               "2", "--draws", "1000"])
    assert rc == 0
    assert "naive study" in capsys.readouterr().out


def test_study_cli_reproducible_across_threads(tmp_path):
    base = ["study", "--model", "model1", "--n", "150", "--reps", "3",
            "--draws", "1000", "--seed", "9"]
    d1 = tmp_path / "a"
    d2 = tmp_path / "b"
    assert main(base + ["--threads", "1", "--out", str(d1)]) == 0
    assert main(base + ["--threads", "2", "--out", str(d2)]) == 0
    assert (d1 / "study_report.txt").read_bytes() == \
        (d2 / "study_report.txt").read_bytes()
    assert (d1 / "manifest.txt").read_bytes() == \
        (d2 / "manifest.txt").read_bytes()


def test_tune_cli(tmp_path, capsys):
    d = tmp_path / "tuned"
    rc = main(["tune", "--model", "model1", "--n", "200", "--seed", "2",
               "--out", str(d)])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("h=")
    lines = (d / "tune.txt").read_text().splitlines()
    keys = [line.split("=")[0] for line in lines]
    assert keys == ["h", "b_h", "b_k", "m", "tau"]
    assert "command=tune" in (d / "manifest.txt").read_text()


def test_lag_select_cli(tmp_path, capsys):
    d = tmp_path / "lag"
    rc = main(["lag-select", "--model", "model1", "--n", "200", "--seed",
               "1", "--out", str(d)])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("h=")
    rows = (d / "lag_selection.csv").read_text().splitlines()
    assert rows[0] == "t,h_star"
    assert len(rows) == 201


def test_exit_code_configuration_error(capsys):
    assert main(ESTIMATE_ARGS) == 2  # no --out
    assert "error:" in capsys.readouterr().err


def test_exit_code_both_sources(tmp_path):
    p = write_csv(tmp_path / "x.csv", np.arange(60.0))
    rc = main(["estimate", "--input", str(p), "--model", "model1",
               "--n", "100", "--out", str(tmp_path / "o")])
    assert rc == 2


def test_exit_code_model_needs_n(tmp_path):
    rc = main(["estimate", "--model", "model1",
               "--out", str(tmp_path / "o")])
    assert rc == 2


def test_exit_code_parse_error(tmp_path):
    p = write_csv(tmp_path / "short.csv", np.arange(10.0))
    rc = main(["estimate", "--input", str(p), "--out", str(tmp_path / "o")])
    assert rc == 3


def test_exit_code_bad_config_key(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("volume=11\n")
    rc = main(["estimate", "--config", str(cfg),
               "--out", str(tmp_path / "o")])
    assert rc == 2


def test_exit_code_numeric_failure():
    # bandwidths too small for any window to engage 4 points: every
    # replication raises SingularDesignError
    rc = main(["study", "--model", "model1", "--n", "50", "--reps", "2",
               "--draws", "1000", "--b-h", "0.01", "--b-k", "0.01"])
    assert rc == 4


def test_exit_code_study_bad_tuning():
    # rejected by the configuration, before any replication runs
    base = ["study", "--model", "model1", "--n", "150", "--reps", "20",
            "--draws", "1000"]
    for bad in (["--b-h", "0.6"], ["--tau", "0.7"], ["--m", "0"]):
        assert main(base + bad) == 2, bad
    # h >= n - 2 leaves too few differences for any replication
    assert main(["study", "--model", "model1", "--n", "50", "--reps", "2",
                 "--draws", "1000", "--h", "48"]) == 2


def test_exit_code_block_width_above_working_length(tmp_path, monkeypatch):
    # m above (n - h)/4 is a configuration error, found before any tuning
    study = ["study", "--model", "model1", "--n", "150", "--reps", "20",
             "--draws", "1000"]
    assert main(study + ["--m", "40"]) == 2
    assert main(study + ["--m", "40", "--h", "2"]) == 2

    def no_tuning(*args, **kwargs):
        raise AssertionError("tuning ran")

    monkeypatch.setattr(acov, "gcv_bandwidth", no_tuning)
    base = ["estimate", "--model", "model1", "--n", "200", "--seed", "3",
            "--out", str(tmp_path / "o")]
    # before the lag scan and cross-validation: every h the scan can
    # return is above max(lags), so m = 60 > (200 - 2) / 4 fails for all
    assert main(base + ["--m", "60"]) == 2
    monkeypatch.setattr(acov, "select_lag", no_tuning)
    assert main(base + ["--h", "3", "--m", "3,50"]) == 2


def counting(monkeypatch, module, name):
    calls = []
    orig = getattr(module, name)

    def wrapper(*args, **kwargs):
        result = orig(*args, **kwargs)
        calls.append(result)
        return result

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_estimate_one_quantile_per_context(tmp_path, monkeypatch, capsys):
    quantiles = counting(monkeypatch, cli, "bootstrap_quantile")
    bands = counting(monkeypatch, cli, "build_band")
    assert main(ESTIMATE_ARGS + ["--out", str(tmp_path / "same")]) == 0
    assert len(quantiles) == 1
    assert [band.lag for band in bands] == [0, 1]
    assert bands[0].sigma_factor == bands[1].sigma_factor
    # lag 0 keeps the seed it had with one bootstrap per lag
    assert quantiles[0].seed == cli._child_seed(3, 10, 0)
    lines = capsys.readouterr().out.splitlines()
    assert "quantile=shared with lag 0" not in lines[0]
    assert lines[1].endswith("quantile=shared with lag 0")

    quantiles.clear()
    bands.clear()
    other = list(ESTIMATE_ARGS)
    other[other.index("--b-k") + 1] = "0.25"
    assert main(other + ["--out", str(tmp_path / "apart")]) == 0
    assert len(quantiles) == 2
    assert [q.seed for q in quantiles] == [cli._child_seed(3, 10, lag)
                                           for lag in (0, 1)]
    assert bands[0].sigma_factor != bands[1].sigma_factor
    assert "shared" not in capsys.readouterr().out


def test_estimate_prints_flags_and_monte_carlo_interval(tmp_path, capsys):
    assert main(ESTIMATE_ARGS + ["--out", str(tmp_path / "o")]) == 0
    lines = capsys.readouterr().out.splitlines()
    for lag, line in zip((0, 1), lines):
        assert line.startswith(f"lag {lag}: ")
        assert "has_negative=False" in line
        assert "clipped=False" in line
        assert "95% Monte-Carlo interval [" in line
    assert main(ESTIMATE_ARGS + ["--method", "gumbel",
                                 "--out", str(tmp_path / "g")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "has_negative=" in lines[0] and "Monte-Carlo" not in lines[0]


def test_gumbel_cross_validates_below_its_limit(tmp_path):
    # over the whole default grid cross-validation picks b = 0.44 here,
    # outside the domain of the limit formula
    d = tmp_path / "g"
    rc = main(["estimate", "--model", "model1", "--n", "400", "--seed", "3",
               "--method", "gumbel", "--h", "3", "--m", "3", "--tau", "0.2",
               "--out", str(d)])
    assert rc == 0
    manifest = dict(line.split("=", 1)
                    for line in (d / "manifest.txt").read_text().splitlines())
    assert float(manifest["b_h"]) < 1.0 / math.e
    assert float(manifest["b_k"]) < 1.0 / math.e


def test_gumbel_rejects_bandwidths_before_tuning(tmp_path, monkeypatch):
    def no_tuning(*args, **kwargs):
        raise AssertionError("tuning ran")

    monkeypatch.setattr(acov, "select_lag", no_tuning)
    monkeypatch.setattr(acov, "gcv_bandwidth", no_tuning)
    base = ["estimate", "--model", "model1", "--n", "400", "--seed", "3",
            "--method", "gumbel", "--out", str(tmp_path / "o")]
    assert main(base + ["--b-h", "0.4", "--b-k", "0.4"]) == 2
    grid = tmp_path / "grid.cfg"
    grid.write_text("bandwidth_grid=0.4,0.45\n")
    assert main(base + ["--config", str(grid)]) == 2


def test_exit_code_tuning_failure(tmp_path):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text("bandwidth_grid=0.01\n")
    rc = main(["tune", "--model", "model1", "--n", "60", "--config",
               str(cfg)])
    assert rc == 5


def test_argparse_surface():
    with pytest.raises(SystemExit) as e:
        main(["--version"])
    assert e.value.code == 0
    with pytest.raises(SystemExit) as e:
        main([])
    assert e.value.code == 2


# ---------------------------------------------------------------------------
# the option table

def no_tuning(*args, **kwargs):
    raise AssertionError("tuning ran")


REPLAYED = {
    "estimate": ESTIMATE_ARGS,
    "study": ["study", "--model", "model1", "--n", "150", "--reps", "3",
              "--draws", "1000", "--seed", "4"],
    "naive-study": ["naive-study", "--model", "model1", "--n", "150",
                    "--reps", "2", "--draws", "1000"],
    "tune": ["tune", "--model", "model1", "--n", "200", "--seed", "2"],
    "lag-select": ["lag-select", "--model", "model1", "--n", "200"],
}


@pytest.mark.parametrize("command", sorted(REPLAYED))
def test_every_command_replays_its_manifest(command, tmp_path):
    d1, d2 = tmp_path / "run", tmp_path / "replay"
    assert main(REPLAYED[command] + ["--out", str(d1)]) == 0
    assert main([command, "--config", str(d1 / "manifest.txt"),
                 "--out", str(d2)]) == 0
    names = sorted(p.name for p in d1.iterdir())
    assert names == sorted(p.name for p in d2.iterdir())
    for name in names:
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name


@pytest.mark.parametrize("command, line", [
    ("estimate", "reps=3"),
    ("estimate", "full=true"),
    ("estimate", "min_volatility=true"),
    ("estimate", "h0=4"),
    ("study", "h0=4"),
    ("study", "threshold=2.0"),
    ("study", "grid_points=20"),
    ("study", "input=series.csv"),
    ("lag-select", "bandwidth_grid=0.2,0.3"),
])
def test_config_key_the_command_does_not_take(command, line, tmp_path,
                                              capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(line + "\n")
    argv = REPLAYED[command] + ["--config", str(cfg),
                                "--out", str(tmp_path / "o")]
    assert main(argv) == 2
    key = line.split("=")[0]
    assert f"does not take {key!r}" in capsys.readouterr().err


def test_kernel_other_than_epanechnikov_is_rejected(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("kernel=gaussian\n")
    assert main(ESTIMATE_ARGS + ["--config", str(cfg),
                                 "--out", str(tmp_path / "o")]) == 2
    assert "bad value for kernel: 'gaussian'" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [
    ("--lags", "abc"), ("--m", "x"), ("--b-k", "0.2,zz"), ("--h", "3.5"),
    ("--seed", "-1"), ("--threads", "0"),
])
def test_bad_flag_values_exit_2_without_traceback(flag, value, tmp_path,
                                                  capsys):
    argv = ["estimate", "--model", "model1", "--n", "200", flag, value,
            "--out", str(tmp_path / "o")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"bad value for {flag[2:].replace('-', '_')}: {value!r}" in err
    assert "Traceback" not in err


def test_bad_method_in_config_fails_before_tuning(tmp_path, monkeypatch):
    monkeypatch.setattr(acov, "select_lag", no_tuning)
    monkeypatch.setattr(acov, "gcv_bandwidth", no_tuning)
    cfg = tmp_path / "c.cfg"
    cfg.write_text("method=tube\n")
    assert main(["estimate", "--model", "model1", "--n", "400", "--config",
                 str(cfg), "--out", str(tmp_path / "o")]) == 2


def test_study_with_bandwidth_grid_replays_its_report(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("bandwidth_grid=0.3,0.35,0.4\nb_h=auto\nb_k=auto\n")
    d1, d2 = tmp_path / "run", tmp_path / "replay"
    assert main(["study", "--model", "model1", "--n", "150", "--reps", "3",
                 "--draws", "1000", "--config", str(cfg),
                 "--out", str(d1)]) == 0
    manifest = (d1 / "manifest.txt").read_text()
    assert "bandwidth_grid=0.3,0.35,0.4\n" in manifest
    assert main(["study", "--config", str(d1 / "manifest.txt"),
                 "--out", str(d2)]) == 0
    for name in ("study_report.txt", "manifest.txt"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


@pytest.mark.parametrize("line", ["m=3,4", "b_k=0.2,0.25", "tau=0.2,0.3"])
def test_study_takes_one_value_per_tuning_list(line, tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(line + "\n")
    assert main(REPLAYED["study"] + ["--config", str(cfg)]) == 2


@pytest.mark.parametrize("points", ["0", "-3"])
def test_grid_points_below_one_fail_before_tuning(points, tmp_path,
                                                  monkeypatch):
    monkeypatch.setattr(acov, "select_lag", no_tuning)
    monkeypatch.setattr(acov, "gcv_bandwidth", no_tuning)
    argv = ["estimate", "--model", "model1", "--n", "200", "--h", "3",
            "--grid-points", points, "--out", str(tmp_path / "o")]
    assert main(argv) == 2


@pytest.mark.parametrize("bad", [["--draws", "5"], ["--alpha", "1.5"],
                                 ["--alpha", "0"]])
def test_draws_and_alpha_fail_before_tuning(bad, tmp_path, monkeypatch):
    monkeypatch.setattr(acov, "select_lag", no_tuning)
    monkeypatch.setattr(acov, "gcv_bandwidth", no_tuning)
    base = ["estimate", "--model", "model1", "--n", "400",
            "--out", str(tmp_path / "o")]
    assert main(base + bad) == 2
    # gumbel draws no bootstrap, so any draw count is accepted
    study = ["study", "--model", "model1", "--n", "150", "--reps", "3"]
    if bad[0] == "--draws":
        assert main(study + ["--method", "gumbel"] + bad) == 0
    monkeypatch.setattr(study_module, "_run", no_tuning)
    assert main(study + bad) == 2


def test_lag_zero_reuses_the_lag_scan_bandwidth(tmp_path, monkeypatch):
    calls = counting(monkeypatch, acov, "gcv_bandwidth")
    d = tmp_path / "auto"
    assert main(["tune", "--model", "model1", "--n", "300", "--seed", "2",
                 "--out", str(d)]) == 0
    assert len(calls) == 1  # lag 1 only; lag 0 is the scan's lag-h choice
    calls.clear()
    assert main(["tune", "--config", str(d / "manifest.txt"),
                 "--out", str(tmp_path / "replay")]) == 0
    assert len(calls) == 2  # fixed h: no scan, so lag 0 cross-validates
    assert (d / "tune.txt").read_bytes() == \
        (tmp_path / "replay" / "tune.txt").read_bytes()


# ---------------------------------------------------------------------------
# options no run reads are rejected, not dropped

def exit_code(argv):
    """main's return code, or argparse's exit code for a flag it rejects."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.fixture
def tripwires(monkeypatch):
    monkeypatch.setattr(cli, "select_lag", no_tuning)
    monkeypatch.setattr(acov, "select_lag", no_tuning)
    monkeypatch.setattr(acov, "gcv_bandwidth", no_tuning)
    monkeypatch.setattr(study_module, "_run", no_tuning)


@pytest.mark.parametrize("command, key", [
    ("tune", "threads"), ("lag-select", "threads"), ("naive-study", "h"),
])
def test_flag_and_config_key_a_command_does_not_read(command, key, tmp_path,
                                                     tripwires):
    argv = REPLAYED[command] + ["--out", str(tmp_path / "o")]
    assert exit_code(argv + [cli._flag(key), "2"]) == 2
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"{key}=2\n")
    assert main(argv + ["--config", str(cfg)]) == 2


def test_naive_study_takes_lags_at_or_above_the_study_h(tmp_path):
    # the residual-based estimator has no difference lag to stay below
    argv = REPLAYED["naive-study"] + ["--lags", "0,3", "--out", str(tmp_path)]
    assert main(argv) == 0


def test_naive_study_records_no_difference_lag(tmp_path):
    d = tmp_path / "naive"
    assert main(REPLAYED["naive-study"] + ["--out", str(d)]) == 0
    manifest = (d / "manifest.txt").read_text().splitlines()
    assert not any(line.startswith("h=") for line in manifest)
    report = (d / "study_report.txt").read_text().splitlines()
    assert not any(line.startswith("config.h=") for line in report)


@pytest.mark.parametrize("argv", [
    ["estimate", "--model", "model1", "--n", "200", "--thr", "2"],
    ["lag-select", "--model", "model1", "--n", "200", "--thresh", "2"],
    # without prefix matching --h cannot expand to --help either
    ["naive-study", "--model", "model1", "--n", "150", "--h", "5"],
])
def test_abbreviated_flags_exit_2(argv, tmp_path, tripwires):
    assert exit_code(argv + ["--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("command", ["estimate", "tune", "lag-select"])
def test_n_beside_input_must_be_its_row_count(command, tmp_path, capsys,
                                              tripwires):
    p = write_csv(tmp_path / "y.csv", np.random.default_rng(2).normal(size=120))
    argv = [command, "--input", str(p), "--out", str(tmp_path / "o")]
    assert main(argv + ["--n", "200"]) == 2
    assert "differs from the 120 rows" in capsys.readouterr().err
    # manifests record n as the row count, so an equal n goes on to the scan
    with pytest.raises(AssertionError, match="tuning ran"):
        main(argv + ["--n", "120"])


def test_lag_select_rejects_nan_threshold(tmp_path, monkeypatch):
    monkeypatch.setattr(tuning, "gcv_bandwidth", no_tuning)
    argv = ["lag-select", "--model", "model1", "--n", "200",
            "--out", str(tmp_path / "o")]
    assert main(argv + ["--threshold", "nan"]) == 2
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("lags, flag", [("1", "--b-h"), ("1,2", "--b-h"),
                                        ("0", "--b-k")])
def test_estimate_rejects_bandwidth_of_a_lag_not_asked_for(lags, flag,
                                                           tmp_path,
                                                           tripwires):
    argv = ["estimate", "--model", "model1", "--n", "200", "--lags", lags,
            flag, "0.3", "--out", str(tmp_path / "o")]
    assert main(argv) == 2
    assert main(argv + ["--h", "3"]) == 2


def test_study_min_volatility_with_fixed_blocks_exits_2(tripwires):
    study = ["study", "--model", "model1", "--n", "150", "--reps", "3",
             "--draws", "1000", "--min-volatility"]
    assert main(study) == 2
    assert main(study + ["--m", "4", "--tau", "0.3"]) == 2
    with pytest.raises(AssertionError, match="tuning ran"):
        main(study + ["--m", "auto"])


@pytest.mark.parametrize("bad", [["--grid-points", "0"],
                                 ["--b-k", "0.2,0.3"], ["--m", "600"]])
def test_estimate_with_auto_h_checks_before_the_lag_scan(bad, tmp_path,
                                                         tripwires):
    # every h the scan can return is above max(lags) = 1, so m = 600 >
    # (2000 - 2) / 4 fails for all of them
    argv = ["estimate", "--model", "model1", "--n", "2000", "--h", "auto",
            "--lags", "0,1", "--out", str(tmp_path / "o")]
    assert main(argv + bad) == 2


@pytest.mark.parametrize("bad, message", [
    (["--b-h", "0.7"], "b_h must be in (0, 1/2), got [0.7]"),
    (["--b-k", "0.6"], "b_k must be in (0, 1/2), got [0.6]"),
    (["--tau", "0.9"], "tau must be in (0, 1/2), got [0.9]"),
    (["--b-h", "nan"], "b_h must be in (0, 1/2), got [nan]"),
    (["--m", "600"], "m must be in [1, 499] for working length 1998, "
                     "got [600]"),
], ids=["b_h", "b_k", "tau", "b_h-nan", "m"])
def test_estimate_with_auto_h_checks_ranges_before_the_lag_scan(
        bad, message, tmp_path, capsys, tripwires):
    # a single fixed value is named once, not once per lag
    argv = ["estimate", "--model", "model1", "--n", "2000", "--h", "auto",
            "--lags", "0,1", "--out", str(tmp_path / "o")]
    assert main(argv + bad) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("grid", ["0.6,0.7", "0.2,0.7,nan"])
@pytest.mark.parametrize("command", ["estimate", "tune", "study"])
def test_bandwidth_grid_outside_the_open_half_interval_exits_2(
        grid, command, tmp_path, capsys, tripwires):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"bandwidth_grid={grid}\n")
    argv = REPLAYED[command] + ["--config", str(cfg),
                                "--out", str(tmp_path / "o")]
    assert main(argv) == 2
    assert "must be in (0, 1/2)" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


# ---------------------------------------------------------------------------
# one rule, one message; a byte-order mark; what importing the CLI loads

@pytest.mark.parametrize("header", [None, "value"])
def test_ingest_drops_a_utf8_byte_order_mark(header, tmp_path):
    # the mark is no header: a headerless file keeps its first row
    vals = np.random.default_rng(2).normal(size=120)
    p = write_csv(tmp_path / "bom.csv", vals, header=header)
    p.write_bytes(b"\xef\xbb\xbf" + p.read_bytes())
    np.testing.assert_array_equal(ingest_csv(p).values, vals)
    argv = ["estimate", "--input", str(p), "--n", "120", "--lags", "0",
            "--h", "3", "--b-h", "0.2", "--m", "3", "--tau", "0.2",
            "--draws", "1000", "--out", str(tmp_path / "o")]
    assert main(argv) == 0


@pytest.mark.parametrize("key, value", [("b_h", 0.7), ("b_k", 0.6),
                                        ("tau", 0.9), ("b_h", math.nan)])
def test_range_rules_read_the_same_in_every_command(key, value, tmp_path,
                                                    capsys, tripwires):
    message = f"{key} must be in (0, 1/2), got [{value}]"
    mean, model = model_preset("model1")
    y = generate(mean, model, 200, seed=1)
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        acov.estimate_lags(y, 3, (0, 1), epanechnikov(), **{key: value})
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        StudyConfig(**{key: value})
    for command in ("study", "naive-study"):
        argv = REPLAYED[command] + [cli._flag(key), str(value),
                                    "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        assert message in capsys.readouterr().err


def test_importing_the_cli_loads_only_stdlib_numpy_and_tvacov():
    code = ("import sys; before = set(sys.modules); import tvacov.cli; "
            "print(*sorted(set(sys.modules) - before))")
    src = str(Path(tvacov.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    loaded = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                            capture_output=True, text=True).stdout.split()
    outside = {name.split(".")[0] for name in loaded} - {"numpy", "tvacov"}
    assert outside <= set(sys.stdlib_module_names), outside
    assert "concurrent.futures" not in loaded  # only a threaded run needs it
