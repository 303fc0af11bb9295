"""End-to-end command-line tests: config handling, exit codes, file outputs,
and byte-level determinism.  One report is frozen as a golden file."""

import argparse
import ast
import csv
import dataclasses
import filecmp
import gzip
import hashlib
import os
import shutil
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from peerfx import PanelDataset, fileio, heterogeneity_fit, tsls_fit
from peerfx.cli import (RunConfig, _load_panel, build_parser, load_config, main,
                        parse_config_file)
from peerfx.estimator import DesignSpec
from peerfx.graph import TagConfig
from peerfx.panel import PanelConfig
from peerfx.report import format_cell
from peerfx.simulate import SimConfig, SimTruth, run_simulation

WEEK = 604800
DATA = os.path.join(os.path.dirname(__file__), "data")

SIM_ARGS = ["--n-players", "600", "--mean-degree", "2.2", "--n-weeks", "30",
            "--release-week", "10", "--baseline-hazard", "0.01",
            "--beta", "0.12", "--gamma-nofriend", "0.5", "--seed", "5"]


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim")
    assert main(["simulate", "--out", str(out), *SIM_ARGS]) == 0
    return out


@pytest.fixture(scope="module")
def panel_path(sim_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("panel") / "panel.csv"
    code = main(["build-panel",
                 "--edges", str(sim_dir / "edges.csv"),
                 "--achievements", str(sim_dir / "achievements.csv"),
                 "--out", str(out), "--release-week", "10",
                 "--window-start", "10", "--window-end", "29",
                 "--n-per-group", "60", "--seed", "3"])
    assert code == 0
    return out


# ---------------------------------------------------------------------------
# config files and flags


def test_config_file_parses_comments_and_overrides(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        "# pipeline settings\n"
        "\n"
        "game = NV\n"
        "window_start = 4   \n"
        "censor_after_purchase = true\n"
        "seed = 9\n")
    parsed = parse_config_file(str(cfg_file))
    assert {k: v[0] for k, v in parsed.items()} == {
        "game": "NV", "window_start": "4",
        "censor_after_purchase": "true", "seed": "9"}
    assert parsed["window_start"][1] == 4   # line number, for error messages
    cfg = load_config(str(cfg_file), {"seed": 11, "window_end": 8})
    assert cfg.game == "NV"
    assert cfg.window_start == 4
    assert cfg.censor_after_purchase is True
    assert cfg.seed == 11          # flag beats file
    assert cfg.window_end == 8     # flag fills a key the file left out
    assert cfg.n_per_group == RunConfig().n_per_group


# every subcommand's options as (option, default, help text), frozen from the
# hand-written flag lists the parser had before it read them off the dataclasses
FROZEN_FLAGS = {
    "simulate": ("generate a synthetic world with known ground truth", {
        ("--baseline-hazard", 0.0005, "default: 0.0005"),
        ("--beta", 0.05, "default: 0.05"), ("--beta-kp", 0.0, "default: 0.0"),
        ("--beta-of", 0.0, "default: 0.0"),
        ("--degree-dist", "poisson", "default: poisson"),
        ("--epoch-unix", 0, "default: 0"), ("--formation-end", None, "default: None"),
        ("--game", "SMB", "default: SMB"), ("--gamma-kp", 0.0, "default: 0.0"),
        ("--gamma-nofriend", 0.0, "default: 0.0"), ("--gamma-of", 0.0, "default: 0.0"),
        ("--homophily", 0.0, "default: 0.0"),
        ("--key-player-share", 0.01, "default: 0.01"),
        ("--mean-degree", 2.15, "default: 2.15"), ("--n-players", 20000, "default: 20000"),
        ("--n-weeks", 100, "default: 100"), ("--noise-sd", 1.0, "default: 1.0"),
        ("--old-edge-fraction", 0.5, "default: 0.5"), ("--out", None, "default: None"),
        ("--playtime-mu", 2.8, "default: 2.8"),
        ("--powerlaw-exponent", 2.5, "default: 2.5"),
        ("--prob-noise-sd", 0.0, "default: 0.0"),
        ("--release-week", None, "default: None"), ("--seed", 0, "default: 0"),
        ("--sigma-alpha", 0.0001, "default: 0.0001"),
        ("--sim-games", "SMB,NV", "default: SMB,NV"),
    }),
    "build-panel": ("assemble the instrumented player-week panel", {
        ("--achievements", None, "default: None"),
        ("--aggregation", "any", "default: any"),
        ("--censor-after-purchase", False, "default: False"),
        ("--connected-only", False, "default: False"), ("--edges", None, "default: None"),
        ("--epoch-unix", 0, "default: 0"), ("--game", "SMB", "default: SMB"),
        ("--katz-alpha", None, "default: None"),
        ("--kp-percentile", 0.99, "default: 0.99"), ("--min-age-weeks", 52, "default: 52"),
        ("--n-per-group", 5000, "default: 5000"), ("--node-filter", None, "default: None"),
        ("--out", None, "default: None"),
        ("--outcome-mode", "absorbing", "default: absorbing"),
        ("--release-week", None, "default: None"), ("--seed", 0, "default: 0"),
        ("--window-end", None, "default: None"), ("--window-start", None, "default: None"),
    }),
    "estimate": ("OLS / reduced form / first stage / 2SLS on a panel", {
        ("--out", None, "default: None"), ("--panel", None, "default: None"),
        ("--threads", 1, "default: 1"),
    }),
    "heterogeneity": ("key-player and old-friend effect decomposition", {
        ("--method", "2sls", "default: 2sls"), ("--out", None, "default: None"),
        ("--panel", None, "default: None"), ("--threads", 1, "default: 1"),
    }),
    "playtime": ("cross-sectional log-playtime regressions", {
        ("--achievements", None, "default: None"),
        ("--connected-only", False, "default: False"),
        ("--covariates", None, "default: None"), ("--edges", None, "default: None"),
        ("--epoch-unix", 0, "default: 0"), ("--game", "SMB", "default: SMB"),
        ("--katz-alpha", None, "default: None"),
        ("--kp-percentile", 0.99, "default: 0.99"), ("--min-age-weeks", 52, "default: 52"),
        ("--node-filter", None, "default: None"), ("--out", None, "default: None"),
        ("--playtime", None, "default: None"), ("--release-week", None, "default: None"),
        ("--threads", 1, "default: 1"),
    }),
    "katz": ("Katz centrality scores on a weekly snapshot", {
        ("--edges", None, "default: None"), ("--epoch-unix", 0, "default: 0"),
        ("--katz-alpha", None, "default: None"), ("--node-filter", None, "default: None"),
        ("--out", None, "default: None"), ("--week", None, "default: None"),
    }),
    "series": ("weekly purchase counts over a window", {
        ("--achievements", None, "default: None"), ("--epoch-unix", 0, "default: 0"),
        ("--game", "SMB", "default: SMB"), ("--out", None, "default: None"),
        ("--window-end", None, "default: None"), ("--window-start", None, "default: None"),
    }),
}


def test_every_subcommand_keeps_its_options_defaults_and_help():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert {c.dest: c.help for c in sub._choices_actions} == \
        {name: text for name, (text, _) in FROZEN_FLAGS.items()}
    defaults = RunConfig()
    config = ("--config", None, "flat key=value config file; flags override keys")
    for name, (_, flags) in FROZEN_FLAGS.items():
        got = {(a.option_strings[0], getattr(defaults, a.dest, a.default), a.help)
               for a in sub.choices[name]._actions if a.dest != "help"}
        assert got == flags | {config}, name


def test_run_config_defaults_are_the_library_defaults():
    # release_week stays unset: 60 in simulate, window_start elsewhere
    defaults = RunConfig()
    library = {}
    for cls in (SimConfig, SimTruth, PanelConfig, TagConfig):
        for f in dataclasses.fields(cls):
            library.setdefault(f.name, []).append(f.default)
    run_fields = {f.name for f in dataclasses.fields(RunConfig)}
    assert run_fields - set(library) == {
        "edges", "achievements", "playtime", "covariates", "node_filter", "panel",
        "out", "window_start", "window_end", "week", "n_per_group", "katz_alpha",
        "method", "threads", "sim_games"}
    assert set(library) - run_fields == {"week_effects", "playtime_loadings"}
    assert defaults.release_week is None
    for name in run_fields & set(library) - {"release_week"}:
        assert library[name] == [getattr(defaults, name)] * len(library[name]), name


def test_unknown_config_key_is_exit_2(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("bogus_key = 1\n")
    assert main(["series", "--config", str(cfg_file)]) == 2
    err = capsys.readouterr().err
    assert "config error:" in err
    assert "run.cfg:1" in err and "bogus_key" in err


def test_malformed_config_line_is_exit_2(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("game = SMB\nthis line has no equals\n")
    assert main(["series", "--config", str(cfg_file)]) == 2
    assert "run.cfg:2" in capsys.readouterr().err


def test_bad_value_type_is_exit_2(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("seed = not_a_number\n")
    assert main(["series", "--config", str(cfg_file)]) == 2
    assert "seed" in capsys.readouterr().err


def test_missing_required_key_is_exit_2(capsys):
    assert main(["series", "--window-start", "0", "--window-end", "5"]) == 2
    assert "achievements" in capsys.readouterr().err


def test_missing_input_file_is_exit_2(tmp_path, capsys):
    assert main(["series", "--achievements", str(tmp_path / "nope.csv"),
                 "--window-start", "0", "--window-end", "5"]) == 2
    err = capsys.readouterr().err
    assert "no such file" in err and str(tmp_path / "nope.csv") in err


@pytest.mark.parametrize("command, flag, value", [
    ("build-panel", "--outcome-mode", "bogus"),
    ("build-panel", "--aggregation", "median"),
    ("simulate", "--degree-dist", "zipf"),
    ("heterogeneity", "--method", "gmm")])
def test_rejected_setting_is_exit_2_before_any_input_is_read(tmp_path, capsys,
                                                             command, flag, value):
    bad = tmp_path / "bad.csv"  # a malformed input: the setting must fail first
    bad.write_text("not,a,known,header\n1,2\n")
    inputs = {"build-panel": ["--edges", str(bad), "--achievements", str(bad),
                              "--window-start", "0", "--window-end", "5"],
              "simulate": [], "heterogeneity": ["--panel", str(bad)]}[command]
    assert main([command, *inputs, flag, value, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and repr(value) in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flags, message", [
    (["--playtime-mu", "nan"], "playtime_mu must be finite, got nan"),
    (["--beta", "nan"], "beta must be finite, got nan"),
    (["--baseline-hazard", "nan"], "baseline_hazard must be finite, got nan"),
    (["--noise-sd", "-1"], "noise_sd must be non-negative, got -1.0"),
    (["--sigma-alpha", "-1"], "sigma_alpha must be non-negative, got -1.0"),
    (["--prob-noise-sd", "-1"], "prob_noise_sd must be non-negative, got -1.0"),
    (["--degree-dist", "powerlaw", "--powerlaw-exponent", "nan"],
     "powerlaw_exponent must exceed 2 (finite mean degree)"),
    (["--seed", "-1"], "seed must be non-negative, got -1")],
    ids=["playtime-mu-nan", "beta-nan", "baseline-hazard-nan", "noise-sd-negative",
         "sigma-alpha-negative", "prob-noise-sd-negative", "powerlaw-exponent-nan",
         "seed-negative"])
def test_simulate_rejects_a_non_finite_or_negative_setting_before_writing(
        tmp_path, capsys, flags, message):
    out = tmp_path / "o"
    assert main(["simulate", "--n-players", "300", *flags, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command, threads, via_config", [
    ("estimate", "-2", False), ("heterogeneity", "0", False),
    ("playtime", "-2", False), ("estimate", "0", True)])
def test_threads_below_one_is_exit_2_before_any_input_is_read(tmp_path, capsys, command,
                                                              threads, via_config):
    bad = tmp_path / "bad.csv"  # a malformed input: the setting must fail first
    bad.write_text("not,a,known,header\n1,2\n")
    inputs = (["--edges", str(bad), "--achievements", str(bad), "--playtime", str(bad)]
              if command == "playtime" else ["--panel", str(bad)])
    if via_config:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"threads = {threads}\n")
        setting = ["--config", str(cfg)]
    else:
        setting = ["--threads", threads]
    assert main([command, *inputs, *setting, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and f"threads must be at least 1, got {threads}" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, name, value, how", [
    ("build-panel", "kp_percentile", "1.5", "flag"),
    ("build-panel", "kp_percentile", "nan", "flag"),
    ("build-panel", "kp_percentile", "1.5", "missing-edges"),
    ("build-panel", "n_per_group", "-1", "flag"),
    ("build-panel", "release_week", "2", "flag"),
    ("build-panel", "katz_alpha", "-1", "flag"),
    ("build-panel", "katz_alpha", "0", "config"),
    ("build-panel", "min_age_weeks", "-5", "flag"),
    ("build-panel", "seed", "-1", "flag"),
    ("build-panel", "seed", "-1", "config"),
    ("playtime", "kp_percentile", "1.5", "flag"),
    ("playtime", "min_age_weeks", "-5", "flag"),
    ("katz", "katz_alpha", "-1", "flag")])
def test_numeric_setting_out_of_range_is_exit_2_before_any_input_is_read(
        tmp_path, capsys, command, name, value, how):
    bad = tmp_path / "bad.csv"  # a malformed input: the setting must fail first
    bad.write_text("not,a,known,header\n1,2\n")
    edges = tmp_path / "nope.csv" if how == "missing-edges" else bad
    inputs = {"build-panel": ["--achievements", str(bad), "--window-start", "60",
                              "--window-end", "70"],
              "playtime": ["--achievements", str(bad), "--playtime", str(bad),
                           "--covariates", str(bad)],
              "katz": ["--week", "10"]}[command]
    if how == "config":
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{name} = {value}\n")
        setting = ["--config", str(cfg)]
    else:
        setting = ["--" + name.replace("_", "-"), value]
    argv = [command, "--edges", str(edges), *inputs, *setting, "--out", str(tmp_path / "o")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {name} must be ") and "no such file" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, release, message", [
    ("build-panel", ["--window-start", "2", "--window-end", "10"],
     "release_week must be at least 4, got 2"),
    ("playtime", [], "release_week is required (or set window_start)"),
    ("playtime", ["window_start = 2"], "release_week must be at least 4, got 2")],
    ids=["build-panel-window-start-2", "playtime-no-release-week",
         "playtime-window-start-2-config"])
def test_resolved_release_week_is_exit_2_before_any_input_is_read(
        tmp_path, capsys, command, release, message):
    # with no release_week, build-panel and playtime tag at window_start
    bad = tmp_path / "bad.csv"  # a malformed input: the setting must fail first
    bad.write_text("not,a,known,header\n1,2\n")
    inputs = ["--edges", str(bad), "--achievements", str(bad)]
    if command == "playtime":
        inputs += ["--playtime", str(bad), "--covariates", str(bad)]
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(line + "\n" for line in release))
        release = ["--config", str(cfg)]
    assert main([command, *inputs, *release, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "o").exists()


def test_pipeline_error_is_exit_1(sim_dir, tmp_path, capsys):
    # alpha far beyond 1/spectral-radius: the centrality iteration diverges
    code = main(["katz", "--edges", str(sim_dir / "edges.csv"),
                 "--week", "10", "--katz-alpha", "5.0",
                 "--out", str(tmp_path / "scores.csv")])
    assert code == 1
    assert "error (DivergedError)" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# simulate outputs


def test_simulate_writes_consistent_files(sim_dir):
    for name in ("edges.csv", "achievements.csv", "playtime.csv",
                 "covariates.csv", "truth.json"):
        assert (sim_dir / name).exists(), name
    meta = fileio.read_json(sim_dir / "truth.json")
    assert meta["truth"]["beta"] == 0.12
    assert meta["config"]["n_players"] == 600

    a, b, formed = fileio.read_edges_csv(sim_dir / "edges.csv")
    assert a.size == round(meta["network"]["realized_mean_degree"] * 600 / 2)
    players, games, _ = fileio.read_achievements_csv(sim_dir / "achievements.csv")
    adopters = {g: m["n_adopters"] for g, m in meta["adoption"].items()}
    assert Counter(games.tolist()) == adopters
    cov = fileio.read_covariates_csv(sim_dir / "covariates.csv")
    assert cov["player"].size == 600
    playtimes = fileio.read_playtime_csv(sim_dir / "playtime.csv")
    assert len(playtimes[0]) == players.size  # one row per realized purchase


def test_simulate_playtime_minutes_survive_the_round_trip(tmp_path):
    # mu = 10 puts minutes in the millions, past six significant digits
    out = tmp_path / "sim"
    assert main(["simulate", "--out", str(out), "--n-players", "2000",
                 "--seed", "1", "--playtime-mu", "10",
                 "--baseline-hazard", "0.01"]) == 0
    sim = run_simulation(SimConfig(n_players=2000, seed=1),
                         SimTruth(playtime_mu=10, baseline_hazard=0.01))
    assert fileio.read_json(out / "truth.json")["config"] == \
        dataclasses.asdict(sim.config)
    players, games, minutes = fileio.read_playtime_csv(out / "playtime.csv")
    assert minutes.max() > 1e6
    assert np.array_equal(players, sim.playtimes[0])
    assert games.tolist() == sim.playtimes[1].tolist()
    assert np.array_equal(minutes, sim.playtimes[2])
    cov = fileio.read_covariates_csv(out / "covariates.csv")
    assert all(np.array_equal(cov[k], v) for k, v in sim.covariates.items())


# one non-default value per SimConfig / SimTruth field that RunConfig shares
SHARED_KNOBS = {
    "n_players": 300, "mean_degree": 3.0, "degree_dist": "powerlaw",
    "powerlaw_exponent": 2.7, "n_weeks": 40, "release_week": 20,
    "old_edge_fraction": 0.3, "formation_end": 25, "key_player_share": 0.05,
    "seed": 7, "game": "NV", "epoch_unix": 3 * WEEK,
    "beta": 0.07, "beta_kp": 0.01, "beta_of": 0.02, "baseline_hazard": 0.002,
    "sigma_alpha": 0.0002, "prob_noise_sd": 0.01, "homophily": 0.3,
    "gamma_kp": 0.1, "gamma_of": 0.2, "gamma_nofriend": 0.3,
    "playtime_mu": 3.1, "noise_sd": 0.8,
}


def test_simulate_echoes_every_shared_knob(tmp_path):
    run_fields = {f.name for f in dataclasses.fields(RunConfig)}
    sections = {"config": SimConfig, "truth": SimTruth}
    shared = {section: {f.name for f in dataclasses.fields(cls)} & run_fields
              for section, cls in sections.items()}
    assert set(SHARED_KNOBS) == shared["config"] | shared["truth"]
    for name, value in SHARED_KNOBS.items():
        assert value != getattr(RunConfig(), name), name
    cfg_file = tmp_path / "sim.cfg"
    cfg_file.write_text("".join(f"{k} = {v}\n" for k, v in SHARED_KNOBS.items()))
    assert main(["simulate", "--config", str(cfg_file),
                 "--out", str(tmp_path / "sim")]) == 0
    echoed = fileio.read_json(tmp_path / "sim" / "truth.json")
    for section, names in shared.items():
        for name in names:
            assert echoed[section][name] == SHARED_KNOBS[name], name


@pytest.mark.parametrize("suffix", ["", ".gz"], ids=["plain", "gzip"])
def test_non_utf8_input_is_exit_1_with_line(tmp_path, capsys, suffix):
    raw = b"player_id,game,unlocked_unix\n1,SMB,0\n2,Pok\xe9mon,0\n3,SMB,0\n"
    path = tmp_path / f"achievements.csv{suffix}"
    path.write_bytes(gzip.compress(raw) if suffix else raw)
    assert main(["series", "--achievements", str(path), "--out",
                 str(tmp_path / "series.csv"), "--window-start", "0",
                 "--window-end", "5"]) == 1
    err = capsys.readouterr().err
    assert "error (ParseError): line 3:" in err and "UTF-8" in err
    assert "Traceback" not in err


def test_simulate_byte_identical_for_same_seed(tmp_path):
    args = ["--n-players", "300", "--n-weeks", "20", "--release-week", "8",
            "--baseline-hazard", "0.03"]
    d1, d2, d3 = (tmp_path / n for n in ("a", "b", "c"))
    assert main(["simulate", "--out", str(d1), "--seed", "7", *args]) == 0
    assert main(["simulate", "--out", str(d2), "--seed", "7", *args]) == 0
    assert main(["simulate", "--out", str(d3), "--seed", "8", *args]) == 0
    names = ["edges.csv", "achievements.csv", "playtime.csv",
             "covariates.csv", "truth.json"]
    same, diff, errors = filecmp.cmpfiles(d1, d2, names, shallow=False)
    assert same == names and not diff and not errors
    same3, _, _ = filecmp.cmpfiles(d1, d3, names, shallow=False)
    assert "edges.csv" not in same3


def test_simulate_bytes_with_every_hazard_channel_on(tmp_path):
    # mixed-sign peer shifts, key-player and old-friend channels, edges that
    # form mid-horizon and per-week probability noise; the digests freeze
    # the within-week commit order's output, which the golden report (run at
    # default settings) does not reach
    args = ["--seed", "4", "--n-players", "1500", "--mean-degree", "6",
            "--n-weeks", "90", "--release-week", "70", "--formation-end", "80",
            "--key-player-share", "0.05", "--beta", "0.08", "--beta-kp", "-0.05",
            "--beta-of", "0.03", "--baseline-hazard", "0.002",
            "--sigma-alpha", "0.001", "--prob-noise-sd", "0.002"]
    assert main(["simulate", "--out", str(tmp_path), *args]) == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in ("achievements.csv", "truth.json")}
    assert digests == {
        "achievements.csv":
            "e8d5a3bea0e4090de20eb62ddf8c75543d983c41ab7a63402bd0a475912dafec",
        "truth.json":
            "48959b7f368e142359203f34d1c4d598be4a4eb8b199902c02f6e1ed94863b9f",
    }


# ---------------------------------------------------------------------------
# panel -> estimate pipeline


def test_build_panel_output_shape(panel_path):
    cols, meta = fileio.read_panel_csv(panel_path)
    assert meta["window"] == [10, 29]
    assert meta["n_rows"] == meta["n_players"] * 19
    assert cols["player"].size == meta["n_rows"]
    assert set(np.unique(cols["week"])) == set(range(11, 30))


def test_build_panel_node_filter_drops_players(sim_dir, panel_path, tmp_path):
    players = np.unique(fileio.read_panel_csv(panel_path)[0]["player"])
    dropped = players[::6]
    ids = np.unique(np.concatenate(fileio.read_edges_csv(sim_dir / "edges.csv")[:2]))
    filt = tmp_path / "filter.csv"
    fileio._write_table(filt, ("player_id", "total_playtime_minutes"),
                        (ids, np.where(np.isin(ids, dropped), 0, 30)))
    out = tmp_path / "panel.csv"
    assert main(["build-panel", "--edges", str(sim_dir / "edges.csv"),
                 "--achievements", str(sim_dir / "achievements.csv"),
                 "--node-filter", str(filt), "--out", str(out), "--release-week", "10",
                 "--window-start", "10", "--window-end", "29",
                 "--n-per-group", "40", "--seed", "3"]) == 0
    kept = np.unique(fileio.read_panel_csv(out)[0]["player"])
    assert kept.size and not np.isin(kept, dropped).any()
    assert np.isin(kept, ids).all()


STEAM_BASE = 76561197960265728  # 64-bit Steam id of account 0


def test_estimate_keeps_steam_scale_ids(panel_path, tmp_path):
    # Steam ids exceed 2**53; a float64 parse of the panel would merge
    # neighbouring players into one fixed effect and one cluster
    lines = panel_path.read_text().splitlines(keepends=True)
    shifted = tmp_path / "panel_steam.csv"
    shifted.write_text(lines[0] + "".join(
        f"{int(player) + STEAM_BASE},{rest}"
        for player, rest in (line.split(",", 1) for line in lines[1:])))
    shutil.copy(f"{panel_path}.meta.json", f"{shifted}.meta.json")
    small, _ = fileio.read_panel_csv(panel_path)
    steam, _ = fileio.read_panel_csv(shifted)
    assert steam["player"].tolist() == [p + STEAM_BASE for p in small["player"].tolist()]
    assert np.unique(steam["player"]).size == np.unique(small["player"]).size
    for path, name in ((panel_path, "small"), (shifted, "steam")):
        assert main(["estimate", "--panel", str(path),
                     "--out", str(tmp_path / name)]) == 0
    for fname in ("estimates.csv", "report.txt"):
        assert (tmp_path / "small" / fname).read_bytes() == \
            (tmp_path / "steam" / fname).read_bytes()


def test_steam_scale_ids_leave_every_chain_output_unchanged(sim_dir, tmp_path):
    # the four inputs again with every id shifted past 2**53: no stage may
    # round, reorder or merge players, so the outputs keep their bytes
    steam = tmp_path / "steam_inputs"
    steam.mkdir()
    for name, id_columns in (("edges.csv", 2), ("achievements.csv", 1),
                             ("playtime.csv", 1), ("covariates.csv", 1)):
        header, *rows = (sim_dir / name).read_text().splitlines()
        (steam / name).write_text("".join(
            [header + "\n"] + [",".join([str(int(c) + STEAM_BASE) for c in cells[:id_columns]]
                                       + cells[id_columns:]) + "\n"
                               for cells in (row.split(",") for row in rows)]))
    for inputs, name in ((sim_dir, "small"), (steam, "steam")):
        out = tmp_path / name
        panel = out / "panel.csv"
        graph = ["--edges", str(inputs / "edges.csv"),
                 "--achievements", str(inputs / "achievements.csv"), "--release-week", "10"]
        assert main(["build-panel", *graph, "--out", str(panel), "--window-start", "10",
                     "--window-end", "29", "--n-per-group", "60", "--seed", "3"]) == 0
        assert main(["estimate", "--panel", str(panel), "--out", str(out)]) == 0
        assert main(["heterogeneity", "--panel", str(panel), "--out", str(out)]) == 0
        assert main(["playtime", *graph, "--playtime", str(inputs / "playtime.csv"),
                     "--covariates", str(inputs / "covariates.csv"), "--out", str(out)]) == 0
    small = fileio.read_panel_csv(tmp_path / "small" / "panel.csv")[0]["player"]
    shifted = fileio.read_panel_csv(tmp_path / "steam" / "panel.csv")[0]["player"]
    assert small.size and shifted.tolist() == [p + STEAM_BASE for p in small.tolist()]
    for fname in ("estimates.csv", "report.txt", "heterogeneity.csv",
                  "playtime_estimates.csv", "playtime_meta.json", "panel.csv.meta.json"):
        assert (tmp_path / "small" / fname).read_bytes() == \
            (tmp_path / "steam" / fname).read_bytes(), fname


def test_estimate_outputs_match_api(panel_path, tmp_path, capsys):
    out = tmp_path / "est"
    assert main(["estimate", "--panel", str(panel_path),
                 "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "2SLS" in stdout and "Anderson-Rubin" in stdout
    report = (out / "report.txt").read_text()
    assert report in stdout

    rows = {}
    for line in (out / "estimates.csv").read_text().splitlines()[1:]:
        term, est, se, stat = line.split(",")
        rows[term] = (est, se, stat)
    cols, meta = fileio.read_panel_csv(panel_path)
    from peerfx import PanelDataset
    player = cols.pop("player")
    week = cols.pop("week")
    panel = PanelDataset(player, week, cols, meta)
    iv = tsls_fit(panel, DesignSpec(outcome="y", endog=("x_friend",),
                                    instruments=("z_sd_lag",)))
    assert float(rows["2sls.x_friend"][0]) == pytest.approx(
        iv.coef_of("x_friend"), rel=1e-10)
    assert float(rows["2sls.x_friend"][1]) == pytest.approx(
        iv.se_of("x_friend"), rel=1e-10)
    assert float(rows["anderson_rubin"][0]) == pytest.approx(iv.ar_stat,
                                                             rel=1e-10)
    assert rows["anderson_rubin"][1] == ""


def test_estimate_fits_each_regression_once(panel_path, tmp_path, monkeypatch):
    from peerfx import estimator
    core, specs = estimator._fit_core, []

    def spy(panel, spec, *args):
        specs.append((spec.outcome, spec.endog, spec.instruments, spec.exog))
        return core(panel, spec, *args)

    monkeypatch.setattr(estimator, "_fit_core", spy)
    assert main(["estimate", "--panel", str(panel_path),
                 "--out", str(tmp_path / "o")]) == 0
    assert len(specs) == len(set(specs)) == 4  # OLS, 2SLS, first stage, reduced form


def test_estimate_report_matches_golden(panel_path, tmp_path):
    out = tmp_path / "golden_run"
    assert main(["estimate", "--panel", str(panel_path),
                 "--out", str(out)]) == 0
    golden = os.path.join(DATA, "golden_report.txt")
    got = (out / "report.txt").read_bytes()
    if not os.path.exists(golden):  # first run freezes the fixture
        os.makedirs(DATA, exist_ok=True)
        with open(golden, "wb") as fh:
            fh.write(got)
    with open(golden, "rb") as fh:
        assert got == fh.read()


def test_heterogeneity_and_playtime_commands(panel_path, sim_dir, tmp_path):
    out = tmp_path / "het"
    assert main(["heterogeneity", "--panel", str(panel_path),
                 "--out", str(out), "--method", "ols"]) == 0
    assert (out / "heterogeneity.txt").exists()
    assert (out / "heterogeneity.csv").read_text().startswith("term,")

    ptout = tmp_path / "pt"
    assert main(["playtime",
                 "--edges", str(sim_dir / "edges.csv"),
                 "--achievements", str(sim_dir / "achievements.csv"),
                 "--playtime", str(sim_dir / "playtime.csv"),
                 "--covariates", str(sim_dir / "covariates.csv"),
                 "--release-week", "10",
                 "--out", str(ptout)]) == 0
    meta = fileio.read_json(ptout / "playtime_meta.json")
    assert meta["rows"] > 0
    assert meta["games"][0] == "SMB"
    # of_purchase is flat in this small world, so it is dropped too
    assert {k: [t for t in v if t.startswith("owns_")] for k, v in meta["dropped"].items()} \
        == {"playtime_v1": [], "playtime_v2": [],
            "playtime_v3": ["owns_smb"], "playtime_v4": ["owns_nv"]}
    text = (ptout / "playtime_report.txt").read_text()
    assert "No friend owned at purchase" in text


def test_playtime_counts_repeated_rows_as_duplicates(sim_dir, tmp_path):
    lines = (sim_dir / "playtime.csv").read_text().splitlines()
    player, game, _ = lines[1].split(",")
    repeated = tmp_path / "playtime.csv"
    repeated.write_text("\n".join([*lines, f"{player},{game},1"]) + "\n")
    metas = {}
    for name, path in (("once", sim_dir / "playtime.csv"), ("twice", repeated)):
        assert main(["playtime",
                     "--edges", str(sim_dir / "edges.csv"),
                     "--achievements", str(sim_dir / "achievements.csv"),
                     "--playtime", str(path),
                     "--covariates", str(sim_dir / "covariates.csv"),
                     "--release-week", "10", "--out", str(tmp_path / name)]) == 0
        metas[name] = fileio.read_json(tmp_path / name / "playtime_meta.json")
    once, twice = metas["once"], metas["twice"]
    assert once["excluded"]["duplicate"] == 0
    assert twice["excluded"]["duplicate"] == 1
    assert twice["rows"] == once["rows"]
    assert twice["rows"] + sum(twice["excluded"].values()) == len(lines)
    # the last row wins: one minute floors to log 0, unlike the first row
    assert (tmp_path / "once" / "playtime_estimates.csv").read_bytes() != \
        (tmp_path / "twice" / "playtime_estimates.csv").read_bytes()


def _playtime(sim, out, *flags):
    return main(["playtime", "--edges", str(sim / "edges.csv"),
                 "--achievements", str(sim / "achievements.csv"),
                 "--playtime", str(sim / "playtime.csv"),
                 "--covariates", str(sim / "covariates.csv"), *flags, "--out", str(out)])


def test_playtime_controls_are_the_run_games(tmp_path):
    """Games not named as the simulator's defaults each keep an ownership
    control; a game's own fit drops its control as flat, and the meta file
    lists each fit's dropped terms."""
    sim, out = tmp_path / "sim", tmp_path / "pt"
    assert main(["simulate", "--out", str(sim), "--n-players", "6000",
                 "--sim-games", "HK,SKY", "--game", "HK", "--seed", "3"]) == 0
    assert _playtime(sim, out, "--release-week", "60", "--game", "HK") == 0
    owns = {}
    for line in (out / "playtime_estimates.csv").read_text().splitlines()[1:]:
        model, term = line.split(",")[0].split(".")
        owns.setdefault(model, [])
        if term.startswith("owns_"):
            owns[model].append(term)
    assert owns == {"playtime_v1": ["owns_hk", "owns_sky"],
                    "playtime_v2": ["owns_hk", "owns_sky"],
                    "playtime_v3": ["owns_sky"], "playtime_v4": ["owns_hk"]}
    meta = fileio.read_json(out / "playtime_meta.json")
    assert meta["games"] == ["HK", "SKY"]
    assert meta["dropped"] == {"playtime_v1": [], "playtime_v2": [],
                               "playtime_v3": ["owns_hk"], "playtime_v4": ["owns_sky"]}
    text = (out / "playtime_report.txt").read_text()
    assert "Owns HK" in text and "Owns SKY" in text


def test_playtime_estimates_quote_a_term_holding_a_comma(sim_dir, tmp_path):
    renamed = tmp_path / "sim"
    renamed.mkdir()
    for name in ("edges.csv", "achievements.csv", "playtime.csv", "covariates.csv"):
        text = (sim_dir / name).read_text()
        (renamed / name).write_text(text.replace(",NV,", ',"Warhammer 40,000",'))
    assert _playtime(renamed, tmp_path / "pt", "--release-week", "10") == 0
    with open(tmp_path / "pt" / "playtime_estimates.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert {len(row) for row in rows} == {4}
    assert "playtime_v1.owns_warhammer 40,000" in [row[0] for row in rows]
    meta = fileio.read_json(tmp_path / "pt" / "playtime_meta.json")
    assert meta["games"] == ["SMB", "Warhammer 40,000"]


def test_playtime_games_sharing_a_control_name_are_exit_1(sim_dir, tmp_path, capsys):
    both = tmp_path / "sim"
    both.mkdir()
    for name in ("edges.csv", "covariates.csv"):
        shutil.copy(sim_dir / name, both / name)
    for name in ("achievements.csv", "playtime.csv"):
        lines = (sim_dir / name).read_text().splitlines()
        lines.append(next(line for line in lines if ",SMB," in line).replace(",SMB,", ",smb,"))
        (both / name).write_text("\n".join(lines) + "\n")
    assert _playtime(both, tmp_path / "pt", "--release-week", "10") == 1
    err = capsys.readouterr().err
    assert "error (InvalidParameterError)" in err and "'SMB' and 'smb'" in err
    assert not (tmp_path / "pt").exists()


def test_pipeline_modules_hold_no_game_name():
    """The panel builder, the estimator and the report take the run's games
    from its inputs; only the settings name the simulated world's games."""
    for module in ("panel", "estimator", "report"):
        path = os.path.join(os.path.dirname(__file__), "..", "src", "peerfx", f"{module}.py")
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        names = {node.value for node in ast.walk(tree)
                 if isinstance(node, ast.Constant) and node.value in ("SMB", "NV")}
        assert not names, (module, names)


# the last bad cell is in x_kp, a column estimate checks but does not keep
@pytest.mark.parametrize("bad_row", ["1,12,x,0,0,0,0,0,0", "1,12,0", "1,12,0,0,0,x,0,0,0"],
                         ids=["bad_cell", "short_row", "bad_cell_no_fit_reads"])
def test_estimate_malformed_panel_is_exit_1_with_line(panel_path, tmp_path,
                                                      capsys, bad_row):
    lines = panel_path.read_text().splitlines(keepends=True)
    path = tmp_path / "panel.csv"
    path.write_text("".join(lines[:2]) + bad_row + "\n" + "".join(lines[2:]))
    assert main(["estimate", "--panel", str(path),
                 "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "error (ParseError)" in err and "line 3:" in err


def test_load_panel_keeps_each_column_in_its_narrowest_exact_dtype(tmp_path):
    # int8 for integers in [-128, 127], however written; float64 otherwise
    cells = {"y": ("0", "1", "1", "0"),
             "x_friend": ("0.5", "1.25", "0", "3"),     # fractions
             "z_sd_lag": ("0", "128", "300", "1"),      # above int8
             "x_kp": ("-3", "-128", "127", "0"),        # int8's edges
             "x_of": ("0", "-129", "2", "1"),           # below int8
             "z_kp_lag": ("1e0", "0.0", " 1 ", "-0"),   # integral float text
             "z_of_lag": ("1e300", "-2.5e-1", "0", "1")}
    want = {"y": np.int8, "x_friend": np.float64, "z_sd_lag": np.float64,
            "x_kp": np.int8, "x_of": np.float64, "z_kp_lag": np.int8,
            "z_of_lag": np.float64}
    path = tmp_path / "panel.csv"
    rows = zip(("1", "1", "2", "2"), ("11", "12", "11", "12"),
               *(cells[c] for c in fileio.PANEL_COLUMNS))
    path.write_text("player,week," + ",".join(fileio.PANEL_COLUMNS) + "\n"
                    + "".join(",".join(r) + "\n" for r in rows))
    parsed, _ = fileio.read_panel_csv(path)
    panel = _load_panel(load_config(None, {"panel": str(path)}), fileio.PANEL_COLUMNS)
    for name, dtype in want.items():
        col = panel.column(name)
        assert col.dtype == dtype and col.flags.c_contiguous and col.base is None, name
        assert np.array_equal(col, parsed[name]), name
    assert panel.player.dtype == panel.week.dtype == np.int64


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("column", ["y", "z_sd_lag"])
def test_estimate_non_finite_panel_cell_is_exit_1_without_a_warning(
        panel_path, tmp_path, capsys, column, cell):
    # a kept column with NaN or inf stays float64, and the fit rejects it;
    # any numpy warning from the narrowing cast would raise here
    lines = panel_path.read_text().splitlines(keepends=True)
    row = lines[1].rstrip("\n").split(",")
    row[lines[0].rstrip("\n").split(",").index(column)] = cell
    path = tmp_path / "panel.csv"
    path.write_text(lines[0] + ",".join(row) + "\n" + "".join(lines[2:]))
    assert main(["estimate", "--panel", str(path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err == (f"error (InvalidParameterError): column {column!r} "
                   "contains non-finite values\n")


def test_heterogeneity_read_and_fits_traced_memory_at_the_x2_shape(tmp_path):
    # the x2 benchmark's panel shape: 6,000 players over 33 weeks (198k
    # rows) of 0/1 columns, as under the default "any" aggregation.  Keeping
    # the five columns the fits read as float64 peaked at 27.3 MiB of traced
    # memory; int8 columns and an in-place demeaning peak at 20.7 MiB.
    rng = np.random.default_rng(4)
    P, T = 6000, 33
    n = P * T
    player = np.repeat(np.arange(P, dtype=np.int64) * 7, T)
    week = np.tile(np.arange(61, 61 + T, dtype=np.int64), P)
    columns = {z: rng.random(n) < 0.1 for z in ("z_sd_lag", "z_kp_lag", "z_of_lag")}
    for x, z in (("x_friend", "z_sd_lag"), ("x_kp", "z_kp_lag"), ("x_of", "z_of_lag")):
        columns[x] = columns[z] | (rng.random(n) < 0.05)
    columns["y"] = (rng.random(n) < 0.03) | (columns["x_kp"] & (rng.random(n) < 0.2))
    path = tmp_path / "panel.csv"
    fileio.write_panel_csv(path, PanelDataset(player, week, {
        c: columns[c].view(np.int8) for c in fileio.PANEL_COLUMNS}))
    cfg = load_config(None, {"panel": str(path)})
    tracemalloc.start()
    try:
        panel = _load_panel(cfg, ("y", "x_kp", "x_of", "z_kp_lag", "z_of_lag"))
        fits = [heterogeneity_fit(panel, method=m) for m in ("ols", "2sls")]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert panel.n_rows == n and all(f.terms == ("x_kp", "x_of") for f in fits)
    assert peak < 24 * 2**20, f"traced peak {peak / 2**20:.1f} MiB"


def test_panel_meta_tells_tag_rules_apart(sim_dir, tmp_path):
    metas = {}
    for pct in ("0.9", "0.99"):
        out = tmp_path / pct / "panel.csv"
        assert main(["build-panel", "--edges", str(sim_dir / "edges.csv"),
                     "--achievements", str(sim_dir / "achievements.csv"),
                     "--out", str(out), "--release-week", "10",
                     "--window-start", "10", "--window-end", "29",
                     "--n-per-group", "60", "--seed", "3", "--kp-percentile", pct]) == 0
        metas[pct] = fileio.read_json(f"{out}.meta.json")
    low, high = metas["0.9"], metas["0.99"]
    assert low != high
    assert (low["kp_percentile"], high["kp_percentile"]) == (0.9, 0.99)
    assert low["n_key_players"] > high["n_key_players"] > 0
    assert low["kp_threshold"] <= high["kp_threshold"]
    assert low["old_friend_cutoff"] == high["old_friend_cutoff"] == TagConfig(10).old_friend_cutoff
    assert low["n_dropped_treatment"] == high["n_dropped_treatment"] >= 0


def test_commands_create_missing_output_directories(sim_dir, tmp_path):
    inputs = ["--edges", str(sim_dir / "edges.csv"),
              "--achievements", str(sim_dir / "achievements.csv")]
    nested = tmp_path / "a" / "b"
    assert main(["build-panel", *inputs, "--out", str(nested / "p" / "panel.csv"),
                 "--release-week", "10", "--window-start", "10",
                 "--window-end", "29", "--n-per-group", "60", "--seed", "3"]) == 0
    assert main(["katz", "--edges", str(sim_dir / "edges.csv"), "--week", "6",
                 "--out", str(nested / "k" / "scores.csv")]) == 0
    assert main(["series", "--achievements", str(sim_dir / "achievements.csv"),
                 "--window-start", "10", "--window-end", "29",
                 "--out", str(nested / "s" / "series.csv")]) == 0
    for name in ("p/panel.csv", "p/panel.csv.meta.json", "k/scores.csv",
                 "k/scores.csv.meta.json", "s/series.csv"):
        assert (nested / name).is_file(), name


def test_gzip_config_file_reads_like_plain(tmp_path, capsys):
    text = b"# settings\ngame = NV\nseed = 9\n"
    plain, packed = tmp_path / "run.cfg", tmp_path / "run.cfg.gz"
    plain.write_bytes(text)
    packed.write_bytes(gzip.compress(text))
    assert parse_config_file(str(packed)) == {
        k: (v, line, str(packed)) for k, (v, line, _) in parse_config_file(str(plain)).items()}
    packed.write_bytes(gzip.compress(text + b"bogus_key = 1\n"))
    assert main(["series", "--config", str(packed)]) == 2
    assert "run.cfg.gz:4" in capsys.readouterr().err


def test_gzip_output_is_byte_identical_across_runs(sim_dir, tmp_path):
    # the gzip header holds no file name (the random temp name differed per
    # run) and mtime 0 (the write time differed)
    out = tmp_path / "panel.csv.gz"
    argv = ["build-panel", "--edges", str(sim_dir / "edges.csv"),
            "--achievements", str(sim_dir / "achievements.csv"),
            "--out", str(out), "--release-week", "10", "--window-start", "10",
            "--window-end", "29", "--n-per-group", "20", "--seed", "3"]
    assert main(argv) == 0
    first = out.read_bytes()
    flags, mtime = first[3], int.from_bytes(first[4:8], "little")
    assert first[:2] == b"\x1f\x8b" and not flags & 0x08 and mtime == 0
    assert main(argv) == 0
    assert out.read_bytes() == first


def test_non_utf8_config_is_exit_2_with_line(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_bytes(b"seed = 3\ngame = Pok\xe9mon\n")
    assert main(["series", "--config", str(cfg_file)]) == 2
    err = capsys.readouterr().err
    assert "config error:" in err and "run.cfg:2" in err and "UTF-8" in err


def _damaged_gzip(raw: bytes, damage: str) -> bytes:
    packed = gzip.compress(raw)
    if damage == "not_gzip":
        return raw
    if damage == "truncated":
        return packed[:20]
    crc = bytes(byte ^ 0xFF for byte in packed[-8:-4])  # the CRC-32 trailer
    return packed[:-8] + crc + packed[-4:]


@pytest.mark.parametrize("damage", ["not_gzip", "truncated", "bad_crc"])
@pytest.mark.parametrize("kind, code", [("input", 1), ("config", 2)])
def test_damaged_gzip_is_an_error_naming_the_file(tmp_path, capsys, kind, code, damage):
    if kind == "input":
        path = tmp_path / "achievements.csv.gz"
        path.write_bytes(_damaged_gzip(b"player_id,game,unlocked_unix\n1,SMB,0\n", damage))
        argv = ["series", "--achievements", str(path), "--out",
                str(tmp_path / "series.csv"), "--window-start", "0", "--window-end", "5"]
    else:
        path = tmp_path / "run.cfg.gz"
        path.write_bytes(_damaged_gzip(b"game = SMB\nseed = 3\n", damage))
        argv = ["series", "--config", str(path)]
    assert main(argv) == code
    err = capsys.readouterr().err
    assert str(path) in err and "gzip" in err
    assert ("config error:" if kind == "config" else "error (ParseError):") in err
    assert "Traceback" not in err


@pytest.mark.parametrize("marked", ["input", "config"])
def test_leading_byte_order_mark_is_dropped(tmp_path, marked):
    bom = b"\xef\xbb\xbf"
    data, cfg_file = tmp_path / "achievements.csv", tmp_path / "run.cfg"
    data.write_bytes((bom if marked == "input" else b"")
                     + b"player_id,game,unlocked_unix\n7,SMB,604800\n")
    cfg_file.write_bytes((bom if marked == "config" else b"")
                         + b"window_start = 0\nwindow_end = 2\n")
    out = tmp_path / "series.csv"
    assert main(["series", "--config", str(cfg_file), "--achievements", str(data),
                 "--out", str(out)]) == 0
    assert out.read_text() == "week,purchases\n0,0\n1,1\n2,0\n"


@pytest.mark.parametrize("flag", ["--config", "--achievements", "--node-filter"])
def test_directory_as_input_path_is_exit_2(sim_dir, tmp_path, capsys, flag):
    folder = tmp_path / "folder"
    folder.mkdir()
    argv = {"--config": ["series", "--config", str(folder)],
            "--achievements": ["series", "--achievements", str(folder),
                               "--window-start", "0", "--window-end", "5"],
            "--node-filter": ["katz", "--edges", str(sim_dir / "edges.csv"),
                              "--node-filter", str(folder), "--week", "6",
                              "--out", str(tmp_path / "scores.csv")]}[flag]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "config error:" in err and str(folder) in err


def test_directory_in_place_of_panel_sidecar_reads_as_no_sidecar(panel_path, tmp_path):
    path = tmp_path / "panel.csv"
    shutil.copy(panel_path, path)
    (tmp_path / "panel.csv.meta.json").mkdir()
    assert main(["estimate", "--panel", str(path), "--out", str(tmp_path / "o")]) == 0


def test_malformed_panel_sidecar_is_exit_1(panel_path, tmp_path, capsys):
    path = tmp_path / "panel.csv"
    shutil.copy(panel_path, path)
    (tmp_path / "panel.csv.meta.json").write_text('{"window": [60')
    assert main(["estimate", "--panel", str(path),
                 "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "error (ParseError)" in err and "panel.csv.meta.json" in err


@pytest.mark.parametrize("command", ["series", "build-panel"])
def test_out_that_is_a_directory_is_exit_2(sim_dir, tmp_path, capsys, command):
    taken = tmp_path / "taken"
    taken.mkdir()
    inputs = ["--achievements", str(sim_dir / "achievements.csv")]
    if command == "build-panel":
        inputs += ["--edges", str(sim_dir / "edges.csv"), "--n-per-group", "60"]
    assert main([command, *inputs, "--window-start", "10", "--window-end", "29",
                 "--out", str(taken)]) == 2
    assert "is a directory" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["taken"] and os.listdir(taken) == []


def test_out_directory_that_is_a_file_is_exit_2(panel_path, tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("keep me")
    assert main(["estimate", "--panel", str(panel_path), "--out", str(taken)]) == 2
    assert "not a directory" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["taken"] and taken.read_text() == "keep me"


def test_estimate_empty_panel_is_exit_2(tmp_path, capsys):
    path = tmp_path / "panel.csv"
    path.write_text("player,week," + ",".join(fileio.PANEL_COLUMNS) + "\n")
    assert main(["estimate", "--panel", str(path),
                 "--out", str(tmp_path / "o")]) == 2
    assert "empty panel" in capsys.readouterr().err


def test_katz_command_writes_scores(sim_dir, tmp_path):
    out = tmp_path / "scores.csv"
    assert main(["katz", "--edges", str(sim_dir / "edges.csv"),
                 "--week", "6", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "player,score"
    # one row per player that appears on an edge (isolates never enter)
    a, b, _ = fileio.read_edges_csv(str(sim_dir / "edges.csv"))
    assert len(lines) == 1 + np.unique(np.concatenate([a, b])).size
    meta = fileio.read_json(str(out) + ".meta.json")
    assert meta["asof"] == 6 and meta["converged"]


# ---------------------------------------------------------------------------
# series


def test_series_counts_hand_case(tmp_path):
    ach = tmp_path / "a.csv"
    fileio.write_achievements_csv(ach, [1, 2, 3], ["SMB"] * 3, [5, 5, 7])
    out = tmp_path / "series.csv"
    assert main(["series", "--achievements", str(ach), "--out", str(out),
                 "--window-start", "4", "--window-end", "8"]) == 0
    assert out.read_text() == \
        "week,purchases\n4,0\n5,2\n6,0\n7,1\n8,0\n"


def test_series_matches_group_by_oracle(tmp_path):
    rng = np.random.default_rng(33)
    players = np.arange(200)
    weeks = rng.integers(0, 30, 200)
    ach = tmp_path / "a.csv"
    fileio.write_achievements_csv(ach, players, ["SMB"] * 200, weeks)
    out = tmp_path / "series.csv"
    assert main(["series", "--achievements", str(ach), "--out", str(out),
                 "--window-start", "5", "--window-end", "20"]) == 0
    want = Counter(int(w) for w in weeks if 5 <= w <= 20)
    got = {}
    for line in out.read_text().splitlines()[1:]:
        w, c = line.split(",")
        got[int(w)] = int(c)
    assert sum(got.values()) == sum(want.values())
    for w in range(5, 21):
        assert got[w] == want.get(w, 0)


def test_window_order_validated(tmp_path, capsys):
    ach = tmp_path / "a.csv"
    fileio.write_achievements_csv(ach, [1], ["SMB"], [5])
    assert main(["series", "--achievements", str(ach),
                 "--window-start", "8", "--window-end", "4"]) == 2
    assert "window_end" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# report formatting and console entry point


def test_format_cell_fixture():
    assert format_cell(0.0733, 0.0008) == ("0.0733", "(0.0008)")
    assert format_cell(-0.25, 0.1) == ("-0.2500", "(0.1000)")


def _checkout_env():
    """The environment with the code under test first on PYTHONPATH, so a
    child process imports it whatever its working directory (PYTHONPATH may
    hold a relative ``src``)."""
    src = str(Path(fileio.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def test_cli_import_and_fits_load_no_scipy(panel_path, tmp_path):
    """Every command process imports ``peerfx.cli``.  That import, and the
    ``estimate`` and ``heterogeneity --method 2sls`` fits on a full-rank
    panel, run on numpy alone: scipy.linalg is loaded only when a design
    fails the rank screen."""
    probe = (
        "import sys\n"
        "def scipy_modules():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "from peerfx.cli import main\n"
        "print(scipy_modules())\n"
        f"assert main(['estimate', '--panel', {str(panel_path)!r},\n"
        f"             '--out', {str(tmp_path / 'est')!r}]) == 0\n"
        f"assert main(['heterogeneity', '--method', '2sls',\n"
        f"             '--panel', {str(panel_path)!r},\n"
        f"             '--out', {str(tmp_path / 'het')!r}]) == 0\n"
        "print(scipy_modules())\n")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=_checkout_env())
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "[]"
    assert lines[-1] == "[]"


_NO_PIPELINE = ("peerfx.graph", "peerfx.panel", "peerfx.simulate", "numpy.ma",
                "concurrent.futures", "statistics")


@pytest.mark.parametrize("command, absent", [
    ("estimate", _NO_PIPELINE),
    ("heterogeneity", _NO_PIPELINE),
    ("build-panel", ("peerfx.simulate", "peerfx.estimator", "peerfx.report", "numpy.ma",
                     "numpy.random")),
    ("simulate", ("peerfx.estimator", "peerfx.report", "numpy.ma")),
    ("playtime", ("numpy.ma", "numpy.random")),
], ids=["estimate", "heterogeneity", "build-panel", "simulate", "playtime"])
def test_each_command_loads_only_the_modules_it_runs(command, absent, sim_dir,
                                                     panel_path, tmp_path):
    """Importing ``peerfx.cli`` loads only the parser's modules, and each
    command then imports the code it calls and no more: the fits load
    neither the graph code nor ``statistics`` or a thread pool, no command
    loads ``numpy.ma`` (numpy 2.4's plain ``np.unique`` imports it), and
    only ``simulate`` loads ``numpy.random``."""
    inputs = ["--edges", str(sim_dir / "edges.csv"),
              "--achievements", str(sim_dir / "achievements.csv")]
    argv = {
        "estimate": ["estimate", "--panel", str(panel_path), "--out", str(tmp_path)],
        "heterogeneity": ["heterogeneity", "--panel", str(panel_path),
                          "--out", str(tmp_path)],
        "build-panel": ["build-panel", *inputs, "--out", str(tmp_path / "panel.csv"),
                        "--release-week", "10", "--window-start", "10",
                        "--window-end", "29", "--n-per-group", "60", "--seed", "3"],
        "simulate": ["simulate", "--out", str(tmp_path), *SIM_ARGS],
        "playtime": ["playtime", *inputs, "--playtime", str(sim_dir / "playtime.csv"),
                     "--covariates", str(sim_dir / "covariates.csv"),
                     "--release-week", "10", "--out", str(tmp_path)],
    }[command]
    probe = (
        "import sys\n"
        "from peerfx.cli import main\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'peerfx'))\n"
        f"assert main({argv!r}) == 0\n"
        f"print([m for m in {absent!r} if m in sys.modules])\n")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=_checkout_env(), timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == str(["peerfx", "peerfx.cli", "peerfx.errors", "peerfx.fileio",
                            "peerfx.settings"])
    assert lines[-1] == "[]"


def test_katz_commands_load_no_scipy(tmp_path):
    """``simulate``, ``build-panel``, ``playtime`` and ``katz`` compute Katz
    centrality on numpy alone: no scipy module is loaded."""
    sim, out = tmp_path / "sim", tmp_path / "out"
    inputs = ["--edges", str(sim / "edges.csv"),
              "--achievements", str(sim / "achievements.csv")]
    argvs = [
        ["simulate", "--out", str(sim), *SIM_ARGS],
        ["build-panel", *inputs, "--out", str(out / "panel.csv"),
         "--release-week", "10", "--window-start", "10", "--window-end", "29",
         "--n-per-group", "60", "--seed", "3"],
        ["playtime", *inputs, "--playtime", str(sim / "playtime.csv"),
         "--covariates", str(sim / "covariates.csv"), "--release-week", "10",
         "--out", str(out)],
        ["katz", "--edges", str(sim / "edges.csv"), "--week", "6",
         "--out", str(out / "scores.csv")],
    ]
    probe = (
        "import sys\n"
        "from peerfx.cli import main\n"
        f"for argv in {argvs!r}:\n"
        "    assert main(argv) == 0, argv\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=_checkout_env(), timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def _series(cmd, ach, cwd, env):
    # a relative --out keeps the "wrote ..." line the same from any cwd
    cwd.mkdir()
    proc = subprocess.run(
        [*cmd, "series", "--achievements", str(ach), "--out", "series.csv",
         "--window-start", "4", "--window-end", "6"],
        capture_output=True, text=True, cwd=cwd, env=env)
    assert proc.returncode == 0, proc.stderr
    out = cwd / "series.csv"
    assert out.read_text().splitlines()[1] == "4,0"
    return out.read_bytes(), proc.stdout


def test_console_script_runs(tmp_path):
    """The ``peerfx`` console script declared in pyproject.toml runs a real
    command.  From a checkout nothing is installed, so the test writes the
    launcher an installer would generate for the declared target and runs
    that; an installed ``peerfx`` on PATH must give the same bytes."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["peerfx"]
    module, func = target.split(":")
    launcher = tmp_path / "peerfx_launcher.py"
    launcher.write_text(
        f"import sys\nfrom {module} import {func}\nsys.exit({func}())\n")
    env = _checkout_env()
    ach = tmp_path / "a.csv"
    fileio.write_achievements_csv(ach, [1], ["SMB"], [5])
    want = _series([sys.executable, str(launcher)], ach,
                   tmp_path / "launcher", env)
    exe = shutil.which("peerfx")
    if exe:
        assert _series([exe], ach, tmp_path / "installed", env) == want
