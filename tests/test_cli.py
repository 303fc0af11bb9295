"""End-to-end command-line tests: config handling, exit codes, file outputs,
and byte-level determinism.  One report is frozen as a golden file."""

import dataclasses
import filecmp
import gzip
import os
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from peerfx import fileio, tsls_fit
from peerfx.cli import RunConfig, load_config, main, parse_config_file
from peerfx.estimator import DesignSpec
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
    assert "no such file" in capsys.readouterr().err


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


@pytest.mark.parametrize("bad_row", ["1,12,x,0,0,0,0,0,0", "1,12,0"],
                         ids=["bad_cell", "short_row"])
def test_estimate_malformed_panel_is_exit_1_with_line(panel_path, tmp_path,
                                                      capsys, bad_row):
    lines = panel_path.read_text().splitlines(keepends=True)
    path = tmp_path / "panel.csv"
    path.write_text("".join(lines[:2]) + bad_row + "\n" + "".join(lines[2:]))
    assert main(["estimate", "--panel", str(path),
                 "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "error (ParseError)" in err and "line 3:" in err


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
    panel, run on numpy alone: scipy.sparse is loaded by the commands that
    build sparse matrices and scipy.linalg only when a design fails the
    rank screen."""
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
