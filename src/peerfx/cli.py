"""Command-line pipeline: simulate, build-panel, estimate, and friends.

Every run is described by a flat ``key = value`` config file (``#`` starts a
comment); any CLI flag overrides its config key.  Outputs are written
atomically, so a killed run never leaves a half-written file at the final
path, and a fixed seed gives byte-identical files across runs.

Exit codes: 0 success, 1 toolkit/estimation failure (the error class name is
part of the message), 2 configuration problems.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import estimator, fileio, report
from .errors import ConfigError, PeerEffectsError
from .graph import build_network, katz_centrality, tag_peers
from .panel import (PanelConfig, PanelDataset, assign_groups,
                    build_panel, build_playtime_crosssection, derive_schedule)
from .simulate import SimConfig, SimTruth, run_simulation


@dataclass
class RunConfig:
    """Every tunable of every subcommand, with its documented default."""

    # paths
    edges: str | None = None
    achievements: str | None = None
    playtime: str | None = None
    covariates: str | None = None
    node_filter: str | None = None
    panel: str | None = None
    out: str | None = None
    # calendar and identifiers
    epoch_unix: int = 0
    game: str = "SMB"
    window_start: int | None = None
    window_end: int | None = None
    release_week: int | None = None
    week: int | None = None
    # panel construction
    outcome_mode: str = "absorbing"
    aggregation: str = "any"
    censor_after_purchase: bool = False
    n_per_group: int = 5000
    # centrality and peer tags
    katz_alpha: float | None = None
    kp_percentile: float = 0.99
    min_age_weeks: int = 52
    connected_only: bool = False
    # estimation
    method: str = "2sls"
    threads: int = 1
    # simulation: network and calendar shape
    n_players: int = 20000
    mean_degree: float = 2.15
    degree_dist: str = "poisson"
    powerlaw_exponent: float = 2.5
    n_weeks: int = 100
    old_edge_fraction: float = 0.5
    formation_end: int | None = None
    key_player_share: float = 0.01
    sim_games: str = "SMB,NV"
    # simulation: planted truth
    beta: float = 0.05
    beta_kp: float = 0.0
    beta_of: float = 0.0
    baseline_hazard: float = 5e-4
    sigma_alpha: float = 1e-4
    prob_noise_sd: float = 0.0
    homophily: float = 0.0
    gamma_kp: float = 0.0
    gamma_of: float = 0.0
    gamma_nofriend: float = 0.0
    playtime_mu: float = 2.8
    noise_sd: float = 1.0
    seed: int = 0


_PATH_FIELDS = ("edges", "achievements", "playtime", "covariates",
                "node_filter", "panel")


def _bool(text: str) -> bool:
    return {"true": True, "1": True, "yes": True, "on": True,
            "false": False, "0": False, "no": False, "off": False}[text.lower()]


# value parser per RunConfig annotation; a new annotation fails at import
_PARSERS = {"str": str, "str | None": str, "int": int, "int | None": int,
            "float": float, "float | None": float, "bool": _bool}
_FIELD_KINDS = {f.name: _PARSERS[f.type] for f in dataclasses.fields(RunConfig)}


def parse_config_file(path: str) -> dict:
    """Flat ``key = value`` pairs; blank lines and ``#`` comments ignored."""
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    raw = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ConfigError(f"{path}:{lineno}: expected key = value, got {text!r}")
            key, value = (part.strip() for part in text.split("=", 1))
            key = key.replace("-", "_")
            if key not in _FIELD_KINDS:
                raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
            raw[key] = (value, lineno, path)
    return raw


def load_config(config_path: str | None, overrides: dict) -> RunConfig:
    cfg = RunConfig()
    if config_path:
        for key, (value, lineno, path) in parse_config_file(config_path).items():
            try:
                setattr(cfg, key, _FIELD_KINDS[key](value))
            except (ValueError, KeyError):
                raise ConfigError(
                    f"{path}:{lineno}: bad value {value!r} for {key}") from None
    for key, value in overrides.items():
        if value is not None:
            setattr(cfg, key, value)
    if cfg.window_start is not None and cfg.window_end is not None \
            and cfg.window_end <= cfg.window_start:
        raise ConfigError("window_end must exceed window_start")
    return cfg


def _require(cfg: RunConfig, *names: str):
    for name in names:
        if getattr(cfg, name) is None:
            raise ConfigError(f"{name} is required (set it in the config or as a flag)")
    for name in names:
        if name in _PATH_FIELDS and not os.path.exists(getattr(cfg, name)):
            raise ConfigError(f"{name}: no such file: {getattr(cfg, name)}")


def _optional_path(cfg: RunConfig, name: str):
    value = getattr(cfg, name)
    if value is not None and not os.path.exists(value):
        raise ConfigError(f"{name}: no such file: {value}")
    return value


def _load_network(cfg: RunConfig):
    _require(cfg, "edges")
    triple = fileio.read_edges_csv(cfg.edges, epoch_unix=cfg.epoch_unix)
    node_filter = None
    if _optional_path(cfg, "node_filter"):
        node_filter = fileio.read_node_filter_csv(cfg.node_filter)
    return build_network(triple, node_filter=node_filter)


def _load_panel(cfg: RunConfig) -> PanelDataset:
    _require(cfg, "panel")
    columns, meta = fileio.read_panel_csv(cfg.panel)
    player = columns.pop("player")
    week = columns.pop("week")
    if player.size == 0:
        raise ConfigError("empty panel")
    return PanelDataset(player=player, week=week, columns=columns, meta=meta or {})


def _resolve_release(cfg: RunConfig) -> int:
    if cfg.release_week is not None:
        return cfg.release_week
    if cfg.window_start is not None:
        return cfg.window_start
    raise ConfigError("release_week is required (or set window_start)")


def _tag_network(cfg: RunConfig, net):
    release = _resolve_release(cfg)
    scores = katz_centrality(net, release - 4, alpha=cfg.katz_alpha)
    tags = tag_peers(net, scores, release, percentile=cfg.kp_percentile,
                     min_age_weeks=cfg.min_age_weeks,
                     connected_only=cfg.connected_only)
    return tags, scores


def _from_run_config(cls, cfg: RunConfig, **explicit):
    """``cls(...)`` from the RunConfig fields it shares by name, then ``explicit``."""
    shared = {f.name: getattr(cfg, f.name) for f in dataclasses.fields(cls)
              if f.name in _FIELD_KINDS}
    return cls(**{**shared, **explicit})


def cmd_simulate(cfg: RunConfig) -> int:
    games = tuple(g.strip() for g in cfg.sim_games.split(",") if g.strip())
    sim_cfg = _from_run_config(
        SimConfig, cfg, release_week=60 if cfg.release_week is None else cfg.release_week)
    truth = _from_run_config(SimTruth, cfg)
    result = run_simulation(sim_cfg, truth, games=games)
    out = cfg.out or "."
    net = result.network

    ai, bi, formed = net.edge_array()
    fileio.write_edges_csv(os.path.join(out, "edges.csv"),
                           net.nodes[ai], net.nodes[bi], formed,
                           epoch_unix=cfg.epoch_unix)
    scheds = list(result.schedules.values())  # never empty: cfg.game is always simulated
    fileio.write_achievements_csv(os.path.join(out, "achievements.csv"),
                                  np.concatenate([s.players for s in scheds]),
                                  np.repeat([s.game for s in scheds],
                                            [s.players.size for s in scheds]),
                                  np.concatenate([s.weeks for s in scheds]),
                                  epoch_unix=cfg.epoch_unix)
    fileio.write_playtime_csv(os.path.join(out, "playtime.csv"), *result.playtimes)
    cov = result.covariates
    fileio.write_covariates_csv(os.path.join(out, "covariates.csv"),
                                cov["player"], cov["num_games"],
                                cov["num_groups"], cov["start_week"])
    sidecar = {
        "config": dataclasses.asdict(sim_cfg),
        "truth": truth.to_dict(),
        "network": net.diagnostics,
        "adoption": {g: s.meta for g, s in result.schedules.items()},
        "key_players": int(result.tags.key_players.size),
        "old_friend_pairs": int(result.tags.old_friend_pairs.shape[0]),
    }
    fileio.write_json(os.path.join(out, "truth.json"), sidecar)
    for name in ("edges.csv", "achievements.csv", "playtime.csv",
                 "covariates.csv", "truth.json"):
        print(f"wrote {os.path.join(out, name)}")
    return 0


def cmd_build_panel(cfg: RunConfig) -> int:
    _require(cfg, "edges", "achievements", "window_start", "window_end")
    net = _load_network(cfg)
    events = fileio.read_achievements_csv(cfg.achievements)
    schedule = derive_schedule(events, cfg.game, epoch_unix=cfg.epoch_unix)
    tags, _ = _tag_network(cfg, net)
    groups = assign_groups(net, schedule, cfg.n_per_group, cfg.seed,
                           horizon_week=cfg.window_end)
    panel = build_panel(net, schedule, tags, groups,
                        (cfg.window_start, cfg.window_end),
                        _from_run_config(PanelConfig, cfg))
    out = cfg.out or "panel.csv"
    fileio.write_panel_csv(out, panel)
    print(f"wrote {out} ({panel.n_rows} rows) and {out}.meta.json")
    return 0


def _estimate_specs():
    ols = estimator.DesignSpec(outcome="y", endog=("x_friend",))
    rf = estimator.DesignSpec(outcome="y", exog=("z_sd_lag",))
    iv = estimator.DesignSpec(outcome="y", endog=("x_friend",),
                              instruments=("z_sd_lag",))
    return ols, rf, iv


def cmd_estimate(cfg: RunConfig) -> int:
    panel = _load_panel(cfg)
    ols_spec, rf_spec, iv_spec = _estimate_specs()
    ols = estimator.ols_fit(panel, ols_spec, threads=cfg.threads)
    rf = estimator.ols_fit(panel, rf_spec, threads=cfg.threads)
    iv = estimator.tsls_fit(panel, iv_spec, threads=cfg.threads)
    text = report.main_report(ols, rf, iv)
    out = cfg.out or "."
    fileio.write_text(os.path.join(out, "report.txt"), text)
    fs = iv.first_stage if not isinstance(iv.first_stage, tuple) else iv.first_stage[0]
    rows = report.estimates_csv_rows(
        [("ols", ols), ("reduced_form", rf), ("first_stage", fs), ("2sls", iv)],
        anderson_rubin=iv.ar_stat)
    fileio.write_estimates_csv(os.path.join(out, "estimates.csv"), rows)
    sys.stdout.write(text)
    print(f"wrote {os.path.join(out, 'report.txt')} and "
          f"{os.path.join(out, 'estimates.csv')}")
    return 0


def cmd_heterogeneity(cfg: RunConfig) -> int:
    panel = _load_panel(cfg)
    if cfg.method not in ("2sls", "ols"):
        raise ConfigError(f"method must be 2sls or ols, got {cfg.method!r}")
    ols = estimator.heterogeneity_fit(panel, method="ols", threads=cfg.threads)
    named = [("ols", ols)]
    if cfg.method == "2sls":
        iv = estimator.heterogeneity_fit(panel, method="2sls", threads=cfg.threads)
        text = report.heterogeneity_report(iv, ols)
        named.append(("2sls", iv))
    else:
        text = report.heterogeneity_report(ols)
    out = cfg.out or "."
    fileio.write_text(os.path.join(out, "heterogeneity.txt"), text)
    fileio.write_estimates_csv(os.path.join(out, "heterogeneity.csv"),
                               report.estimates_csv_rows(named))
    sys.stdout.write(text)
    print(f"wrote {os.path.join(out, 'heterogeneity.txt')} and "
          f"{os.path.join(out, 'heterogeneity.csv')}")
    return 0


def cmd_playtime(cfg: RunConfig) -> int:
    _require(cfg, "achievements", "playtime", "covariates")
    net = _load_network(cfg)
    events = fileio.read_achievements_csv(cfg.achievements)
    playtimes = fileio.read_playtime_csv(cfg.playtime)
    covariates = fileio.read_covariates_csv(cfg.covariates)
    games = [cfg.game] + sorted(set(playtimes[1].tolist()) - {cfg.game})
    schedules = {g: derive_schedule(events, g, epoch_unix=cfg.epoch_unix)
                 for g in games}
    tags, _ = _tag_network(cfg, net)
    diagnostics = {}
    rows = build_playtime_crosssection(net, schedules, tags, playtimes,
                                       covariates, diagnostics)
    if len(rows) == 0:
        raise ConfigError("empty playtime cross-section")
    fits = [("(1) All", estimator.playtime_fit(rows, variant=1, threads=cfg.threads)),
            ("(2) All", estimator.playtime_fit(rows, variant=2, threads=cfg.threads))]
    named = [("playtime_v1", fits[0][1]), ("playtime_v2", fits[1][1])]
    for k, game in enumerate(games[:2], start=3):
        sub = rows[rows.game == game]
        if len(sub) == 0:
            continue
        fit = estimator.playtime_fit(sub, variant=k, threads=cfg.threads)
        fits.append((f"({k}) {game}", fit))
        named.append((f"playtime_v{k}", fit))
    text = report.playtime_report(fits)
    out = cfg.out or "."
    fileio.write_text(os.path.join(out, "playtime_report.txt"), text)
    fileio.write_estimates_csv(os.path.join(out, "playtime_estimates.csv"),
                               report.estimates_csv_rows(named))
    fileio.write_json(os.path.join(out, "playtime_meta.json"),
                      {"excluded": diagnostics, "rows": len(rows),
                       "games": games})
    sys.stdout.write(text)
    print(f"wrote {os.path.join(out, 'playtime_report.txt')}, "
          f"{os.path.join(out, 'playtime_estimates.csv')} and "
          f"{os.path.join(out, 'playtime_meta.json')}")
    return 0


def cmd_katz(cfg: RunConfig) -> int:
    _require(cfg, "week")
    net = _load_network(cfg)
    scores = katz_centrality(net, cfg.week, alpha=cfg.katz_alpha)
    out = cfg.out or "scores.csv"
    fileio.write_scores_csv(out, scores.players, scores.values)
    fileio.write_json(out + ".meta.json", {
        "asof": scores.asof, "alpha": scores.alpha,
        "iterations": scores.iterations, "converged": scores.converged})
    print(f"wrote {out} and {out}.meta.json")
    return 0


def cmd_series(cfg: RunConfig) -> int:
    _require(cfg, "achievements", "window_start", "window_end")
    events = fileio.read_achievements_csv(cfg.achievements)
    schedule = derive_schedule(events, cfg.game, epoch_unix=cfg.epoch_unix)
    w0, w1 = cfg.window_start, cfg.window_end
    weeks = np.arange(w0, w1 + 1, dtype=np.int64)
    inside = (schedule.weeks >= w0) & (schedule.weeks <= w1)
    counts = np.bincount(schedule.weeks[inside] - w0, minlength=weeks.size)
    out = cfg.out or "series.csv"
    fileio.write_series_csv(out, weeks, counts)
    print(f"wrote {out}")
    return 0


_COMMANDS = {
    "simulate": cmd_simulate,
    "build-panel": cmd_build_panel,
    "estimate": cmd_estimate,
    "heterogeneity": cmd_heterogeneity,
    "playtime": cmd_playtime,
    "katz": cmd_katz,
    "series": cmd_series,
}


def _add_flag(parser, name, kind, help_text=""):
    flag = "--" + name.replace("_", "-")
    default = getattr(RunConfig(), name)
    note = f"{help_text} (default: {default})" if help_text else f"default: {default}"
    if kind is _bool:
        parser.add_argument(flag, dest=name, action=argparse.BooleanOptionalAction,
                            default=None, help=note)
    else:
        parser.add_argument(flag, dest=name, type=kind, default=None, help=note)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="peerfx",
        description="Peer-effects pipeline: simulate data, build instrumented "
                    "panels, and estimate adoption spillovers.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, fields):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=None,
                       help="flat key=value config file; flags override keys")
        for field_name in fields:
            _add_flag(p, field_name, _FIELD_KINDS[field_name])
        return p

    add("simulate", "generate a synthetic world with known ground truth",
        ["out", "seed", "game", "sim_games", "epoch_unix", "n_players",
         "mean_degree", "degree_dist", "powerlaw_exponent", "n_weeks",
         "release_week", "old_edge_fraction", "formation_end",
         "key_player_share", "beta", "beta_kp", "beta_of", "baseline_hazard",
         "sigma_alpha", "prob_noise_sd", "homophily", "gamma_kp", "gamma_of",
         "gamma_nofriend", "playtime_mu", "noise_sd"])
    add("build-panel", "assemble the instrumented player-week panel",
        ["edges", "achievements", "node_filter", "out", "game", "epoch_unix",
         "window_start", "window_end", "release_week", "outcome_mode",
         "aggregation", "censor_after_purchase", "n_per_group", "katz_alpha",
         "kp_percentile", "min_age_weeks", "connected_only", "seed"])
    add("estimate", "OLS / reduced form / first stage / 2SLS on a panel",
        ["panel", "out", "threads"])
    add("heterogeneity", "key-player and old-friend effect decomposition",
        ["panel", "out", "method", "threads"])
    add("playtime", "cross-sectional log-playtime regressions",
        ["edges", "achievements", "playtime", "covariates", "node_filter",
         "out", "game", "epoch_unix", "release_week", "katz_alpha",
         "kp_percentile", "min_age_weeks", "connected_only", "threads"])
    add("katz", "Katz centrality scores on a weekly snapshot",
        ["edges", "node_filter", "out", "week", "katz_alpha", "epoch_unix"])
    add("series", "weekly purchase counts over a window",
        ["achievements", "out", "game", "epoch_unix", "window_start",
         "window_end"])
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {k: v for k, v in vars(args).items()
                 if k not in ("command", "config")}
    try:
        cfg = load_config(args.config, overrides)
        return _COMMANDS[args.command](cfg)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except PeerEffectsError as err:
        print(f"error ({type(err).__name__}): {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
