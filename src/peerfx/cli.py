"""Command-line pipeline: simulate, build-panel, estimate, and friends.

Every run is described by a flat ``key = value`` config file (``#`` starts a
comment); any CLI flag overrides its config key.  Outputs are written
atomically, so a killed run never leaves a half-written file at the final
path, and a fixed seed gives byte-identical files across runs.

A setting the library reads is declared once, on the dataclass that reads
it: ``SimConfig``, ``SimTruth``, ``PanelConfig`` or ``TagConfig``.  Its flag,
config key, default and check come from there, and ``--help`` prints the
default.  ``_CliSettings`` declares the settings no library class has.
Those four classes live in ``settings``, so parsing loads no pipeline code:
each command imports the modules it runs when it starts.

Exit codes: 0 success, 1 toolkit/estimation failure (the error class name is
part of the message), 2 configuration problems, a setting outside its
documented values included.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import fileio
from .errors import ConfigError, InvalidParameterError, PeerEffectsError
from .fileio import PanelDataset
from .settings import PanelConfig, SimConfig, SimTruth, TagConfig


@dataclass
class _CliSettings:
    """The settings no library class reads, with their defaults."""

    # paths
    edges: str | None = None
    achievements: str | None = None
    playtime: str | None = None
    covariates: str | None = None
    node_filter: str | None = None
    panel: str | None = None
    out: str | None = None
    # calendar: release_week unset is 60 in simulate, window_start elsewhere
    window_start: int | None = None
    window_end: int | None = None
    release_week: int | None = None
    week: int | None = None
    # sampling, centrality, estimation and the simulated games
    n_per_group: int = 5000
    katz_alpha: float | None = None
    method: str = "2sls"
    threads: int = 1
    sim_games: str = "SMB,NV"


def _bool(text: str) -> bool:
    return {"true": True, "1": True, "yes": True, "on": True,
            "false": False, "0": False, "no": False, "off": False}[text.lower()]


# value parser per annotation; a new annotation fails at import
_PARSERS = {"str": str, "str | None": str, "int": int, "int | None": int,
            "float": float, "float | None": float, "bool": _bool}
_NOT_TEXT = ("week_effects", "playtime_loadings")  # Python API only
_FIELDS = {}  # name -> Field; the CLI declaration of a name wins
for _f in [f for cls in (_CliSettings, SimConfig, SimTruth, PanelConfig, TagConfig)
           for f in dataclasses.fields(cls) if f.name not in _NOT_TEXT]:
    _FIELDS.setdefault(_f.name, _f)
RunConfig = dataclasses.make_dataclass(  # a field without a default fails here
    "RunConfig", [(f.name, f.type, dataclasses.field(default=f.default))
                  for f in _FIELDS.values()],
    namespace={"__module__": __name__, "__doc__": "Every setting of every "
               "subcommand, declared once: on _CliSettings or the library class."})
_FIELD_KINDS = {name: _PARSERS[f.type] for name, f in _FIELDS.items()}


def parse_config_file(path: str) -> dict:
    """Flat ``key = value`` pairs; blank lines and ``#`` comments ignored."""
    raw = {}
    with fileio._open_read(path, config=True) as fh:
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
    rules = {  # a setting outside its documented values fails before any read
        "window_end": (None in (cfg.window_start, cfg.window_end)
                       or cfg.window_end > cfg.window_start, "above window_start"),
        "threads": (cfg.threads >= 1, "at least 1"),
        "method": (cfg.method in ("2sls", "ols"), "2sls or ols"),
        "n_per_group": (cfg.n_per_group >= 0, "non-negative"),
        "seed": (cfg.seed >= 0, "non-negative"),
        "katz_alpha": (cfg.katz_alpha is None or cfg.katz_alpha > 0.0, "positive")}
    for name, (ok, rule) in rules.items():
        if not ok:
            raise ConfigError(f"{name} must be {rule}, got {getattr(cfg, name)!r}")
    return cfg


def _require(cfg: RunConfig, *names: str):
    for name in names:
        if getattr(cfg, name) is None:
            raise ConfigError(f"{name} is required (set it in the config or as a flag)")


def _load_network(cfg: RunConfig):
    from .graph import build_network
    _require(cfg, "edges")
    # the edge columns go in as a temporary, which build_network frees early
    return build_network(
        fileio.read_edges_csv(cfg.edges, epoch_unix=cfg.epoch_unix),
        node_filter=(None if cfg.node_filter is None
                     else fileio.read_node_filter_csv(cfg.node_filter)))


def _narrowest(col: np.ndarray) -> np.ndarray:
    """A contiguous copy of a float column: int8 when every value is an
    integer in int8's range (a 0/1 column), else float64.  The range test
    comes first, so NaN and inf are never cast."""
    if -128 <= col.min() and col.max() <= 127:
        small = col.astype(np.int8)
        if np.array_equal(small, col):
            return small
    return col.copy()


def _load_panel(cfg: RunConfig, names) -> PanelDataset:
    """The panel file with every column parsed and checked, keeping only the
    value columns ``names`` that the command's fits read, each in the
    narrowest dtype that holds it exactly (see :func:`_narrowest`)."""
    _require(cfg, "panel")
    columns, meta = fileio.read_panel_csv(cfg.panel)
    if columns["player"].size == 0:
        raise ConfigError("empty panel")
    # contiguous copies of the kept columns; the rest of the table is freed
    return PanelDataset(player=columns["player"].copy(), week=columns["week"].copy(),
                        columns={name: _narrowest(columns[name]) for name in names},
                        meta=meta or {})


def _from_run_config(cls, cfg: RunConfig, **explicit):
    """``cls(...)`` from the RunConfig fields it shares by name, then
    ``explicit``; a setting ``cls`` rejects is a ConfigError.  Commands call
    it before they read any input."""
    shared = {f.name: getattr(cfg, f.name) for f in dataclasses.fields(cls)
              if f.name in _FIELD_KINDS}
    try:
        return cls(**{**shared, **explicit})
    except InvalidParameterError as err:
        raise ConfigError(str(err)) from None


def _tag_config(cfg: RunConfig) -> TagConfig:
    """The tag rule; an unset release week is ``window_start``."""
    return _from_run_config(TagConfig, cfg, release_week=(
        cfg.window_start if cfg.release_week is None else cfg.release_week))


def cmd_simulate(cfg: RunConfig) -> int:
    from .simulate import run_simulation
    games = tuple(g.strip() for g in cfg.sim_games.split(",") if g.strip())
    sim_cfg = _from_run_config(
        SimConfig, cfg, release_week=60 if cfg.release_week is None else cfg.release_week)
    truth = _from_run_config(SimTruth, cfg)
    result = run_simulation(sim_cfg, truth, games=games)
    out = cfg.out or "."
    net = result.network

    a, b, formed = net.edge_array()
    a = net.nodes[a]  # each id column replaces its index column
    b = net.nodes[b]
    fileio.write_edges_csv(os.path.join(out, "edges.csv"), a, b, formed,
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
        # each undirected edge is two CSR entries with the same week
        "old_friend_pairs": int(np.count_nonzero(
            net.formed <= result.tags.old_friend_cutoff)) // 2,
    }
    fileio.write_json(os.path.join(out, "truth.json"), sidecar)
    for name in ("edges.csv", "achievements.csv", "playtime.csv",
                 "covariates.csv", "truth.json"):
        print(f"wrote {os.path.join(out, name)}")
    return 0


def cmd_build_panel(cfg: RunConfig) -> int:
    from .graph import katz_centrality, tag_peers
    from .panel import assign_groups, build_panel, derive_schedule
    _require(cfg, "edges", "achievements", "window_start", "window_end")
    panel_cfg = _from_run_config(PanelConfig, cfg)
    tc = _tag_config(cfg)
    net = _load_network(cfg)
    schedule = derive_schedule(fileio.read_achievements_csv(cfg.achievements), cfg.game,
                               epoch_unix=cfg.epoch_unix)
    tags = tag_peers(net, katz_centrality(net, tc.reference_week, alpha=cfg.katz_alpha), tc)
    groups = assign_groups(net, schedule, cfg.n_per_group, cfg.seed,
                           horizon_week=cfg.window_end)
    panel = build_panel(net, schedule, tags, groups,
                        (cfg.window_start, cfg.window_end), panel_cfg)
    out = cfg.out or "panel.csv"
    fileio.write_panel_csv(out, panel)
    print(f"wrote {out} ({panel.n_rows} rows) and {out}.meta.json")
    return 0


def cmd_estimate(cfg: RunConfig) -> int:
    from . import estimator, report
    panel = _load_panel(cfg, ("y", "x_friend", "z_sd_lag"))
    ols = estimator.ols_fit(panel, estimator.DesignSpec(outcome="y", endog=("x_friend",)),
                            threads=cfg.threads)
    iv = estimator.tsls_fit(panel, estimator.DesignSpec(
        outcome="y", endog=("x_friend",), instruments=("z_sd_lag",)), threads=cfg.threads)
    text = report.main_report(ols, iv)
    out = cfg.out or "."
    fileio.write_text(os.path.join(out, "report.txt"), text)
    rows = report.estimates_csv_rows(
        [("ols", ols), ("reduced_form", iv.reduced_form),
         ("first_stage", iv.first_stage[0]), ("2sls", iv)],
        anderson_rubin=iv.ar_stat)
    fileio.write_estimates_csv(os.path.join(out, "estimates.csv"), rows)
    sys.stdout.write(text)
    print(f"wrote {os.path.join(out, 'report.txt')} and "
          f"{os.path.join(out, 'estimates.csv')}")
    return 0


def cmd_heterogeneity(cfg: RunConfig) -> int:
    from . import estimator, report
    panel = _load_panel(cfg, ("y", "x_kp", "x_of", "z_kp_lag", "z_of_lag"))
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
    from . import estimator, report
    from .graph import katz_centrality, tag_peers
    from .panel import build_playtime_crosssection, derive_schedule
    _require(cfg, "achievements", "playtime", "covariates")
    tc = _tag_config(cfg)
    net = _load_network(cfg)
    events = fileio.read_achievements_csv(cfg.achievements)
    playtimes = fileio.read_playtime_csv(cfg.playtime)
    covariates = fileio.read_covariates_csv(cfg.covariates)
    games = [cfg.game] + sorted(set(playtimes[1].tolist()) - {cfg.game})
    schedules = {g: derive_schedule(events, g, epoch_unix=cfg.epoch_unix)
                 for g in games}
    del events  # only the schedules read it
    tags = tag_peers(net, katz_centrality(net, tc.reference_week, alpha=cfg.katz_alpha), tc)
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
    text = report.playtime_report(fits, games)
    out = cfg.out or "."
    fileio.write_text(os.path.join(out, "playtime_report.txt"), text)
    fileio.write_estimates_csv(os.path.join(out, "playtime_estimates.csv"),
                               report.estimates_csv_rows(named))
    fileio.write_json(os.path.join(out, "playtime_meta.json"),
                      {"excluded": diagnostics, "rows": len(rows), "games": games,
                       "dropped": {name: list(fit.dropped) for name, fit in named}})
    sys.stdout.write(text)
    print(f"wrote {os.path.join(out, 'playtime_report.txt')}, "
          f"{os.path.join(out, 'playtime_estimates.csv')} and "
          f"{os.path.join(out, 'playtime_meta.json')}")
    return 0


def cmd_katz(cfg: RunConfig) -> int:
    from .graph import katz_centrality
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
    from .panel import derive_schedule
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


# command: (cmd_* function, help, settings it reads); a class stands for its
# fields, exactly the ones the function passes through _from_run_config
_COMMANDS = {
    "simulate": (cmd_simulate, "generate a synthetic world with known ground truth",
                 ("out", "sim_games", SimConfig, SimTruth)),
    "build-panel": (cmd_build_panel, "assemble the instrumented player-week panel",
                    ("edges", "achievements", "node_filter", "out", "game", "epoch_unix",
                     "window_start", "window_end", "n_per_group", "katz_alpha", "seed",
                     PanelConfig, TagConfig)),
    "estimate": (cmd_estimate, "OLS / reduced form / first stage / 2SLS on a panel",
                 ("panel", "out", "threads")),
    "heterogeneity": (cmd_heterogeneity, "key-player and old-friend effect decomposition",
                      ("panel", "out", "method", "threads")),
    "playtime": (cmd_playtime, "cross-sectional log-playtime regressions",
                 ("edges", "achievements", "playtime", "covariates", "node_filter", "out",
                  "game", "epoch_unix", "katz_alpha", "threads", TagConfig)),
    "katz": (cmd_katz, "Katz centrality scores on a weekly snapshot",
             ("edges", "node_filter", "out", "week", "katz_alpha", "epoch_unix")),
    "series": (cmd_series, "weekly purchase counts over a window",
               ("achievements", "out", "game", "epoch_unix", "window_start", "window_end")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="peerfx",
        description="Peer-effects pipeline: simulate data, build instrumented "
                    "panels, and estimate adoption spillovers.")
    sub = parser.add_subparsers(dest="command", required=True)
    defaults = RunConfig()
    for command, (_, help_text, settings) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", default=None,
                       help="flat key=value config file; flags override keys")
        for name in [n for s in settings for n in ([s] if isinstance(s, str) else [
                f.name for f in dataclasses.fields(s) if f.name in _FIELD_KINDS])]:
            kind = _FIELD_KINDS[name]
            how = {"action": argparse.BooleanOptionalAction} if kind is _bool else {"type": kind}
            p.add_argument("--" + name.replace("_", "-"), dest=name, default=None,
                           help=f"default: {getattr(defaults, name)}", **how)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {k: v for k, v in vars(args).items()
                 if k not in ("command", "config")}
    try:
        cfg = load_config(args.config, overrides)
        return _COMMANDS[args.command][0](cfg)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except PeerEffectsError as err:
        print(f"error ({type(err).__name__}): {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
